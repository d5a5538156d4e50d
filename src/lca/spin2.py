"""Sign-vector calculus for diagonalizable 2-subgroups of SO_n and their spin lifts.

A sign vector is a diagonal involution of SO_n with an even number of -1
entries.  Its spin lift squares to the centre unless the -1-eigenspace
dimension is divisible by 4, and two lifts commute exactly when their
supports meet evenly.  A group generated by lifts (Clifford-group elements,
(support mask, sign) pairs) is matched against a catalogue of the named
2-group types by invariants read off the GF(2) span of its generators'
masks, with no product taken except over a dependency among the masks.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import NamedTuple

from .rootsys import SemisimpleTypeLabel, SimpleType, orthogonal_factors

_RUN = re.compile(r"(-?1)(?:\^(\d+))?$")


class SignVector(NamedTuple("SignVector", [("n", int), ("signs", tuple)])):
    __slots__ = ()

    def __new__(cls, n: int, signs: tuple):
        if len(signs) != n or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be a +/-1 sequence of length n")
        if signs.count(-1) % 2:
            raise ValueError("sign vectors must have an even number of -1 entries")
        return super().__new__(cls, n, signs)

    @staticmethod
    def parse(text: str, n: int | None = None) -> "SignVector":
        """Parse run-length notation like "(-1^6,1^10)"."""
        body = text.strip().strip("()")
        signs: list = []
        for token in body.split(","):
            token = token.strip()
            m = _RUN.match(token)
            if not m:
                raise ValueError(f"bad sign-vector token {token!r}")
            value = int(m.group(1))
            count = int(m.group(2) or 1)
            signs.extend([value] * count)
        if n is not None and len(signs) != n:
            raise ValueError(f"expected length {n}, got {len(signs)}")
        return SignVector(len(signs), tuple(signs))

    def __str__(self) -> str:
        runs = []
        for s in self.signs:
            if runs and runs[-1][0] == s:
                runs[-1][1] += 1
            else:
                runs.append([s, 1])
        body = ",".join(f"{s}^{c}" if c > 1 else str(s) for s, c in runs)
        return f"({body})"

    @property
    def support(self) -> frozenset:
        return frozenset(i for i, s in enumerate(self.signs) if s == -1)


class EigenPartition(NamedTuple):
    """Joint eigenspace blocks of a set of sign vectors, in coordinate order."""

    n: int
    blocks: tuple

    @property
    def sizes(self) -> tuple:
        return tuple(len(b) for b in self.blocks)


def eigen_partition(vectors, n: int | None = None) -> EigenPartition:
    """Coordinates grouped by joint sign pattern; no vectors means one block."""
    if not vectors:
        if n is None:
            raise ValueError("ambient dimension required when no vectors are given")
        return trivial_partition(n)
    n = vectors[0].n
    if any(v.n != n for v in vectors):
        raise ValueError("mixed sign-vector lengths")
    patterns: dict = {}
    for i in range(n):
        key = tuple(v.signs[i] for v in vectors)
        patterns.setdefault(key, []).append(i)
    blocks = sorted(patterns.values(), key=lambda b: b[0])
    return EigenPartition(n, tuple(tuple(b) for b in blocks))


def trivial_partition(n: int) -> EigenPartition:
    return EigenPartition(n, (tuple(range(n)),))


class SOCentralizer(NamedTuple):
    label: SemisimpleTypeLabel
    torus_blocks: int
    dropped: int


def so_centralizer_type(vectors, n: int | None = None) -> SOCentralizer:
    """Connected centralizer of sign vectors in SO_n, as a type label.

    Blocks of size 1 are discarded; blocks of size 2 are normal tori and are
    counted in ``torus_blocks`` (reducibility evidence, no type factor).
    """
    part = eigen_partition(vectors, n)
    factors: list = []
    torus = 0
    dropped = 0
    for size in part.sizes:
        if size == 1:
            dropped += 1
        elif size == 2:
            torus += 1
        else:
            factors.extend(orthogonal_factors(size))
    return SOCentralizer(SemisimpleTypeLabel.of(*factors), torus, dropped)


# -- the Clifford group on (mask, sign) pairs ----------------------------------


def _lift(v: SignVector):
    mask = 0
    for i in v.support:
        mask |= 1 << i
    return (mask, 1)


def _clifford_mul(a, b):
    """e_A e_B = +-e_{A^B}, minus iff popcount(P(A) & B) is odd.  Bit j of P(A) (``above``,
    a prefix XOR of A >> 1 by doubling shifts) is the parity of the bits of A above j."""
    mask, sign = a
    bmask, bsign = b
    above, shift, width = mask >> 1, 1, mask.bit_length()
    while shift < width:
        above ^= above >> shift
        shift <<= 1
    if (above & bmask).bit_count() % 2:
        sign = -sign
    return (mask ^ bmask, sign * bsign)


class TwoGroupType(NamedTuple):
    name: str
    order: int
    exponent: int
    recognized: bool

    def __str__(self):
        return self.name


# (order, abelian, order histogram, centre size) -> name
_CATALOGUE = {
    (4, True, ((2, 1), (4, 2)), 4): "4",
    (8, True, ((2, 3), (4, 4)), 8): "4x2",
    (8, False, ((2, 5), (4, 2)), 2): "Dih8",
    (8, False, ((2, 1), (4, 6)), 2): "Q8",
    (16, False, ((2, 11), (4, 4)), 4): "Dih8x2",
    (16, False, ((2, 3), (4, 12)), 4): "Q8x2",
    (16, False, ((2, 7), (4, 8)), 4): "4oDih8",
    (32, False, ((2, 11), (4, 20)), 2): "2^{1+4}-",
}


def _invariants(gens) -> tuple:
    """(order, exponent, abelian, order histogram, centre size) of the group G ``gens`` generate,
    read off the GF(2) span V of their masks without closing G under products.

    G maps onto V with kernel G & {+-1}: it holds one lift of each mask in V, or both when -1
    is in G, that is when a generator squares to -1, two generators anticommute, or the product
    over a dependency among the masks has sign -1 (the only products taken).  (A, s) commutes
    with a generator iff A meets its mask evenly; if not the identity, it has order 2 iff
    |A| = 0 mod 4, else 4.
    """
    masks = [mask for mask, _ in gens]
    abelian = all((a & b).bit_count() % 2 == 0 for a in masks for b in masks)
    minus = not abelian or any(mask.bit_count() % 4 for mask in masks)
    basis = []  # (reduced mask, bit set of the generators it sums)
    for i, mask in enumerate(masks):
        used = 1 << i
        for b, b_used in basis:
            if mask ^ b < mask:
                mask, used = mask ^ b, used ^ b_used
        if mask:
            basis.append((mask, used))
        elif not minus:  # commuting generators: the dependency's product is +-1 in any order
            minus = reduce(_clifford_mul, [g for j, g in enumerate(gens) if used >> j & 1])[1] < 0
    order = 2 ** len(basis) << minus
    if order > 4096:
        raise ValueError("generated group is unexpectedly large")
    span = [0]
    for b, _ in basis:
        span += [a ^ b for a in span]
    fours = sum(a.bit_count() % 4 == 2 for a in span) << minus
    twos = order - 1 - fours
    hist = tuple((k, count) for k, count in ((2, twos), (4, fours)) if count)
    centre = sum(all((a & mask).bit_count() % 2 == 0 for mask in masks) for a in span) << minus
    return order, 4 if fours else 2 if twos else 1, abelian, hist, centre


def identify_2group(vectors) -> TwoGroupType:
    """Abstract type of the group generated by the spin lifts of the vectors.

    The named types are recognized by order data and centre size, read off
    the generators' masks (``_invariants``); anything else comes back with
    ``recognized=False``.
    """
    if vectors and any(v.n != vectors[0].n for v in vectors):
        raise ValueError("mixed sign-vector lengths")
    order, exponent, abelian, hist, centre = _invariants([_lift(v) for v in vectors])
    if abelian and exponent <= 2:
        k = order.bit_length() - 1
        name = "1" if order == 1 else ("2" if k == 1 else f"2^{k}")
        return TwoGroupType(name, order, exponent, True)
    name = _CATALOGUE.get((order, abelian, hist, centre))
    if name is None:
        return TwoGroupType(f"unrecognized[{order},exp{exponent}]", order, exponent, False)
    return TwoGroupType(name, order, exponent, True)


# -- classical centralizers ---------------------------------------------------


def classical_centralizer(block_dims, ambient: str) -> SemisimpleTypeLabel:
    """Centralizer type of a diagonalizable 2-group on weight-space blocks.

    ``ambient`` is "Sp<2n>" or "SO<n>".  Symplectic blocks must be even and
    fill the space; orthogonal blocks must be at least 3 and may leave one
    dimension over.
    """
    kind, digits = ambient[:2].upper(), ambient[2:]
    if kind not in ("SP", "SO") or not digits.isdecimal():
        raise ValueError(f"ambient must be Sp2n or SOn, got {ambient!r}")
    dim = int(digits)
    if kind == "SP":
        if dim % 2 or sum(block_dims) != dim:
            raise ValueError(f"Sp blocks {block_dims} must fill dimension {dim}")
        factors = []
        for b in block_dims:
            if b % 2:
                raise ValueError(f"odd symplectic block of size {b}")
            factors.append(SimpleType("C", b // 2))
        return SemisimpleTypeLabel.of(*factors)
    if sum(block_dims) not in (dim, dim - 1):
        raise ValueError(f"SO blocks {block_dims} must fill {dim} or {dim}-1")
    if any(b < 3 for b in block_dims):
        raise ValueError("SO blocks of size < 3 are tori or trivial")
    factors = []
    for b in block_dims:
        factors.extend(orthogonal_factors(b))
    return SemisimpleTypeLabel.of(*factors)
