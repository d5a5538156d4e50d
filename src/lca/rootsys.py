"""Root systems of the simple types, their lattices and diagram combinatorics.

Roots are stored as integer coordinate vectors in the simple-root basis;
weights as integer vectors in the fundamental-weight basis.  Everything is a
plain integer: the Cartan and Gram matrices, norms, coroots, coroot
pairings, the weight order ``<w, 2 rho-check>`` and the inner product of a
weight with a root, which the symmetrizer gives without inverting the
Cartan matrix.  The symmetrizer divides only where the quotient is exact, so
no ``Fraction`` is needed.  Node numbering follows the standard Bourbaki
labelling throughout, and ``cartan_matrix`` is its one statement: the type
and node order of a subsystem diagram are read off by matching its pairings
against it.  The seven table groups (E8, ..., AutE6, AutD4) and their
adjoint dimensions are named here too.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple

from .linalg import dot, matvec, transpose

FAMILIES = "ABCDEFG"

_ADJOINT_DIM = {
    "A": lambda n: n * (n + 2),
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
    "E": lambda n: {6: 78, 7: 133, 8: 248}[n],
    "F": lambda n: 52,
    "G": lambda n: 14,
}


def is_admissible(family: str, rank: int) -> bool:
    if family in ("A", "B", "C"):
        return rank >= 1
    if family == "D":
        return rank >= 3
    if family == "E":
        return rank in (6, 7, 8)
    if family == "F":
        return rank == 4
    if family == "G":
        return rank == 2
    return False


class SimpleType(NamedTuple("SimpleType", [("family", str), ("rank", int)])):
    """One simple type, e.g. E8 or B4; an inadmissible one raises ValueError."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        if not is_admissible(family, rank):
            raise ValueError(f"inadmissible simple type {family}{rank}")
        return super().__new__(cls, family, rank)

    @staticmethod
    def parse(text: str) -> "SimpleType":
        text = text.strip()
        if not text or text[0].upper() not in FAMILIES or not text[1:].isdigit():
            raise ValueError(f"cannot parse simple type {text!r}")
        return SimpleType(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def adjoint_dimension(self) -> int:
        return _ADJOINT_DIM[self.family](self.rank)


# The automorphism-extended table groups, the one statement of each: its identity
# component (inner classes, rank, dimension), and for each order of diagram
# automorphism the g_0 of its twisted affine diagram, E6^(2), D4^(2) and D4^(3)
TWISTED_GROUPS = {"AutE6": ("E6", {2: "F4"}), "AutD4": ("D4", {2: "B3", 3: "G2"})}


def group_type(group: str) -> SimpleType:
    """Simple type of a table group; AutE6 and AutD4 give E6 and D4."""
    return SimpleType.parse(TWISTED_GROUPS.get(group, (group,))[0])


ADJOINT_DIMENSION = {
    g: group_type(g).adjoint_dimension
    for g in ("E8", "E7", "E6", "F4", "G2", *TWISTED_GROUPS)
}


def orthogonal_factors(dim: int) -> tuple[SimpleType, ...]:
    """Simple factors of SO(dim), dim >= 3, as the tables name them.

    SO4 is A1*A1 and SO6 is A3; otherwise SO(2k+1) is Bk and SO(2k) is Dk.
    """
    if dim == 4:
        return (SimpleType("A", 1), SimpleType("A", 1))
    if dim == 6:
        return (SimpleType("A", 3),)
    return (SimpleType("B" if dim % 2 else "D", dim // 2),)


@lru_cache(maxsize=64)
def cartan_matrix(st: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix A with A[i][j] = <alpha_i, alpha_j-coroot>."""
    n = st.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    fam = st.family
    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if fam == "B" and n >= 2:
            bond(n - 2, n - 1, -2, -1)
        if fam == "C" and n >= 2:
            bond(n - 2, n - 1, -1, -2)
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif fam == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for x, y in zip(chain, chain[1:]):
            bond(x, y)
        bond(1, 3)
    elif fam == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif fam == "G":
        bond(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


def symmetrizer(cartan) -> tuple[int, ...]:
    """Integers d with A[i][j]*d[j] = A[j][i]*d[i]; d[i] is half the root norm.

    Each component starts at 6, which ratios 1/2 and 1/3 keep integral; others raise ValueError.
    """
    n = len(cartan)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = 6
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i != j and cartan[i][j] != 0 and d[j] is None:
                    d[j], remainder = divmod(d[i] * cartan[j][i], cartan[i][j])
                    if remainder:
                        raise ValueError(f"no integer symmetrizer for {cartan}")
                    queue.append(j)
    g = gcd(*d)
    return tuple(x // g for x in d)


class RootSystem:
    """Immutable root-system data for one simple type.

    Construction generates all roots by reflection closure from the simple
    roots.  Instances are cached per type and safely shareable.
    """

    def __init__(self, st: SimpleType):
        self.type = st
        self.rank = st.rank
        self.cartan = cartan_matrix(st)
        self._cartan_columns = transpose(self.cartan)
        self.d = symmetrizer(self.cartan)
        # gram[i][j] = (alpha_i, alpha_j), up to one global scale per system
        self.gram = tuple(
            tuple(self.cartan[i][j] * self.d[j] for j in range(self.rank))
            for i in range(self.rank)
        )
        self._close_roots()

    def _close_roots(self):
        """The positive roots, walked up from the simple ones with their fundamental coordinates.

        Reflecting in alpha_i subtracts the pairing times alpha_i, whose
        fundamental coordinates are row i of the Cartan matrix; a negative
        pairing leads to a higher positive root, and every one is reached so.
        """
        n = self.rank
        fund = {tuple(int(j == i) for j in range(n)): row for i, row in enumerate(self.cartan)}
        frontier = list(fund)
        while frontier:
            nxt = []
            for c in frontier:
                for i, pairing in enumerate(fund[c]):
                    if pairing < 0 and (r := c[:i] + (c[i] - pairing,) + c[i + 1 :]) not in fund:
                        fund[r] = tuple(x - pairing * a for x, a in zip(fund[c], self.cartan[i]))
                        nxt.append(r)
            frontier = nxt
        self.positive_roots = tuple(sorted(fund))
        self.positive_roots_fund = tuple(fund[c] for c in self.positive_roots)
        self.all_roots = frozenset(fund) | frozenset(tuple(-x for x in c) for c in fund)
        self.highest_root = max(self.positive_roots, key=sum)
        self.marks = self.highest_root
        if any(m < 0 for m in fund[self.highest_root]):
            raise AssertionError("highest root is not dominant")

    @cached_property
    def highest_short_root(self) -> tuple[int, ...]:
        """The highest root among the shortest ones; the highest root if all norms agree."""
        short = 2 * min(self.d)
        return max((c for c in self.positive_roots if self.root_norm(c) == short), key=sum)

    # -- coordinate conversions ------------------------------------------

    def root_to_weight(self, coords) -> tuple[int, ...]:
        """Fundamental coordinates of an element of the root lattice."""
        return tuple(sum(map(mul, coords, column)) for column in self._cartan_columns)

    def root_norm(self, coords) -> int:
        return dot(coords, matvec(self.gram, coords))

    def coroot(self, root_coords, norm: int) -> tuple[int, ...]:
        """Simple-coroot coordinates of 2 root / (root, root), given that norm.

        Coordinate j is <omega_j, root-coroot>.  Integral for every root; a
        remainder means ``root_coords`` is not one.
        """
        out = []
        for c, d in zip(root_coords, self.d):
            value, remainder = divmod(2 * d * c, norm)
            if remainder:
                raise ValueError(f"{tuple(root_coords)} is not a root of {self.type}")
            out.append(value)
        return tuple(out)

    @cached_property
    def positive_coroots(self) -> tuple[tuple[int, ...], ...]:
        """The coroots of the positive roots, in simple-coroot coordinates."""
        return tuple(self.coroot(c, self.root_norm(c)) for c in self.positive_roots)

    @cached_property
    def positive_root_forms(self) -> tuple[tuple[int, ...], ...]:
        """d_j * a_j over j, for each positive root alpha = sum of a_j alpha_j.

        Since (omega_j, alpha) = d_j * a_j, ``dot(weight, form)`` is the inner
        product (weight, alpha) on the scale where (alpha_j, alpha_j) = 2 d_j.
        """
        return tuple(tuple(map(mul, self.d, c)) for c in self.positive_roots)

    @cached_property
    def two_rho_check(self) -> tuple[int, ...]:
        """The sum of the positive coroots, in simple-coroot coordinates.

        ``dot(two_rho_check, w)`` is <w, 2 rho-check>, twice the height of the
        weight w: the integer key that orders weights from the top down.
        """
        return tuple(map(sum, zip(*self.positive_coroots)))

    # -- Weyl group action ------------------------------------------------

    def reflect(self, weight, i: int) -> tuple[int, ...]:
        """s_i(weight): subtract weight[i] times alpha_i, which is row i of the Cartan matrix."""
        m = weight[i]
        return tuple(x - m * a for x, a in zip(weight, self.cartan[i]))

    def dominantize(self, weight) -> tuple[int, ...]:
        w = tuple(weight)
        while True:
            for i, m in enumerate(w):
                if m < 0:
                    w = self.reflect(w, i)
                    break
            else:
                return w

    def is_dominant(self, weight) -> bool:
        return all(x >= 0 for x in weight)

    def weyl_orbit(self, weight) -> frozenset:
        """Full Weyl orbit of a weight, generated by simple-reflection closure."""
        start = self.dominantize(weight)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(self.rank):
                    if w[i] > 0:
                        r = self.reflect(w, i)
                        if r not in seen:
                            seen.add(r)
                            nxt.append(r)
            frontier = nxt
        return frozenset(seen)

    # -- extended diagram --------------------------------------------------

    @property
    def affine_root(self) -> tuple[int, ...]:
        return tuple(-m for m in self.marks)

    def extended_nodes(self) -> list[tuple[int, tuple[int, ...]]]:
        """(key, root) pairs for the extended diagram; key 0 is the affine node."""
        nodes = [(0, self.affine_root)]
        for i in range(self.rank):
            nodes.append((i + 1, tuple(1 if j == i else 0 for j in range(self.rank))))
        return nodes

    def label(self) -> str:
        return str(self.type)

    @property
    def factors(self):
        return (self,)

    def __eq__(self, other):  # a system rebuilt after its cache entry was evicted
        return isinstance(other, RootSystem) and self.type == other.type

    def __hash__(self):
        return hash(self.type)

    def __repr__(self):
        return f"RootSystem({self.type})"


@lru_cache(maxsize=32)
def build_root_system(st: SimpleType) -> RootSystem:
    """The root system of a simple type; the 32 last used are kept (the audit uses 23)."""
    return RootSystem(st)


def root_system(text: str) -> RootSystem:
    return build_root_system(SimpleType.parse(text))


class ProductRootSystem:
    """Product of simple root systems with concatenated coordinate blocks."""

    def __init__(self, factors):
        flat = []
        for f in factors:
            flat.extend(f.factors)
        self.factors = tuple(flat)
        self.rank = sum(f.rank for f in self.factors)
        self._offsets = []
        off = 0
        for f in self.factors:
            self._offsets.append(off)
            off += f.rank

    def _pad(self, idx: int, weight) -> tuple[int, ...]:
        off = self._offsets[idx]
        out = [0] * self.rank
        out[off : off + len(weight)] = weight
        return tuple(out)

    def split(self, weight):
        return tuple(
            tuple(weight[o : o + f.rank]) for o, f in zip(self._offsets, self.factors)
        )

    @cached_property
    def positive_coroots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            self._pad(i, c) for i, f in enumerate(self.factors) for c in f.positive_coroots
        )

    @cached_property
    def two_rho_check(self) -> tuple[int, ...]:
        return tuple(x for f in self.factors for x in f.two_rho_check)

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """The block-diagonal Cartan matrix, so ``reflect`` takes a global simple index."""
        return tuple(self._pad(i, row) for i, f in enumerate(self.factors) for row in f.cartan)

    reflect = RootSystem.reflect

    def is_dominant(self, weight) -> bool:
        return all(x >= 0 for x in weight)

    def weyl_orbit(self, weight) -> frozenset:
        orbits = [f.weyl_orbit(w) for f, w in zip(self.factors, self.split(weight))]
        out = {()}
        for orb in orbits:
            out = {w + o for w in out for o in orb}
        return frozenset(out)

    def label(self) -> str:
        return "*".join(f.label() for f in self.factors)

    def __repr__(self):
        return f"ProductRootSystem({self.label()})"


# -- semisimple type labels -------------------------------------------------


class SemisimpleTypeLabel(NamedTuple):
    """Multiset of simple types with display-only annotations.

    A bar annotation marks factors generated by long root subgroups; it never
    enters dimension or rank arithmetic.
    """

    factors: tuple[tuple[SimpleType, bool], ...]

    @staticmethod
    def of(*types, bars=None) -> "SemisimpleTypeLabel":
        parsed = [t if isinstance(t, SimpleType) else SimpleType.parse(t) for t in types]
        flags = bars or [False] * len(parsed)
        return SemisimpleTypeLabel(_canonical(zip(parsed, flags)))

    @staticmethod
    def parse(text: str) -> "SemisimpleTypeLabel":
        """Inverse of ``str``; ``1`` is the label with no factors."""
        if text.strip() == "1":
            return SemisimpleTypeLabel(())
        factors = []
        for token in text.replace(" ", "").split("*"):
            if not token:
                raise ValueError(f"empty factor in label {text!r}")
            bar = token.startswith("~")
            if bar:
                token = token[1:]
            power = 1
            if "^" in token:
                token, exp = token.split("^", 1)
                power = int(exp)
            st = SimpleType.parse(token)
            factors.extend([(st, bar)] * power)
        return SemisimpleTypeLabel(_canonical(factors))

    def __str__(self) -> str:
        out = []
        run = None
        count = 0
        for fac in self.factors + ((None, None),):
            if fac == run:
                count += 1
                continue
            if run is not None and run[0] is not None:
                st, bar = run
                body = ("~" if bar else "") + str(st)
                out.append(body if count == 1 else f"{body}^{count}")
            run, count = fac, 1
        return "*".join(out) or "1"

    @property
    def dimension(self) -> int:
        return sum(st.adjoint_dimension for st, _ in self.factors)

    @property
    def rank(self) -> int:
        return sum(st.rank for st, _ in self.factors)


def _canonical(factors) -> tuple:
    return tuple(sorted(factors, key=lambda f: (f[0].family, f[0].rank, not f[1])))


# -- subsystem diagram classification ---------------------------------------


def classify_subdiagram(rs: RootSystem, nodes):
    """Split a base of a subsystem into simple components, typed by ``cartan_matrix``.

    ``nodes`` is a list of (key, coords) pairs of roots of ``rs``.  Returns
    (SimpleType, ordered keys) per component, sorted by (family, rank, keys):
    the pairings <beta_a, beta_b-coroot> in that order are ``cartan_matrix``,
    the first such order in ascending keys, but with the fork of D_n, n >= 5,
    in descending key order (fixing the half-spin labelling).  A single node
    is A1, or B1 if short in a type-B ambient.  A component of no finite
    type, such as a whole extended diagram, raises ValueError.  Each distinct
    (rs, nodes) is classified once per process.
    """
    return list(_classified(rs, tuple(nodes)))


@lru_cache(maxsize=64)
def _classified(rs: RootSystem, nodes: tuple) -> tuple:
    keys = sorted(k for k, _ in nodes)
    norm = {k: rs.root_norm(c) for k, c in nodes}
    fund = {k: rs.root_to_weight(c) for k, c in nodes}
    coroot = {k: rs.coroot(c, norm[k]) for k, c in nodes}
    pair = {(a, b): sum(map(mul, fund[a], coroot[b])) for a in keys for b in keys}

    out = []
    left = set(keys)
    while left:
        comp = {min(left)}
        while grown := {y for x in comp for y in left if pair[(x, y)]} - comp:
            comp |= grown
        left -= comp
        if len(comp) > 1:
            out.append(_match_component(sorted(comp), pair))
            continue
        (k,) = comp
        short = norm[k] < max(norm.values())
        out.append((SimpleType("B" if short and rs.type.family == "B" else "A", 1), (k,)))
    return tuple(sorted(out, key=lambda t: (t[0].family, t[0].rank, t[1])))


def _match_component(comp, pair):
    n = len(comp)
    sums = {a: sum(pair[(a, b)] for b in comp) for a in comp}
    for family in FAMILIES:
        if not is_admissible(family, n):
            continue
        st = SimpleType(family, n)
        cartan = cartan_matrix(st)
        # row sums ignore node order: a type with other sums is skipped, and
        # Bourbaki node i may only take a key whose row sum is Cartan row i's
        targets = [sum(row) for row in cartan]
        if sorted(targets) != sorted(sums.values()):
            continue
        order = _place(pair, cartan, [[k for k in comp if sums[k] == t] for t in targets], [])
        if order is not None:
            if family == "D" and n >= 5:
                order[-2:] = sorted(order[-2:], reverse=True)
            return st, tuple(order)
    raise ValueError(f"unrecognized diagram on nodes {comp}")


def _place(pair, cartan, slots, order):
    """Extend ``order`` by a key from each slot so the pairings are ``cartan``, or None."""
    i = len(order)
    if i == len(slots):
        return order
    for k in slots[i]:
        if k not in order and all(
            pair[(k, b)] == cartan[i][j] and pair[(b, k)] == cartan[j][i]
            for j, b in enumerate(order)
        ):
            found = _place(pair, cartan, slots, order + [k])
            if found is not None:
                return found
    return None
