"""Exact characteristic-zero representation arithmetic.

The currency throughout is the Character: a finite multiset of weights in
fundamental coordinates with positive integer multiplicities, stable under
the Weyl group of its ambient (a simple root system or a product).  All
arithmetic is exact and integral: dimensions, multiplicities, the weight
order <w, 2 rho-check> and Freudenthal's inner products, which come from the
symmetrizer on simple-root depths, are plain integers, and no ``Fraction``
occurs here.  Semisimplification reads only the dominant weights of a
character.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, mul

from .linalg import dot, matmul


@dataclass(frozen=True)
class Character:
    """Weight multiset of a representation, keyed by fundamental coordinates."""

    ambient: object
    entries: tuple = field(default_factory=tuple)

    @staticmethod
    def from_dict(ambient, weights: dict) -> "Character":
        items = tuple(sorted((tuple(w), int(m)) for w, m in weights.items() if m))
        if any(m < 0 for _, m in items):
            raise ValueError("negative multiplicity")
        return Character(ambient, items)

    def as_dict(self) -> dict:
        return dict(self.entries)

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.entries)


def _rho(ambient):
    return (1,) * ambient.rank


def weyl_dimension(ambient, lam) -> int:
    """Dimension of the irreducible of highest weight lam (Weyl's formula)."""
    lam = tuple(lam)
    if not ambient.is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    rho = _rho(ambient)
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    num = den = 1
    # (lam + rho, alpha) / (rho, alpha) = <lam + rho, alpha-coroot> / <rho, alpha-coroot>
    for coroot in ambient.positive_coroots:
        num *= dot(lam_rho, coroot)
        den *= dot(rho, coroot)
    result, remainder = divmod(num, den)
    if remainder:
        raise AssertionError("Weyl dimension did not come out integral")
    return result


def dominant_weights(ambient, lam) -> list:
    """(mu, lam - mu) for the dominant weights mu of the irreducible V(lam).

    lam - mu is in simple-root coordinates.  Walks downward from lam by
    positive-root steps through dominant weights, adding each step's root
    coordinates to the depth; every dominant weight below lam in the
    root-lattice order is reached this way (the covers of the dominance
    order are positive roots).  Sorted by the height of the depth, so from
    the top down.
    """
    lam = tuple(lam)
    depth = {lam: (0,) * ambient.rank}
    frontier = [lam]
    steps = tuple(zip(ambient.positive_roots_fund, ambient.positive_roots))
    while frontier:
        nxt = []
        for mu in frontier:
            for alpha, coords in steps:
                nu = tuple(a - b for a, b in zip(mu, alpha))
                if nu not in depth and ambient.is_dominant(nu):
                    depth[nu] = tuple(map(add, depth[mu], coords))
                    nxt.append(nu)
        frontier = nxt
    return sorted(depth.items(), key=lambda item: (sum(item[1]), item[0]))


def _freudenthal_multiplicities(ambient, lam) -> dict:
    """Multiplicities on the dominant weights of V(lam), by Freudenthal's recursion.

    Inner products are integers on the scale of the symmetrizer d:
    (nu, alpha) is ``dot(nu, form)`` for alpha's positive-root form, and
    |lam+rho|^2 - |mu+rho|^2 = (lam - mu, lam + mu + 2 rho) is
    sum(d_i * depth_i * (lam_i + mu_i + 2)) for the depth lam - mu.
    """
    steps = tuple(zip(ambient.positive_roots_fund, ambient.positive_root_forms))
    mults: dict = {}
    for mu, depth in dominant_weights(ambient, lam):
        if mu == lam:
            mults[mu] = 1
            continue
        denominator = sum(
            d * c * (a + b + 2) for d, c, a, b in zip(ambient.d, depth, lam, mu)
        )
        total = 0
        for alpha, form in steps:
            k = 1
            while True:
                nu = tuple(a + k * b for a, b in zip(mu, alpha))
                m = mults.get(ambient.dominantize(nu))
                if m is None:
                    break
                total += m * dot(nu, form)
                k += 1
        value, remainder = divmod(2 * total, denominator)
        if remainder or value <= 0:
            raise AssertionError("Freudenthal recursion produced a bad multiplicity")
        mults[mu] = value
    return mults


def _dominant_multiplicities(ambient, lam) -> dict:
    """Multiplicities of V(lam) on its dominant weights.

    Freudenthal runs on each simple factor, and a product's table is the
    product of its factors' tables.
    """
    table = {(): 1}
    offset = 0
    for f in ambient.factors:
        part = _freudenthal_multiplicities(f, lam[offset : offset + f.rank])
        table = {w + v: m * n for w, m in table.items() for v, n in part.items()}
        offset += f.rank
    return table


def dominant_character(ambient, lam) -> Character:
    """Full weight multiset of the irreducible with highest weight lam."""
    lam = tuple(lam)
    if not ambient.is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    weights: dict = {}
    for mu, m in _dominant_multiplicities(ambient, lam).items():
        for w in ambient.weyl_orbit(mu):
            weights[w] = m
    return Character.from_dict(ambient, weights)


def adjoint_character(rs) -> Character:
    """Character of the adjoint module: all roots plus rank zero weights."""
    weights = {(0,) * rs.rank: rs.rank}
    for alpha in rs.positive_roots_fund:
        weights[alpha] = 1
        weights[tuple(-x for x in alpha)] = 1
    return Character.from_dict(rs, weights)


def semisimplify(char: Character) -> tuple:
    """Composition factors (highest weight, multiplicity), highest first.

    Works on dominant weights only.  They are walked once, from the top down
    by the integer key <w, 2 rho-check> (twice the height); each weight still
    left is a factor, whose dominant multiplicities are peeled off.  Two
    checks reject what is not a genuine character with ValueError: every
    weight must have the multiplicity of its dominant conjugate, and the
    factor dimensions must add up to the character's dimension.
    """
    ambient = char.ambient
    remaining = {w: m for w, m in char.entries if ambient.is_dominant(w)}
    for w, m in char.entries:
        if remaining.get(ambient.dominantize(w)) != m:
            raise ValueError(
                f"multiplicity of {w} differs from its dominant conjugate's; not a character"
            )
    key = ambient.two_rho_check
    factors = []
    for mu in sorted(remaining, key=lambda w: (dot(key, w), w), reverse=True):
        mult = remaining[mu]
        if not mult:
            continue
        for w, m in _dominant_multiplicities(ambient, mu).items():
            left = remaining.get(w, 0) - mult * m
            if left < 0:
                raise ValueError(f"multiplicity of {w} driven negative; not a character")
            remaining[w] = left
        factors.append((mu, mult))
    if sum(mult * weyl_dimension(ambient, mu) for mu, mult in factors) != char.dimension:
        raise ValueError("factor dimensions do not add up to the dimension; not a character")
    return tuple(factors)


def has_trivial_factor(char: Character) -> bool:
    """Whether the zero weight occurs among the composition factors."""
    zero = (0,) * char.ambient.rank
    return any(mu == zero for mu, _ in semisimplify(char))


def factor_dimensions(ambient, factors) -> list:
    return [(mu, mult, weyl_dimension(ambient, mu)) for mu, mult in factors]


@dataclass(frozen=True)
class Embedding:
    """A subgroup inclusion, recorded as a map on weight lattices.

    ``matrix`` sends target (overgroup) fundamental coordinates to source
    (subgroup) fundamental coordinates; restriction of characters is the
    pushforward of the weight multiset along it.
    """

    source: object
    target: object
    matrix: tuple

    def map_weight(self, w) -> tuple:
        return tuple(sum(map(mul, row, w)) for row in self.matrix)

    def then(self, inner: "Embedding") -> "Embedding":
        """Compose with a further embedding into this one's source."""
        return Embedding(inner.source, self.target, matmul(inner.matrix, self.matrix))


def restrict(char: Character, emb: Embedding) -> Character:
    """Restriction of a character along an embedding; dimension is preserved."""
    if char.ambient.label() != emb.target.label():
        raise ValueError(
            f"character lives on {char.ambient.label()}, embedding expects {emb.target.label()}"
        )
    out: dict = {}
    for w, m in char.entries:
        v = emb.map_weight(w)
        out[v] = out.get(v, 0) + m
    result = Character.from_dict(emb.source, out)
    if result.dimension != char.dimension:
        raise AssertionError("restriction changed the total dimension")
    return result
