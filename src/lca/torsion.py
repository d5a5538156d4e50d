"""Finite-order automorphisms via labels on affine Dynkin diagrams.

Kac's classification (*Infinite-dimensional Lie algebras*, Thm. 8.6): a
label vector (s0, s1, ..., sl) with gcd 1 on an affine diagram encodes one
automorphism class of g.  The label-zero nodes span the centralizer.

* Inner classes use the extended diagram of g, whose affine node is -theta.
  The order is m = s0 + sum(a_i * s_i), where a_i are the highest-root
  coefficients.  A root alpha = sum(n_i * alpha_i) has eigenvalue
  zeta_m^(sum(s_i * n_i)).
* Outer classes twist by a diagram automorphism of order k: E6 with k = 2,
  and D4 with k = 2 or 3.  It splits g = g_0 + ... + g_{k-1}, where g_0 is
  F4, B3 or G2, and every other g_j is V(theta_s) for g_0's highest short
  root theta_s.  The labels sit on the twisted affine diagram E6^(2), D4^(2)
  or D4^(3): g_0's simple roots plus the affine node -theta_s, with a_i the
  coefficients of theta_s.  The order is m = k * (s0 + sum(a_i * s_i)), and
  a weight mu of g_j has eigenvalue zeta_m^(j * m / k + sum(s_i * n_i(mu))).

Every adjoint trace is an integer: a rational sum of roots of unity with
integer coefficients is one, and ``root_of_unity_sum`` reduces modulo the
cyclotomic polynomial in integer arithmetic alone.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache
from math import gcd
from typing import NamedTuple

from .embed import subsystem_embedding
from .linalg import dot
from .repth import Character, has_trivial_factor, restrict
from .rootsys import (
    TWISTED_GROUPS,
    RootSystem,
    SemisimpleTypeLabel,
    classify_subdiagram,
    root_system,
)


def fixed_subsystem(rs: RootSystem, twist: int) -> RootSystem:
    """g_0: g itself, or the fixed points of its diagram automorphism of order ``twist``."""
    return rs if twist == 1 else _twisted_fixed_subsystem(rs, twist)


@cache  # an error is not kept, so this holds at most one entry per twisted diagram
def _twisted_fixed_subsystem(rs: RootSystem, twist: int) -> RootSystem:
    name = dict(TWISTED_GROUPS.values()).get(rs.label(), {}).get(twist)
    if name is None:
        raise ValueError(f"{rs.label()} has no twisted diagram of order {twist}")
    return root_system(name)


class KacCoordinates(
    NamedTuple("KacCoordinates", [("rs", RootSystem), ("labels", tuple), ("twist", int)])
):
    """Nonnegative labels on the (twisted) affine diagram; index 0 is the affine node.

    ``rs`` is g.  With ``twist`` k > 1, indices 1..l are the simple roots of
    g_0 = ``fixed_subsystem(rs, k)``.  No ``__slots__``: ``zero_components``
    is cached in the instance dict, while the fields stay read-only.
    """

    def __new__(cls, rs: RootSystem, labels: tuple, twist: int = 1):
        self = super().__new__(cls, rs, labels, twist)
        if len(labels) != self.fixed.rank + 1:
            raise ValueError("need one label per affine-diagram node")
        if any(s < 0 for s in labels):
            raise ValueError("labels must be nonnegative")
        if gcd(*labels) != 1:
            raise ValueError("labels must have gcd 1")
        return self

    @property
    def fixed(self) -> RootSystem:
        return fixed_subsystem(self.rs, self.twist)

    @property
    def top(self) -> tuple:
        """theta, or theta_s when twisted: minus the affine node, and the marks."""
        return self.rs.highest_root if self.twist == 1 else self.fixed.highest_short_root

    @property
    def order(self) -> int:
        return self.twist * sum(a * s for a, s in zip((1,) + self.top, self.labels))

    @property
    def diagram(self) -> str:
        """The affine diagram's name: E6, or E6^(2) when twisted."""
        name = self.rs.label()
        return name if self.twist == 1 else f"{name}^({self.twist})"

    def zero_nodes(self) -> list:
        """(key, root) pairs of the label-zero nodes: a base of the centralizer."""
        nodes = [(0, tuple(-x for x in self.top)), *self.fixed.extended_nodes()[1:]]
        return [node for node, s in zip(nodes, self.labels) if s == 0]

    @cached_property
    def zero_components(self) -> tuple:
        """``classify_subdiagram`` of the zero nodes, computed once per instance."""
        nodes = self.zero_nodes()
        return tuple(classify_subdiagram(self.fixed, nodes) if nodes else ())

    def __str__(self) -> str:
        return f"{self.diagram}[{','.join(map(str, self.labels))}]"


def single_node(rs: RootSystem, node: int, twist: int = 1) -> KacCoordinates:
    """Label 1 on one affine-diagram node, zero elsewhere."""
    labels = tuple(1 if i == node else 0 for i in range(fixed_subsystem(rs, twist).rank + 1))
    return KacCoordinates(rs, labels, twist)


@lru_cache(maxsize=16)
def graded_weights(rs: RootSystem, twist: int = 1) -> tuple:
    """The weights of g over g_0 as (j, root coordinates), one pair per weight.

    g_0 gives its roots and rank zeros.  Each g_j with j >= 1 is V(theta_s):
    its weights are the short roots of g_0 and one zero per short simple root.
    """
    g0 = fixed_subsystem(rs, twist)
    zero = (0,) * g0.rank
    weights = [(0, zero)] * g0.rank + [(0, a) for a in g0.all_roots]
    if twist > 1:
        half = min(g0.d)  # half the norm of a short root
        little = [zero] * g0.d.count(half) + [
            a for a in g0.all_roots if g0.root_norm(a) == 2 * half
        ]
        weights += [(j, w) for j in range(1, twist) for w in little]
    return tuple(weights)


class EigenvalueProfile(NamedTuple):
    """Eigenspace dimensions of an element on the adjoint module."""

    order: int
    counts: tuple

    @property
    def dimension(self) -> int:
        return sum(self.counts)


@lru_cache(maxsize=64)
def eigenvalue_profile(kac: KacCoordinates) -> EigenvalueProfile:
    m, k = kac.order, kac.twist
    s = kac.labels[1:]
    counts = [0] * m
    for j, mu in graded_weights(kac.rs, k):
        counts[(j * m // k + dot(s, mu)) % m] += 1
    profile = EigenvalueProfile(m, tuple(counts))
    if profile.dimension != kac.rs.type.adjoint_dimension:
        raise AssertionError("eigenvalue profile does not fill the adjoint module")
    return profile


def torsion_centralizer(kac: KacCoordinates):
    """Centralizer subsystem type and the rank of its central torus."""
    label = SemisimpleTypeLabel.of(*[t for t, _ in kac.zero_components])
    deficit = sum(1 for s in kac.labels if s > 0) - 1
    return label, deficit


def fixes_a_vector(kac: KacCoordinates) -> bool:
    """Whether the centralizer has a trivial composition factor on g.

    Then it centralizes a torus of G and lies in a proper Levi subgroup.
    """
    g0 = kac.fixed
    weights: dict = {}
    for _, mu in graded_weights(kac.rs, kac.twist):
        w = g0.root_to_weight(mu)
        weights[w] = weights.get(w, 0) + 1
    char = Character.from_dict(g0, weights)
    emb = subsystem_embedding(g0, kac.zero_nodes(), kac.zero_components)
    return has_trivial_factor(restrict(char, emb))


# -- exact cyclotomic evaluation ---------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients (ascending) of the m-th cyclotomic polynomial."""
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _poly_div(num, den):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coeff = num[i + len(den) - 1] // den[-1]
        out[i] = coeff
        for j, dj in enumerate(den):
            num[i + j] -= coeff * dj
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def root_of_unity_sum(coeffs, m: int) -> int:
    """Exact value of sum(coeffs[j] * zeta^j) for a primitive m-th root zeta.

    The coefficients are integers, so a rational value is an algebraic
    integer and hence an integer.  Raises ValueError if the value is
    irrational.
    """
    rem = list(coeffs) + [0] * max(0, m - len(coeffs))
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, pj in enumerate(phi):
                rem[i - deg + j] -= c * pj
    if any(rem[1:]):
        raise ValueError(f"irrational cyclotomic value, residue {rem}")
    return rem[0]


def adjoint_trace(kac: KacCoordinates, power: int = 1) -> int:
    """Exact adjoint-module trace of the power of the encoded element."""
    profile = eigenvalue_profile(kac)
    m = profile.order
    coeffs = [0] * m
    for j, c in enumerate(profile.counts):
        coeffs[(j * power) % m] += c
    return root_of_unity_sum(coeffs, m)


# -- enumeration of elements with semisimple irreducible centralizer ----------

# class labels fixed by matching (diagram, order, centralizer type)
_CLASS_NAMES = {
    ("E8", 2, "A1*E7"): "2A",
    ("E8", 2, "D8"): "2B",
    ("E8", 3, "A8"): "3A",
    ("E8", 3, "A2*E6"): "3B",
    ("E8", 4, "A1*A7"): "4A",
    ("E8", 4, "A3*D5"): "4B",
    ("E8", 5, "A4^2"): "5A",
    ("E8", 6, "A1*A2*A5"): "6A",
    ("E7", 2, "A1*D6"): "2A",
    ("E7", 2, "A7"): "2B",
    ("E7", 3, "A2*A5"): "3A",
    ("E7", 4, "A1*A3^2"): "4A",
    ("E6", 2, "A1*A5"): "2A",
    ("E6", 3, "A2^3"): "3A",
    ("F4", 2, "B4"): "2A",
    ("F4", 2, "A1*C3"): "2B",
    ("F4", 3, "A2^2"): "3A",
    ("F4", 4, "A1*A3"): "4A",
    ("G2", 2, "A1^2"): "2A",
    ("G2", 3, "A2"): "3A",
    ("D4", 2, "A1^4"): "2A",
    ("E6^(2)", 2, "F4"): "2B",
    ("E6^(2)", 2, "C4"): "2C",
    ("E6^(2)", 4, "A1*A3"): "4A",
    ("E6^(2)", 6, "A2^2"): "6A",
    ("D4^(2)", 2, "B3"): "2B",
    ("D4^(2)", 2, "B1*B2"): "2C",
    ("D4^(3)", 3, "G2"): "3A",
    ("D4^(3)", 3, "A2"): "3B",
    ("D4^(3)", 6, "A1^2"): "6A",
}


class TorsionClass(NamedTuple):
    name: str
    order: int
    kac: KacCoordinates
    centralizer: SemisimpleTypeLabel
    trace: int  # the adjoint trace, computed once when the class is enumerated

    def to_json(self) -> dict:
        return {
            "group": self.kac.diagram,
            "class": self.name,
            "order": self.order,
            "labels": list(self.kac.labels),
            "centralizer": str(self.centralizer),
            "eigenvalue_counts": list(eigenvalue_profile(self.kac).counts),
            "trace": str(self.trace),
        }


def enumerate_irreducible_elements(rs: RootSystem, twist: int = 1) -> tuple:
    """All classes of order at least 2 with semisimple irreducible centralizer.

    Inner classes of g, or with ``twist`` k > 1 the outer classes of the
    diagram automorphism of order k.  One label 1 per affine-diagram node,
    deduplicated up to diagram symmetry (equal order and centralizer type).
    A centralizer of lower rank than g is kept only if it fixes no vector of
    g; this drops the order-4 node of E6^(2) with centralizer A1*B3.
    """
    seen = {}
    for node in range(fixed_subsystem(rs, twist).rank + 1):
        kac = single_node(rs, node, twist)
        if kac.order < 2:
            continue
        label, deficit = torsion_centralizer(kac)
        if deficit != 0:
            raise AssertionError("single-node labels have no central torus")
        key = (kac.order, str(label))
        if key in seen or (label.rank < rs.rank and fixes_a_vector(kac)):
            continue
        name = _CLASS_NAMES.get((kac.diagram, *key), f"{kac.order}?")
        seen[key] = TorsionClass(name, kac.order, kac, label, adjoint_trace(kac))
    return tuple(sorted(seen.values(), key=lambda t: (t.order, t.name)))
