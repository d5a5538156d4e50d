"""Finite-order semisimple elements via labels on the extended Dynkin diagram.

A label vector (s0, s1, ..., sl) with gcd 1 encodes an inner element of
order m = s0 + sum(a_i * s_i), where a_i are the highest-root coefficients.
Roots are graded by sum(s_i * n_i(alpha)) mod m; the label-zero nodes of the
extended diagram span the centralizer subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .rootsys import (
    RootSystem,
    SemisimpleTypeLabel,
    classify_subdiagram,
    root_system,
)


@dataclass(frozen=True)
class KacCoordinates:
    """Nonnegative labels on the extended diagram; index 0 is the affine node."""

    rs: RootSystem
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != self.rs.rank + 1:
            raise ValueError("need one label per extended-diagram node")
        if any(s < 0 for s in self.labels):
            raise ValueError("labels must be nonnegative")
        if gcd(*self.labels) != 1:
            raise ValueError("labels must have gcd 1")

    @property
    def order(self) -> int:
        marks = (1,) + self.rs.marks
        return sum(a * s for a, s in zip(marks, self.labels))

    def __str__(self) -> str:
        return f"{self.rs.label()}[{','.join(map(str, self.labels))}]"


def single_node(rs: RootSystem, node: int) -> KacCoordinates:
    """Label 1 on one extended-diagram node, zero elsewhere."""
    labels = tuple(1 if i == node else 0 for i in range(rs.rank + 1))
    return KacCoordinates(rs, labels)


@dataclass(frozen=True)
class EigenvalueProfile:
    """Eigenspace dimensions of an element on the adjoint module."""

    order: int
    counts: tuple

    @property
    def dimension(self) -> int:
        return sum(self.counts)


def eigenvalue_profile(kac: KacCoordinates) -> EigenvalueProfile:
    rs = kac.rs
    m = kac.order
    counts = [0] * m
    counts[0] = rs.rank
    s = kac.labels[1:]
    for alpha in rs.all_roots:
        deg = sum(si * ni for si, ni in zip(s, alpha)) % m
        counts[deg] += 1
    profile = EigenvalueProfile(m, tuple(counts))
    if profile.dimension != rs.type.adjoint_dimension:
        raise AssertionError("eigenvalue profile does not fill the adjoint module")
    return profile


def torsion_centralizer(kac: KacCoordinates):
    """Centralizer subsystem type and the rank of its central torus."""
    nodes = [
        (k, c) for (k, c), s in zip(kac.rs.extended_nodes(), kac.labels) if s == 0
    ]
    comps = classify_subdiagram(kac.rs, nodes) if nodes else []
    label = SemisimpleTypeLabel.of(*[t for t, _ in comps])
    deficit = sum(1 for s in kac.labels if s > 0) - 1
    return label, deficit


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


def root_of_unity_sum(coeffs, m: int) -> Fraction:
    """Exact value of sum(coeffs[j] * zeta^j) for a primitive m-th root zeta.

    Raises ValueError if the value is irrational.
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
    return Fraction(rem[0])


def adjoint_trace(kac: KacCoordinates, power: int = 1) -> Fraction:
    """Exact adjoint-module trace of the power of the encoded element."""
    profile = eigenvalue_profile(kac)
    m = profile.order
    coeffs = [0] * m
    for j, c in enumerate(profile.counts):
        coeffs[(j * power) % m] += c
    return root_of_unity_sum(coeffs, m)


# -- enumeration of elements with semisimple irreducible centralizer ----------

# class labels fixed by matching centralizer types
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
}


@dataclass(frozen=True)
class TorsionClass:
    name: str
    order: int
    kac: KacCoordinates
    centralizer: SemisimpleTypeLabel

    @property
    def trace(self) -> Fraction:
        return adjoint_trace(self.kac)

    def to_json(self) -> dict:
        return {
            "group": self.kac.rs.label(),
            "class": self.name,
            "order": self.order,
            "labels": list(self.kac.labels),
            "centralizer": str(self.centralizer),
            "eigenvalue_counts": list(eigenvalue_profile(self.kac).counts),
            "trace": str(self.trace),
        }


def enumerate_irreducible_elements(rs: RootSystem) -> tuple:
    """All torsion classes with semisimple irreducible centralizer.

    One label vector per extended-diagram node of mark at least 2, deduplicated
    up to diagram symmetry (equal order and centralizer type).
    """
    marks = (1,) + rs.marks
    seen = {}
    for node in range(1, rs.rank + 1):
        if marks[node] < 2:
            continue
        kac = single_node(rs, node)
        label, deficit = torsion_centralizer(kac)
        if deficit != 0:
            raise AssertionError("single-node labels have no central torus")
        key = (kac.order, str(label))
        if key not in seen:
            name = _CLASS_NAMES.get((rs.label(), kac.order, str(label)))
            if name is None:
                name = f"{kac.order}?"
            seen[key] = TorsionClass(name, kac.order, kac, label)
    return tuple(sorted(seen.values(), key=lambda t: (t.order, t.name)))


def class_by_name(group: str, name: str) -> TorsionClass:
    for cls in enumerate_irreducible_elements(root_system(group)):
        if cls.name == name:
            return cls
    raise KeyError(f"no inner class {name!r} in {group}")
