"""Character-average fixed-point dimensions from class-fusion data.

For a finite subgroup F acting on the adjoint module, the dimension of its
fixed subspace is the average of the traces over F.  Every trace comes from
Kac coordinates (``torsion``): inner classes from the extended diagram of the
identity component, and the outer classes of AutE6 and AutD4 from the
twisted diagrams E6^(2), D4^(2) and D4^(3).  No trace is read from a table
row, so every row with a fusion is a test of the printed data.  Traces are
integers; the average divides by |F| and is the one ``Fraction`` here, so
its integrality is a check, never an assumption.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import NamedTuple

from .rootsys import ADJOINT_DIMENSION, SimpleType, build_root_system, group_type
from .torsion import enumerate_irreducible_elements

# the orders of the diagram automorphisms that give the outer classes of the
# automorphism-extended table groups
_OUTER_TWISTS = {"AutE6": (2,), "AutD4": (2, 3)}

KAC = "kac-computed"
TWISTED_KAC = "twisted-diagram"


class ClassFusion(NamedTuple("ClassFusion", [("group_order", int), ("entries", tuple)])):
    """Non-identity elements of a finite subgroup by ambient conjugacy class."""

    __slots__ = ()

    def __new__(cls, group_order: int, entries: tuple):
        if any(c <= 0 for _, c in entries):
            raise ValueError("fusion counts must be positive")
        return super().__new__(cls, group_order, entries)

    @staticmethod
    def parse(text: str) -> "ClassFusion":
        """'2B^15,3B^20,5A^24': |F| is one more than the sum of the counts."""
        entries = []
        for token in text.replace(" ", "").split(","):
            if not token:
                continue
            label, caret, count = token.partition("^")
            if not label:
                raise ValueError(f"empty class label in fusion token {token!r}")
            try:
                entries.append((label, int(count) if caret else 1))
            except ValueError:
                raise ValueError(f"bad count {count!r} in fusion token {token!r}") from None
        return ClassFusion(1 + sum(c for _, c in entries), tuple(entries))

    def __str__(self) -> str:
        return ",".join(f"{l}^{c}" if c > 1 else l for l, c in self.entries)

    @property
    def count_sum(self) -> int:
        return sum(c for _, c in self.entries)

    def labels(self) -> tuple:
        return tuple(l for l, _ in self.entries)


class TraceTable(NamedTuple("TraceTable", [("entries", MappingProxyType)])):
    """Exact adjoint traces per (ambient group, class label), with provenance.

    Read-only: ``entries`` maps (group, label) to (value, provenance) through a
    ``MappingProxyType`` over a private copy, so writing into it raises TypeError.
    """

    __slots__ = ()

    def __new__(cls, entries=()):
        return super().__new__(cls, MappingProxyType(dict(entries)))

    def get(self, group: str, label: str) -> int:
        try:
            return self.entries[(group, label)][0]
        except KeyError:
            raise KeyError(f"no trace for class {label} of {group}") from None

    def provenance(self, group: str, label: str) -> str:
        return self.entries[(group, label)][1]


def classes_of(name: str) -> tuple:
    """The classes of a table group, or of any other simple type named canonically.

    Only the seven table groups are kept (``group_classes``); any other type,
    such as one named on the command line, is enumerated on each call.
    """
    if name in ADJOINT_DIMENSION:
        return group_classes(name)
    return enumerate_irreducible_elements(build_root_system(SimpleType.parse(name)))


@cache
def group_classes(group: str) -> tuple:
    """A table group's classes with irreducible centralizer: inner, then outer.

    Computed once per process: the classes are frozen and read no file.  AutE6
    and AutD4 take their inner classes from E6 and D4.
    """
    rs = build_root_system(group_type(group))
    if group not in _OUTER_TWISTS:
        return enumerate_irreducible_elements(rs)
    return classes_of(str(rs.type)) + tuple(
        cls for twist in _OUTER_TWISTS[group] for cls in enumerate_irreducible_elements(rs, twist)
    )


@cache
def solve_traces(group: str) -> TraceTable:
    """One table group's traces, every one computed from Kac coordinates.

    The name is the ``solve-traces`` verb's; nothing is solved from rows.
    Computed once per process and group, like the classes behind it.
    """
    return TraceTable(
        ((group, cls.name), (cls.trace, KAC if cls.kac.twist == 1 else TWISTED_KAC))
        for cls in group_classes(group)
    )


def base_trace_table(groups=tuple(ADJOINT_DIMENSION)) -> TraceTable:
    """The traces of the given table groups (default: all seven) in one table."""
    return TraceTable(item for group in groups for item in solve_traces(group).entries.items())


def fixed_point_dimension(adjoint_dim: int, fusion: ClassFusion, traces: TraceTable, group: str) -> Fraction:
    """(1/|F|) (dim + sum of count * trace); the caller checks integrality."""
    total = adjoint_dim + sum(count * traces.get(group, label) for label, count in fusion.entries)
    return Fraction(total, fusion.group_order)
