"""Character-average fixed-point dimensions from class-fusion data.

For a finite subgroup F acting on the adjoint module, the dimension of its
fixed subspace is the average of the traces over F.  Every trace comes from
Kac coordinates (``torsion``): inner classes from the extended diagram of the
identity component, and the outer classes of AutE6 and AutD4 from the
twisted diagrams E6^(2), D4^(2) and D4^(3).  No trace is read from a table
row, so every row with a fusion is a test of the printed data.  Traces are
integers; the average divides by |F| and is the one ``Fraction`` here, so
its integrality is a check, never an assumption.  ``solve_traces`` is the one
record of a table group's classes and traces, computed once per process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import NamedTuple

from .rootsys import ADJOINT_DIMENSION, TWISTED_GROUPS, SimpleType, build_root_system, group_type
from .torsion import enumerate_irreducible_elements

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


def classes_of(name: str):
    """The classes of a table group, or of any other simple type named canonically.

    Only the seven table groups are kept (``solve_traces``); any other type,
    such as one named on the command line, is enumerated on each call.
    """
    if name in ADJOINT_DIMENSION:
        return solve_traces(name).values()
    return enumerate_irreducible_elements(build_root_system(SimpleType.parse(name)))


@cache
def solve_traces(group: str) -> MappingProxyType:
    """A table group's classes with irreducible centralizer, read-only, by label:
    inner, then outer.  Each carries its trace, computed from Kac coordinates.

    The name is the ``solve-traces`` verb's; nothing is solved from rows.
    Computed once per process and group: the classes are frozen and read no
    file.  AutE6 and AutD4 take their inner classes from E6 and D4.
    """
    rs = build_root_system(group_type(group))
    twists = TWISTED_GROUPS[group][1] if group in TWISTED_GROUPS else ()
    inner = classes_of(str(rs.type)) if twists else enumerate_irreducible_elements(rs)
    outer = [cls for twist in twists for cls in enumerate_irreducible_elements(rs, twist)]
    return MappingProxyType({cls.name: cls for cls in (*inner, *outer)})


def provenance(cls) -> str:
    """Where a class's trace comes from: the extended diagram, or a twisted one."""
    return KAC if cls.kac.twist == 1 else TWISTED_KAC


def base_trace_table(groups=tuple(ADJOINT_DIMENSION)) -> dict:
    """``solve_traces`` of the given table groups (default: all seven), by group."""
    return {group: solve_traces(group) for group in groups}


def fixed_point_dimension(adjoint_dim: int, fusion: ClassFusion, classes, group: str) -> Fraction:
    """(1/|F|) (dim + sum of count * trace), the traces read from ``classes``,
    ``solve_traces(group)``; the caller checks integrality."""
    try:
        total = adjoint_dim + sum(count * classes[label].trace for label, count in fusion.entries)
    except KeyError as exc:
        raise KeyError(f"no trace for class {exc.args[0]} of {group}") from None
    return Fraction(total, fusion.group_order)
