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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .rootsys import SimpleType, build_root_system
from .torsion import enumerate_irreducible_elements

# the automorphism-extended ambients: their identity component, which gives
# the inner classes, rank and adjoint dimension, and the orders of the
# diagram automorphisms that give the outer classes
_IDENTITY_COMPONENT = {"AutE6": "E6", "AutD4": "D4"}
_OUTER_TWISTS = {"AutE6": (2,), "AutD4": (2, 3)}


def group_type(group: str) -> SimpleType:
    """Simple type of a table group; AutE6 and AutD4 give E6 and D4."""
    return SimpleType.parse(_IDENTITY_COMPONENT.get(group, group))


ADJOINT_DIMENSION = {
    g: group_type(g).adjoint_dimension
    for g in ("E8", "E7", "E6", "F4", "G2", *_IDENTITY_COMPONENT)
}

KAC = "kac-computed"
TWISTED_KAC = "twisted-diagram"


@dataclass(frozen=True)
class ClassFusion:
    """Non-identity elements of a finite subgroup by ambient conjugacy class."""

    group_order: int
    entries: tuple

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
            entries.append((label, int(count) if caret else 1))
        return ClassFusion(1 + sum(c for _, c in entries), tuple(entries))

    def __post_init__(self):
        if any(c <= 0 for _, c in self.entries):
            raise ValueError("fusion counts must be positive")

    def __str__(self) -> str:
        return ",".join(f"{l}^{c}" if c > 1 else l for l, c in self.entries)

    @property
    def count_sum(self) -> int:
        return sum(c for _, c in self.entries)

    def labels(self) -> tuple:
        return tuple(l for l, _ in self.entries)


@dataclass
class TraceTable:
    """Exact adjoint traces per (ambient group, class label), with provenance."""

    entries: dict = field(default_factory=dict)

    def set(self, group: str, label: str, value: int, provenance: str):
        self.entries[(group, label)] = (value, provenance)

    def get(self, group: str, label: str) -> int:
        try:
            return self.entries[(group, label)][0]
        except KeyError:
            raise KeyError(f"no trace for class {label} of {group}") from None

    def provenance(self, group: str, label: str) -> str:
        return self.entries[(group, label)][1]


@cache
def group_classes(group: str) -> tuple:
    """A table group's classes with irreducible centralizer: inner, then outer.

    Computed once per process: the classes are frozen and read no file.
    """
    rs = build_root_system(group_type(group))
    return tuple(
        cls
        for twist in (1, *_OUTER_TWISTS.get(group, ()))
        for cls in enumerate_irreducible_elements(rs, twist)
    )


def solve_traces(group: str) -> TraceTable:
    """One table group's traces, every one computed from Kac coordinates.

    The name is the ``solve-traces`` verb's; nothing is solved from rows.
    """
    table = TraceTable()
    for cls in group_classes(group):
        table.set(group, cls.name, cls.trace, KAC if cls.kac.twist == 1 else TWISTED_KAC)
    return table


def base_trace_table(groups=tuple(ADJOINT_DIMENSION)) -> TraceTable:
    """The traces of the given table groups (default: all seven) in one table."""
    table = TraceTable()
    for group in groups:
        table.entries.update(solve_traces(group).entries)
    return table


def fixed_point_dimension(adjoint_dim: int, fusion: ClassFusion, traces: TraceTable, group: str) -> Fraction:
    """(1/|F|) (dim + sum of count * trace); the caller checks integrality."""
    total = adjoint_dim + sum(count * traces.get(group, label) for label, count in fusion.entries)
    return Fraction(total, fusion.group_order)
