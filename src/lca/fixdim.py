"""Character-average fixed-point dimensions from class-fusion data.

For a finite subgroup F acting on the adjoint module, the dimension of its
fixed subspace is the average of the traces over F.  Traces of inner classes
are computed from extended-diagram labels; traces of outer classes are
solved exactly from table rows whose expected fixed dimension is known.
Everything is a Fraction; integrality is a check, never an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .rootsys import SimpleType, build_root_system
from .torsion import enumerate_irreducible_elements

# the two automorphism-extended ambients take their inner classes, rank and
# adjoint dimension from their identity component
_INNER_SOURCE = {"AutE6": "E6", "AutD4": "D4"}


def group_type(group: str) -> SimpleType:
    """Simple type of a table group; AutE6 and AutD4 give E6 and D4."""
    return SimpleType.parse(_INNER_SOURCE.get(group, group))


ADJOINT_DIMENSION = {
    g: group_type(g).adjoint_dimension for g in ("E8", "E7", "E6", "F4", "G2", *_INNER_SOURCE)
}

KAC = "kac-computed"
SOLVED = "solved-from-row"


@dataclass(frozen=True)
class ClassFusion:
    """Non-identity elements of a finite subgroup by ambient conjugacy class."""

    group_order: int
    entries: tuple

    @staticmethod
    def parse(text: str, group_order: int | None = None) -> "ClassFusion":
        entries = []
        for token in text.replace(" ", "").split(","):
            if not token:
                continue
            label, caret, count = token.partition("^")
            if not label:
                raise ValueError(f"empty class label in fusion token {token!r}")
            entries.append((label, int(count) if caret else 1))
        total = 1 + sum(c for _, c in entries)
        if group_order is None:
            group_order = total
        return ClassFusion(group_order, tuple(entries))

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

    def set(self, group: str, label: str, value: Fraction, provenance: str):
        self.entries[(group, label)] = (Fraction(value), provenance)

    def get(self, group: str, label: str) -> Fraction:
        try:
            return self.entries[(group, label)][0]
        except KeyError:
            raise KeyError(f"no trace for class {label} of {group}") from None

    def has(self, group: str, label: str) -> bool:
        return (group, label) in self.entries

    def provenance(self, group: str, label: str) -> str:
        return self.entries[(group, label)][1]

    def without(self, group: str, label: str) -> "TraceTable":
        out = TraceTable(dict(self.entries))
        out.entries.pop((group, label), None)
        return out

    def copy(self) -> "TraceTable":
        return TraceTable(dict(self.entries))

    def to_json(self) -> list:
        return [
            {"group": g, "class": l, "trace": str(v), "provenance": p}
            for (g, l), (v, p) in sorted(self.entries.items())
        ]

    @staticmethod
    def from_json(rows) -> "TraceTable":
        table = TraceTable()
        for row in rows:
            table.set(row["group"], row["class"], Fraction(row["trace"]), row["provenance"])
        return table


def base_trace_table() -> TraceTable:
    """Traces of all inner classes, computed from extended-diagram labels."""
    table = TraceTable()
    for st in dict.fromkeys(map(group_type, ADJOINT_DIMENSION)):
        for cls in enumerate_irreducible_elements(build_root_system(st)):
            table.set(str(st), cls.name, cls.trace, KAC)
    for ambient, inner in _INNER_SOURCE.items():
        for (g, label), (value, prov) in list(table.entries.items()):
            if g == inner:
                table.set(ambient, label, value, prov)
    return table


def fixed_point_dimension(adjoint_dim: int, fusion: ClassFusion, traces: TraceTable, group: str) -> Fraction:
    """(1/|F|) (dim + sum of count * trace); the caller checks integrality."""
    total = Fraction(adjoint_dim)
    for label, count in fusion.entries:
        total += count * traces.get(group, label)
    return total / fusion.group_order


@dataclass(frozen=True)
class SolveRow:
    key: str
    fusion: ClassFusion
    expected_dim: int
    flagged: bool = False


@dataclass(frozen=True)
class SolveFinding:
    row: str
    message: str


def solve_traces(group: str, rows, known: TraceTable):
    """Exact solve for unknown class traces from rows with known fixed dimension.

    Each unflagged row gives one linear identity; rows with a single unknown
    class determine it.  Iterates to a fixpoint, so the result is independent
    of row order.  Rows that end up inconsistent or undetermined are returned
    as findings, never patched.
    """
    table = known.copy()
    adjoint = ADJOINT_DIMENSION[group]
    findings: list = []
    reported: set = set()
    progress = True
    while progress:
        progress = False
        for row in rows:
            if row.flagged:
                continue
            unknown: dict = {}
            acc = Fraction(adjoint)
            for label, count in row.fusion.entries:
                if table.has(group, label):
                    acc += count * table.get(group, label)
                else:
                    unknown[label] = unknown.get(label, 0) + count
            target = Fraction(row.expected_dim * row.fusion.group_order)
            if not unknown:
                if acc != target and row.key not in reported:
                    reported.add(row.key)
                    findings.append(
                        SolveFinding(
                            row.key,
                            f"inconsistent row: average gives {acc / row.fusion.group_order},"
                            f" expected {row.expected_dim}",
                        )
                    )
                continue
            if len(unknown) == 1:
                (label, count), = unknown.items()
                value = (target - acc) / count
                table.set(group, label, value, SOLVED)
                progress = True
    unsolved = sorted(
        {l for row in rows for l in row.fusion.labels() if not table.has(group, l)}
    )
    for label in unsolved:
        findings.append(SolveFinding("-", f"trace of class {label} is undetermined"))
    return table, tuple(findings)
