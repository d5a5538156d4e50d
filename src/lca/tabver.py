"""Machine-readable result tables and the engine that audits every row.

The package ships only the tables the engine reads: the eight subgroup
tables and the maximal-row table (``AUDITED_TABLES``), and the elements
table, which names the classes a fusion may use.  Every file is read by
one reader, ``_read_table``, from a declared field schema, so a malformed
field is reported with its file, line and field name.  Tables ship exactly
as printed; rows known to fail a check carry an expected-discrepancy flag in
the data file, and the engine verifies that they do fail (a flagged row that
passes is itself reported).  ``CHECKS`` is the one list of checks, keyed by
the pass that runs them over its rows; each check's docstring or message says
what it tests.  ``run_full_audit`` runs the three passes.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cache
from math import factorial
from types import MappingProxyType
from typing import NamedTuple

from .embed import _CHAINS, named_chain
from .fixdim import ClassFusion, base_trace_table, fixed_point_dimension, provenance
from .repth import adjoint_character, has_trivial_factor, restrict
from .rootsys import ADJOINT_DIMENSION, SemisimpleTypeLabel, SimpleType, build_root_system, group_type

DATA_ENV = "LCA_DATA_DIR"

# the subgroup tables, then the maximal-row table; table id t is read from
# table_<t with - as _>.txt
AUDITED_TABLES = ("e8", "e7", "e6", "aute6", "f4", "g2", "autd4", "aute6-classes", "maximal")

TABLE_ALIASES = {
    "1": "maximal",
    "4": "aute6-classes",
    "6": "e8",
    "7": "e7",
    "8": "e6",
    "9": "f4",
    "10": "g2",
}


def data_dir() -> str:
    return os.environ.get(DATA_ENV) or os.path.join(os.path.dirname(__file__), "data")


# -- characteristic constraints ----------------------------------------------


class CharConstraint(NamedTuple):
    """A predicate on the ambient characteristic, as printed ('', p=3, p!=2,3)."""

    kind: str = "any"  # any | eq | ne
    values: tuple = ()

    @staticmethod
    def parse(text: str) -> "CharConstraint":
        text = text.strip().replace(" ", "")
        if not text:
            return CharConstraint()
        if text.startswith("p!="):
            return CharConstraint("ne", tuple(int(v) for v in text[3:].split(",")))
        if text.startswith("p="):
            return CharConstraint("eq", (int(text[2:]),))
        raise ValueError(f"bad characteristic constraint {text!r}")

    def allows(self, p: int) -> bool:
        if self.kind == "eq":
            return p == self.values[0]
        if self.kind == "ne":
            return p not in self.values
        return True


def constraints_compatible(a: CharConstraint, order_a: int, b: CharConstraint, order_b: int) -> bool:
    """Some characteristic satisfies both constraints and divides neither order.

    Only 0 and the primes named by ``p=`` need trying: 0 meets every constraint
    but ``p=q``, which q alone meets.
    """
    for p in (0, *(c.values[0] for c in (a, b) if c.kind == "eq")):
        if a.allows(p) and b.allows(p):
            if p == 0 or (order_a % p and order_b % p):
                return True
    return False


# -- abstract group orders from names -----------------------------------------

_FIXED_ORDERS = {
    "Q8": 8,
    "G12": 12,
    "Frob20": 20,
    "SL2(3)": 24,
    "GL2(3)": 48,
    "GL3(2)": 168,
    "AGL3(2)": 1344,
    "2^{1+4}-": 32,
    "4oDih8": 16,
}


def group_name_order(name: str) -> int:
    """Order of the abstract group a table name denotes."""
    name = name.strip()
    if name in _FIXED_ORDERS:
        return _FIXED_ORDERS[name]
    if "." in name:
        head, tail = name.split(".", 1)
        return group_name_order(head) * group_name_order(tail)
    if "x" in name:
        parts = name.split("x")
        if all(parts):
            out = 1
            for p in parts:
                out *= group_name_order(p)
            return out
    if name.startswith("Dih"):
        return int(name[3:])
    if name.startswith("Alt"):
        return factorial(int(name[3:])) // 2
    if name.startswith("Sym"):
        return factorial(int(name[3:]))
    if "^" in name:
        base, exp = name.split("^", 1)
        return int(base) ** int(exp)
    if name.isdigit():
        return int(name)
    raise ValueError(f"unknown group name {name!r}")


# -- table rows ----------------------------------------------------------------


class TableRow(NamedTuple):
    table: str
    index: int
    group: str
    f_name: str
    f_order: int
    centralizer: SemisimpleTypeLabel
    fusion: ClassFusion | None
    constraint: CharConstraint
    overgroup: SemisimpleTypeLabel | None
    flags: tuple

    @property
    def row_id(self) -> str:
        return f"{self.table}#{self.index}"

    def describe(self) -> str:
        return f"{self.group} {self.f_name} -> {self.centralizer}"

    @property
    def expected_flagged(self) -> bool:
        return any(f.startswith("expect-") for f in self.flags)


class ElementClass(NamedTuple):
    group: str
    label: str
    order: int
    centralizer: SemisimpleTypeLabel
    annotation: str
    constraint: CharConstraint


class TableSet(NamedTuple):
    rows: dict  # table id -> tuple of TableRow, in AUDITED_TABLES order
    classes: dict  # (group, label) -> ElementClass

    def subgroup_rows(self):
        return [row for t, rows in self.rows.items() if t != "maximal" for row in rows]

    def maximal_rows(self):
        return list(self.rows.get("maximal", ()))


def _parse_error(path, lineno, fieldname, message):
    return ValueError(f"{os.path.basename(path)} line {lineno}: field {fieldname}: {message}")


def _read_table(path: str, fields):
    """(line number, parsed fields) for each data line of a ``|``-separated table.

    ``fields`` holds one ``(name, parse)`` pair per column, in file order; a
    wrong field count or a ValueError from ``parse`` is located at its file,
    line and field.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("|")
            if len(parts) != len(fields):
                raise _parse_error(
                    path, lineno, "line", f"expected {len(fields)} fields, got {len(parts)}"
                )
            values = []
            for (name, parse), text in zip(fields, parts):
                try:
                    values.append(parse(text))
                except ValueError as exc:
                    raise _parse_error(path, lineno, name, str(exc)) from None
            yield lineno, values


def _one_of(groups):
    def parse(text):
        if text not in groups:
            raise ValueError(f"unknown group {text!r}")
        return text

    return parse


def _optional(parse):
    return lambda text: parse(text) if text else None


def _group_name(text):
    group_name_order(text)  # must denote a known finite group
    return text


_ROW_FIELDS = (
    ("group", _one_of(ADJOINT_DIMENSION)),
    ("F_name", _group_name),
    ("F_order", int),
    ("centralizer", SemisimpleTypeLabel.parse),
    ("fusion", _optional(ClassFusion.parse)),
    ("p_constraint", CharConstraint.parse),
    ("overgroup", _optional(SemisimpleTypeLabel.parse)),
    ("flags", lambda text: tuple(f for f in text.split(",") if f)),
)

_ELEMENT_FIELDS = (
    ("group", _one_of((*ADJOINT_DIMENSION, "D4"))),
    ("class", str),
    ("order", int),
    ("centralizer", SemisimpleTypeLabel.parse),
    ("annotation", str),
    ("p_constraint", CharConstraint.parse),
)


def _table_path(directory: str, table_id: str) -> str:
    return os.path.join(directory, f"table_{table_id.replace('-', '_')}.txt")


def _load_rows(directory: str, table_id: str):
    path = _table_path(directory, table_id)
    rows = []
    for lineno, values in _read_table(path, _ROW_FIELDS):
        group, f_name, order, _, fusion, _, _, _ = values
        named = group_name_order(f_name)
        if named != order:
            raise _parse_error(
                path, lineno, "F_order", f"{f_name} has order {named}, row says {order}"
            )
        if fusion is not None and fusion.count_sum != order - 1:
            raise _parse_error(
                path, lineno, "fusion", f"counts sum to {fusion.count_sum}, expected {order - 1}"
            )
        rows.append(TableRow(table_id, len(rows) + 1, *values))
    if not rows:
        raise ValueError(f"{os.path.basename(path)}: table is empty")
    return tuple(rows)


def load_elements(directory: str | None = None) -> dict:
    """The elements table: (group, class label) -> ElementClass."""
    path = _table_path(directory or data_dir(), "elements")
    out = {}
    for lineno, (group, label, order, cent, annotation, constraint) in _read_table(
        path, _ELEMENT_FIELDS
    ):
        if not label.startswith(str(order)):
            raise _parse_error(path, lineno, "class", f"label {label} does not match order {order}")
        out[(group, label)] = ElementClass(group, label, order, cent, annotation, constraint)
    return out


@cache
def element_annotations(directory: str) -> MappingProxyType:
    """(group, class label) -> component annotation, read once per process and directory."""
    return MappingProxyType({key: cls.annotation for key, cls in load_elements(directory).items()})


def load_tables(directory: str | None = None) -> TableSet:
    """Load the audited tables and the elements table (default: packaged data)."""
    directory = directory or data_dir()
    rows = {table_id: _load_rows(directory, table_id) for table_id in AUDITED_TABLES}
    return TableSet(rows, load_elements(directory))


# -- trace assembly ------------------------------------------------------------


def assemble_traces(rows) -> dict:
    """The traces of every class of each group that ``rows`` name.

    Only the group names are read; every value comes from Kac coordinates.
    """
    return base_trace_table(sorted({row.group for row in rows}))


# -- audit reports ---------------------------------------------------------------


class AuditEntry(NamedTuple):
    table: str
    row_id: str
    row: str
    check: str
    status: str  # pass | fail | flagged | info | not-checked
    detail: str = ""


class AuditReport(NamedTuple):
    entries: tuple

    @property
    def ok(self) -> bool:
        return not any(e.status == "fail" for e in self.entries)

    def to_markdown(self) -> str:
        lines = ["| row | subject | check | status | detail |", "|---|---|---|---|---|"]
        for e in self.entries:
            lines.append(f"| {e.row_id} | {e.row} | {e.check} | {e.status} | {e.detail} |")
        counts = Counter(e.status for e in self.entries)
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        return "\n".join(lines + ["", f"summary: {summary}", f"ok: {self.ok}"]) + "\n"


def _sorted_entries(entries):
    return tuple(sorted(entries, key=lambda e: (e.table, e.row_id, e.check, e.row)))


def _audit(rows, checks, context) -> AuditReport:
    """One entry per row and check that applies to it, sorted; ``context`` is what
    the checks share, built once per pass."""
    entries = [
        AuditEntry(row.table, row.row_id, row.describe(), name, *verdict)
        for row in rows
        for name, check in checks
        if (verdict := check(row, context)) is not None
    ]
    return AuditReport(_sorted_entries(entries))


def _verdict(ok, failure):
    """A pass, or a fail that says ``failure``."""
    return ("pass", "") if ok else ("fail", failure)


# -- checks ------------------------------------------------------------------------


def _dimension_identity(row, traces: dict):
    """(dim + sum of traces) / |F| against the printed centralizer dimension."""
    if row.fusion is None:
        return None
    expected = row.centralizer.dimension
    classes = traces[row.group]
    try:
        value = fixed_point_dimension(ADJOINT_DIMENSION[row.group], row.fusion, classes, row.group)
    except KeyError as exc:
        return "fail", str(exc)
    prov = sorted({provenance(classes[l]) for l in row.fusion.labels()})
    prov_note = f" [traces: {', '.join(prov)}]" if prov else ""
    if value == expected:
        if row.expected_flagged:
            return "fail", f"row is flagged as a discrepancy but the identity holds ({value})"
        return "pass", f"average {value} = dim {expected}{prov_note}"
    integral = "" if value.denominator == 1 else " (not an integer)"
    status = "flagged" if row.expected_flagged else "fail"
    return status, f"average {value}{integral} != dim {expected}{prov_note}"


def _fusion_count(row, ts):
    if row.fusion is None:
        return None
    count = row.fusion.count_sum
    return _verdict(count == row.f_order - 1, f"counts sum to {count}, |F|-1 = {row.f_order - 1}")


def _class_labels(row, ts: TableSet):
    if row.fusion is None:
        return None
    missing = [l for l in row.fusion.labels() if (row.group, l) not in ts.classes]
    return _verdict(not missing, f"unknown {missing}")


def _maximal_domination(row, ts: TableSet):
    """Some maximal row of the group has order divisible by |F|, a centralizer of at
    most this dimension, and a characteristic this row allows."""
    maximal = [m for m in ts.maximal_rows() if m.group == row.group]
    if not maximal:
        return None
    dominated = any(
        m.f_order % row.f_order == 0
        and row.centralizer.dimension >= m.centralizer.dimension
        and constraints_compatible(row.constraint, row.f_order, m.constraint, m.f_order)
        for m in maximal
    )
    return _verdict(dominated, "no maximal row dominates this one")


def _overgroup_dimension(row, ts):
    if row.overgroup is None:
        return None
    return _verdict(
        row.overgroup.dimension >= row.centralizer.dimension,
        f"overgroup dim {row.overgroup.dimension} < centralizer dim {row.centralizer.dimension}",
    )


# small-characteristic caveats recorded alongside a passing certificate
_CERTIFICATE_NOTES = {
    ("E6", "2", "A1*A5"): "in characteristic 3 one trivial factor appears;"
    " no Levi subgroup contains this type",
}


def _normalize_rank_one(label: SemisimpleTypeLabel) -> str:
    plain = [
        SimpleType("A", 1) if (st.rank == 1 and st.family in "ABC") else st
        for st, _ in label.factors
    ]
    return str(SemisimpleTypeLabel.of(*plain))


def _chains_by_source() -> dict:
    """(group, source type) -> the registered chains from it, B1 and C1 read as A1."""
    sources: dict = {}
    for group, name in sorted(_CHAINS):
        source = SemisimpleTypeLabel.parse(named_chain(group, name).source.label())
        sources.setdefault((group, _normalize_rank_one(source)), []).append(name)
    return sources


def _irreducibility(row, chains: dict):
    """Full-rank centralizers pass outright.  Any other row is certified on the
    one registered chain of its group whose source type is the row's
    centralizer (B1 and C1 read as A1): the adjoint module is restricted
    along it.  A row that no chain reaches is not checked; a row that several
    chains reach fails, naming them.
    """
    note = _CERTIFICATE_NOTES.get((row.group, row.f_name, str(row.centralizer)), "")
    note = f"; {note}" if note else ""
    if row.centralizer.rank == group_type(row.group).rank:
        return "pass", f"maximal rank, irreducible outright{note}"
    names = chains.get((row.group, _normalize_rank_one(row.centralizer)), [])
    if not names:
        return "not-checked", "no registered chain"
    if len(names) > 1:
        return "fail", f"chains {', '.join(names)} all land in {row.centralizer}"
    adj = adjoint_character(build_root_system(SimpleType.parse(row.group)))
    trivial = has_trivial_factor(restrict(adj, named_chain(row.group, names[0])))
    detail = f"chain {names[0]}: restriction has {'a' if trivial else 'no'} trivial factor{note}"
    return ("fail" if trivial else "pass"), detail


# Every check of the audit, by the pass that runs it.  A check maps (row, the
# pass's context) to (status, detail), or to None where it does not apply to the row.
CHECKS = {
    "dimension": (("dimension-identity", _dimension_identity),),
    "structure": (
        ("fusion-count", _fusion_count),
        ("class-labels", _class_labels),
        ("maximal-domination", _maximal_domination),
        ("overgroup-dimension", _overgroup_dimension),
    ),
    "certificates": (("irreducibility", _irreducibility),),
}


def audit_dimension_identity(rows, traces: dict) -> AuditReport:
    return _audit(rows, CHECKS["dimension"], traces)


def audit_structure(ts: TableSet, rows) -> AuditReport:
    """The structure checks of ``rows``, subgroup rows of ``ts``."""
    return _audit(rows, CHECKS["structure"], ts)


def audit_irreducibility_certificates(ts: TableSet) -> AuditReport:
    """No-trivial-composition-factor certificates for the maximal rows."""
    return _audit(ts.maximal_rows(), CHECKS["certificates"], _chains_by_source())


def run_full_audit(ts: TableSet | None = None, tables: tuple | None = None) -> AuditReport:
    """All audits over the requested tables (default: everything)."""
    ts = ts or load_tables()
    wanted = set(tables or AUDITED_TABLES)
    rows = [r for r in ts.subgroup_rows() if r.table in wanted]
    entries = audit_dimension_identity(rows, assemble_traces(rows)).entries
    entries += audit_structure(ts, rows).entries
    if "maximal" in wanted:
        entries += audit_irreducibility_certificates(ts).entries
    return AuditReport(_sorted_entries(entries))
