"""Machine-readable result tables and the engine that audits every row.

The package ships only the tables the engine reads: the eight subgroup
tables and the maximal-row table (``AUDITED_TABLES``), and the elements
table, which names the classes a fusion may use.  Every file is read by
one reader, ``_read_table``, from a declared field schema, so a malformed
field is reported with its file, line and field name.  Tables ship exactly
as printed; rows known to fail a check carry an expected-discrepancy flag in
the data file, and the engine verifies that they do fail (a flagged row that
passes is itself reported).  The checks are:

* the dimension identity: the trace average over F equals the dimension of
  the printed centralizer, as an exact integer;
* structural coherence: fusion counts, class labels, domination of each row
  by a maximal row, overgroup dimensions;
* irreducibility certificates: restriction of the adjoint module along a
  registered embedding chain has no trivial composition factor.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass
from math import factorial

from .embed import named_chain
from .fixdim import (
    ADJOINT_DIMENSION,
    ClassFusion,
    TraceTable,
    base_trace_table,
    fixed_point_dimension,
    group_type,
)
from .repth import adjoint_character, has_trivial_factor, restrict
from .rootsys import SemisimpleTypeLabel, SimpleType, build_root_system

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


@dataclass(frozen=True)
class CharConstraint:
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

    def __str__(self) -> str:
        if self.kind == "eq":
            return f"p={self.values[0]}"
        if self.kind == "ne":
            return "p!=" + ",".join(map(str, self.values))
        return ""


_CANDIDATE_CHARS = (0, 2, 3, 5, 7)


def constraints_compatible(a: CharConstraint, order_a: int, b: CharConstraint, order_b: int) -> bool:
    """Some characteristic satisfies both constraints and divides neither order."""
    for p in _CANDIDATE_CHARS:
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


@dataclass(frozen=True)
class TableRow:
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


@dataclass(frozen=True)
class ElementClass:
    group: str
    label: str
    order: int
    centralizer: SemisimpleTypeLabel
    annotation: str
    constraint: CharConstraint


@dataclass
class TableSet:
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


def load_tables(directory: str | None = None) -> TableSet:
    """Load the audited tables and the elements table (default: packaged data)."""
    directory = directory or data_dir()
    rows = {table_id: _load_rows(directory, table_id) for table_id in AUDITED_TABLES}
    return TableSet(rows, load_elements(directory))


# -- trace assembly ------------------------------------------------------------


def assemble_traces(rows) -> TraceTable:
    """The traces of every class of each group that ``rows`` name.

    Only the group names are read; every value comes from Kac coordinates.
    """
    return base_trace_table(sorted({row.group for row in rows}))


# -- audit reports ---------------------------------------------------------------


@dataclass(frozen=True)
class AuditEntry:
    table: str
    row_id: str
    row: str
    check: str
    status: str  # pass | fail | flagged | info | not-checked
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    entries: tuple

    @property
    def ok(self) -> bool:
        return not any(e.status == "fail" for e in self.entries)

    def by_status(self, status: str):
        return [e for e in self.entries if e.status == status]

    def to_markdown(self) -> str:
        lines = ["| row | subject | check | status | detail |", "|---|---|---|---|---|"]
        for e in self.entries:
            lines.append(f"| {e.row_id} | {e.row} | {e.check} | {e.status} | {e.detail} |")
        counts = Counter(e.status for e in self.entries)
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
        return "\n".join(lines + ["", f"summary: {summary}", f"ok: {self.ok}"]) + "\n"

    def to_json(self) -> str:
        payload = {
            "schema_version": 1,
            "ok": self.ok,
            "entries": [asdict(e) for e in self.entries],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _check(row, check, status, detail=""):
    return AuditEntry(row.table, row.row_id, row.describe(), check, status, detail)


def _verdict(row, check, ok, failure):
    """A pass, or a fail that says ``failure``."""
    return _check(row, check, "pass") if ok else _check(row, check, "fail", failure)


def _sorted_entries(entries):
    return tuple(sorted(entries, key=lambda e: (e.table, e.row_id, e.check, e.row)))


# -- audit: dimension identity --------------------------------------------------


def audit_dimension_identity(rows, traces: TraceTable) -> AuditReport:
    """Check (dim + sum of traces) / |F| against the printed centralizer dimension."""
    entries = []
    for row in rows:
        if row.fusion is None:
            continue
        expected = row.centralizer.dimension
        try:
            value = fixed_point_dimension(
                ADJOINT_DIMENSION[row.group], row.fusion, traces, row.group
            )
        except KeyError as exc:
            entries.append(_check(row, "dimension-identity", "fail", str(exc)))
            continue
        prov = sorted(
            {traces.provenance(row.group, l) for l in row.fusion.labels()}
        )
        prov_note = f" [traces: {', '.join(prov)}]" if prov else ""
        if value == expected:
            status = "pass"
            detail = f"average {value} = dim {expected}{prov_note}"
            if row.expected_flagged:
                status = "fail"
                detail = f"row is flagged as a discrepancy but the identity holds ({value})"
        else:
            integral = "" if value.denominator == 1 else " (not an integer)"
            status = "flagged" if row.expected_flagged else "fail"
            detail = f"average {value}{integral} != dim {expected}{prov_note}"
        entries.append(_check(row, "dimension-identity", status, detail))
    return AuditReport(_sorted_entries(entries))


# -- audit: structural checks ----------------------------------------------------


def audit_structure(ts: TableSet) -> AuditReport:
    entries = []
    maximal = ts.maximal_rows()
    max_groups = {r.group for r in maximal}

    for row in ts.subgroup_rows():
        if row.fusion is not None:
            entries.append(
                _verdict(
                    row,
                    "fusion-count",
                    row.fusion.count_sum == row.f_order - 1,
                    f"counts sum to {row.fusion.count_sum}, |F|-1 = {row.f_order - 1}",
                )
            )
            missing = [l for l in row.fusion.labels() if (row.group, l) not in ts.classes]
            entries.append(_verdict(row, "class-labels", not missing, f"unknown {missing}"))

        if row.group in max_groups:
            dominated = any(
                m.f_order % row.f_order == 0
                and row.centralizer.dimension >= m.centralizer.dimension
                and constraints_compatible(row.constraint, row.f_order, m.constraint, m.f_order)
                for m in maximal
                if m.group == row.group
            )
            entries.append(
                _verdict(row, "maximal-domination", dominated, "no maximal row dominates this one")
            )

        if row.overgroup is not None:
            entries.append(
                _verdict(
                    row,
                    "overgroup-dimension",
                    row.overgroup.dimension >= row.centralizer.dimension,
                    f"overgroup dim {row.overgroup.dimension} < centralizer dim"
                    f" {row.centralizer.dimension}",
                )
            )
    return AuditReport(_sorted_entries(entries))


# -- audit: irreducibility certificates -------------------------------------------

# (group, F name, centralizer) -> registered chain
_CERTIFICATE_CHAINS = {
    ("E8", "Q8", "B2^3"): "b2^3",
    ("E8", "2^{1+4}-", "B1^5"): "b1^5",
    ("E8", "Dih6", "B4"): "b4",
    ("E8", "G12", "~A1*A1*A3"): "a1a1a3",
    ("E8", "Sym4x2", "~A1*A1^2"): "a1a1a1",
    ("E8", "SL2(3)", "~A1*A2"): "a1a2",
    ("E8", "3^2.Dih8", "A1^2"): "a1^2-3^2dih8",
    ("E8", "Sym5", "A1"): "a1-sym5",
    ("E8", "Q8", "~A1*D4"): "a1d4",
    ("E8", "Dih8x2", "~A1^2*B1^2*B2"): "a1^2b1^2b2",
    ("E8", "Frob20", "B2"): "b2-frob20",
    ("E7", "Q8", "~A1*B1^4"): "a1b1^4",
    ("E7", "Dih6", "A1*A3"): "b1a3",
    ("E7", "Alt4", "A2"): "a2-alt4",
    ("E7", "Sym4", "~A1*A1"): "a1b1-sym4",
    ("E7", "2^2", "D4"): "d4",
    ("E7", "Dih8", "~A1*B1^2*B2"): "a1b1^2b2",
    ("F4", "2^3", "A1^4"): "a1^4",
    ("F4", "Q8", "B1^3"): "b1^3",
    ("F4", "Sym4", "A1"): "b1-sym4",
    ("F4", "Dih8", "B1*B2"): "b1b2",
    ("G2", "Dih6", "A1"): "b1",
}

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


def audit_irreducibility_certificates(ts: TableSet) -> AuditReport:
    """No-trivial-composition-factor certificates for the maximal rows.

    Full-rank centralizers pass outright; rows with a registered embedding
    chain get a computed restriction of the adjoint module; everything else
    is reported as not checked.
    """
    entries = []
    for row in ts.maximal_rows():
        key = (row.group, row.f_name, str(row.centralizer))
        note = _CERTIFICATE_NOTES.get(key, "")
        if row.centralizer.rank == group_type(row.group).rank:
            detail = "maximal rank, irreducible outright"
            if note:
                detail += f"; {note}"
            entries.append(_check(row, "irreducibility", "pass", detail))
            continue
        chain_name = _CERTIFICATE_CHAINS.get(key)
        if chain_name is None:
            entries.append(_check(row, "irreducibility", "not-checked", "no registered chain"))
            continue
        emb = named_chain(row.group, chain_name)
        if _normalize_rank_one(row.centralizer) != _normalize_rank_one(
            SemisimpleTypeLabel.parse(emb.source.label())
        ):
            entries.append(
                _check(
                    row,
                    "irreducibility",
                    "fail",
                    f"chain {chain_name} lands in {emb.source.label()}, row says {row.centralizer}",
                )
            )
            continue
        adj = adjoint_character(build_root_system(SimpleType.parse(row.group)))
        trivial = has_trivial_factor(restrict(adj, emb))
        status = "fail" if trivial else "pass"
        detail = f"chain {chain_name}: restriction has {'a' if trivial else 'no'} trivial factor"
        if note:
            detail += f"; {note}"
        entries.append(_check(row, "irreducibility", status, detail))
    return AuditReport(_sorted_entries(entries))


# -- full audit --------------------------------------------------------------------


def run_full_audit(ts: TableSet | None = None, tables: tuple | None = None) -> AuditReport:
    """All audits over the requested tables (default: everything)."""
    ts = ts or load_tables()
    wanted = set(tables or AUDITED_TABLES)
    entries = []
    rows = [r for r in ts.subgroup_rows() if r.table in wanted]
    entries.extend(audit_dimension_identity(rows, assemble_traces(rows)).entries)
    structural = audit_structure(ts)
    entries.extend(e for e in structural.entries if e.table in wanted)
    if "maximal" in wanted:
        entries.extend(audit_irreducibility_certificates(ts).entries)
    return AuditReport(_sorted_entries(entries))
