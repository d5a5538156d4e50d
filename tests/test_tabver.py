import os
from collections import Counter

import pytest

from lca import embed, fixdim, repth, rootsys, torsion
from lca.fixdim import ADJOINT_DIMENSION, TWISTED_KAC, ClassFusion, base_trace_table, provenance, solve_traces
from lca.repth import dominant_weights
from lca.rootsys import SemisimpleTypeLabel, classify_subdiagram
from lca.torsion import enumerate_irreducible_elements
from lca.tabver import (
    AUDITED_TABLES,
    CharConstraint,
    TableRow,
    _read_table,
    assemble_traces,
    audit_dimension_identity,
    audit_irreducibility_certificates,
    audit_structure,
    constraints_compatible,
    group_name_order,
    load_tables,
    run_full_audit,
)

from helpers import strip_flags, unbarred

EXPECTED_FLAGGED = {
    ("e8", "Sym4x2"),
    ("e6", "Dih6"),
    ("aute6", "Dih6"),
}


@pytest.fixture(scope="module")
def tables():
    return load_tables()


@pytest.fixture(scope="module")
def report(tables):
    return run_full_audit(tables)


def test_row_counts(tables):
    counts = {t: len(tables.rows[t]) for t in AUDITED_TABLES}
    assert counts == {
        "e8": 46,
        "e7": 14,
        "e6": 3,
        "aute6": 8,
        "f4": 12,
        "g2": 3,
        "autd4": 9,
        "aute6-classes": 4,
        "maximal": 34,
    }


def test_class_registry_matches_torsion_enumeration(tables):
    from lca.rootsys import root_system
    from lca.torsion import enumerate_irreducible_elements

    for group in ("E8", "E7", "E6", "F4", "G2"):
        enumerated = {
            (c.name, str(c.centralizer)): c.order
            for c in enumerate_irreducible_elements(root_system(group))
        }
        registered = {
            (label, str(unbarred(cls.centralizer))): cls.order
            for (g, label), cls in tables.classes.items()
            if g == group
        }
        assert registered == enumerated


def test_group_name_orders():
    assert group_name_order("2^{1+4}-") == 32
    assert group_name_order("Sym4x2") == 48
    assert group_name_order("3^2.Dih8") == 72
    assert group_name_order("SL2(3)") == 24
    assert group_name_order("Alt5") == 60
    assert group_name_order("Frob20") == 20
    assert group_name_order("4oDih8") == 16
    assert group_name_order("AGL3(2)") == 1344
    with pytest.raises(ValueError):
        group_name_order("Mystery7")


def test_char_constraints():
    anyp = CharConstraint.parse("")
    ne23 = CharConstraint.parse("p!=2,3")
    eq3 = CharConstraint.parse("p=3")
    assert anyp.allows(0) and anyp.allows(5)
    assert ne23.allows(0) and ne23.allows(5) and not ne23.allows(3)
    assert eq3.allows(3) and not eq3.allows(0)
    assert constraints_compatible(anyp, 8, eq3, 8)  # p=3 works for 2-groups
    assert not constraints_compatible(ne23, 8, eq3, 8)  # no common characteristic
    assert not constraints_compatible(CharConstraint.parse("p=2"), 4, eq3, 4)
    assert not constraints_compatible(eq3, 9, eq3, 9)  # p=3 divides the order
    # a characteristic past 7: p=11 and p=13 meet p!=2,3 and divide neither order
    assert constraints_compatible(CharConstraint.parse("p=11"), 3, ne23, 3)
    assert constraints_compatible(ne23, 3, CharConstraint.parse("p=13"), 3)
    assert not constraints_compatible(CharConstraint.parse("p=11"), 11, ne23, 3)
    assert not constraints_compatible(CharConstraint.parse("p=13"), 3, CharConstraint.parse("p=11"), 3)
    assert ne23.values == (2, 3) and eq3.values == (3,)


def test_full_audit_flag_semantics(report):
    assert report.ok
    flagged = {(e.table, e.row.split()[1]) for e in report.entries if e.status == "flagged"}
    assert flagged == EXPECTED_FLAGGED
    assert not [e for e in report.entries if e.status == "fail"]


def test_flagged_rows_fail_when_flags_stripped(tables):
    stripped_report = run_full_audit(strip_flags(tables))
    assert not stripped_report.ok
    failing = {(e.table, e.row.split()[1]) for e in stripped_report.entries if e.status == "fail"}
    assert failing == EXPECTED_FLAGGED


def test_audit_reports_are_byte_stable(tables, report):
    again = run_full_audit(load_tables())
    assert again.to_markdown() == report.to_markdown()
    assert again.entries == report.entries


def test_every_trace_used_by_a_passing_row(tables, report):
    # every computed trace meets the printed data in at least one unflagged
    # row whose dimension identity holds
    traces = base_trace_table()
    passing = {e.row_id for e in report.entries if e.check == "dimension-identity" and e.status == "pass"}
    used = {
        (row.group, label)
        for row in tables.subgroup_rows()
        if row.row_id in passing and not row.expected_flagged
        for label in row.fusion.labels()
    }
    computed = {(group, label) for group, classes in traces.items() for label in classes}
    unused = sorted(computed - used)
    assert unused == [], unused
    assert len(computed) == 32


def test_solved_outer_traces(tables):
    traces = assemble_traces(tables.subgroup_rows())
    solved = {
        "AutE6": {"2B": 26, "2C": -6, "4A": -2, "6A": -1},
        "AutD4": {"2A": -4, "2B": 14, "2C": -2, "3A": 7, "3B": -2, "6A": -1},
    }
    for group, values in solved.items():
        assert {label: traces[group][label].trace for label in values} == values
    for label in ("2B", "2C", "3A", "3B", "6A"):
        assert provenance(traces["AutD4"][label]) == TWISTED_KAC


def test_enumerated_classes_are_the_elements_table(tables):
    # each table group's enumerated classes, inner and outer, are exactly its
    # rows of the elements table: same names, orders and centralizer types
    for group in ADJOINT_DIMENSION:
        computed = {(c.name, c.order, unbarred(c.centralizer)) for c in solve_traces(group).values()}
        printed = {
            (e.label, e.order, unbarred(e.centralizer))
            for (g, _), e in tables.classes.items()
            if g == group
        }
        assert computed == printed, group


def test_dimension_identity_spot_rows(tables):
    traces = assemble_traces(tables.subgroup_rows())
    rows = {(r.table, r.f_name, str(r.centralizer)): r for r in tables.subgroup_rows()}
    extraspecial = rows[("e8", "2^{1+4}-", "B1^5")]
    report = audit_dimension_identity([extraspecial], traces)
    assert report.entries[0].status == "pass"
    assert "15" in report.entries[0].detail
    sym4x2 = rows[("e8", "Sym4x2", "~A1*A1^2")]
    report = audit_dimension_identity([sym4x2], traces)
    assert report.entries[0].status == "flagged"
    assert "31/3" in report.entries[0].detail
    dih6 = rows[("e6", "Dih6", "A1^2")]
    report = audit_dimension_identity([dih6], traces)
    assert report.entries[0].status == "flagged"
    assert "11" in report.entries[0].detail


def test_structure_audit_passes_shipped_tables(tables, report):
    statuses = {e.status for e in report.entries if e.check.startswith(("fusion", "class", "maximal", "overgroup"))}
    assert statuses == {"pass"}


def test_structure_audit_catches_synthetic_bad_rows(tables):
    bad_fusion = TableRow(
        "e8", 999, "E8", "Alt5", 60,
        SemisimpleTypeLabel.parse("A1"),
        ClassFusion(60, (("2B", 15), ("3B", 20), ("5A", 25))),  # sums to |F|
        CharConstraint.parse(""), None, (),
    )
    ts = load_tables()
    ts.rows["e8"] = ts.rows["e8"] + (bad_fusion,)
    result = audit_structure(ts, ts.subgroup_rows())
    entries = [e for e in result.entries if e.row_id == "e8#999"]
    assert any(e.check == "fusion-count" and e.status == "fail" for e in entries)

    bad_label = TableRow(
        "e8", 998, "E8", "2", 2,
        SemisimpleTypeLabel.parse("D8"),
        ClassFusion.parse("2Z"),
        CharConstraint.parse(""), None, (),
    )
    ts.rows["e8"] = ts.rows["e8"] + (bad_label,)
    entries = [e for e in audit_structure(ts, ts.subgroup_rows()).entries if e.row_id == "e8#998"]
    assert any(e.check == "class-labels" and e.status == "fail" for e in entries)

    undominated = TableRow(
        "g2", 997, "G2", "Sym5", 120,
        SemisimpleTypeLabel.parse("A1"),
        None,
        CharConstraint.parse(""), None, (),
    )
    ts.rows["g2"] = ts.rows["g2"] + (undominated,)
    entries = [e for e in audit_structure(ts, ts.subgroup_rows()).entries if e.row_id == "g2#997"]
    assert any(e.check == "maximal-domination" and e.status == "fail" for e in entries)


def test_certificates_cover_every_maximal_row(tables):
    result = audit_irreducibility_certificates(tables)
    assert len(result.entries) == 34
    by_status = {}
    for e in result.entries:
        by_status.setdefault(e.status, []).append(e)
    assert not by_status.get("fail")
    # the open-question row stays unchecked; everything else is certified
    unchecked = [e.row for e in by_status.get("not-checked", ())]
    assert unchecked == ["E6 Dih6 -> A1^2"]
    assert len(by_status["pass"]) == 33


def _certificate(tables, row):
    """The one certificate entry of a table set whose only maximal row is ``row``."""
    (entry,) = audit_irreducibility_certificates(tables._replace(rows={"maximal": (row,)})).entries
    return entry


def test_certificate_chain_is_found_by_type(monkeypatch, tables):
    """A row certified on a chain is certified on the one chain that lands in its type."""
    g2 = next(row for row in tables.maximal_rows() if row.group == "G2" and row.f_name == "Dih6")
    entry = _certificate(tables, g2)
    assert (entry.status, entry.detail) == ("pass", "chain b1: restriction has no trivial factor")

    # a second chain reaching the same type makes the choice ambiguous
    monkeypatch.setitem(embed._CHAINS, ("G2", "b1-copy"), embed._CHAINS["G2", "b1"])
    entry = _certificate(tables, g2)
    assert (entry.status, entry.detail) == ("fail", "chains b1, b1-copy all land in A1")


@pytest.mark.parametrize(
    "group, centralizer",
    [("F4", "G2"), ("AutD4", "A1")],  # no F4 chain lands in G2; AutD4 has no chains
)
def test_certificate_without_a_reaching_chain_is_not_checked(tables, group, centralizer):
    unreached = TableRow(
        "maximal", 99, group, "Sym5", 120,
        SemisimpleTypeLabel.parse(centralizer),
        None, CharConstraint.parse(""), None, (),
    )
    entry = _certificate(tables, unreached)
    assert (entry.status, entry.detail) == ("not-checked", "no registered chain")


def test_load_errors(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "lca", "data")
    for name in os.listdir(src):
        (data / name).write_text(open(os.path.join(src, name)).read())
    (data / "table_g2.txt").write_text("# id: g2\n")
    with pytest.raises(ValueError, match="empty"):
        load_tables(str(data))
    (data / "table_g2.txt").write_text("G2|2|3|A1*A1|2A|||\n")
    with pytest.raises(ValueError, match="F_order"):
        load_tables(str(data))
    (data / "table_g2.txt").write_text("G2|2|2|A1*A1|2A||\n")
    with pytest.raises(ValueError, match="8 fields"):
        load_tables(str(data))
    (data / "table_g2.txt").write_text("G2|2|2|H9|2A|||\n")
    with pytest.raises(ValueError, match="centralizer"):
        load_tables(str(data))
    (data / "table_g2.txt").write_text("G2|2|2|A1*A1|2A^2|||\n")  # |F| - 1 = 1
    with pytest.raises(ValueError, match="field fusion: counts sum to 2, expected 1"):
        load_tables(str(data))


def test_data_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LCA_DATA_DIR", str(tmp_path))
    from lca.tabver import data_dir

    assert data_dir() == str(tmp_path)
    monkeypatch.delenv("LCA_DATA_DIR")
    assert data_dir().endswith(os.path.join("lca", "data"))


NORMALIZER_FIELDS = (
    ("group", str),
    ("subgroup", SemisimpleTypeLabel.parse),
    ("quotient", group_name_order),
)


def test_normalizer_table_well_formed():
    # reference data for a future normalizer check; no audit reads it yet
    path = os.path.join(os.path.dirname(__file__), "data", "table_normalizers.txt")
    rows = [values for _, values in _read_table(path, NORMALIZER_FIELDS)]
    assert len(rows) == 14
    for group, subgroup, quotient_order in rows:
        assert group in ("E8", "E7", "E6", "F4", "G2")
        assert subgroup.dimension > 0
        assert quotient_order >= 2


def test_one_audit_computes_each_table_once(monkeypatch, tables):
    """Freudenthal runs once per (factor, highest weight), enumeration once per (type, twist)."""
    freudenthal, enumerations = Counter(), Counter()

    def counted_weights(ambient, lam):  # called once per run of Freudenthal's recursion
        freudenthal[ambient.label(), lam] += 1
        return dominant_weights(ambient, lam)

    def counted_enumeration(rs, twist=1):
        enumerations[rs.label(), twist] += 1
        return enumerate_irreducible_elements(rs, twist)

    monkeypatch.setattr(repth, "dominant_weights", counted_weights)
    monkeypatch.setattr(fixdim, "enumerate_irreducible_elements", counted_enumeration)
    for cached in (repth._freudenthal_multiplicities, repth.adjoint_character, fixdim.solve_traces):
        cached.cache_clear()
    run_full_audit(tables)
    assert freudenthal and set(freudenthal.values()) == {1}
    # E8, E7, E6, F4, G2 and D4 inner; E6^(2), D4^(2) and D4^(3) outer
    assert len(enumerations) == 9 and set(enumerations.values()) == {1}


def test_one_audit_classifies_each_node_set_once(monkeypatch, tables):
    """Enumeration and the chains' extended deletions share one classification per node set."""
    calls = Counter()

    def counted(rs, nodes):
        calls[rs.label(), tuple(nodes)] += 1
        return classify_subdiagram(rs, nodes)

    for module in (torsion, embed):
        monkeypatch.setattr(module, "classify_subdiagram", counted)
    for cached in (rootsys._classified, fixdim.solve_traces, embed._build_chain):
        cached.cache_clear()
    run_full_audit(tables)
    assert max(calls.values()) > 1  # the chains re-type node sets that enumeration typed
    assert rootsys._classified.cache_info().misses == len(calls)
