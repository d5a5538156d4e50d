from fractions import Fraction

import pytest

from lca.fixdim import (
    KAC,
    SOLVED,
    ClassFusion,
    SolveRow,
    TraceTable,
    base_trace_table,
    fixed_point_dimension,
    solve_traces,
)


@pytest.fixture(scope="module")
def traces():
    return base_trace_table()


def test_four_published_fixed_dimensions(traces):
    # Alt5 with order-3 elements in the two possible classes, then the
    # order-27 subgroup, then the 3x3 computation on the E6 adjoint module
    alt5_a = ClassFusion.parse("2B^15,3A^20,5A^24")
    assert fixed_point_dimension(248, alt5_a, traces, "E8") == 0
    alt5_b = ClassFusion.parse("2B^15,3B^20,5A^24")
    assert fixed_point_dimension(248, alt5_b, traces, "E8") == 3
    heisenberg = ClassFusion.parse("3B^26")
    assert fixed_point_dimension(248, heisenberg, traces, "E8") == 14
    three_by_three = ClassFusion.parse("3A^8")
    assert fixed_point_dimension(78, three_by_three, traces, "E6") == 6


def test_trivial_group(traces):
    assert fixed_point_dimension(248, ClassFusion(1, ()), traces, "E8") == 248


def test_unresolved_label_is_an_error(traces):
    with pytest.raises(KeyError, match="7A"):
        fixed_point_dimension(248, ClassFusion.parse("7A^6"), traces, "E8")


def test_fusion_parsing():
    fusion = ClassFusion.parse("2A^10,2B^15,3B^20,4B^30,5A^24,6A^20")
    assert fusion.group_order == 120
    assert fusion.count_sum == 119
    assert str(fusion) == "2A^10,2B^15,3B^20,4B^30,5A^24,6A^20"
    with pytest.raises(ValueError):
        ClassFusion(6, (("2A", 0),))


def test_solve_traces_from_cyclic_rows(traces):
    stripped = traces
    for label in ("2A", "4A", "4B", "6A"):
        stripped = stripped.without("E8", label)
    rows = [
        SolveRow("cyc2a", ClassFusion.parse("2A"), 136),
        SolveRow("cyc4a", ClassFusion.parse("2A,4A^2"), 66),
        SolveRow("cyc4b", ClassFusion.parse("2B,4B^2"), 60),
        SolveRow("cyc6", ClassFusion.parse("2A,3B^2,6A^2"), 46),
        # independent non-cyclic cross-checks
        SolveRow("sl23", ClassFusion.parse("2A,3B^8,4A^6,6A^8"), 11),
        SolveRow("frob20", ClassFusion.parse("2B^5,4B^10,5A^4"), 10),
        SolveRow("dih8", ClassFusion.parse("2A^4,2B,4B^2"), 42),
        SolveRow("dih12", ClassFusion.parse("2A^4,2B^3,3B^2,6A^2"), 27),
    ]
    solved, findings = solve_traces("E8", rows, stripped)
    assert findings == ()
    assert solved.get("E8", "2A") == 24
    assert solved.get("E8", "4A") == -4
    assert solved.get("E8", "4B") == 0
    assert solved.get("E8", "6A") == -3
    for label in ("2A", "4A", "4B", "6A"):
        assert solved.provenance("E8", label) == SOLVED
    assert solved.provenance("E8", "2B") == KAC


def test_solve_traces_reports_inconsistency(traces):
    rows = [SolveRow("bad", ClassFusion.parse("2A^3,3A^2"), 6)]
    _, findings = solve_traces("E6", rows, traces)
    assert len(findings) == 1
    assert "11" in findings[0].message


def test_solve_traces_flagged_rows_are_ignored(traces):
    rows = [SolveRow("bad", ClassFusion.parse("2A^3,3A^2"), 6, flagged=True)]
    _, findings = solve_traces("E6", rows, traces)
    assert findings == ()


def test_solve_traces_marks_undetermined(traces):
    rows = [SolveRow("twounknowns", ClassFusion.parse("9A^3,9B^5"), 10)]
    _, findings = solve_traces("E8", rows, traces)
    assert sorted(f.message for f in findings) == [
        "trace of class 9A is undetermined",
        "trace of class 9B is undetermined",
    ]


def test_solve_traces_order_independent(traces):
    import random

    # 6A is reachable only after cyc2a has solved 2A, whatever the row order
    stripped = traces.without("E8", "2A").without("E8", "4B").without("E8", "6A")
    rows = [
        SolveRow("cyc2a", ClassFusion.parse("2A"), 136),
        SolveRow("cyc4b", ClassFusion.parse("2B,4B^2"), 60),
        SolveRow("cyc6", ClassFusion.parse("2A,3B^2,6A^2"), 46),
        SolveRow("frob20", ClassFusion.parse("2B^5,4B^10,5A^4"), 10),
        SolveRow("dih12", ClassFusion.parse("2A^4,2B^3,3B^2,6A^2"), 27),
    ]
    reference = None
    for seed in range(5):
        shuffled = rows[:]
        random.Random(seed).shuffle(shuffled)
        solved, findings = solve_traces("E8", shuffled, stripped)
        assert findings == ()
        for label in ("2A", "4B", "6A"):
            assert solved.get("E8", label) == traces.get("E8", label)
        snapshot = sorted((k, str(v[0]), v[1]) for k, v in solved.entries.items())
        if reference is None:
            reference = snapshot
        assert snapshot == reference


def test_monotonicity_on_nested_subgroups(traces):
    # growing the subgroup can only shrink the fixed subspace
    nested = [
        ("E8", 248, "2B^5,5A^4", "2B^5,4B^10,5A^4"),  # Dih10 < Frob20
        ("E8", 248, "2B^15,3B^20,5A^24", "2A^10,2B^15,3B^20,4B^30,5A^24,6A^20"),
        ("E8", 248, "2B,4B^6", "2A^10,2B,4B^20"),  # Q8 < the extraspecial group
    ]
    for group, dim, small, large in nested:
        small_dim = fixed_point_dimension(dim, ClassFusion.parse(small), traces, group)
        large_dim = fixed_point_dimension(dim, ClassFusion.parse(large), traces, group)
        assert large_dim <= small_dim


def test_trace_table_roundtrip(traces):
    payload = traces.to_json()
    assert all(set(row) == {"group", "class", "trace", "provenance"} for row in payload)
    table = TraceTable()
    table.set("E8", "2A", Fraction(24), KAC)
    assert table.has("E8", "2A") and not table.has("E8", "2B")
    assert table.without("E8", "2A").entries == {}


def test_trace_table_json_import(traces):
    from lca.fixdim import TraceTable

    clone = TraceTable.from_json(traces.to_json())
    assert clone.entries == traces.entries
