import pytest

from lca.fixdim import (
    KAC,
    TWISTED_KAC,
    ClassFusion,
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


def test_trace_table_roundtrip():
    table = TraceTable()
    table.set("E8", "2A", 24, KAC)
    assert table.get("E8", "2A") == 24 and table.provenance("E8", "2A") == KAC
    with pytest.raises(KeyError, match="2B of E8"):
        table.get("E8", "2B")


def test_solve_traces_is_one_group(traces):
    outer = solve_traces("AutD4")
    assert set(outer.entries) == {("AutD4", l) for l in ("2A", "2B", "2C", "3A", "3B", "6A")}
    assert outer.provenance("AutD4", "2A") == KAC
    assert outer.provenance("AutD4", "3A") == TWISTED_KAC
    assert {k: v for k, v in traces.entries.items() if k[0] == "AutD4"} == outer.entries
    # the automorphism-extended groups share their inner traces with the identity component
    assert traces.get("AutE6", "3A") == traces.get("E6", "3A") == -3
