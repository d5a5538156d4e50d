import pytest

from lca.fixdim import (
    KAC,
    TWISTED_KAC,
    ClassFusion,
    base_trace_table,
    fixed_point_dimension,
    provenance,
    solve_traces,
)


@pytest.fixture(scope="module")
def traces():
    return base_trace_table()


def test_four_published_fixed_dimensions(traces):
    # Alt5 with order-3 elements in the two possible classes, then the
    # order-27 subgroup, then the 3x3 computation on the E6 adjoint module
    alt5_a = ClassFusion.parse("2B^15,3A^20,5A^24")
    assert fixed_point_dimension(248, alt5_a, traces["E8"], "E8") == 0
    alt5_b = ClassFusion.parse("2B^15,3B^20,5A^24")
    assert fixed_point_dimension(248, alt5_b, traces["E8"], "E8") == 3
    heisenberg = ClassFusion.parse("3B^26")
    assert fixed_point_dimension(248, heisenberg, traces["E8"], "E8") == 14
    three_by_three = ClassFusion.parse("3A^8")
    assert fixed_point_dimension(78, three_by_three, traces["E6"], "E6") == 6


def test_trivial_group(traces):
    assert fixed_point_dimension(248, ClassFusion(1, ()), traces["E8"], "E8") == 248


def test_unresolved_label_is_an_error(traces):
    with pytest.raises(KeyError, match="no trace for class 7A of E8"):
        fixed_point_dimension(248, ClassFusion.parse("7A^6"), traces["E8"], "E8")


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
        small_dim = fixed_point_dimension(dim, ClassFusion.parse(small), traces[group], group)
        large_dim = fixed_point_dimension(dim, ClassFusion.parse(large), traces[group], group)
        assert large_dim <= small_dim


def test_solve_traces_is_computed_once_and_read_only(traces):
    table = solve_traces("E8")
    assert solve_traces("E8") is table and traces["E8"] is table
    with pytest.raises(TypeError):
        table["2A"] = table["2B"]
    with pytest.raises(TypeError):
        del table["2A"]
    assert table["2A"].trace == 24


def test_solve_traces_is_one_group(traces):
    outer = solve_traces("AutD4")
    assert list(outer) == ["2A", "2B", "2C", "3A", "3B", "6A"]  # inner, then outer
    assert provenance(outer["2A"]) == KAC
    assert provenance(outer["3A"]) == TWISTED_KAC
    assert set(traces) == {"E8", "E7", "E6", "F4", "G2", "AutE6", "AutD4"}
    # the automorphism-extended groups share their inner classes with the identity component
    assert traces["AutE6"]["3A"] is traces["E6"]["3A"]
    assert traces["AutE6"]["3A"].trace == -3
