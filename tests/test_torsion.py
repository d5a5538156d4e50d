from collections import Counter

import pytest

from lca import embed, torsion
from lca.fixdim import solve_traces
from lca.rootsys import ADJOINT_DIMENSION, classify_subdiagram, root_system
from lca.torsion import (
    KacCoordinates,
    adjoint_trace,
    cyclotomic_polynomial,
    eigenvalue_profile,
    enumerate_irreducible_elements,
    fixed_subsystem,
    fixes_a_vector,
    graded_weights,
    root_of_unity_sum,
    single_node,
    torsion_centralizer,
)

# (group, class) -> (order, centralizer, adjoint trace)
PUBLISHED = {
    ("E8", "2A"): (2, "A1*E7", 24),
    ("E8", "2B"): (2, "D8", -8),
    ("E8", "3A"): (3, "A8", -4),
    ("E8", "3B"): (3, "A2*E6", 5),
    ("E8", "4A"): (4, "A1*A7", -4),
    ("E8", "4B"): (4, "A3*D5", 0),
    ("E8", "5A"): (5, "A4^2", -2),
    ("E8", "6A"): (6, "A1*A2*A5", -3),
    ("E7", "2A"): (2, "A1*D6", 5),
    ("E7", "2B"): (2, "A7", -7),
    ("E7", "3A"): (3, "A2*A5", -2),
    ("E7", "4A"): (4, "A1*A3^2", -3),
    ("E6", "2A"): (2, "A1*A5", -2),
    ("E6", "3A"): (3, "A2^3", -3),
    ("F4", "2A"): (2, "B4", 20),
    ("F4", "2B"): (2, "A1*C3", -4),
    ("F4", "3A"): (3, "A2^2", -2),
    ("F4", "4A"): (4, "A1*A3", 0),
    ("G2", "2A"): (2, "A1^2", -2),
    ("G2", "3A"): (3, "A2", 5),
}

# (ambient, twist, class) -> (order, centralizer, adjoint trace) of the outer
# classes, from single labels on E6^(2), D4^(2) and D4^(3)
OUTER = {
    ("E6", 2, "2B"): (2, "F4", 26),
    ("E6", 2, "2C"): (2, "C4", -6),
    ("E6", 2, "4A"): (4, "A1*A3", -2),
    ("E6", 2, "6A"): (6, "A2^2", -1),
    ("D4", 2, "2B"): (2, "B3", 14),
    ("D4", 2, "2C"): (2, "B1*B2", -2),
    ("D4", 3, "3A"): (3, "G2", 7),
    ("D4", 3, "3B"): (3, "A2", -2),
    ("D4", 3, "6A"): (6, "A1^2", -1),
}
TWISTS = (("E6", 2), ("D4", 2), ("D4", 3))


def test_enumeration_matches_published_tables():
    counts = {"E8": 8, "E7": 4, "E6": 2, "F4": 4, "G2": 2}
    for group, expected_count in counts.items():
        classes = enumerate_irreducible_elements(root_system(group))
        assert len(classes) == expected_count
        for cls in classes:
            order, cent, trace = PUBLISHED[(group, cls.name)]
            assert cls.order == order
            assert str(cls.centralizer) == cent
            assert cls.trace == trace
    assert sum(counts.values()) == 20


def test_kac_coordinate_validation():
    e8 = root_system("E8")
    with pytest.raises(ValueError):
        KacCoordinates(e8, (0, 2) + (0,) * 7)  # gcd 2
    with pytest.raises(ValueError):
        KacCoordinates(e8, (1, -1) + (0,) * 7)
    with pytest.raises(ValueError):
        KacCoordinates(e8, (1, 0))


def test_torsion_centralizer_examples():
    e8 = root_system("E8")
    label, deficit = torsion_centralizer(single_node(e8, 5))  # the mark-5 node
    assert str(label) == "A4^2" and deficit == 0
    label, deficit = torsion_centralizer(single_node(e8, 4))  # the mark-6 node
    assert str(label) == "A1*A2*A5" and deficit == 0
    label, deficit = torsion_centralizer(single_node(e8, 0))  # identity
    assert str(label) == "E8" and deficit == 0
    two_nodes = KacCoordinates(e8, (1, 1) + (0,) * 7)
    _, deficit = torsion_centralizer(two_nodes)
    assert deficit == 1  # rank-one central torus


def test_eigenvalue_profile_invariants():
    for group in ("E8", "E7", "E6", "F4", "G2"):
        rs = root_system(group)
        for cls in enumerate_irreducible_elements(rs):
            profile = eigenvalue_profile(cls.kac)
            m = profile.order
            assert profile.dimension == rs.type.adjoint_dimension
            assert profile.counts[0] == cls.centralizer.dimension
            for j in range(1, m):
                assert profile.counts[j] == profile.counts[m - j]


def test_order_two_trace_identity():
    for group in ("E8", "E7", "E6", "F4", "G2"):
        rs = root_system(group)
        for cls in enumerate_irreducible_elements(rs):
            if cls.order != 2:
                continue
            assert cls.trace == 2 * cls.centralizer.dimension - rs.type.adjoint_dimension


def test_trace_powers():
    e8 = solve_traces("E8")
    cls = e8["6A"]
    assert adjoint_trace(cls.kac, 0) == 248
    assert adjoint_trace(cls.kac, 2) == 5  # squares into the 3B class
    assert adjoint_trace(cls.kac, 3) == 24  # cubes into the 2A class
    assert adjoint_trace(cls.kac, 5) == adjoint_trace(cls.kac, 1)
    assert adjoint_trace(e8["4B"].kac, 2) == -8  # squares into 2B


def test_traces_are_integers():
    for group in ("E8", "E7", "E6", "F4", "G2"):
        for cls in enumerate_irreducible_elements(root_system(group)):
            assert type(cls.trace) is int
            assert type(adjoint_trace(cls.kac, 2)) is int


def test_cyclotomic_helpers():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    # 1 + zeta + ... + zeta^{m-1} = 0
    for m in (2, 3, 4, 5, 6, 12):
        assert root_of_unity_sum([1] * m, m) == 0
    assert root_of_unity_sum([5], 7) == 5
    with pytest.raises(ValueError):
        root_of_unity_sum([0, 1], 5)  # zeta_5 itself is irrational


def test_enumeration_is_deterministic_and_serializable():
    first = enumerate_irreducible_elements(root_system("E7"))
    second = enumerate_irreducible_elements(root_system("E7"))
    assert [c.to_json() for c in first] == [c.to_json() for c in second]
    payload = first[0].to_json()
    assert payload["group"] == "E7"
    assert set(payload) == {
        "group", "class", "order", "labels", "centralizer", "eigenvalue_counts", "trace",
    }


def test_twisted_diagrams():
    # g_0 and the marks of the affine node -theta_s
    expected = {("E6", 2): ("F4", (1, 2, 3, 2)), ("D4", 2): ("B3", (1, 1, 1)), ("D4", 3): ("G2", (2, 1))}
    for (group, twist), (fixed, marks) in expected.items():
        rs = root_system(group)
        g0 = fixed_subsystem(rs, twist)
        assert g0.label() == fixed and g0.highest_short_root == marks
        # g_0, then k - 1 copies of V(theta_s): short roots and one zero per short simple root
        weights = graded_weights(rs, twist)
        assert len(weights) == rs.type.adjoint_dimension
        assert sum(1 for j, _ in weights if j == 0) == g0.type.adjoint_dimension
    for group in ("E8", "D4", "A3"):
        rs = root_system(group)
        assert rs.highest_short_root == rs.highest_root


def test_outer_classes_from_twisted_diagrams():
    seen = {}
    for group, twist in TWISTS:
        rs = root_system(group)
        for cls in enumerate_irreducible_elements(rs, twist):
            seen[(group, twist, cls.name)] = (cls.order, str(cls.centralizer), cls.trace)
            profile = eigenvalue_profile(cls.kac)
            m = profile.order
            assert profile.dimension == rs.type.adjoint_dimension
            # the eigenvalue-1 space is the centralizer's Lie algebra
            assert profile.counts[0] == cls.centralizer.dimension, cls.kac
            for j in range(1, m):
                assert profile.counts[j] == profile.counts[m - j]
    assert seen == OUTER


def test_outer_trace_powers_follow_the_power_fusion():
    # x^2 of AutE6 4A is inner 2A; x^2 and x^3 of AutE6 6A are 3A and 2B;
    # x^2 and x^3 of AutD4 6A are 3A and inner 2A
    e6 = {label: c.kac for label, c in solve_traces("AutE6").items()}
    assert adjoint_trace(e6["4A"], 2) == -2 == adjoint_trace(e6["2A"])
    assert adjoint_trace(e6["6A"], 2) == -3 == adjoint_trace(e6["3A"])
    assert adjoint_trace(e6["6A"], 3) == 26 == adjoint_trace(e6["2B"])
    d4 = {label: c.kac for label, c in solve_traces("AutD4").items()}
    assert adjoint_trace(d4["6A"], 2) == 7 == adjoint_trace(d4["3A"])
    assert adjoint_trace(d4["6A"], 3) == -4 == adjoint_trace(d4["2A"])


def test_twisted_node_in_a_levi_subgroup_is_dropped():
    e6 = root_system("E6")
    kac = single_node(e6, 4, 2)  # the short end of F4, mark 2
    label, deficit = torsion_centralizer(kac)
    assert (kac.order, str(label), deficit) == (4, "A1*B3", 0)
    assert fixes_a_vector(kac)
    assert all(str(c.centralizer) != "A1*B3" for c in enumerate_irreducible_elements(e6, 2))
    for group, twist in TWISTS:
        for cls in enumerate_irreducible_elements(root_system(group), twist):
            assert not fixes_a_vector(cls.kac), cls.kac


def test_enumeration_classifies_each_candidate_once(monkeypatch):
    """The Levi test reuses the centralizer's components instead of classifying again."""
    calls = []

    def counted(rs, nodes):
        calls.append((rs.label(), tuple(nodes)))
        return classify_subdiagram(rs, nodes)

    for module in (torsion, embed):
        monkeypatch.setattr(module, "classify_subdiagram", counted)
    for group in ADJOINT_DIMENSION:
        calls.clear()
        solve_traces.__wrapped__(group)  # uncached, so every candidate is classified
        assert calls and set(Counter(calls).values()) == {1}, group
