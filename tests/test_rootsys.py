import os
from itertools import combinations

import pytest

from lca.rootsys import (
    ProductRootSystem,
    SemisimpleTypeLabel,
    SimpleType,
    cartan_matrix,
    classify_subdiagram,
    fold,
    root_system,
    symmetrizer,
)
from lca.tabver import CharConstraint, _read_table

from helpers import ALL_TYPES, reflection_closure_count

CLOSED_FORM_COUNTS = {
    "A1": 2,
    "A4": 20,
    "B2": 8,
    "B5": 50,
    "C3": 18,
    "D4": 24,
    "D8": 112,
    "E6": 72,
    "E7": 126,
    "E8": 240,
    "F4": 48,
    "G2": 12,
}


@pytest.mark.parametrize("name,count", sorted(CLOSED_FORM_COUNTS.items()))
def test_root_counts(name, count):
    rs = root_system(name)
    assert len(rs.all_roots) == count
    assert reflection_closure_count(rs) == count
    assert len(rs.all_roots) + rs.rank == rs.type.adjoint_dimension


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_COUNTS))
def test_roots_closed_under_negation_and_reflection(name):
    rs = root_system(name)
    root_weights = {rs.root_to_weight(b) for b in rs.all_roots}
    for alpha in rs.all_roots:
        assert tuple(-x for x in alpha) in rs.all_roots
        fund = rs.root_to_weight(alpha)
        for i in range(rs.rank):
            assert rs.reflect(fund, i) in root_weights


@pytest.mark.parametrize(
    "name,expected", [("B3", (2, 2, 1)), ("C3", (1, 1, 2)), ("F4", (2, 2, 1, 1)), ("G2", (1, 3))]
)
def test_symmetrizer_is_half_the_root_norms(name, expected):
    rs = root_system(name)
    d = symmetrizer(rs.cartan)
    assert d == expected and all(type(x) is int for x in d)
    simple = [tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)]
    assert tuple(rs.root_norm(a) for a in simple) == tuple(2 * x for x in expected)


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8"])
def test_coroot_pairings_of_extended_nodes_are_ints(name):
    rs = root_system(name)
    nodes = [c for _, c in rs.extended_nodes()]
    for a in nodes:
        for b in nodes:
            value = rs.pairing_with_coroot(rs.root_to_weight(a), b)
            assert type(value) is int
            assert value == 2 if a == b else value in (0, -1, -2, -3)


def test_coroot_pairing_rejects_a_non_root():
    with pytest.raises(ValueError):
        root_system("B2").pairing_with_coroot((1, 0), (2, 1))


def test_two_rho_check_is_twice_the_height():
    """<w, 2 rho-check> = 2 height(w) on every type of rank at most 8.

    Those types include every type the chains and the torsion enumeration
    build, since every group there has rank at most 8.  It is checked on the
    positive roots, whose height is the sum of their coordinates; they span
    the weight space, so the linear form is determined by them.
    """
    from lca.embed import _CHAINS, named_chain
    from lca.linalg import dot
    from lca.torsion import enumerate_irreducible_elements

    built = {str(f.type) for key in _CHAINS for f in named_chain(*key).source.factors}
    for group in {g for g, _ in _CHAINS}:
        built |= {
            str(st)
            for cls in enumerate_irreducible_elements(root_system(group))
            for st, _ in cls.centralizer.factors
        }
    assert built <= set(ALL_TYPES)
    for name in ALL_TYPES:
        rs = root_system(name)
        assert all(type(x) is int for x in rs.two_rho_check)
        for alpha in rs.positive_roots:
            pairing = dot(rs.two_rho_check, rs.root_to_weight(alpha))
            assert pairing == 2 * sum(alpha), (name, alpha)


def test_inadmissible_types_rejected():
    for bad in [("E", 9), ("F", 5), ("G", 3), ("D", 2), ("A", 0)]:
        with pytest.raises(ValueError):
            SimpleType(*bad)
    with pytest.raises(ValueError):
        SimpleType.parse("H4")


def test_highest_root_marks():
    assert root_system("A1").marks == (1,)
    assert max(root_system("E8").marks) == 6
    for name in ("E7", "E6", "F4", "G2"):
        assert max(root_system(name).marks) <= 4
    for n in range(1, 9):
        assert set(root_system(f"A{n}").marks) == {1}


def test_highest_root_dominant_and_unique():
    for name in ("E8", "F4", "G2", "D5", "B3", "C4"):
        rs = root_system(name)
        fund = rs.root_to_weight(rs.highest_root)
        assert rs.is_dominant(fund)
        assert all(m >= 1 for m in rs.marks)
        by_height = sorted(rs.positive_roots, key=sum)
        assert by_height[-1] == rs.highest_root
        assert sum(by_height[-2]) < sum(rs.highest_root)


def test_weyl_orbit_examples():
    e8 = root_system("E8")
    zero = (0,) * 8
    assert e8.weyl_orbit(zero) == frozenset({zero})
    orbit = e8.weyl_orbit(e8.root_to_weight(e8.highest_root))
    assert len(orbit) == 240
    assert orbit == frozenset(e8.root_to_weight(a) for a in e8.all_roots)
    a2 = root_system("A2")
    assert len(a2.weyl_orbit((1, 0))) == 3


@pytest.mark.parametrize(
    "name,order,expected",
    [
        ("A5", 2, "C3"),
        ("A4", 2, "B2"),
        ("A2", 2, "B1"),
        ("D4", 3, "G2"),
        ("D6", 2, "B5"),
        ("E6", 2, "F4"),
    ],
)
def test_fold(name, order, expected):
    assert str(fold(root_system(name), order)) == expected


def test_fold_rejects_missing_automorphism():
    for name, order in [("B3", 2), ("A1", 2), ("E7", 2), ("D5", 3), ("G2", 2)]:
        with pytest.raises(ValueError):
            fold(root_system(name), order)


FOLDING_FIELDS = (
    ("family", str),
    ("order", int),
    ("result", str),
    ("p_constraint", CharConstraint.parse),
)


def test_fold_matches_folding_table():
    path = os.path.join(os.path.dirname(__file__), "data", "table_foldings.txt")
    # the first row listed per (family, order) is the generic one
    generic = {}
    for _, (family, order, result, _constraint) in _read_table(path, FOLDING_FIELDS):
        generic.setdefault((family, order), result)
    for n in range(2, 9):
        assert str(fold(root_system(f"A{n}"), 2)) == generic[
            ("A{2n}" if n % 2 == 0 else "A{2n-1}", 2)
        ].replace("{n}", str((n + 1) // 2))
    for n in range(3, 9):
        assert str(fold(root_system(f"D{n}"), 2)) == generic[("D{n}", 2)].replace(
            "{n-1}", str(n - 1)
        )
    assert str(fold(root_system("D4"), 3)) == generic[("D4", 3)]
    assert str(fold(root_system("E6"), 2)) == generic[("E6", 2)]


def test_semisimple_label_arithmetic():
    label = SemisimpleTypeLabel.parse("~A1^2*B1^2*B2")
    assert label.dimension == 3 + 3 + 3 + 3 + 10
    assert label.rank == 6
    assert str(label.plain()) == "A1^2*B1^2*B2"
    assert label.same_type(SemisimpleTypeLabel.parse("B1*A1*B1*~A1*B2"))
    assert SemisimpleTypeLabel.parse("B1").dimension == SemisimpleTypeLabel.parse("A1").dimension
    assert SemisimpleTypeLabel.parse("A1*E7").dimension == 136
    assert str(SemisimpleTypeLabel.parse("A1*A1*A1")) == "A1^3"


def test_empty_label_prints_and_parses_as_1():
    empty = SemisimpleTypeLabel.of()
    assert str(empty) == "1"
    assert SemisimpleTypeLabel.parse("1") == empty
    assert (empty.dimension, empty.rank) == (0, 0)


def test_classify_subdiagram_on_extended_deletions():
    expected = {
        ("E8", 1): "D8",
        ("E8", 5): "A4^2",
        ("E7", 4): "A1*A3^2",
        ("F4", 1): "A1*C3",
        ("F4", 3): "A1*A3",
        ("G2", 1): "A2",
    }
    for (name, node), label in expected.items():
        rs = root_system(name)
        nodes = [nk for nk in rs.extended_nodes() if nk[0] != node]
        comps = classify_subdiagram(rs, nodes)
        assert str(SemisimpleTypeLabel.of(*[t for t, _ in comps])) == label

    # node orders: the D8 fork comes in descending key order
    e8 = root_system("E8")
    assert classify_subdiagram(e8, [nk for nk in e8.extended_nodes() if nk[0] != 1]) == [
        (SimpleType("D", 8), (0, 8, 7, 6, 5, 4, 3, 2))
    ]
    assert classify_subdiagram(e8, [nk for nk in e8.extended_nodes() if nk[0] != 7]) == [
        (SimpleType("A", 2), (0, 8)),
        (SimpleType("E", 6), (1, 2, 3, 4, 5, 6)),
    ]

    # every 1-3 node deletion: the components partition the remaining keys,
    # and the pairings in the returned order are the Cartan matrix
    for name in ("E8", "E7", "E6", "F4", "G2", "D8", "B4", "C4"):
        rs = root_system(name)
        extended = rs.extended_nodes()
        for size in (1, 2, 3):
            for removed in combinations(range(rs.rank + 1), size):
                nodes = [(k, c) for k, c in extended if k not in removed]
                coords = dict(nodes)
                comps = classify_subdiagram(rs, nodes)
                returned = [k for _, keys in comps for k in keys]
                assert sorted(returned) == sorted(coords), (name, removed)
                for st, keys in comps:
                    pairings = tuple(
                        tuple(
                            rs.pairing_with_coroot(rs.root_to_weight(coords[a]), coords[b])
                            for b in keys
                        )
                        for a in keys
                    )
                    assert pairings == cartan_matrix(st), (name, removed, st, keys)


def test_classify_subdiagram_rejects_a_whole_extended_diagram():
    for name in ALL_TYPES:
        rs = root_system(name)
        with pytest.raises(ValueError, match="unrecognized diagram"):
            classify_subdiagram(rs, rs.extended_nodes())


def test_product_root_system():
    prod = ProductRootSystem([root_system("B2"), root_system("B2")])
    assert prod.rank == 4
    assert len(prod.positive_coroots) == 8
    orbit = prod.weyl_orbit((1, 0, 1, 0))
    assert len(orbit) == 16
    assert prod.label() == "B2*B2"


def test_root_system_shared_instance():
    assert root_system("E8") is root_system("E8")


def test_adjoint_dimension_consistent_with_weyl_formula():
    from lca.repth import weyl_dimension

    for name in ("E8", "E6", "F4", "G2", "B4", "D5", "A3", "C3"):
        rs = root_system(name)
        adjoint_weight = rs.root_to_weight(rs.highest_root)
        assert len(rs.all_roots) + rs.rank == weyl_dimension(rs, adjoint_weight)


def test_fractions_only_where_a_division_happens():
    """Only fixdim (the trace average) and rootsys.symmetrizer use ``fractions``."""
    import ast

    import lca

    package = os.path.dirname(lca.__file__)
    users = {}
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name for a in node.names if a.name == "fractions"}
            elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
                bound |= {a.asname or a.name for a in node.names}
        if bound:
            users[name] = {
                getattr(top, "name", "<module>")
                for top in tree.body
                if not isinstance(top, (ast.Import, ast.ImportFrom))
                and any(isinstance(n, ast.Name) and n.id in bound for n in ast.walk(top))
            }
    assert set(users) == {"fixdim.py", "rootsys.py"}
    assert users["rootsys.py"] == {"symmetrizer"}
