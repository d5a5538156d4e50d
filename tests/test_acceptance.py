"""Acceptance gate: one test per criterion, each printing a PASS line.

Everything is exact integer/rational arithmetic; there are no tolerances
anywhere, only equalities.
"""

import time

from lca.cli import run as cli_run
from lca.embed import named_chain
from lca.fixdim import ADJOINT_DIMENSION, ClassFusion, base_trace_table, fixed_point_dimension
from lca.repth import (
    adjoint_character,
    factor_dimensions,
    has_trivial_factor,
    restrict,
    semisimplify,
)
from lca.rootsys import root_system
from lca.spin2 import identify_2group, so_centralizer_type
from lca.tabver import load_tables, run_full_audit
from lca.torsion import enumerate_irreducible_elements

from helpers import strip_flags
from test_spin2 import GOLDEN


def _ok(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_root_systems():
    started = time.time()
    counts = {"E6": 72, "E7": 126, "E8": 240, "F4": 48, "G2": 12}
    for name, expected in counts.items():
        assert len(root_system(name).all_roots) == expected
    assert max(root_system("E8").marks) == 6
    for name in ("E7", "E6", "F4", "G2"):
        assert max(root_system(name).marks) <= 4
    elapsed = time.time() - started
    assert elapsed < 1.0
    _ok(1, f"root counts 72/126/240/48/12, max marks 6 and <=4, in {elapsed:.3f}s")


def test_criterion_2_torsion_enumeration():
    expected = {
        "E8": {
            "2A": "A1*E7", "2B": "D8", "3A": "A8", "3B": "A2*E6",
            "4A": "A1*A7", "4B": "A3*D5", "5A": "A4^2", "6A": "A1*A2*A5",
        },
        "E7": {"2A": "A1*D6", "2B": "A7", "3A": "A2*A5", "4A": "A1*A3^2"},
        "E6": {"2A": "A1*A5", "3A": "A2^3"},
        "F4": {"2A": "B4", "2B": "A1*C3", "3A": "A2^2", "4A": "A1*A3"},
        "G2": {"2A": "A1^2", "3A": "A2"},
    }
    total = 0
    for group, table in expected.items():
        classes = enumerate_irreducible_elements(root_system(group))
        assert {c.name: str(c.centralizer) for c in classes} == table
        total += len(classes)
    assert total == 20
    _ok(2, "20 torsion classes (8+4+2+4+2) with the stated centralizer types")


def test_criterion_3_traces():
    kac_stated = {
        ("E8", "2B"): -8, ("E8", "3A"): -4, ("E8", "5A"): -2, ("E8", "3B"): 5,
        ("E6", "3A"): -3,
    }
    traces = base_trace_table()
    for (group, label), value in kac_stated.items():
        assert traces.get(group, label) == value

    # the rest of the computed table: inner classes from extended diagrams,
    # the outer classes of AutE6 and AutD4 from the twisted ones
    expected = {
        "E8": {"2A": 24, "4A": -4, "4B": 0, "6A": -3},
        "E7": {"2A": 5, "2B": -7, "3A": -2, "4A": -3},
        "F4": {"2A": 20, "2B": -4, "3A": -2, "4A": 0},
        "G2": {"2A": -2, "3A": 5},
        "AutE6": {"2B": 26, "2C": -6, "4A": -2, "6A": -1},
        "AutD4": {"2A": -4, "2B": 14, "2C": -2, "3A": 7, "3B": -2, "6A": -1},
    }
    tables = load_tables()
    cyclic_names = {str(k) for k in range(1, 200)}
    rows_by_group = {}
    for row in tables.subgroup_rows():
        if row.fusion is not None:
            rows_by_group.setdefault(row.group, []).append(row)
    for group, labels in expected.items():
        for label, value in labels.items():
            assert traces.get(group, label) == value, (group, label)
            # cross-check on an independent non-cyclic row; the one class with
            # no non-cyclic occurrence (AutE6 4A) is checked on its second,
            # independent cyclic record instead, and AutD4 6A, whose one row
            # is cyclic, on that row
            witnesses = [
                row
                for row in rows_by_group[group]
                if not row.expected_flagged
                and label in row.fusion.labels()
                and (row.f_name not in cyclic_names or (group, label) in CYCLIC_ONLY)
            ]
            consistent = [
                row
                for row in witnesses
                if fixed_point_dimension(
                    ADJOINT_DIMENSION[group], row.fusion, traces, group
                )
                == row.centralizer.dimension
            ]
            assert len(consistent) >= CYCLIC_ONLY.get((group, label), 1), (group, label)
    _ok(3, "all stated traces reproduced; computed values consistent on independent rows")


# classes that occur in cyclic rows only -> how many rows must confirm them
CYCLIC_ONLY = {("AutE6", "4A"): 2, ("AutD4", "6A"): 1}


def test_criterion_4_fixed_dimension_spot_checks():
    traces = base_trace_table()
    values = [
        fixed_point_dimension(248, ClassFusion.parse("2B^15,3A^20,5A^24"), traces, "E8"),
        fixed_point_dimension(248, ClassFusion.parse("2B^15,3B^20,5A^24"), traces, "E8"),
        fixed_point_dimension(248, ClassFusion.parse("3B^26"), traces, "E8"),
        fixed_point_dimension(78, ClassFusion.parse("3A^8"), traces, "E6"),
    ]
    assert values == [0, 3, 14, 6]
    _ok(4, "fixed-dimension spot checks give 0, 3, 14, 6 exactly")


def test_criterion_5_branching_goldens():
    adj = adjoint_character(root_system("E8"))

    emb = named_chain("E8", "d8")
    factors = factor_dimensions(emb.source, semisimplify(restrict(adj, emb)))
    assert sorted((mu, d) for mu, _, d in factors) == [
        ((0, 0, 0, 0, 0, 0, 1, 0), 128),
        ((0, 1, 0, 0, 0, 0, 0, 0), 120),
    ]

    emb = named_chain("E8", "a1a7")
    factors = factor_dimensions(emb.source, semisimplify(restrict(adj, emb)))
    assert sorted(d for _, _, d in factors) == [3, 56, 56, 63, 70]
    assert sum(d for _, _, d in factors) == 248

    emb = named_chain("E8", "b2^3")
    restricted = restrict(adj, emb)
    assert restricted.dimension == 248
    assert not has_trivial_factor(restricted)
    _ok(5, "L(E8) branchings: D8 = [l2, l7] (120+128); A1A7 = 3+56+56+63+70; B2^3 trivial-free")


def test_criterion_6_spin_calculus():
    expected_pairs = {
        ("Dih8", "B1^2*B4"), ("Q8", "B1^3*B3"), ("Dih8", "B1^2*B2^2"),
        ("Dih8", "B1*B2*B3"), ("Q8", "B2^3"), ("4x2", "A1^2*A3^2"),
        ("4oDih8", "A3*B1^3"), ("2^{1+4}-", "B1^5"), ("Dih8x2", "A1^2*B1^2*B2"),
        ("Q8x2", "A1^2*B1^4"), ("Dih8", "B1^2*B2"), ("Q8", "B1^4"),
        ("Q8", "B1^3"), ("Dih8", "B1*B2"),
    }
    seen = set()
    for vectors, group, centralizer in GOLDEN:
        assert str(identify_2group(vectors)) == group
        result = so_centralizer_type(vectors)
        assert str(result.label) == centralizer
        seen.add((group, centralizer))
    assert expected_pairs <= seen
    assert len(GOLDEN) >= 15
    _ok(6, f"{len(GOLDEN)} named 2-group cases reproduce the stated types and centralizers")


def test_criterion_7_full_audit(capsys):
    tables = load_tables()
    report = run_full_audit(tables)
    assert report.ok
    flagged = sorted((e.table, e.row) for e in report.by_status("flagged"))
    assert flagged == [
        ("aute6", "AutE6 Dih6 -> A1^2"),
        ("e6", "E6 Dih6 -> A1^2"),
        ("e8", "E8 Sym4x2 -> ~A1*A1^2"),
    ]
    assert not report.by_status("fail")

    stripped = run_full_audit(strip_flags(tables))
    assert not stripped.ok
    failing = sorted((e.table, e.row) for e in stripped.by_status("fail"))
    assert failing == flagged

    # the CLI encodes the same semantics in its exit status
    assert cli_run(["verify", "--all"]) == 0
    capsys.readouterr()
    _ok(7, "audit passes all rows except exactly the three flagged discrepancies,"
            " which fail once flags are stripped")


def test_criterion_8_property_suites():
    # each suite body runs once per session; pytest's own call of the same
    # test replays the outcome (test_properties.once_per_session)
    import test_properties as props

    props.test_weyl_dimension_equals_multiplicity_sum_sweep()
    props.test_restriction_preserves_dimension_randomized()
    props.test_eigen_partition_monotone_seeded()
    props.test_fixed_point_dimension_integral_on_all_rows()
    _ok(8, "property suites: multiplicity sums, 1000 restrictions, partition"
            " refinement, row integrality")
