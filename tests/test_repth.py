from functools import cache, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lca.embed import (
    _CHAINS,
    extended_deletion,
    identity_embedding,
    named_chain,
    refine_factor,
    so_sum_embedding,
)
from lca.repth import (
    Character,
    Embedding,
    adjoint_character,
    dominant_character,
    factor_dimensions,
    has_trivial_factor,
    restrict,
    semisimplify,
    weyl_dimension,
)
from lca.rootsys import ProductRootSystem, root_system

from helpers import is_weyl_stable, kostant_multiplicity, levi_embedding

E8_ADJOINT = (0, 0, 0, 0, 0, 0, 0, 1)


def test_weyl_dimension_examples():
    assert weyl_dimension(root_system("E8"), (0,) * 8) == 1
    assert weyl_dimension(root_system("E8"), E8_ADJOINT) == 248
    assert weyl_dimension(root_system("E6"), (0, 1, 0, 0, 0, 0)) == 78
    d8 = root_system("D8")
    assert weyl_dimension(d8, (0, 1, 0, 0, 0, 0, 0, 0)) == 120
    assert weyl_dimension(d8, (0, 0, 0, 0, 0, 0, 1, 0)) == 128
    assert 120 + 128 == 248


def test_weyl_dimension_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dimension(root_system("A2"), (1, -1))


def test_dominant_character_highest_weight_multiplicity():
    for name, lam in [("A2", (1, 1)), ("B2", (0, 1)), ("G2", (1, 0))]:
        char = dominant_character(root_system(name), lam)
        assert dict(char.entries)[lam] == 1


def test_dominant_character_against_kostant_oracle():
    cases = [
        ("A2", (1, 1)),  # adjoint: zero weight twice
        ("A2", (2, 1)),
        ("B2", (0, 1)),  # spin: four weights, each once
        ("B2", (1, 1)),
        ("G2", (0, 1)),
        ("A1", (6,)),
    ]
    for name, lam in cases:
        rs = root_system(name)
        char = dominant_character(rs, lam)
        assert char.dimension == weyl_dimension(rs, lam)
        for mu, mult in char.entries:
            assert mult == kostant_multiplicity(rs, lam, mu), (name, lam, mu)


def test_a2_adjoint_zero_weight():
    char = dominant_character(root_system("A2"), (1, 1))
    assert dict(char.entries)[(0, 0)] == 2


def test_b2_spin_character():
    char = dominant_character(root_system("B2"), (0, 1))
    assert char.dimension == 4
    assert set(dict(char.entries).values()) == {1}


def test_character_weyl_stability():
    char = dominant_character(root_system("G2"), (1, 0))
    assert is_weyl_stable(char)


def test_restrict_zero_character():
    emb = named_chain("E8", "d8")
    zero = Character.from_dict(root_system("E8"), {(0,) * 8: 1})
    restricted = restrict(zero, emb)
    assert restricted.entries == (((0,) * 8, 1),)


def test_restrict_b5_spin_to_d5():
    b5 = root_system("B5")
    emb = extended_deletion(b5, {5})
    assert emb.source.label() == "D5"
    spin = dominant_character(b5, (0, 0, 0, 0, 1))
    factors = semisimplify(restrict(spin, emb))
    dims = sorted(weyl_dimension(emb.source, mu) for mu, _ in factors)
    assert dims == [16, 16]
    highest = sorted(mu for mu, _ in factors)
    assert highest == [(0, 0, 0, 0, 1), (0, 0, 0, 1, 0)]


def test_restrict_wrong_ambient_rejected():
    emb = named_chain("E8", "d8")
    char = dominant_character(root_system("E7"), (1,) + (0,) * 6)
    with pytest.raises(ValueError):
        restrict(char, emb)


def test_semisimplify_golden_e8_d8():
    adj = adjoint_character(root_system("E8"))
    emb = named_chain("E8", "d8")
    factors = semisimplify(restrict(adj, emb))
    assert sorted(factors) == [
        ((0, 0, 0, 0, 0, 0, 1, 0), 1),  # half-spin, 128
        ((0, 1, 0, 0, 0, 0, 0, 0), 1),  # exterior square, 120
    ]
    dims = {mu: d for mu, _, d in factor_dimensions(emb.source, factors)}
    assert dims[(0, 1, 0, 0, 0, 0, 0, 0)] == 120
    assert dims[(0, 0, 0, 0, 0, 0, 1, 0)] == 128


def test_semisimplify_golden_e8_a1a7():
    adj = adjoint_character(root_system("E8"))
    emb = named_chain("E8", "a1a7")
    assert emb.source.label() == "A1*A7"
    factors = factor_dimensions(emb.source, semisimplify(restrict(adj, emb)))
    table = sorted((mu, d) for mu, _, d in factors)
    assert table == [
        ((0, 0, 0, 0, 1, 0, 0, 0), 70),  # 0 (x) l4
        ((0, 1, 0, 0, 0, 0, 0, 1), 63),  # 0 (x) l1+l7
        ((1, 0, 0, 0, 0, 0, 1, 0), 56),  # 1 (x) l6
        ((1, 0, 1, 0, 0, 0, 0, 0), 56),  # 1 (x) l2
        ((2, 0, 0, 0, 0, 0, 0, 0), 3),  # 2 (x) 0
    ]
    assert sum(d for _, d in table) == 248


def test_semisimplify_irreducible_is_fixed_point():
    rs = root_system("F4")
    char = dominant_character(rs, (0, 0, 0, 1))
    assert semisimplify(char) == (((0, 0, 0, 1), 1),)


def test_semisimplify_rejects_non_character():
    rs = root_system("A2")
    fake = Character.from_dict(rs, {(1, 0): 1})  # bare weight, not Weyl-stable
    with pytest.raises(ValueError):
        semisimplify(fake)


SMALL_AMBIENTS = {
    "A2": root_system("A2"),
    "B2": root_system("B2"),
    "G2": root_system("G2"),
    "A1*B2": ProductRootSystem([root_system("A1"), root_system("B2")]),
}


def _sum_of_irreducibles(ambient, summands):
    weights: dict = {}
    for lam, mult in summands:
        for w, m in dominant_character(ambient, lam).entries:
            weights[w] = weights.get(w, 0) + mult * m
    return Character.from_dict(ambient, weights)


@st.composite
def _ambient_and_summands(draw):
    name = draw(st.sampled_from(sorted(SMALL_AMBIENTS)))
    rank = SMALL_AMBIENTS[name].rank
    weight = st.tuples(*[st.integers(0, 2)] * rank)
    summands = draw(st.lists(st.tuples(weight, st.integers(1, 3)), min_size=1, max_size=4))
    return name, summands


@settings(max_examples=60, deadline=None)
@given(_ambient_and_summands())
def test_semisimplify_recovers_any_sum_of_irreducibles(case):
    name, summands = case
    ambient = SMALL_AMBIENTS[name]
    expected: dict = {}
    for lam, mult in summands:
        expected[lam] = expected.get(lam, 0) + mult
    factors = semisimplify(_sum_of_irreducibles(ambient, summands))
    assert sorted(factors) == sorted(expected.items())
    keys = [sum(k * x for k, x in zip(ambient.two_rho_check, mu)) for mu, _ in factors]
    assert keys == sorted(keys, reverse=True)


@pytest.mark.parametrize("name", sorted(SMALL_AMBIENTS))
def test_semisimplify_rejects_tampered_characters(name):
    ambient = SMALL_AMBIENTS[name]
    top = (1,) * ambient.rank
    char = _sum_of_irreducibles(ambient, [(top, 1), ((0,) * ambient.rank, 2)])
    assert semisimplify(char) == ((top, 1), ((0,) * ambient.rank, 2))
    table = dict(char.entries)
    outer = [w for w in table if not ambient.is_dominant(w)]
    assert outer
    unstable = "is not Weyl-stable"
    for w in outer:
        dropped = {v: m for v, m in table.items() if v != w}
        with pytest.raises(ValueError, match=unstable):
            semisimplify(Character.from_dict(ambient, dropped))
        raised = table | {w: table[w] + 1}
        with pytest.raises(ValueError, match=unstable):
            semisimplify(Character.from_dict(ambient, raised))
        with pytest.raises(ValueError, match=unstable):
            semisimplify(Character.from_dict(ambient, {w: 1}))
        # one unit moved to another non-dominant weight: the dimension holds
        other = next(v for v in outer if v != w)
        moved = table | {w: table[w] + 1, other: table[other] - 1}
        with pytest.raises(ValueError, match=unstable):
            semisimplify(Character.from_dict(ambient, moved))
    # every coordinate negative: a check of positive coordinates alone would pass it
    with pytest.raises(ValueError, match=unstable):
        semisimplify(Character.from_dict(ambient, {tuple(-x for x in top): 1}))


def test_b2_cubed_chain_has_no_trivial_factor():
    adj = adjoint_character(root_system("E8"))
    emb = named_chain("E8", "b2^3")
    assert emb.source.label() == "B2*B2*B2"
    restricted = restrict(adj, emb)
    assert restricted.dimension == 248
    assert not has_trivial_factor(restricted)
    factors = factor_dimensions(emb.source, semisimplify(restricted))
    spin_cube = [(mu, m, d) for mu, m, d in factors if d == 64]
    assert spin_cube == [((0, 1, 0, 1, 0, 1), 2, 64)]


def test_levi_restriction_has_trivial_factor():
    rs = root_system("A2")
    emb = levi_embedding(rs, {1})
    restricted = restrict(adjoint_character(rs), emb)
    assert has_trivial_factor(restricted)


def test_maximal_rank_embedding_invertible():
    """The D8 weight map has full rank, by exact elimination over the rationals."""
    from fractions import Fraction

    emb = named_chain("E8", "d8")
    assert len(emb.matrix) == 8 and all(len(row) == 8 for row in emb.matrix)
    work = [list(map(Fraction, row)) for row in emb.matrix]
    for col in range(len(work)):
        pivot = next((r for r in range(col, len(work)) if work[r][col]), None)
        assert pivot is not None, f"column {col} has no pivot"
        work[col], work[pivot] = work[pivot], work[col]
        for r in range(col + 1, len(work)):
            factor = work[r][col] / work[col][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]


def test_adjoint_restriction_dimension_invariance_maximal_rank():
    for group, chain in [("E8", "a2e6"), ("E7", "a2a5"), ("F4", "a2a2"), ("G2", "a1a1")]:
        adj = adjoint_character(root_system(group))
        restricted = restrict(adj, named_chain(group, chain))
        assert restricted.dimension == adj.dimension


def test_half_integral_orthogonal_restriction_refused():
    from lca.embed import orthogonal_module_embedding

    d4 = root_system("D4")
    # one plane of A1-weight 1 gives the half-spin nodes the weight 1/2
    with pytest.raises(ValueError, match="non-integral entry"):
        orthogonal_module_embedding(d4, "A1", [(1,), (0,), (0,), (0,)])
    emb = orthogonal_module_embedding(d4, "A1", [(2,), (0,), (0,), (0,)])
    assert emb.matrix == ((2, 2, 1, 1),)


def test_so_sum_embedding_rejects_bad_blocks():
    with pytest.raises(ValueError):
        so_sum_embedding(root_system("D8"), [5, 5])
    with pytest.raises(ValueError):
        so_sum_embedding(root_system("D8"), [2, 14])
    with pytest.raises(ValueError):
        so_sum_embedding(root_system("A7"), [3, 5])


def test_maximal_rank_restriction_contains_subsystem_adjoint():
    # adjoint of G restricted to a maximal-rank subsystem = subsystem adjoint
    # plus coset pieces; each factor's highest root must appear exactly once
    for group, chain in [("E8", "d8"), ("E8", "a4^2"), ("E7", "a1d6"), ("F4", "a1c3")]:
        emb = named_chain(group, chain)
        adj = adjoint_character(root_system(group))
        factors = dict(semisimplify(restrict(adj, emb)))
        offset = 0
        for factor in emb.source.factors:
            top = factor.root_to_weight(factor.highest_root)
            padded = [0] * emb.source.rank
            padded[offset : offset + factor.rank] = top
            assert factors.get(tuple(padded)) == 1, (group, chain, factor.label())
            offset += factor.rank


def test_restricted_characters_are_weyl_stable():
    for group, chain in [("E8", "b2^3"), ("F4", "b1^3"), ("E7", "b1a3"), ("G2", "b1")]:
        emb = named_chain(group, chain)
        restricted = restrict(adjoint_character(root_system(group)), emb)
        assert is_weyl_stable(restricted), (group, chain)


@cache
def _chain_steps(key):
    """The embedding each step of a registered chain composes, from its group inward."""
    emb = identity_embedding(root_system(key[0]))
    steps = []
    for step in _CHAINS[key]:
        if isinstance(step[0], int):
            index, make, *args = step
            # the identity on every factor but ``index``, where the step's own embedding acts
            inner = make(emb.source.factors[index], *args)
            step = refine_factor(identity_embedding(emb.source), index, inner)
        else:
            make, *args = step
            step = make(emb.source, *args)
        steps.append(step)
        emb = emb.then(step)
    assert emb.matrix == named_chain(*key).matrix
    return steps


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(sorted(k for k, steps in _CHAINS.items() if len(steps) > 1)), data=st.data())
def test_restricting_in_two_steps_equals_restricting_along_their_composite(key, data):
    """restrict(restrict(c, a), b) == restrict(c, a.then(b)), with a and b runs of
    consecutive chain steps and c the adjoint character restricted to a's target."""
    steps = _chain_steps(key)
    cuts = st.lists(st.integers(0, len(steps)), min_size=3, max_size=3, unique=True)
    i, j, k = sorted(data.draw(cuts))
    char = reduce(restrict, steps[:i], adjoint_character(root_system(key[0])))
    a, b = reduce(Embedding.then, steps[i:j]), reduce(Embedding.then, steps[j:k])
    assert restrict(restrict(char, a), b) == restrict(char, a.then(b))


def test_spin_module_stepwise_restrictions():
    from lca.embed import so_sum_embedding

    d8 = root_system("D8")
    emb = so_sum_embedding(d8, [5, 11])
    assert emb.source.label() == "B2*B5"
    spin = dominant_character(d8, (0, 0, 0, 0, 0, 0, 1, 0))
    factors = semisimplify(restrict(spin, emb))
    # the 128-dimensional half-spin module restricts to (spin B2) x (spin B5)
    assert factors == (((0, 1, 0, 0, 0, 0, 1), 1),)

    d5 = root_system("D5")
    emb = so_sum_embedding(d5, [5, 5])
    for half_spin in [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]:
        factors = semisimplify(restrict(dominant_character(d5, half_spin), emb))
        assert factors == (((0, 1, 0, 1), 1),)


def test_branching_golden_files(capsys):
    """``branch <G> <chain> --json`` for every registered chain, byte for byte."""
    import os
    import re

    from lca.cli import run as cli_run
    from lca.embed import _CHAINS, chain_names

    path = os.path.join(os.path.dirname(__file__), "golden", "branch_chains.txt")
    with open(path) as fh:
        sections = re.split(r"^### (\S+) (\S+)\n", fh.read(), flags=re.M)
    frozen = {
        (group, chain): out
        for group, chain, out in zip(sections[1::3], sections[2::3], sections[3::3])
    }
    assert sections[0] == "" and len(frozen) == 48
    assert set(_CHAINS) == set(frozen)
    for group in sorted({g for g, _ in frozen}):
        for chain in chain_names(group):
            assert cli_run(["branch", group, chain, "--json"]) == 0
            produced = capsys.readouterr().out
            assert produced == frozen[group, chain], f"golden drift for {group} {chain}"
