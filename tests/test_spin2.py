import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import clifford_mul_reference
from lca.spin2 import (
    SignVector,
    _clifford_mul,
    _invariants,
    _lift,
    classical_centralizer,
    eigen_partition,
    identify_2group,
    so_centralizer_type,
)

V = SignVector.parse

E = V("(-1^6,1^10)")  # the standard order-4 element in SO16

# every generating set written out in the 2-group analyses, with the named
# group and the connected centralizer it produces
GOLDEN = [
    ([E, V("(-1^3,1^3,-1,1^9)")], "Dih8", "B1^2*B4"),
    ([E, V("(-1^3,1^3,-1^3,1^7)")], "Q8", "B1^3*B3"),
    ([E, V("(-1^3,1^3,-1^5,1^5)")], "Dih8", "B1^2*B2^2"),
    ([E, V("(-1,1^5,-1^3,1^7)")], "Dih8", "B1*B2*B3"),
    ([E, V("(-1,1^5,-1^5,1^5)")], "Q8", "B2^3"),
    ([E, V("(1^6,-1^4,1^6)")], "4x2", "A1^2*A3^2"),
    ([E, V("(1^6,-1^4,1^6)"), V("(1^6,-1,1^3,-1^3,1^3)")], "4oDih8", "A3*B1^3"),
    (
        [E, V("(1^6,-1^4,1^6)"), V("(1^6,-1,1^3,-1^3,1^3)"), V("(-1^3,1^3,-1,1^9)")],
        "2^{1+4}-",
        "B1^5",
    ),
    ([E, V("(1^6,-1^4,1^6)"), V("(-1^3,1^3,1^4,-1,1^5)")], "Dih8x2", "A1^2*B1^2*B2"),
    ([E, V("(1^6,-1^4,1^6)"), V("(-1^3,1^3,1^4,-1^3,1^3)")], "Q8x2", "A1^2*B1^4"),
    ([V("(-1^8,1^8)"), V("(-1^4,1^4,1^8)")], "2^2", "A1^4*D4"),
    ([V("(-1^8,1^8)"), V("(-1^4,1^4,1^8)"), V("(1^8,-1^4,1^4)")], "2^3", "A1^8"),
    # inside SO12 (the orthogonal part of a 2A centralizer in E7)
    ([V("(-1^6,1^6)"), V("(-1,1^5,-1^3,1^3)")], "Dih8", "B1^2*B2"),
    ([V("(-1^6,1^6)"), V("(-1^3,1^3,-1^3,1^3)")], "Q8", "B1^4"),
    # inside SO9 (the orthogonal part of a 2A centralizer in F4)
    ([V("(1^3,-1^6)"), V("(-1^6,1^3)")], "Q8", "B1^3"),
    ([V("(-1^6,1^3)"), V("(1^5,-1^4)")], "Dih8", "B1*B2"),
]


@pytest.mark.parametrize("vectors,group,centralizer", GOLDEN)
def test_golden_two_group_cases(vectors, group, centralizer):
    assert str(identify_2group(vectors)) == group
    result = so_centralizer_type(vectors)
    assert str(result.label) == centralizer
    assert result.torus_blocks == 0


def test_sign_vector_parse_and_format():
    v = V("(-1^6,1^10)")
    assert v.n == 16 and v.signs.count(-1) == 6
    assert str(v) == "(-1^6,1^10)"
    assert V("(-1,-1,1)").signs == (-1, -1, 1)
    with pytest.raises(ValueError):
        V("(-1^3,1^5)")  # odd number of -1 entries
    with pytest.raises(ValueError):
        V("(-1^2,2^3)")
    with pytest.raises(ValueError):
        V("(-1^2,1^2)", n=16)


def test_eigen_partition_examples():
    part = eigen_partition([V("(-1^8,1^8)"), V("(-1^4,1^4,1^8)")])
    assert sorted(part.sizes) == [4, 4, 8]
    part = eigen_partition([], n=12)
    assert part.sizes == (12,)
    part = eigen_partition([V("(-1^6,1^10)"), V("(-1,1^5,-1^5,1^5)")])
    assert sorted(part.sizes) == [1, 5, 5, 5]
    with pytest.raises(ValueError):
        eigen_partition([V("(-1^2,1^2)"), V("(-1^2,1^4)")])


def _lift_order(v):
    """Order of the spin lift of ``v`` other than 1: 2 iff the -1-eigenspace dimension is
    divisible by 4, else 4."""
    return identify_2group([v]).order


def _lifts_commute(u, v):
    return _clifford_mul(_lift(u), _lift(v)) == _clifford_mul(_lift(v), _lift(u))


def test_spin_lift_order_rule():
    assert _lift_order(V("(-1^4,1^12)")) == 2
    assert _lift_order(V("(-1^6,1^10)")) == 4
    assert _lift_order(V("(-1^8,1^8)")) == 2
    assert _lift_order(V("(-1^2,1^2)")) == 4
    allones = V("(1^8)")
    assert _lift_order(allones) == 1 and -1 not in allones.signs  # the lift of 1 is 1


def test_lift_commute_rule():
    # spin lifts commute iff the -1 supports meet in an even number of places
    assert _lifts_commute(V("(-1^4,1^12)"), V("(1^4,-1^4,1^8)"))  # disjoint supports
    assert _lifts_commute(V("(-1^6,1^10)"), V("(1^6,-1^4,1^6)"))  # overlap 0
    assert not _lifts_commute(V("(-1^6,1^10)"), V("(-1^3,1^3,-1^3,1^7)"))  # overlap 3
    with pytest.raises(ValueError):
        identify_2group([V("(-1^2,1^2)"), V("(-1^2,1^4)")])


def test_identify_single_vectors():
    assert str(identify_2group([V("(-1^4,1^4)")])) == "2"
    assert str(identify_2group([V("(-1^2,1^6)")])) == "4"
    assert str(identify_2group([])) == "1"


def test_identify_unrecognized_reports_order():
    # Z4 x 2^2: abelian of order 16 with an order-4 element; not in the catalogue
    result = identify_2group(
        [V("(-1^2,1^14)"), V("(1^2,-1^4,1^10)"), V("(1^6,-1^4,1^6)")]
    )
    assert not result.recognized
    assert result.order == 16 and result.exponent == 4


def test_torus_block_flag():
    # a size-2 joint eigenspace is a normal torus, flagged as reducibility evidence
    result = so_centralizer_type([V("(-1^2,1^6)")])
    assert result.torus_blocks > 0
    assert str(result.label) == "A3"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=7).flatmap(
        lambda k: st.lists(
            st.lists(st.sampled_from([1, -1]), min_size=2 * k, max_size=2 * k),
            min_size=1,
            max_size=4,
        )
    )
)
def test_eigen_partition_refines_monotonically(sign_lists):
    vectors = []
    for signs in sign_lists:
        signs = list(signs)
        if signs.count(-1) % 2:
            signs[0] = -signs[0]
        vectors.append(SignVector(len(signs), tuple(signs)))
    previous = eigen_partition([], n=vectors[0].n)
    for k in range(1, len(vectors) + 1):
        current = eigen_partition(vectors[:k])
        old_blocks = [set(b) for b in previous.blocks]
        for block in current.blocks:
            assert any(set(block) <= old for old in old_blocks)
        previous = current


def test_classical_centralizer():
    assert str(classical_centralizer([4, 6], "Sp10")) == "C2*C3"
    assert str(classical_centralizer([3, 3, 9], "SO16")) == "B1^2*B4"
    assert str(classical_centralizer([5, 5, 5], "SO16")) == "B2^3"
    assert str(classical_centralizer([2, 2], "Sp4")) == "C1^2"
    with pytest.raises(ValueError):
        classical_centralizer([3, 7], "Sp10")  # odd symplectic block
    with pytest.raises(ValueError):
        classical_centralizer([3, 3], "SO16")  # leaves 10 dimensions over
    with pytest.raises(ValueError):
        classical_centralizer([2, 14], "SO16")  # torus block
    with pytest.raises(ValueError):
        classical_centralizer([4, 6], "GL10")


def test_group_order_matches_span_rank():
    rng = random.Random(77)
    for _ in range(120):
        n = rng.choice([8, 12, 16])
        vectors = []
        for _ in range(rng.randrange(1, 5)):
            signs = [rng.choice([1, -1]) for _ in range(n)]
            if signs.count(-1) % 2:
                signs[0] = -signs[0]
            vectors.append(SignVector(n, tuple(signs)))
        # GF(2) rank of the support vectors
        basis = []
        for v in vectors:
            mask = sum(1 << i for i in v.support)
            for b in basis:
                mask = min(mask, mask ^ b)
            if mask:
                basis.append(mask)
        rank = len(basis)
        group = identify_2group(vectors)
        assert group.order in (2**rank, 2 ** (rank + 1))
        # the central sign doubles the group exactly when some product of
        # generators lifts with a sign, i.e. the group is bigger than the span
        has_centre = group.order == 2 ** (rank + 1)
        if any(_lift_order(v) == 4 for v in vectors):
            assert has_centre


def test_so9_four_four_one_blocks():
    u, v = V("(-1^8,1)"), V("(-1^4,1^5)")
    part = eigen_partition([u, v])
    assert sorted(part.sizes) == [1, 4, 4]
    result = so_centralizer_type([u, v])
    assert str(result.label) == "A1^4"
    assert result.dropped == 1 and result.torus_blocks == 0
    assert str(identify_2group([u, v])) == "2^2"


def test_clifford_mul_equals_the_bit_loop():
    rng = random.Random(21)
    for _ in range(20000):
        a, b = ((rng.getrandbits(rng.randrange(81)), rng.choice((1, -1))) for _ in range(2))
        assert _clifford_mul(a, b) == clifford_mul_reference(a, b), (a, b)


def _all_pairs_invariants(gens):
    """(order, exponent, abelian, order histogram, centre size), every pair of elements tested."""
    mul = clifford_mul_reference
    elements, frontier = {(0, 1)}, [(0, 1)]
    while frontier:
        frontier = [y for x in frontier for g in gens if (y := mul(x, g)) not in elements]
        elements.update(frontier)
    orders = []
    for x in elements:
        power, order = x, 1
        while power != (0, 1):
            power, order = mul(power, x), order + 1
        orders.append(order)
    commute = {(x, y): mul(x, y) == mul(y, x) for x in elements for y in elements}
    centre = [x for x in elements if all(commute[x, y] for y in elements)]
    hist = tuple(sorted((k, orders.count(k)) for k in set(orders) if k > 1))
    return len(elements), max(orders), all(commute.values()), hist, len(centre)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=4, max_value=20).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n), max_size=5
        )
    )
)
def test_generator_invariants_equal_all_pairs(sign_lists):
    """Abelian and centre tested on the generators agree with every pair tested."""
    gens = []
    for signs in sign_lists:
        if signs.count(-1) % 2:
            signs[0] = -signs[0]
        gens.append(_lift(SignVector(len(signs), tuple(signs))))
    assert _invariants(gens) == _all_pairs_invariants(gens)


@pytest.mark.parametrize(
    "vectors, order",
    [
        # e_{0123} e_{2345} = -e_{0145}: the dependency's product puts -1 in the group
        (["(-1^4,1^4)", "(1^2,-1^4,1^2)", "(-1^2,1^2,-1^2,1^2)"], 8),
        # e_{0123} e_{4567} = +e_{01234567}: the span alone is the group
        (["(-1^4,1^4)", "(1^4,-1^4)", "(-1^8)"], 4),
    ],
)
def test_a_dependency_among_commuting_involutions_fixes_the_order(vectors, order):
    gens = [_lift(V(v)) for v in vectors]
    assert _invariants(gens) == _all_pairs_invariants(gens)
    group = identify_2group([V(v) for v in vectors])
    assert (str(group), group.order) == (f"2^{order.bit_length() - 1}", order)
