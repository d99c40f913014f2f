import pytest
from hypothesis import given
from hypothesis import strategies as st

from cipherorder.perms import (
    Permutation,
    compose,
    cycle,
    from_cycles,
    identity,
    transposition,
)

perms4 = st.permutations(list(range(4))).map(lambda w: Permutation(tuple(w)))


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))
    with pytest.raises(ValueError):
        Permutation(())


def test_identity_law():
    g = Permutation((2, 0, 1))
    assert compose(identity(3), g) == g
    assert compose(g, identity(3)) == g


def test_inverse_law():
    g = Permutation((2, 0, 1))
    assert compose(g, g.inverse()) == identity(3)
    assert compose(g.inverse(), g) == identity(3)


def test_compose_right_factor_acts_first():
    # (0 1) after (1 2): trace 0 ->(1 2) 0 ->(0 1) 1, 1 -> 2 -> 2, 2 -> 1 -> 0
    a = transposition(3, 0, 1)
    b = transposition(3, 1, 2)
    assert compose(a, b) == Permutation((1, 2, 0))
    assert compose(b, a) == Permutation((2, 0, 1))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_inverse_of_transposition_is_itself():
    t = transposition(3, 0, 1)
    assert t.inverse() == t
    assert identity(3).inverse() == identity(3)


def test_inverse_of_three_cycle():
    fwd = cycle(3, (0, 1, 2))  # 0->1->2->0
    back = cycle(3, (0, 2, 1))  # 0->2->1->0
    assert fwd.inverse() == back


def test_apply_points_and_tuples():
    assert identity(3).apply((0, 2)) == (0, 2)
    assert transposition(3, 0, 1).apply(0) == 1
    assert cycle(3, (0, 1, 2)).apply((0, 1)) == (1, 2)


def test_apply_out_of_range():
    with pytest.raises(ValueError):
        identity(3).apply(3)
    with pytest.raises(ValueError):
        identity(3).apply((0, 5))


def test_from_cycles_rightmost_first():
    assert from_cycles(3, [(0, 1), (1, 2)]) == compose(
        transposition(3, 0, 1), transposition(3, 1, 2)
    )


@given(perms4, perms4, perms4)
def test_composition_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(perms4)
def test_inverse_round_trip(g):
    assert compose(g, g.inverse()) == identity(4)
    assert g.inverse().inverse() == g


@given(perms4, perms4)
def test_apply_respects_composition(a, b):
    for p in range(4):
        assert compose(a, b).apply(p) == a.apply(b.apply(p))


@given(perms4)
def test_distinct_points_stay_distinct(g):
    image = g.apply((0, 1, 2, 3))
    assert len(set(image)) == 4
