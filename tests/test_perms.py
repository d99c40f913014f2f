import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cipherorder.groups import symmetric_group
from cipherorder.perms import Permutation, transposition

from helpers import apply, compose, cycle, identity, inverse

perms4 = st.permutations(list(range(4))).map(lambda w: Permutation(tuple(w)))


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))
    with pytest.raises(ValueError):
        Permutation(())
    # images equal to a bijection's but not of type int
    with pytest.raises(TypeError, match=r"^images must be ints, got \[1\.0, 0\.0\]$"):
        Permutation((1.0, 0.0))
    with pytest.raises(TypeError, match=r"^images must be ints, got \[True, False\]$"):
        Permutation((True, False))
    with pytest.raises(TypeError, match="images must be ints"):
        Permutation((0, Fraction(1)))


def test_identity_law():
    g = Permutation((2, 0, 1))
    assert compose(identity(3), g) == g
    assert compose(g, identity(3)) == g


def test_inverse_law():
    g = Permutation((2, 0, 1))
    assert compose(g, inverse(g)) == identity(3)
    assert compose(inverse(g), g) == identity(3)


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
    assert inverse(t) == t
    assert inverse(identity(3)) == identity(3)


def test_inverse_of_three_cycle():
    fwd = cycle(3, (0, 1, 2))  # 0->1->2->0
    back = cycle(3, (0, 2, 1))  # 0->2->1->0
    assert inverse(fwd) == back


def test_apply_points_and_tuples():
    assert apply(identity(3), (0, 2)) == (0, 2)
    assert apply(transposition(3, 0, 1), 0) == 1
    assert apply(cycle(3, (0, 1, 2)), (0, 1)) == (1, 2)


def test_apply_out_of_range():
    with pytest.raises(ValueError):
        apply(identity(3), 3)
    with pytest.raises(ValueError):
        apply(identity(3), (0, 5))


@given(perms4, perms4, perms4)
def test_composition_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(perms4)
def test_inverse_round_trip(g):
    assert compose(g, inverse(g)) == identity(4)
    assert inverse(inverse(g)) == g


@given(perms4, perms4)
def test_apply_respects_composition(a, b):
    for p in range(4):
        assert apply(compose(a, b), p) == apply(a, apply(b, p))


@given(perms4)
def test_distinct_points_stay_distinct(g):
    image = apply(g, (0, 1, 2, 3))
    assert len(set(image)) == 4


def test_images_from_a_list_are_stored_as_a_tuple():
    listed, tupled = Permutation([1, 0, 2]), Permutation((1, 0, 2))
    assert listed.images == (1, 0, 2)
    assert listed == tupled and hash(listed) == hash(tupled)
    s3 = symmetric_group(3)
    assert s3.index(listed) == s3.index(tupled)


def test_value_semantics():
    g = Permutation((2, 0, 1))
    with pytest.raises(AttributeError):
        g.images = (0, 1, 2)
    with pytest.raises(AttributeError):
        del g.images
    with pytest.raises(AttributeError):
        g.extra = 1
    same = compose(cycle(3, (0, 2, 1)), identity(3))
    assert same is not g and same == g and hash(same) == hash(g)
    assert g != (2, 0, 1)
    assert repr(g) == "Permutation(images=(2, 0, 1))"
    assert copy.deepcopy(g) == g and pickle.loads(pickle.dumps(g)) == g


@given(st.lists(perms4, min_size=2, max_size=8))
def test_ordering_follows_image_tuple_order(perms):
    assert [p.images for p in sorted(perms)] == sorted(p.images for p in perms)
    a, b = perms[:2]
    x, y = a.images, b.images
    assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)
