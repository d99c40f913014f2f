import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherorder.majorize import (
    MajorizationVerdict,
    Relation,
    birkhoff_decompose,
    compare,
    hlp_witness,
)
from cipherorder.perms import Permutation, identity

from helpers import (
    apply_matrix,
    compare_oracle,
    majorized_pair,
    mixed_denominator_vector,
    permutation_matrix,
    rational_prob_vector,
    t_transform,
)

F = Fraction

rationals = st.fractions(min_value=0, max_value=1, max_denominator=12)
vectors = st.lists(rationals, min_size=1, max_size=7)


def normalize(v):
    total = sum(v)
    if total == 0:
        return [F(1)] + [F(0)] * (len(v) - 1)
    return [e / total for e in v]


def test_uniform_below_everything():
    u = [F(1, 3)] * 3
    assert compare(u, [F(1, 2), F(1, 2), F(0)]).relation is Relation.STRICTLY_BELOW


def test_shuffle_is_equal():
    x = [F(1, 2), F(1, 3), F(1, 6)]
    assert compare(x, x[::-1]).relation is Relation.EQUAL_UP_TO_PERMUTATION


def test_incomparable_with_witness():
    verdict = compare([F(3, 5), F(1, 5), F(1, 5)], [F(1, 2), F(2, 5), F(1, 10)])
    assert verdict.relation is Relation.INCOMPARABLE
    assert verdict.witness_prefix == (1, 2)


def test_norm_mismatch_is_a_verdict():
    verdict = compare([F(1, 2)], [F(1, 3)])
    assert verdict.relation is Relation.NORM_MISMATCH


def test_negative_entries_rejected():
    with pytest.raises(ValueError):
        compare([F(-1, 2), F(3, 2)], [F(1), F(0)])


def test_zero_padding_of_shorter_vector():
    assert compare([F(1, 2), F(1, 2)], [F(1), F(0), F(0)]).is_strictly_below
    assert compare([F(1, 2), F(1, 2)], [F(1)]).is_strictly_below


def swapped(verdict):
    """The verdict compare(y, x) must give when compare(x, y) gave
    ``verdict``: strictly below and strictly above trade places, and the
    incomparability witness reverses."""
    trade = {
        Relation.STRICTLY_BELOW: Relation.STRICTLY_ABOVE,
        Relation.STRICTLY_ABOVE: Relation.STRICTLY_BELOW,
    }
    witness = verdict.witness_prefix
    return MajorizationVerdict(
        trade.get(verdict.relation, verdict.relation),
        None if witness is None else witness[::-1],
    )


def test_mirror_verdicts():
    x = [F(1, 4)] * 4
    y = [F(1, 2), F(1, 2), F(0), F(0)]
    assert compare(x, y).relation is Relation.STRICTLY_BELOW
    assert compare(y, x).relation is Relation.STRICTLY_ABOVE
    assert swapped(compare(x, y)) == compare(y, x)
    a = [F(3, 5), F(1, 5), F(1, 5)]
    b = [F(1, 2), F(2, 5), F(1, 10)]
    assert compare(b, a).witness_prefix == (2, 1)
    assert swapped(compare(a, b)) == compare(b, a)


@given(vectors)
def test_reflexive(v):
    assert compare(v, v).relation is Relation.EQUAL_UP_TO_PERMUTATION


@given(vectors.map(normalize), vectors.map(normalize))
def test_swapped_comparison_is_the_mirror(a, b):
    assert compare(b, a) == swapped(compare(a, b))


@given(vectors.map(normalize), vectors.map(normalize), vectors.map(normalize))
def test_transitive(a, b, c):
    if compare(a, b).is_below and compare(b, c).is_below:
        assert compare(a, c).is_below


@given(vectors.map(normalize))
def test_uniform_is_global_minimum(v):
    u = [F(1, len(v))] * len(v)
    assert compare(u, v).is_below


@given(vectors.map(normalize), vectors.map(normalize))
def test_antisymmetry_up_to_permutation(a, b):
    if compare(a, b).is_below and compare(b, a).is_below:
        n = max(len(a), len(b))
        assert sorted(a + [F(0)] * (n - len(a))) == sorted(b + [F(0)] * (n - len(b)))


def _check_witness(x, y):
    witness = hlp_witness(x, y)
    n = len(witness.matrix)
    for row in witness.matrix:
        assert sum(row) == 1
        assert all(e >= 0 for e in row)
    for j in range(n):
        assert sum(witness.matrix[i][j] for i in range(n)) == 1
    padded_x = list(x) + [F(0)] * (n - len(x))
    padded_y = list(y) + [F(0)] * (n - len(y))
    assert apply_matrix(witness.matrix, padded_y) == tuple(padded_x)
    total = F(0)
    recon = [[F(0)] * n for _ in range(n)]
    for weight, perm in witness.decomposition:
        assert weight > 0
        total += weight
        for i in range(n):
            recon[i][perm.images[i]] += weight
    assert total == 1
    assert tuple(tuple(r) for r in recon) == witness.matrix
    assert len(witness.decomposition) <= (n - 1) ** 2 + 1
    return witness


def test_witness_for_equal_vectors_is_identity():
    x = [F(1, 2), F(1, 3), F(1, 6)]
    witness = _check_witness(x, x)
    assert witness.decomposition == ((F(1), identity(3)),)


def test_witness_for_shuffled_vector_is_a_permutation():
    x = [F(1, 6), F(1, 2), F(1, 3)]
    y = [F(1, 2), F(1, 3), F(1, 6)]
    witness = _check_witness(x, y)
    assert len(witness.decomposition) == 1


def test_witness_two_point_example():
    witness = _check_witness([F(1, 2), F(1, 2)], [F(1), F(0)])
    assert witness.matrix == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))


def test_witness_uniform_three_example():
    witness = _check_witness([F(1, 3)] * 3, [F(1, 2), F(1, 3), F(1, 6)])
    assert len(witness.decomposition) >= 2


def test_witness_rejects_non_majorized_pairs():
    with pytest.raises(ValueError):
        hlp_witness([F(1), F(0)], [F(1, 2), F(1, 2)])
    with pytest.raises(ValueError):
        hlp_witness([F(1, 2)], [F(1, 3)])


def test_witness_randomized_suite():
    rng = random.Random(2024)
    for _ in range(150):
        x, y = majorized_pair(rng, rng.randint(2, 8))
        assert compare(x, y).is_below
        _check_witness(x, y)


def test_witness_with_unsorted_unequal_lengths():
    rng = random.Random(77)
    for _ in range(40):
        x, y = majorized_pair(rng, rng.randint(2, 6))
        rng.shuffle(x)
        rng.shuffle(y)
        y = y + [F(0)] * rng.randint(0, 2)
        _check_witness(x, y)


def test_birkhoff_permutation_matrix_single_term():
    p = Permutation((2, 0, 1))
    terms = birkhoff_decompose(permutation_matrix(p))
    assert terms == [(F(1), p)]


def test_birkhoff_half_matrix():
    d = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    terms = birkhoff_decompose(d)
    assert sorted((w, p.images) for w, p in terms) == [
        (F(1, 2), (0, 1)),
        (F(1, 2), (1, 0)),
    ]


def test_birkhoff_uniform_three():
    d = tuple(tuple(F(1, 3) for _ in range(3)) for _ in range(3))
    terms = birkhoff_decompose(d)
    recon = [[F(0)] * 3 for _ in range(3)]
    for w, p in terms:
        for i in range(3):
            recon[i][p.images[i]] += w
    assert tuple(tuple(r) for r in recon) == d
    assert len(terms) <= 5


def test_birkhoff_rejects_bad_matrices():
    with pytest.raises(ValueError):
        birkhoff_decompose(((F(1, 2), F(1, 2)), (F(1), F(0))))
    with pytest.raises(ValueError):
        birkhoff_decompose(((F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2))))


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=10_000))
def test_birkhoff_random_doubly_stochastic(seed):
    # random convex mixtures of permutation matrices are doubly stochastic
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    weights = rational_prob_vector(rng, rng.randint(1, 40), allow_zeros=False)
    d = [[F(0)] * n for _ in range(n)]
    for w in weights:
        images = list(range(n))
        rng.shuffle(images)
        for i in range(n):
            d[i][images[i]] += w
    frozen = tuple(tuple(row) for row in d)
    terms = birkhoff_decompose(frozen)
    recon = [[F(0)] * n for _ in range(n)]
    for w, p in terms:
        assert w > 0
        for i in range(n):
            recon[i][p.images[i]] += w
    assert tuple(tuple(r) for r in recon) == frozen
    assert len(terms) <= (n - 1) ** 2 + 1


def test_compare_equals_fraction_oracle_on_unequal_denominators():
    rng = random.Random(808)
    relations = set()
    for _ in range(300):
        n = rng.randint(1, 9)
        x = mixed_denominator_vector(rng, n)
        kind = rng.randrange(3)
        if kind == 0:
            y = mixed_denominator_vector(rng, rng.randint(1, 9))
        elif kind == 1:
            y = t_transform(rng, x) if n > 1 else list(x)
        else:
            y = mixed_denominator_vector(rng, n, normalized=False)
        for a, b in ((x, y), (y, x)):
            verdict = compare(a, b)
            assert verdict == compare_oracle(a, b)
            relations.add(verdict.relation)
    assert relations == set(Relation)
