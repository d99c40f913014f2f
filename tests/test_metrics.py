import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cipherorder.majorize import compare
from cipherorder.metrics import (
    RENYI_EXACT_MAX_ORDER,
    _log2_fraction,
    _shannon,
    alpha_guesswork,
    guesswork,
    marginal_guesswork,
    renyi_entropy,
    renyi_power_sum,
    shannon_entropy,
    variation_to_uniform,
)

from helpers import (
    guesswork_oracle,
    half_l1_to_uniform,
    majorized_pair,
    mixed_denominator_vector,
    rational_prob_vector,
    shannon_entropy_mp,
    variation_to_uniform_oracle,
)

F = Fraction
TOL = 1e-12

rationals = st.fractions(min_value=0, max_value=1, max_denominator=16)


@st.composite
def prob_vectors(draw, min_size=1, max_size=8):
    v = draw(st.lists(rationals, min_size=min_size, max_size=max_size))
    total = sum(v)
    if total == 0:
        return [F(1)] + [F(0)] * (len(v) - 1)
    return [e / total for e in v]


def test_shannon_entropy_examples():
    assert shannon_entropy([F(1, 4)] * 4) == pytest.approx(2.0, abs=TOL)
    assert shannon_entropy([F(1), F(0), F(0)]) == pytest.approx(0.0, abs=TOL)
    assert shannon_entropy([F(1, 2), F(1, 4), F(1, 4)]) == pytest.approx(1.5, abs=TOL)


def shannon_reference(masses):
    """The Fraction evaluation the integer kernel must reproduce bit for bit."""
    return -sum(float(f) * _log2_fraction(f) for f in masses if f > 0)


@st.composite
def numerators_over(draw):
    """Numerators over one denominator, with zero entries and entries sharing
    a factor with the denominator; the sizes past 53 bits send the
    logarithms through the shift path of ``_log2_int``."""
    bits = draw(st.sampled_from([8, 53, 80, 200]))
    common = draw(st.integers(1, 2**bits))
    den = common * draw(st.integers(1, 2**bits))
    entry = st.one_of(
        st.just(0),
        st.integers(1, 2**bits),
        st.integers(1, 2**bits).map(lambda n: n * common),
    )
    return draw(st.lists(entry, min_size=1, max_size=12)), den


@given(numerators_over())
def test_shannon_kernel_is_bit_identical_to_the_fraction_sum(case):
    nums, den = case
    assert _shannon(nums, den) == shannon_reference([F(n, den) for n in nums])


@given(prob_vectors())
def test_shannon_entropy_is_bit_identical_to_the_fraction_sum(x):
    assert shannon_entropy(x) == shannon_reference(x)


@pytest.mark.parametrize(
    "nums, den",
    [
        ([0, 3, 12], 15),
        ([0, 3742202545752871263, 1042957325038372410], 4785159870791243673),
    ],
)
def test_shannon_kernel_reduces_each_term(nums, den):
    # each case shares the factor 3 with its denominator, and its sum moves
    # in the last bit if a term's log2 is taken of the unreduced pair; the
    # second also passes 53 bits
    assert _shannon(nums, den) == shannon_reference([F(n, den) for n in nums])


def test_renyi_entropy_examples():
    for order in (F(1, 2), 2, 3, F(7, 2)):
        assert renyi_entropy([F(1, 5)] * 5, order) == pytest.approx(
            math.log2(5), abs=TOL
        )
    assert renyi_entropy([F(1, 2), F(1, 2)], 2) == pytest.approx(1.0, abs=TOL)
    assert renyi_entropy([F(3, 4), F(1, 4)], 2) == pytest.approx(
        math.log2(8 / 5), abs=TOL
    )
    assert renyi_power_sum([F(3, 4), F(1, 4)], 2) == F(5, 8)


def test_renyi_entropy_above_exact_bound_matches_power_sum():
    # above RENYI_EXACT_MAX_ORDER the largest mass is factored out in floats
    rng = random.Random(11)
    for _ in range(20):
        x = mixed_denominator_vector(rng, rng.randint(1, 6))
        for order in (RENYI_EXACT_MAX_ORDER + 1, 1500, 4000):
            exact = _log2_fraction(renyi_power_sum(x, order)) / (1 - order)
            assert renyi_entropy(x, order) == pytest.approx(exact, abs=TOL)
        # nonincreasing in the order, across a non-integer order too
        low, mid, high = (renyi_entropy(x, a) for a in (1001, F(2003, 2), 1002))
        assert low + TOL >= mid >= high - TOL


def test_renyi_entropy_where_float_powers_underflow():
    # every float x_i^a of these vectors underflows to 0.0 at a = 999.5; the
    # value must lie between the exact power-sum values at the neighbouring
    # integer orders (Renyi entropy is nonincreasing)
    order = F(1999, 2)
    for x in (
        [F(1, 3)] * 3,
        [F(2, 5), F(3, 10), F(3, 10)],
        [F(1, 4), F(1, 4), F(1, 3), F(1, 6)],
    ):
        assert sum(float(f) ** float(order) for f in x) == 0.0
        high, low = renyi_entropy(x, 999), renyi_entropy(x, 1000)
        assert high + TOL >= renyi_entropy(x, order) >= low - TOL
    assert renyi_entropy([F(1, 4)] * 4, F(1201, 2)) == 2.0


def test_renyi_entropy_at_huge_orders_is_min_entropy():
    x = [F(1, 2), F(1, 4), F(1, 4)]
    for order in (10**9, F(10**4300), 10**5000):
        assert renyi_entropy(x, order) == pytest.approx(1.0, abs=1e-8)
    assert renyi_entropy([F(1, 4)] * 4, 10**5000) == 2.0


def test_rational_metrics_equal_fraction_oracle_on_unequal_denominators():
    rng = random.Random(909)
    for _ in range(300):
        x = mixed_denominator_vector(rng, rng.randint(1, 9))
        assert variation_to_uniform(x) == variation_to_uniform_oracle(x)
        assert guesswork(x) == guesswork_oracle(x)


def test_renyi_rejects_bad_orders():
    with pytest.raises(ValueError):
        renyi_entropy([F(1)], 1)
    with pytest.raises(ValueError):
        renyi_entropy([F(1)], 0)
    with pytest.raises(ValueError):
        renyi_entropy([F(1)], -2)


def test_guesswork_examples():
    assert guesswork([F(0), F(1), F(0)]) == 1
    assert guesswork([F(1, 5)] * 5) == F(3)
    assert guesswork([F(1, 2), F(1, 4), F(1, 4)]) == F(7, 4)


def test_guesswork_bounds():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 9)
        x = rational_prob_vector(rng, n)
        w = guesswork(x)
        assert 1 <= w <= F(n + 1, 2)


def test_guesswork_unnormalized_flag():
    with pytest.raises(ValueError):
        guesswork([F(1, 4), F(1, 4)])


def test_marginal_guesswork_examples():
    assert marginal_guesswork([F(1), F(0)], 1) == 1
    assert marginal_guesswork([F(1, 4)] * 4, F(1, 2)) == 2  # boundary met with >=
    assert marginal_guesswork([F(1, 6)] * 6, 1) == 6
    with pytest.raises(ValueError):
        marginal_guesswork([F(1)], 0)
    with pytest.raises(ValueError):
        marginal_guesswork([F(1)], F(3, 2))


def test_alpha_guesswork_examples():
    x = [F(1, 2), F(1, 4), F(1, 8), F(1, 8)]
    assert alpha_guesswork(x, 1) == guesswork(x)
    assert alpha_guesswork([F(1, 4)] * 4, F(1, 2)) == F(7, 4)
    assert alpha_guesswork([F(0), F(1), F(0)], F(1, 3)) == 1
    assert alpha_guesswork([F(0), F(1), F(0)], 1) == 1


def test_variation_examples():
    assert variation_to_uniform([F(1, 4)] * 4) == 0
    assert variation_to_uniform([F(1), F(0), F(0), F(0)]) == F(3, 4)
    assert variation_to_uniform([F(1, 2), F(1, 2), F(0), F(0)]) == F(1, 2)


def test_variation_bounds():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 9)
        x = rational_prob_vector(rng, n)
        v = variation_to_uniform(x)
        assert 0 <= v <= 1 - F(1, n)


def test_entropy_bounds():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 9)
        x = rational_prob_vector(rng, n)
        for h in (shannon_entropy(x), renyi_entropy(x, 2), renyi_entropy(x, F(1, 2))):
            assert -TOL <= h <= math.log2(n) + TOL


@given(prob_vectors())
def test_variation_matches_direct_definition(x):
    assert variation_to_uniform(x) == half_l1_to_uniform(x)


@given(prob_vectors(min_size=2))
def test_permutation_invariance(x):
    rng = random.Random(0)
    shuffled = list(x)
    rng.shuffle(shuffled)
    assert guesswork(shuffled) == guesswork(x)
    assert variation_to_uniform(shuffled) == variation_to_uniform(x)
    assert marginal_guesswork(shuffled, F(1, 2)) == marginal_guesswork(x, F(1, 2))
    assert alpha_guesswork(shuffled, F(2, 3)) == alpha_guesswork(x, F(2, 3))
    assert shannon_entropy(shuffled) == pytest.approx(shannon_entropy(x), abs=TOL)
    assert renyi_power_sum(shuffled, 2) == renyi_power_sum(x, 2)


def assert_schur_ordering(x, y):
    """x majorized by y: concave metrics favor x, convex ones favor y."""
    verdict = compare(x, y)
    assert verdict.is_below
    strict = verdict.is_strictly_below

    gap = shannon_entropy(x) - shannon_entropy(y)
    assert gap >= -TOL
    if strict:
        if gap <= TOL:
            assert shannon_entropy_mp(x) > shannon_entropy_mp(y)
        else:
            assert gap > 0

    # order 2 decided exactly via the power sum (Schur-convex)
    diff = renyi_power_sum(x, 2) - renyi_power_sum(y, 2)
    assert diff <= 0
    if strict:
        assert diff < 0
    assert renyi_entropy(x, 2) - renyi_entropy(y, 2) >= -TOL
    assert renyi_entropy(x, F(1, 2)) - renyi_entropy(y, F(1, 2)) >= -TOL

    assert guesswork(x) >= guesswork(y)
    if strict:
        assert guesswork(x) > guesswork(y)

    for alpha in (F(1, 4), F(1, 2), F(3, 4), F(1)):
        assert marginal_guesswork(x, alpha) >= marginal_guesswork(y, alpha)
        assert alpha_guesswork(x, alpha) >= alpha_guesswork(y, alpha)

    assert variation_to_uniform(x) <= variation_to_uniform(y)


def test_schur_monotonicity_randomized():
    rng = random.Random(3141)
    for _ in range(200):
        x, y = majorized_pair(rng, rng.randint(2, 9))
        assert_schur_ordering(x, y)


def test_alpha_guesswork_not_strictly_schur_concave():
    # two distinct distributions agreeing up to the alpha cutoff tie
    x = [F(1, 2), F(1, 4), F(1, 4)]
    y = [F(1, 2), F(1, 2), F(0)]
    assert compare(x, y).is_strictly_below
    assert alpha_guesswork(x, F(1, 2)) == alpha_guesswork(y, F(1, 2))
    assert marginal_guesswork(x, F(1, 2)) == marginal_guesswork(y, F(1, 2))
