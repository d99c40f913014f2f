"""Real-valued security metrics with Schur-monotonicity contracts.

Guesswork, marginal guesswork, alpha-guesswork and variation distance to
uniformity are exact rationals; Shannon and Renyi entropy are floats (base-2)
with an absolute tolerance of 1e-12 for comparisons.

Every metric takes ``Fraction``s at the API, converts them once (``_prob``)
to integer numerators over the lcm of the entries' denominators, and runs an
integer kernel; ``_shannon``, ``_guesswork`` and ``_variation`` are also the
kernels that the q-query sweep and the experiments call directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from numbers import Rational
from typing import Sequence

from .majorize import _exact_rational, _nonnegative_numerators

ENTROPY_TOLERANCE = 1e-12

# largest integer Renyi order evaluated through the exact power sum; above
# it x^order has order * log2(denominator) bits, so the float path is used
RENYI_EXACT_MAX_ORDER = 1000


def _prob(x: Sequence) -> tuple[list[int], int]:
    """A probability vector as integer numerators over the lcm of its
    entries' denominators, and that denominator."""
    (nums,), den = _nonnegative_numerators(x)
    total = sum(nums)
    if total != den:
        raise ValueError(f"probability vector must sum to 1, got {Fraction(total, den)}")
    return nums, den


def _log2_int(n: int) -> float:
    if n.bit_length() <= 53:
        return math.log2(n)
    shift = n.bit_length() - 53
    return math.log2(n >> shift) + shift


def _log2_ratio(n: int, den: int) -> float:
    """log2(n/den) for n > 0, taken of the ratio in lowest terms, as of the
    numerator and denominator of ``Fraction(n, den)``."""
    g = math.gcd(n, den)
    return _log2_int(n // g) - _log2_int(den // g)


def _plog2p(n: int, den: int) -> float:
    """(n/den) * log2(n/den) for n > 0; ``n / den`` is the correctly rounded
    quotient, which is ``float(Fraction(n, den))``."""
    return n / den * _log2_ratio(n, den)


def _shannon(nums: Sequence[int], den: int) -> float:
    """Shannon entropy in bits of integer numerators over ``den``, with
    0*log(0) = 0; the float terms are summed exactly (``math.fsum``), so a
    uniform distribution on n elements gives log2(n) to within rounding of
    its terms, and a point mass gives +0.0."""
    return 0.0 - math.fsum(_plog2p(n, den) for n in nums if n)


def shannon_entropy(x: Sequence) -> float:
    """Shannon entropy in bits, with 0*log(0) = 0."""
    return _shannon(*_prob(x))


def renyi_entropy(x: Sequence, order) -> float:
    """Renyi entropy of the given order in bits (order > 0, order != 1).

    Integer orders up to ``RENYI_EXACT_MAX_ORDER`` go through the exact
    power sum.  Every other order factors out the largest mass x_max in
    floats (see ``_renyi_factored``), so no power sum underflows.
    """
    if not order > 0:
        raise ValueError(f"Renyi order must be positive, got {order}")
    if order == 1:
        raise ValueError("order 1 is Shannon entropy; call shannon_entropy")
    nums, den = _prob(x)
    if (
        order <= RENYI_EXACT_MAX_ORDER
        and isinstance(order, Rational)
        and Fraction(order).denominator == 1
    ):
        a = int(order)
        log_power = _log2_ratio(sum(n**a for n in nums), den**a)
        # 0.0 - s is -s for every s but 0.0, where it stays +0.0
        return 0.0 - log_power / (a - 1)
    try:
        a = float(order)
    except OverflowError:
        a = math.inf
    return _renyi_factored(nums, den, a)


def _renyi_factored(nums: list[int], den: int, a: float) -> float:
    """Renyi entropy of order a with the largest mass x_max factored out:
    log2 sum x_i^a = a log2 x_max + log2 sum (x_i / x_max)^a, whose sum is
    at least 1, so the total neither underflows nor loses precision to
    subnormals."""
    top = max(nums)
    log_top = _log2_ratio(top, den)
    ratio_sum = sum((n / top) ** a for n in nums if n)
    # (a log_top + log2 ratio_sum) / (1 - a), rearranged so that a = inf
    # gives the min-entropy -log_top; 0.0 - log_top keeps a point mass +0.0
    return 0.0 - log_top - (log_top + math.log2(ratio_sum)) / (a - 1)


def _guesswork(desc: Sequence[int], den: int) -> Fraction:
    """Guesswork of a decreasing vector of integer numerators over ``den``:
    sum i * s_i / den."""
    return Fraction(sum(i * s for i, s in enumerate(desc, start=1)), den)


def guesswork(x: Sequence) -> Fraction:
    """Expected guesses under the optimal (decreasing-probability) order."""
    nums, den = _prob(x)
    return _guesswork(sorted(nums, reverse=True), den)


def _check_alpha(alpha) -> Fraction:
    a = _exact_rational(alpha)
    if not 0 < a <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {a}")
    return a


def _marginal(desc: Sequence[int], den: int, alpha: Fraction) -> int:
    """Fewest leading entries of a decreasing vector of integer numerators
    over ``den`` summing to ``den`` whose sum reaches ``alpha`` in (0, 1]."""
    target = alpha.numerator * den
    cums = accumulate(s * alpha.denominator for s in desc)
    return next(i for i, cum in enumerate(cums, start=1) if cum >= target)


def marginal_guesswork(x: Sequence, alpha) -> int:
    """Fewest guesses whose cumulative success probability reaches alpha.

    The boundary is inclusive: a cumulative mass exactly equal to alpha
    counts (exact comparison, no tolerance).
    """
    a = _check_alpha(alpha)
    nums, den = _prob(x)
    return _marginal(sorted(nums, reverse=True), den, a)


def alpha_guesswork(x: Sequence, alpha) -> Fraction:
    """Hybrid guessing cost w_a - w_a * sum_{i<=w_a} x_[i] + sum_{i<=w_a} i*x_[i]."""
    a = _check_alpha(alpha)
    nums, den = _prob(x)
    desc = sorted(nums, reverse=True)
    w = _marginal(desc, den, a)
    head = desc[:w]
    partial = sum(i * s for i, s in enumerate(head, start=1))
    return Fraction(w * (den - sum(head)) + partial, den)


def _variation(desc: Sequence[int], den: int) -> Fraction:
    """Variation distance to uniform of a decreasing vector of integer
    numerators over ``den`` summing to ``den``: with n entries and
    k = #{i : n s_i >= den}, it is (n * (s_1 + ... + s_k) - k den) / (n den)."""
    n = len(desc)
    k = sum(1 for s in desc if n * s >= den)
    return Fraction(n * sum(desc[:k]) - k * den, n * den)


def variation_to_uniform(x: Sequence) -> Fraction:
    """Variation distance to the uniform distribution on the same n points.

    The decreasing-rearrangement closed form: with cutoff
    k = #{i : x_[i] >= 1/n}, the distance is x_[1] + ... + x_[k] - k/n,
    evaluated on integer numerators over the lcm of the denominators.
    """
    nums, den = _prob(x)
    return _variation(sorted(nums, reverse=True), den)
