"""Real-valued security metrics with Schur-monotonicity contracts.

Guesswork, marginal guesswork, alpha-guesswork and variation distance to
uniformity are exact rationals; Shannon and Renyi entropy are floats (base-2)
with an absolute tolerance of 1e-12 for comparisons.  Near ties, callers can
fall back to the exact Renyi power sum (integer orders).

Shannon entropy, guesswork and variation distance take ``Fraction``s at the
API and are computed on integer numerators over the lcm of the entries'
denominators, by the same kernels (``_shannon``, ``_guesswork``,
``_variation``) that the q-query sweep and the experiments call directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .majorize import _numerators, nonnegative_rationals

_ZERO = Fraction(0)

ENTROPY_TOLERANCE = 1e-12

# largest integer Renyi order evaluated through the exact power sum; above
# it x^order has order * log2(denominator) bits, so the float path is used
RENYI_EXACT_MAX_ORDER = 1000


def _coerce_prob(xs: Sequence) -> list[Fraction]:
    out = nonnegative_rationals(xs)
    total = sum(out, _ZERO)
    if total != 1:
        raise ValueError(f"probability vector must sum to 1, got {total}")
    return out


def _desc(xs: list[Fraction]) -> list[Fraction]:
    return sorted(xs, reverse=True)


def _log2_int(n: int) -> float:
    if n.bit_length() <= 53:
        return math.log2(n)
    shift = n.bit_length() - 53
    return math.log2(n >> shift) + shift


def _log2_fraction(f: Fraction) -> float:
    return _log2_int(f.numerator) - _log2_int(f.denominator)


def _plog2p(n: int, den: int) -> float:
    """(n/den) * log2(n/den) for n > 0, the log taken of the mass in lowest
    terms, as ``_log2_fraction`` of a ``Fraction`` would; ``n / den`` is the
    correctly rounded quotient, which is ``float(Fraction(n, den))``."""
    g = math.gcd(n, den)
    return n / den * (_log2_int(n // g) - _log2_int(den // g))


def _shannon(nums: Sequence[int], den: int) -> float:
    """Shannon entropy in bits of integer numerators over ``den``, with
    0*log(0) = 0, summed in index order."""
    return -sum(_plog2p(n, den) for n in nums if n)


def shannon_entropy(x: Sequence) -> float:
    """Shannon entropy in bits, with 0*log(0) = 0."""
    return _shannon(*_numerators(_coerce_prob(x)))


def renyi_entropy(x: Sequence, order) -> float:
    """Renyi entropy of the given order in bits (order > 0, order != 1).

    Integer orders up to ``RENYI_EXACT_MAX_ORDER`` go through the exact
    power sum.  Every other order factors out the largest mass x_max in
    floats (see ``_renyi_factored``), so no power sum underflows.
    """
    if order <= 0:
        raise ValueError(f"Renyi order must be positive, got {order}")
    if order == 1:
        raise ValueError("order 1 is Shannon entropy; call shannon_entropy")
    xs = _coerce_prob(x)
    if (
        order <= RENYI_EXACT_MAX_ORDER
        and isinstance(order, Rational)
        and Fraction(order).denominator == 1
    ):
        power = renyi_power_sum(xs, int(order))
        return _log2_fraction(power) / (1 - int(order))
    try:
        a = float(order)
    except OverflowError:
        a = math.inf
    return _renyi_factored(xs, a)


def _renyi_factored(xs: list[Fraction], a: float) -> float:
    """Renyi entropy of order a with the largest mass x_max factored out:
    log2 sum x_i^a = a log2 x_max + log2 sum (x_i / x_max)^a, whose sum is
    at least 1, so the total neither underflows nor loses precision to
    subnormals."""
    top = max(xs)
    log_top = _log2_fraction(top)
    ratio_sum = sum(float(f / top) ** a for f in xs if f > 0)
    # (a log_top + log2 ratio_sum) / (1 - a), rearranged so that a = inf
    # gives the min-entropy -log_top
    return -log_top - (log_top + math.log2(ratio_sum)) / (a - 1)


def renyi_power_sum(x: Sequence, order: int) -> Fraction:
    """Exact sum of x_i^order for integer order; the Renyi entropy argument.

    Schur-convex for order > 1, so it decides entropy orderings near float
    ties without any tolerance.
    """
    if order < 1:
        raise ValueError("exact power sum needs integer order >= 1")
    nums, den = _numerators(_coerce_prob(x))
    return Fraction(sum(n**order for n in nums), den**order)


def _guesswork(desc: Sequence[int], den: int) -> Fraction:
    """Guesswork of a decreasing vector of integer numerators over ``den``:
    sum i * s_i / den."""
    return Fraction(sum(i * s for i, s in enumerate(desc, start=1)), den)


def guesswork(x: Sequence) -> Fraction:
    """Expected guesses under the optimal (decreasing-probability) order."""
    nums, den = _numerators(_coerce_prob(x))
    return _guesswork(sorted(nums, reverse=True), den)


def _check_alpha(alpha) -> Fraction:
    a = alpha if isinstance(alpha, Fraction) else Fraction(alpha)
    if not 0 < a <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {a}")
    return a


def marginal_guesswork(x: Sequence, alpha) -> int:
    """Fewest guesses whose cumulative success probability reaches alpha.

    The boundary is inclusive: a cumulative mass exactly equal to alpha
    counts (exact comparison, no tolerance).
    """
    a = _check_alpha(alpha)
    cum = _ZERO
    for i, f in enumerate(_desc(_coerce_prob(x)), start=1):
        cum += f
        if cum >= a:
            return i
    raise AssertionError("unreachable: probability vector sums to 1 >= alpha")


def alpha_guesswork(x: Sequence, alpha) -> Fraction:
    """Hybrid guessing cost w_a - w_a * sum_{i<=w_a} x_[i] + sum_{i<=w_a} i*x_[i]."""
    a = _check_alpha(alpha)
    xs = _desc(_coerce_prob(x))
    w = marginal_guesswork(xs, a)
    head = xs[:w]
    covered = sum(head, _ZERO)
    partial = sum((Fraction(i) * f for i, f in enumerate(head, start=1)), _ZERO)
    return Fraction(w) - w * covered + partial


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
    nums, den = _numerators(_coerce_prob(x))
    return _variation(sorted(nums, reverse=True), den)
