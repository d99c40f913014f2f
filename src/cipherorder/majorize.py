"""The majorization preorder on nonnegative rational vectors, with witnesses.

``compare`` decides x <= y (majorization) exactly via prefix sums of the
decreasing rearrangements, taken on integer numerators over the lcm of all
entry denominators; ``Fraction``s appear only at the API.  ``hlp_witness``
makes the Hardy-Littlewood-Polya direction constructive: an explicit
doubly-stochastic matrix D with D y = x, built from at most n-1
T-transforms.  ``birkhoff_decompose`` writes any doubly-stochastic matrix as
a convex sum of permutation matrices by greedy bottleneck extraction; every
step lowers the dimension of the smallest face of the Birkhoff polytope
holding the remainder, so there are at most (n-1)^2 + 1 terms
(Marshall-Olkin-Arnold, ch. 2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from numbers import Rational
from typing import Sequence

from .perms import Permutation

_ZERO = Fraction(0)
_ONE = Fraction(1)

Matrix = tuple[tuple[Fraction, ...], ...]


class Relation(enum.Enum):
    EQUAL_UP_TO_PERMUTATION = "equal-up-to-permutation"
    STRICTLY_BELOW = "strictly-below"
    STRICTLY_ABOVE = "strictly-above"
    INCOMPARABLE = "incomparable"
    NORM_MISMATCH = "norm-mismatch"


@dataclass(frozen=True)
class MajorizationVerdict:
    """Outcome of comparing two vectors under majorization.

    ``witness_prefix`` is set only for INCOMPARABLE: the 1-indexed prefix
    lengths at which x's prefix sum is strictly above, respectively strictly
    below, y's.
    """

    relation: Relation
    witness_prefix: tuple[int, int] | None = None

    @property
    def is_below(self) -> bool:
        """x <= y in the majorization preorder (includes equality)."""
        return self.relation in (
            Relation.EQUAL_UP_TO_PERMUTATION,
            Relation.STRICTLY_BELOW,
        )

    @property
    def is_strictly_below(self) -> bool:
        return self.relation is Relation.STRICTLY_BELOW

    @property
    def is_strictly_above(self) -> bool:
        return self.relation is Relation.STRICTLY_ABOVE

    @property
    def is_equal(self) -> bool:
        return self.relation is Relation.EQUAL_UP_TO_PERMUTATION


def nonnegative_rationals(xs: Sequence) -> list[Fraction]:
    """The entries as ``Fraction``s: TypeError for a non-rational entry,
    ValueError for a negative one."""
    out = []
    for v in xs:
        if isinstance(v, Fraction):
            f = v
        elif isinstance(v, (int, str, Rational)):
            f = Fraction(v)
        else:
            raise TypeError(f"expected exact rational entries, got {type(v).__name__}")
        if f < 0:
            raise ValueError(f"vector entries must be nonnegative, got {f}")
        out.append(f)
    return out


def _padded(x: Sequence, y: Sequence) -> tuple[list[Fraction], list[Fraction]]:
    """Both vectors as exact nonnegative entries, the shorter zero-padded."""
    xs, ys = nonnegative_rationals(x), nonnegative_rationals(y)
    n = max(len(xs), len(ys))
    xs += [_ZERO] * (n - len(xs))
    ys += [_ZERO] * (n - len(ys))
    return xs, ys


def _numerators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the values over their common denominator (the
    lcm of every value's denominator), and that denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _verdict(xs: Sequence[int], ys: Sequence[int]) -> MajorizationVerdict:
    """Majorization verdict for two decreasing integer vectors of equal
    length (numerators over one denominator), by prefix sums."""
    if sum(xs) != sum(ys):
        return MajorizationVerdict(Relation.NORM_MISMATCH)
    gaps = [px - py for px, py in zip(accumulate(xs), accumulate(ys))]
    first_above = next((i for i, g in enumerate(gaps, start=1) if g > 0), None)
    first_below = next((i for i, g in enumerate(gaps, start=1) if g < 0), None)
    if first_above is None and first_below is None:
        return MajorizationVerdict(Relation.EQUAL_UP_TO_PERMUTATION)
    if first_above is None:
        return MajorizationVerdict(Relation.STRICTLY_BELOW)
    if first_below is None:
        return MajorizationVerdict(Relation.STRICTLY_ABOVE)
    return MajorizationVerdict(Relation.INCOMPARABLE, (first_above, first_below))


def compare(x: Sequence, y: Sequence) -> MajorizationVerdict:
    """Exact majorization verdict for nonnegative vectors.

    Shorter input is zero-padded; appended zeros never change a probability
    vector's majorization status.  With exact arithmetic the verdict is
    always one of the precise relations: equal up to permutation, strictly
    below, strictly above, incomparable, or a norm mismatch.  The entries
    are compared as integer numerators over the lcm of both vectors'
    denominators.
    """
    xs, ys = _padded(x, y)
    nums, _ = _numerators(xs + ys)
    n = len(xs)
    return _verdict(sorted(nums[:n], reverse=True), sorted(nums[n:], reverse=True))


@dataclass(frozen=True)
class DoublyStochasticWitness:
    """An explicit doubly-stochastic matrix carrying y to x, with its
    convex decomposition into permutations."""

    matrix: Matrix
    decomposition: tuple[tuple[Fraction, Permutation], ...]


def _identity_matrix(n: int) -> list[list[Fraction]]:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def _argsort_desc(v: Sequence[Fraction]) -> list[int]:
    # stable: ties keep original index order
    return sorted(range(len(v)), key=lambda i: (-v[i], i))


def _ttransform_chain(
    x: list[Fraction], y: list[Fraction]
) -> list[tuple[int, int, Fraction]]:
    """T-transforms (j, k, lambda) carrying sorted y onto sorted x.

    Each step replaces (y_j, y_k) by (lam*y_j + (1-lam)*y_k, ...), i.e.
    moves delta = (1-lam)(y_j - y_k) of mass from position j to position k.
    It closes the largest surplus y_j - x_j first (ties broken by lowest
    index) against the first subsequent deficit; that choice keeps every
    intermediate raw prefix sum of y at or above x's, so majorization is
    preserved, and each step matches at least one more coordinate: at most
    n-1 steps.
    """
    y = list(y)
    steps: list[tuple[int, int, Fraction]] = []
    while y != x:
        gaps = [b - a for a, b in zip(x, y)]
        j = max(range(len(y)), key=lambda i: (gaps[i], -i))
        k = next(i for i in range(j + 1, len(y)) if gaps[i] < 0)
        delta = min(gaps[j], -gaps[k])
        lam = _ONE - delta / (y[j] - y[k])
        steps.append((j, k, lam))
        y[j] -= delta
        y[k] += delta
    return steps


def hlp_witness(x: Sequence, y: Sequence) -> DoublyStochasticWitness:
    """Constructive witness for x majorized by y: D doubly stochastic, Dy = x.

    Requires ``compare(x, y)`` to come out below-or-equal.  The matrix is a
    product of at most n-1 T-transforms conjugated by the sorting
    permutations of the two inputs, so it maps the original (unsorted) y to
    the original x exactly.
    """
    verdict = compare(x, y)
    if not verdict.is_below:
        raise ValueError(f"x is not majorized by y: {verdict.relation.value}")
    xs, ys = _padded(x, y)
    n = len(xs)
    order_x = _argsort_desc(xs)
    order_y = _argsort_desc(ys)
    x_sorted = [xs[i] for i in order_x]
    y_sorted = [ys[i] for i in order_y]

    # chain acts on sorted coordinates; build D_sorted = T_r ... T_1 row by row
    d_sorted = _identity_matrix(n)
    for j, k, lam in _ttransform_chain(x_sorted, y_sorted):
        row_j = d_sorted[j]
        row_k = d_sorted[k]
        d_sorted[j] = [lam * a + (_ONE - lam) * b for a, b in zip(row_j, row_k)]
        d_sorted[k] = [(_ONE - lam) * a + lam * b for a, b in zip(row_j, row_k)]

    # matrix[i][j] on original coordinates: x[order_x[r]] = row r of sorted
    matrix = [[_ZERO] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            matrix[order_x[r]][order_y[c]] = d_sorted[r][c]
    frozen: Matrix = tuple(tuple(row) for row in matrix)
    return DoublyStochasticWitness(frozen, tuple(birkhoff_decompose(frozen)))


def _check_doubly_stochastic(matrix: Matrix) -> int:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    for row in matrix:
        if any(e < 0 for e in row):
            raise ValueError("matrix entries must be nonnegative")
        if sum(row) != 1:
            raise ValueError(f"row sums to {sum(row)}, not 1")
    for j in range(n):
        col = sum(matrix[i][j] for i in range(n))
        if col != 1:
            raise ValueError(f"column {j} sums to {col}, not 1")
    return n


def _try_augment(
    row: int,
    adj: list[list[int]],
    match_col: list[int],
    visited: list[bool],
) -> bool:
    for col in adj[row]:
        if visited[col]:
            continue
        visited[col] = True
        if match_col[col] < 0 or _try_augment(match_col[col], adj, match_col, visited):
            match_col[col] = row
            return True
    return False


def _perfect_matching(adj: list[list[int]], n: int) -> list[int] | None:
    """Row -> column perfect matching on a bipartite adjacency, or None.

    Deterministic: rows augment in order, columns are tried in increasing
    order (adjacency lists must be sorted).
    """
    match_col = [-1] * n
    for row in range(n):
        if not _try_augment(row, adj, match_col, [False] * n):
            return None
    assignment = [-1] * n
    for col, row in enumerate(match_col):
        assignment[row] = col
    return assignment


def _bottleneck_matching(rows: list[list[Fraction]], n: int) -> list[int]:
    """Perfect matching maximizing the minimum entry used (exact threshold scan)."""
    thresholds = sorted({e for row in rows for e in row if e > 0}, reverse=True)
    for t in thresholds:
        adj = [[j for j in range(n) if row[j] >= t] for row in rows]
        assignment = _perfect_matching(adj, n)
        if assignment is not None:
            return assignment
    raise ValueError("matrix support admits no perfect matching")


def birkhoff_decompose(matrix: Matrix) -> list[tuple[Fraction, Permutation]]:
    """Write a doubly-stochastic matrix as a convex sum of permutations.

    Greedy extraction along a maximum-bottleneck perfect matching (columns
    tried smallest index first).  The weighted sum of permutation matrices
    reproduces the input exactly.

    There are at most (n-1)^2 + 1 terms.  The smallest face of the Birkhoff
    polytope B_n holding the remainder is the set of doubly-stochastic
    matrices supported inside the remainder's support.  Each step subtracts
    w*P with w the smallest matched entry, which zeroes at least one
    positive entry and creates none, so the next remainder lies on a proper
    face of that face and the face dimension strictly drops.  It starts at
    most dim B_n = (n-1)^2, and a 0-dimensional face is one permutation
    matrix, extracted in one last step.
    """
    n = _check_doubly_stochastic(matrix)
    rows = [list(row) for row in matrix]
    remaining = _ONE
    terms: list[tuple[Fraction, Permutation]] = []
    while remaining > 0:
        assignment = _bottleneck_matching(rows, n)
        weight = min(rows[i][assignment[i]] for i in range(n))
        terms.append((weight, Permutation(tuple(assignment))))
        for i in range(n):
            rows[i][assignment[i]] -= weight
        remaining -= weight
    assert len(terms) <= (n - 1) ** 2 + 1
    return terms
