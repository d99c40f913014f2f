"""The majorization preorder on nonnegative rational vectors, with witnesses.

``compare`` and ``hlp_witness`` convert their input once (``_numerators``)
to integer numerators over the lcm of all entry denominators and run on
those.  ``compare`` decides x <= y (majorization) exactly via prefix sums of
the decreasing rearrangements.  ``hlp_witness`` makes the
Hardy-Littlewood-Polya direction constructive: a doubly-stochastic D with
D y = x, built on integer rows from at most n-1 T-transforms.  It is the
entry to the integer Birkhoff kernel, which splits those rows into at most
(n-1)^2 + 1 permutation matrices by greedy bottleneck extraction
(Marshall-Olkin-Arnold, ch. 2); only the returned matrix and the term
weights are ``Fraction``s.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from itertools import accumulate, chain
from numbers import Rational
from typing import NamedTuple, Sequence

from .perms import Permutation

Matrix = tuple[tuple[Fraction, ...], ...]


class Relation(enum.Enum):
    EQUAL_UP_TO_PERMUTATION = "equal-up-to-permutation"
    STRICTLY_BELOW = "strictly-below"
    STRICTLY_ABOVE = "strictly-above"
    INCOMPARABLE = "incomparable"
    NORM_MISMATCH = "norm-mismatch"


class MajorizationVerdict(NamedTuple):
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


def _exact_rational(v) -> Fraction:
    """``v`` as a ``Fraction``; TypeError unless it is rational or a string.
    ``bool`` is a registered ``Rational`` but is refused."""
    if isinstance(v, bool) or not isinstance(v, (str, Rational)):
        raise TypeError(f"expected exact rational entries, got {type(v).__name__}")
    return Fraction(v)


def _numerators(*vectors: Sequence) -> tuple[list[list[int]], int]:
    """The vectors' entries as integer numerators over the lcm of all their
    denominators, each vector zero-padded to the longest length, and that
    denominator: the one conversion of rational input.  TypeError for an
    entry that is not an exact rational."""
    fracs = [[_exact_rational(v) for v in vec] for vec in vectors]
    den = math.lcm(*(f.denominator for vec in fracs for f in vec))
    n = max(map(len, fracs))
    return [
        [f.numerator * (den // f.denominator) for f in vec] + [0] * (n - len(vec))
        for vec in fracs
    ], den


def _nonnegative_numerators(*vectors: Sequence) -> tuple[list[list[int]], int]:
    """``_numerators`` of vectors that must be nonnegative: ValueError for a
    negative entry."""
    vecs, den = _numerators(*vectors)
    for n in chain(*vecs):
        if n < 0:
            raise ValueError(f"vector entries must be nonnegative, got {Fraction(n, den)}")
    return vecs, den


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
    (xs, ys), _ = _nonnegative_numerators(x, y)
    return _verdict(sorted(xs, reverse=True), sorted(ys, reverse=True))


class DoublyStochasticWitness(NamedTuple):
    """An explicit doubly-stochastic matrix carrying y to x, with its
    convex decomposition into permutations."""

    matrix: Matrix
    decomposition: tuple[tuple[Fraction, Permutation], ...]


def _argsort_desc(v: Sequence[int]) -> list[int]:
    # stable: ties keep original index order
    return sorted(range(len(v)), key=lambda i: (-v[i], i))


def _ttransform_chain(x: list[int], y: list[int]) -> list[tuple[int, int, int, int]]:
    """T-transforms (j, k, delta, spread) carrying sorted y onto sorted x,
    both integer numerators over one denominator.

    Each step moves delta of mass from position j to position k, where
    spread = y_j - y_k > 0: it replaces (y_j, y_k) by (lam*y_j + (1-lam)*y_k,
    ...) with lam = (spread - delta) / spread.  It closes the largest surplus
    y_j - x_j first (ties broken by lowest index) against the first
    subsequent deficit; that choice keeps every intermediate raw prefix sum
    of y at or above x's, so majorization is preserved, and each step
    matches at least one more coordinate: at most n-1 steps.
    """
    y = list(y)
    steps: list[tuple[int, int, int, int]] = []
    while y != x:
        gaps = [b - a for a, b in zip(x, y)]
        j = max(range(len(y)), key=lambda i: (gaps[i], -i))
        k = next(i for i in range(j + 1, len(y)) if gaps[i] < 0)
        delta = min(gaps[j], -gaps[k])
        steps.append((j, k, delta, y[j] - y[k]))
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
    (xs, ys), _ = _nonnegative_numerators(x, y)
    if not xs:
        raise ValueError("x and y must have at least one entry")
    order_x = _argsort_desc(xs)
    order_y = _argsort_desc(ys)
    x_sorted = [xs[i] for i in order_x]
    y_sorted = [ys[i] for i in order_y]
    verdict = _verdict(x_sorted, y_sorted)
    if not verdict.is_below:
        raise ValueError(f"x is not majorized by y: {verdict.relation.value}")

    # sorted row r is original row order_x[r] and sorted column c original
    # column order_y[c]: start from the permutation matrix pairing them and
    # apply each T-transform of the sorted chain to the two original rows.
    # Over the product of all spreads every division below is exact: before
    # each step every entry is a multiple of the spreads still to come.
    n = len(xs)
    steps = _ttransform_chain(x_sorted, y_sorted)
    den = math.prod(spread for *_, spread in steps)
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        rows[order_x[r]][order_y[r]] = den
    for j, k, delta, spread in steps:
        j, k, keep = order_x[j], order_x[k], spread - delta
        pairs = list(zip(rows[j], rows[k]))
        rows[j] = [(keep * a + delta * b) // spread for a, b in pairs]
        rows[k] = [(delta * a + keep * b) // spread for a, b in pairs]
    matrix = tuple(tuple(Fraction(e, den) for e in row) for row in rows)
    return DoublyStochasticWitness(matrix, tuple(_birkhoff_terms(rows, den)))


def _try_augment(
    root: int,
    adj: list[list[int]],
    match_col: list[int],
    visited: list[bool],
) -> bool:
    """Depth-first search for an augmenting path from the free row ``root``,
    rematching its columns on success.  The stack holds each row on the
    path with its untried columns, ``path[d]`` leads from row d to row d+1;
    a stack, not recursion, because a path can pass through every row."""
    stack = [(root, iter(adj[root]))]
    path: list[int] = []
    while stack:
        for col in stack[-1][1]:
            if not visited[col]:
                visited[col] = True
                path.append(col)
                if match_col[col] < 0:
                    for (row, _), c in zip(stack, path):
                        match_col[c] = row
                    return True
                stack.append((match_col[col], iter(adj[match_col[col]])))
                break
        else:
            stack.pop()
            del path[-1:]
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


def _bottleneck_matching(rows: list[list[int]], n: int) -> list[int]:
    """Perfect matching maximizing the minimum entry used: thresholds
    scanned from the largest entry down, on integer numerators."""
    thresholds = sorted({e for row in rows for e in row if e > 0}, reverse=True)
    for t in thresholds:
        adj = [[j for j in range(n) if row[j] >= t] for row in rows]
        assignment = _perfect_matching(adj, n)
        if assignment is not None:
            return assignment
    raise ValueError("matrix support admits no perfect matching")


def _birkhoff_terms(rows: list[list[int]], den: int) -> list[tuple[Fraction, Permutation]]:
    """A doubly-stochastic matrix, given as rows of integer numerators over
    ``den``, as a convex sum of permutations; the rows are consumed.

    Greedy extraction along a maximum-bottleneck perfect matching (columns
    tried smallest index first); only the weights are ``Fraction``s.  The
    weighted sum of permutation matrices reproduces the input exactly.

    There are at most (n-1)^2 + 1 terms.  The smallest face of the Birkhoff
    polytope B_n holding the remainder is the set of doubly-stochastic
    matrices supported inside the remainder's support.  Each step subtracts
    w*P with w the smallest matched entry, which zeroes at least one
    positive entry and creates none, so the next remainder lies on a proper
    face of that face and the face dimension strictly drops.  It starts at
    most dim B_n = (n-1)^2, and a 0-dimensional face is one permutation
    matrix, extracted in one last step.
    """
    n = len(rows)
    remaining = den
    terms: list[tuple[Fraction, Permutation]] = []
    while remaining > 0:
        assignment = _bottleneck_matching(rows, n)
        weight = min(rows[i][assignment[i]] for i in range(n))
        terms.append((Fraction(weight, den), Permutation(tuple(assignment))))
        for i in range(n):
            rows[i][assignment[i]] -= weight
        remaining -= weight
    assert len(terms) <= (n - 1) ** 2 + 1
    return terms
