"""Security at data complexity q: tuple actions, image blocks, orderings.

An adversary holding the images g(p) of a q-tuple p of distinct plaintexts
knows the realized permutation g only up to its left coset of Stab(p).
Grouping the group's element indices by g(p) in one pass yields the vector
behind both q-query metrics: NCPA advantage (variation distance of the coset
masses from uniform) and conditional guesswork (guesswork of the summed
sorted per-coset profiles).  Every verdict is a ``Direction``.

``compare_q`` is the one q-query path.  It groups each tuple's indices once
for both ciphers and runs on integers: both ciphers' stored numerators are
scaled to one common denominator (``dist._common_numerators``), and the
sorted profiles, block masses, column sums, majorization verdicts (integer
prefix sums) and metrics are computed on those numerators by the kernels
behind ``majorize.compare``, ``metrics.variation_to_uniform`` and
``metrics.guesswork``.  Only the four metric values of a tuple become
``Fraction``s, and the reports keep ``Fraction``s at the API.
``conditional_guesswork_oracle`` is an independent brute-force reference.
"""

from __future__ import annotations

import enum
import itertools
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple, Sequence

from .dist import CipherDist, _common_numerators, _require_same_group
from .groups import GroupTable, check_points
from .majorize import MajorizationVerdict, Relation, _verdict
from .metrics import _guesswork, _variation


def distinct_tuples(m: int, q: int) -> list[tuple[int, ...]]:
    """All ordered q-tuples of distinct points of {0..m-1}, lexicographic."""
    if not 0 <= q <= m:
        raise ValueError(f"q must satisfy 0 <= q <= {m}, got {q}")
    return list(itertools.permutations(range(m), q))


def _image_columns(group: GroupTable) -> list[tuple[int, ...]]:
    """``columns[a][i]`` is the image of point a under element i."""
    return list(zip(*group.words))


def _image_blocks(
    columns: Sequence[Sequence[int]], order: int, p: tuple[int, ...]
) -> list[list[int]]:
    """Element indices grouped by image tuple g(p): the left cosets of
    Stab(p), each in canonical order, in the order of their lexicographically
    minimal member."""
    if not p:
        return [list(range(order))]
    blocks: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
    for i, image in enumerate(zip(*[columns[a] for a in p])):
        blocks[image].append(i)
    return list(blocks.values())


def _profiles(blocks: list[list[int]], values: Sequence) -> list[list]:
    """Each block's values sorted decreasingly."""
    return [sorted([values[i] for i in block], reverse=True) for block in blocks]


def _column_sums(profiles: Sequence[Sequence]) -> list:
    """Componentwise sum of equal-length decreasing profiles; decreasing."""
    return [sum(col) for col in zip(*profiles)]


def conditional_guesswork_oracle(x: CipherDist, p: tuple[int, ...]) -> Fraction:
    """Brute-force reference: group the elements by their word's image of p
    and sum, over the groups, i times the i-th largest numerator of each.

    The probability of a ciphertext times the i-th largest posterior given it
    is the i-th largest mass among the elements that give it, so this is the
    optimal guess count per ciphertext weighted by its probability.
    Independent of the coset machinery; must agree exactly with the
    ``guesswork_left``/``guesswork_right`` of ``compare_q``'s rows.
    """
    check_points(p, x.group.degree)
    by_image: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
    for w, n in zip(x.group.words, x.nums):
        by_image[tuple([w[a] for a in p])].append(n)
    total = 0
    for nums in by_image.values():
        nums.sort(reverse=True)
        total += sum(i * n for i, n in enumerate(nums, start=1))
    return Fraction(total, x.den)


class Direction(str, enum.Enum):
    """Which cipher of a (left, right) pair a comparison favors.

    ``LEFT`` means every metric favors (or ties) the left cipher, ``EQUAL``
    that everything ties, and ``MIXED`` that the metrics disagree.  A level
    verdict combines each tuple's two majorization verdicts; the metric
    directions follow from those by Schur monotonicity (see ``compare_q``).
    """

    LEFT = "left-no-less-secure"
    RIGHT = "right-no-less-secure"
    EQUAL = "equivalent"
    MIXED = "mixed"

    @classmethod
    def of_metric(
        cls, left: Fraction, right: Fraction, *, higher_is_safer: bool
    ) -> Direction:
        """The direction of one metric's pair of values."""
        if left == right:
            return cls.EQUAL
        safer_left = left > right if higher_is_safer else left < right
        return cls.LEFT if safer_left else cls.RIGHT


class TupleComparison(NamedTuple):
    """Both ciphers' q-query metrics for one plaintext tuple."""

    points: tuple[int, ...]
    advantage_left: Fraction
    advantage_right: Fraction
    guesswork_left: Fraction
    guesswork_right: Fraction
    coset_verdict: MajorizationVerdict
    profile_verdict: MajorizationVerdict

    @property
    def advantage_direction(self) -> Direction:
        """Which side the NCPA advantages favor (lower is safer)."""
        return Direction.of_metric(
            self.advantage_left, self.advantage_right, higher_is_safer=False
        )

    @property
    def guesswork_direction(self) -> Direction:
        """Which side the conditional guessworks favor (higher is safer)."""
        return Direction.of_metric(
            self.guesswork_left, self.guesswork_right, higher_is_safer=True
        )


class LevelComparison(NamedTuple):
    """All tuple comparisons at one data complexity q, with aggregates."""

    q: int
    tuples: tuple[TupleComparison, ...]
    max_advantage_left: Fraction
    max_advantage_left_tuple: tuple[int, ...]
    max_advantage_right: Fraction
    max_advantage_right_tuple: tuple[int, ...]
    min_guesswork_left: Fraction
    min_guesswork_left_tuple: tuple[int, ...]
    min_guesswork_right: Fraction
    min_guesswork_right_tuple: tuple[int, ...]
    verdict: Direction


class ComparisonReport(NamedTuple):
    """Per-q metric values and ordering verdicts for a pair of ciphers:
    a ``Direction`` per level and one combined over all levels."""

    levels: tuple[LevelComparison, ...]
    overall: Direction


def _direction_of_verdict(v: MajorizationVerdict) -> Direction:
    if v.relation is Relation.EQUAL_UP_TO_PERMUTATION:
        return Direction.EQUAL
    if v.is_strictly_below:
        return Direction.LEFT
    if v.is_strictly_above:
        return Direction.RIGHT
    return Direction.MIXED


def _combine(directions: Sequence[Direction]) -> Direction:
    seen = set(directions) - {Direction.EQUAL}
    if len(seen) == 1:
        return seen.pop()
    return Direction.MIXED if seen else Direction.EQUAL


def _compare_at_tuple(
    blocks: list[list[int]],
    left: Sequence[int],
    right: Sequence[int],
    den: int,
    p: tuple[int, ...],
) -> TupleComparison:
    """Both ciphers' metrics at p from their integer numerators over ``den``
    and the tuple's image blocks."""
    prof_l = _profiles(blocks, left)
    prof_r = _profiles(blocks, right)
    masses_l = sorted(map(sum, prof_l), reverse=True)
    masses_r = sorted(map(sum, prof_r), reverse=True)
    sum_l = _column_sums(prof_l)
    sum_r = _column_sums(prof_r)
    return TupleComparison(
        points=p,
        advantage_left=_variation(masses_l, den),
        advantage_right=_variation(masses_r, den),
        guesswork_left=_guesswork(sum_l, den),
        guesswork_right=_guesswork(sum_r, den),
        coset_verdict=_verdict(masses_l, masses_r),
        profile_verdict=_verdict(sum_l, sum_r),
    )


def _check_q_max(group: GroupTable, q_max: int) -> None:
    """ValueError unless 0 <= q_max <= m, the message count of ``group``."""
    if not 0 <= q_max <= group.degree:
        raise ValueError(f"q_max {q_max} is outside 0..{group.degree} (the message count)")


def compare_q(left: CipherDist, right: CipherDist, q_max: int) -> ComparisonReport:
    """Compare two ciphers on the same group at every q from 0 to q_max.

    q = 0 is the zero-data-complexity row: the projection through the empty
    tuple, whose coset space is a single point and whose profile sum is the
    raw distribution.  Results are deterministic: tuples are visited in
    lexicographic order and aggregates keep the first extremal witness.

    A level's verdict combines every tuple's coset-mass and profile-sum
    majorization verdicts.  Advantage is Schur-convex and guesswork
    Schur-concave, so their per-tuple directions are ``EQUAL`` or agree
    with those verdicts, so the level verdict does not read them (the tests
    check that agreement).

    Both ciphers' stored numerators are scaled once to the lcm of their two
    denominators, and each tuple's image blocks are built once and used for
    both; everything per tuple runs on ``int``s except the four metric
    values, which are built as ``Fraction``s.
    """
    group = _require_same_group(left, right)
    m = group.degree
    _check_q_max(group, q_max)
    order = group.order
    left_nums, right_nums, den = _common_numerators(left, right)
    columns = _image_columns(group)
    levels = []
    for q in range(q_max + 1):
        rows = tuple(
            _compare_at_tuple(
                _image_blocks(columns, order, p), left_nums, right_nums, den, p
            )
            for p in distinct_tuples(m, q)
        )
        max_adv_l = max(rows, key=lambda r: r.advantage_left)
        max_adv_r = max(rows, key=lambda r: r.advantage_right)
        min_gw_l = min(rows, key=lambda r: r.guesswork_left)
        min_gw_r = min(rows, key=lambda r: r.guesswork_right)
        verdict = _combine(
            [
                _direction_of_verdict(v)
                for row in rows
                for v in (row.coset_verdict, row.profile_verdict)
            ]
        )
        levels.append(
            LevelComparison(
                q=q,
                tuples=rows,
                max_advantage_left=max_adv_l.advantage_left,
                max_advantage_left_tuple=max_adv_l.points,
                max_advantage_right=max_adv_r.advantage_right,
                max_advantage_right_tuple=max_adv_r.points,
                min_guesswork_left=min_gw_l.guesswork_left,
                min_guesswork_left_tuple=min_gw_l.points,
                min_guesswork_right=min_gw_r.guesswork_right,
                min_guesswork_right_tuple=min_gw_r.points,
                verdict=verdict,
            )
        )
    overall = _combine([lvl.verdict for lvl in levels])
    return ComparisonReport(tuple(levels), overall)
