"""Security at data complexity q: tuple actions, image projections, orderings.

An adversary holding the images g(p) of a q-tuple p of distinct plaintexts
knows the realized permutation g only up to its left coset of Stab(p).
``project`` groups a distribution by g(p) in one pass, yielding the vector
behind both q-query metrics: NCPA advantage (variation distance of the coset
masses from uniform) and conditional guesswork (guesswork of the summed
sorted per-coset profiles).  Every verdict is a ``Direction``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dist import CipherDist
from .groups import check_points
from .majorize import MajorizationVerdict, Relation, compare
from .metrics import guesswork, variation_to_uniform

_ZERO = Fraction(0)


def distinct_tuples(m: int, q: int) -> list[tuple[int, ...]]:
    """All ordered q-tuples of distinct points of {0..m-1}, lexicographic."""
    if not 1 <= q <= m:
        raise ValueError(f"q must satisfy 1 <= q <= {m}, got {q}")
    return list(itertools.permutations(range(m), q))


@dataclass(frozen=True)
class ImageProjection:
    """A cipher distribution seen through the images of one plaintext tuple.

    Blocks are keyed by the image tuple g(p), so each is a left coset of
    Stab(p); they come in the order of their lexicographically minimal member.
    ``coset_masses[i]`` is the i-th block's mass and ``coset_profiles[i]`` its
    sub-distribution sorted decreasingly.
    """

    coset_masses: tuple[Fraction, ...]
    coset_profiles: tuple[tuple[Fraction, ...], ...]

    def profile_sum(self) -> tuple[Fraction, ...]:
        """Componentwise sum of the sorted per-coset profiles (a probability
        vector; its guesswork is the conditional guesswork)."""
        return tuple(sum(col, _ZERO) for col in zip(*self.coset_profiles))


def project(x: CipherDist, p: tuple[int, ...]) -> ImageProjection:
    """Project a distribution onto the left cosets of Stab(p), i.e. group its
    masses by image tuple g(p), visiting g in canonical order."""
    check_points(p, x.group.degree)
    by_image: dict[tuple[int, ...], list[Fraction]] = {}
    for w, mass in zip(x.group.words, x.mass):
        by_image.setdefault(tuple([w[q] for q in p]), []).append(mass)
    profiles = tuple(tuple(sorted(b, reverse=True)) for b in by_image.values())
    masses = tuple(sum(prof, _ZERO) for prof in profiles)
    return ImageProjection(masses, profiles)


def ncpa_advantage(x: CipherDist, p: tuple[int, ...]) -> Fraction:
    """Nonadaptive chosen-plaintext advantage for the tuple p: the variation
    distance of the coset-mass vector from uniform over the coset space."""
    return variation_to_uniform(project(x, p).coset_masses)


def max_ncpa_advantage(
    x: CipherDist, q: int
) -> tuple[Fraction, tuple[int, ...]]:
    """Maximum advantage over all distinct q-tuples, with the
    lexicographically first maximizing tuple."""
    best = None
    witness = None
    for p in distinct_tuples(x.group.degree, q):
        adv = ncpa_advantage(x, p)
        if best is None or adv > best:
            best, witness = adv, p
    assert best is not None and witness is not None
    return best, witness


def conditional_guesswork(x: CipherDist, p: tuple[int, ...]) -> Fraction:
    """Expected optimal guesses for the realized permutation given the
    images of p: the guesswork of the summed sorted coset profiles."""
    return guesswork(project(x, p).profile_sum())


def conditional_guesswork_oracle(x: CipherDist, p: tuple[int, ...]) -> Fraction:
    """Brute-force reference: group permutations by their actual image of p,
    sort each group's posterior decreasingly, and sum the per-ciphertext
    optimal guess counts weighted by the ciphertext probability.

    Independent of the coset machinery; must agree with
    ``conditional_guesswork`` exactly.
    """
    group = x.group
    check_points(p, group.degree)
    pt = tuple(p)
    by_image: dict[tuple[int, ...], list[Fraction]] = {}
    for i, g in enumerate(group.elements):
        by_image.setdefault(g.apply(pt), []).append(x.mass[i])
    total = _ZERO
    for masses in by_image.values():
        prob = sum(masses, _ZERO)
        if prob == 0:
            continue
        posterior = sorted((m / prob for m in masses), reverse=True)
        expected = sum(
            (Fraction(i) * v for i, v in enumerate(posterior, start=1)), _ZERO
        )
        total += prob * expected
    return total


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


@dataclass(frozen=True)
class TupleComparison:
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


@dataclass(frozen=True)
class LevelComparison:
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


@dataclass(frozen=True)
class ComparisonReport:
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
    left: CipherDist, right: CipherDist, p: tuple[int, ...]
) -> TupleComparison:
    proj_l = project(left, p)
    proj_r = project(right, p)
    sum_l = proj_l.profile_sum()
    sum_r = proj_r.profile_sum()
    return TupleComparison(
        points=tuple(p),
        advantage_left=variation_to_uniform(proj_l.coset_masses),
        advantage_right=variation_to_uniform(proj_r.coset_masses),
        guesswork_left=guesswork(sum_l),
        guesswork_right=guesswork(sum_r),
        coset_verdict=compare(proj_l.coset_masses, proj_r.coset_masses),
        profile_verdict=compare(sum_l, sum_r),
    )


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
    """
    if left.group != right.group:
        raise ValueError("ciphers live on different groups")
    m = left.group.degree
    if not 0 <= q_max <= m:
        raise ValueError(f"q_max {q_max} is outside 0..{m} (the message count)")
    levels = []
    for q in range(q_max + 1):
        tuples = [()] if q == 0 else distinct_tuples(m, q)
        rows = tuple(_compare_at_tuple(left, right, p) for p in tuples)
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
