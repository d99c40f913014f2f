import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipherorder.dist import (
    CipherDist,
    convolve,
    deterministic,
    translate,
    uniform_on,
)
from cipherorder.groups import (
    closure,
    cyclic_group,
    left_cosets,
    stabilizer,
    symmetric_group,
)
from cipherorder.majorize import MajorizationVerdict, Relation, compare
from cipherorder.metrics import guesswork
from cipherorder.perms import Permutation, transposition
from cipherorder.qsecurity import (
    ComparisonReport,
    Direction,
    LevelComparison,
    TupleComparison,
    _image_blocks,
    _image_columns,
    _profiles,
    compare_q,
    conditional_guesswork_oracle,
    distinct_tuples,
)

from helpers import (
    compare_q_oracle,
    compose,
    conditional_guesswork_posterior,
    dist_over,
    inverse,
    project_oracle,
    random_dist,
    random_dist_on,
    random_subgroup,
    variation_to_uniform_oracle,
)

F = Fraction
S3 = symmetric_group(3)
S4 = symmetric_group(4)
S5 = symmetric_group(5)
C6 = cyclic_group(6)
H01 = S3.indices_of(closure([transposition(3, 0, 1)]))
PI = S3.index(transposition(3, 1, 2))


def test_distinct_tuples():
    assert distinct_tuples(3, 1) == [(0,), (1,), (2,)]
    assert len(distinct_tuples(3, 2)) == 6
    assert distinct_tuples(3, 2) == sorted(distinct_tuples(3, 2))
    with pytest.raises(ValueError):
        distinct_tuples(3, 4)
    with pytest.raises(ValueError):
        distinct_tuples(3, -1)
    assert distinct_tuples(3, 0) == [()]


def rows_of(x: CipherDist, q: int) -> dict[tuple[int, ...], TupleComparison]:
    """The level-q rows of x compared with itself, keyed by tuple."""
    return {tc.points: tc for tc in compare_q(x, x, q).levels[q].tuples}


def test_project_uniform_spreads_evenly():
    x = uniform_on(S3, range(6))
    masses, _ = project_oracle(x, (0,))
    assert masses == (F(1, 3),) * 3
    assert rows_of(x, 1)[(0,)].advantage_left == 0


def test_project_deterministic_hits_one_coset():
    x = deterministic(S3, PI)
    masses, _ = project_oracle(x, (0,))
    assert sorted(masses, reverse=True) == [F(1), F(0), F(0)]
    # the live path sees the same coset masses as the point mass at (0,)
    row = compare_q(x, uniform_on(S3, range(6)), 1).levels[1].tuples[0]
    assert row.points == (0,)
    assert row.advantage_left == F(2, 3)
    assert row.coset_verdict.is_strictly_above


def test_project_stabilizer_supported_cipher():
    x = uniform_on(S3, stabilizer(S3, (0,)))
    masses, _ = project_oracle(x, (0,))
    assert masses == (F(1), F(0), F(0))
    row = compare_q(x, deterministic(S3, PI), 1).levels[1].tuples[0]
    assert row.points == (0,)
    assert row.coset_verdict.relation is Relation.EQUAL_UP_TO_PERMUTATION
    assert row.advantage_left == row.advantage_right == F(2, 3)


def test_project_conserves_mass_and_profiles():
    rng = random.Random(4)
    for group, q in ((S3, 1), (S3, 2), (S4, 2)):
        columns = _image_columns(group)
        for _ in range(5):
            x = random_dist(rng, group)
            for p in distinct_tuples(group.degree, q):
                profiles = _profiles(_image_blocks(columns, group.order, p), x.nums)
                assert sum(map(sum, profiles)) == x.den
                flat = sorted((v for prof in profiles for v in prof), reverse=True)
                assert flat == sorted(x.nums, reverse=True)
                for prof in profiles:
                    assert prof == sorted(prof, reverse=True)
                masses, profile_sum = project_oracle(x, p)
                assert [F(sum(prof), x.den) for prof in profiles] == list(masses)
                assert [
                    F(sum(col), x.den) for col in zip(*profiles)
                ] == list(profile_sum)


def all_tuples(m):
    return [p for q in range(m + 1) for p in distinct_tuples(m, q)]


def test_image_blocks_are_left_cosets_in_order():
    rng = random.Random(17)
    for group in (S3, S4):
        columns = _image_columns(group)
        for p in all_tuples(group.degree):
            blocks = _image_blocks(columns, group.order, p)
            cosets = left_cosets(group, stabilizer(group, p))
            assert [tuple(block) for block in blocks] == list(cosets)
        for _ in range(3):
            x = random_dist_on(rng, group, random_subgroup(rng, group))
            for p in all_tuples(group.degree):
                blocks = left_cosets(group, stabilizer(group, p))
                masses, _ = project_oracle(x, p)
                assert masses == tuple(
                    sum((x.mass[i] for i in block), F(0)) for block in blocks
                )
                assert _profiles(_image_blocks(columns, group.order, p), x.nums) == [
                    sorted((x.nums[i] for i in block), reverse=True)
                    for block in blocks
                ]


def test_project_rejects_bad_tuples():
    x = uniform_on(S3, range(6))
    with pytest.raises(ValueError):
        conditional_guesswork_oracle(x, (0, 0))
    with pytest.raises(ValueError):
        conditional_guesswork_oracle(x, (3,))


def test_ncpa_advantage_examples():
    assert rows_of(uniform_on(S3, range(6)), 1)[(0,)].advantage_left == 0
    assert rows_of(deterministic(S3, PI), 1)[(0,)].advantage_left == F(2, 3)
    rows = rows_of(uniform_on(S3, H01), 1)
    # querying the point H moves splits the mass over two cosets; querying
    # the point H fixes pins the coset completely
    assert rows[(0,)].advantage_left == F(1, 3)
    assert rows[(2,)].advantage_left == F(2, 3)


def max_advantage(x: CipherDist, q: int) -> tuple[Fraction, tuple[int, ...]]:
    level = compare_q(x, x, q).levels[q]
    return level.max_advantage_left, level.max_advantage_left_tuple


def test_max_ncpa_advantage():
    assert max_advantage(uniform_on(S3, range(6)), 1) == (F(0), (0,))
    value, witness = max_advantage(deterministic(S3, PI), 1)
    assert value == F(2, 3)
    assert witness == (0,)
    # the triple product T of the S3 expansion: brute-force over all tuples
    x = uniform_on(S3, H01)
    t = convolve(x, convolve(deterministic(S3, PI), x))
    best, _ = max_advantage(t, 1)
    assert best == max(
        variation_to_uniform_oracle(project_oracle(t, p)[0])
        for p in distinct_tuples(3, 1)
    )


def test_max_advantage_nondecreasing_in_q():
    rng = random.Random(8)
    for group in (S3, S4):
        for _ in range(5):
            x = random_dist(rng, group)
            levels = compare_q(x, x, 2).levels
            assert levels[1].max_advantage_left <= levels[2].max_advantage_left


def test_conditional_guesswork_examples():
    assert rows_of(deterministic(S3, PI), 1)[(0,)].guesswork_left == 1
    assert rows_of(uniform_on(S3, range(6)), 1)[(0,)].guesswork_left == F(3, 2)
    stab_cipher = uniform_on(S3, stabilizer(S3, (0,)))
    assert rows_of(stab_cipher, 1)[(0,)].guesswork_left == F(3, 2)


def test_conditional_guesswork_oracle_examples():
    assert conditional_guesswork_oracle(deterministic(S3, PI), (0,)) == 1
    assert conditional_guesswork_oracle(uniform_on(S3, range(6)), (0,)) == F(3, 2)
    u4 = uniform_on(S4, range(24))
    assert rows_of(u4, 2)[(0, 1)].guesswork_left == conditional_guesswork_oracle(
        u4, (0, 1)
    )


def test_oracle_equivalence_randomized():
    rng = random.Random(31)
    for group, qs in ((S3, (1, 2)), (S4, (1, 2))):
        for _ in range(6):
            x = random_dist(rng, group)
            for q in qs:
                for p, tc in rows_of(x, q).items():
                    assert tc.guesswork_left == conditional_guesswork_oracle(x, p)
                    assert tc.guesswork_right == tc.guesswork_left


def test_conditional_guesswork_oracle_equals_the_posterior_definition():
    rng = random.Random(41)
    for group, q_max in ((S3, 3), (S4, 3), (S5, 2)):
        for kind in KINDS:
            x = _oracle_case(rng, group, kind)
            for q in range(q_max + 1):
                for p in distinct_tuples(group.degree, q):
                    assert conditional_guesswork_oracle(
                        x, p
                    ) == conditional_guesswork_posterior(x, p)


def test_conditional_guesswork_bounds():
    rng = random.Random(12)
    for _ in range(10):
        x = random_dist(rng, S4)
        for p, tc in rows_of(x, 1).items():
            stab_order = len(stabilizer(S4, p))
            assert 1 <= tc.guesswork_left <= F(stab_order + 1, 2)
    u = uniform_on(S4, range(24))
    for p, tc in rows_of(u, 2).items():
        assert tc.guesswork_left == F(len(stabilizer(S4, p)) + 1, 2)


def test_compare_q_self_is_equivalent():
    x = uniform_on(S3, H01)
    report = compare_q(x, x, 2)
    assert report.overall == "equivalent"
    assert all(level.verdict == "equivalent" for level in report.levels)


def test_compare_q_deterministic():
    rng = random.Random(55)
    left = random_dist(rng, S3)
    right = random_dist(rng, S3)
    assert compare_q(left, right, 2) == compare_q(left, right, 2)


def test_compare_q_rejects_mismatches():
    with pytest.raises(ValueError):
        compare_q(uniform_on(S3, range(6)), uniform_on(S4, range(24)), 1)
    for q_max in (4, -1):
        with pytest.raises(ValueError):
            compare_q(uniform_on(S3, range(6)), uniform_on(S3, range(6)), q_max)


def test_compare_q_expansion_pair_directions():
    x = uniform_on(S3, H01)
    t = convolve(x, convolve(deterministic(S3, PI), x))
    d = convolve(x, x)
    report = compare_q(t, d, 3)
    assert report.overall == "left-no-less-secure"
    for level in report.levels:
        assert level.verdict in ("left-no-less-secure", "equivalent")
        for tc in level.tuples:
            assert tc.advantage_left <= tc.advantage_right
            assert tc.guesswork_left >= tc.guesswork_right
    # reversed pair mirrors
    assert compare_q(d, t, 3).overall == "right-no-less-secure"


def test_compare_q_zero_level_is_raw_comparison():
    x = uniform_on(S3, H01)
    t = convolve(x, convolve(deterministic(S3, PI), x))
    report = compare_q(t, x, 0)
    level = report.levels[0]
    assert level.q == 0
    tc = level.tuples[0]
    assert tc.advantage_left == tc.advantage_right == 0
    assert tc.guesswork_left == guesswork(t.mass)
    assert tc.profile_verdict.relation is compare(t.mass, x.mass).relation


def test_product_ordering_consequence_randomized():
    rng = random.Random(99)
    for group, qs in ((S3, (1, 2)), (S4, (1, 2))):
        for _ in range(8):
            x = random_dist(rng, group)
            y = random_dist(rng, group)
            z = convolve(x, y)
            levels = compare_q(z, y, max(qs)).levels
            for q in qs:
                assert len(levels[q].tuples) == len(distinct_tuples(group.degree, q))
                for tc in levels[q].tuples:
                    assert tc.coset_verdict.is_below
                    assert tc.profile_verdict.is_below
                    assert tc.guesswork_left >= tc.guesswork_right
                    assert tc.advantage_left <= tc.advantage_right


MAJORIZATION_DIRECTION = {
    Relation.EQUAL_UP_TO_PERMUTATION: Direction.EQUAL,
    Relation.STRICTLY_BELOW: Direction.LEFT,
    Relation.STRICTLY_ABOVE: Direction.RIGHT,
    Relation.INCOMPARABLE: Direction.MIXED,
    Relation.NORM_MISMATCH: Direction.MIXED,
}


def four_direction_verdict(level) -> Direction:
    """The level rule that also counts both metric directions: every tuple's
    advantage, guesswork, coset and profile directions, combined."""
    seen = set()
    for tc in level.tuples:
        seen |= {
            tc.advantage_direction,
            tc.guesswork_direction,
            MAJORIZATION_DIRECTION[tc.coset_verdict.relation],
            MAJORIZATION_DIRECTION[tc.profile_verdict.relation],
        }
    seen.discard(Direction.EQUAL)
    if len(seen) == 1:
        return seen.pop()
    return Direction.MIXED if seen else Direction.EQUAL


def test_metric_directions_follow_majorization_verdicts():
    rng = random.Random(61)
    verdicts = set()
    for group in (S3, S4):
        for _ in range(6):
            x = random_dist(rng, group)
            y = random_dist(rng, group)
            xs, ys = (
                random_dist_on(rng, group, random_subgroup(rng, group))
                for _ in range(2)
            )
            g, h = (deterministic(group, rng.randrange(group.order)) for _ in range(2))
            for left, right in ((x, y), (xs, ys), (convolve(x, y), y), (g, h)):
                report = compare_q(left, right, group.degree)
                for level in report.levels:
                    for tc in level.tuples:
                        coset = MAJORIZATION_DIRECTION[tc.coset_verdict.relation]
                        profile = MAJORIZATION_DIRECTION[tc.profile_verdict.relation]
                        if coset is not Direction.MIXED:
                            assert tc.advantage_direction in (Direction.EQUAL, coset)
                        if profile is not Direction.MIXED:
                            assert tc.guesswork_direction in (Direction.EQUAL, profile)
                    assert level.verdict is four_direction_verdict(level)
                    verdicts.add(level.verdict)
    assert verdicts == set(Direction)


def relabel(x: CipherDist, sigma: Permutation) -> CipherDist:
    """x with the message space renamed by sigma: mass at sigma g sigma^-1."""
    group = x.group
    mass = [F(0)] * group.order
    for g, m in zip(group, x.mass):
        mass[group.index(compose(compose(sigma, g), inverse(sigma)))] = m
    return CipherDist(group, tuple(mass))


def test_compare_q_invariant_under_relabelling():
    rng = random.Random(23)
    x = uniform_on(S4, stabilizer(S4, (3,)))
    y = deterministic(S4, S4.index(transposition(4, 2, 3)))
    pairs = [(convolve(x, convolve(y, x)), convolve(x, x))]
    for group in (S3, S4):
        for _ in range(4):
            pairs.append(
                tuple(
                    random_dist_on(rng, group, random_subgroup(rng, group))
                    for _ in range(2)
                )
            )
    seen = set()
    for left, right in pairs:
        group = left.group
        base = compare_q(left, right, group.degree)
        for _ in range(2):
            sigma = group.element(rng.randrange(group.order))
            moved = compare_q(relabel(left, sigma), relabel(right, sigma), group.degree)
            assert moved.overall == base.overall
            for a, b in zip(base.levels, moved.levels):
                assert a.verdict == b.verdict
                assert a.max_advantage_left == b.max_advantage_left
                assert a.max_advantage_right == b.max_advantage_right
                assert a.min_guesswork_left == b.min_guesswork_left
                assert a.min_guesswork_right == b.min_guesswork_right
        seen.update(level.verdict for level in base.levels)
    assert len(seen) >= 3


def _oracle_case(rng: random.Random, group, kind: str) -> CipherDist:
    if kind == "full":
        return random_dist(rng, group)
    if kind == "subgroup":
        return random_dist_on(rng, group, random_subgroup(rng, group))
    if kind == "point":
        return deterministic(group, rng.randrange(group.order))
    # a product: subgroup-supported factors around a point mass
    a = random_dist_on(rng, group, random_subgroup(rng, group))
    b = random_dist_on(rng, group, random_subgroup(rng, group))
    return convolve(a, convolve(deterministic(group, rng.randrange(group.order)), b))


KINDS = ("full", "subgroup", "point", "product")


@pytest.mark.parametrize(
    "group, q_max", [(S3, 3), (S4, 4), (S5, 3)], ids=["S3", "S4", "S5"]
)
def test_compare_q_equals_fraction_oracle(group, q_max):
    rng = random.Random(group.order)
    pairs = [
        (_oracle_case(rng, group, a), _oracle_case(rng, group, b))
        for a in KINDS
        for b in KINDS
        if group.order < 120 or a == b
    ]
    # pairwise coprime denominators: the common one exceeds both sides' own
    pairs += [
        (dist_over(rng, group, 32), dist_over(rng, group, 27)),
        (dist_over(rng, group, 25), dist_over(rng, group, 49)),
    ]
    for left, right in pairs:
        assert compare_q(left, right, q_max) == compare_q_oracle(left, right, q_max)


def mirror_verdict(v: MajorizationVerdict) -> MajorizationVerdict:
    """The verdict of (y, x) given that of (x, y)."""
    relation = {
        Relation.STRICTLY_BELOW: Relation.STRICTLY_ABOVE,
        Relation.STRICTLY_ABOVE: Relation.STRICTLY_BELOW,
    }.get(v.relation, v.relation)
    prefix = v.witness_prefix[::-1] if v.witness_prefix is not None else None
    return MajorizationVerdict(relation, prefix)


def mirror_direction(d: Direction) -> Direction:
    return {Direction.LEFT: Direction.RIGHT, Direction.RIGHT: Direction.LEFT}.get(d, d)


def mirror_report(report: ComparisonReport) -> ComparisonReport:
    """The report of (right, left) predicted from that of (left, right)."""
    levels = tuple(
        LevelComparison(
            q=lvl.q,
            tuples=tuple(
                TupleComparison(
                    points=tc.points,
                    advantage_left=tc.advantage_right,
                    advantage_right=tc.advantage_left,
                    guesswork_left=tc.guesswork_right,
                    guesswork_right=tc.guesswork_left,
                    coset_verdict=mirror_verdict(tc.coset_verdict),
                    profile_verdict=mirror_verdict(tc.profile_verdict),
                )
                for tc in lvl.tuples
            ),
            max_advantage_left=lvl.max_advantage_right,
            max_advantage_left_tuple=lvl.max_advantage_right_tuple,
            max_advantage_right=lvl.max_advantage_left,
            max_advantage_right_tuple=lvl.max_advantage_left_tuple,
            min_guesswork_left=lvl.min_guesswork_right,
            min_guesswork_left_tuple=lvl.min_guesswork_right_tuple,
            min_guesswork_right=lvl.min_guesswork_left,
            min_guesswork_right_tuple=lvl.min_guesswork_left_tuple,
            verdict=mirror_direction(lvl.verdict),
        )
        for lvl in report.levels
    )
    return ComparisonReport(levels, mirror_direction(report.overall))


def test_compare_q_swapped_sides_mirror_the_report():
    rng = random.Random(7)
    rows = 0
    relations = set()
    for group in (S3, S4):
        for _ in range(3):
            subgroup_pair = [
                random_dist_on(rng, group, random_subgroup(rng, group))
                for _ in range(2)
            ]
            full_pair = [random_dist(rng, group) for _ in range(2)]
            for a, b in (subgroup_pair, full_pair):
                forward = compare_q(a, b, group.degree)
                assert compare_q(b, a, group.degree) == mirror_report(forward)
                for level in forward.levels:
                    rows += len(level.tuples)
                    for tc in level.tuples:
                        relations |= {
                            tc.coset_verdict.relation,
                            tc.profile_verdict.relation,
                        }
    assert rows == 486
    assert {
        Relation.STRICTLY_BELOW,
        Relation.STRICTLY_ABOVE,
        Relation.INCOMPARABLE,
    } <= relations


@st.composite
def cipher_pairs(draw):
    """A group among S3-S5, two ciphers of any ``KINDS`` on it and an element
    index."""
    group = draw(st.sampled_from([S3, S4, S5]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    x, y = (_oracle_case(rng, group, draw(st.sampled_from(KINDS))) for _ in range(2))
    return x, y, draw(st.integers(0, group.order - 1))


def q_max_of(x: CipherDist) -> int:
    return min(x.group.degree, 3)


@settings(max_examples=25, deadline=None)
@given(cipher_pairs())
def test_compare_q_unchanged_by_left_translating_one_side(case):
    # the images of p under a*g are a's relabelling of those under g
    x, y, a = case
    base = compare_q(x, y, q_max_of(x))
    assert compare_q(translate(a, x), y, q_max_of(x)) == base
    assert compare_q(x, translate(a, y), q_max_of(x)) == base


def rows_follow_right_translation(
    base: ComparisonReport, moved: ComparisonReport, word: tuple[int, ...]
) -> bool:
    """Whether ``moved`` is ``base`` with the row at g(p) moved to p, where
    ``word`` is g's, and the same level verdicts and extremal values."""
    for old, new in zip(base.levels, moved.levels):
        rows = {tc.points: tc for tc in old.tuples}
        for tc in new.tuples:
            if rows[tuple(word[i] for i in tc.points)]._replace(points=tc.points) != tc:
                return False
        if extremes(old) != extremes(new):
            return False
    return base.overall == moved.overall


def extremes(level: LevelComparison) -> tuple:
    return (
        level.verdict,
        level.max_advantage_left,
        level.max_advantage_right,
        level.min_guesswork_left,
        level.min_guesswork_right,
    )


@settings(max_examples=25, deadline=None)
@given(cipher_pairs())
def test_compare_q_rows_move_under_right_translating_both_sides(case):
    # the images of p under h*g are those of g(p) under h
    x, y, g = case
    point = deterministic(x.group, g)
    base = compare_q(x, y, q_max_of(x))
    moved = compare_q(convolve(x, point), convolve(y, point), q_max_of(x))
    assert rows_follow_right_translation(base, moved, x.group.words[g])


def test_right_translating_one_side_breaks_the_relation():
    # negative control: the relation above is not met by any pair of reports
    rng = random.Random(29)
    broken = 0
    for _ in range(10):
        x, y = (_oracle_case(rng, S4, "subgroup") for _ in range(2))
        g = rng.randrange(S4.order)
        base = compare_q(x, y, 3)
        moved = compare_q(convolve(x, deterministic(S4, g)), y, 3)
        broken += not rows_follow_right_translation(base, moved, S4.words[g])
    assert broken


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([S3, S4, S5, C6]), st.integers(0, 2**32))
def test_compare_q_row_depends_only_on_the_point_set(group, seed):
    # g(p) = h(p) iff h^-1 g fixes every point of p, which depends only on
    # the set of p's points: every ordering of p gives the same image blocks
    rng = random.Random(seed)
    left, right = random_dist(rng, group), random_dist(rng, group)
    for level in compare_q(left, right, min(group.degree, 3)).levels:
        rows = {tc.points: tc for tc in level.tuples}
        for tc in level.tuples:
            assert rows[tuple(sorted(tc.points))]._replace(points=tc.points) == tc
