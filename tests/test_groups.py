import random
import re
from itertools import combinations, permutations

import pytest

from cipherorder.groups import (
    DEFAULT_CAP,
    GroupSizeError,
    _check_size,
    _partition_with_block,
    closure,
    conjugate_subgroup,
    cyclic_group,
    double_coset,
    left_cosets,
    stabilizer,
    symmetric_group,
)
from cipherorder.perms import Permutation, transposition

from helpers import (
    apply,
    compose,
    cycle,
    enumerate_subgroup_oracle,
    identity,
    inverse,
    random_subgroup,
    union,
)

S3 = symmetric_group(3)
S4 = symmetric_group(4)
H01_TABLE = closure([transposition(3, 0, 1)])
H01 = S3.indices_of(H01_TABLE)


def test_closure_of_transposition():
    assert H01_TABLE.order == 2
    assert H01_TABLE.index(identity(3)) == 0


def test_closure_matches_brute_force_oracle():
    gens = [transposition(3, 0, 1), cycle(3, (0, 1, 2))]
    oracle = enumerate_subgroup_oracle(gens)
    built = closure(gens)
    assert set(built) == oracle
    assert built.order == 6


def test_closure_cap_exceeded():
    # the two generators make sym(9), 362880 elements
    with pytest.raises(GroupSizeError):
        closure([transposition(9, 0, 1), cycle(9, range(9))])


@pytest.mark.parametrize(
    "build, m, name",
    [
        (symmetric_group, 9, "sym(9)"),
        (symmetric_group, 200_000, "sym(200000)"),
        (cyclic_group, DEFAULT_CAP + 1, f"cyclic({DEFAULT_CAP + 1})"),
    ],
)
def test_known_order_over_cap_fails_before_enumerating(build, m, name):
    expected = f"{name} has more than {DEFAULT_CAP} elements, the group-size cap"
    with pytest.raises(GroupSizeError) as info:
        build(m)
    assert str(info.value) == expected


def test_entry_budget_fails_before_enumerating():
    # cyclic(m) stores m words of m points: under the element cap, over the
    # entry budget from m = 633 on; sym(8)'s 40,320 words of 8 fit
    _check_size("sym(8)", 40_320, 8)
    for m in (633, 4000, DEFAULT_CAP):
        expected = (
            f"cyclic({m}) has more than 400000 image entries (order x degree), "
            "the group-size cap"
        )
        with pytest.raises(GroupSizeError) as info:
            cyclic_group(m)
        assert str(info.value) == expected


def test_closure_empty_generators():
    with pytest.raises(ValueError):
        closure([])


def test_closure_degree_mismatch():
    with pytest.raises(ValueError):
        closure([identity(3), identity(4)])


def test_canonical_order_independent_of_generators():
    a = closure([transposition(3, 0, 1), cycle(3, (0, 1, 2))])
    b = closure([transposition(3, 1, 2), transposition(3, 0, 2)])
    assert a == b
    assert list(a) == list(b)


def test_closure_idempotent():
    again = closure(S3)
    assert again == S3
    assert list(again) == list(S3)


def test_right_products_match_compose():
    # seed 5 draws cyclic, two-generator, stabilizer and trivial subgroups
    rng = random.Random(5)
    subgroups = [random_subgroup(rng, S4) for _ in range(6)]
    for table in [S4] + [closure(map(S4.element, h)) for h in subgroups]:
        elements = list(table)
        row = table.right_products(range(table.order))
        for i, a in enumerate(elements):
            assert table.inverse(i) == table.index(inverse(a))
            assert row(i) == [table.index(compose(a, b)) for b in elements]


def test_index_rejects_non_members():
    # G.index is the one conversion of a permutation into an element of G,
    # and the one membership check
    c3 = closure([cycle(3, (0, 1, 2))])
    c4 = closure([cycle(4, (0, 1, 2, 3))])
    outsiders = (
        (S4, identity(3)),
        (S3, identity(4)),
        (c4, transposition(4, 0, 1)),
        (c3, transposition(3, 0, 1)),
    )
    for table, p in outsiders:
        message = rf"^{re.escape(str(p))} is not an element of this group$"
        with pytest.raises(ValueError, match=message):
            table.index(p)


def test_symmetric_group_is_lexicographic():
    assert S3.element(0) == identity(3)
    assert list(S3) == sorted(S3)


def test_left_cosets_whole_group():
    blocks = left_cosets(S3, tuple(range(S3.order)))
    assert len(blocks) == 1


def test_left_cosets_of_order_two_subgroup():
    blocks = left_cosets(S3, H01)
    assert len(blocks) == 3
    assert all(len(block) == 2 for block in blocks)
    covered = sorted(i for block in blocks for i in block)
    assert covered == list(range(6))
    # blocks are sorted and ordered by their minimal member
    assert all(list(block) == sorted(block) for block in blocks)
    assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
    for block in blocks:
        rep = S3.element(block[0])
        assert block == tuple(sorted(S3.index(compose(rep, b)) for b in H01_TABLE))


def test_left_cosets_of_trivial_subgroup():
    blocks = left_cosets(S3, S3.indices_of(closure([identity(3)])))
    assert len(blocks) == 6
    assert all(len(block) == 1 for block in blocks)


def test_left_cosets_are_built_once_per_table_and_subgroup():
    h = stabilizer(S4, (3,))
    blocks = left_cosets(S4, h)
    assert left_cosets(S4, h) is blocks
    assert left_cosets(S4, list(h)) is blocks
    # the cache is no part of the table's value
    fresh = symmetric_group(4)
    assert fresh == S4 and hash(fresh) == hash(S4)
    assert left_cosets(fresh, h) == blocks
    assert left_cosets(fresh, h) is not blocks


def test_left_cosets_are_kept_under_every_block():
    h = stabilizer(S4, (3,))
    blocks = left_cosets(S4, h)
    for block in blocks:
        assert _partition_with_block(S4, block) is blocks
    # a cached coset other than H is still no subgroup
    with pytest.raises(ValueError, match="not a subgroup"):
        left_cosets(S4, blocks[1])
    # a coset of a subgroup not built yet is found through s^-1 * block
    fresh = symmetric_group(4)
    assert _partition_with_block(fresh, blocks[2]) == blocks
    assert left_cosets(fresh, h) is _partition_with_block(fresh, blocks[2])
    assert _partition_with_block(S4, (0, 1, 4)) == ()


def is_closed(group, k):
    """Brute force: ``k`` is nonempty and closed under products."""
    members = {group.element(i) for i in k}
    return bool(k) and all(compose(a, b) in members for a in members for b in members)


def assert_left_cosets_accepts_iff_closed(group, k) -> bool:
    closed = is_closed(group, k)
    if closed:
        assert left_cosets(group, k)[0] == k
    else:
        with pytest.raises(ValueError, match="not a subgroup"):
            left_cosets(group, k)
    return closed


def test_left_cosets_accepts_exactly_the_subgroups():
    # every index set of S3; (0, 1, 4) contains the identity and tiles S3 by
    # left translates, but is not closed
    subgroups = 0
    for size in range(S3.order + 1):
        for k in combinations(range(S3.order), size):
            subgroups += assert_left_cosets_accepts_iff_closed(S3, k)
    assert subgroups == 6
    with pytest.raises(ValueError, match="not a subgroup"):
        left_cosets(S3, (0, 0, 1))
    # random subgroups of S4, and each with one element swapped for another
    rng = random.Random(11)
    for _ in range(40):
        h = random_subgroup(rng, S4)
        assert_left_cosets_accepts_iff_closed(S4, h)
        outside = sorted(set(range(S4.order)) - set(h))
        if outside:
            swapped = set(h) - {rng.choice(h)} | {rng.choice(outside)}
            assert_left_cosets_accepts_iff_closed(S4, tuple(sorted(swapped)))


def test_indices_of_rejects_a_table_outside_the_parent():
    c3 = closure([cycle(3, (0, 1, 2))])
    with pytest.raises(ValueError, match=r"^\[1,0,2\] is not an element of this group$"):
        c3.indices_of(H01_TABLE)
    with pytest.raises(ValueError, match=r"^\[0,1,2,3\] is not an element"):
        S3.indices_of(S4)
    assert S4.indices_of(S4) == tuple(range(S4.order))


def test_conjugate_by_identity():
    assert conjugate_subgroup(S3, S3.index(identity(3)), H01) == H01


def test_conjugate_transposition_example():
    conj = conjugate_subgroup(S3, S3.index(transposition(3, 1, 2)), H01)
    assert list(conj) == sorted(conj)
    assert set(map(S3.element, conj)) == {identity(3), transposition(3, 0, 2)}


def test_conjugate_moves_stabilized_point():
    pi = cycle(4, (0, 1, 2, 3))
    stab0 = stabilizer(S4, (0,))
    conj = conjugate_subgroup(S4, S4.index(pi), stab0)
    assert conj == stabilizer(S4, (apply(pi, 0),))


def test_stabilizer_examples():
    assert stabilizer(S3, ()) == tuple(range(S3.order))
    stab0 = stabilizer(S3, (0,))
    assert list(stab0) == sorted(stab0)
    assert set(map(S3.element, stab0)) == {identity(3), transposition(3, 1, 2)}
    assert len(stabilizer(S3, (0, 1))) == 1
    with pytest.raises(ValueError):
        stabilizer(S3, (0, 0))


def test_double_coset_collapses_for_pi_in_h():
    blocks = double_coset(S3, H01, S3.index(transposition(3, 0, 1)), H01)
    assert blocks == (H01,)


def test_double_coset_expands():
    pi = transposition(3, 1, 2)
    blocks = double_coset(S3, H01, S3.index(pi), H01)
    assert len(union(blocks)) == 4
    assert len(blocks) == 2
    # brute-force oracle: enumerate h * pi * h'
    oracle = {
        S3.index(compose(compose(a, pi), b)) for a in H01_TABLE for b in H01_TABLE
    }
    assert set(union(blocks)) == oracle


def test_double_coset_complement_of_stabilizer():
    stab2 = stabilizer(S3, (2,))
    hpih = union(double_coset(S3, stab2, S3.index(cycle(3, (0, 1, 2))), stab2))
    assert len(hpih) == 6 - 2  # 3! - 2!
    assert set(hpih) == set(range(6)) - set(stab2)


def test_double_coset_rejects_pi_outside_the_parent():
    # pi reaches double_coset as a parent index; the conversion refuses it
    with pytest.raises(ValueError, match="is not an element of this group"):
        double_coset(S3, H01, S3.index(identity(4)), H01)
    c3 = closure([cycle(3, (0, 1, 2))])
    trivial = c3.indices_of(closure([identity(3)]))
    with pytest.raises(ValueError, match=r"^\[1,0,2\] is not an element of this group$"):
        double_coset(c3, trivial, c3.index(transposition(3, 0, 1)), trivial)


H3 = stabilizer(S4, (3,))
PI_CALLS = {
    "conjugate_subgroup": lambda pi: conjugate_subgroup(S4, pi, H3),
    "double_coset": lambda pi: double_coset(S4, H3, pi, H3),
}


@pytest.mark.parametrize("name", list(PI_CALLS))
def test_pi_must_be_an_element_index(name):
    # -1 once conjugated by the last element, and 99 raised IndexError
    call = PI_CALLS[name]
    for pi in (-1, S4.order, 99):
        with pytest.raises(ValueError, match=f"^element index {pi} out of range$"):
            call(pi)
    for pi in (True, 1.0):
        with pytest.raises(TypeError, match=f"^element indices must be ints, got {pi}$"):
            call(pi)
    assert call(S4.order - 1)


def test_randomized_lagrange_and_orbit_stabilizer():
    rng = random.Random(7)
    for group in (S3, S4):
        for _ in range(25):
            h = random_subgroup(rng, group)
            k = random_subgroup(rng, group)
            p = rng.randrange(group.order)
            pi = group.element(p)
            h_elems = [group.element(i) for i in h]
            k_elems = [group.element(i) for i in k]
            assert group.order % len(h) == 0
            blocks = left_cosets(group, h)
            assert len(blocks) == group.order // len(h)
            covered = sorted(i for block in blocks for i in block)
            assert covered == list(range(group.order))

            dc_blocks = double_coset(group, h, p, k)
            stab = set(h) & set(conjugate_subgroup(group, p, k))
            assert len(dc_blocks) * len(stab) == len(h)
            in_blocks = union(dc_blocks)
            assert len(in_blocks) == len(set(in_blocks)) == len(dc_blocks) * len(k)
            oracle = {
                group.index(compose(compose(a, pi), b)) for a in h_elems for b in k_elems
            }
            assert set(in_blocks) == oracle
            assert [b[0] for b in dc_blocks] == sorted(b[0] for b in dc_blocks)
            for block in dc_blocks:
                rep = group.element(block[0])
                assert block == tuple(
                    sorted(group.index(compose(rep, b)) for b in k_elems)
                )


@pytest.mark.parametrize("m", range(1, 7))
def test_symmetric_group_equals_the_public_constructor(m):
    public = closure(Permutation(w) for w in permutations(range(m)))
    built = symmetric_group(m)
    assert built == public
    assert hash(built) == hash(public)
    assert built.words == public.words
    assert all(
        built.inverse(i) == built.index(inverse(g)) for i, g in enumerate(built)
    )


def assert_table(table, expected):
    """``table`` holds exactly the permutations ``expected``, in canonical
    order, and iterates them as built from its words."""
    assert set(table) == expected
    assert list(table.words) == sorted(table.words)
    assert list(table) == [Permutation(w) for w in table.words]


def assert_indices(group, indices, expected):
    """``indices`` are the sorted positions in ``group`` of exactly the
    permutations ``expected``."""
    assert indices == tuple(sorted(group.index(g) for g in expected))


def test_words_first_constructors_match_the_oracle():
    rng = random.Random(11)
    for group in (S3, S4, symmetric_group(5)):
        for _ in range(6):
            h, k = random_subgroup(rng, group), random_subgroup(rng, group)
            gens = [group.element(rng.randrange(group.order)) for _ in range(2)]
            assert_table(closure(gens), enumerate_subgroup_oracle(gens))

            p = rng.randrange(group.order)
            pi = group.element(p)
            h_elems = [group.element(i) for i in h]
            conj = [compose(compose(pi, a), inverse(pi)) for a in h_elems]
            assert_indices(
                group, conjugate_subgroup(group, p, h), enumerate_subgroup_oracle(conj)
            )

            # intersection is a set operation on parent indices
            both = [g for g in h_elems if group.index(g) in k]
            both_indices = tuple(sorted(set(h) & set(k)))
            assert_indices(group, both_indices, enumerate_subgroup_oracle(both))

            points = tuple(rng.sample(range(group.degree), rng.randrange(3)))
            fixing = [g for g in group if all(g.images[q] == q for q in points)]
            assert_indices(
                group, stabilizer(group, points), enumerate_subgroup_oracle(fixing)
            )
