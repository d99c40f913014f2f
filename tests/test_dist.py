import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from cipherorder.dist import (
    CipherDist,
    convolve,
    convolve_all,
    deterministic,
    translate,
    triple_decompose,
    uniform_on,
)
from cipherorder.groups import (
    GroupTable,
    closure,
    cyclic_group,
    double_coset,
    left_cosets,
    stabilizer,
    symmetric_group,
)
from cipherorder.majorize import Relation, compare
from cipherorder.perms import transposition

from helpers import (
    compose,
    convolve_oracle,
    cycle,
    dist_over,
    identity,
    random_dist,
    random_dist_on,
    random_subgroup,
    set_product_support,
    union,
)

S3 = symmetric_group(3)
S4 = symmetric_group(4)
H01 = S3.indices_of(closure([transposition(3, 0, 1)]))
PI = transposition(3, 1, 2)
P = S3.index(PI)
ID3 = S3.index(identity(3))


def weights(decomp):
    """The decomposition's weights as ``Fraction``s."""
    return tuple(Fraction(w, decomp.weight_den) for w in decomp.weight_nums)


def test_public_constructor_contract():
    # values and types of the accessors, for the public constructor and for
    # distributions the library builds
    masses = tuple(Fraction(n, 6) for n in (3, 0, 2, 0, 1, 0))
    public = CipherDist(S3, masses)
    point = deterministic(S3, P)
    point_masses = tuple(Fraction(int(g == PI)) for g in S3)
    for x, want in ((public, masses), (point, point_masses)):
        assert x.group is S3 and type(x.group) is GroupTable
        assert x.mass == want and all(type(m) is Fraction for m in x.mass)
        for g, m in zip(S3, want):
            assert x.mass[S3.index(g)] == m and type(x.mass[S3.index(g)]) is Fraction
        support = tuple(i for i, m in enumerate(want) if m)
        assert x.support() == support and all(type(i) is int for i in support)
        assert x.support_size() == len(support) and type(x.support_size()) is int
    # integer masses are read as Fractions, and the stored form is reduced
    ints = CipherDist(S3, (1, 0, 0, 0, 0, 0))
    assert ints == deterministic(S3, 0)
    assert all(type(m) is Fraction for m in ints.mass)
    assert (public.nums, public.den) == ((3, 0, 2, 0, 1, 0), 6)


def test_from_numerators_reduces_and_checks():
    x = CipherDist.from_numerators(S3, [4, 0, 2, 0, 0, 6], 12)
    assert (x.nums, x.den) == ((2, 0, 1, 0, 0, 3), 6)
    assert x == CipherDist(S3, tuple(Fraction(n, 6) for n in (2, 0, 1, 0, 0, 3)))
    with pytest.raises(ValueError, match="mass length"):
        CipherDist.from_numerators(S3, [1], 1)
    with pytest.raises(ValueError, match="nonnegative"):
        CipherDist.from_numerators(S3, [2, -1, 0, 0, 0, 0], 1)
    with pytest.raises(ValueError, match="sum to 1"):
        CipherDist.from_numerators(S3, [1, 1, 0, 0, 0, 0], 1)


def test_cipher_dist_value_semantics():
    x = CipherDist(S3, (Fraction(1, 2), 0, 0, 0, 0, Fraction(1, 2)))
    for field in ("group", "nums", "den", "mass"):
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
    with pytest.raises(AttributeError):
        del x.nums
    # equal values from separately built groups and constructors
    same = CipherDist.from_numerators(symmetric_group(3), [2, 0, 0, 0, 0, 2], 4)
    assert same is not x and same.group is not x.group
    assert same == x and hash(same) == hash(x)
    assert x != deterministic(S3, 0) and x != (x.group, x.nums, x.den)
    assert repr(x) == f"CipherDist(group={S3!r}, nums=(1, 0, 0, 0, 0, 1), den=2)"
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x
    # the Fraction view is built once, on first read
    assert x.mass is x.mass


def test_cipher_dist_validation():
    with pytest.raises(ValueError, match=r"^mass length 2 != group order 6$"):
        CipherDist(S3, (Fraction(1),) * 2)
    with pytest.raises(ValueError, match=r"^masses must sum to 1, got 3$"):
        CipherDist(S3, tuple([Fraction(1, 2)] * 6))
    with pytest.raises(ValueError, match=r"^masses must be nonnegative$"):
        CipherDist(S3, (Fraction(2), Fraction(-1)) + (Fraction(0),) * 4)


def test_uniform_on_examples():
    full = uniform_on(S3, range(6))
    assert all(m == Fraction(1, 6) for m in full.mass)
    half = uniform_on(S3, H01)
    assert sorted(half.mass, reverse=True)[:2] == [Fraction(1, 2)] * 2
    with pytest.raises(ValueError):
        uniform_on(S3, [])


def test_deterministic_examples():
    e = deterministic(S3, ID3)
    assert e.mass[ID3] == 1
    point = deterministic(S3, P)
    assert point.support() == (P,)
    for outside in (-1, S3.order):
        with pytest.raises(ValueError, match="out of range"):
            deterministic(S3, outside)


def test_element_indices_are_ints():
    # a bool or a float index is refused, not read as the int it equals
    x = random_dist(random.Random(3), S3)
    for bad in (True, 1.0, 2.0):
        with pytest.raises(TypeError, match="element indices must be ints"):
            uniform_on(S3, [bad])
        with pytest.raises(TypeError, match="element indices must be ints"):
            deterministic(S3, bad)
        with pytest.raises(TypeError, match="element indices must be ints"):
            translate(bad, x)
    # also when it equals an int index beside it
    with pytest.raises(TypeError, match="element indices must be ints"):
        uniform_on(S3, [1, True])


def test_convolution_unit_laws():
    x = random_dist(random.Random(1), S3)
    e = deterministic(S3, ID3)
    assert convolve(e, x) == x
    assert convolve(x, e) == x


def test_convolution_of_point_masses():
    g = transposition(3, 0, 1)
    h = PI
    assert convolve(
        deterministic(S3, S3.index(g)), deterministic(S3, S3.index(h))
    ) == deterministic(S3, S3.index(compose(g, h)))


def test_subgroup_idempotence():
    u = uniform_on(S3, H01)
    assert convolve(u, u) == u
    assert convolve_oracle(u, u) == u


def test_coset_convolution_spreads_over_double_coset():
    u_coset = translate(P, uniform_on(S3, H01))
    product = convolve(u_coset, u_coset)
    assert product == convolve_oracle(u_coset, u_coset)
    blocks = double_coset(S3, H01, P, H01)
    translated = {S3.index(compose(PI, S3.element(i))) for i in union(blocks)}
    assert set(product.support()) == translated


def test_convolve_matches_oracle_randomized():
    rng = random.Random(42)
    for group in (S3, S4):
        for _ in range(10):
            x = random_dist(rng, group)
            y = random_dist(rng, group)
            assert convolve(x, y) == convolve_oracle(x, y)
    # sparse factors, alone and against a full-support one
    for _ in range(20):
        x = random_dist_on(rng, S4, random_subgroup(rng, S4))
        y = random_dist_on(rng, S4, random_subgroup(rng, S4))
        dense = random_dist(rng, S4)
        for left, right in ((x, y), (x, dense), (dense, y)):
            assert convolve(left, right) == convolve_oracle(left, right)


def test_convolution_associative_randomized():
    rng = random.Random(9)
    for group in (S3, S4):
        for _ in range(8):
            x, y, z = (random_dist(rng, group) for _ in range(3))
            assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z))


def test_support_of_product_is_setwise_product():
    rng = random.Random(5)
    for _ in range(10):
        x = random_dist_on(rng, S4, random_subgroup(rng, S4))
        y = random_dist_on(rng, S4, random_subgroup(rng, S4))
        assert set(convolve(x, y).support()) == set_product_support(x, y)


def test_support_nondecreasing_with_identity_in_factor():
    rng = random.Random(11)
    for _ in range(10):
        x = random_dist(rng, S3)
        y = random_dist(rng, S3)
        if y.mass[ID3] == 0:
            mass = list(y.mass)
            mass[ID3] = Fraction(1, 2)
            total = sum(mass)
            y = CipherDist(S3, tuple(m / total for m in mass))
        assert convolve(x, y).support_size() >= x.support_size()


def test_translate_examples():
    x = random_dist(random.Random(3), S3)
    assert translate(ID3, x) == x
    g = cycle(3, (0, 1, 2))
    gi = S3.index(g)
    assert translate(gi, deterministic(S3, P)) == deterministic(S3, S3.index(compose(g, PI)))
    # uniform on a coset kH moves to the coset (g k)H
    u = uniform_on(S3, H01)
    shifted = translate(gi, u)
    expected = {S3.index(compose(g, h)) for h in map(S3.element, H01)}
    assert set(shifted.support()) == expected
    assert sorted(translate(gi, x).mass) == sorted(x.mass)
    # the definition, on S4: translate(g, x) puts the mass of f at g * f
    rng = random.Random(8)
    for _ in range(5):
        gi = rng.randrange(S4.order)
        g = S4.element(gi)
        x = random_dist_on(rng, S4, random_subgroup(rng, S4))
        moved = translate(gi, x)
        assert all(moved.mass[S4.index(compose(g, f))] == x.mass[S4.index(f)] for f in S4)


def test_translate_requires_membership():
    # an element is an index of the group; G.index is what refuses a
    # permutation outside it
    x = random_dist(random.Random(3), S3)
    for outside in (-1, S3.order):
        with pytest.raises(ValueError, match="out of range"):
            translate(outside, x)


def test_convolve_requires_same_group():
    x = random_dist(random.Random(3), S3)
    y = random_dist(random.Random(3), S4)
    with pytest.raises(ValueError):
        convolve(x, y)


def test_convolve_all_rightmost_first():
    g = transposition(3, 0, 1)
    h = PI
    prod = convolve_all([deterministic(S3, S3.index(f)) for f in (g, h, g)])
    assert prod == deterministic(S3, S3.index(compose(compose(g, h), g)))
    with pytest.raises(ValueError):
        convolve_all([])


class TestTripleDecompose:
    def test_uniform_example_on_s3(self):
        x = uniform_on(S3, H01)
        decomp = triple_decompose(x, P, x, H01, H01)
        assert decomp.m == 2
        assert weights(decomp) == (Fraction(1, 2), Fraction(1, 2))
        mixture = decomp.mixture()
        assert decomp.blocks == double_coset(S3, H01, P, H01)
        assert mixture == uniform_on(S3, union(decomp.blocks))
        assert mixture == convolve(x, convolve(deterministic(S3, P), x))

    def test_identity_pi_collapses(self):
        rng = random.Random(13)
        x = random_dist_on(rng, S3, H01)
        z = random_dist_on(rng, S3, H01)
        decomp = triple_decompose(x, ID3, z, H01, H01)
        assert decomp.m == 1
        assert decomp.parts[0] == convolve(x, z)
        assert set(decomp.parts[0].support()) <= set(H01)

    def test_deterministic_x_concentrates_weight(self):
        rng = random.Random(17)
        h = stabilizer(S4, (3,))
        k = stabilizer(S4, (3,))
        x = deterministic(S4, S4.index(identity(4)))
        z = random_dist_on(rng, S4, k)
        pi = S4.index(transposition(4, 2, 3))
        decomp = triple_decompose(x, pi, z, h, k)
        assert decomp.m == len(weights(decomp))
        assert sorted(weights(decomp), reverse=True)[0] == 1
        assert sum(1 for w in weights(decomp) if w > 0) == 1
        assert decomp.mixture() == translate(pi, z)
        # zero-weight blocks still emitted, with uniform parts
        for w, part, block in zip(weights(decomp), decomp.parts, decomp.blocks):
            if w == 0:
                assert part == uniform_on(S4, block)

    def test_support_violation_raises(self):
        x = uniform_on(S3, range(6))
        with pytest.raises(ValueError):
            triple_decompose(x, P, x, H01, H01)

    def test_pi_is_refused_before_any_product(self, monkeypatch):
        import cipherorder.dist as dist

        def no_product(x, y):
            raise AssertionError("a product was taken")

        monkeypatch.setattr(dist, "convolve", no_product)
        x = uniform_on(S3, H01)
        for pi, error in ((-1, ValueError), (S3.order, ValueError), (True, TypeError)):
            with pytest.raises(error, match="^element ind"):
                triple_decompose(x, pi, x, H01, H01)

    def test_h_is_refused_before_any_product(self, monkeypatch):
        # x lies inside each bad h, so double_coset is what refuses it
        import cipherorder.dist as dist

        def no_product(x, y):
            raise AssertionError("a product was taken")

        monkeypatch.setattr(dist, "convolve", no_product)
        x = point_mass(S3, 0)
        bad_h = ((-1, ValueError), (S3.order, ValueError), (True, TypeError), (1.0, TypeError))
        for bad, error in bad_h:
            with pytest.raises(error, match="^element ind"):
                triple_decompose(x, P, x, (0, bad), H01)

    def test_randomized_reconstruction_and_majorization(self):
        rng = random.Random(23)
        for group in (S3, S4):
            for _ in range(12):
                h = random_subgroup(rng, group)
                k = random_subgroup(rng, group)
                pi = rng.randrange(group.order)
                x = random_dist_on(rng, group, h)
                z = random_dist_on(rng, group, k)
                decomp = triple_decompose(x, pi, z, h, k)
                direct = convolve(x, convolve(deterministic(group, pi), z))
                assert decomp.mixture() == direct
                assert sum(weights(decomp)) == 1
                for part, block in zip(decomp.parts, decomp.blocks):
                    assert set(part.support()) <= set(block)
                    assert compare(part.mass, z.mass).is_below


def test_uniform_product_on_double_coset():
    rng = random.Random(29)
    for group in (S3, S4):
        for _ in range(10):
            h = random_subgroup(rng, group)
            k = random_subgroup(rng, group)
            pi = rng.randrange(group.order)
            x = uniform_on(group, h)
            z = uniform_on(group, k)
            t = convolve(x, convolve(deterministic(group, pi), z))
            hpik = union(double_coset(group, h, pi, k))
            assert t == uniform_on(group, hpik)
            verdict = compare(t.mass, z.mass)
            if len(hpik) > len(k):
                assert verdict.is_strictly_below
            else:
                assert verdict.relation is Relation.EQUAL_UP_TO_PERMUTATION


# sym(1) has degree 1, where operator.itemgetter of one index returns a
# scalar; sym(2) and cyclic(4) are the other small and abelian cases
DIFFERENTIAL_GROUPS = {
    "sym(1)": symmetric_group(1),
    "sym(2)": symmetric_group(2),
    "cyclic(4)": cyclic_group(4),
    "S3": S3,
    "S4": S4,
    "S5": symmetric_group(5),
}


def point_mass(group, g):
    """The point mass at index ``g``, built through the public constructor."""
    return CipherDist(group, tuple(Fraction(int(i == g)) for i in range(group.order)))


def assert_exact(result, expected):
    """``result`` is stored in lowest terms and equals, hash-equal, the
    distribution built from ``expected``'s Fraction masses through the
    public constructor."""
    assert math.gcd(result.den, *result.nums) == 1
    public = CipherDist(expected.group, tuple(expected.mass))
    assert result == public and hash(result) == hash(public)
    assert result.mass == expected.mass


@pytest.mark.parametrize("name", list(DIFFERENTIAL_GROUPS))
def test_integer_kernels_equal_fraction_oracle(name):
    group = DIFFERENTIAL_GROUPS[name]
    rng = random.Random(f"integer-kernels:{name}")
    draws = 4 if group.order > 24 else 10
    for _ in range(draws):
        h = random_subgroup(rng, group)
        k = random_subgroup(rng, group)
        # pairs over coprime totals, so the product denominator is mixed
        for left_total, right_total in ((32, 27), (25, 49)):
            x = dist_over(rng, group, left_total, h)
            z = dist_over(rng, group, right_total, k)
            dense = dist_over(rng, group, left_total)
            for left, right in ((x, z), (z, x), (dense, z), (x, dense)):
                assert_exact(convolve(left, right), convolve_oracle(left, right))
            g = rng.randrange(group.order)
            assert_exact(translate(g, z), convolve_oracle(point_mass(group, g), z))
            pi = rng.randrange(group.order)
            expected = convolve_oracle(x, convolve_oracle(point_mass(group, pi), z))
            decomp = triple_decompose(x, pi, z, h, k)
            assert_exact(decomp.mixture(), expected)
            assert sum(weights(decomp)) == 1
            # part b: x on the a with a*pi in block b, renormalized, times
            # delta_pi * z; a block x misses gets the uniform part
            shifted = convolve_oracle(point_mass(group, pi), z)
            pi_element = group.element(pi)
            for w, part, block in zip(weights(decomp), decomp.parts, decomp.blocks):
                inside = {
                    a
                    for a, g in enumerate(group)
                    if group.index(compose(g, pi_element)) in block
                }
                assert w == sum(x.mass[a] for a in inside)
                if w:
                    x_b = tuple(m / w if a in inside else 0 for a, m in enumerate(x.mass))
                    assert_exact(part, convolve_oracle(CipherDist(group, x_b), shifted))
                else:
                    assert_exact(part, uniform_on(group, block))
        # sparse factors with their own denominators, and point masses
        u = random_dist_on(rng, group, h)
        v = random_dist_on(rng, group, k)
        g = rng.randrange(group.order)
        e = point_mass(group, g)
        for left, right in ((u, v), (e, v), (u, e)):
            assert_exact(convolve(left, right), convolve_oracle(left, right))
        assert_exact(deterministic(group, g), e)
        inside = set(h)
        share = Fraction(1, len(h))
        uniform = tuple(share if i in inside else 0 for i in range(group.order))
        assert_exact(uniform_on(group, h), CipherDist(group, uniform))


def coset_constant_dist(rng, group, blocks):
    """Random exact distribution constant on each of ``blocks``, with some
    blocks (never all) at zero."""
    values = [rng.choice([0, 0, 1, 2, 3, 5]) for _ in blocks]
    if not any(values):
        values[rng.randrange(len(blocks))] = 1
    total = sum(v * len(block) for v, block in zip(values, blocks))
    mass = [Fraction(0)] * group.order
    for v, block in zip(values, blocks):
        for i in block:
            mass[i] = Fraction(v, total)
    return CipherDist(group, tuple(mass))


def record_partitions(monkeypatch):
    """Record every coset partition that ``convolve`` takes its quotient on."""
    import cipherorder.dist as dist

    taken = []
    real = dist._partition_with_block

    def recording(group, block):
        blocks = real(group, block)
        if blocks:
            taken.append(blocks)
        return blocks

    monkeypatch.setattr(dist, "_partition_with_block", recording)
    return taken


@pytest.mark.parametrize("name", list(DIFFERENTIAL_GROUPS))
def test_right_invariant_convolve_equals_oracle(name, monkeypatch):
    # y uniform on a coset of K takes the quotient on K's cosets when the
    # general loop would do more than |G| products; y constant on the cosets
    # takes it only where its support is a coset too
    taken = record_partitions(monkeypatch)
    group = DIFFERENTIAL_GROUPS[name]
    rng = random.Random(f"right-invariant:{name}")
    trivial = (group.index(identity(group.degree)),)
    whole = tuple(range(group.order))
    draws = 3 if group.order > 24 else 8
    subgroups = [trivial, whole] + [random_subgroup(rng, group) for _ in range(draws)]
    for k in subgroups:
        blocks = left_cosets(group, k)
        uniform = uniform_on(group, rng.choice(blocks))
        constant = coset_constant_dist(rng, group, blocks)
        sparse = random_dist_on(rng, group, random_subgroup(rng, group))
        dense = dist_over(rng, group, 27)
        point = point_mass(group, rng.randrange(group.order))
        for x in (sparse, dense, point):
            for y in (uniform, constant):
                assert_exact(convolve(x, y), convolve_oracle(x, y))
            taken.clear()
            convolve(x, uniform)
            assert taken == ([blocks] if x.support_size() * len(k) > group.order else [])


def test_a_subset_that_only_tiles_is_refused_and_never_gives_a_wrong_product():
    # (0, 1, 4) contains the identity and its left translates tile S3, but it
    # is not closed; the true product with a point mass is uniform on (0, 1, 2)
    tiles = (0, 1, 4)
    with pytest.raises(ValueError, match="not a subgroup"):
        left_cosets(S3, tiles)
    product = convolve(deterministic(S3, 1), uniform_on(S3, tiles))
    assert_exact(product, convolve_oracle(point_mass(S3, 1), uniform_on(S3, tiles)))
    assert product == uniform_on(S3, (0, 1, 2))
    # every 3-element set: a dense x makes the quotient worth trying
    x = random_dist(random.Random(31), S3)
    for subset in itertools.combinations(range(S3.order), 3):
        y = uniform_on(S3, subset)
        assert_exact(convolve(x, y), convolve_oracle(x, y))
    # uniform on H, and one mass moved inside a coset of H
    h = stabilizer(S4, (3,))
    x = random_dist(random.Random(31), S4)
    y = uniform_on(S4, h)
    mass = list(y.mass)
    i, j = h[0], h[1]
    mass[i], mass[j] = mass[i] + mass[j], Fraction(0)
    for right in (y, CipherDist(S4, tuple(mass))):
        assert_exact(convolve(x, right), convolve_oracle(x, right))
    with pytest.raises(TypeError):
        convolve(x, y, h)
    with pytest.raises(TypeError):
        convolve(x, y, right_invariant=h)


def test_a_support_whose_size_does_not_divide_the_order_builds_no_subgroup(monkeypatch):
    # general-collapse's round-2 factor X*X is uniform on pi*H*pi*H, 18 of
    # S4's 24 elements and 96 of S5's 120; a coset of K has |K| elements, which
    # divides |G|, so no K = s^-1 * supp is formed or closed
    import cipherorder.groups as groups

    built = []
    real_inverse, real_cosets = GroupTable.inverse, groups.left_cosets

    def inverse(group, i):
        built.append("inverse")
        return real_inverse(group, i)

    def cosets(group, k):
        built.append("left_cosets")
        return real_cosets(group, k)

    monkeypatch.setattr(GroupTable, "inverse", inverse)
    monkeypatch.setattr(groups, "left_cosets", cosets)
    for m, size in ((4, 18), (5, 96)):
        group = symmetric_group(m)
        h = stabilizer(group, (m - 1,))
        x = translate(group.index(cycle(m, range(m))), uniform_on(group, h))
        xx = convolve(x, x)
        assert xx.support_size() == size and xx == uniform_on(group, xx.support())
        built.clear()
        assert_exact(convolve(x, xx), convolve_oracle(x, xx))
        assert built == []
        # on a new table, the spies see a uniform coset build its K
        fresh = symmetric_group(m)
        dense, y = uniform_on(fresh, range(fresh.order)), uniform_on(fresh, h)
        assert_exact(convolve(dense, y), convolve_oracle(dense, y))
        assert built == ["inverse", "left_cosets"]


def renormalized(x, block, pi, w):
    """``x`` on the a with a*pi in ``block``, divided by that mass ``w``."""
    group = x.group
    pi_element = group.element(pi)
    inside = {a for a, g in enumerate(group) if group.index(compose(g, pi_element)) in block}
    return CipherDist(group, tuple(m / w if a in inside else 0 for a, m in enumerate(x.mass)))


def test_triple_decompose_parts_of_a_uniform_z(monkeypatch):
    # z uniform on K makes delta_pi * z uniform on the coset pi*K: each
    # weighted part is uniform on its block, and is computed on the cosets of
    # K when its general loop would do more than |G| products
    taken = record_partitions(monkeypatch)
    rng = random.Random(37)
    quotients = 0
    for group in (S3, S4, symmetric_group(5)):
        for _ in range(6):
            h = random_subgroup(rng, group)
            k = random_subgroup(rng, group)
            pi = rng.randrange(group.order)
            x = random_dist_on(rng, group, h)
            shifted = convolve_oracle(point_mass(group, pi), uniform_on(group, k))
            taken.clear()
            decomp = triple_decompose(x, pi, uniform_on(group, k), h, k)
            big = 0
            for w, part, block in zip(weights(decomp), decomp.parts, decomp.blocks):
                assert part == uniform_on(group, block)
                if w:
                    x_b = renormalized(x, block, pi, w)
                    assert_exact(part, convolve_oracle(x_b, shifted))
                    big += x_b.support_size() * len(k) > group.order
            assert taken == [left_cosets(group, k)] * big
            quotients += big
            # a z inside K that is not uniform on it takes the general loop
            z = dist_over(rng, group, 25, k)
            if z == uniform_on(group, k):
                continue
            shifted = convolve_oracle(point_mass(group, pi), z)
            taken.clear()
            decomp = triple_decompose(x, pi, z, h, k)
            assert taken == []
            for w, part, block in zip(weights(decomp), decomp.parts, decomp.blocks):
                if w:
                    assert_exact(part, convolve_oracle(renormalized(x, block, pi, w), shifted))
    assert quotients
