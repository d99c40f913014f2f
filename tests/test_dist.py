import math
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
    uniform_on_elements,
)
from cipherorder.groups import (
    GroupTable,
    closure,
    cyclic_group,
    double_coset,
    stabilizer,
    symmetric_group,
)
from cipherorder.majorize import compare
from cipherorder.perms import cycle, identity, transposition

from helpers import (
    convolve_oracle,
    dist_over,
    random_dist,
    random_dist_on,
    random_subgroup,
    set_product_support,
)

S3 = symmetric_group(3)
S4 = symmetric_group(4)
H01 = closure([transposition(3, 0, 1)])
PI = transposition(3, 1, 2)


def test_public_constructor_contract():
    # values and types of the accessors, for the public constructor and for
    # distributions the library builds
    masses = tuple(Fraction(n, 6) for n in (3, 0, 2, 0, 1, 0))
    public = CipherDist(S3, masses)
    point = deterministic(S3, PI)
    point_masses = tuple(Fraction(int(g == PI)) for g in S3)
    for x, want in ((public, masses), (point, point_masses)):
        assert x.group is S3 and type(x.group) is GroupTable
        assert x.mass == want and all(type(m) is Fraction for m in x.mass)
        for g, m in zip(S3, want):
            assert x.mass_of(g) == m and type(x.mass_of(g)) is Fraction
        support = tuple(i for i, m in enumerate(want) if m)
        assert x.support() == support and all(type(i) is int for i in support)
        assert x.support_size() == len(support) and type(x.support_size()) is int
    # integer masses are read as Fractions, and the stored form is reduced
    ints = CipherDist(S3, (1, 0, 0, 0, 0, 0))
    assert ints == deterministic(S3, S3.element(0))
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
    half = uniform_on_elements(S3, H01)
    assert sorted(half.mass, reverse=True)[:2] == [Fraction(1, 2)] * 2
    with pytest.raises(ValueError):
        uniform_on(S3, [])


def test_deterministic_examples():
    e = deterministic(S3, identity(3))
    assert e.mass_of(identity(3)) == 1
    point = deterministic(S3, PI)
    assert point.support() == (S3.index(PI),)
    with pytest.raises(ValueError):
        deterministic(S3, identity(4))


def test_convolution_unit_laws():
    x = random_dist(random.Random(1), S3)
    e = deterministic(S3, identity(3))
    assert convolve(e, x) == x
    assert convolve(x, e) == x


def test_convolution_of_point_masses():
    g = transposition(3, 0, 1)
    h = PI
    assert convolve(deterministic(S3, g), deterministic(S3, h)) == deterministic(
        S3, g * h
    )


def test_subgroup_idempotence():
    u = uniform_on_elements(S3, H01)
    assert convolve(u, u) == u
    assert convolve_oracle(u, u) == u


def test_coset_convolution_spreads_over_double_coset():
    u_coset = translate(PI, uniform_on_elements(S3, H01))
    product = convolve(u_coset, u_coset)
    assert product == convolve_oracle(u_coset, u_coset)
    dc = double_coset(S3, H01, PI, H01)
    translated = {S3.index(PI * S3.element(i)) for i in dc.elements}
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
        if y.mass_of(identity(3)) == 0:
            mass = list(y.mass)
            mass[S3.index(identity(3))] = Fraction(1, 2)
            total = sum(mass)
            y = CipherDist(S3, tuple(m / total for m in mass))
        assert convolve(x, y).support_size() >= x.support_size()


def test_translate_examples():
    x = random_dist(random.Random(3), S3)
    assert translate(identity(3), x) == x
    g = cycle(3, (0, 1, 2))
    assert translate(g, deterministic(S3, PI)) == deterministic(S3, g * PI)
    # uniform on a coset kH moves to the coset (g k)H
    u = uniform_on_elements(S3, H01)
    shifted = translate(g, u)
    expected = {S3.index(g * h) for h in H01}
    assert set(shifted.support()) == expected
    assert sorted(translate(g, x).mass) == sorted(x.mass)
    # the definition, on S4: translate(g, x) puts the mass of f at g * f
    rng = random.Random(8)
    for _ in range(5):
        g = rng.choice(S4.elements)
        x = random_dist_on(rng, S4, random_subgroup(rng, S4))
        moved = translate(g, x)
        assert all(moved.mass_of(g * f) == x.mass_of(f) for f in S4)


def test_translate_requires_membership():
    x = random_dist(random.Random(3), S3)
    with pytest.raises(ValueError):
        translate(identity(4), x)


def test_convolve_requires_same_group():
    x = random_dist(random.Random(3), S3)
    y = random_dist(random.Random(3), S4)
    with pytest.raises(ValueError):
        convolve(x, y)


def test_convolve_all_rightmost_first():
    g = transposition(3, 0, 1)
    h = PI
    prod = convolve_all(
        [deterministic(S3, g), deterministic(S3, h), deterministic(S3, g)]
    )
    assert prod == deterministic(S3, g * h * g)
    with pytest.raises(ValueError):
        convolve_all([])


class TestTripleDecompose:
    def test_uniform_example_on_s3(self):
        x = uniform_on_elements(S3, H01)
        decomp = triple_decompose(x, PI, x, H01, H01)
        assert decomp.m == 2
        assert decomp.weights == (Fraction(1, 2), Fraction(1, 2))
        mixture = decomp.mixture()
        dc = double_coset(S3, H01, PI, H01)
        assert mixture == uniform_on(S3, dc.elements)
        assert mixture == convolve(x, convolve(deterministic(S3, PI), x))

    def test_identity_pi_collapses(self):
        rng = random.Random(13)
        x = random_dist_on(rng, S3, H01)
        z = random_dist_on(rng, S3, H01)
        decomp = triple_decompose(x, identity(3), z, H01, H01)
        assert decomp.m == 1
        assert decomp.parts[0] == convolve(x, z)
        assert set(decomp.parts[0].support()) <= set(S3.indices_of(H01))

    def test_deterministic_x_concentrates_weight(self):
        rng = random.Random(17)
        h = stabilizer(S4, (3,))
        k = stabilizer(S4, (3,))
        x = deterministic(S4, identity(4))
        z = random_dist_on(rng, S4, k)
        pi = transposition(4, 2, 3)
        decomp = triple_decompose(x, pi, z, h, k)
        assert decomp.m == len(decomp.weights)
        assert sorted(decomp.weights, reverse=True)[0] == 1
        assert sum(1 for w in decomp.weights if w > 0) == 1
        assert decomp.mixture() == translate(pi, z)
        # zero-weight blocks still emitted, with uniform parts
        reps = decomp.double_coset.left_reps
        for w, part, rep in zip(decomp.weights, decomp.parts, reps):
            if w == 0:
                block = decomp.double_coset.left_blocks[reps.index(rep)]
                assert part == uniform_on(S4, block)

    def test_support_violation_raises(self):
        x = uniform_on(S3, range(6))
        with pytest.raises(ValueError):
            triple_decompose(x, PI, x, H01, H01)

    def test_randomized_reconstruction_and_majorization(self):
        rng = random.Random(23)
        for group in (S3, S4):
            for _ in range(12):
                h = random_subgroup(rng, group)
                k = random_subgroup(rng, group)
                pi = rng.choice(group.elements)
                x = random_dist_on(rng, group, h)
                z = random_dist_on(rng, group, k)
                decomp = triple_decompose(x, pi, z, h, k)
                direct = convolve(x, convolve(deterministic(group, pi), z))
                assert decomp.mixture() == direct
                assert sum(decomp.weights) == 1
                for part, block in zip(
                    decomp.parts, decomp.double_coset.left_blocks
                ):
                    assert set(part.support()) <= set(block)
                    assert compare(part.mass, z.mass).is_below


def test_uniform_product_on_double_coset():
    rng = random.Random(29)
    for group in (S3, S4):
        for _ in range(10):
            h = random_subgroup(rng, group)
            k = random_subgroup(rng, group)
            pi = rng.choice(group.elements)
            x = uniform_on_elements(group, h)
            z = uniform_on_elements(group, k)
            t = convolve(x, convolve(deterministic(group, pi), z))
            dc = double_coset(group, h, pi, k)
            assert t == uniform_on(group, dc.elements)
            verdict = compare(t.mass, z.mass)
            if len(dc.elements) > k.order:
                assert verdict.is_strictly_below
            else:
                assert verdict.is_equal


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
    """A point mass built through the public constructor."""
    return CipherDist(group, tuple(Fraction(int(h == g)) for h in group))


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
            g = rng.choice(group.elements)
            assert_exact(translate(g, z), convolve_oracle(point_mass(group, g), z))
            pi = rng.choice(group.elements)
            expected = convolve_oracle(x, convolve_oracle(point_mass(group, pi), z))
            decomp = triple_decompose(x, pi, z, h, k)
            assert_exact(decomp.mixture(), expected)
            assert sum(decomp.weights) == 1
            for part in decomp.parts:
                assert math.gcd(part.den, *part.nums) == 1
        # sparse factors with their own denominators, and point masses
        u = random_dist_on(rng, group, h)
        v = random_dist_on(rng, group, k)
        g = rng.choice(group.elements)
        e = point_mass(group, g)
        for left, right in ((u, v), (e, v), (u, e)):
            assert_exact(convolve(left, right), convolve_oracle(left, right))
        assert_exact(deterministic(group, g), e)
        inside = set(group.indices_of(h))
        share = Fraction(1, h.order)
        uniform = tuple(share if i in inside else 0 for i in range(group.order))
        assert_exact(uniform_on_elements(group, h), CipherDist(group, uniform))
