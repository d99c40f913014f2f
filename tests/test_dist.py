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
    closure,
    double_coset,
    stabilizer,
    symmetric_group,
)
from cipherorder.majorize import compare
from cipherorder.perms import cycle, identity, transposition

from helpers import (
    convolve_oracle,
    random_dist,
    random_dist_on,
    random_subgroup,
    set_product_support,
)

S3 = symmetric_group(3)
S4 = symmetric_group(4)
H01 = closure([transposition(3, 0, 1)])
PI = transposition(3, 1, 2)


def test_cipher_dist_validation():
    with pytest.raises(ValueError):
        CipherDist(S3, (Fraction(1),) * 2)
    with pytest.raises(ValueError):
        CipherDist(S3, tuple([Fraction(1, 2)] * 6))
    with pytest.raises(ValueError):
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
