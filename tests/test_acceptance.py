"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Everything is exact except entropy comparisons, which use an
absolute tolerance of 1e-12 with an exact (power-sum) or high-precision
fallback near ties.
"""

import math
import random
import time
from fractions import Fraction

from cipherorder.dist import (
    convolve,
    deterministic,
    translate,
    triple_decompose,
    uniform_on,
    uniform_on_elements,
)
from cipherorder.experiments import run_amplifier, run_general_collapse
from cipherorder.groups import (
    closure,
    conjugate_subgroup,
    double_coset,
    intersection,
    stabilizer,
    symmetric_group,
)
from cipherorder.majorize import compare, hlp_witness
from cipherorder.metrics import (
    alpha_guesswork,
    guesswork,
    marginal_guesswork,
    renyi_entropy,
    renyi_power_sum,
    shannon_entropy,
    variation_to_uniform,
)
from cipherorder.perms import transposition
from cipherorder.qsecurity import compare_q, conditional_guesswork_oracle

from helpers import (
    apply_matrix,
    majorized_pair,
    random_dist,
    random_dist_on,
    random_subgroup,
    shannon_entropy_mp,
)

F = Fraction
TOL = 1e-12

S3 = symmetric_group(3)
S4 = symmetric_group(4)
S5 = symmetric_group(5)

H01 = closure([transposition(3, 0, 1)])
PI = transposition(3, 1, 2)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _triple_cases(rng: random.Random):
    """100 randomized (G, H, pi, K, x, z) cases over groups up to S5."""
    plan = [(S3, 40), (S4, 40), (S5, 20)]
    for group, count in plan:
        for _ in range(count):
            h = random_subgroup(rng, group)
            k = random_subgroup(rng, group)
            pi = rng.choice(group.elements)
            yield group, h, pi, k


def test_criterion_01_triple_decomposition_suite():
    rng = random.Random(0xC1)
    start = time.perf_counter()
    ok = True
    cases = 0
    for group, h, pi, k in _triple_cases(rng):
        x = random_dist_on(rng, group, h)
        z = random_dist_on(rng, group, k)
        decomp = triple_decompose(x, pi, z, h, k)
        direct = convolve(x, convolve(deterministic(group, pi), z))
        ok &= decomp.mixture() == direct
        stab = intersection(h, conjugate_subgroup(pi, k))
        ok &= decomp.m * stab.order == h.order
        ok &= all(compare(part.mass, z.mass).is_below for part in decomp.parts)
        cases += 1
    elapsed = time.perf_counter() - start
    ok &= cases >= 100
    ok &= elapsed < 60
    _report(1, f"triple-decomposition suite ({cases} cases, {elapsed:.1f}s)", ok)


def test_criterion_02_uniform_products():
    rng = random.Random(0xC2)
    ok = True
    strict_seen = 0
    for group, h, pi, k in _triple_cases(rng):
        x = uniform_on_elements(group, h)
        z = uniform_on_elements(group, k)
        t = convolve(x, convolve(deterministic(group, pi), z))
        dc = double_coset(group, h, pi, k)
        ok &= t == uniform_on(group, dc.elements)
        verdict = compare(t.mass, z.mass)
        if len(dc.elements) > k.order:
            ok &= verdict.is_strictly_below
            strict_seen += 1
        else:
            ok &= verdict.is_equal
    ok &= strict_seen > 0
    _report(2, "uniform product on double coset + strict majorization", ok)


def _expansion_pair():
    x = uniform_on_elements(S3, H01)
    t = convolve(x, convolve(deterministic(S3, PI), x))
    d = convolve(x, x)
    return t, d


def test_criterion_03_expansion_on_s3():
    t, d = _expansion_pair()
    ok = t.support_size() == 4 and d.support_size() == 2
    ok &= compare(t.mass, d.mass).is_strictly_below
    ok &= abs(shannon_entropy(t.mass) - 2.0) <= TOL
    ok &= abs(shannon_entropy(d.mass) - 1.0) <= TOL
    ok &= guesswork(t.mass) == F(5, 2)
    ok &= guesswork(d.mass) == F(3, 2)
    report = compare_q(t, d, 3)
    for level in report.levels:
        ok &= level.verdict in ("left-no-less-secure", "equivalent")
        for tc in level.tuples:
            ok &= tc.advantage_left <= tc.advantage_right
            ok &= tc.guesswork_left >= tc.guesswork_right
    _report(3, "S3 expansion: T = XYZ beats D = XZ at q = 0..3", ok)


def test_criterion_04_collapse_on_s3():
    x = translate(PI, uniform_on_elements(S3, H01))
    y = deterministic(S3, PI.inverse())
    t = convolve(x, convolve(y, x))
    d = convolve(x, x)
    ok = t.support_size() == 2 and d.support_size() == 4
    ok &= compare(d.mass, t.mass).is_strictly_below
    t_expand, d_expand = _expansion_pair()
    ok &= translate(PI.inverse(), t) == d_expand
    ok &= translate(PI.inverse(), d) == t_expand
    report = compare_q(d, t, 3)
    for level in report.levels:
        ok &= level.verdict in ("left-no-less-secure", "equivalent")
    _report(4, "S3 collapse: directions reverse and translations coincide", ok)


def test_criterion_05_general_collapse():
    ok = True
    for group, h, pi in (
        (S3, H01, PI),
        (S4, stabilizer(S4, (3,)), transposition(4, 2, 3)),
    ):
        coset = translate(pi, uniform_on_elements(group, h))
        coset_support = set(coset.support())
        e = coset
        x_prod = coset
        y = deterministic(group, pi.inverse())
        prev = 0
        for _ in range(1, 4):
            e = convolve(coset, convolve(y, e))
            x_prod = convolve(coset, x_prod)
            ok &= set(e.support()) == coset_support
            supp = x_prod.support_size()
            ok &= supp > h.order
            ok &= supp >= prev
            prev = supp
        result = run_general_collapse(group, h, pi, 3)
        ok &= result.passed
    _report(5, "general collapse r=1..3 on S3 and S4", ok)


def test_criterion_06_amplifier():
    start = time.perf_counter()
    ok = True
    for n, expected_support in ((1, 4), (2, 96)):
        result = run_amplifier(n)
        ok &= result.passed
        rows = {row.quantity: row for row in result.rows}
        ok &= rows["support_T"].actual == str(expected_support)
        ok &= rows["support_T"].expected == str(
            math.factorial(2**n + 1) - math.factorial(2**n)
        )
        ok &= rows["D_fixes_distinguished_point"].actual == "1"
        ok &= rows["distinguisher_advantage"].actual == str(F(2**n, 2**n + 1))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10
    _report(6, f"amplifier n=1,2 ({elapsed:.1f}s)", ok)


def _schur_pairs():
    rng = random.Random(0xC7)
    pairs = []
    for _ in range(1000):
        pairs.append(majorized_pair(rng, rng.randint(2, 9)))
    return pairs


def _entropy_strictly_greater(x, y) -> bool:
    gap = shannon_entropy(x) - shannon_entropy(y)
    if gap > TOL:
        return True
    if gap < -TOL:
        return False
    return shannon_entropy_mp(x) > shannon_entropy_mp(y)


def test_criterion_07_schur_monotonicity_suite():
    ok = True
    strict_seen = 0
    pairs = _schur_pairs()
    for x, y in pairs:
        verdict = compare(x, y)
        ok &= verdict.is_below
        strict = verdict.is_strictly_below

        ok &= shannon_entropy(x) - shannon_entropy(y) >= -TOL
        ok &= renyi_entropy(x, 2) - renyi_entropy(y, 2) >= -TOL
        ok &= guesswork(x) >= guesswork(y)
        for alpha in (F(1, 4), F(1, 2), F(3, 4), F(1)):
            ok &= marginal_guesswork(x, alpha) >= marginal_guesswork(y, alpha)
            ok &= alpha_guesswork(x, alpha) >= alpha_guesswork(y, alpha)
        ok &= variation_to_uniform(x) <= variation_to_uniform(y)

        if strict:
            strict_seen += 1
            ok &= _entropy_strictly_greater(x, y)
            ok &= renyi_power_sum(x, 2) < renyi_power_sum(y, 2)
            ok &= guesswork(x) > guesswork(y)
    ok &= len(pairs) >= 1000
    ok &= strict_seen >= 500
    _report(7, f"Schur suite (1000 pairs, {strict_seen} strict)", ok)


def _product_ordering_cases():
    rng = random.Random(0xC8)
    cases = []
    for group, count in ((S3, 50), (S4, 50)):
        for _ in range(count):
            x = random_dist(rng, group)
            y = random_dist(rng, group)
            cases.append((convolve(x, y), y))
    return cases


def test_criterion_08_product_ordering_suite():
    ok = True
    cases = _product_ordering_cases()
    for z, y in cases:
        for level in compare_q(z, y, 2).levels:
            for tc in level.tuples:
                ok &= tc.coset_verdict.is_below
                ok &= tc.profile_verdict.is_below
                ok &= tc.advantage_left <= tc.advantage_right
                ok &= tc.guesswork_left >= tc.guesswork_right
    ok &= len(cases) >= 100
    _report(8, f"product-cipher q-ordering suite ({len(cases)} pairs)", ok)


def test_criterion_09_oracle_equivalences():
    ok = True
    for z, y in _product_ordering_cases():
        for level in compare_q(z, y, 2).levels:
            for tc in level.tuples:
                ok &= tc.guesswork_left == conditional_guesswork_oracle(z, tc.points)
                ok &= tc.guesswork_right == conditional_guesswork_oracle(y, tc.points)
    # the two variation closed forms and the direct half-L1 definition
    for x, y in _schur_pairs():
        for v in (x, y):
            n = len(v)
            share = F(1, n)
            desc = sorted(v, reverse=True)
            k = sum(1 for e in desc if e >= share)
            from_top = sum(desc[:k], F(0)) - k * share
            asc = sorted(v)
            q_cut = sum(1 for e in asc if e <= share)
            from_bottom = q_cut * share - sum(asc[:q_cut], F(0))
            direct = sum((abs(e - share) for e in v), F(0)) / 2
            ok &= from_top == from_bottom == direct == variation_to_uniform(v)
    _report(9, "conditional-guesswork oracle + variation closed forms", ok)


def test_criterion_10_witness_suite():
    ok = True
    checked = 0
    for x, y in _schur_pairs():
        witness = hlp_witness(x, y)
        n = len(witness.matrix)
        ok &= all(sum(row) == 1 and min(row) >= 0 for row in witness.matrix)
        ok &= all(
            sum(witness.matrix[i][j] for i in range(n)) == 1 for j in range(n)
        )
        padded_x = tuple(x) + (F(0),) * (n - len(x))
        padded_y = list(y) + [F(0)] * (n - len(y))
        ok &= apply_matrix(witness.matrix, padded_y) == padded_x
        recon = [[F(0)] * n for _ in range(n)]
        total = F(0)
        for w, p in witness.decomposition:
            total += w
            for i in range(n):
                recon[i][p.images[i]] += w
        ok &= total == 1
        ok &= tuple(tuple(r) for r in recon) == witness.matrix
        ok &= len(witness.decomposition) <= (n - 1) ** 2 + 1
        checked += 1
    ok &= checked >= 1000
    _report(10, f"doubly-stochastic witnesses + Birkhoff ({checked} pairs)", ok)
