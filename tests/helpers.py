"""Shared randomized-case generators and independent brute-force oracles."""

from __future__ import annotations

import random
from decimal import Decimal, localcontext
from fractions import Fraction

from cipherorder import (
    CipherDist,
    GroupTable,
    closure,
    stabilizer,
    uniform_on,
)
from cipherorder.majorize import MajorizationVerdict, Relation
from cipherorder.perms import Permutation, compose
from cipherorder.qsecurity import (
    ComparisonReport,
    Direction,
    LevelComparison,
    TupleComparison,
    distinct_tuples,
)


def rational_prob_vector(
    rng: random.Random, n: int, max_weight: int = 9, allow_zeros: bool = True
) -> list[Fraction]:
    low = 0 if allow_zeros else 1
    weights = [rng.randint(low, max_weight) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def mixed_denominator_vector(
    rng: random.Random, n: int, normalized: bool = True
) -> list[Fraction]:
    """Entries w / d with a random denominator d per entry (zeros allowed),
    scaled to sum to 1 if ``normalized``."""
    dens = [rng.choice([1, 2, 3, 4, 5, 7, 9, 11, 16, 25, 27, 49]) for _ in range(n)]
    xs = [Fraction(rng.randint(0, 2 * d), d) for d in dens]
    total = sum(xs)
    if not normalized:
        return xs
    if total == 0:
        return [Fraction(1)] + [Fraction(0)] * (n - 1)
    return [v / total for v in xs]


def t_transform(rng: random.Random, y: list[Fraction]) -> list[Fraction]:
    """One random T-transform of y; the result is always majorized by y."""
    i, j = rng.sample(range(len(y)), 2)
    lam = Fraction(rng.randint(0, 12), 12)
    x = list(y)
    x[i] = lam * y[i] + (1 - lam) * y[j]
    x[j] = (1 - lam) * y[i] + lam * y[j]
    return x


def majorized_pair(
    rng: random.Random, n: int, transforms: int | None = None
) -> tuple[list[Fraction], list[Fraction]]:
    """(x, y) with x guaranteed majorized by y."""
    y = rational_prob_vector(rng, n)
    x = list(y)
    for _ in range(transforms if transforms is not None else rng.randint(1, 3)):
        x = t_transform(rng, x)
    return x, y


def random_subgroup(rng: random.Random, group: GroupTable) -> GroupTable:
    """A varied-size subgroup: trivial, a point stabilizer, cyclic, or
    generated by two random elements."""
    kind = rng.choice(["trivial", "stab", "cyclic", "two-gen"])
    if kind == "trivial":
        return closure([group.identity])
    if kind == "stab":
        return stabilizer(group, (rng.randrange(group.degree),))
    if kind == "cyclic":
        return closure([rng.choice(group.elements)])
    return closure([rng.choice(group.elements), rng.choice(group.elements)])


def random_dist_on(
    rng: random.Random, group: GroupTable, subgroup: GroupTable
) -> CipherDist:
    """Random exact distribution supported inside a subgroup (zeros allowed)."""
    indices = group.indices_of(subgroup)
    weights = rational_prob_vector(rng, len(indices))
    mass = [Fraction(0)] * group.order
    for i, w in zip(indices, weights):
        mass[i] = w
    return CipherDist(group, tuple(mass))


def random_dist(rng: random.Random, group: GroupTable) -> CipherDist:
    weights = rational_prob_vector(rng, group.order)
    return CipherDist(group, tuple(weights))


def convolve_oracle(x: CipherDist, y: CipherDist) -> CipherDist:
    """Brute-force product distribution: sum over all factor pairs (a, b)
    of x(a) y(b) at a*b (b applied first)."""
    group = x.group
    out = [Fraction(0)] * group.order
    for i, a in enumerate(group.elements):
        if x.mass[i] == 0:
            continue
        for j, b in enumerate(group.elements):
            if y.mass[j] == 0:
                continue
            out[group.index(compose(a, b))] += x.mass[i] * y.mass[j]
    return CipherDist(group, tuple(out))


def enumerate_subgroup_oracle(generators: list[Permutation]) -> set[Permutation]:
    """Closure by repeated squaring of the product set until stable."""
    current = set(generators)
    from cipherorder.perms import identity

    current.add(identity(generators[0].degree))
    while True:
        nxt = set(current)
        for a in current:
            for b in current:
                nxt.add(compose(a, b))
        if nxt == current:
            return current
        current = nxt


def half_l1_to_uniform(xs: list[Fraction]) -> Fraction:
    """Direct definition of variation distance to uniformity."""
    n = len(xs)
    share = Fraction(1, n)
    return sum((abs(v - share) for v in xs), Fraction(0)) / 2


def set_product_support(x: CipherDist, y: CipherDist) -> set[int]:
    """Setwise product of the supports (b applied first)."""
    group = x.group
    out = set()
    for i in x.support():
        for j in y.support():
            out.add(group.index(compose(group.element(i), group.element(j))))
    return out


# Fraction references for the integer-numerator kernels: each is the
# formula the library evaluated entry by entry in Fractions before the
# q-sweep moved to integer numerators over a common denominator.


def compare_oracle(x, y) -> MajorizationVerdict:
    """Majorization verdict by Fraction prefix sums of the zero-padded
    decreasing rearrangements."""
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    n = max(len(xs), len(ys))
    xs = sorted(xs + [Fraction(0)] * (n - len(xs)), reverse=True)
    ys = sorted(ys + [Fraction(0)] * (n - len(ys)), reverse=True)
    if sum(xs) != sum(ys):
        return MajorizationVerdict(Relation.NORM_MISMATCH)
    first_above = first_below = None
    px = py = Fraction(0)
    for i, (a, b) in enumerate(zip(xs, ys), start=1):
        px += a
        py += b
        if px > py and first_above is None:
            first_above = i
        if px < py and first_below is None:
            first_below = i
    if first_above is None and first_below is None:
        return MajorizationVerdict(Relation.EQUAL_UP_TO_PERMUTATION)
    if first_above is None:
        return MajorizationVerdict(Relation.STRICTLY_BELOW)
    if first_below is None:
        return MajorizationVerdict(Relation.STRICTLY_ABOVE)
    return MajorizationVerdict(Relation.INCOMPARABLE, (first_above, first_below))


def variation_to_uniform_oracle(x) -> Fraction:
    """x_[1] + ... + x_[k] - k/n with k = #{i : x_[i] >= 1/n}, in Fractions."""
    share = Fraction(1, len(x))
    desc = sorted((Fraction(v) for v in x), reverse=True)
    k = sum(1 for f in desc if f >= share)
    return sum(desc[:k], Fraction(0)) - k * share


def guesswork_oracle(x) -> Fraction:
    """sum i * x_[i] over the decreasing rearrangement, in Fractions."""
    desc = sorted((Fraction(v) for v in x), reverse=True)
    return sum((i * f for i, f in enumerate(desc, start=1)), Fraction(0))


def project_oracle(
    x: CipherDist, p: tuple[int, ...]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(coset masses, profile sum) of one cipher through the images of p:
    Fraction masses grouped by g(p), each group sorted decreasingly."""
    by_image: dict[tuple[int, ...], list[Fraction]] = {}
    for w, mass in zip(x.group.words, x.mass):
        by_image.setdefault(tuple(w[a] for a in p), []).append(mass)
    profiles = [sorted(b, reverse=True) for b in by_image.values()]
    masses = tuple(sum(prof, Fraction(0)) for prof in profiles)
    return masses, tuple(sum(col, Fraction(0)) for col in zip(*profiles))


def _direction_oracle(v: MajorizationVerdict) -> Direction:
    return {
        Relation.EQUAL_UP_TO_PERMUTATION: Direction.EQUAL,
        Relation.STRICTLY_BELOW: Direction.LEFT,
        Relation.STRICTLY_ABOVE: Direction.RIGHT,
    }.get(v.relation, Direction.MIXED)


def _combine_oracle(directions) -> Direction:
    seen = set(directions) - {Direction.EQUAL}
    if not seen:
        return Direction.EQUAL
    return seen.pop() if len(seen) == 1 else Direction.MIXED


def compare_q_oracle(left: CipherDist, right: CipherDist, q_max: int) -> ComparisonReport:
    """The q-sweep with each side projected on its own and every verdict
    and metric taken in Fractions."""
    levels = []
    for q in range(q_max + 1):
        rows = []
        for p in [()] if q == 0 else distinct_tuples(left.group.degree, q):
            masses_l, sum_l = project_oracle(left, p)
            masses_r, sum_r = project_oracle(right, p)
            rows.append(
                TupleComparison(
                    points=p,
                    advantage_left=variation_to_uniform_oracle(masses_l),
                    advantage_right=variation_to_uniform_oracle(masses_r),
                    guesswork_left=guesswork_oracle(sum_l),
                    guesswork_right=guesswork_oracle(sum_r),
                    coset_verdict=compare_oracle(masses_l, masses_r),
                    profile_verdict=compare_oracle(sum_l, sum_r),
                )
            )
        max_adv_l = max(rows, key=lambda r: r.advantage_left)
        max_adv_r = max(rows, key=lambda r: r.advantage_right)
        min_gw_l = min(rows, key=lambda r: r.guesswork_left)
        min_gw_r = min(rows, key=lambda r: r.guesswork_right)
        verdict = _combine_oracle(
            _direction_oracle(v)
            for row in rows
            for v in (row.coset_verdict, row.profile_verdict)
        )
        levels.append(
            LevelComparison(
                q=q,
                tuples=tuple(rows),
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
    overall = _combine_oracle(lvl.verdict for lvl in levels)
    return ComparisonReport(tuple(levels), overall)


def dist_over(
    rng: random.Random,
    group: GroupTable,
    total: int,
    subgroup: GroupTable | None = None,
) -> CipherDist:
    """Random distribution whose masses are w / total for integer weights
    w summing to total, so every denominator divides total; supported
    inside ``subgroup`` if one is given."""
    indices = group.indices_of(subgroup) if subgroup is not None else range(group.order)
    cuts = sorted(rng.randint(0, total) for _ in range(len(indices) - 1))
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    mass = [Fraction(0)] * group.order
    for i, w in zip(indices, weights):
        mass[i] = Fraction(w, total)
    return CipherDist(group, tuple(mass))


def shannon_entropy_mp(x, dps: int = 60) -> Decimal:
    """Shannon entropy in bits at ``dps`` decimal digits: the tie-breaker
    when two float entropies lie within the 1e-12 tolerance."""
    with localcontext() as ctx:
        ctx.prec = dps
        ln2 = Decimal(2).ln()
        total = Decimal(0)
        for f in map(Fraction, x):
            if f > 0:
                v = Decimal(f.numerator) / Decimal(f.denominator)
                total -= v * v.ln() / ln2
        return total


def apply_matrix(matrix, v) -> tuple[Fraction, ...]:
    """The matrix-vector product D v, exactly."""
    if len(v) != len(matrix):
        raise ValueError(f"vector length {len(v)} != matrix size {len(matrix)}")
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in matrix)


def permutation_matrix(p: Permutation) -> tuple[tuple[Fraction, ...], ...]:
    """The 0/1 matrix with a one at (i, p(i)) in each row i."""
    n = p.degree
    return tuple(
        tuple(Fraction(int(p.images[i] == j)) for j in range(n)) for i in range(n)
    )
