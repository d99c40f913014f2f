"""Shared randomized-case generators and independent brute-force oracles."""

from __future__ import annotations

import random
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from cipherorder import (
    CipherDist,
    GroupTable,
    closure,
    stabilizer,
    uniform_on,
)
from cipherorder.majorize import (
    MajorizationVerdict,
    Relation,
    _birkhoff_terms,
    _numerators,
)
from cipherorder.perms import Permutation
from cipherorder.qsecurity import (
    ComparisonReport,
    Direction,
    LevelComparison,
    TupleComparison,
    distinct_tuples,
)


# The word algebra of ``Permutation``s, independent of ``GroupTable``: the
# oracles below and the test constructions compose, invert and apply with
# it.  In ``compose(a, b)`` the right factor ``b`` acts first, so a product
# cipher ``E = XY`` applies ``Y`` to the plaintext before ``X``.


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The composition ``a after b``: ``b`` acts first, then ``a``."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return Permutation(tuple(a.images[j] for j in b.images))


def inverse(g: Permutation) -> Permutation:
    inv = [0] * g.degree
    for i, img in enumerate(g.images):
        inv[img] = i
    return Permutation(tuple(inv))


def apply(g: Permutation, p: int | tuple[int, ...]) -> int | tuple[int, ...]:
    """Image of a point, or the componentwise image of a tuple of points."""
    if isinstance(p, tuple):
        return tuple(apply(g, q) for q in p)
    if not 0 <= p < g.degree:
        raise ValueError(f"point {p} out of range for degree {g.degree}")
    return g.images[p]


def identity(m: int) -> Permutation:
    return Permutation(tuple(range(m)))


def cycle(m: int, points: Sequence[int]) -> Permutation:
    """The cycle sending ``points[i]`` to ``points[i+1]``, wrapping around."""
    if len(set(points)) != len(points):
        raise ValueError("cycle points must be distinct")
    word = list(range(m))
    for i, p in enumerate(points):
        word[p] = points[(i + 1) % len(points)]
    return Permutation(tuple(word))


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


def random_subgroup(rng: random.Random, group: GroupTable) -> tuple[int, ...]:
    """A varied-size subgroup as sorted indices of ``group``: trivial, a
    point stabilizer, cyclic, or generated by two random elements."""
    kind = rng.choice(["trivial", "stab", "cyclic", "two-gen"])
    if kind == "stab":
        return stabilizer(group, (rng.randrange(group.degree),))
    if kind == "trivial":
        gens = [identity(group.degree)]
    elif kind == "cyclic":
        gens = [group.element(rng.randrange(group.order))]
    else:
        gens = [group.element(rng.randrange(group.order)) for _ in range(2)]
    return group.indices_of(closure(gens))


def random_dist_on(
    rng: random.Random, group: GroupTable, subgroup: tuple[int, ...]
) -> CipherDist:
    """Random exact distribution supported inside a subgroup (zeros allowed)."""
    weights = rational_prob_vector(rng, len(subgroup))
    mass = [Fraction(0)] * group.order
    for i, w in zip(subgroup, weights):
        mass[i] = w
    return CipherDist(group, tuple(mass))


def random_dist(rng: random.Random, group: GroupTable) -> CipherDist:
    weights = rational_prob_vector(rng, group.order)
    return CipherDist(group, tuple(weights))


def convolve_oracle(x: CipherDist, y: CipherDist) -> CipherDist:
    """Brute-force product distribution: sum over all factor pairs (a, b)
    of x(a) y(b) at a*b (b applied first)."""
    group = x.group
    elements = list(group)
    out = [Fraction(0)] * group.order
    for i, a in enumerate(elements):
        if x.mass[i] == 0:
            continue
        for j, b in enumerate(elements):
            if y.mass[j] == 0:
                continue
            out[group.index(compose(a, b))] += x.mass[i] * y.mass[j]
    return CipherDist(group, tuple(out))


def enumerate_subgroup_oracle(generators: list[Permutation]) -> set[Permutation]:
    """Closure by repeated squaring of the product set until stable."""
    current = set(generators)
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


def union(blocks: tuple[tuple[int, ...], ...]) -> list[int]:
    """The indices of a double coset, from the blocks ``double_coset``
    returns."""
    return [i for block in blocks for i in block]


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


def marginal_guesswork_oracle(x, alpha) -> int:
    """Fewest leading entries of the decreasing rearrangement whose
    Fraction sum reaches alpha."""
    cum = Fraction(0)
    for i, f in enumerate(sorted((Fraction(v) for v in x), reverse=True), start=1):
        cum += f
        if cum >= alpha:
            return i
    raise ValueError(f"the entries sum to {cum}, below alpha {alpha}")


def alpha_guesswork_oracle(x, alpha) -> Fraction:
    """w - w * (x_[1] + ... + x_[w]) + sum i * x_[i] over i <= w, with
    w = marginal_guesswork_oracle(x, alpha), in Fractions."""
    w = marginal_guesswork_oracle(x, alpha)
    head = sorted((Fraction(v) for v in x), reverse=True)[:w]
    return w - w * sum(head, Fraction(0)) + guesswork_oracle(head)


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


def conditional_guesswork_posterior(x: CipherDist, p: tuple[int, ...]) -> Fraction:
    """Conditional guesswork by its definition, in Fractions: for each image
    of p with probability P > 0, the guesswork of the posterior (the masses
    giving that image over P, sorted decreasingly), weighted by P."""
    by_image: dict[tuple[int, ...], list[Fraction]] = {}
    for w, mass in zip(x.group.words, x.mass):
        by_image.setdefault(tuple(w[a] for a in p), []).append(mass)
    total = Fraction(0)
    for masses in by_image.values():
        prob = sum(masses, Fraction(0))
        if prob == 0:
            continue
        posterior = sorted((m / prob for m in masses), reverse=True)
        expected = sum((i * v for i, v in enumerate(posterior, start=1)), Fraction(0))
        total += prob * expected
    return total


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
        for p in distinct_tuples(left.group.degree, q):
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
    subgroup: tuple[int, ...] | None = None,
) -> CipherDist:
    """Random distribution whose masses are w / total for integer weights
    w summing to total, so every denominator divides total; supported
    inside ``subgroup`` (parent indices) if one is given."""
    indices = subgroup if subgroup is not None else range(group.order)
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


def hlp_witness_matrix_oracle(x, y) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix ``hlp_witness`` builds, in ``Fraction`` arithmetic: both
    vectors zero-padded and sorted decreasingly (ties by index), then each
    T-transform of the sorted chain (close the largest surplus y_j - x_j,
    lowest j on ties, against the first later deficit) applied to two rows
    of the permutation matrix pairing the sorted positions.  Expects x
    majorized by y."""
    n = max(len(x), len(y))
    xs = [Fraction(v) for v in x] + [Fraction(0)] * (n - len(x))
    ys = [Fraction(v) for v in y] + [Fraction(0)] * (n - len(y))
    order_x = sorted(range(n), key=lambda i: (-xs[i], i))
    order_y = sorted(range(n), key=lambda i: (-ys[i], i))
    xs = [xs[i] for i in order_x]
    ys = [ys[i] for i in order_y]
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        matrix[order_x[r]][order_y[r]] = Fraction(1)
    while ys != xs:
        gaps = [b - a for a, b in zip(xs, ys)]
        j = max(range(n), key=lambda i: (gaps[i], -i))
        k = next(i for i in range(j + 1, n) if gaps[i] < 0)
        delta = min(gaps[j], -gaps[k])
        lam = 1 - delta / (ys[j] - ys[k])
        ys[j] -= delta
        ys[k] += delta
        row_j, row_k = matrix[order_x[j]], matrix[order_x[k]]
        matrix[order_x[j]] = [lam * a + (1 - lam) * b for a, b in zip(row_j, row_k)]
        matrix[order_x[k]] = [(1 - lam) * a + lam * b for a, b in zip(row_j, row_k)]
    return tuple(tuple(row) for row in matrix)


def permutation_matrix(p: Permutation) -> tuple[tuple[Fraction, ...], ...]:
    """The 0/1 matrix with a one at (i, p(i)) in each row i."""
    n = p.degree
    return tuple(
        tuple(Fraction(int(p.images[i] == j)) for j in range(n)) for i in range(n)
    )


def perfect_matching_oracle(adj: list[list[int]], n: int) -> list[int] | None:
    """Row -> column perfect matching by Kuhn's algorithm with a recursive
    augmenting-path search: rows augment in order, each trying its columns
    in adjacency order, or None if there is none."""
    match_col = [-1] * n

    def augment(row: int, visited: list[bool]) -> bool:
        for col in adj[row]:
            if not visited[col]:
                visited[col] = True
                if match_col[col] < 0 or augment(match_col[col], visited):
                    match_col[col] = row
                    return True
        return False

    for row in range(n):
        if not augment(row, [False] * n):
            return None
    assignment = [-1] * n
    for col, row in enumerate(match_col):
        assignment[row] = col
    return assignment


def birkhoff_terms(matrix) -> list[tuple[Fraction, Permutation]]:
    """The integer Birkhoff kernel run on a doubly-stochastic matrix, which
    it expects: its rows as numerators over their common denominator."""
    return _birkhoff_terms(*_numerators(*matrix))


def birkhoff_decompose_oracle(matrix) -> list[tuple[Fraction, Permutation]]:
    """Greedy Birkhoff decomposition on ``Fraction`` entries: each step
    scans every distinct positive entry as a threshold, largest first, takes
    the first threshold whose adjacency has a perfect matching (by
    ``perfect_matching_oracle``) and subtracts the smallest matched entry
    along it.  Expects a doubly-stochastic matrix."""
    n = len(matrix)
    rows = [[Fraction(e) for e in row] for row in matrix]
    remaining = Fraction(1)
    terms: list[tuple[Fraction, Permutation]] = []
    while remaining > 0:
        thresholds = sorted({e for row in rows for e in row if e > 0}, reverse=True)
        for t in thresholds:
            adj = [[j for j in range(n) if row[j] >= t] for row in rows]
            assignment = perfect_matching_oracle(adj, n)
            if assignment is not None:
                break
        else:
            raise ValueError("matrix support admits no perfect matching")
        weight = min(rows[i][assignment[i]] for i in range(n))
        terms.append((weight, Permutation(tuple(assignment))))
        for i in range(n):
            rows[i][assignment[i]] -= weight
        remaining -= weight
    return terms
