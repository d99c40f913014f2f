"""The expansion/collapse experiments and deterministic report emission.

Every pass/fail is computed: expected values come from the closed-form
counts (orbit-stabilizer, factorials), actual values from convolution,
decomposition, majorization and the q-query metrics.  Majorization verdicts,
entropies and guesswork are taken on each distribution's integer numerators
by the kernels behind ``majorize.compare`` and ``metrics``, with the same
values those functions give on the ``Fraction`` masses.  The element pi is
an index of the ambient group and the subgroup H a sorted tuple of them.
Identical inputs produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .dist import (
    CipherDist,
    _common_numerators,
    convolve,
    deterministic,
    translate,
    triple_decompose,
    uniform_on,
)
from .groups import (
    GroupTable,
    conjugate_subgroup,
    double_coset,
    over_cap,
    stabilizer,
    symmetric_group,
)
from .majorize import MajorizationVerdict, Relation, _verdict
from .metrics import ENTROPY_TOLERANCE, _guesswork, _shannon
from .perms import Permutation
from .qsecurity import Direction, _check_q_max, compare_q


class CheckRow(NamedTuple):
    quantity: str
    expected: str
    actual: str
    passed: bool


class ExperimentResult(NamedTuple):
    experiment: str
    rows: tuple[CheckRow, ...]
    degenerate: bool = False

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


class _Rows:
    """Collects check rows with uniform formatting."""

    def __init__(self) -> None:
        self.rows: list[CheckRow] = []

    def exact(self, quantity: str, expected, actual) -> None:
        self._add(quantity, format_value(expected), actual, expected == actual)

    def close(self, quantity: str, expected: float, actual: float) -> None:
        passed = abs(expected - actual) <= ENTROPY_TOLERANCE
        self._add(quantity, format_value(expected), actual, passed)

    def info(self, quantity: str, actual) -> None:
        self._add(quantity, "-", actual, True)

    def _add(self, quantity: str, expected: str, actual, passed: bool) -> None:
        self.rows.append(CheckRow(quantity, expected, format_value(actual), passed))

    def done(self) -> tuple[CheckRow, ...]:
        return tuple(self.rows)


def format_value(value) -> str:
    """A report or metric value as printed: floats to 12 significant
    digits, everything else through ``str``."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _assumption_row(rows: _Rows, h: tuple[int, ...], h_pi: tuple[int, ...]) -> bool:
    """Report whether H differs from its pi-conjugate ``h_pi`` (the expansion
    assumption); never an error, but the growth claims fail without it."""
    holds = h_pi != h
    rows.info("assumption_H_ne_piHpi^-1", "holds" if holds else "fails")
    return holds


def _majorization(x: CipherDist, y: CipherDist) -> MajorizationVerdict:
    """The verdict ``majorize.compare`` gives on the masses of ``x`` and
    ``y``, from their numerators over ``lcm(x.den, y.den)``."""
    xs, ys, _ = _common_numerators(x, y)
    return _verdict(sorted(xs, reverse=True), sorted(ys, reverse=True))


def _guesswork_of(x: CipherDist) -> Fraction:
    return _guesswork(sorted(x.nums, reverse=True), x.den)


def _direction_rows(
    rows: _Rows, label: str, left: CipherDist, right: CipherDist, q_max: int
) -> None:
    report = compare_q(left, right, q_max)
    for level in report.levels:
        rows.rows.append(
            CheckRow(
                f"q{level.q}_direction_{label}",
                f"{Direction.LEFT.value} or {Direction.EQUAL.value}",
                level.verdict.value,
                level.verdict in (Direction.LEFT, Direction.EQUAL),
            )
        )


def _union(blocks: tuple[tuple[int, ...], ...]) -> list[int]:
    """The indices of a double coset, from its left-coset blocks."""
    return [i for block in blocks for i in block]


def _threefold(x: CipherDist, y: int) -> tuple[CipherDist, ...]:
    """(delta_y x, T = x delta_y x, D = x x)."""
    yx = convolve(deterministic(x.group, y), x)
    t = convolve(x, yx)
    return yx, t, convolve(x, x)


def _default_q_max(group: GroupTable, q_max: int | None) -> int:
    if q_max is None:
        return min(3, group.degree)
    _check_q_max(group, q_max)  # also where pi in H returns before comparing
    return q_max


def run_expand(
    group: GroupTable,
    h: tuple[int, ...],
    pi: int,
    *,
    q_max: int | None = None,
) -> ExperimentResult:
    """Threefold expansion: T = XYZ vs D = XZ with X, Z uniform on H and Y
    deterministic at pi.  T spreads uniformly over the double coset H pi H
    and is more secure than D by every metric."""
    q_max = _default_q_max(group, q_max)
    x = uniform_on(group, h)
    _, t, d = _threefold(x, pi)
    rows = _Rows()

    if pi in h:
        rows.info("degenerate_pi_in_H", True)
        rows.exact("T_equals_D_distributionally", True, t == d)
        return ExperimentResult("expand", rows.done(), degenerate=True)

    h_pi = conjugate_subgroup(group, pi, h)
    _assumption_row(rows, h, h_pi)
    decomp = triple_decompose(x, pi, x, h, h)
    hpih = _union(decomp.blocks)
    rows.exact("support_T", len(hpih), t.support_size())
    rows.exact("support_D", len(h), d.support_size())
    rows.exact("support_expansion", True, t.support_size() > d.support_size())
    rows.exact("T_uniform_on_HpiH", True, t == uniform_on(group, hpih))

    verdict = _majorization(t, d)
    rows.exact(
        "majorization_t_vs_d", Relation.STRICTLY_BELOW.value, verdict.relation.value
    )

    rows.exact("decomposition_m", len(h) // len(set(h) & set(h_pi)), decomp.m)
    rows.exact("decomposition_reconstructs_T", True, decomp.mixture() == t)
    rows.exact(
        "decomposition_parts_majorized_by_z",
        True,
        all(_majorization(part, x).is_below for part in decomp.parts),
    )

    rows.close("entropy_T_bits", math.log2(t.support_size()), _shannon(t.nums, t.den))
    rows.close("entropy_D_bits", math.log2(d.support_size()), _shannon(d.nums, d.den))
    rows.exact("guesswork_T", Fraction(t.support_size() + 1, 2), _guesswork_of(t))
    rows.exact("guesswork_D", Fraction(d.support_size() + 1, 2), _guesswork_of(d))

    _direction_rows(rows, "T_vs_D", t, d, q_max)
    return ExperimentResult("expand", rows.done())


def run_collapse(
    group: GroupTable,
    h: tuple[int, ...],
    pi: int,
    *,
    q_max: int | None = None,
) -> ExperimentResult:
    """Threefold collapse: X, Z uniform on the coset pi*H and Y deterministic
    at pi^-1.  The alternating T = XYZ collapses back onto pi*H while the
    two-term D = XZ spreads; every metric now favors D."""
    q_max = _default_q_max(group, q_max)
    pi_inv = group.inverse(pi)
    uniform_h = uniform_on(group, h)
    x = translate(pi, uniform_h)
    yx, t, d = _threefold(x, pi_inv)
    rows = _Rows()

    if pi in h:
        rows.info("degenerate_pi_in_H", True)
        rows.exact("T_equals_D_distributionally", True, t == d)
        return ExperimentResult("collapse", rows.done(), degenerate=True)

    _assumption_row(rows, h, conjugate_subgroup(group, pi, h))
    rows.exact("inner_convolution_uniform_on_H", True, yx == uniform_h)
    rows.exact("support_T", len(h), t.support_size())
    rows.exact("supp_T_equals_piH", True, t == x)

    hpih = _union(double_coset(group, h, pi, h))
    rows.exact("support_D", len(hpih), d.support_size())

    verdict = _majorization(d, t)
    rows.exact(
        "majorization_d_vs_t", Relation.STRICTLY_BELOW.value, verdict.relation.value
    )

    # dropping the leading pi recovers the expansion experiment's pair
    _, t_exp, d_exp = _threefold(uniform_h, pi)
    rows.exact("translated_T_equals_expand_D", True, translate(pi_inv, t) == d_exp)
    rows.exact("translated_D_equals_expand_T", True, translate(pi_inv, d) == t_exp)

    _direction_rows(rows, "D_vs_T", d, t, q_max)
    return ExperimentResult("collapse", rows.done())


def run_general_collapse(
    group: GroupTable,
    h: tuple[int, ...],
    pi: int,
    rounds: int,
) -> ExperimentResult:
    """Alternating product over r rounds: E = X_{r+1} Y_r X_r ... Y_1 X_1
    with every X_i uniform on pi*H and every Y_i deterministic at pi^-1.
    E stays confined to pi*H for all r while the Y-free product
    X = X_{r+1}...X_1 keeps spreading."""
    if rounds < 1:
        raise ValueError("round count must be at least 1")
    x = translate(pi, uniform_on(group, h))
    y = deterministic(group, group.inverse(pi))
    rows = _Rows()

    if pi in h:
        rows.info("degenerate_pi_in_H", True)
        return ExperimentResult("general-collapse", rows.done(), degenerate=True)

    holds = _assumption_row(rows, h, conjugate_subgroup(group, pi, h))
    expected_verdict = (
        Relation.STRICTLY_BELOW if holds else Relation.EQUAL_UP_TO_PERMUTATION
    )
    e = x
    x_prod = x
    prev_support = 0
    for r in range(1, rounds + 1):
        ye = convolve(y, e)
        e = convolve(x, ye)
        x_prod = convolve(x, x_prod)
        rows.exact(f"r{r}_support_E", len(h), e.support_size())
        rows.exact(f"r{r}_E_equals_uniform_piH", True, e == x)
        supp = x_prod.support_size()
        if holds:
            rows.exact(f"r{r}_X_support_exceeds_piH", True, supp > len(h))
        rows.exact(f"r{r}_X_support_nondecreasing", True, supp >= prev_support)
        prev_support = supp
        rows.exact(
            f"r{r}_majorization_x_vs_e",
            expected_verdict.value,
            _majorization(x_prod, e).relation.value,
        )
    return ExperimentResult("general-collapse", rows.done())


def run_amplifier(n: int) -> ExperimentResult:
    """Extreme expansion at security parameter n: X and Z uniform over the
    permutations of {0..2^n} fixing the extra point 2^n, Y the +1 rotation.
    D = XZ always fixes the extra point (a perfect distinguisher) while
    T = XYZ spreads over (2^n+1)! - (2^n)! permutations."""
    if n < 1:
        raise ValueError("security parameter must be at least 1")
    if n >= 64:
        # a degree past 2^64 is far over the cap: name it, do not form it
        raise over_cap(f"sym(2^{n}+1)")
    space = 2**n + 1
    group = symmetric_group(space)
    fixed_point = space - 1
    h = stabilizer(group, (fixed_point,))
    pi = group.index(Permutation(tuple((i + 1) % space for i in range(space))))
    x = uniform_on(group, h)
    _, t, d = _threefold(x, pi)
    rows = _Rows()

    hpih = _union(double_coset(group, h, pi, h))
    rows.exact("support_T", factorial(space) - factorial(space - 1), t.support_size())
    rows.exact("support_T_matches_double_coset", len(hpih), t.support_size())
    rows.exact("T_uniform_on_double_coset", True, t == uniform_on(group, hpih))
    rows.exact("supp_D_equals_sym_M", True, d.support() == h)

    fix_mass = Fraction(
        sum(n for n, w in zip(d.nums, group.words) if w[fixed_point] == fixed_point),
        d.den,
    )
    rows.exact("D_fixes_distinguished_point", Fraction(1), fix_mass)
    ideal_fix = Fraction(factorial(space - 1), factorial(space))
    rows.exact(
        "distinguisher_advantage", Fraction(2**n, space), fix_mass - ideal_fix
    )
    return ExperimentResult("amplifier", rows.done())


def emit_report(results: list[ExperimentResult], fmt: str = "text") -> str:
    """Render results as a fixed-width table or CSV; byte-identical for
    identical inputs."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["experiment", "quantity", "expected", "actual", "verdict"])
        for result in results:
            for row in result.rows:
                writer.writerow(
                    [
                        result.experiment,
                        row.quantity,
                        row.expected,
                        row.actual,
                        "pass" if row.passed else "fail",
                    ]
                )
        return buf.getvalue()
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        suffix = " (degenerate)" if result.degenerate else ""
        lines.append(f"== {result.experiment}{suffix}: {status}")
        width_q = max((len(r.quantity) for r in result.rows), default=0)
        width_e = max((len(r.expected) for r in result.rows), default=0)
        width_a = max((len(r.actual) for r in result.rows), default=0)
        for row in result.rows:
            lines.append(
                f"  {row.quantity:<{width_q}}  expected={row.expected:<{width_e}}"
                f"  actual={row.actual:<{width_a}}  "
                + ("pass" if row.passed else "FAIL")
            )
    return "\n".join(lines) + "\n"
