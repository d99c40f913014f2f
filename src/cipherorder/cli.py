"""Command-line interface.

Exit status: 0 when every computed verdict passes, 1 when any verdict fails,
2 on usage or parse errors, an unwritable ``--csv`` path included.  The
``majorize`` subcommand instead encodes the majorization verdict itself (see
MAJORIZE_EXIT_CODES).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .dist import convolve_all
from .experiments import (
    emit_report,
    format_value,
    run_amplifier,
    run_collapse,
    run_expand,
    run_general_collapse,
)
from .majorize import Relation, compare, hlp_witness
from .metrics import (
    alpha_guesswork,
    guesswork,
    marginal_guesswork,
    renyi_entropy,
    shannon_entropy,
    variation_to_uniform,
)
from .qsecurity import ComparisonReport, Direction, compare_q
from .scenario import (
    Scenario,
    ScenarioError,
    _element,
    _json,
    parse_group_spec,
    parse_scenario,
    parse_subgroup,
)

USAGE_ERROR = 2

MAJORIZE_EXIT_CODES = {
    Relation.EQUAL_UP_TO_PERMUTATION: 0,
    Relation.STRICTLY_BELOW: 3,
    Relation.STRICTLY_ABOVE: 6,
    Relation.INCOMPARABLE: 7,
    Relation.NORM_MISMATCH: 8,
}


# largest decimal exponent a rational token may carry: Python's default
# limit on the digits of an int string.  Fraction("1e999999999") would build
# 10**999999999 before any other check could refuse it.
MAX_EXPONENT = 4300


def _rational(token: str, where: str) -> Fraction:
    """Parse one rational token (``3/4``, ``0.25``, ``1e-3``) for ``where``,
    a file or a flag, refusing exponents beyond ``MAX_EXPONENT``."""
    exponent = token.strip().lower().partition("e")[2]
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if digits.isdecimal() and (
        len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT
    ):
        raise ScenarioError(f"{where}: {token!r} has an exponent beyond {MAX_EXPONENT}")
    try:
        return Fraction(token)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    except ZeroDivisionError:
        raise ScenarioError(f"{where}: {token!r} has a zero denominator") from None


def _shown(value: Fraction, flag: str, token: str) -> str:
    """``value`` as printed in a metric label; a value whose numerator or
    denominator has more digits than ``str`` may print is refused, naming
    ``flag`` and ``token``."""
    try:
        return str(value)
    except ValueError:
        raise ScenarioError(f"{flag}: {token!r} has too many digits to print") from None


def _read_vector(path: str) -> list[Fraction]:
    try:
        tokens = Path(path).read_text().split()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    if not tokens:
        raise ScenarioError(f"{path}: no entries")
    return [_rational(tok, path) for tok in tokens]


def _write_csv(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc}") from None


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    return parse_scenario(text)


def _cmd_majorize(args: argparse.Namespace) -> int:
    x = _read_vector(args.x)
    y = _read_vector(args.y)
    verdict = compare(x, y)
    print(f"verdict\t{verdict.relation.value}")
    if verdict.witness_prefix is not None:
        above, below = verdict.witness_prefix
        print(f"witness_prefix_above\t{above}")
        print(f"witness_prefix_below\t{below}")
    if args.witness:
        if not verdict.is_below:
            print("witness\tunavailable (x is not majorized by y)")
        else:
            witness = hlp_witness(x, y)
            for row in witness.matrix:
                print("matrix\t" + " ".join(str(e) for e in row))
            for weight, perm in witness.decomposition:
                print(f"birkhoff\t{weight}\t{perm}")
    return MAJORIZE_EXIT_CODES[verdict.relation]


def _cmd_metrics(args: argparse.Namespace) -> int:
    x = _read_vector(args.dist)
    values = [
        ("shannon_entropy_bits", shannon_entropy(x)),
        ("guesswork", guesswork(x)),
        ("variation_to_uniform", variation_to_uniform(x)),
    ]
    if args.renyi is not None:
        order = _rational(args.renyi, "--renyi")
        shown = _shown(order, "--renyi", args.renyi)
        values.append((f"renyi_entropy_bits[{shown}]", renyi_entropy(x, order)))
    if args.alpha is not None:
        alpha = _rational(args.alpha, "--alpha")
        shown = _shown(alpha, "--alpha", args.alpha)
        values.append((f"marginal_guesswork[{shown}]", marginal_guesswork(x, alpha)))
        values.append((f"alpha_guesswork[{shown}]", alpha_guesswork(x, alpha)))
    for name, value in values:
        print(f"{name}\t{format_value(value)}")
    return 0


def _cmd_convolve(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    product = convolve_all([scenario.distribution(n) for n in args.names])
    for i, mass in enumerate(product.mass):
        if mass > 0:
            print(f"{scenario.group.element(i)}\t{mass}")
    return 0


def _comparison_csv(report: ComparisonReport, per_tuple: bool) -> list[list[str]]:
    """CSV rows of one report: two per level, then four per tuple if
    ``per_tuple``; each is q, tuple, metric, value_left, value_right, verdict."""
    rows = []
    for lv in report.levels:
        table = [
            ("max_ncpa_advantage", lv.max_advantage_left_tuple,
             lv.max_advantage_left, lv.max_advantage_right, lv.verdict),
            ("min_conditional_guesswork", lv.min_guesswork_left_tuple,
             lv.min_guesswork_left, lv.min_guesswork_right, lv.verdict),
        ]
        for tc in lv.tuples if per_tuple else ():
            table += [
                ("ncpa_advantage", tc.points, tc.advantage_left,
                 tc.advantage_right, tc.advantage_direction),
                ("conditional_guesswork", tc.points, tc.guesswork_left,
                 tc.guesswork_right, tc.guesswork_direction),
                ("coset_majorization", tc.points, "", "",
                 tc.coset_verdict.relation),
                ("profile_majorization", tc.points, "", "",
                 tc.profile_verdict.relation),
            ]
        for metric, points, left, right, verdict in table:
            tup = "(" + ",".join(map(str, points)) + ")"
            rows.append([str(lv.q), tup, metric, str(left), str(right), verdict.value])
    return rows


def _print_comparison(
    report: ComparisonReport, left: str, right: str, per_tuple: bool
) -> None:
    print(f"compare {left} (left) vs {right} (right)")
    for level in report.levels:
        print(
            f"q={level.q}: verdict={level.verdict.value}  "
            f"max_adv {left}={level.max_advantage_left} @"
            f"{level.max_advantage_left_tuple} "
            f"{right}={level.max_advantage_right} @"
            f"{level.max_advantage_right_tuple}  "
            f"min_gw {left}={level.min_guesswork_left} "
            f"{right}={level.min_guesswork_right}"
        )
        if per_tuple:
            for tc in level.tuples:
                print(
                    f"  p={tc.points}: adv=({tc.advantage_left}, "
                    f"{tc.advantage_right}) gw=({tc.guesswork_left}, "
                    f"{tc.guesswork_right}) coset="
                    f"{tc.coset_verdict.relation.value} profile="
                    f"{tc.profile_verdict.relation.value}"
                )
    print(f"overall: {report.overall.value}")


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    if not scenario.compare:
        raise ScenarioError("scenario declares no comparison pairs")
    q_max = scenario.q_max if args.q_max is None else args.q_max
    dist = scenario.distribution
    reports = [compare_q(dist(a), dist(b), q_max) for a, b in scenario.compare]
    if args.csv is not None:
        rows = [["q", "tuple", "metric", "value_left", "value_right", "verdict"]]
        for report in reports:
            rows += _comparison_csv(report, args.per_tuple)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        _write_csv(args.csv, buf.getvalue())
    for (left, right), report in zip(scenario.compare, reports):
        _print_comparison(report, left, right, args.per_tuple)
    return 0 if all(r.overall is not Direction.MIXED for r in reports) else 1


def _experiment_setup(args: argparse.Namespace):
    group = parse_group_spec(args.group, where="--group")
    h = parse_subgroup(args.subgroup, group, where="--subgroup")
    pi = _element(_json(args.pi, "--pi"), group, where="--pi")
    return group, h, pi


def _cmd_experiment(args: argparse.Namespace) -> int:
    result = args.run(args)
    if args.csv is not None:
        _write_csv(args.csv, emit_report([result], "csv"))
    print(emit_report([result], "text"), end="")
    return 0 if result.passed else 1


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group", required=True, help="ambient group, e.g. sym(3)")
    parser.add_argument(
        "--subgroup", required=True, help="subgroup H, e.g. gen([[1,0,2]])"
    )
    parser.add_argument("--pi", required=True, help="permutation, e.g. [0,2,1]")
    parser.add_argument("--csv", help="also write the report as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cipherorder",
        description="Exact security ordering of product ciphers over "
        "finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compare", aliases=["run"], help="compare a scenario's pairs up to q-max"
    )
    p.add_argument("scenario")
    p.add_argument("--q-max", type=int, default=None)
    p.add_argument("--per-tuple", action="store_true")
    p.add_argument("--csv", help="write comparison rows as CSV")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("convolve", help="convolve ciphers or products of a scenario")
    p.add_argument("scenario")
    p.add_argument(
        "names", nargs="+", help="ciphers or products, rightmost applied first"
    )
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("majorize", help="majorization verdict for two vectors")
    p.add_argument("x", help="file of whitespace-separated rationals")
    p.add_argument("y", help="file of whitespace-separated rationals")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=_cmd_majorize)

    p = sub.add_parser("metrics", help="security metrics of a distribution")
    p.add_argument("dist", help="file of whitespace-separated rationals")
    p.add_argument("--alpha", help="alpha for (marginal) alpha-guesswork")
    p.add_argument("--renyi", help="Renyi entropy order")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("expand", help="threefold expansion experiment")
    _add_experiment_flags(p)
    p.add_argument("--q-max", type=int, default=None)
    p.set_defaults(
        func=_cmd_experiment,
        run=lambda a: run_expand(*_experiment_setup(a), q_max=a.q_max),
    )

    p = sub.add_parser("collapse", help="threefold collapse experiment")
    _add_experiment_flags(p)
    p.add_argument("--q-max", type=int, default=None)
    p.set_defaults(
        func=_cmd_experiment,
        run=lambda a: run_collapse(*_experiment_setup(a), q_max=a.q_max),
    )

    p = sub.add_parser("general-collapse", help="r-round collapse experiment")
    _add_experiment_flags(p)
    p.add_argument("--rounds", type=int, required=True)
    p.set_defaults(
        func=_cmd_experiment,
        run=lambda a: run_general_collapse(*_experiment_setup(a), a.rounds),
    )

    p = sub.add_parser("amplifier", help="extreme expansion experiment")
    p.add_argument("--n", type=int, required=True, help="security parameter (1 or 2)")
    p.add_argument("--csv", help="also write the report as CSV")
    p.set_defaults(func=_cmd_experiment, run=lambda a: run_amplifier(a.n))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
