"""Command-line interface.

Exit status: 0 when every computed verdict passes, 1 when any verdict fails,
2 on usage or parse errors.  The ``majorize`` subcommand instead encodes the
majorization verdict itself (see MAJORIZE_EXIT_CODES).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .dist import convolve_all
from .experiments import (
    ExperimentResult,
    emit_report,
    run_amplifier,
    run_collapse,
    run_expand,
    run_general_collapse,
)
from .majorize import Relation, compare, hlp_witness
from .metrics import (
    MetricValue,
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
    parse_group_spec,
    parse_permutation,
    parse_scenario,
)

USAGE_ERROR = 2

MAJORIZE_EXIT_CODES = {
    Relation.EQUAL_UP_TO_PERMUTATION: 0,
    Relation.STRICTLY_BELOW: 3,
    Relation.STRICTLY_ABOVE: 6,
    Relation.INCOMPARABLE: 7,
    Relation.NORM_MISMATCH: 8,
}


def _read_vector(path: str) -> list[Fraction]:
    try:
        tokens = Path(path).read_text().split()
        entries = [Fraction(tok) for tok in tokens]
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    if not entries:
        raise ScenarioError(f"{path}: no entries")
    return entries


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
        MetricValue("shannon_entropy_bits", shannon_entropy(x)),
        MetricValue("guesswork", guesswork(x)),
        MetricValue("variation_to_uniform", variation_to_uniform(x)),
    ]
    if args.renyi is not None:
        order = Fraction(args.renyi)
        values.append(
            MetricValue(f"renyi_entropy_bits[{order}]", renyi_entropy(x, order))
        )
    if args.alpha is not None:
        alpha = Fraction(args.alpha)
        values.append(
            MetricValue(f"marginal_guesswork[{alpha}]", marginal_guesswork(x, alpha))
        )
        values.append(
            MetricValue(f"alpha_guesswork[{alpha}]", alpha_guesswork(x, alpha))
        )
    for value in values:
        print(value)
    return 0


def _cmd_convolve(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    factors = []
    for name in args.names:
        if name not in scenario.ciphers:
            raise ScenarioError(f"unknown cipher {name!r}")
        factors.append(scenario.ciphers[name])
    product = convolve_all(factors)
    for i, mass in enumerate(product.mass):
        if mass > 0:
            print(f"{scenario.group.element(i)}\t{mass}")
    return 0


def _comparison_csv(report: ComparisonReport, per_tuple: bool) -> list[list[str]]:
    rows = [["q", "tuple", "metric", "value_left", "value_right", "verdict"]]

    def fmt_tuple(points: tuple[int, ...]) -> str:
        return "(" + ",".join(map(str, points)) + ")"

    for level in report.levels:
        q = str(level.q)
        rows.append(
            [
                q,
                fmt_tuple(level.max_advantage_left_tuple),
                "max_ncpa_advantage",
                str(level.max_advantage_left),
                str(level.max_advantage_right),
                level.verdict.value,
            ]
        )
        rows.append(
            [
                q,
                fmt_tuple(level.min_guesswork_left_tuple),
                "min_conditional_guesswork",
                str(level.min_guesswork_left),
                str(level.min_guesswork_right),
                level.verdict.value,
            ]
        )
        if per_tuple:
            for tc in level.tuples:
                rows.append(
                    [
                        q,
                        fmt_tuple(tc.points),
                        "ncpa_advantage",
                        str(tc.advantage_left),
                        str(tc.advantage_right),
                        tc.advantage_direction.value,
                    ]
                )
                rows.append(
                    [
                        q,
                        fmt_tuple(tc.points),
                        "conditional_guesswork",
                        str(tc.guesswork_left),
                        str(tc.guesswork_right),
                        tc.guesswork_direction.value,
                    ]
                )
                rows.append(
                    [
                        q,
                        fmt_tuple(tc.points),
                        "coset_majorization",
                        "",
                        "",
                        tc.coset_verdict.relation.value,
                    ]
                )
                rows.append(
                    [
                        q,
                        fmt_tuple(tc.points),
                        "profile_majorization",
                        "",
                        "",
                        tc.profile_verdict.relation.value,
                    ]
                )
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


def _write_csv(rows: list[list[str]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows(rows)


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    if not scenario.compare:
        raise ScenarioError("scenario declares no comparison pairs")
    q_max = scenario.q_max if args.q_max is None else args.q_max
    all_rows: list[list[str]] = []
    coherent = True
    for left, right in scenario.compare:
        report = compare_q(
            scenario.distribution(left), scenario.distribution(right), q_max
        )
        _print_comparison(report, left, right, args.per_tuple)
        if report.overall is Direction.MIXED:
            coherent = False
        rows = _comparison_csv(report, args.per_tuple)
        if not all_rows:
            all_rows.extend(rows)
        else:
            all_rows.extend(rows[1:])
    if args.csv is not None:
        _write_csv(all_rows, args.csv)
    return 0 if coherent else 1


def _experiment_setup(args: argparse.Namespace):
    group = parse_group_spec(args.group, where="--group")
    subgroup = parse_group_spec(
        args.subgroup, where="--subgroup", degree=group.degree
    )
    try:
        pi_value = json.loads(args.pi)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"--pi: {exc}") from None
    pi = parse_permutation(pi_value, where="--pi", degree=group.degree)
    return group, subgroup, pi


def _finish_experiment(result: ExperimentResult, args: argparse.Namespace) -> int:
    print(emit_report([result], "text"), end="")
    if args.csv:
        Path(args.csv).write_text(emit_report([result], "csv"))
    return 0 if result.passed else 1


def _cmd_expand(args: argparse.Namespace) -> int:
    group, subgroup, pi = _experiment_setup(args)
    result = run_expand(group, subgroup, pi, q_max=args.q_max)
    return _finish_experiment(result, args)


def _cmd_collapse(args: argparse.Namespace) -> int:
    group, subgroup, pi = _experiment_setup(args)
    result = run_collapse(group, subgroup, pi, q_max=args.q_max)
    return _finish_experiment(result, args)


def _cmd_general_collapse(args: argparse.Namespace) -> int:
    group, subgroup, pi = _experiment_setup(args)
    result = run_general_collapse(group, subgroup, pi, args.rounds)
    return _finish_experiment(result, args)


def _cmd_amplifier(args: argparse.Namespace) -> int:
    result = run_amplifier(args.n)
    return _finish_experiment(result, args)


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

    p = sub.add_parser("convolve", help="convolve named ciphers from a scenario")
    p.add_argument("scenario")
    p.add_argument("names", nargs="+", help="factors, rightmost applied first")
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
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("collapse", help="threefold collapse experiment")
    _add_experiment_flags(p)
    p.add_argument("--q-max", type=int, default=None)
    p.set_defaults(func=_cmd_collapse)

    p = sub.add_parser("general-collapse", help="r-round collapse experiment")
    _add_experiment_flags(p)
    p.add_argument("--rounds", type=int, required=True)
    p.set_defaults(func=_cmd_general_collapse)

    p = sub.add_parser("amplifier", help="extreme expansion experiment")
    p.add_argument("--n", type=int, required=True, help="security parameter (1 or 2)")
    p.add_argument("--csv", help="also write the report as CSV")
    p.set_defaults(func=_cmd_amplifier)

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
