import argparse
import json
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cipherorder.cli import MAJORIZE_EXIT_CODES, build_parser, main
from cipherorder.experiments import (
    emit_report,
    run_amplifier,
    run_collapse,
    run_expand,
    run_general_collapse,
)
from cipherorder.majorize import Relation
from cipherorder.scenario import parse_group_spec, parse_permutation

DATA = Path(__file__).resolve().parent / "data"

SCENARIO = {
    "message_count": 3,
    "group": "sym(3)",
    "ciphers": {
        "X": {"uniform_on": "gen([[1,0,2]])"},
        "Y": {"deterministic": [0, 2, 1]},
    },
    "products": {"T": ["X", "Y", "X"], "D": ["X", "X"]},
    "compare": [["T", "D"]],
    "q_max": 2,
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


def test_majorize_verdict_exit_codes(tmp_path, capsys):
    u = write(tmp_path, "u.vec", "1/3 1/3 1/3")
    x = write(tmp_path, "x.vec", "1/2 1/2 0")
    assert main(["majorize", u, x]) == MAJORIZE_EXIT_CODES[Relation.STRICTLY_BELOW]
    assert "strictly-below" in capsys.readouterr().out
    assert main(["majorize", x, u]) == MAJORIZE_EXIT_CODES[Relation.STRICTLY_ABOVE]
    assert main(["majorize", u, u]) == 0
    bad = write(tmp_path, "bad.vec", "1/2 1/2 1/2")
    assert main(["majorize", u, bad]) == MAJORIZE_EXIT_CODES[Relation.NORM_MISMATCH]
    assert set(MAJORIZE_EXIT_CODES) == set(Relation)
    codes = list(MAJORIZE_EXIT_CODES.values())
    assert len(set(codes)) == len(codes)


def test_majorize_incomparable_witness_prefixes(tmp_path, capsys):
    a = write(tmp_path, "a.vec", "3/5 1/5 1/5")
    b = write(tmp_path, "b.vec", "1/2 2/5 1/10")
    code = main(["majorize", a, b])
    assert code == MAJORIZE_EXIT_CODES[Relation.INCOMPARABLE]
    out = capsys.readouterr().out
    assert "witness_prefix_above\t1" in out
    assert "witness_prefix_below\t2" in out


def _witness_lines(out):
    matrix, terms = [], []
    for line in out.splitlines():
        kind, _, rest = line.partition("\t")
        if kind == "matrix":
            matrix.append([Fraction(e) for e in rest.split()])
        elif kind == "birkhoff":
            weight, perm = rest.split("\t")
            terms.append((Fraction(weight), json.loads(perm)))
    return matrix, terms


def test_majorize_witness_output(tmp_path, capsys):
    cases = [("1/2 1/2", "1 0"), ("1/4 1/3 1/6 1/4", "0 1/2 1/3 1/6"), ("1/5 " * 5, "1")]
    for x_vec, y_vec in cases:
        x = write(tmp_path, "x.vec", x_vec)
        y = write(tmp_path, "y.vec", y_vec)
        code = main(["majorize", x, y, "--witness"])
        assert code == MAJORIZE_EXIT_CODES[Relation.STRICTLY_BELOW]
        out = capsys.readouterr().out
        if x_vec == "1/2 1/2":
            assert "matrix\t1/2 1/2" in out
            assert "birkhoff\t1/2" in out
        matrix, terms = _witness_lines(out)
        n = len(x_vec.split())
        assert len(matrix) == n
        assert 1 <= len(terms) <= (n - 1) ** 2 + 1
        rebuilt = [[Fraction(0)] * n for _ in range(n)]
        for weight, perm in terms:
            assert weight > 0
            for i, j in enumerate(perm):
                rebuilt[i][j] += weight
        assert rebuilt == matrix


def test_majorize_missing_file(tmp_path, capsys):
    assert main(["majorize", str(tmp_path / "none.vec"), str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("witness", [[], ["--witness"]])
@pytest.mark.parametrize("position", ["x", "y", "both"])
def test_majorize_empty_vector_file_exits_two(tmp_path, capsys, position, witness):
    empty = write(tmp_path, "e.vec", "\n")
    u = write(tmp_path, "u.vec", "1/2 1/2")
    x = u if position == "y" else empty
    y = u if position == "x" else empty
    assert main(["majorize", x, y, *witness]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{empty}: no entries" in captured.err


def test_metrics_empty_vector_file_exits_two(tmp_path, capsys):
    empty = write(tmp_path, "e.vec", "")
    assert main(["metrics", empty]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{empty}: no entries" in captured.err


def test_metrics_output(tmp_path, capsys):
    dist = write(tmp_path, "d.vec", "1/2 1/4 1/4")
    assert main(["metrics", dist, "--alpha", "1/2", "--renyi", "2"]) == 0
    assert capsys.readouterr().out == (
        "shannon_entropy_bits\t1.5\n"
        "guesswork\t7/4\n"
        "variation_to_uniform\t1/6\n"
        "renyi_entropy_bits[2]\t1.41503749928\n"
        "marginal_guesswork[1/2]\t1\n"
        "alpha_guesswork[1/2]\t1\n"
    )


CLI_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
from cipherorder.cli import main
raise SystemExit(main(sys.argv[2:]))
"""


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter; a run over 10 s fails the test
    (subprocess.TimeoutExpired) rather than hanging the suite."""
    src = Path(__file__).resolve().parent.parent / "src"
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-I", "-c", CLI_PROBE, str(src), *argv],
        capture_output=True,
        text=True,
        timeout=10,
    )
    return result, time.perf_counter() - start


HUGE_EXPONENTS = ["1e999999999", "1e-999999999", "1E+4301", "0e-000004301"]


@pytest.mark.parametrize("token", HUGE_EXPONENTS)
@pytest.mark.parametrize("command", ["majorize", "metrics"])
def test_vector_token_exponent_out_of_range_exits_two(tmp_path, command, token):
    bad = write(tmp_path, "bad.vec", f"1/2 {token} 1/2")
    ok = write(tmp_path, "ok.vec", "1/2 1/2")
    argv = [command, ok, bad] if command == "majorize" else [command, bad]
    result, elapsed = _run_cli(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {bad}: ")
    assert token in result.stderr
    assert elapsed < 1


# 1e4300 and 1e-4300 are read, but have 4301 digits: too many to print
@pytest.mark.parametrize("token", [*HUGE_EXPONENTS, "abc", "1e4300", "1e-4300"])
@pytest.mark.parametrize("flag", ["--alpha", "--renyi"])
def test_metrics_flag_token_errors_name_the_flag(tmp_path, flag, token):
    dist = write(tmp_path, "d.vec", "1/2 1/2")
    result, elapsed = _run_cli("metrics", dist, f"{flag}={token}")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {flag}: ")
    assert token in result.stderr
    assert elapsed < 1


def test_metrics_large_renyi_order_prints_quickly(tmp_path):
    dist = write(tmp_path, "d.vec", "1/2 1/4 1/4")
    result, elapsed = _run_cli("metrics", dist, "--renyi", "1000000000")
    assert result.returncode == 0
    # 1 + 1/(order - 1): the min-entropy 1 plus the tie-count term
    assert "renyi_entropy_bits[1000000000]\t1.000000001\n" in result.stdout
    assert elapsed < 1


@pytest.mark.parametrize("order", ["600.5", "999.5"])
def test_metrics_renyi_order_whose_powers_underflow(tmp_path, capsys, order):
    # (1/4)^order underflows to 0.0 in floats; the largest mass is then
    # factored out, and the uniform vector on 4 points has entropy 2
    dist = write(tmp_path, "q.vec", "1/4 1/4 1/4 1/4")
    assert main(["metrics", dist, "--renyi", order]) == 0
    assert f"renyi_entropy_bits[{Fraction(order)}]\t2\n" in capsys.readouterr().out


def test_metrics_renyi_order_whose_power_sum_is_subnormal(tmp_path, capsys):
    # the float sum of x_i^912.5 is about 4.3e-322, a subnormal that keeps
    # only a few bits; a 60-digit decimal evaluation gives 1.17120851763
    dist = write(tmp_path, "s.vec", "1/9 1/9 4/9 1/3")
    assert main(["metrics", dist, "--renyi", "912.5"]) == 0
    assert "renyi_entropy_bits[1825/2]\t1.17120851763\n" in capsys.readouterr().out


def test_vector_token_exponent_at_the_bound_is_read(tmp_path, capsys):
    x = write(tmp_path, "x.vec", "1e4300 0e-4300")
    y = write(tmp_path, "y.vec", "1E+4300 0")
    assert main(["majorize", x, y]) == 0
    assert capsys.readouterr().out == "verdict\tequal-up-to-permutation\n"


def test_metrics_rejects_unnormalized(tmp_path):
    dist = write(tmp_path, "d.vec", "1/2 1/4")
    assert main(["metrics", dist]) == 2


def test_convolve_lists_product_support(scenario_file, capsys):
    assert main(["convolve", scenario_file, "X", "Y", "X"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith("\t1/4") for line in lines)


def test_convolve_unknown_name(scenario_file):
    assert main(["convolve", scenario_file, "X", "Q"]) == 2


def test_run_scenario(scenario_file, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    assert main(["run", scenario_file, "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "compare T (left) vs D (right)" in out
    assert "overall: left-no-less-secure" in out
    header = csv_path.read_text().splitlines()[0]
    assert header == "q,tuple,metric,value_left,value_right,verdict"


def test_compare_per_tuple_csv(scenario_file, tmp_path, capsys):
    csv_path = tmp_path / "per_tuple.csv"
    assert (
        main(
            [
                "compare",
                scenario_file,
                "--q-max",
                "1",
                "--per-tuple",
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    body = csv_path.read_text()
    assert "ncpa_advantage" in body
    assert "conditional_guesswork" in body
    assert "coset_majorization" in body
    out = capsys.readouterr().out
    assert "p=(0,)" in out


@pytest.mark.parametrize("command", ["run", "compare"])
def test_compare_per_tuple_golden_output(scenario_file, tmp_path, capsys, command):
    csv_path = tmp_path / "golden.csv"
    argv = [command, scenario_file, "--q-max", "2", "--per-tuple"]
    argv += ["--csv", str(csv_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / "compare_per_tuple.out").read_text()
    assert csv_path.read_bytes() == (DATA / "compare_per_tuple.csv").read_bytes()


def test_compare_two_pairs_golden_output(tmp_path, capsys):
    scenario = dict(SCENARIO, compare=[["T", "D"], ["X", "T"]])
    path = write(tmp_path, "two.json", json.dumps(scenario))
    csv_path = tmp_path / "two.csv"
    assert main(["compare", path, "--q-max", "1", "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().out == (DATA / "compare_two_pairs.out").read_text()
    assert csv_path.read_bytes() == (DATA / "compare_two_pairs.csv").read_bytes()


# shaped like the compare-q-s6 benchmark scenario (K Y A vs K A, B Y A vs
# B A) over sym(4); A, B and K's subgroup have orders 2, 3 and 4, so the
# first pair's masses have denominators 8 and 4
SYM4_SCENARIO = {
    "message_count": 4,
    "group": "sym(4)",
    "ciphers": {
        "A": {"uniform_on": "gen([[2,3,0,1]])"},
        "B": {"uniform_on": "gen([[1,2,0,3]])"},
        "Y": {"deterministic": [2, 0, 3, 1]},
        "K": {"coset": {"rep": [1, 0, 3, 2], "subgroup": "gen([[1,2,3,0]])"}},
    },
    "products": {
        "T": ["K", "Y", "A"],
        "D": ["K", "A"],
        "U": ["B", "Y", "A"],
        "V": ["B", "A"],
    },
    "compare": [["T", "D"], ["U", "V"]],
    "q_max": 2,
}


def test_compare_sym4_full_sweep_golden_output(tmp_path, capsys):
    path = write(tmp_path, "sym4.json", json.dumps(SYM4_SCENARIO))
    csv_path = tmp_path / "sym4.csv"
    argv = ["compare", path, "--q-max", "4", "--per-tuple", "--csv", str(csv_path)]
    assert main(argv) == 1  # the second pair is mixed at q = 1
    assert capsys.readouterr().out == (DATA / "compare_sym4.out").read_text()
    assert csv_path.read_bytes() == (DATA / "compare_sym4.csv").read_bytes()


# expand, collapse and two-round general-collapse on sym(5) for a point
# stabilizer and for the normal subgroup A5 = <(0 1 2), (2 3 4)>, whose
# conjugates all equal it: the expansion assumption fails, so the expand and
# collapse reports fail (exit 1)
SYM5_EXPERIMENTS = [
    [*command, "--group", "sym(5)", "--subgroup", subgroup, "--pi", pi]
    for subgroup, pi in (
        ("stab(5, 4)", "[1,2,3,4,0]"),
        ("gen([[1,2,0,3,4],[0,1,3,4,2]])", "[1,0,2,3,4]"),
    )
    for command in (["expand"], ["collapse"], ["general-collapse", "--rounds", "2"])
]


def test_experiments_sym5_golden_output(tmp_path, capsys):
    """Each run's command line, stdout and exit code, and its CSV, appended
    in order."""
    out, csv = [], []
    csv_path = tmp_path / "report.csv"
    for argv in SYM5_EXPERIMENTS:
        rc = main([*argv, "--csv", str(csv_path)])
        stdout = capsys.readouterr().out
        out.append(f"$ cipherorder {shlex.join(argv)} --csv <csv>\n{stdout}exit {rc}\n")
        csv.append(csv_path.read_bytes())
    assert "".join(out) == (DATA / "experiments_sym5.out").read_text()
    assert b"".join(csv) == (DATA / "experiments_sym5.csv").read_bytes()


MIXED_SCENARIO = {
    "message_count": 3,
    "group": "sym(3)",
    "ciphers": {
        "X": {"uniform_on": "gen([[0,2,1]])"},
        "Y": {"uniform_on": "gen([[1,0,2]])"},
    },
    "compare": [["X", "Y"]],
    "q_max": 2,
}


@pytest.mark.parametrize("command", ["run", "compare"])
def test_mixed_comparison_exits_one(tmp_path, capsys, command):
    path = write(tmp_path, "mixed.json", json.dumps(MIXED_SCENARIO))
    assert main([command, path]) == 1
    out = capsys.readouterr().out
    assert "q=0: verdict=equivalent" in out
    assert "q=1: verdict=mixed" in out
    assert "q=2: verdict=equivalent" in out
    assert "overall: mixed" in out


def test_run_reports_parse_errors(tmp_path):
    path = write(tmp_path, "bad.json", "{")
    assert main(["run", path]) == 2


@pytest.mark.parametrize("command", ["run", "compare"])
def test_scenario_without_pairs_exits_two(tmp_path, capsys, command):
    no_pairs = {key: v for key, v in SCENARIO.items() if key != "compare"}
    path = write(tmp_path, "no_pairs.json", json.dumps(no_pairs))
    assert main([command, path]) == 2
    assert "no comparison pairs" in capsys.readouterr().err


def test_negative_q_max_exits_two(scenario_file, capsys):
    assert main(["compare", scenario_file, "--q-max", "-1"]) == 2
    assert "q_max -1" in capsys.readouterr().err


def test_expand_subcommand(capsys, tmp_path):
    csv_path = tmp_path / "expand.csv"
    code = main(
        [
            "expand",
            "--group",
            "sym(3)",
            "--subgroup",
            "gen([[1,0,2]])",
            "--pi",
            "[0,2,1]",
            "--csv",
            str(csv_path),
        ]
    )
    assert code == 0
    assert "== expand: PASS" in capsys.readouterr().out
    assert "support_T,4,4,pass" in csv_path.read_text()


def test_collapse_subcommand(capsys):
    code = main(
        [
            "collapse",
            "--group",
            "sym(3)",
            "--subgroup",
            "gen([[1,0,2]])",
            "--pi",
            "[0,2,1]",
        ]
    )
    assert code == 0
    assert "== collapse: PASS" in capsys.readouterr().out


def test_general_collapse_subcommand(capsys):
    code = main(
        [
            "general-collapse",
            "--group",
            "sym(3)",
            "--subgroup",
            "gen([[1,0,2]])",
            "--pi",
            "[0,2,1]",
            "--rounds",
            "2",
        ]
    )
    assert code == 0
    assert "== general-collapse: PASS" in capsys.readouterr().out


def test_amplifier_subcommand(capsys):
    assert main(["amplifier", "--n", "1"]) == 0
    assert "== amplifier: PASS" in capsys.readouterr().out
    for n in (3, 12, 20):
        assert main(["amplifier", "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert f"sym({2**n + 1}) has more than 50000 elements" in err
        assert "cap" in err
    for n in (20_000, 10**9):
        start = time.perf_counter()
        assert main(["amplifier", "--n", str(n)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert f"sym(2^{n}+1) has more than 50000 elements, the group-size cap" in err


S3_SETUP = ("sym(3)", "gen([[1,0,2]])", "[0,2,1]")
S4_NORMAL_SETUP = ("sym(4)", "gen([[1,0,3,2],[2,3,0,1]])", "[1,0,2,3]")


def _experiment_case(command, setup, extra, run):
    group, subgroup, pi = setup
    argv = [command, "--group", group, "--subgroup", subgroup, "--pi", pi, *extra]

    def result():
        g = parse_group_spec(group, where="group")
        h = parse_group_spec(subgroup, where="subgroup", degree=g.degree)
        p = parse_permutation(json.loads(pi), where="pi", degree=g.degree)
        return run(g, h, p)

    return pytest.param(argv, result, id=f"{command}-{group}")


EXPERIMENT_CASES = [
    _experiment_case("expand", S3_SETUP, [], run_expand),
    _experiment_case(
        "expand", S4_NORMAL_SETUP, ["--q-max", "1"],
        lambda g, h, p: run_expand(g, h, p, q_max=1),
    ),
    _experiment_case("collapse", S3_SETUP, [], run_collapse),
    _experiment_case(
        "general-collapse", S3_SETUP, ["--rounds", "2"],
        lambda g, h, p: run_general_collapse(g, h, p, 2),
    ),
    pytest.param(["amplifier", "--n", "1"], lambda: run_amplifier(1), id="amplifier"),
]


@pytest.mark.parametrize("argv, result", EXPERIMENT_CASES)
def test_experiment_subcommands_print_the_report(tmp_path, capsys, argv, result):
    csv_path = tmp_path / "report.csv"
    code = main([*argv, "--csv", str(csv_path)])
    expected = result()
    assert code == (0 if expected.passed else 1)
    assert capsys.readouterr().out == emit_report([expected], "text")
    assert csv_path.read_text() == emit_report([expected], "csv")


def _subcommands():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sorted(sub.choices)


def test_every_subcommand_answers_help(capsys):
    names = _subcommands()
    assert {"run", "compare", "expand", "amplifier"} <= set(names)
    for name in names:
        assert main([name, "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: cipherorder ")


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--group", "sym(3)", "--subgroup", "sym(3)", "--pi", "[0,1,2]"],
        ["collapse", "--group", "sym(3)", "--subgroup", "sym(3)", "--pi", "[0,1,2]"],
        [
            "general-collapse", "--group", "sym(3)", "--subgroup", "sym(3)",
            "--pi", "[0,1,2]", "--rounds", "1",
        ],
        ["amplifier", "--n", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_experiment_subcommands_parse_to_a_run(argv):
    args = build_parser().parse_args(argv)
    assert callable(args.func)
    assert callable(args.run)


# a degree of 5000 digits: over the cap, and over int()'s 4300-digit limit
BIG = "9" * 5000
BAD_GROUP_SPECS = [
    "sym(0)", "cyclic(0)", f"sym({BIG})", f"cyclic({BIG})", f"stab({BIG}, 0)",
]


@pytest.mark.parametrize(
    "spec",
    BAD_GROUP_SPECS,
    ids=["sym(0)", "cyclic(0)", "sym(big)", "cyclic(big)", "stab(big,0)"],
)
def test_bad_group_spec_names_the_field(tmp_path, capsys, spec):
    scenario = dict(SCENARIO, group=spec)
    path = write(tmp_path, "bad_group.json", json.dumps(scenario))
    argvs = [
        (["compare", path], "error: group: "),
        (["expand", "--group", spec, "--subgroup", "sym(3)", "--pi", "[0,1,2]"],
         "error: --group: "),
    ]
    for argv, prefix in argvs:
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix)
        if BIG in spec:
            assert "50000 elements, the group-size cap" in captured.err


def test_experiment_failure_exit_code(capsys):
    # normal subgroup: the expansion verdicts genuinely fail -> exit 1
    code = main(
        [
            "expand",
            "--group",
            "sym(4)",
            "--subgroup",
            "gen([[1,0,3,2],[2,3,0,1]])",
            "--pi",
            "[1,0,2,3]",
            "--q-max",
            "1",
        ]
    )
    assert code == 1


def test_boolean_permutation_entries_exit_two(capsys):
    argv = ["expand", "--group", "sym(3)", "--subgroup", "gen([[1,0,2]])"]
    argv += ["--pi", "[0,2,true]"]
    assert main(argv) == 2
    assert "--pi" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["expand", "--group", "sym(3)"]) == 2
    assert main(["not-a-command"]) == 2


IMPORT_PROBE = """\
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import cipherorder.cli
added = set(sys.modules) - before
print(json.dumps(sorted(
    {name.split(".")[0] for name in added}
    - {"cipherorder", *sys.stdlib_module_names}
)))
"""


def test_cli_imports_only_the_standard_library():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout) == []
