import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cipherorder.cli import MAJORIZE_EXIT_CODES, main
from cipherorder.majorize import Relation

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
    lines = dict(
        line.split("\t") for line in capsys.readouterr().out.strip().splitlines()
    )
    assert lines["guesswork"] == "7/4"
    assert lines["shannon_entropy_bits"] == "1.5"
    assert lines["variation_to_uniform"] == "1/6"
    assert lines["marginal_guesswork[1/2]"] == "1"
    assert lines["alpha_guesswork[1/2]"] == "1"
    assert lines["renyi_entropy_bits[2]"].startswith("1.415")


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
