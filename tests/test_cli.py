import json
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


def test_compare_per_tuple_golden_output(scenario_file, tmp_path, capsys):
    csv_path = tmp_path / "golden.csv"
    argv = ["compare", scenario_file, "--q-max", "2", "--per-tuple"]
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
    assert main(["amplifier", "--n", "3"]) == 2


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
