import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cipherorder.dist import convolve, uniform_on
from cipherorder.experiments import (
    emit_report,
    run_amplifier,
    run_collapse,
    run_expand,
    run_general_collapse,
)
from cipherorder.groups import (
    GroupSizeError,
    closure,
    conjugate_subgroup,
    left_cosets,
    stabilizer,
    symmetric_group,
)
from cipherorder.perms import transposition

from helpers import random_subgroup

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
S3 = symmetric_group(3)
S4 = symmetric_group(4)
H01 = S3.indices_of(closure([transposition(3, 0, 1)]))
PI = S3.index(transposition(3, 1, 2))
T01 = S3.index(transposition(3, 0, 1))
T23 = S4.index(transposition(4, 2, 3))


def row_map(result):
    return {row.quantity: row for row in result.rows}


class TestExpand:
    def test_s3_example(self):
        result = run_expand(S3, H01, PI)
        assert result.passed
        rows = row_map(result)
        assert rows["support_T"].actual == "4"
        assert rows["support_D"].actual == "2"
        assert rows["majorization_t_vs_d"].actual == "strictly-below"
        assert rows["entropy_T_bits"].actual == "2"
        assert rows["entropy_D_bits"].actual == "1"
        assert rows["guesswork_T"].actual == "5/2"
        assert rows["guesswork_D"].actual == "3/2"
        assert rows["decomposition_m"].actual == "2"
        for q in range(4):
            assert rows[f"q{q}_direction_T_vs_D"].passed

    def test_degenerate_pi_inside_h(self):
        result = run_expand(S3, H01, T01)
        assert result.degenerate
        assert result.passed
        assert row_map(result)["T_equals_D_distributionally"].actual == "True"

    def test_s4_stabilizer_case(self):
        h = stabilizer(S4, (3,))
        result = run_expand(S4, h, T23, q_max=2)
        assert result.passed
        rows = row_map(result)
        assert rows["support_T"].actual == "18"
        assert rows["support_D"].actual == "6"
        assert rows["decomposition_m"].actual == "3"

    def test_normalizing_pi_is_reported_not_raised(self):
        # in sym(4), H = <(0 1)(2 3), (0 2)(1 3)> is normal: expansion fails
        from cipherorder.perms import Permutation

        klein = S4.indices_of(
            closure([Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
        )
        result = run_expand(S4, klein, S4.index(transposition(4, 0, 1)), q_max=1)
        rows = row_map(result)
        assert rows["assumption_H_ne_piHpi^-1"].actual == "fails"
        assert not rows["support_expansion"].passed


class TestCollapse:
    def test_s3_example(self):
        result = run_collapse(S3, H01, PI)
        assert result.passed
        rows = row_map(result)
        assert rows["support_T"].actual == "2"
        assert rows["support_D"].actual == "4"
        assert rows["majorization_d_vs_t"].actual == "strictly-below"
        assert rows["inner_convolution_uniform_on_H"].passed
        assert rows["translated_T_equals_expand_D"].passed
        assert rows["translated_D_equals_expand_T"].passed

    def test_degenerate(self):
        result = run_collapse(S3, H01, T01)
        assert result.degenerate


class TestGeneralCollapse:
    def test_r1_matches_collapse_distributions(self):
        result = run_general_collapse(S3, H01, PI, 1)
        assert result.passed
        rows = row_map(result)
        assert rows["r1_support_E"].actual == "2"
        assert rows["r1_support_E"].expected == "2"
        # r=1 X-product is exactly the collapse D
        collapse_rows = row_map(run_collapse(S3, H01, PI))
        assert rows["r1_majorization_x_vs_e"].actual == collapse_rows[
            "majorization_d_vs_t"
        ].actual

    def test_s3_two_rounds(self):
        result = run_general_collapse(S3, H01, PI, 2)
        assert result.passed
        rows = row_map(result)
        for r in (1, 2):
            assert rows[f"r{r}_support_E"].actual == "2"
            assert rows[f"r{r}_X_support_exceeds_piH"].passed
            assert rows[f"r{r}_X_support_nondecreasing"].passed

    def test_s4_three_rounds(self):
        h = stabilizer(S4, (3,))
        result = run_general_collapse(S4, h, T23, 3)
        assert result.passed
        rows = row_map(result)
        supports = [
            int(rows[f"r{r}_support_E"].actual) for r in (1, 2, 3)
        ]
        assert supports == [6, 6, 6]

    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            run_general_collapse(S3, H01, PI, 0)


def test_reports_invariant_under_relabelling():
    # renaming the messages by sigma conjugates H and pi; every row of every
    # report is a count, a verdict or a metric that the renaming preserves
    rng = random.Random(31)
    for group in (S3, S4, symmetric_group(5)):
        q_max = min(group.degree, 3)
        runs = (
            lambda h, pi: run_expand(group, h, pi, q_max=q_max),
            lambda h, pi: run_collapse(group, h, pi, q_max=q_max),
            lambda h, pi: run_general_collapse(group, h, pi, 2),
        )
        for _ in range(20):
            h = random_subgroup(rng, group)
            pi = rng.randrange(group.order)
            sigma = rng.randrange(group.order)
            h_sigma = conjugate_subgroup(group, sigma, h)
            pi_sigma = conjugate_subgroup(group, sigma, (pi,))[0]
            for run in runs:
                report = emit_report([run(h, pi)], "csv")
                assert emit_report([run(h_sigma, pi_sigma)], "csv") == report


def test_collapse_directions_mirror_expand():
    # collapse's D and T are pi * T_exp and pi * D_exp; relabelling the
    # ciphertexts by pi leaves every compare_q row as it was
    rng = random.Random(41)
    seen = set()
    for group in (S3, S4, symmetric_group(5)):
        for _ in range(8):
            h = random_subgroup(rng, group)
            pi = rng.randrange(group.order)
            expand = run_expand(group, h, pi)
            collapse = run_collapse(group, h, pi)
            assert collapse.degenerate == expand.degenerate
            mirrored = [
                row._replace(quantity=row.quantity.replace("T_vs_D", "D_vs_T"))
                for row in expand.rows
                if row.quantity.endswith("_direction_T_vs_D")
            ]
            directions = [row for row in collapse.rows if "_direction_" in row.quantity]
            assert directions == mirrored
            seen.update(row.actual for row in directions)
    assert seen - {"equivalent"}


def test_which_products_take_the_coset_quotient(monkeypatch):
    # a product takes the quotient exactly when its right factor is uniform
    # on a left coset of H and the general loop would do more than |G|
    # products; so translations by a point mass and general-collapse's X
    # chain from round 2 on, whose right factor is no coset, take the
    # general loop
    import cipherorder.dist as dist
    import cipherorder.experiments as experiments

    calls, taken = [], []
    partition = dist._partition_with_block

    def spy(group, block):
        blocks = partition(group, block)
        taken.append(bool(blocks))
        return blocks

    def recording(x, y):
        taken.clear()
        z = convolve(x, y)
        calls.append((x, y, any(taken)))
        return z

    monkeypatch.setattr(dist, "_partition_with_block", spy)
    monkeypatch.setattr(experiments, "convolve", recording)
    h = stabilizer(S4, (3,))
    # amplifier at n = 1 runs on sym(3) with H = stab(3, 2), where no
    # general loop passes |G| = 6 products
    cases = {
        "expand": (lambda: run_expand(S4, h, T23), S4, h, (2, 1)),
        "collapse": (lambda: run_collapse(S4, h, T23), S4, h, (4, 2)),
        "general-collapse": (lambda: run_general_collapse(S4, h, T23, 3), S4, h, (4, 5)),
        "amplifier": (lambda: run_amplifier(1), S3, stabilizer(S3, (2,)), (0, 3)),
    }
    for name, (run, group, sub, counts) in cases.items():
        cosets = [uniform_on(group, block) for block in left_cosets(group, sub)]
        calls.clear()
        assert run().passed, name
        for x, y, took in calls:
            big = x.support_size() * y.support_size() > group.order
            assert took == (y in cosets and big), name
        took = [took for _, _, took in calls]
        assert (took.count(True), took.count(False)) == counts, name
        if name == "general-collapse":
            # each round convolves delta, then E, then the X chain
            assert took[2::3] == [True, False, False]


class TestAmplifier:
    def test_n1(self):
        result = run_amplifier(1)
        assert result.passed
        rows = row_map(result)
        assert rows["support_T"].expected == "4"  # 3! - 2!
        assert rows["support_T"].actual == "4"
        assert rows["D_fixes_distinguished_point"].actual == "1"
        assert rows["distinguisher_advantage"].actual == "2/3"

    def test_n2(self):
        result = run_amplifier(2)
        assert result.passed
        rows = row_map(result)
        assert rows["support_T"].expected == "96"  # 5! - 4!
        assert rows["support_T"].actual == "96"
        assert rows["distinguisher_advantage"].actual == "4/5"

    def test_rejects_oversized_parameter(self):
        with pytest.raises(GroupSizeError):
            run_amplifier(3)
        with pytest.raises(ValueError):
            run_amplifier(0)


class TestEmitReport:
    def test_empty_csv_is_header_only(self):
        assert (
            emit_report([], "csv") == "experiment,quantity,expected,actual,verdict\n"
        )

    def test_expand_csv_rows(self):
        report = emit_report([run_expand(S3, H01, PI)], "csv")
        assert "expand,support_T,4,4,pass" in report.splitlines()

    def test_text_format_deterministic(self):
        result = run_expand(S3, H01, PI)
        a = emit_report([result], "text")
        b = emit_report([run_expand(S3, H01, PI)], "text")
        assert a == b
        assert a.startswith("== expand: PASS")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml")


def test_reproduce_script_matches_golden_reports(tmp_path):
    csv_path = tmp_path / "report.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "scripts/reproduce_experiments.py", "--csv", str(csv_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    golden_text = (DATA / "reproduce_report.txt").read_text()
    assert proc.stdout == golden_text + f"wrote {csv_path}\n"
    assert csv_path.read_bytes() == (DATA / "reproduce_report.csv").read_bytes()
