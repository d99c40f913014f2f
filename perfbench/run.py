"""Closed-loop benchmark of the cipherorder CLI, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload experiments-s6 --seed 1 --seconds 25 --trace 0

One client on one thread calls ``cipherorder.cli.main`` in-process, one job
after another, with inputs made from ``--seed`` (see ``workloads.py``).
Jobs run in rounds of fixed job kinds; a new round starts while the timed
job seconds are below ``--seconds``, so a run measures whole rounds for at
least that long.  Every job's output is checked exactly outside the timed
region (see ``verify.py``), and the first job's output is perturbed once to
prove the verifier rejects it.  Each job has a time cap enforced by SIGALRM
on the main thread; a job over its cap, raising, exiting 2 or failing
verification counts as failed, and the command then exits 1.

``--trace 0`` prints the end-to-end metrics: verified jobs per reference
second and the median job time in reference seconds (see ``speed.py``; the
wall-clock figures are printed beside them), peak RSS, and ``setup_s``, the
median over fresh interpreters, started through the run, of the time
``import cipherorder.cli`` takes, also in reference seconds.
``--trace 1`` runs each job of round 0 once untraced and once traced (see
``tracing.py``) and prints the per-layer metrics, the tracing overhead and
the share of job time the spans account for; the spans are written to
``.perfbench-run/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracing
import verify
import workloads
from speed import REF_NOMINAL_S, Speedometer
from workloads import Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"

# the whole command must end within 180 s; jobs are cut at this deadline
RUN_LIMIT_S = 160.0
# setup_s is the median time fresh interpreters take to import cipherorder.cli,
# in reference seconds: each child times the import and then the reference
# loop.  A few children run before the jobs, then one after any job that ends
# SETUP_EVERY_S after the last.  In wall seconds the median of ten runs moved
# with host speed by up to 40% between two sets of runs.
SETUP_FIRST_SAMPLES = 3
SETUP_EVERY_S = 3.0
SETUP_PROBE = """\
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import cipherorder.cli
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from speed import reference_loop
print(seconds, statistics.median(reference_loop() for _ in range(5)))
"""

Checker = Callable[[int | None, str], list[str]]


@dataclass(frozen=True)
class Workload:
    make_round: workloads.RoundMaker
    # builds, before the job runs, the check of its exit code and stdout
    checker: Callable[[Job], Checker]
    perturb: Callable[[str], str]
    # per-job cap, several times the slowest job's time at the seed commit
    cap_s: float


def _compare_checker(job: Job) -> Checker:
    reference = verify.compare_reference(job.spec["scenario"], job.spec["q_max"])
    anchored = verify.oracle_cross_check(job.spec["scenario"], reference[0])
    return lambda rc, out: anchored + verify.verify_compare(job.spec, rc, out, reference)


WORKLOADS = {
    "experiments-s6": Workload(
        workloads.experiments_round,
        lambda job: lambda rc, out: verify.verify_experiment(job.spec, rc, out),
        verify.perturb_experiment,
        90.0,
    ),
    "compare-q-s6": Workload(
        workloads.compare_round, _compare_checker, verify.perturb_compare, 90.0
    ),
    "majorize-witness": Workload(
        workloads.majorize_round,
        lambda job: lambda rc, out: verify.verify_majorize(job.spec, rc, out),
        verify.perturb_majorize,
        60.0,
    ),
}


class JobTimeout(BaseException):
    """Raised into a job that ran past its cap; BaseException so that no
    handler inside the program swallows it."""


class Alarm:
    """SIGALRM handler that interrupts the running job only while armed."""

    def __init__(self) -> None:
        self.armed = False

    def __call__(self, signum, frame) -> None:
        if self.armed:
            raise JobTimeout


@dataclass
class Call:
    """One job's run: wall seconds, reference seconds when sampled, exit
    code, stdout and the error that stopped it, if any."""

    seconds: float
    ref_seconds: float | None
    rc: int | None
    out: str
    error: str | None


@dataclass
class Outcome:
    job: Job
    call: Call
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def load_cli():
    """Import the program from this checkout's sources, never from elsewhere."""
    package = SRC / "cipherorder"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no program sources at {package}")
    sys.path.insert(0, str(SRC))
    import cipherorder.cli

    if Path(cipherorder.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported cipherorder from {cipherorder.cli.__file__}")
    return cipherorder.cli


class SetupClock:
    """Times how long a fresh interpreter takes to import cipherorder.cli."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.ref: list[float] = []
        self.last = 0.0

    def sample(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        seconds, loop = map(float, proc.stdout.split())
        self.wall.append(seconds)
        self.ref.append(seconds * REF_NOMINAL_S / loop)
        self.last = time.monotonic()

    def sample_if_due(self) -> None:
        if time.monotonic() - self.last >= SETUP_EVERY_S:
            self.sample()


class Runner:
    def __init__(self, cli, workload: Workload, deadline: float, sample_speed: bool):
        self.cli = cli
        self.workload = workload
        self.deadline = deadline
        self.alarm = Alarm()
        self.speedometer = Speedometer() if sample_speed else None
        self.self_test: list[str] | None = None
        signal.signal(signal.SIGALRM, self.alarm)

    def call(self, job: Job) -> Call:
        """Run one job in the timed region."""
        cap = min(self.workload.cap_s, self.deadline - time.monotonic())
        if cap <= 0:
            return Call(0.0, None, None, "", "not started: run deadline reached")
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        gc.collect()
        if self.speedometer:
            self.speedometer.arm()
        signal.setitimer(signal.ITIMER_REAL, cap)
        self.alarm.armed = True
        start = time.perf_counter()
        try:
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(list(job.argv))
            finally:
                self.alarm.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
                if self.speedometer:
                    self.speedometer.disarm()
        except JobTimeout:
            error = f"over its {cap:g} s cap"
        except Exception as exc:
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        ref_seconds = None
        if self.speedometer:
            seconds -= self.speedometer.stolen
            ref_seconds = seconds * self.speedometer.speed()
        if error is None and rc == 2:
            error = f"exit 2: {err.getvalue().strip()}"
        return Call(seconds, ref_seconds, rc, out.getvalue(), error)

    def check(self, job: Job, checker: Checker, call: Call) -> Outcome:
        problems = [call.error] if call.error else checker(call.rc, call.out)
        if self.self_test is None and not problems:
            perturbed = self.workload.perturb(call.out)
            self.self_test = (
                [] if perturbed != call.out and checker(call.rc, perturbed)
                else [f"the verifier did not reject a perturbed {job.kind} output"]
            )
        ref = "" if call.ref_seconds is None else f"{call.ref_seconds:9.3f} ref_s"
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"job {job.kind:<19} {call.seconds:9.3f} s {ref}  exit {call.rc}  {status}",
              flush=True)
        return Outcome(job, call, problems)


def timed_loop(
    runner: Runner, seed: int, seconds: int, workdir: Path, setup: SetupClock
) -> list[Outcome]:
    outcomes: list[Outcome] = []
    timed = 0.0
    k = 0
    while True:
        round_start = time.monotonic()
        jobs = runner.workload.make_round(seed, k, workdir)
        checkers = [runner.workload.checker(job) for job in jobs]
        for job, checker in zip(jobs, checkers):
            call = runner.call(job)
            timed += call.seconds
            outcomes.append(runner.check(job, checker, call))
            setup.sample_if_due()
        k += 1
        round_wall = time.monotonic() - round_start
        if timed >= seconds or time.monotonic() + round_wall > runner.deadline:
            return outcomes


def traced_round(runner: Runner, seed: int, workdir: Path):
    """Round 0 with each job run untraced and traced back to back, in
    alternating order so that drift in host speed does not bias the
    overhead; verification stays outside the spans."""
    jobs = runner.workload.make_round(seed, 0, workdir)
    checkers = [runner.workload.checker(job) for job in jobs]
    tracer = tracing.Tracer()
    plain_calls, traced_calls = [], []
    for i, job in enumerate(jobs):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if not traced:
                plain_calls.append(runner.call(job))
                continue
            tracer.job = i
            restore = tracing.install(tracer)
            try:
                traced_calls.append(runner.call(job))
            finally:
                restore()
    plain = [runner.check(job, c, call) for job, c, call in zip(jobs, checkers, plain_calls)]
    traced = [runner.check(job, c, call) for job, c, call in zip(jobs, checkers, traced_calls)]
    return plain, traced, tracer


def jobs_per(outcomes: list[Outcome], seconds: list[float]) -> float:
    """Verified jobs per second of job time."""
    total = sum(seconds)
    return sum(o.ok for o in outcomes) / total if total else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + RUN_LIMIT_S
    cli = load_cli()
    runner = Runner(cli, WORKLOADS[args.workload], deadline, sample_speed=not args.trace)
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RUN_DIR))
    metrics: dict[str, tuple[float, str]] = {}
    wall: dict[str, float] = {}
    try:
        if args.trace:
            plain, traced, tracer = traced_round(runner, args.seed, workdir)
            outcomes = plain + traced
            tracer.write(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics.update(tracing.layer_metrics(tracer))
            plain_s = [o.call.seconds for o in plain]
            traced_s = [o.call.seconds for o in traced]
            metrics["jobs_per_s.untraced"] = (jobs_per(plain, plain_s), "jobs/s")
            metrics["jobs_per_s.traced"] = (jobs_per(traced, traced_s), "jobs/s")
            metrics["trace.overhead_ratio"] = (sum(traced_s) / sum(plain_s), "fraction")
            metrics["trace.accounted_ratio"] = (
                sum(tracer.self_times()) / sum(traced_s), "fraction"
            )
        else:
            setup = SetupClock()
            for _ in range(SETUP_FIRST_SAMPLES):
                setup.sample()
            outcomes = timed_loop(runner, args.seed, args.seconds, workdir, setup)
            ref_s = [o.call.ref_seconds or 0.0 for o in outcomes]
            metrics["jobs_per_ref_s"] = (jobs_per(outcomes, ref_s), "jobs/ref_s")
            metrics["job_ref_s.p50"] = (statistics.median(ref_s), "ref_s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            )
            metrics["setup_s"] = (statistics.median(setup.ref), "s")
            wall["setup_s (wall)"] = statistics.median(setup.wall)
            wall_s = [o.call.seconds for o in outcomes]
            wall["jobs_per_s (wall)"] = jobs_per(outcomes, wall_s)
            wall["job_s.p50 (wall)"] = statistics.median(wall_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not o.ok for o in outcomes)
    self_test = runner.self_test if runner.self_test is not None else [
        "no job passed, so the verifier self-test did not run"
    ]
    for problem in self_test:
        print(f"self-test FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        extra = f"  (n={len(outcomes)})" if name == "job_ref_s.p50" else ""
        print(f"{name:<36} {value:>14.6g} {unit}{extra}")
    for name, value in wall.items():
        print(f"{name:<36} {value:>14.6g}")
    print(f"{'failed_ratio':<36} {failed / len(outcomes):>14.6g} fraction")
    correct = failed == 0 and not self_test
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
