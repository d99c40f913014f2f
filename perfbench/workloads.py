"""Seeded job lists for the benchmark's three workloads.

Each workload is a closed loop of ``cipherorder.cli.main`` calls made in
rounds.  A round is a fixed list of jobs, and every round does the same work:
the seed and the round index only pick among inputs that a symmetry maps
onto each other.  For the experiments that is the stabilized point t and a
pi outside H = stab(6, t) (every such pi gives the same H pi H); for the
scenario, a renaming of the points of a fixed scenario; for the vectors, the
order of the coordinates of fixed vectors.  Such inputs give different,
checkable outputs but the same amount of work, so figures from different
seeds and from runs that fit a different number of rounds compare directly;
with vectors whose values varied with the seed, the work of one
majorization job varied by a third from seed to seed.  The fixed scenario
and vectors come from a generator stream of their own.  Inputs that the CLI
reads from files (scenarios, vectors) are written to a work directory
before the round starts.

Why these workloads:

* ``experiments-s6``: the paper's four experiments over sym(6) with a point
  stabilizer H.  Convolution does most of the work, with sparse right factors
  (deterministic, stabilizer) and a dense one (the full-support running
  product of general-collapse at two rounds); q-query work is small (q <= 1).
* ``compare-q-s6``: ``compare --q-max 3`` on a scenario over sym(6).  The
  q-query sweep (projection onto the cosets of every tuple's stabilizer) is
  nearly all of each job; products are kept sparse so convolution barely
  runs.
* ``majorize-witness``: ``majorize --witness`` on rational vectors with
  n = 12..24.  No group, distribution or q-query code runs; bottleneck
  matching inside the Birkhoff decomposition dominates.  Each round also has
  one reversed and one incomparable pair, which take the verdict-only path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from verify import relation

# message count of every group-side workload: sym(6) has 720 elements
M = 6
COMPARE_Q_MAX = 3


@dataclass(frozen=True)
class Job:
    """One CLI call and what its verifier needs to know about the inputs."""

    kind: str
    argv: tuple[str, ...]
    spec: dict[str, Any]


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _perm(rng: random.Random, m: int) -> list[int]:
    word = list(range(m))
    rng.shuffle(word)
    return word


def _perm_moving(rng: random.Random, m: int, t: int) -> list[int]:
    """A random permutation that does not fix t, i.e. lies outside stab(m, t)."""
    while True:
        word = _perm(rng, m)
        if word[t] != t:
            return word


def _non_identity(rng: random.Random, m: int) -> list[int]:
    while True:
        word = _perm(rng, m)
        if word != list(range(m)):
            return word


# (subcommand, extra flags); amplifier takes no group and is appended last.
# Two rounds of general-collapse include the one-round work and add the
# dense right factor.
_EXPERIMENTS = (
    ("expand", ("--q-max", "1")),
    ("collapse", ("--q-max", "1")),
    ("general-collapse", ("--rounds", "2")),
)


def experiments_round(seed: int, k: int, workdir: Path) -> list[Job]:
    rng = _rng("experiments-s6", seed, k)
    jobs = []
    for command, extra in _EXPERIMENTS:
        t = rng.randrange(M)
        pi = _perm_moving(rng, M, t)
        argv = (
            command,
            "--group", f"sym({M})",
            "--subgroup", f"stab({M}, {t})",
            "--pi", json.dumps(pi),
            *extra,
        )
        rounds = int(extra[1]) if command == "general-collapse" else None
        kind = command if rounds is None else f"{command}-r{rounds}"
        jobs.append(Job(kind, argv, {"command": command, "m": M, "rounds": rounds}))
    jobs.append(Job("amplifier", ("amplifier", "--n", "2"), {"command": "amplifier", "n": 2}))
    return jobs


def _conjugate(sigma: list[int], p: list[int]) -> list[int]:
    """sigma p sigma^-1: p with its points renamed by sigma."""
    inverse = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inverse[s] = i
    return [sigma[p[inverse[i]]] for i in range(len(p))]


def compare_scenario(sigma: list[int]) -> dict[str, Any]:
    """Two compare pairs shaped like the threefold expansion (XYZ vs XZ),
    with every point renamed by sigma.

    The coset cipher K is only ever the leftmost factor, so every right
    factor of a convolution has support at most 36 and convolution stays a
    small share of the job.
    """
    base = random.Random("compare-q-s6:base")
    a, b = _non_identity(base, M), _non_identity(base, M)
    y, rep = _perm(base, M), _perm(base, M)
    t = base.randrange(M)
    a, b, y, rep = (_conjugate(sigma, p) for p in (a, b, y, rep))
    return {
        "message_count": M,
        "group": f"sym({M})",
        "ciphers": {
            "A": {"uniform_on": f"gen([{json.dumps(a)}])"},
            "B": {"uniform_on": f"gen([{json.dumps(b)}])"},
            "Y": {"deterministic": y},
            "K": {"coset": {"rep": rep, "subgroup": f"stab({M}, {sigma[t]})"}},
        },
        "products": {
            "T": ["K", "Y", "A"],
            "D": ["K", "A"],
            "U": ["B", "Y", "A"],
            "V": ["B", "A"],
        },
        "compare": [["T", "D"], ["U", "V"]],
        "q_max": COMPARE_Q_MAX,
    }


def compare_round(seed: int, k: int, workdir: Path) -> list[Job]:
    scenario = compare_scenario(_perm(_rng("compare-q-s6", seed, k), M))
    path = workdir / f"compare-{k}.json"
    path.write_text(json.dumps(scenario, indent=1) + "\n")
    argv = ("compare", str(path), "--q-max", str(COMPARE_Q_MAX))
    return [Job("compare", argv, {"scenario": scenario, "q_max": COMPARE_Q_MAX})]


MAJORIZE_SIZES = (12, 14, 16, 18, 20, 22, 24)


def _prob_vector(rng: random.Random, n: int) -> list[Fraction]:
    weights = [rng.randint(0, 9) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _t_transform(rng: random.Random, y: list[Fraction]) -> list[Fraction]:
    """One random T-transform; the result is always majorized by y."""
    i, j = rng.sample(range(len(y)), 2)
    lam = Fraction(rng.randint(0, 12), 12)
    x = list(y)
    x[i] = lam * y[i] + (1 - lam) * y[j]
    x[j] = (1 - lam) * y[i] + lam * y[j]
    return x


def majorized_pair(rng: random.Random, n: int) -> tuple[list[Fraction], list[Fraction]]:
    """(x, y) with x = y after n random T-transforms, so x is majorized by y."""
    y = _prob_vector(rng, n)
    x = list(y)
    for _ in range(n):
        x = _t_transform(rng, x)
    return x, y


def incomparable_pair(rng: random.Random, n: int) -> tuple[list[Fraction], list[Fraction]]:
    while True:
        x, y = _prob_vector(rng, n), _prob_vector(rng, n)
        if relation(x, y)[0] == "incomparable":
            return x, y


def majorize_round(seed: int, k: int, workdir: Path) -> list[Job]:
    """One witness job per size, then a reversed and an incomparable pair,
    each with the coordinates of x and y shuffled by the seed.

    The first job always has a witness: the verifier self-test perturbs its
    matrix.
    """
    base = random.Random("majorize-witness:base")
    pairs = [(f"below-n{n}", *majorized_pair(base, n)) for n in MAJORIZE_SIZES]
    y, x = majorized_pair(base, 18)
    pairs.append(("reversed", x, y))
    pairs.append(("incomparable", *incomparable_pair(base, 18)))
    rng = _rng("majorize-witness", seed, k)
    jobs = []
    for i, (kind, x, y) in enumerate(pairs):
        x, y = rng.sample(x, len(x)), rng.sample(y, len(y))
        x_path = workdir / f"majorize-{k}-{i}-x.vec"
        y_path = workdir / f"majorize-{k}-{i}-y.vec"
        x_path.write_text(" ".join(map(str, x)) + "\n")
        y_path.write_text(" ".join(map(str, y)) + "\n")
        argv = ("majorize", str(x_path), str(y_path), "--witness")
        jobs.append(Job(kind, argv, {"x": x, "y": y}))
    return jobs


RoundMaker = Callable[[int, int, Path], list[Job]]
