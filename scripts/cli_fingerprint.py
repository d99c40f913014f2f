#!/usr/bin/env python3
"""Fingerprint the CLI's output on a fixed, seeded list of calls.

Runs ``cipherorder.cli.main`` in-process on:

* ``expand`` and ``collapse`` (``--q-max 2``) and ``general-collapse``
  (``--rounds 3``) on 30 random setups over sym(3)..sym(5), where H is a
  point stabilizer or is generated by one or two random permutations and pi
  is random;
* the benchmark's experiments-s6 job shapes (``expand``/``collapse`` at
  ``--q-max 1``, ``general-collapse --rounds 2``, ``amplifier --n 2``) on
  three sym(6) setups with H = stab(6, t) and pi moving t;
* ``compare --per-tuple --csv`` on two random sym(4) scenarios;
* ``majorize --witness`` on probability vectors x majorized by y for
  n = 2..24, with a random denominator per entry, shuffled coordinates and,
  at every odd n, one or two zeros appended to one side; then one reversed
  pair and one incomparable pair, which print no witness;
* ``metrics`` on four random probability vectors: plain, with ``--alpha``,
  with an integer and with a non-integer ``--renyi``;
* ``convolve`` of each product of the two ``compare`` scenarios;
* the experiments-s6 job shapes but ``amplifier`` on sym(7), once with
  H = stab(7, t) and once with H generated by two random permutations that
  fix t and one more point, and pi moving t, where the coset quotient's
  partitions are largest;
* ``expand`` and ``collapse`` (``--q-max 6``) and ``general-collapse``
  (``--rounds 2``) on two ambient groups: ``cyclic(6)`` with H generated
  by the rotation by 2, and the dihedral group of the hexagon, built by
  closure as ``gen(...)`` of the rotation and a reflection, with H
  generated by the reflection fixing 0; pi is the rotation by 1 in both;
* ``expand`` and ``collapse`` (``--q-max 2``) and ``general-collapse``
  (``--rounds 2``) on sym(6) built by closure, ``gen(...)`` of a
  transposition and the rotation by 1, with H = stab(6, 0) and pi the
  rotation by 1.

Each group of calls was appended after the ones before it, so every earlier
call and random draw is the same as in the script before it was added.

Each call prints one line: a SHA-256 over its stdout, its CSV (none for
``majorize``, ``metrics`` and ``convolve``) and its exit code, then its argv
(temporary paths shown as ``<tmp>``).  The last line hashes all of them.
Two checkouts give the same lines iff every call's output bytes agree,
e.g.::

    PYTHONPATH=src python3 scripts/cli_fingerprint.py > new.txt
    PYTHONPATH=../parent/src python3 scripts/cli_fingerprint.py > old.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import io
import json
import random
import shlex
import tempfile
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from cipherorder.cli import main as cli_main

SEED = 3030


def _perm(rng: random.Random, m: int) -> list[int]:
    word = list(range(m))
    rng.shuffle(word)
    return word


def _subgroup(rng: random.Random, m: int) -> str:
    kind = rng.choice(["stab", "one-gen", "two-gen"])
    if kind == "stab":
        return f"stab({m}, {rng.randrange(m)})"
    gens = [_perm(rng, m) for _ in range(1 if kind == "one-gen" else 2)]
    return f"gen({json.dumps(gens)})"


def _small_setups(rng: random.Random) -> list[list[str]]:
    calls = []
    for _ in range(30):
        m = rng.choice([3, 4, 5])
        setup = [
            "--group", f"sym({m})",
            "--subgroup", _subgroup(rng, m),
            "--pi", json.dumps(_perm(rng, m)),
        ]
        calls.append(["expand", *setup, "--q-max", "2"])
        calls.append(["collapse", *setup, "--q-max", "2"])
        calls.append(["general-collapse", *setup, "--rounds", "3"])
    return calls


def _s6_setups(rng: random.Random) -> list[list[str]]:
    calls = []
    for _ in range(3):
        t = rng.randrange(6)
        pi = _perm(rng, 6)
        while pi[t] == t:
            pi = _perm(rng, 6)
        setup = [
            "--group", "sym(6)",
            "--subgroup", f"stab(6, {t})",
            "--pi", json.dumps(pi),
        ]
        calls.append(["expand", *setup, "--q-max", "1"])
        calls.append(["collapse", *setup, "--q-max", "1"])
        calls.append(["general-collapse", *setup, "--rounds", "2"])
    calls.append(["amplifier", "--n", "2"])
    return calls


def _s7_setups(rng: random.Random) -> list[list[str]]:
    calls = []
    for kind in ("stab", "gen"):
        t = rng.randrange(7)
        subgroup = f"stab(7, {t})"
        if kind == "gen":
            u = (t + 1 + rng.randrange(6)) % 7
            moved = [p for p in range(7) if p not in (t, u)]
            gens = []
            for _ in range(2):
                word = list(range(7))
                for p, image in zip(moved, rng.sample(moved, 5)):
                    word[p] = image
                gens.append(word)
            subgroup = f"gen({json.dumps(gens)})"
        pi = _perm(rng, 7)
        while pi[t] == t:
            pi = _perm(rng, 7)
        setup = ["--group", "sym(7)", "--subgroup", subgroup, "--pi", json.dumps(pi)]
        calls.append(["expand", *setup, "--q-max", "1"])
        calls.append(["collapse", *setup, "--q-max", "1"])
        calls.append(["general-collapse", *setup, "--rounds", "2"])
    return calls


def _closure_setups() -> list[list[str]]:
    rotation, reflection = [1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]
    groups = [
        ("cyclic(6)", [[2, 3, 4, 5, 0, 1]]),
        (f"gen({json.dumps([rotation, reflection])})", [reflection]),
    ]
    calls = []
    for group, gens in groups:
        setup = [
            "--group", group,
            "--subgroup", f"gen({json.dumps(gens)})",
            "--pi", json.dumps(rotation),
        ]
        calls.append(["expand", *setup, "--q-max", "6"])
        calls.append(["collapse", *setup, "--q-max", "6"])
        calls.append(["general-collapse", *setup, "--rounds", "2"])
    return calls


def _generated_sym6_setups() -> list[list[str]]:
    rotation = [1, 2, 3, 4, 5, 0]
    setup = [
        "--group", f"gen({json.dumps([[1, 0, 2, 3, 4, 5], rotation])})",
        "--subgroup", "stab(6, 0)",
        "--pi", json.dumps(rotation),
    ]
    return [
        ["expand", *setup, "--q-max", "2"],
        ["collapse", *setup, "--q-max", "2"],
        ["general-collapse", *setup, "--rounds", "2"],
    ]


def _scenario(rng: random.Random) -> dict:
    m = 4
    return {
        "message_count": m,
        "group": f"sym({m})",
        "ciphers": {
            "X": {"uniform_on": _subgroup(rng, m)},
            "Y": {"deterministic": _perm(rng, m)},
            "K": {"coset": {"rep": _perm(rng, m), "subgroup": _subgroup(rng, m)}},
        },
        "products": {"T": ["X", "Y", "X"], "D": ["X", "X"], "U": ["K", "Y", "X"]},
        "compare": [["T", "D"], ["U", "D"]],
        "q_max": 2,
    }


def _prob_vector(rng: random.Random, n: int) -> list[Fraction]:
    dens = [rng.choice([1, 2, 3, 4, 5, 7, 9, 11, 16, 25, 27, 49]) for _ in range(n)]
    xs = [Fraction(rng.randint(0, 2 * d), d) for d in dens]
    if not any(xs):
        xs[0] = Fraction(1)
    return [v / sum(xs) for v in xs]


def _majorized_pair(rng: random.Random, n: int) -> tuple[list[Fraction], list[Fraction]]:
    """(x, y) with x = y after n random T-transforms, so x is majorized by y."""
    y = _prob_vector(rng, n)
    x = list(y)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        lam = Fraction(rng.randint(0, 12), 12)
        x[i], x[j] = lam * x[i] + (1 - lam) * x[j], (1 - lam) * x[i] + lam * x[j]
    return x, y


def _incomparable(x: list[Fraction], y: list[Fraction]) -> bool:
    """Some prefix sum of sorted x lies above y's and another below."""
    px, py = (accumulate(sorted(v, reverse=True)) for v in (x, y))
    gaps = [a - b for a, b in zip(px, py)]
    return min(gaps) < 0 < max(gaps)


def _majorize_pairs(rng: random.Random) -> list[tuple[list[Fraction], list[Fraction]]]:
    pairs = []
    for n in range(2, 25):
        x, y = _majorized_pair(rng, n)
        if n % 2:
            (x if rng.random() < 0.5 else y).extend([Fraction(0)] * rng.randint(1, 2))
        pairs.append((x, y))
    x, y = _majorized_pair(rng, 18)
    pairs.append((y, x))
    while True:
        x, y = _prob_vector(rng, 18), _prob_vector(rng, 18)
        if _incomparable(x, y):
            break
    pairs.append((x, y))
    return [(rng.sample(x, len(x)), rng.sample(y, len(y))) for x, y in pairs]


def _majorize_calls(rng: random.Random, tmp: Path) -> list[list[str]]:
    calls = []
    for i, pair in enumerate(_majorize_pairs(rng)):
        paths = [tmp / f"majorize-{i}-{side}.vec" for side in "xy"]
        for path, vec in zip(paths, pair):
            path.write_text(" ".join(map(str, vec)) + "\n")
        calls.append(["majorize", *map(str, paths), "--witness"])
    return calls


def _metrics_calls(rng: random.Random, tmp: Path) -> list[list[str]]:
    options = [
        [],
        ["--alpha", f"{rng.randint(1, 11)}/12"],
        ["--renyi", str(rng.choice([2, 3, 5, 40]))],
        ["--renyi", rng.choice(["1/2", "3/2", "5/2", "0.75"])],
    ]
    calls = []
    for i, flags in enumerate(options):
        path = tmp / f"metrics-{i}.vec"
        path.write_text(" ".join(map(str, _prob_vector(rng, rng.randint(2, 24)))) + "\n")
        calls.append(["metrics", str(path), *flags])
    return calls


def _fingerprint(argv: list[str], tmp: Path) -> str:
    csv_path = tmp / "out.csv"
    csv_path.unlink(missing_ok=True)
    # these write no CSV and take no --csv
    no_csv = argv[0] in ("majorize", "metrics", "convolve")
    csv_args = [] if no_csv else ["--csv", str(csv_path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([*argv, *csv_args])
    digest = hashlib.sha256(stdout.getvalue().encode())
    digest.update(b"\0csv\0" + (csv_path.read_bytes() if csv_path.exists() else b""))
    digest.update(f"\0exit {code}".encode())
    shown = shlex.join(argv).replace(str(tmp), "<tmp>")
    return f"{digest.hexdigest()}  {shown}" + (" --csv <csv>" if csv_args else "")


def main() -> int:
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        calls = _small_setups(rng) + _s6_setups(rng)
        scenarios = []
        for k in range(2):
            path = tmp / f"scenario-{k}.json"
            scenario = _scenario(rng)
            path.write_text(json.dumps(scenario))
            calls.append(["compare", str(path), "--per-tuple"])
            scenarios.append((path, scenario))
        calls += _majorize_calls(rng, tmp)
        calls += _metrics_calls(rng, tmp)
        for path, scenario in scenarios:
            calls += [["convolve", str(path), name] for name in scenario["products"]]
        calls += _s7_setups(rng)
        calls += _closure_setups()
        calls += _generated_sym6_setups()
        lines = [_fingerprint(argv, tmp) for argv in calls]
    for line in lines:
        print(line)
    total = hashlib.sha256("".join(lines).encode()).hexdigest()
    print(f"{total}  all {len(lines)} calls")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
