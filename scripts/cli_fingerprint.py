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
* ``compare --per-tuple --csv`` on two random sym(4) scenarios.

Each call prints one line: a SHA-256 over its stdout, its CSV and its exit
code, then its argv (temporary paths shown as ``<tmp>``).  The last line
hashes all of them.  Two checkouts give the same lines iff every call's
output bytes agree, e.g.::

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


def _fingerprint(argv: list[str], tmp: Path) -> str:
    csv_path = tmp / "out.csv"
    csv_path.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main([*argv, "--csv", str(csv_path)])
    digest = hashlib.sha256(stdout.getvalue().encode())
    digest.update(b"\0csv\0" + (csv_path.read_bytes() if csv_path.exists() else b""))
    digest.update(f"\0exit {code}".encode())
    shown = shlex.join(argv).replace(str(tmp), "<tmp>")
    return f"{digest.hexdigest()}  {shown} --csv <csv>"


def main() -> int:
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        calls = _small_setups(rng) + _s6_setups(rng)
        for k in range(2):
            path = tmp / f"scenario-{k}.json"
            path.write_text(json.dumps(_scenario(rng)))
            calls.append(["compare", str(path), "--per-tuple"])
        lines = [_fingerprint(argv, tmp) for argv in calls]
    for line in lines:
        print(line)
    total = hashlib.sha256("".join(lines).encode()).hexdigest()
    print(f"{total}  all {len(lines)} calls")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
