"""Exact verification of every job's output, independent of the code under test.

Each ``verify_*`` function takes a job's spec, exit code and captured stdout
and returns a list of problems (empty when the output is right).  Expected
values come from closed forms (experiments), from a brute-force reference
built here on plain image tuples (q-query comparison), or from direct checks
of the printed witness (majorization).  Each ``perturb_*`` function changes
one printed value so the benchmark can prove its verifier rejects it.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from collections import defaultdict
from fractions import Fraction
from math import factorial, lcm
from typing import Any

LEFT, RIGHT, EQUAL, MIXED = (
    "left-no-less-secure",
    "right-no-less-secure",
    "equivalent",
    "mixed",
)

# --------------------------------------------------------------------------
# experiments-s6: closed forms for sym(m) with H = stab(m, t) and pi(t) != t

_ROW_RE = re.compile(r"  (\S+) +expected=(.*?) +actual=(.*?) +(pass|FAIL)\Z")


def _experiment_rows(spec: dict[str, Any]) -> list[tuple[str, str, object]]:
    """(quantity, expected column, actual) rows the report must have, in order.

    An actual given as a float is an entropy compared within 1e-9.  With H a
    point stabilizer and pi outside it, H pi H is every element moving t, and
    H meets pi H pi^-1 in the two-point stabilizer.
    """
    either = f"{LEFT} or {EQUAL}"
    command = spec["command"]
    if command == "amplifier":
        n = spec["n"]
        space = 2**n + 1
        support_t = str(factorial(space) - factorial(space - 1))
        return [
            ("support_T", support_t, support_t),
            ("support_T_matches_double_coset", support_t, support_t),
            ("T_uniform_on_double_coset", "True", "True"),
            ("supp_D_equals_sym_M", "True", "True"),
            ("D_fixes_distinguished_point", "1", "1"),
            ("distinguisher_advantage", *[str(Fraction(2**n, space))] * 2),
        ]
    m = spec["m"]
    h = factorial(m - 1)
    hph = factorial(m) - h
    rows: list[tuple[str, str, object]] = [("assumption_H_ne_piHpi^-1", "-", "holds")]
    if command == "expand":
        rows += [
            ("support_T", str(hph), str(hph)),
            ("support_D", str(h), str(h)),
            ("support_expansion", "True", "True"),
            ("T_uniform_on_HpiH", "True", "True"),
            ("majorization_t_vs_d", "strictly-below", "strictly-below"),
            ("decomposition_m", str(m - 1), str(m - 1)),
            ("decomposition_reconstructs_T", "True", "True"),
            ("decomposition_parts_majorized_by_z", "True", "True"),
            ("entropy_T_bits", math.log2(hph), math.log2(hph)),
            ("entropy_D_bits", math.log2(h), math.log2(h)),
            ("guesswork_T", *[str(Fraction(hph + 1, 2))] * 2),
            ("guesswork_D", *[str(Fraction(h + 1, 2))] * 2),
            ("q0_direction_T_vs_D", either, LEFT),
            ("q1_direction_T_vs_D", either, LEFT),
        ]
    elif command == "collapse":
        rows += [
            ("inner_convolution_uniform_on_H", "True", "True"),
            ("support_T", str(h), str(h)),
            ("supp_T_equals_piH", "True", "True"),
            ("support_D", str(hph), str(hph)),
            ("majorization_d_vs_t", "strictly-below", "strictly-below"),
            ("translated_T_equals_expand_D", "True", "True"),
            ("translated_D_equals_expand_T", "True", "True"),
            ("q0_direction_D_vs_T", either, LEFT),
            ("q1_direction_D_vs_T", either, LEFT),
        ]
    elif command == "general-collapse":
        for r in range(1, spec["rounds"] + 1):
            rows += [
                (f"r{r}_support_E", str(h), str(h)),
                (f"r{r}_E_equals_uniform_piH", "True", "True"),
                (f"r{r}_X_support_exceeds_piH", "True", "True"),
                (f"r{r}_X_support_nondecreasing", "True", "True"),
                (f"r{r}_majorization_x_vs_e", "strictly-below", "strictly-below"),
            ]
    else:
        raise ValueError(f"unknown experiment {command!r}")
    return rows


def _matches(printed: str, want: object) -> bool:
    if isinstance(want, float):
        try:
            return abs(float(printed) - want) <= 1e-9
        except ValueError:
            return False
    return printed == want


def verify_experiment(spec: dict[str, Any], rc: int | None, out: str) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, want 0")
    lines = out.splitlines()
    header = f"== {spec['command']}: PASS"
    if not lines or lines[0] != header:
        problems.append(f"first line {lines[:1]}, want {header!r}")
        return problems
    want = _experiment_rows(spec)
    if len(lines) - 1 != len(want):
        problems.append(f"{len(lines) - 1} report rows, want {len(want)}")
        return problems
    for line, (quantity, expected, actual) in zip(lines[1:], want):
        m = _ROW_RE.match(line)
        if m is None:
            problems.append(f"unparsable row {line!r}")
            continue
        got_q, got_e, got_a, verdict = m.groups()
        if got_q != quantity:
            problems.append(f"row {got_q!r}, want {quantity!r}")
        elif not (_matches(got_e, expected) and _matches(got_a, actual)):
            problems.append(
                f"{quantity}: expected={got_e} actual={got_a}, want {expected} / {actual}"
            )
        elif verdict != "pass":
            problems.append(f"{quantity}: verdict {verdict}")
    return problems


def perturb_experiment(out: str) -> str:
    """Weaken the first majorization verdict string, or else fail the first
    row."""
    if "actual=strictly-below" in out:
        return out.replace("actual=strictly-below", "actual=below", 1)
    return out.replace("  pass\n", "  FAIL\n", 1)


# --------------------------------------------------------------------------
# compare-q-s6: brute-force reference on image tuples

Word = tuple[int, ...]

_STAB_RE = re.compile(r"stab\(\s*(\d+)\s*,\s*(\d+)\s*\)\Z")
_GEN_RE = re.compile(r"gen\((.*)\)\Z")


def _compose(a: Word, b: Word) -> Word:
    """a after b: b acts first."""
    return tuple(a[j] for j in b)


def _cipher(spec: dict[str, Any], m: int) -> dict[Word, Fraction]:
    """The scenario constructors the generator uses, rebuilt from scratch."""
    (kind, payload), = spec.items()
    identity = tuple(range(m))
    if kind == "uniform_on":
        (gen,) = json.loads(_GEN_RE.match(payload).group(1))
        elems, g = [identity], tuple(gen)
        while g != identity:
            elems.append(g)
            g = _compose(tuple(gen), g)
    elif kind == "deterministic":
        elems = [tuple(payload)]
    elif kind == "coset":
        rep = payload["rep"]
        t = int(_STAB_RE.match(payload["subgroup"]).group(2))
        elems = [g for g in itertools.permutations(range(m)) if g[t] == rep[t]]
    else:
        raise ValueError(f"unknown cipher constructor {kind!r}")
    share = Fraction(1, len(elems))
    return {g: share for g in elems}


def _product(factors: list[dict[Word, Fraction]]) -> dict[Word, Fraction]:
    """Double loop over the supports, rightmost factor applied first."""
    acc = factors[-1]
    for x in reversed(factors[:-1]):
        out: dict[Word, Fraction] = defaultdict(Fraction)
        for a, xa in x.items():
            for b, yb in acc.items():
                out[_compose(a, b)] += xa * yb
        acc = dict(out)
    return acc


class _Scaled:
    """A distribution as integer weights over one common denominator."""

    def __init__(self, dist: dict[Word, Fraction]):
        self.den = lcm(*(f.denominator for f in dist.values()))
        self.weights = [(g, int(f * self.den)) for g, f in dist.items() if f]

    def classes(self, p: Word) -> list[list[int]]:
        """Support weights grouped by the image of the tuple p, each sorted
        decreasingly."""
        by_image: dict[Word, list[int]] = defaultdict(list)
        for g, w in self.weights:
            by_image[tuple(g[i] for i in p)].append(w)
        return [sorted(ws, reverse=True) for ws in by_image.values()]


def relation(xs: list, ys: list) -> tuple[str, int | None, int | None]:
    """Majorization of x by y from prefix sums of the decreasing
    rearrangements: (relation, first index above, first index below)."""
    n = max(len(xs), len(ys))
    xs = sorted(list(xs) + [0] * (n - len(xs)), reverse=True)
    ys = sorted(list(ys) + [0] * (n - len(ys)), reverse=True)
    if sum(xs) != sum(ys):
        return "norm-mismatch", None, None
    above = below = None
    px = py = 0
    for i, (a, b) in enumerate(zip(xs, ys), start=1):
        px += a
        py += b
        if px > py and above is None:
            above = i
        if px < py and below is None:
            below = i
    if above is None and below is None:
        return "equal-up-to-permutation", None, None
    if above is None:
        return "strictly-below", None, None
    if below is None:
        return "strictly-above", None, None
    return "incomparable", above, below


def _majorization_direction(left: list[int], right: list[int], den_l: int, den_r: int) -> str:
    """Which side the majorization verdict favours, for two vectors of
    integer weights over the denominators den_l and den_r."""
    verdict = relation([w * den_r for w in left], [w * den_l for w in right])[0]
    return {
        "equal-up-to-permutation": EQUAL,
        "strictly-below": LEFT,
        "strictly-above": RIGHT,
    }.get(verdict, MIXED)


def _order(left, right, left_safer_when_smaller: bool) -> str:
    if left == right:
        return EQUAL
    return LEFT if (left < right) == left_safer_when_smaller else RIGHT


def _combine(directions) -> str:
    seen = set(directions)
    if MIXED in seen or {LEFT, RIGHT} <= seen:
        return MIXED
    return LEFT if LEFT in seen else RIGHT if RIGHT in seen else EQUAL


def _tuple_metrics(s: _Scaled, p: Word, m: int):
    """NCPA advantage, conditional guesswork, coset-mass vector and summed
    profile for one tuple, the last two scaled by the denominator."""
    classes = s.classes(p)
    cosets = factorial(m) // factorial(m - len(p))
    masses = [sum(ws) for ws in classes]
    off = sum(abs(cosets * c - s.den) for c in masses)
    off += (cosets - len(masses)) * s.den
    advantage = Fraction(off, 2 * cosets * s.den)
    guesswork = Fraction(
        sum(i * w for ws in classes for i, w in enumerate(ws, start=1)), s.den
    )
    profile = [0] * factorial(m - len(p))
    for ws in classes:
        for i, w in enumerate(ws):
            profile[i] += w
    return advantage, guesswork, masses, profile


def compare_reference(scenario: dict[str, Any], q_max: int) -> tuple[list[dict], int]:
    """Expected per-pair levels and the exit code of ``compare``."""
    m = scenario["message_count"]
    ciphers = {n: _cipher(s, m) for n, s in scenario["ciphers"].items()}
    dists = {n: _Scaled(c) for n, c in ciphers.items()}
    for name, factors in scenario["products"].items():
        dists[name] = _Scaled(_product([ciphers[f] for f in factors]))
    pairs = []
    for left, right in scenario["compare"]:
        sl, sr = dists[left], dists[right]
        levels = []
        for q in range(q_max + 1):
            best = {"adv_l": None, "adv_r": None, "gw_l": None, "gw_r": None}
            directions = []
            for p in itertools.permutations(range(m), q):
                adv_l, gw_l, masses_l, prof_l = _tuple_metrics(sl, p, m)
                adv_r, gw_r, masses_r, prof_r = _tuple_metrics(sr, p, m)
                # the first extremal tuple in lexicographic order wins
                for key, value, better in (
                    ("adv_l", adv_l, operator.gt),
                    ("adv_r", adv_r, operator.gt),
                    ("gw_l", gw_l, operator.lt),
                    ("gw_r", gw_r, operator.lt),
                ):
                    if best[key] is None or better(value, best[key][0]):
                        best[key] = (value, p)
                directions += [
                    _order(adv_l, adv_r, True),
                    _order(gw_l, gw_r, False),
                    _majorization_direction(masses_l, masses_r, sl.den, sr.den),
                    _majorization_direction(prof_l, prof_r, sl.den, sr.den),
                ]
            levels.append({"q": q, "verdict": _combine(directions), **best})
        pairs.append(
            {
                "left": left,
                "right": right,
                "levels": levels,
                "overall": _combine(lvl["verdict"] for lvl in levels),
            }
        )
    rc = 1 if any(pair["overall"] == MIXED for pair in pairs) else 0
    return pairs, rc


def oracle_cross_check(scenario: dict[str, Any], pairs: list[dict]) -> list[str]:
    """Check the reference's minimum conditional guesswork against the
    library's own brute-force oracle at each level's minimizing tuple."""
    from cipherorder.dist import CipherDist
    from cipherorder.groups import symmetric_group
    from cipherorder.qsecurity import conditional_guesswork_oracle

    m = scenario["message_count"]
    group = symmetric_group(m)
    ciphers = {n: _cipher(s, m) for n, s in scenario["ciphers"].items()}
    problems = []
    for pair in pairs:
        for side, key in (("left", "gw_l"), ("right", "gw_r")):
            name = pair[side]
            factors = scenario["products"].get(name, [name])
            dist = _product([ciphers[f] for f in factors])
            cd = CipherDist(group, tuple(dist.get(g.images, Fraction(0)) for g in group))
            for level in pair["levels"]:
                value, p = level[key]
                oracle = conditional_guesswork_oracle(cd, p)
                if oracle != value:
                    problems.append(
                        f"reference guesswork {value} != oracle {oracle} for {name} at {p}"
                    )
    return problems


_HEADER_RE = re.compile(r"compare (\S+) \(left\) vs (\S+) \(right\)\Z")
_LEVEL_RE = re.compile(
    r"q=(\d+): verdict=(\S+)  max_adv (\S+)=(\S+) @(\(.*?\)) (\S+)=(\S+) @(\(.*?\))"
    r"  min_gw (\S+)=(\S+) (\S+)=(\S+)"
)
_OVERALL_RE = re.compile(r"overall: (\S+)")


def verify_compare(
    spec: dict[str, Any], rc: int | None, out: str, reference: tuple[list[dict], int]
) -> list[str]:
    pairs, want_rc = reference
    problems = []
    if rc != want_rc:
        problems.append(f"exit code {rc}, want {want_rc}")
    lines = [ln for ln in out.splitlines() if not ln.startswith(" ")]
    expected_lines = len(pairs) * (len(pairs[0]["levels"]) + 2)
    if len(lines) != expected_lines:
        return problems + [f"{len(lines)} report lines, want {expected_lines}"]
    it = iter(lines)
    for pair in pairs:
        header = _HEADER_RE.match(next(it))
        if header is None or header.groups() != (pair["left"], pair["right"]):
            problems.append(f"bad header for {pair['left']} vs {pair['right']}")
        for level in pair["levels"]:
            line = next(it)
            got = _LEVEL_RE.match(line)
            want = (
                str(level["q"]),
                level["verdict"],
                pair["left"], str(level["adv_l"][0]), str(level["adv_l"][1]),
                pair["right"], str(level["adv_r"][0]), str(level["adv_r"][1]),
                pair["left"], str(level["gw_l"][0]),
                pair["right"], str(level["gw_r"][0]),
            )
            if got is None or got.groups() != want:
                problems.append(f"level line {line!r}, want values {want}")
        overall = _OVERALL_RE.match(next(it))
        if overall is None or overall.group(1) != pair["overall"]:
            problems.append(f"overall for {pair['left']} vs {pair['right']}: want {pair['overall']}")
    return problems


def perturb_compare(out: str) -> str:
    """Move the left cipher's q=1 maximum advantage by 1/7."""
    lines = out.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("q=1:"):
            lines[i] = re.sub(
                r"max_adv (\S+)=(\S+) @",
                lambda m: f"max_adv {m.group(1)}={Fraction(m.group(2)) + Fraction(1, 7)} @",
                line,
                count=1,
            )
            break
    return "".join(lines)


# --------------------------------------------------------------------------
# majorize-witness: verdict by prefix sums, witness checked entry by entry

MAJORIZE_EXIT_CODES = {
    "equal-up-to-permutation": 0,
    "strictly-below": 3,
    "below": 4,
    "above": 5,
    "strictly-above": 6,
    "incomparable": 7,
    "norm-mismatch": 8,
}


def _check_witness(x: list[Fraction], y: list[Fraction], lines: list[str]) -> list[str]:
    n = len(x)
    matrix_lines = [ln for ln in lines if ln.startswith("matrix\t")]
    term_lines = [ln for ln in lines if ln.startswith("birkhoff\t")]
    if len(matrix_lines) + len(term_lines) != len(lines):
        return ["unexpected lines in the witness"]
    if len(matrix_lines) != n:
        return [f"{len(matrix_lines)} matrix rows, want {n}"]
    try:
        d = [[Fraction(tok) for tok in ln.split("\t", 1)[1].split()] for ln in matrix_lines]
        terms = []
        for ln in term_lines:
            _, weight, perm = ln.split("\t")
            terms.append((Fraction(weight), json.loads(perm)))
    except ValueError as exc:
        return [f"unparsable witness: {exc}"]
    problems = []
    if any(len(row) != n or min(row) < 0 for row in d):
        return ["matrix is not square and nonnegative"]
    one = Fraction(1)
    if any(sum(row) != one for row in d):
        problems.append("a matrix row does not sum to 1")
    if any(sum(d[i][j] for i in range(n)) != one for j in range(n)):
        problems.append("a matrix column does not sum to 1")
    if [sum(d[i][j] * y[j] for j in range(n)) for i in range(n)] != list(x):
        problems.append("D y != x")
    if not 1 <= len(terms) <= (n - 1) ** 2 + 1:
        problems.append(f"{len(terms)} Birkhoff terms, bound {(n - 1) ** 2 + 1}")
    if any(w <= 0 for w, _ in terms) or sum(w for w, _ in terms) != one:
        problems.append("Birkhoff weights are not positive summing to 1")
    rebuilt = [[Fraction(0)] * n for _ in range(n)]
    for w, perm in terms:
        if sorted(perm) != list(range(n)):
            return problems + [f"Birkhoff term {perm} is not a permutation"]
        for i, j in enumerate(perm):
            rebuilt[i][j] += w
    if rebuilt != d:
        problems.append("Birkhoff terms do not rebuild D")
    return problems


def verify_majorize(spec: dict[str, Any], rc: int | None, out: str) -> list[str]:
    x, y = spec["x"], spec["y"]
    verdict, above, below = relation(x, y)
    problems = []
    if rc != MAJORIZE_EXIT_CODES[verdict]:
        problems.append(f"exit code {rc}, want {MAJORIZE_EXIT_CODES[verdict]}")
    lines = out.splitlines()
    head = [f"verdict\t{verdict}"]
    if verdict == "incomparable":
        head += [f"witness_prefix_above\t{above}", f"witness_prefix_below\t{below}"]
    if lines[: len(head)] != head:
        return problems + [f"verdict lines {lines[: len(head)]}, want {head}"]
    rest = lines[len(head):]
    if verdict in ("equal-up-to-permutation", "strictly-below"):
        return problems + _check_witness(x, y, rest)
    if rest != ["witness\tunavailable (x is not majorized by y)"]:
        problems.append(f"lines after the verdict {rest[:2]}, want witness unavailable")
    return problems


def perturb_majorize(out: str) -> str:
    """Add 1/1000 to the first matrix entry or, without a witness, change
    the verdict string."""
    lines = out.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith("matrix\t"):
            first, sep, tail = line[len("matrix\t"):].partition(" ")
            lines[i] = f"matrix\t{Fraction(first) + Fraction(1, 1000)}{sep}{tail}"
            return "".join(lines)
    lines[0] = "verdict\tequal-up-to-permutation\n"
    return "".join(lines)
