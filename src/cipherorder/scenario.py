"""Scenario files: named groups, ciphers and product expressions, as JSON.

A scenario is a JSON object like::

    {
      "message_count": 3,
      "group": "sym(3)",
      "ciphers": {
        "X": {"uniform_on": "gen([[1,0,2]])"},
        "Y": {"deterministic": [0, 2, 1]},
        "Z": {"coset": {"rep": [0, 2, 1], "subgroup": "gen([[1,0,2]])"}}
      },
      "products": {"T": ["X", "Y", "Z"], "D": ["X", "Z"]},
      "compare": [["T", "D"]],
      "q_max": 2
    }

Group and subset specs use the named constructors ``sym(m)``, ``cyclic(m)``,
``stab(m, t)`` (the full symmetric group on {0..m-1} fixing point t) and
``gen([[...], ...])`` (the group generated by explicit image arrays).
``parse_subgroup`` turns a subgroup spec into sorted indices of the ambient
group, and ``_element`` a permutation into its index: the forms every
subgroup and every element take inside the library.  Product
expressions list cipher names with the rightmost applied first.
"""

from __future__ import annotations

import json
import re
from typing import Any, NamedTuple

from .dist import (
    CipherDist,
    convolve_all,
    deterministic,
    translate,
    uniform_on,
)
from .groups import (
    DEFAULT_CAP,
    GroupTable,
    closure,
    cyclic_group,
    over_cap,
    stabilizer,
    symmetric_group,
)
from .perms import Permutation


class ScenarioError(ValueError):
    """A malformed scenario; the message names the offending field."""


_SYM_RE = re.compile(r"sym\(\s*(\d+)\s*\)\Z")
_CYCLIC_RE = re.compile(r"cyclic\(\s*(\d+)\s*\)\Z")
_STAB_RE = re.compile(r"stab\(\s*(\d+)\s*,\s*(\d+)\s*\)\Z")
_GEN_RE = re.compile(r"gen\((.*)\)\Z", re.DOTALL)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's members as a dict; a repeated key is a ValueError
    rather than a silent win for its last value."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _json(text: str, where: str) -> Any:
    """``text`` read as JSON; malformed or too deeply nested input, an
    integer past Python's digit limit, or an object with a repeated key is a
    ``ScenarioError`` naming ``where``."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise ScenarioError(f"{where}: not valid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioError(f"{where}: JSON nested too deeply") from None


def parse_permutation(value: Any, *, where: str, degree: int | None = None) -> Permutation:
    # Permutation refuses images whose type is not int, JSON true/false
    # (bool, a subclass of int) included
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: a permutation must be a list of ints")
    try:
        p = Permutation(tuple(value))
    except TypeError:
        raise ScenarioError(f"{where}: a permutation must be a list of ints") from None
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    if degree is not None and p.degree != degree:
        raise ScenarioError(
            f"{where}: degree {p.degree} does not match message count {degree}"
        )
    return p


def _degree(digits: str, kind: str) -> int:
    """The degree of a ``kind(...)`` spec.  One with more digits than the
    group-size cap is over the cap for every constructor, so it is refused
    before ``int()`` reads it (Python refuses over 4300 digits)."""
    if len(digits.lstrip("0")) > len(str(DEFAULT_CAP)):
        raise over_cap(f"{kind}(<{len(digits)}-digit degree>)")
    return int(digits)


def parse_group_spec(spec: str, *, where: str, degree: int | None = None) -> GroupTable:
    """Build a group from a named-constructor string."""
    if not isinstance(spec, str):
        raise ScenarioError(f"{where}: group spec must be a string")
    text = spec.strip()
    try:
        if m := _SYM_RE.match(text):
            group = symmetric_group(_degree(m.group(1), "sym"))
        elif m := _CYCLIC_RE.match(text):
            group = cyclic_group(_degree(m.group(1), "cyclic"))
        elif m := _STAB_RE.match(text):
            size, fixed = _degree(m.group(1), "stab"), int(m.group(2))
            if fixed >= size:
                raise ScenarioError(f"{where}: stab point {fixed} out of range")
            sym = symmetric_group(size)
            group = GroupTable._from_words([sym.words[i] for i in stabilizer(sym, (fixed,))])
        elif m := _GEN_RE.match(text):
            words = _json(m.group(1), f"{where}.gen")
            if not isinstance(words, list) or not words:
                raise ScenarioError(f"{where}: gen(...) needs a list of permutations")
            gens = [
                parse_permutation(w, where=f"{where}.gen[{i}]", degree=degree)
                for i, w in enumerate(words)
            ]
            group = closure(gens)
        else:
            raise ScenarioError(f"{where}: unrecognized group spec {spec!r}")
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    if degree is not None and group.degree != degree:
        raise ScenarioError(
            f"{where}: group degree {group.degree} does not match "
            f"message count {degree}"
        )
    return group


def parse_cipher_spec(
    spec: Any, group: GroupTable, *, where: str
) -> CipherDist:
    """Build a distribution from a constructor object.

    Supported constructors: ``{"uniform_on": <group spec>}``,
    ``{"deterministic": <perm>}`` and ``{"coset": {"rep": <perm>,
    "subgroup": <group spec>}}`` (uniform on the left coset rep*H).
    """
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ScenarioError(f"{where}: a cipher spec is a one-key object")
    kind, payload = next(iter(spec.items()))
    if kind == "uniform_on":
        return uniform_on(group, parse_subgroup(payload, group, where=f"{where}.uniform_on"))
    if kind == "deterministic":
        return deterministic(group, _element(payload, group, where=f"{where}.deterministic"))
    if kind == "coset":
        if not isinstance(payload, dict) or set(payload) != {"rep", "subgroup"}:
            raise ScenarioError(f"{where}.coset: needs 'rep' and 'subgroup'")
        rep = _element(payload["rep"], group, where=f"{where}.coset.rep")
        h = parse_subgroup(payload["subgroup"], group, where=f"{where}.coset.subgroup")
        return translate(rep, uniform_on(group, h))
    raise ScenarioError(f"{where}: unknown cipher constructor {kind!r}")


def parse_subgroup(spec: Any, group: GroupTable, *, where: str) -> tuple[int, ...]:
    """The group spec ``spec`` as a subgroup of ``group``: sorted indices of
    ``group``, or a ``ScenarioError`` naming ``where`` if it leaves it."""
    sub = parse_group_spec(spec, where=where, degree=group.degree)
    try:
        return group.indices_of(sub)
    except ValueError as exc:
        raise ScenarioError(f"{where}: not a subgroup of the group: {exc}") from None


def _element(value: Any, group: GroupTable, *, where: str) -> int:
    """The permutation ``value`` as an index of ``group``, or a
    ``ScenarioError`` naming ``where`` if it is not in ``group``."""
    p = parse_permutation(value, where=where, degree=group.degree)
    try:
        return group.index(p)
    except ValueError:
        raise ScenarioError(f"{where}: {p} is not in the group") from None


class Scenario(NamedTuple):
    """A parsed and fully resolved scenario."""

    message_count: int
    group: GroupTable
    ciphers: dict[str, CipherDist]
    products: dict[str, tuple[str, ...]]
    compare: tuple[tuple[str, str], ...]
    q_max: int

    def distribution(self, name: str) -> CipherDist:
        """The distribution of a named cipher or product expression."""
        if name in self.ciphers:
            return self.ciphers[name]
        if name in self.products:
            return convolve_all([self.ciphers[f] for f in self.products[name]])
        raise ScenarioError(f"unknown cipher or product {name!r}")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text, resolving every named object."""
    raw = _json(text, "scenario")
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")

    m = raw.get("message_count")
    # type() rather than isinstance() here and for q_max: JSON true/false
    # load as bool, a subclass of int
    if type(m) is not int or m < 1:
        raise ScenarioError("message_count: must be a positive integer")
    group = parse_group_spec(raw.get("group", f"sym({m})"), where="group", degree=m)

    ciphers: dict[str, CipherDist] = {}
    raw_ciphers = raw.get("ciphers", {})
    if not isinstance(raw_ciphers, dict):
        raise ScenarioError("ciphers: must be an object of name -> spec")
    for name, spec in raw_ciphers.items():
        ciphers[name] = parse_cipher_spec(spec, group, where=f"ciphers.{name}")

    products: dict[str, tuple[str, ...]] = {}
    raw_products = raw.get("products", {})
    if not isinstance(raw_products, dict):
        raise ScenarioError("products: must be an object of name -> factor list")
    for name, factors in raw_products.items():
        if name in ciphers:
            raise ScenarioError(f"products.{name}: name already used by a cipher")
        if (
            not isinstance(factors, list)
            or not factors
            or not all(isinstance(f, str) for f in factors)
        ):
            raise ScenarioError(
                f"products.{name}: must be a nonempty list of cipher names"
            )
        for f in factors:
            if f not in ciphers:
                raise ScenarioError(f"products.{name}: unknown cipher {f!r}")
        products[name] = tuple(factors)

    known = set(ciphers) | set(products)
    compare: list[tuple[str, str]] = []
    raw_compare = raw.get("compare", [])
    if not isinstance(raw_compare, list):
        raise ScenarioError("compare: must be a list of [left, right] pairs")
    for i, pair in enumerate(raw_compare):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"compare[{i}]: must be a [left, right] pair")
        for name in pair:
            if not isinstance(name, str):
                raise ScenarioError(f"compare[{i}]: names must be strings")
            if name not in known:
                raise ScenarioError(f"compare[{i}]: unknown name {name!r}")
        compare.append((pair[0], pair[1]))

    q_max = raw.get("q_max", 1)
    if type(q_max) is not int or not 0 <= q_max <= m:
        raise ScenarioError(f"q_max: must be an integer in 0..{m}")

    return Scenario(
        message_count=m,
        group=group,
        ciphers=ciphers,
        products=products,
        compare=tuple(compare),
        q_max=q_max,
    )
