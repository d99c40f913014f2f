import json
import re
from fractions import Fraction

import pytest

from cipherorder.dist import deterministic, translate, uniform_on
from cipherorder.groups import closure, stabilizer, symmetric_group
from cipherorder.perms import Permutation, transposition
from cipherorder.scenario import (
    ScenarioError,
    parse_group_spec,
    parse_permutation,
    parse_scenario,
    parse_subgroup,
)

F = Fraction

MINIMAL = json.dumps(
    {
        "message_count": 3,
        "group": "sym(3)",
        "ciphers": {"X": {"uniform_on": "sym(3)"}},
    }
)

EXPANSION = json.dumps(
    {
        "message_count": 3,
        "group": "sym(3)",
        "ciphers": {
            "X": {"uniform_on": "gen([[1,0,2]])"},
            "Y": {"deterministic": [0, 2, 1]},
            "W": {"coset": {"rep": [0, 2, 1], "subgroup": "gen([[1,0,2]])"}},
        },
        "products": {"T": ["X", "Y", "X"], "D": ["X", "X"]},
        "compare": [["T", "D"]],
        "q_max": 2,
    }
)


def test_minimal_scenario_parses():
    scenario = parse_scenario(MINIMAL)
    assert scenario.message_count == 3
    assert scenario.group.order == 6
    assert scenario.q_max == 1
    assert scenario.compare == ()


def test_group_spec_constructors():
    assert parse_group_spec("sym(3)", where="t").order == 6
    assert parse_group_spec("cyclic(4)", where="t").order == 4
    s4 = symmetric_group(4)
    stab = parse_group_spec("stab(4, 3)", where="t")
    assert stab == closure(map(s4.element, stabilizer(s4, (3,))))
    assert parse_subgroup("stab(4, 3)", s4, where="t") == stabilizer(s4, (3,))
    gen = parse_group_spec("gen([[1,0,2]])", where="t")
    assert gen == closure([transposition(3, 0, 1)])
    with pytest.raises(ScenarioError):
        parse_group_spec("dihedral(3)", where="t")
    with pytest.raises(ScenarioError):
        parse_group_spec("gen([])", where="t")


def test_full_scenario_resolves_distributions():
    scenario = parse_scenario(EXPANSION)
    group = scenario.group
    h = group.indices_of(closure([transposition(3, 0, 1)]))
    assert parse_subgroup("gen([[1,0,2]])", group, where="t") == h
    assert scenario.ciphers["X"] == uniform_on(group, h)
    pi = group.index(transposition(3, 1, 2))
    assert scenario.ciphers["Y"] == deterministic(group, pi)
    assert scenario.ciphers["W"] == translate(pi, uniform_on(group, h))
    t = scenario.distribution("T")
    assert t.support_size() == 4
    assert scenario.distribution("D").support_size() == 2


def test_unknown_cipher_reference():
    bad = json.loads(EXPANSION)
    bad["products"]["T"] = ["X", "Q", "X"]
    with pytest.raises(ScenarioError, match="Q"):
        parse_scenario(json.dumps(bad))


def test_unknown_compare_name():
    bad = json.loads(EXPANSION)
    bad["compare"] = [["T", "Nope"]]
    with pytest.raises(ScenarioError, match="Nope"):
        parse_scenario(json.dumps(bad))
    # a name that is not a string is refused, not hashed or printed
    for name in (["X"], {"X": 1}, 3):
        bad["compare"] = [["T", "D"], [name, "Y"]]
        with pytest.raises(ScenarioError, match=r"^compare\[1\]: names must be strings$"):
            parse_scenario(json.dumps(bad))


def test_non_bijection_permutation():
    bad = json.loads(EXPANSION)
    bad["ciphers"]["Y"] = {"deterministic": [0, 0, 2]}
    with pytest.raises(ScenarioError, match="bijection"):
        parse_scenario(json.dumps(bad))


def test_degree_mismatch():
    bad = json.loads(EXPANSION)
    bad["ciphers"]["Y"] = {"deterministic": [0, 2, 1, 3]}
    with pytest.raises(ScenarioError, match="degree"):
        parse_scenario(json.dumps(bad))


def test_group_cap_exceeded():
    for m in (9, 2000):
        bad = {"message_count": m, "group": f"sym({m})", "ciphers": {}}
        with pytest.raises(ScenarioError, match=rf"^group: sym\({m}\) .*cap"):
            parse_scenario(json.dumps(bad))


def test_subgroup_outside_group():
    bad = {
        "message_count": 3,
        "group": "cyclic(3)",
        "ciphers": {"X": {"uniform_on": "gen([[1,0,2]])"}},
    }
    with pytest.raises(ScenarioError, match=r"^ciphers\.X\.uniform_on: not a subgroup"):
        parse_scenario(json.dumps(bad))
    bad["ciphers"] = {"W": {"coset": {"rep": [0, 1, 2], "subgroup": "gen([[1,0,2]])"}}}
    with pytest.raises(ScenarioError, match=r"^ciphers\.W\.coset\.subgroup: not a subgroup"):
        parse_scenario(json.dumps(bad))


def test_malformed_json_and_fields():
    with pytest.raises(ScenarioError, match="JSON"):
        parse_scenario("{not json")
    with pytest.raises(ScenarioError, match="message_count"):
        parse_scenario(json.dumps({"group": "sym(3)"}))
    with pytest.raises(ScenarioError, match="q_max"):
        parse_scenario(
            json.dumps({"message_count": 3, "group": "sym(3)", "q_max": 9})
        )
    with pytest.raises(ScenarioError, match="products.T"):
        parse_scenario(
            json.dumps(
                {
                    "message_count": 3,
                    "group": "sym(3)",
                    "ciphers": {},
                    "products": {"T": []},
                }
            )
        )


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("message_count",), True, "message_count"),
        (("q_max",), True, "q_max"),
        (("q_max",), False, "q_max"),
        (("ciphers", "Y", "deterministic"), [True, False, 2], r"Y\.deterministic"),
        (("ciphers", "W", "coset", "rep"), [0, 2, True], r"W\.coset\.rep"),
        (("ciphers", "X", "uniform_on"), "gen([[true,0,2]])", r"X\.uniform_on\.gen\[0\]"),
    ],
)
def test_json_booleans_are_not_ints(path, value, field):
    raw = json.loads(EXPANSION)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ScenarioError, match=field) as info:
        parse_scenario(json.dumps(raw))
    if path[0] == "ciphers":
        message = rf"ciphers\.{field}: a permutation must be a list of ints"
        assert re.fullmatch(message, str(info.value))


@pytest.mark.parametrize("value", [[0, 1.0, 2], [0, "1", 2], [0, [1], 2], {"0": 1}, 3])
def test_permutation_must_be_a_list_of_ints(value):
    # Permutation's TypeError for a non-int image becomes the field's error
    message = r"^pi: a permutation must be a list of ints$"
    with pytest.raises(ScenarioError, match=message):
        parse_permutation(value, where="pi", degree=3)


def test_deterministic_outside_group_rejected():
    # group.index is the one membership check of an element; the error names
    # the field that holds it
    ciphers = {
        "Y.deterministic": {"deterministic": [1, 0, 2]},
        "W.coset.rep": {"coset": {"rep": [1, 0, 2], "subgroup": "cyclic(3)"}},
    }
    for field, spec in ciphers.items():
        name = field.partition(".")[0]
        bad = {"message_count": 3, "group": "cyclic(3)", "ciphers": {name: spec}}
        message = rf"^ciphers\.{re.escape(field)}: \[1,0,2\] is not in the group$"
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(json.dumps(bad))


def test_scenario_permutations_round_trip():
    scenario = parse_scenario(EXPANSION)
    y = scenario.ciphers["Y"]
    assert y.mass[scenario.group.index(Permutation((0, 2, 1)))] == 1
