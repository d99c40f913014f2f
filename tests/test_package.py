import types
from fractions import Fraction

import pytest

import cipherorder
from cipherorder import (
    closure,
    compare,
    compare_q,
    deterministic,
    hlp_witness,
    parse_scenario,
    symmetric_group,
    transposition,
    triple_decompose,
    uniform_on,
)
from cipherorder.experiments import run_expand


def test_all_lists_exactly_the_public_names():
    # every public non-module name of the package, each listed once
    public = {
        name
        for name, value in vars(cipherorder).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(cipherorder.__all__)) == len(cipherorder.__all__)
    assert set(cipherorder.__all__) == public


SCENARIO = """{"message_count": 3, "ciphers": {"X": {"uniform_on": "stab(3,2)"}},
 "products": {"XX": ["X", "X"]}, "compare": [["XX", "X"]]}"""


def records():
    """One record of each result type, computed from scratch on each call."""
    s3 = symmetric_group(3)
    h = s3.indices_of(closure([transposition(3, 0, 1)]))
    pi = s3.index(transposition(3, 1, 2))
    x = uniform_on(s3, h)
    report = compare_q(x, deterministic(s3, pi), 1)
    expand = run_expand(s3, h, pi, q_max=1)
    half = Fraction(1, 2)
    return {
        "MajorizationVerdict": compare([half, half], [1, 0]),
        "incomparable MajorizationVerdict": compare(
            [Fraction(5, 10), Fraction(2, 10), Fraction(2, 10), Fraction(1, 10)],
            [Fraction(4, 10), Fraction(4, 10), Fraction(1, 10), Fraction(1, 10)],
        ),
        "DoublyStochasticWitness": hlp_witness([half, half, 0], [1, 0, 0]),
        "TripleDecomposition": triple_decompose(x, pi, x, h, h),
        "ComparisonReport": report,
        "LevelComparison": report.levels[1],
        "TupleComparison": report.levels[1].tuples[0],
        "ExperimentResult": expand,
        "CheckRow": expand.rows[-1],
        "Scenario": parse_scenario(SCENARIO),
    }


@pytest.mark.parametrize("name", list(records()))
def test_records_are_immutable_values(name):
    record, same = records()[name], records()[name]
    assert type(record).__name__ == name.split()[-1]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    assert same is not record and same == record
    if name != "Scenario":  # its cipher and product tables are dicts
        assert hash(same) == hash(record)
    # a NamedTuple: indexed, unpacked, and equal to the plain tuple of its fields
    first, *rest = record
    assert first is record[0] and len(rest) == len(record._fields) - 1
    assert record == tuple(getattr(record, f) for f in record._fields)
