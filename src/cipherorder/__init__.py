"""Exact security ordering for product ciphers on finite permutation groups.

Ciphers are modeled as exact rational distributions over an enumerated
permutation group; products are convolutions; security orderings are decided
by majorization, Schur-convex/concave metrics and the q-query metrics
(NCPA advantage, conditional guesswork).
"""

from .dist import (
    CipherDist,
    TripleDecomposition,
    convolve,
    convolve_all,
    deterministic,
    translate,
    triple_decompose,
    uniform_on,
)
from .groups import (
    GroupSizeError,
    GroupTable,
    closure,
    conjugate_subgroup,
    cyclic_group,
    double_coset,
    left_cosets,
    stabilizer,
    symmetric_group,
)
from .majorize import (
    DoublyStochasticWitness,
    MajorizationVerdict,
    Relation,
    compare,
    hlp_witness,
)
from .metrics import (
    alpha_guesswork,
    guesswork,
    marginal_guesswork,
    renyi_entropy,
    shannon_entropy,
    variation_to_uniform,
)
from .perms import Permutation, transposition
from .qsecurity import (
    ComparisonReport,
    Direction,
    compare_q,
    conditional_guesswork_oracle,
    distinct_tuples,
)
from .scenario import Scenario, ScenarioError, parse_scenario

__all__ = [
    "CipherDist",
    "ComparisonReport",
    "Direction",
    "DoublyStochasticWitness",
    "GroupSizeError",
    "GroupTable",
    "MajorizationVerdict",
    "Permutation",
    "Relation",
    "Scenario",
    "ScenarioError",
    "TripleDecomposition",
    "alpha_guesswork",
    "closure",
    "compare",
    "compare_q",
    "conditional_guesswork_oracle",
    "conjugate_subgroup",
    "convolve",
    "convolve_all",
    "cyclic_group",
    "deterministic",
    "distinct_tuples",
    "double_coset",
    "guesswork",
    "hlp_witness",
    "left_cosets",
    "marginal_guesswork",
    "parse_scenario",
    "renyi_entropy",
    "shannon_entropy",
    "stabilizer",
    "symmetric_group",
    "transposition",
    "translate",
    "triple_decompose",
    "uniform_on",
    "variation_to_uniform",
]
