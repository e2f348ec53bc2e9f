"""Exact-arithmetic Narayana/Catalan/Schroeder combinatorics.

The package evaluates symmetric functions at formal specialization points
(integer constants plus rank-1 atoms), derives the classical sequence
families from them, and ships a registry of machine-checked identities
together with a small query language and a CLI.
"""

from .lambdaring import (
    Alphabet,
    HSequence,
    e_of,
    h_of,
    hall_littlewood_principal,
    hook_schur_constant,
    m_of_constant,
    p_of,
    s_of,
    sfraction,
    strinc_oracle,
)
from .identities import (
    IdentityCase,
    SuiteReport,
    check_identity,
    registered_ids,
    run_suite,
)
from .partitions import (
    Partition,
    composition_multiplicity,
    enumerate_partitions,
    z_of,
)
from .poly import PolyQQ
from .rationals import gen_binomial
from .sequences import (
    catalan,
    jacobi11,
    large_narayana,
    master_formula,
    narayana,
    narayana_closed,
    narayana_hsequence,
    narayana_power_sum,
    narayana_schur,
    schroeder,
    type_b_w,
)
from .series import TruncSeries

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "HSequence",
    "IdentityCase",
    "Partition",
    "PolyQQ",
    "SuiteReport",
    "TruncSeries",
    "catalan",
    "check_identity",
    "composition_multiplicity",
    "e_of",
    "enumerate_partitions",
    "gen_binomial",
    "h_of",
    "hall_littlewood_principal",
    "hook_schur_constant",
    "jacobi11",
    "large_narayana",
    "m_of_constant",
    "master_formula",
    "narayana",
    "narayana_closed",
    "narayana_hsequence",
    "narayana_power_sum",
    "narayana_schur",
    "p_of",
    "registered_ids",
    "run_suite",
    "s_of",
    "schroeder",
    "sfraction",
    "strinc_oracle",
    "type_b_w",
    "z_of",
]
