"""Exact-arithmetic Narayana/Catalan/Schroeder combinatorics.

The package evaluates symmetric functions at formal specialization points
(integer constants plus rank-1 atoms), derives the classical sequence
families from them, and ships a registry of machine-checked identities
together with a small query language and a CLI.

Importing the package loads none of its modules. Each public name is
imported from its home module on first access (PEP 562) and then kept in
this namespace, so that a query loads the arithmetic modules but not the
identity registry, which only the verification suite reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module and the public names it defines.
_EXPORTS = {
    "identities": (
        "IdentityCase",
        "SuiteReport",
        "check_identity",
        "registered_ids",
        "run_suite",
    ),
    "lambdaring": (
        "Alphabet",
        "HSequence",
        "e_of",
        "h_of",
        "hall_littlewood_principal",
        "hook_schur_constant",
        "m_of_constant",
        "p_of",
        "s_of",
        "sfraction",
        "strinc_oracle",
    ),
    "partitions": (
        "Partition",
        "composition_multiplicity",
        "enumerate_partitions",
        "z_of",
    ),
    "poly": ("PolyQQ",),
    "rationals": ("gen_binomial",),
    "sequences": (
        "catalan",
        "jacobi11",
        "large_narayana",
        "master_formula",
        "narayana",
        "narayana_closed",
        "narayana_hsequence",
        "narayana_power_sum",
        "narayana_schur",
        "schroeder",
        "type_b_w",
    ),
    "series": ("TruncSeries",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
