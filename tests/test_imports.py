"""What each entry point loads, and the package's lazy namespace."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import narayana_lab

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules that only `verify` (identities, series), the table and cf commands
# (sequences) or the report writer (json) need.
COLD = (
    "narayana_lab.identities", "narayana_lab.series", "narayana_lab.sequences",
    "dataclasses", "inspect", "json",
)
QUERY_MODULES = ["cli", "dsl", "lambdaring", "partitions", "poly", "rationals"]

PUBLIC_NAMES = [
    "Alphabet", "HSequence", "IdentityCase", "Partition", "PolyQQ", "SuiteReport",
    "TruncSeries", "catalan", "check_identity", "composition_multiplicity", "e_of",
    "enumerate_partitions", "gen_binomial", "h_of", "hall_littlewood_principal",
    "hook_schur_constant", "jacobi11", "large_narayana", "m_of_constant",
    "master_formula", "narayana", "narayana_closed", "narayana_hsequence",
    "narayana_power_sum", "narayana_schur", "p_of", "registered_ids", "run_suite",
    "s_of", "schroeder", "sfraction", "strinc_oracle", "type_b_w", "z_of",
]


def fresh(code: str) -> str:
    """stdout of ``code`` run by ``python -S`` with only src added to sys.path."""
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    proc = subprocess.run(
        [sys.executable, "-S", "-c", prelude + code],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["narayana_lab", "narayana_lab.cli", "narayana_lab.dsl"])
def test_query_entry_points_leave_verify_only_modules_unloaded(module):
    out = fresh(f"import {module}; print(sorted(set({COLD!r}) & set(sys.modules)))")
    assert out == "[]\n"


def test_importing_the_package_loads_none_of_its_modules():
    out = fresh("import narayana_lab; print(sorted(m for m in sys.modules if 'narayana' in m))")
    assert out == "['narayana_lab']\n"


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["eval", "h2[3 - 3*q]"], []),
        (["hl", "--r", "3", "--n", "4"], []),
        (["table", "narayana", "--max-n", "3"], ["sequences"]),
        (["cf", "--depth", "4"], ["sequences"]),
        (["verify", "--max-n", "3", "--id", "thm1"], ["identities", "sequences", "series"]),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(argv, extra):
    out = fresh(
        "import io, contextlib, json; from narayana_lab import cli\n"
        "before = sorted(m for m in sys.modules if m.startswith('narayana_lab.'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "after = sorted(m for m in sys.modules if m.startswith('narayana_lab.'))\n"
        "print(json.dumps([code, before, after]))"
    )
    code, before, after = json.loads(out)
    assert code == 0
    assert before == [f"narayana_lab.{m}" for m in QUERY_MODULES]
    assert after == sorted(before + [f"narayana_lab.{m}" for m in extra])


def test_all_keeps_its_public_names():
    assert narayana_lab.__all__ == PUBLIC_NAMES


def test_every_public_name_is_its_home_modules_object():
    for name in narayana_lab.__all__:
        value = getattr(narayana_lab, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("narayana_lab."), name
        assert value is getattr(home, name), name
        assert vars(narayana_lab)[name] is value, name


def test_dir_lists_every_public_name():
    assert set(narayana_lab.__all__) <= set(dir(narayana_lab))
    assert "__version__" in dir(narayana_lab)


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="'narayana_lab' has no attribute 'no_such_name'"):
        narayana_lab.no_such_name
    assert not hasattr(narayana_lab, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from narayana_lab import *", namespace)
    for name in narayana_lab.__all__:
        assert namespace[name] is getattr(narayana_lab, name), name
