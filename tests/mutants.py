"""Mutation checks of the kernels: each mutant must fail the tests named with it.

    python3 tests/mutants.py

Run it from anywhere; it finds the repository from its own path.  Each entry
of MUTANTS is a name, a file under src/narayana_lab, an exact piece of its
text, the replacement, and the tests that must fail.  For each one the script
copies src/ to a temporary directory, replaces the text, which must occur
exactly once, and runs pytest on those tests against the copy, stopping at
the first failure.  The mutant is killed when a test fails.  The unchanged
copy runs every named test first, and must pass.

The script exits 1 if a mutant survives, if a text does not match exactly
once (so that a refactor cannot drop a mutant silently), if pytest ends any
other way than pass or fail, or if the unchanged copy fails.  pytest does
not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SYMPY = "tests/test_poly_sympy.py::"
ORACLES = "tests/test_lambdaring_oracles.py::"


class Mutant(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str
    tests: tuple[str, ...]


SUBST_Q = (
    SYMPY + "test_subst_q_kernel_one_variable_against_sympy",
    SYMPY + "test_subst_q_kernel_two_variables_against_sympy",
)
DSL_ORDER = "tests/test_dsl.py::test_a_lexical_error_is_reported_before_a_syntax_error"

MUTANTS = [
    # The one layout: q -> t, q2 -> t^S, and the decode's alignment.
    Mutant(
        "subst_q-stride-short",
        "poly.py",
        "stride = x_hi + y_hi - lo + 1",
        "stride = x_hi + y_hi - lo",
        SUBST_Q,
    ),
    Mutant(
        "subst_q-decode-one-slot-off",
        "poly.py",
        "divmod(start + b_lo * stride - lo, stride)",
        "divmod(start + b_lo * stride - lo + 1, stride)",
        SUBST_Q,
    ),
    # Every proven slot width one bit short.
    Mutant(
        "horner-width-short",
        "poly.py",
        "(sum(map(abs, ry)) + dy) ** big_b).bit_length() + 1",
        "(sum(map(abs, ry)) + dy) ** big_b).bit_length()",
        SUBST_Q,
    ),
    Mutant(
        "pow-width-short",
        "poly.py",
        "w = (sum(map(abs, nums.values())) ** e).bit_length() + 1",
        "w = (sum(map(abs, nums.values())) ** e).bit_length()",
        (SYMPY + "test_pow_against_sympy",),
    ),
    Mutant(
        "packed_row-width-short",
        "poly.py",
        "k = max(bound).bit_length() + 1",
        "k = max(bound).bit_length()",
        (SYMPY + "test_series_product_against_sympy",),
    ),
    Mutant(
        "jacobi_trudi-width-short",
        "poly.py",
        "w = _permanent_bound(norms).bit_length() + 1",
        "w = _permanent_bound(norms).bit_length()",
        (SYMPY + "test_jacobi_trudi_tail_against_sympy",),
    ),
    # The balanced digits' sign.
    Mutant(
        "unpack-digits-off-balance",
        "poly.py",
        "half = 1 << (w - 1)",
        "half = 1 << (w - 2)",
        SUBST_Q,
    ),
    # The exact division of Bareiss elimination.
    Mutant(
        "divide_exactly-unsigned-quotient",
        "poly.py",
        "row[j] = q - (q >> k - 1 << k)",
        "row[j] = q",
        (SYMPY + "test_jacobi_trudi_tail_against_sympy",),
    ),
    Mutant(
        "inverse_mod_2k-one-step-short",
        "poly.py",
        "while bits < k:",
        "while 2 * bits < k:",
        (SYMPY + "test_jacobi_trudi_tail_against_sympy",),
    ),
    Mutant(
        "divide_exactly-mask-short",
        "poly.py",
        "mask = (1 << k) - 1",
        "mask = (1 << k - 1) - 1",
        (SYMPY + "test_jacobi_trudi_tail_against_sympy",),
    ),
    # Schur values at a constant.
    Mutant(
        "hook-content-sign",
        "lambdaring.py",
        "prod(c + j - i for i, j in cells)",
        "prod(c - j + i for i, j in cells)",
        (ORACLES + "test_s_at_a_constant_matches_jacobi_trudi",),
    ),
    # The query language's error rescan: its digit cap, and a lexical error
    # anywhere in the text before the syntax error.
    Mutant(
        "dsl-digit-cap-past-by-one",
        "dsl.py",
        "if len(token) > _DIGITS_CAP:",
        "if len(token) > _DIGITS_CAP + 1:",
        (DSL_ORDER,),
    ),
    Mutant(
        "dsl-syntax-before-lexical",
        "dsl.py",
        "        spans.append((pos, token))\n",
        "        spans.append((pos, token))\n        if len(spans) > i:\n            break\n",
        (DSL_ORDER,),
    ),
    # The report's escaping of a parameter name.
    Mutant(
        "to_json-unescaped-name",
        "identities.py",
        'f"{enc(k)}: "',
        "f'\"{k}\": '",
        ("tests/test_identities.py::test_report_text_is_the_indented_encoders",),
    ),
]


def pytest(src: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for the tests, with the package imported from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def main() -> int:
    faults = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        package = src / "narayana_lab"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if pytest(src, tests):
            print("the unchanged copy fails its tests")
            return 1
        for m in MUTANTS:
            path = package / m.file
            original = path.read_text()
            count = original.count(m.text)
            if count != 1:
                print(f"ERROR    {m.name}: the text occurs {count} times in {m.file}")
                faults += 1
                continue
            path.write_text(original.replace(m.text, m.replacement))
            start = time.perf_counter()
            code = pytest(src, m.tests)
            path.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR    pytest exit {code}:")
            print(f"{verdict:8} {m.name} ({time.perf_counter() - start:.1f} s)")
            faults += code != 1
    print(f"{len(MUTANTS) - faults} of {len(MUTANTS)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
