"""Acceptance gate: every release criterion, each with its stated time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import hashlib
import time

from narayana_lab.cli import _dump_json
from narayana_lab.identities import REGISTRY, run_suite
from narayana_lab.lambdaring import hall_littlewood_principal, sfraction, strinc_oracle
from narayana_lab.partitions import Partition, enumerate_partitions
from narayana_lab.poly import PolyQQ
from narayana_lab.sequences import (
    large_narayana,
    master_formula,
    narayana,
    narayana_hsequence,
    narayana_power_sum,
    narayana_schur,
    schroeder,
)

from fuzzers import fuzz_alphabet_additivity, fuzz_dsl_roundtrip, fuzz_pascal
from report_oracle import param_json

Q = PolyQQ.var_q()
ONE = PolyQQ.one()


def _criterion(number: int, ok: bool, budget: float, elapsed: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {number:02d}] {status} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number}: took {elapsed:.2f}s, budget {budget}s"


def test_criterion_01_narayana_table():
    start = time.perf_counter()
    golden = {
        1: [1],
        2: [1, 1],
        3: [1, 3, 1],
        4: [1, 6, 6, 1],
        5: [1, 10, 20, 10, 1],
    }
    ok = all(
        narayana(n) == PolyQQ.from_q_coefficients(coeffs)
        for n, coeffs in golden.items()
    )
    _criterion(1, ok, 1.0, time.perf_counter() - start, "narayana 1..5 golden rows")


def test_criterion_02_power_sums():
    start = time.perf_counter()
    golden = {
        1: [1],
        2: [1, 2],
        3: [1, 6, 3],
        4: [1, 12, 18, 4],
        5: [1, 20, 60, 40, 5],
    }
    ok = all(
        narayana_power_sum(r) == PolyQQ.from_q_coefficients(coeffs)
        for r, coeffs in golden.items()
    )
    _criterion(2, ok, 1.0, time.perf_counter() - start, "power sums 1..5 golden rows")


def test_criterion_03_schur_table():
    start = time.perf_counter()
    golden = {
        (6,): [1, 15, 50, 50, 15, 1],
        (5, 1): [0, -5, -30, -40, -14, -1],
        (4, 2): [0, -3, -8, -3],
        (4, 1, 1): [0, 4, 24, 34, 13, 1],
        (3, 3): [0, -1, -1, -1],
        (3, 2, 1): [0, 2, 7, 4],
        (3, 1, 1, 1): [0, -3, -20, -30, -12, -1],
        (2, 2, 2): [0, 0, 0, -1],
        (2, 2, 1, 1): [0, -1, -5, -3],
        (2, 1, 1, 1, 1): [0, 2, 16, 26, 11, 1],
        (1, 1, 1, 1, 1, 1): [0, -1, -10, -20, -10, -1],
    }
    partitions_of_six = [mu.parts for mu in enumerate_partitions(6)]
    ok = sorted(partitions_of_six, reverse=True) == sorted(golden, reverse=True)
    for parts, coeffs in golden.items():
        ok = ok and narayana_schur(Partition(parts)) == PolyQQ.from_q_coefficients(coeffs)
    _criterion(3, ok, 5.0, time.perf_counter() - start, "all 11 weight-6 Schur values")


def test_criterion_04_rectangles():
    start = time.perf_counter()
    ok = True
    for k in range(1, 7):
        want = (-Q) ** (k * (k - 1) // 2)
        ok = ok and narayana_schur(Partition((k,) * k)) == want
        km1 = Partition(tuple(x for x in (k - 1,) * k if x > 0))
        ok = ok and narayana_schur(km1) == want
    _criterion(4, ok, 30.0, time.perf_counter() - start, "square rectangles k = 1..6")


def test_criterion_05_triangle():
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        hl = hall_littlewood_principal(n, n + 1)
        ok = ok and strinc_oracle(n) == hl
        ok = ok and narayana(n).subst_q(ONE - Q) * (n + 1) == hl
    for n in range(9, 21):
        hl = hall_littlewood_principal(n, n + 1)
        ok = ok and narayana(n).subst_q(ONE - Q) * (n + 1) == hl
    _criterion(
        5, ok, 60.0, time.perf_counter() - start,
        "word oracle = principal Hall-Littlewood = shifted Narayana, n <= 20",
    )


def _values_digest(report) -> str:
    # The report writes lhs/rhs only for failed cases, so a value that drifts
    # on both sides of an identity needs its own digest.
    values = _dump_json([
        [c.id, {k: param_json(v) for k, v in sorted(c.params.items())}, str(c.lhs), str(c.rhs)]
        for c in report.results
    ])
    return hashlib.sha256(values.encode()).hexdigest()


def test_criterion_06_full_suite():
    start = time.perf_counter()
    report = run_suite(max_n=12)
    ok = report.ok and report.counts["fail"] == 0
    ok = ok and set(c.id for c in report.results) == set(REGISTRY)
    by_id: dict[str, list] = {}
    for case in report.results:
        by_id.setdefault(case.id, []).append(case.params)
    ok = ok and max(p["n"] for p in by_id["thm6"]) == 12
    for deep in ("thm3", "thm4", "thm5"):
        ok = ok and max(p["n"] for p in by_id[deep]) == 20
    ok = ok and max(p["r"] for p in by_id["thm4"]) == 20
    # The stdout of `verify --max-n 12`, pinned across builds: two runs of one
    # build cannot show a value that drifts (say 3/1 printed for 3).  The
    # digest is taken from the text the command prints.
    stdout = report.to_json() + "\n"
    ok = ok and hashlib.sha256(stdout.encode()).hexdigest() == (
        "640715d9a2f1ae624de0d59960d59ab070fda86f362cdce759c169a8e9b300bb"
    )
    ok = ok and _values_digest(report) == (
        "7624804d2d90c61c04038b6974cd5287f43ecf731a7760e9b74c549113683044"
    )
    _criterion(
        6, ok, 300.0, time.perf_counter() - start,
        f"full registry, {len(report.results)} cases, counts={report.counts}",
    )


def test_criterion_07_sfraction():
    start = time.perf_counter()
    coeffs = sfraction(narayana_hsequence(), 12)
    ok = coeffs == [ONE if i % 2 == 0 else Q for i in range(12)]
    _criterion(7, ok, 1.0, time.perf_counter() - start, "depth-12 coefficients alternate 1, q")


def test_criterion_08_schroeder_rows():
    start = time.perf_counter()
    ok = [schroeder("small", n) for n in range(6)] == [1, 1, 3, 11, 45, 197]
    ok = ok and [schroeder("large", n) for n in range(6)] == [1, 2, 6, 22, 90, 394]
    ok = ok and all(
        large_narayana(n).eval(at_q=2) == schroeder("large", n) for n in range(6)
    )
    _criterion(8, ok, 1.0, time.perf_counter() - start, "q = 2 rows pinned")


def test_criterion_09_master_formula():
    start = time.perf_counter()
    ok = True
    for eta in (1, -1):
        for zeta in (1, -1):
            for r in range(1, 16):
                # integrality is asserted inside; any violation raises
                ok = ok and master_formula(eta, zeta, r) == narayana(r)
    _criterion(9, ok, 30.0, time.perf_counter() - start, "four sign pairs, r <= 15")


def test_criterion_10_property_suites():
    start = time.perf_counter()
    ok = fuzz_alphabet_additivity(pairs=500, order=10) == 500
    ok = ok and fuzz_pascal(cases=10_000) == 10_000
    ok = ok and fuzz_dsl_roundtrip(cases=1000) == 1000
    _criterion(
        10, ok, 300.0, time.perf_counter() - start,
        "500 alphabet pairs, 10^4 Pascal cases, 10^3 round-trips",
    )


def test_criterion_11_values_at_max_n_20():
    # Past max-n 12 the power sums reach degree 20 (thm4, thm5, jacobi-bridge);
    # every lhs/rhs value there is pinned too.
    start = time.perf_counter()
    report = run_suite(max_n=20)
    ok = report.ok and report.counts == {"pass": 4729, "fail": 0}
    ok = ok and _values_digest(report) == (
        "26d3ce656345086bce673925afb04a1400a182199d25beaa157df266f3a7b2e9"
    )
    _criterion(
        11, ok, 120.0, time.perf_counter() - start,
        f"values of all {len(report.results)} cases at max-n 20",
    )


def test_criterion_12_values_at_max_n_30():
    # The largest run that verify accepts (VERIFY_MAX_N_CAP): every lhs/rhs
    # value there is pinned too.
    start = time.perf_counter()
    report = run_suite(max_n=30)
    ok = report.ok and report.counts == {"pass": 9589, "fail": 0}
    ok = ok and _values_digest(report) == (
        "52bec5df851c7ab74ff4a7c753a8e75680ae071e4d7c38dfdb42a85d41c439fc"
    )
    _criterion(
        12, ok, 120.0, time.perf_counter() - start,
        f"values of all {len(report.results)} cases at max-n 30",
    )
