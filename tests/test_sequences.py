import gc
import importlib
import inspect
import pkgutil
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import narayana_lab
from narayana_lab.dsl import _value, eval_text
from narayana_lab.identities import VERIFY_MAX_N_CAP, run_suite
from narayana_lab.lambdaring import POWER_SUM_CAP, HSequence, hall_littlewood_principal
from narayana_lab.partitions import Partition, enumerate_partitions
from narayana_lab.poly import PolyQQ
from narayana_lab.rationals import gen_binomial
from narayana_lab.sequences import (
    CLOSED_FORM_VARIANTS,
    catalan,
    catalan_hsequence,
    jacobi11,
    large_narayana,
    master_formula,
    narayana,
    narayana_closed,
    narayana_hsequence,
    narayana_power_sum,
    narayana_row,
    narayana_schur,
    schroeder,
    type_b_w,
)
from narayana_lab.series import TruncSeries

Q = PolyQQ.var_q()
ONE = PolyQQ.one()

GOLDEN_FIRST_FIVE = {
    1: [1],
    2: [1, 1],
    3: [1, 3, 1],
    4: [1, 6, 6, 1],
    5: [1, 10, 20, 10, 1],
}


def test_golden_first_five():
    assert narayana(0) == ONE
    for n, coeffs in GOLDEN_FIRST_FIVE.items():
        assert narayana(n) == PolyQQ.from_q_coefficients(coeffs), n


def test_narayana_memo_is_bounded():
    # One bounded memo of the rows, large enough for `table --max-n 200`.
    assert narayana.cache_info().maxsize == 256
    assert narayana_row.cache_info().maxsize == 256
    assert narayana(200) is narayana(200)
    assert narayana(200).q_coefficients() == list(narayana_row(200))


# The two zero-argument alphabet singletons, the only memos with an unbounded cache.
SINGLETONS = {"narayana_hsequence", "catalan_hsequence"}


def package_memos() -> dict:
    memos = {}
    for info in pkgutil.iter_modules(narayana_lab.__path__):
        module = importlib.import_module(f"narayana_lab.{info.name}")
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for fn in (obj, *members):
                if hasattr(fn, "cache_info") and not isinstance(fn, type):
                    memos[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return memos


def test_every_memo_in_the_package_is_bounded():
    memos = package_memos()
    assert {"narayana_lab.sequences.narayana_row", "narayana_lab.sequences.catalan",
            "narayana_lab.sequences.jacobi11", "narayana_lab.dsl._value",
            "narayana_lab.identities._thm6_table"} <= set(memos)
    for name, fn in memos.items():
        if fn.__name__ in SINGLETONS:
            assert not inspect.signature(fn).parameters, name
        else:
            assert fn.cache_info().maxsize is not None, name
    # HSequence keeps no h table of its own: h reads these memos.
    for hseq in (narayana_hsequence(), catalan_hsequence()):
        assert hseq._h_fn.cache_info().maxsize is not None
    assert narayana_hsequence().h(7) is narayana(7)


def readme_memo_table() -> tuple[list[list[str]], str]:
    """The rows of README's memo table, as cells, and the text below it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Per-n memos\n", 1)[1].split("\n### ", 1)[0]
    table, below = section.split("\n\n", 2)[1:]
    header, _, *rows = table.splitlines()
    columns = header.strip("| ").split(" | ")
    assert columns == ["memo", "holds", "bound", "largest entry at the caps", "bound in bytes"]
    cells = [row.strip("| ").split(" | ") for row in rows]
    for row in cells:
        assert len(row) == len(columns) and all(row), row
    return cells, below


UNITS = {"B": 1, "KiB": 1 << 10, "MiB": 1 << 20}


def byte_figures(text: str) -> list[float]:
    """Every size such as "3.5 MiB" or "104 B" in the text, in bytes."""
    return [float(x) * UNITS[unit] for x, unit in re.findall(r"([\d.]+) (B|KiB|MiB)\b", text)]


def test_readme_lists_every_memo_with_its_bound():
    rows, below = readme_memo_table()
    listed = {}
    for cells in rows:
        for name in re.findall(r"`([\w.]+)`", cells[0]):
            listed[f"narayana_lab.{name}"] = int(cells[2].split()[0])
    memos = package_memos()
    bounded = {name: fn.cache_info().maxsize for name, fn in memos.items()
               if fn.__name__ not in SINGLETONS}
    assert listed == bounded
    assert len(listed) == 8
    for name in SINGLETONS:
        assert f"`{name}()`" in below, name
    # The bound-in-bytes column adds up to the total stated below the table.
    total = sum(sum(byte_figures(cells[4])) for cells in rows)
    stated = re.search(r"They add up to about (\d+) MiB", below.replace("\n", " "))
    assert stated and abs(total / UNITS["MiB"] - int(stated[1])) < 0.5, total / UNITS["MiB"]


# Cap-level queries beside the two that README names as dsl._value's largest.
_A = "[30 - 30*q + 30*Q - 30*q2 + 30*Q2]"
_B = "[30 + 30*q + 30*Q + 30*q2 + 30*Q2]"
_C = "[30*q - 30 - 30*Q + 30*q2 - 30*Q2]"
CAP_QUERIES = (
    f"e30{_A}", f"e30{_B}", f"h30{_B}", f"h30{_C}", f"e30{_C}", f"p30{_A}", "P{30,30}",
    f"s{{10,5,5,5,5}}{_A}", f"s{{8,7,7,4,4}}{_A}", f"s{{6,5,5,5,5,3,1}}{_B}",
)


def test_value_memo_entries_keep_at_most_the_readme_figure():
    # README's measure: the bytes that one new entry (value and text) leaves
    # allocated, read by tracemalloc after one cap-level query has filled the
    # shared table of monomial names.
    cells = next(row for row in readme_memo_table()[0] if row[0] == "`dsl._value`")
    figure = byte_figures(cells[3])[0]
    named = [text for text in re.findall(r"`([^`]+)`", cells[3]) if "[" in text]
    assert len(named) == 2, cells[3]
    _value.cache_clear()
    str(eval_text("h30[29 + 30*q + 30*Q + 30*q2 + 30*Q2]"))
    tracemalloc.start()
    try:
        for size, text in enumerate(named + list(CAP_QUERIES), start=2):
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            str(eval_text(text))
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
            assert _value.cache_info().currsize == size, text
            assert kept <= figure, (text, kept, figure)
    finally:
        tracemalloc.stop()


def second_recurrence(n: int) -> PolyQQ:
    # independent route, valid from n = 3
    acc = (Q + 1) * narayana(n - 1)
    for i in range(1, n - 1):
        acc = acc + Q * narayana(i) * narayana(n - i - 1)
    return acc


def test_both_recurrences_agree():
    for n in range(3, 31):
        assert narayana(n) == second_recurrence(n), n


def test_palindromic_coefficients():
    for n in range(1, 31):
        coeffs = narayana(n).q_coefficients()
        assert coeffs == coeffs[::-1], n
        assert coeffs[0] == 1 and coeffs[-1] == 1, n
        assert len(coeffs) == max(n, 1), n


def test_generating_function_quadratic():
    order = 20
    c = TruncSeries([narayana(k) for k in range(order + 1)], order=order)
    c2 = c * c
    zero = PolyQQ.zero()
    lhs = TruncSeries([zero] + [x * Q for x in c2.coefficients()], order=order)
    lhs = lhs + TruncSeries([zero] + [x * (ONE - Q) for x in c.coefficients()], order=order)
    lhs = lhs - c
    residual = TruncSeries([lhs.coefficient(0) + ONE] + list(lhs.coefficients()[1:]), order=order)
    assert residual.is_zero()


def test_catalan_and_schroeder_values():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    assert [schroeder("small", n) for n in range(6)] == [1, 1, 3, 11, 45, 197]
    assert [schroeder("large", n) for n in range(6)] == [1, 2, 6, 22, 90, 394]
    # The large number is q*C_n at q = 2, taken as 2*C_n(2).
    assert all(schroeder("large", n) == large_narayana(n).eval(at_q=2) for n in range(31))
    with pytest.raises(ValueError):
        schroeder("medium", 3)


def test_large_narayana():
    assert large_narayana(0) == ONE
    for n in range(1, 8):
        assert large_narayana(n) == Q * narayana(n)


def test_closed_form_examples():
    assert narayana_closed(2, "eqde") == Q**2 + Q
    assert narayana_closed(1, "eqci") == ONE


def test_closed_forms_agree_with_recurrence():
    for variant in CLOSED_FORM_VARIANTS:
        for n in range(1, 13):
            got = narayana_closed(n, variant)
            want = large_narayana(n) if variant == "eqde" else narayana(n)
            assert got == want, (variant, n)
    with pytest.raises(ValueError):
        narayana_closed(3, "nope")
    with pytest.raises(ValueError):
        narayana_closed(0, "eqde")


def test_master_formula_examples():
    assert master_formula(1, -1, 2) == Q + 1
    assert master_formula(-1, -1, 5) == PolyQQ.from_q_coefficients([1, 10, 20, 10, 1])
    assert master_formula(1, 1, 1) == ONE
    with pytest.raises(ValueError):
        master_formula(2, 1, 3)


def test_master_formula_all_sign_pairs():
    for eta in (1, -1):
        for zeta in (1, -1):
            for r in range(1, 13):
                assert master_formula(eta, zeta, r) == narayana(r), (eta, zeta, r)


GOLDEN_POWER_SUMS = {
    1: [1],
    2: [1, 2],
    3: [1, 6, 3],
    4: [1, 12, 18, 4],
    5: [1, 20, 60, 40, 5],
}


def test_power_sum_goldens():
    for r, coeffs in GOLDEN_POWER_SUMS.items():
        assert narayana_power_sum(r) == PolyQQ.from_q_coefficients(coeffs), r


def test_power_sum_newton_and_refinement():
    seq = narayana_hsequence()
    for r in range(1, 13):
        assert narayana_power_sum(r) == seq.p(r), r
    for r in range(1, 26):
        total = sum(gen_binomial(r - 1, k) * gen_binomial(r, k) for k in range(r))
        assert total == gen_binomial(2 * r - 1, r - 1), r
    assert narayana_power_sum(3).eval(at_q=1) == 10


def test_catalan_alphabet_power_sums():
    seq = catalan_hsequence()
    for r in range(1, 13):
        assert seq.p(r) == gen_binomial(2 * r - 1, r - 1), r


def test_alphabet_power_sums_stop_at_the_cap():
    # The two alphabets are process-global singletons: p refuses an index
    # above POWER_SUM_CAP before its table grows, and the cap is the largest
    # index that thm8 and pa1-central pass at verify's own cap.
    assert POWER_SUM_CAP == VERIFY_MAX_N_CAP
    for seq in (narayana_hsequence(), catalan_hsequence()):
        size = len(seq._p_cache)
        for n in (POWER_SUM_CAP + 1, 90, 10**9):
            with pytest.raises(ValueError, match=f"1..{POWER_SUM_CAP}"):
                seq.p(n)
            assert len(seq._p_cache) == size
    assert narayana_hsequence().p(POWER_SUM_CAP) == narayana_power_sum(POWER_SUM_CAP)
    assert catalan_hsequence().p(POWER_SUM_CAP) == gen_binomial(2 * POWER_SUM_CAP - 1, POWER_SUM_CAP - 1)
    for id in ("thm8", "pa1-central"):
        report = run_suite(ids=[id], max_n=VERIFY_MAX_N_CAP)
        assert report.counts == {"pass": VERIFY_MAX_N_CAP, "fail": 0}, id
    # A sequence built by a caller keeps its table in the caller's object,
    # and has no cap unless given one.
    ones = HSequence(lambda n: PolyQQ.one())
    assert ones.p(POWER_SUM_CAP + 5) == PolyQQ.one()
    with pytest.raises(ValueError, match=r"1\.\.3"):
        HSequence(lambda n: PolyQQ.one(), cap=3).p(4)


def test_narayana_schur_rectangles():
    for k in range(1, 7):
        want = (-Q) ** (k * (k - 1) // 2)
        assert narayana_schur(Partition((k,) * k)) == want, k
        km1 = Partition(tuple(x for x in (k - 1,) * k if x > 0))
        assert narayana_schur(km1) == want, k


def test_narayana_schur_caps():
    with pytest.raises(ValueError):
        narayana_schur(Partition((1,) * 15))
    with pytest.raises(ValueError):
        narayana_schur(Partition((20, 1)))


def sympy_narayana_schur(mu: Partition) -> PolyQQ:
    """det[C_(mu_i-i+j)(q)] of the narayana(m) values by DomainMatrix.det over ZZ[q]; 1 at mu = ()."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring, q = sympy.polys.rings.ring("q", sympy.ZZ)
    l = mu.length
    if not l:
        return ONE
    rows = [
        [
            sum((q**a * c for (a, _), c in narayana(m).items()), ring.zero) if m >= 0 else ring.zero
            for m in (mu[i] - i + j for j in range(l))
        ]
        for i in range(l)
    ]
    det = DomainMatrix(rows, (l, l), ring.to_domain()).det()
    return PolyQQ({(a, 0): int(c) for (a,), c in det.terms()})


def test_narayana_schur_against_sympy():
    # Every shape of weight <= 10 (each within both caps), and the corners
    # of the caps: the tallest rectangle at the largest h-index, the longest
    # column and the longest row.
    shapes = [mu for size in range(11) for mu in enumerate_partitions(size)]
    shapes += [Partition((7,) * 14), Partition((1,) * 14), Partition((20,))]
    for mu in shapes:
        assert narayana_schur(mu) == sympy_narayana_schur(mu), mu
    # A one-row shape (m) is C_m(q), of q-degree m - 1: the top of the
    # determinant's |mu| slots.
    assert narayana_schur(Partition((20,))).max_deg_q() == 19


def test_schur_sign_pattern_observation():
    # every small Schur value is plus-or-minus a polynomial with nonnegative
    # integer coefficients; recorded as data, not a theorem
    for w in range(1, 9):
        for mu in enumerate_partitions(w):
            coeffs = narayana_schur(mu).q_coefficients() or [0]
            nonneg = all(c >= 0 for c in coeffs)
            nonpos = all(c <= 0 for c in coeffs)
            assert nonneg or nonpos, mu


def test_hall_littlewood_connection():
    for n in range(1, 21):
        lhs = narayana(n).subst_q(ONE - Q) * (n + 1)
        assert lhs == hall_littlewood_principal(n, n + 1), n


def test_jacobi11():
    assert jacobi11(0) == ONE
    assert jacobi11(1) == 2 * Q
    assert jacobi11(2) == Q**2 * Fraction(15, 4) - Fraction(3, 4)


def test_type_b_w():
    assert type_b_w(2) == Q**2 + 4 * Q + 1
    assert type_b_w(0) == ONE
    assert type_b_w(3).eval(at_q=1) == 20
    for r in range(9):
        assert type_b_w(r).eval(at_q=1) == gen_binomial(2 * r, r), r
