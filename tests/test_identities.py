import dataclasses
import json
import random
from fractions import Fraction

import pytest

from narayana_lab import identities, sequences
from narayana_lab.identities import (
    REGISTRY,
    DEFAULT_SEED,
    ScheduleError,
    SUITE_VERSION,
    IdentityCase,
    SuiteReport,
    UnknownIdentityError,
    VERIFY_MAX_N_CAP,
    check_identity,
    registered_ids,
    run_suite,
)
from narayana_lab.partitions import enumerate_partitions, z_of
from narayana_lab.poly import PolyQQ, _horner as horner
from narayana_lab.rationals import gen_binomial
from narayana_lab.sequences import catalan, large_narayana, narayana, schroeder

from report_oracle import oracle_document

Q = PolyQQ.var_q()
ONE = PolyQQ.one()
OMQ = ONE - Q
QM1 = Q - ONE

EXPECTED_IDS = {
    "gf-quadratic", "vanishing-sum", "partial-sum", "interesting",
    "chu-vandermonde-variant", "catalan-ratio", "touchard", "thm1", "thm2",
    "pieri-hook", "new-formula", "odd-parts-schroeder", "lagrange-thm2",
    "lemma2", "rot", "lemma3-a", "lemma3-b", "rothe", "koshy", "thm3",
    "thm3-schroeder", "lemma4", "jonah", "thm4", "jonah-alt", "thm4-schroeder",
    "thm5", "thm5-schroeder", "thm6", "thm6-spec-q1", "thm6-spec-q2", "thm7",
    "cf-alternating", "thm8", "pa1-central", "newton-catalan", "jacobi-bridge",
    "hl-jacobi", "jacobi-binomial", "typeB-central", "strinc", "schur-table-6",
}

FAST_IDS = [
    "gf-quadratic", "vanishing-sum", "catalan-ratio", "touchard", "thm2",
    "new-formula", "odd-parts-schroeder", "lagrange-thm2", "lemma2", "rot",
    "lemma3-a", "lemma3-b", "rothe", "thm6", "thm7", "cf-alternating", "thm8",
    "pa1-central", "newton-catalan", "jacobi-bridge", "hl-jacobi",
    "jacobi-binomial", "typeB-central", "strinc", "schur-table-6",
]


def test_registry_is_complete():
    assert set(registered_ids()) == EXPECTED_IDS
    for ident in REGISTRY.values():
        assert ident.description


def test_contract_examples():
    case = check_identity("koshy", {"n": 4})
    assert case.passed and case.lhs == 14
    case = check_identity("jonah", {"n": 5, "r": 2})
    assert case.passed and case.lhs == 15
    case = check_identity("touchard", {"r": 6})
    assert case.passed and case.lhs == 132


def test_unknown_id():
    with pytest.raises(UnknownIdentityError):
        check_identity("no-such", {"n": 1})
    with pytest.raises(UnknownIdentityError):
        run_suite(ids=["no-such"], max_n=4)


def test_params_out_of_schedule():
    with pytest.raises(ScheduleError):
        check_identity("koshy", {"n": 0})
    with pytest.raises(ScheduleError):
        check_identity("thm7", {"k": 9, "shape": 0})
    with pytest.raises(ScheduleError):
        check_identity("koshy", {})
    with pytest.raises(ScheduleError):
        check_identity("strinc", {"n": 11})
    with pytest.raises(ScheduleError):
        check_identity("lagrange-thm2", {"r": 2, "form": 0, "a": 99})
    # A parameter that only the evaluator reads, and a pole of a weight.
    with pytest.raises(ScheduleError):
        check_identity("rothe", {"n": 2})
    with pytest.raises(ScheduleError):
        check_identity("lemma3-a", {"n": 2})
    with pytest.raises(ScheduleError):
        check_identity("lemma3-b", {"n": 2, "x1": 1, "x2": 2, "y1": 0})
    with pytest.raises(ScheduleError):
        check_identity("rot", {"w": 1, "i": 0, "z": 0})
    # Every parameter is an int, but rot's z, which may be a Fraction.
    with pytest.raises(ScheduleError):
        check_identity("koshy", {"n": Fraction(5, 2)})
    with pytest.raises(ScheduleError):
        check_identity("rothe", {"n": 2, "x": Fraction(7, 2)})
    with pytest.raises(ScheduleError):
        check_identity("thm4", {"n": "3", "r": 2})
    with pytest.raises(ScheduleError):
        check_identity("rot", {"w": Fraction(1), "i": 0, "z": 1})
    assert check_identity("rot", {"w": 2, "i": 0, "z": Fraction(1, 2)}).passed
    # A name that the identity does not declare, refused before any work.
    with pytest.raises(ScheduleError, match="unknown parameter 'junk'"):
        check_identity("thm6", {"n": 3, "junk": 10**9})
    with pytest.raises(ScheduleError, match="unknown parameter 'a'"):
        check_identity("koshy", {"n": 4, "a": 0})
    with pytest.raises(ScheduleError, match="unknown parameter 'x13'"):
        check_identity("lemma3-a", {"n": 1, "x1": 1, "y1": 0, "x13": 0})
    # A declared name that this case does not read.
    with pytest.raises(ScheduleError, match="no other"):
        check_identity("lemma3-b", {"n": 1, "x1": 1, "y1": 0, "x2": 0})
    with pytest.raises(ScheduleError, match="no alphabet index"):
        check_identity("lagrange-thm2", {"r": 2, "form": 1, "a": 0})
    # Past the largest value a schedule reaches at VERIFY_MAX_N_CAP, refused
    # before any work (thm6 at n = 120 takes seconds).
    with pytest.raises(ScheduleError, match="above"):
        check_identity("thm6", {"n": 120})
    with pytest.raises(ScheduleError, match="above"):
        check_identity("thm4", {"n": 31, "r": 2})


def test_schedules_at_the_cap_stay_inside_their_domains():
    # No case that `verify` schedules is refused by check_identity's bounds.
    for id, ident in REGISTRY.items():
        for seed in (DEFAULT_SEED, 2, 3):
            for params in ident.schedule(VERIFY_MAX_N_CAP, random.Random(f"{seed}:{id}")):
                for name, (lo, hi) in ident.domain.items():
                    value = params[name]
                    assert (lo is None or lo <= value) and value <= hi, (id, params, name)


# The identities whose schedule is a box of ranges and carries its own domain.
BOX_IDS = sorted(id for id, ident in REGISTRY.items() if hasattr(ident.schedule, "domain"))


@pytest.mark.parametrize("id", BOX_IDS)
def test_box_domains_end_where_their_schedules_end(id, monkeypatch):
    # The domain is the box the schedule runs at VERIFY_MAX_N_CAP: one past
    # either end of an axis, with every other parameter in range, is refused
    # before any work.
    ident = REGISTRY[id]
    cases = ident.schedule(VERIFY_MAX_N_CAP, random.Random(0))
    box = {name: (min(c[name] for c in cases), max(c[name] for c in cases)) for name in cases[0]}
    assert list(box.items()) == list(ident.domain.items())

    def evaluate(params):
        raise AssertionError(f"{id} evaluated {params}")

    monkeypatch.setitem(REGISTRY, id, dataclasses.replace(ident, evaluate=evaluate))
    inside = {name: lo for name, (lo, _) in box.items()}
    for name, (lo, hi) in box.items():
        with pytest.raises(ScheduleError, match=f"parameter {name}={lo - 1} below {lo}$"):
            check_identity(id, {**inside, name: lo - 1})
        with pytest.raises(ScheduleError, match=f"parameter {name}={hi + 1} above {hi}$"):
            check_identity(id, {**inside, name: hi + 1})


def test_report_order_needs_no_fraction_key():
    # The sort key compares ints and rot's Fraction z as they are; the key that
    # wrapped every value in a Fraction gives the same order.
    results = list(run_suite(max_n=12).results)
    assert any(type(v) is Fraction for case in results for v in case.params.values())
    random.Random(5).shuffle(results)

    def fraction_key(case):
        return case.id, tuple((k, Fraction(v)) for k, v in sorted(case.params.items()))

    def key(case):
        return case.id, identities._param_sort_key(case.params)

    assert [id(c) for c in sorted(results, key=fraction_key)] == [id(c) for c in sorted(results, key=key)]


def test_max_n_floor():
    with pytest.raises(ValueError):
        run_suite(max_n=2)


def test_max_n_cap_refuses_before_any_case(monkeypatch):
    def no_case(*args):
        raise AssertionError("a case ran past the cap")

    monkeypatch.setattr("narayana_lab.identities.check_identity", no_case)
    with pytest.raises(ValueError, match=str(VERIFY_MAX_N_CAP)):
        run_suite(max_n=VERIFY_MAX_N_CAP + 1)


def test_fast_subset_passes():
    report = run_suite(ids=FAST_IDS, max_n=6)
    assert report.ok
    assert report.counts["fail"] == 0
    assert {case.id for case in report.results} == set(FAST_IDS)


def test_thm2_schedule_scales_with_max_n():
    report = run_suite(ids=["thm2"], max_n=20)
    assert report.ok and len(report.results) == 20


def test_schur_table_has_eleven_cases():
    report = run_suite(ids=["schur-table-6"], max_n=6)
    assert report.ok and len(report.results) == 11


def test_reports_reproducible():
    a = run_suite(ids=["lemma2", "lemma3-a", "rot"], max_n=5, seed=42)
    b = run_suite(ids=["lemma2", "lemma3-a", "rot"], max_n=5, seed=42)
    assert a.to_json() == b.to_json()
    assert json.loads(a.to_json()) == json.loads(b.to_json())
    c = run_suite(ids=["lemma2", "lemma3-a", "rot"], max_n=5, seed=43)
    assert json.loads(a.to_json()) != json.loads(c.to_json())


def test_schedule_independent_of_id_subset():
    # the same id draws the same cases whether run alone or with others
    alone = run_suite(ids=["lemma4"], max_n=5, seed=7)
    together = run_suite(ids=["lemma4", "koshy"], max_n=5, seed=7)
    assert [c.params for c in alone.results] == [
        c.params for c in together.results if c.id == "lemma4"
    ]


def test_results_ordered():
    report = run_suite(ids=["thm7", "catalan-ratio"], max_n=5)
    keys = [(c.id, sorted(c.params.items())) for c in report.results]
    assert keys == sorted(keys)


def test_report_document_shape():
    report = run_suite(ids=["rot"], max_n=4, seed=9)
    doc = json.loads(report.to_json())
    assert doc["suite_version"] == SUITE_VERSION
    assert doc["seed"] == 9
    assert doc["max_n"] == 4
    assert doc["counts"]["pass"] == len(doc["results"])
    assert doc["counts"]["fail"] == 0
    for entry in doc["results"]:
        assert set(entry) == {"id", "params", "status"}
        assert entry["status"] == "pass"
        for value in entry["params"].values():
            assert isinstance(value, (int, str))


def test_failure_entries_carry_both_sides():
    # check a disagreeing pair directly through the case type
    from narayana_lab.identities import IdentityCase
    from narayana_lab.poly import PolyQQ

    case = IdentityCase("demo", {"n": 1}, PolyQQ.const(1), PolyQQ.const(2))
    assert case.status == "fail"


def _oracle_text(report) -> str:
    return json.dumps(oracle_document(report), indent=2, sort_keys=True)


def test_report_text_is_the_indented_encoders():
    report = run_suite(max_n=12)
    assert report.to_json() == _oracle_text(report)
    half = Fraction(1, 2)
    failing = IdentityCase("koshy", {"n": 3, "r": half}, ONE * Fraction(-7, 3), Q * half + 2)
    mixed = IdentityCase("rot", {"z": 0, "a": -4, "B": Fraction(-5, 3), "n": 12}, Q, Q)
    bare = IdentityCase("schur-table-6", {}, ONE, ONE)
    escaped = IdentityCase('say "\\x"\t\u00e9\u2603\U0001d11e', {"\u00e9\"": 1}, Q, ONE)
    for results in ((failing,), (mixed, bare), (escaped, failing, bare), ()):
        for seed in (DEFAULT_SEED, 0, -17):
            hand = SuiteReport(SUITE_VERSION, seed, 3, results)
            assert hand.to_json() == _oracle_text(hand), (results, seed)
    assert json.loads(SuiteReport(SUITE_VERSION, -17, 3, (escaped,)).to_json())["results"] == [
        {"id": escaped.id, "lhs": "q", "params": {"\u00e9\"": 1}, "rhs": "1", "status": "fail"}
    ]


def test_each_case_is_compared_once(monkeypatch):
    from dataclasses import fields

    from narayana_lab.identities import IdentityCase

    report = run_suite(ids=["catalan-ratio", "koshy", "thm7"], max_n=6)
    compared = []
    eq = PolyQQ.__eq__

    def counted(self, other):
        compared.append(self)
        return eq(self, other)

    monkeypatch.setattr(PolyQQ, "__eq__", counted)
    document = json.loads(report.to_json())
    assert report.ok and report.counts == document["counts"]
    assert [c.status for c in report.results] == ["pass"] * len(report.results)
    # Each case compared its sides when it was made; the report only reads that.
    assert not compared
    case = report.results[0]
    again = IdentityCase(case.id, dict(case.params), case.lhs, case.rhs)
    assert len(compared) == 1 and again.passed and again.status == "pass"
    # The case keeps its four fields, and equality over them.
    assert [f.name for f in fields(IdentityCase)] == ["id", "params", "lhs", "rhs"]
    assert again == case


def test_default_seed_recorded():
    report = run_suite(ids=["catalan-ratio"], max_n=3)
    assert report.seed == DEFAULT_SEED


def test_deep_schedules_reach_twenty():
    for id in ("thm3", "thm4", "thm5", "thm4-schroeder", "thm5-schroeder", "jonah"):
        import random

        cases = REGISTRY[id].schedule(12, random.Random(0))
        assert max(p["n"] for p in cases) == 20, id
    import random

    thm6 = REGISTRY["thm6"].schedule(12, random.Random(0))
    assert max(p["n"] for p in thm6) == 12


def test_new_formula_equals_the_partition_sum():
    # The literal sum over partitions mu of r of
    # (r+1)^(l(mu)-1)/z_mu * prod_i (1-(1-q)^i)^m_i, which `new-formula`
    # evaluates by Newton's recurrence instead.
    for r in range(1, 13):
        total = PolyQQ.zero()
        for mu in enumerate_partitions(r):
            prod = ONE
            for i, m in mu.multiplicities().items():
                prod = prod * (ONE - OMQ**i) ** m
            total = total + prod * Fraction((r + 1) ** (mu.length - 1), z_of(mu))
        assert check_identity("new-formula", {"r": r}).rhs == total, r


def test_odd_parts_schroeder_equals_the_partition_sum():
    # The literal sum over partitions mu of r into odd parts of
    # (2r+2)^(l(mu)-1)/z_mu, which `odd-parts-schroeder` evaluates by Newton's
    # recurrence instead.
    for r in range(1, VERIFY_MAX_N_CAP + 1):
        total = sum(
            Fraction((2 * r + 2) ** (mu.length - 1), z_of(mu))
            for mu in enumerate_partitions(r)
            if all(x % 2 == 1 for x in mu)
        )
        case = check_identity("odd-parts-schroeder", {"r": r})
        assert case.lhs == PolyQQ.const(total) and case.passed, r


def _thm4_sides_by_entry(n, r):
    # The lhs lists and the rhs list of _thm4_sides, one gen_binomial per entry.
    lhs = [[1]] + [
        [gen_binomial(k - 1, m) * gen_binomial(n - 2 * r + 2 * k - m, k) for m in range(k)]
        for k in range(1, r)
    ]
    return lhs, [gen_binomial(r - 1, m) * gen_binomial(n - m, r - 1) for m in range(r)]


def _thm5_terms_by_entry(n, r):
    return [
        [gen_binomial(n - 2 * k - m, r - k - m) * gen_binomial(k + m, m) for m in range(r - k + 1)]
        for k in range(r + 1)
    ]


def _thm6_coeff(n, k, i, j):
    # t_ij of T_k(x, y), thm6's weight of q*C_(n-k), one entry at a time.
    return gen_binomial(n - k + i, i) * gen_binomial(n + 1, j) * gen_binomial(2 * k - i - j - 1, k - i - j)


def test_coefficient_lists_equal_their_per_entry_binomials():
    # The ratio-step lists of thm4 and thm5 against one gen_binomial per
    # entry on the whole grid verify can reach; each row stands in as its index.
    def index(j):
        return j

    fallbacks = 0
    for n in range(1, VERIFY_MAX_N_CAP + 1):
        for r in range(1, VERIFY_MAX_N_CAP + 1):
            lhs, rhs = identities._thm4_sides(n, r, index, index)
            assert [j for j, _ in lhs] == list(range(r, 0, -1)), (n, r)
            assert ([c for _, c in lhs], rhs) == _thm4_sides_by_entry(n, r), (n, r)
            terms = identities._thm5_terms(n, r, index)
            assert [j for j, _ in terms] == list(range(r + 1)), (n, r)
            assert [c for _, c in terms] == _thm5_terms_by_entry(n, r), (n, r)
            # A step whose top is 0 falls back to a whole binomial: the tops
            # after entry m-1 are n-2r+2k-m+1 and n-m+1 (thm4) and n-2k-m+1 (thm5).
            fallbacks += sum(n - 2 * r + 2 * k - m + 1 == 0 for k in range(1, r) for m in range(1, k))
            fallbacks += sum(n - m + 1 == 0 for m in range(1, r))
            fallbacks += sum(n - 2 * k - m + 1 == 0 for k in range(r + 1) for m in range(1, r - k + 1))
    assert fallbacks > 0


def test_thm6_table_equals_its_per_entry_binomials():
    # The factored table of each n, t_ij = a_i * b_j * g_(i+j), entry by entry.
    for n in range(1, VERIFY_MAX_N_CAP + 1):
        b, factors = identities._thm6_table(n)
        assert len(b) == len(factors) == n + 1, n
        for k, (a, g) in enumerate(factors):
            got = [[a[i] * b[j] * g[i + j] for j in range(k + 1 - i)] for i in range(k + 1)]
            want = [[_thm6_coeff(n, k, i, j) for j in range(k + 1 - i)] for i in range(k + 1)]
            assert got == want, (n, k)


def test_thm6_builds_one_table_per_n():
    identities._thm6_table.cache_clear()
    report = run_suite(ids=["thm6", "thm6-spec-q1", "thm6-spec-q2"], max_n=12)
    assert report.ok and len(report.results) == 12 * 5
    info = identities._thm6_table.cache_info()
    assert info.misses == 12 and info.hits == 12 * 5 - 12


def test_lemma3_refuses_values_outside_the_schedule_before_any_work():
    # With 20,000-digit x_i and y_i the 2^12 subset products did not finish
    # in 30 s.
    huge = 10**20000
    for id in ("lemma3-a", "lemma3-b"):
        params = {"n": 12, **{f"x{i}": huge for i in range(1, 13)}, **{f"y{i}": -huge for i in range(1, 13)}}
        with pytest.raises(ScheduleError, match="x_i must lie in -4..6"):
            check_identity(id, params)
        ok = {"n": 3, "x1": 6, "x2": -4, "x3": 0, "y1": 5, "y2": -5, "y3": 0}
        assert check_identity(id, ok).passed
        for name, value in (("x1", 7), ("x2", -5), ("y1", 6), ("y3", -6)):
            with pytest.raises(ScheduleError):
                check_identity(id, {**ok, name: value})


def _inner(coeffs, base):
    return PolyQQ.from_q_coefficients(coeffs).subst_q(base)


def _thm3_by_terms(n):
    rhs = OMQ ** (n - 1)
    for k in range(1, n):
        terms = [(-1) ** m * gen_binomial(k - 1, m) * gen_binomial(n - m, k) for m in range(k)]
        rhs = rhs + narayana(n - k) * _inner(terms[::-1], OMQ) * Q
    return rhs


def _thm4_by_terms(n, r):
    lhs = narayana(r)
    for k in range(1, r):
        coeffs = [gen_binomial(k - 1, m) * gen_binomial(n - 2 * r + 2 * k - m, k) for m in range(k)]
        lhs = lhs + narayana(r - k) * _inner(coeffs, QM1) * Q
    return lhs


def _thm5_by_terms(n, r):
    lhs = PolyQQ.zero()
    for k in range(r + 1):
        coeffs = [gen_binomial(n - 2 * k - m, r - k - m) * gen_binomial(k + m, m) for m in range(r - k + 1)]
        lhs = lhs + large_narayana(k) * _inner(coeffs, OMQ)
    return lhs


def _thm6_spec_q1_by_terms(n, display):
    rhs = PolyQQ.zero()
    for k in range(n + 1):
        if display == 1:
            coeffs = [gen_binomial(n + 1, j) * gen_binomial(2 * k - j - 1, k - j) for j in range(k + 1)]
            rhs = rhs + _inner(coeffs, QM1) * catalan(n - k)
        else:
            coeffs = [gen_binomial(n - k + i, i) * gen_binomial(2 * k - i - 1, k - i) for i in range(k + 1)]
            rhs = rhs + large_narayana(n - k) * _inner(coeffs, OMQ)
    return rhs


def _transition_sum(n, k, base_i, base_j):
    # T_k(base_i, base_j), substituted term by term.
    return PolyQQ(
        {
            (i, j): gen_binomial(n - k + i, i)
            * gen_binomial(n + 1, j)
            * gen_binomial(2 * k - i - j - 1, k - i - j)
            for i in range(k + 1)
            for j in range(k + 1 - i)
        }
    ).subst_q(base_i, q2=base_j)


def _thm6_by_terms(n):
    rhs = PolyQQ.zero()
    for k in range(n + 1):
        rhs = rhs + large_narayana(n - k) * _transition_sum(n, k, OMQ, PolyQQ.var_q2() - 1)
    return rhs


def _thm6_spec_q2_by_terms(n, display):
    rhs = PolyQQ.zero()
    for k in range(n + 1):
        if display == 1:
            rhs = rhs + _transition_sum(n, k, -1, QM1) * schroeder("large", n - k)
        else:
            rhs = rhs + large_narayana(n - k) * _transition_sum(n, k, OMQ, 1)
    return rhs


def _thm3_schroeder_by_terms(n):
    rhs = (-1) ** (n - 1)
    for k in range(1, n):
        inner = sum(gen_binomial(k - 1, m) * gen_binomial(n - m, k) for m in range(k))
        rhs += 2 * (-1) ** (k - 1) * schroeder("small", n - k) * inner
    return rhs


def _thm4_schroeder_by_terms(n, r):
    lhs = schroeder("small", r)
    for k in range(1, r):
        inner = sum(gen_binomial(k - 1, m) * gen_binomial(n - 2 * r + 2 * k - m, k) for m in range(k))
        lhs += 2 * schroeder("small", r - k) * inner
    rhs = sum(gen_binomial(r - 1, m) * gen_binomial(n - m, r - 1) for m in range(r))
    return lhs, rhs


def _thm5_schroeder_by_terms(n, r):
    lhs = 0
    for k in range(r + 1):
        inner = sum(
            (-1) ** m * gen_binomial(n - 2 * k - m, r - k - m) * gen_binomial(k + m, m)
            for m in range(r - k + 1)
        )
        lhs += schroeder("large", k) * inner
    return lhs


def test_convolutions_equal_their_per_term_products():
    # One substitution per case, or one integer sum at q = 2, gives what these
    # loops build term by term.
    for n in range(1, 9):
        assert check_identity("thm3", {"n": n}).rhs == _thm3_by_terms(n), n
        assert check_identity("thm3-schroeder", {"n": n}).rhs == _thm3_schroeder_by_terms(n), n
        assert check_identity("thm6", {"n": n}).rhs == _thm6_by_terms(n), n
        for display in (1, 2):
            case = check_identity("thm6-spec-q1", {"n": n, "display": display})
            assert case.rhs == _thm6_spec_q1_by_terms(n, display), (n, display)
            case = check_identity("thm6-spec-q2", {"n": n, "display": display})
            assert case.rhs == _thm6_spec_q2_by_terms(n, display), (n, display)
        for r in range(1, 9):
            assert check_identity("thm4", {"n": n, "r": r}).lhs == _thm4_by_terms(n, r), (n, r)
            assert check_identity("thm5", {"n": n, "r": r}).lhs == _thm5_by_terms(n, r), (n, r)
            case = check_identity("thm4-schroeder", {"n": n, "r": r})
            assert (case.lhs, case.rhs) == _thm4_schroeder_by_terms(n, r), (n, r)
            case = check_identity("thm5-schroeder", {"n": n, "r": r})
            assert case.lhs == _thm5_schroeder_by_terms(n, r), (n, r)


sum_powers = identities._sum_powers
subst = PolyQQ.subst_q


def test_new_formula_and_convolutions_substitute_once(monkeypatch):
    def refuse(*args):
        raise AssertionError("a case enumerated partitions")

    # new-formula and odd-parts-schroeder sum over partitions by Newton's
    # identity: no enumeration, and no centralizer size from any module.
    monkeypatch.setattr("narayana_lab.identities.enumerate_partitions", refuse)
    monkeypatch.setattr("narayana_lab.partitions.z_of", refuse)
    assert not hasattr(identities, "z_of")
    # One call of the Horner loop per sum, from _sum_powers or from subst_q
    # of any shape.
    calls = []

    def counting(*args):
        calls.append(args)
        return horner(*args)

    monkeypatch.setattr("narayana_lab.poly._horner", counting)

    # The convolution identities hand their (row, coefficients) pairs to the
    # kernel: no PolyQQ product, power or substitution.
    def no_product(*args):
        raise AssertionError("_sum_powers used PolyQQ arithmetic")

    def guarded(terms, base):
        with monkeypatch.context() as m:
            for name in ("__mul__", "__rmul__", "__pow__", "subst_q"):
                m.setattr(PolyQQ, name, no_product)
            return sum_powers(terms, base)

    monkeypatch.setattr("narayana_lab.identities._sum_powers", guarded)
    for id, params, want in (
        ("new-formula", {"r": 9}, 1),
        ("odd-parts-schroeder", {"r": 9}, 0),
        ("thm3", {"n": 9}, 1),
        ("thm4", {"n": 9, "r": 7}, 2),  # its lhs and its rhs
        ("thm5", {"n": 9, "r": 7}, 1),
        ("thm6-spec-q1", {"n": 9, "display": 1}, 1),
        ("thm6-spec-q1", {"n": 9, "display": 2}, 1),
        ("thm6-spec-q2", {"n": 9, "display": 1}, 1),
        ("thm6-spec-q2", {"n": 9, "display": 2}, 1),
    ):
        calls.clear()
        assert check_identity(id, params).passed
        assert len(calls) == want, (id, params)

    # thm6: one convolution per power of q'-1, then one two-variable
    # substitution (n+2 Horner loops), and no PolyQQ product anywhere in the
    # case.
    substs = []

    def counting_subst(self, x, q2=None):
        substs.append(q2)
        return subst(self, x, q2)

    calls.clear()
    with monkeypatch.context() as m:
        m.setattr(PolyQQ, "subst_q", counting_subst)
        for name in ("__mul__", "__rmul__", "__pow__"):
            m.setattr(PolyQQ, name, no_product)
        assert check_identity("thm6", {"n": 9}).passed
    assert len(calls) == 11
    assert len(substs) == 1 and substs[0] is not None
    # Every subst_q shape takes the same loop, once.
    q2 = PolyQQ.var_q2()
    for x, y in ((OMQ, None), (Q * q2, None), (QM1, Q), (Fraction(1, 2), 3)):
        calls.clear()
        (Q**3 * 2 + Q * 5 + 1 + q2).subst_q(x, q2=y)
        assert len(calls) == 1, (x, y)


def test_convolution_cases_read_int_rows(monkeypatch):
    # The rows and their q = 1, 2 values come from the memoized int rows of
    # sequences: no PolyQQ is evaluated or converted to a list.
    def refuse(*args, **kwargs):
        raise AssertionError("a convolution case evaluated or listed a PolyQQ")

    for fn in (sequences.narayana_row, sequences.narayana, sequences.catalan, sequences._small_schroeder):
        fn.cache_clear()
    monkeypatch.setattr(PolyQQ, "eval", refuse)
    monkeypatch.setattr(PolyQQ, "q_coefficients", refuse)
    for id in ("thm3", "thm3-schroeder", "thm6"):
        assert check_identity(id, {"n": 9}).passed, id
    for id in ("thm4", "thm4-schroeder", "thm5", "thm5-schroeder"):
        assert check_identity(id, {"n": 9, "r": 7}).passed, id
    for id in ("thm6-spec-q1", "thm6-spec-q2"):
        for display in (1, 2):
            assert check_identity(id, {"n": 9, "display": display}).passed, (id, display)


def test_thm6_against_sympy():
    # thm6's rhs against sympy's expansion of sum_k q*C_(n-k)(q)*T_k(1-q, q'-1),
    # with q*C_m from sympy's binomials and t_ij one entry at a time.
    sympy = pytest.importorskip("sympy")
    q, q2 = sympy.symbols("q q2")

    def large(m, x):
        # q*C_m at x, from the Narayana numbers N(m,k) = C(m,k-1)*C(m,k)/m.
        if m == 0:
            return sympy.Integer(1)
        return sum(sympy.binomial(m, k - 1) * sympy.binomial(m, k) / m * x**k for k in range(1, m + 1))

    for n in range(1, 7):
        expected = sum(
            large(n - k, q) * _thm6_coeff(n, k, i, j) * (1 - q) ** i * (q2 - 1) ** j
            for k in range(n + 1)
            for i in range(k + 1)
            for j in range(k + 1 - i)
        )
        case = check_identity("thm6", {"n": n})
        rhs = sum(c * q**a * q2**b for (a, b), c in case.rhs.items())
        assert sympy.expand(rhs - expected) == 0, n
        lhs = sum(c * q**a * q2**b for (a, b), c in case.lhs.items())
        assert sympy.expand(lhs - (n + 1) * large(n, q2)) == 0, n
