import json

import pytest

from narayana_lab.identities import (
    REGISTRY,
    DEFAULT_SEED,
    ScheduleError,
    SUITE_VERSION,
    UnknownIdentityError,
    VERIFY_MAX_N_CAP,
    check_identity,
    registered_ids,
    run_suite,
)

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
    assert json.dumps(a.to_document(), sort_keys=True) == json.dumps(
        b.to_document(), sort_keys=True
    )
    c = run_suite(ids=["lemma2", "lemma3-a", "rot"], max_n=5, seed=43)
    assert json.dumps(a.to_document(), sort_keys=True) != json.dumps(
        c.to_document(), sort_keys=True
    )


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
    doc = report.to_document()
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
