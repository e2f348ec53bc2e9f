"""The suite report as a JSON document, for ``json.dumps`` to write.

``SuiteReport.to_json`` writes the report text itself; the tests hold it to
``json.dumps(oracle_document(report), indent=2, sort_keys=True)``.
"""

from __future__ import annotations

from fractions import Fraction


def param_json(v: int | Fraction):
    """A parameter as the report records it: an int, or a Fraction as "a/b"."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def oracle_document(report) -> dict:
    results = []
    for case in report.results:
        entry: dict = {
            "id": case.id,
            "params": {k: param_json(v) for k, v in sorted(case.params.items())},
            "status": case.status,
        }
        if not case.passed:
            entry["lhs"] = str(case.lhs)
            entry["rhs"] = str(case.rhs)
        results.append(entry)
    return {
        "suite_version": report.suite_version,
        "seed": report.seed,
        "max_n": report.max_n,
        "results": results,
        "counts": report.counts,
    }
