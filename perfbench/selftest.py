"""The benchmark's own test: its checker, generator, tracer and metric list.

    python3 perfbench/selftest.py

Run from the root of the repository. It exits 0 when every check holds and
prints the first one that does not otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import pace  # noqa: E402
import queries  # noqa: E402
import tracer  # noqa: E402
from run import END_TO_END  # noqa: E402


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def test_oracle_agrees_and_catches_corruption() -> None:
    from narayana_lab.dsl import eval_text

    specs = queries.generate(3, 2 * len(queries.SLOTS))
    specs += queries.generate(3, len(queries.POOL_SLOTS), queries.POOL)
    for spec in specs:
        text = str(eval_text(queries.render(spec)))
        expect(queries.check(spec, text), f"oracle rejects the package on {queries.render(spec)}")
        expect(not queries.check(spec, text + " + 1"), f"oracle accepts a wrong {queries.render(spec)}")
        expect(not queries.check(spec, "garbage"), "oracle accepts unparsable text")


def test_generator_mix() -> None:
    one = queries.generate(1, 480)
    expect(one == queries.generate(1, 480), "the same seed gives other queries")
    expect(one != queries.generate(2, 480), "two seeds give the same queries")
    mix = Counter(spec[0] for spec in one)
    expect(mix == Counter(spec[0] for spec in queries.generate(2, 480)), "the mix depends on the seed")
    expect(len({queries.render(s) for s in one}) == len(one), "a query repeats in the stream")


def test_tracer_rebinds_aliases_and_reports_absent() -> None:
    import narayana_lab.cli  # noqa: F401
    from narayana_lab import lambdaring, poly, rationals, sequences

    saved = tracer.TIMED
    tracer.TIMED = saved + (("poly.gone", "poly", "PolyQQ.no_such_method"),)
    t = tracer.Tracer()
    try:
        t.install()
        expect(t.absent == ["poly.gone"], f"absent names {t.absent}")
        expect(poly.PolyQQ.__rmul__ is poly.PolyQQ.__mul__, "__rmul__ is not wrapped with __mul__")
        expect(lambdaring.gen_binomial is rationals.gen_binomial, "an imported binding is missed")
        expect(sequences.gen_binomial is rationals.gen_binomial, "an imported binding is missed")
        before = lambdaring.h_series.cache_info().hits
        lambdaring.h_of(3, lambdaring.Alphabet(constant=2))
        lambdaring.h_of(3, lambdaring.Alphabet(constant=2))
        expect(lambdaring.h_series.cache_info().hits > before, "cache_info() is not readable")
        _ = 2 * poly.PolyQQ.var_q() * poly.PolyQQ.var_q()
        metrics = t.metrics()
    finally:
        t.uninstall()
        tracer.TIMED = saved
    expect(metrics["poly.mul.calls"] == 2, f"poly.mul.calls {metrics['poly.mul.calls']}")
    expect(metrics["poly.gone.calls"] == 0, "an absent name has calls")
    expect(metrics["lambdaring.h_series.hits"] >= 1, "h_series hits not counted")
    expect(not hasattr(poly.PolyQQ.__mul__, "__wrapped__"), "uninstall left a wrapper")


def test_metric_names_match_benchmark_json() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expect(e2e == END_TO_END, "end_to_end in BENCHMARK.json differs from run.END_TO_END")
    expect(layers == tracer.metric_units(), "per_layer in BENCHMARK.json differs from the tracer")


def test_pacer_scales_by_the_samples_around_each_op() -> None:
    p = pace.Pacer()
    # Ops 0-1 ran at reference speed, op 2 between a sample at reference
    # speed and one at half speed, ops 3-4 at half speed.
    p.marks = [(0, pace.REF_S), (2, pace.REF_S), (3, 2 * pace.REF_S), (5, 2 * pace.REF_S)]
    scales = p.scales(5)
    expect(scales[:2] == [1.0, 1.0], f"scales at reference speed {scales[:2]}")
    expect(abs(scales[2] - 2 / 3) < 1e-12, f"scale between two speeds {scales[2]}")
    expect(scales[3:] == [0.5, 0.5], f"scales at half speed {scales[3:]}")
    expect(abs(p.median_scale() - 2 / 3) < 1e-12, f"median scale {p.median_scale()}")


def test_corrupted_batch_counts_failures() -> None:
    out = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "query-repeat", "5", "0", "-", "2"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    expect(result["failed"] == 2, f"2 corrupted results counted as {result['failed']} failures")


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    for test in tests:
        try:
            test()
        except CheckFailed as exc:
            print(f"selftest: {test.__name__}: {exc}")
            return 1
    print(f"selftest: {len(tests)} tests passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
