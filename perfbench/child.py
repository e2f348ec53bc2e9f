"""One batch of a workload, in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE KNOWN_SHA CORRUPT

It runs the workload once, checks the outputs and prints one JSON line with
the batch's timed wall, per-op latencies, peak RSS and failures. An
untraced batch also samples the host's speed between its ops (see pace.py)
and reports the same times in reference seconds. Every
batch starts from empty process-global memos (h_series, the Narayana rows,
the factorial table, the HSequence caches), which is why each runs in its
own process. With TRACE 1 the tracer wraps the package for the timed phase.

Queries are checked by the integer oracle in queries.py unless the batch's
SHA-256 equals KNOWN_SHA, the digest of an earlier batch of the same run
that passed the check. CORRUPT > 0 alters that many results before the check
(selftest.py uses it to show that a wrong value counts as a failure).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

from narayana_lab.dsl import eval_text  # noqa: E402

import queries  # noqa: E402
from pace import Pacer, warm_up  # noqa: E402
from tracer import Tracer  # noqa: E402

SUITE_MAX_N = 20
SUITE_CASES = 4729  # verify --max-n 20 schedules this many cases for every seed
DISTINCT_QUERIES = 1200  # 50 blocks of the mix; p99 has 12 samples beyond it
POOL_QUERIES = 240
POOL_PASSES = 10
OUT_DIR = HERE / "out"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _paced(result: dict, pacer: Pacer | None) -> dict:
    """Add the batch's times in reference seconds to ``result``."""
    if pacer is None:
        return result
    latencies = result["latencies_s"]
    scales = pacer.scales(len(latencies))
    result["ref_latencies_s"] = [d * s for d, s in zip(latencies, scales)]
    result["ref_outside_s"] = (result["wall_s"] - sum(latencies)) * pacer.median_scale()
    result["kernel_median_s"] = pacer.median_kernel_s()
    return result


def run_suite(seed: int, tracer: Tracer | None, corrupt: int, pacer: Pacer | None) -> dict:
    """verify --max-n 20, serial, as the batch user runs it."""
    from narayana_lab import cli, identities

    latencies: list[float] = []
    if pacer is not None:
        check = identities.check_identity

        def timed_check(*args, **kwargs):
            pacer.tick(len(latencies))
            start = perf_counter()
            try:
                return check(*args, **kwargs)
            finally:
                latencies.append(perf_counter() - start)

        identities.check_identity = timed_check
    OUT_DIR.mkdir(exist_ok=True)
    fd, report = tempfile.mkstemp(prefix="report-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    try:
        argv = ["verify", "--max-n", str(SUITE_MAX_N), "--seed", str(seed), "--report", report]
        start = perf_counter()
        rc = cli.main(argv)
        wall = perf_counter() - start
        if pacer is not None:
            wall -= pacer.spent_s
            pacer.finish(len(latencies))
        rss = _peak_rss_mb()
        raw = Path(report).read_bytes()
    finally:
        os.unlink(report)
    if tracer is not None:
        latencies = [d for _, _, d in tracer.case_spans]
    failed = SUITE_CASES
    if rc == 0:
        doc = json.loads(raw)
        statuses = [case["status"] for case in doc["results"]]
        bad = sum(1 for s in statuses if s != "pass")
        if doc["counts"] == {"pass": len(statuses) - bad, "fail": bad}:
            failed = bad + corrupt + abs(SUITE_CASES - len(statuses))
    return _paced({
        "wall_s": wall,
        "ops": SUITE_CASES,
        "period": SUITE_CASES,
        "failed": min(failed, SUITE_CASES),
        "latencies_s": latencies,
        "peak_rss_mb": rss,
        "sha256": queries.digest([raw.decode()]),
        "exit_code": rc,
    }, pacer)


def _timed_queries(texts: list[str], pacer: Pacer | None = None) -> tuple[list, list[float], float]:
    """Answers, per-query seconds and the loop's wall, less the pacer's samples."""
    outs: list = []
    latencies: list[float] = []
    clock = perf_counter
    start = clock()
    for i, text in enumerate(texts):
        if pacer is not None:
            pacer.tick(i)
        t0 = clock()
        try:
            out = str(eval_text(text))
        except Exception as exc:  # a raising query is a failed op, not a crash
            out = exc
        latencies.append(clock() - t0)
        outs.append(out)
    wall = clock() - start
    if pacer is not None:
        wall -= pacer.spent_s
        pacer.finish(len(texts))
    return outs, latencies, wall


def _check_queries(specs, outs, known_sha: str, corrupt: int) -> tuple[int, str]:
    texts = [o if isinstance(o, str) else f"error: {o!r}" for o in outs]
    for i in range(min(corrupt, len(texts))):
        texts[i] = texts[i] + " + 1"
    sha = queries.digest(texts)
    if sha == known_sha:
        return 0, sha
    failed = sum(
        1 for spec, o, t in zip(specs, outs, texts)
        if not isinstance(o, str) or not queries.check(spec, t)
    )
    return failed, sha


def _kind_table(specs, texts, latencies) -> dict[str, dict]:
    """Per query kind: queries run, total time, and the slowest query."""
    table: dict[str, dict] = {}
    for i, elapsed in enumerate(latencies):
        j = i % len(specs)
        row = table.setdefault(specs[j][0], {"ops": 0, "wall_s": 0.0, "slowest_ms": -1.0})
        row["ops"] += 1
        row["wall_s"] += elapsed
        if elapsed * 1e3 > row["slowest_ms"]:
            row["slowest_ms"] = elapsed * 1e3
            row["slowest_query"] = texts[j]
    return table


def run_distinct(seed: int, known_sha: str, corrupt: int, pacer: Pacer | None) -> dict:
    """A stream of distinct queries: every one fills the h-series memo."""
    specs = queries.generate(seed, DISTINCT_QUERIES)
    texts = [queries.render(s) for s in specs]
    outs, latencies, wall = _timed_queries(texts, pacer)
    rss = _peak_rss_mb()
    failed, sha = _check_queries(specs, outs, known_sha, corrupt)
    return _paced({
        "wall_s": wall,
        "ops": len(texts),
        "period": len(texts),
        "failed": failed,
        "latencies_s": latencies,
        "peak_rss_mb": rss,
        "sha256": sha,
        "kinds": _kind_table(specs, texts, latencies),
    }, pacer)


def run_repeat(seed: int, known_sha: str, corrupt: int, tracer: Tracer | None,
               pacer: Pacer | None) -> dict:
    """A hot pool queried over and over after one untimed warm pass."""
    specs = queries.generate(seed, POOL_QUERIES, queries.POOL)
    texts = [queries.render(s) for s in specs]
    warm, _, _ = _timed_queries(texts)
    if tracer is not None:
        tracer.install()
    outs, latencies, wall = _timed_queries(texts * POOL_PASSES, pacer)
    rss = _peak_rss_mb()
    failed, sha = _check_queries(specs, warm, known_sha, corrupt)
    # Every timed answer must repeat the warm pass's answer to the same query.
    failed += sum(1 for i, o in enumerate(outs) if o != warm[i % len(texts)])
    return _paced({
        "wall_s": wall,
        "ops": len(outs),
        "period": len(texts),
        "failed": min(failed, len(outs)),
        "latencies_s": latencies,
        "peak_rss_mb": rss,
        "sha256": sha,
        "kinds": _kind_table(specs, texts, latencies),
    }, pacer)


def main(argv: list[str]) -> int:
    workload, seed, trace, known_sha, corrupt = argv
    seed, corrupt = int(seed), int(corrupt)
    tracer = Tracer() if trace == "1" else None
    pacer = None
    if tracer is None:
        warm_up()
        pacer = Pacer()
    elif workload != "query-repeat":
        tracer.install()
    if workload == "suite-20":
        result = run_suite(seed, tracer, corrupt, pacer)
    elif workload == "query-distinct":
        result = run_distinct(seed, known_sha, corrupt, pacer)
    elif workload == "query-repeat":
        result = run_repeat(seed, known_sha, corrupt, tracer, pacer)
    else:
        print(f"child: unknown workload {workload!r}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        result["identities"] = tracer.identity_table()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
