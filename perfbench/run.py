"""End-to-end and per-layer benchmark of narayana-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository; the package is imported from
``src``, not from an installed copy. Workloads (all single-process, closed
loop: the next case or query starts when the previous one returns):

- ``suite-20``: ``narayana-lab verify --max-n 20 --seed N --report FILE``,
  serial, through ``cli.main``: the batch user's command, 4729 cases for
  every seed. Time goes to PolyQQ mul and eval via sequences and identities.
- ``query-distinct``: 1200 DSL queries (h_n, e_n, p_n, s{mu}, P{r,n}) of a
  fixed mix, none repeated, each filling the h_series memo: the memo's
  write side. Time goes to series and PolyQQ arithmetic. Its heaviest
  queries are the same for every seed, in another order.
- ``query-repeat``: a pool of 240 such queries, answered once untimed and
  then 10 times over: the memo's read side. Time goes to what the memo does
  not keep: Bareiss determinants, the Hall-Littlewood routes, parsing.

The seed picks the suite's schedule and the queries (see queries.py); the
package sees only the generated inputs. A run repeats batches of its
workload, each in a fresh interpreter so that the process-global memos start
empty, until ``--seconds`` have passed, and times the package's import in
fresh interpreters between batches.

With ``--trace 0`` the last line of output is one JSON object with the
end-to-end metrics (see ``end_to_end``): setup_s, wall_s (a batch's timed
phase), ops_per_s, op_p50_ms and op_p99_ms (per case or query), and
peak_rss_mb (a batch process's maximum RSS). Times are in reference
seconds: each is scaled by the host's speed, sampled next to it with a
fixed kernel (see pace.py), so that other tenants of a shared host move
them far less than they move plain seconds. The lines before the JSON
print the same metrics in both units, the sample counts and fail_frac.
With ``--trace 1`` untraced and traced batches alternate; the JSON holds
the per-layer metrics of the traced ones (see tracer.py), in plain seconds,
and the tracing overhead.

Every output is checked: the suite's exit code, its report's counts and
case count; each query against the integer oracle in queries.py; and every
batch of a run must give the same bytes. A case or query that fails, raises
or disagrees counts in ``failed``. Each run writes its details, with the
SHA-256 of its results for comparing commits on one seed and the
per-identity or per-kind tables, to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
from tracer import metric_units, quantile  # noqa: E402

WORKLOADS = ("suite-20", "query-distinct", "query-repeat")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
DEADLINE_S = 170  # the whole run, so that it ends within 180 s
PROBES_PER_BATCH = 1
MIN_PROBES = 12


class BenchError(Exception):
    """The benchmark could not run the program at all."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child(script: str, args: list[str], deadline: float) -> str:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - _now(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{script} {args[:1]} passed the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} {args[:1]} exited with code {proc.returncode}")
    return out


def probe(deadline: float) -> tuple[float, float]:
    """Seconds from spawning an interpreter to the package being imported,
    plain and in reference seconds (from kernel samples just before and after)."""
    before = pace.sample()
    start = _now()
    out = _child("probe.py", [], deadline)
    elapsed = float(out.split()[-1]) - start
    after = pace.sample()
    return elapsed, elapsed * 2 * pace.REF_S / (before + after)


def batch(workload: str, seed: int, trace: bool, known_sha: str, deadline: float) -> dict:
    args = [workload, str(seed), "1" if trace else "0", known_sha or "-", "0"]
    out = _child("child.py", args, deadline)
    return json.loads(out.strip().splitlines()[-1])


def _pin() -> None:
    """Keep this process and its children on one CPU, so that the kernel
    samples taken here and in a batch see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = _now()
    deadline = start + DEADLINE_S
    _pin()
    pace.warm_up()
    probes: list[tuple[float, float]] = []
    batches: list[dict] = []
    untraced: list[dict] = []  # in a trace run, one untraced batch before each traced one
    known_sha = ""
    while True:
        began = _now()
        if trace:
            untraced.append(batch(workload, seed, False, known_sha, deadline))
            if untraced[-1]["failed"] == 0:
                known_sha = untraced[-1]["sha256"]
        else:
            probes += [probe(deadline) for _ in range(PROBES_PER_BATCH)]
        batches.append(batch(workload, seed, trace, known_sha, deadline))
        if batches[-1]["failed"] == 0 and not known_sha:
            known_sha = batches[-1]["sha256"]
        now = _now()
        if now - start >= seconds or now + (now - began) > deadline:
            break
    while not trace and len(probes) < MIN_PROBES:
        probes.append(probe(deadline))
    counted = batches + untraced
    shas = sorted({b["sha256"] for b in counted})
    failed = sum(b["failed"] for b in counted)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": sum(b["ops"] for b in counted),
        "failed": failed,
        # The same seed must give the same bytes in every batch.
        "correct": failed == 0 and len(shas) == 1,
        "sha256": shas,
        "probes_s": probes,
        "batches": batches,
        "untraced": untraced,
        "run_s": _now() - start,
    }


def end_to_end(res: dict, plain: bool = False) -> dict[str, float]:
    """Medians over the run's batches; percentiles over all their ops.

    Every batch of a run does the same ops in the same order. Times are in
    reference seconds (``plain`` gives plain seconds), which takes out most
    of the phases, from seconds to minutes long, in which other tenants slow
    the host. wall_s is the median batch's timed phase, and ops_per_s a
    batch's ops over it; the percentiles are taken over every op of every
    batch. Memory reports the median batch; set-up reports the median probe.
    """
    batches = res["batches"]
    if plain:
        walls = [b["wall_s"] for b in batches]
        samples = [d for b in batches for d in b["latencies_s"]]
    else:
        walls = [sum(b["ref_latencies_s"]) + b["ref_outside_s"] for b in batches]
        samples = [d for b in batches for d in b["ref_latencies_s"]]
    wall = statistics.median(walls)
    samples_ms = [d * 1e3 for d in samples]
    probe_col = 0 if plain else 1  # probes are (plain, reference) pairs
    return {
        "setup_s": statistics.median(p[probe_col] for p in res["probes_s"]),
        "wall_s": wall,
        "ops_per_s": batches[0]["ops"] / wall,
        "op_p50_ms": quantile(samples_ms, 50),
        "op_p99_ms": quantile(samples_ms, 99),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
    }


def per_layer(res: dict) -> dict[str, float]:
    """Each per-layer value is its minimum over the traced batches.

    Counts are the same in every batch; times take the least disturbed
    batch, since other load on the host only ever adds time.
    """
    batches = res["batches"]
    out = {name: min(b["layers"][name] for b in batches) for name in batches[0]["layers"]}
    traced = min(b["wall_s"] for b in batches)
    plain = min(b["wall_s"] for b in res["untraced"])
    out["trace.wall_s"] = traced
    out["trace.untraced_wall_s"] = plain
    out["trace.overhead"] = traced / plain
    out["trace.absent"] = len(batches[0]["absent"])
    return out


def _summary(res: dict) -> dict:
    """The run's record without per-op latencies."""
    slim = dict(res)
    for key in ("batches", "untraced"):
        slim[key] = [{k: v for k, v in b.items() if not k.endswith("latencies_s")} for b in res[key]]
    return slim


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "narayana_lab" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'narayana_lab'}", file=sys.stderr)
        return 2
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    plain = {}
    if args.trace:
        values, units = per_layer(res), metric_units()
    else:
        values, units = end_to_end(res), END_TO_END
        plain = end_to_end(res, plain=True)
    res["metrics"] = values
    res["plain_metrics"] = plain
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(_summary(res), indent=1, sort_keys=True) + "\n")

    first = res["batches"][0]
    samples = sum(len(b["latencies_s"]) for b in res["batches"])
    print(f"workload {args.workload}  seed {args.seed}  batches {len(res['batches'])}"
          f"  setup probes {len(res['probes_s'])}")
    print(f"op percentiles over {samples} samples: {len(res['batches'])} batches of"
          f" {first['ops']} ops, {samples // first['period']} for each of {first['period']} distinct ops")
    kernel = [b["kernel_median_s"] for b in res["batches"] if "kernel_median_s" in b]
    if kernel:
        print(f"reference kernel {statistics.median(kernel) * 1e3:.4g} ms (median of the"
              f" batches' medians), {pace.REF_S * 1e3:.4g} ms at reference speed")
        print(f"{'metric':48s} {'reference':>14s} {'plain':>14s}")
    for name, value in values.items():
        extra = f" {plain[name]:14.6g}" if name in plain else ""
        print(f"{name:48s} {value:14.6g}{extra} {units[name]}")
    print(f"{'fail_frac':48s} {res['failed'] / res['attempted']:14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']})")
    if res["failed"]:
        print(f"FAILED: {res['failed']} of {res['attempted']} ops")
    if len(res["sha256"]) != 1:
        print(f"FAILED: batches of one seed gave different results {res['sha256']}")
    print(f"details: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
