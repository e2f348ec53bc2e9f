"""Outside-in tracer for the narayana_lab package.

The tracer wraps public entry points of every module from the benchmark's
side; nothing under ``src/`` knows about it. A wrapped name is rebound
wherever the package holds the same object: module globals (so names that
other modules imported with ``from .x import y`` are caught), class
attributes (so aliases such as ``PolyQQ.__rmul__ is PolyQQ.__mul__`` share
one wrapper), and the package namespace.

Per name it keeps aggregates, not spans: ``calls`` and ``self_s``, the
wrapped call's duration minus the time of wrapped calls made inside it.
``poly.mul`` runs about 400k times in one suite run, so one object per call
would distort what it measures. One span is kept per identity case; the
query workloads time each query themselves (see child.py).

A name that no longer exists is reported as absent, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter

PACKAGE = "narayana_lab"

# (metric prefix, module, attribute path): calls and self time are reported.
TIMED = (
    ("rationals.gen_binomial", "rationals", "gen_binomial"),
    ("poly.mul", "poly", "PolyQQ.__mul__"),
    ("poly.add", "poly", "PolyQQ.__add__"),
    ("poly.pow", "poly", "PolyQQ.__pow__"),
    ("poly.divexact", "poly", "PolyQQ.divexact"),
    ("poly.eval", "poly", "PolyQQ.eval"),
    ("series.mul", "series", "TruncSeries.__mul__"),
    ("series.inverse", "series", "TruncSeries.inverse"),
    ("series.int_pow", "series", "TruncSeries.int_pow"),
    ("series.reverse", "series", "TruncSeries.reverse"),
    ("lambdaring.h_series", "lambdaring", "h_series"),
    ("lambdaring.det_fraction_free", "lambdaring", "det_fraction_free"),
    ("lambdaring.hall_littlewood_principal", "lambdaring", "hall_littlewood_principal"),
    ("sequences.narayana", "sequences", "narayana"),
    ("sequences.jacobi11", "sequences", "jacobi11"),
    ("sequences.catalan", "sequences", "catalan"),
    ("identities.check_identity", "identities", "check_identity"),
    ("dsl.parse", "dsl", "parse"),
    ("dsl.evaluate", "dsl", "evaluate"),
    ("cli.main", "cli", "main"),
)
# Negligible in every workload: only calls are reported.
COUNTED = (
    ("partitions.enumerate_partitions", "partitions", "enumerate_partitions"),
    ("partitions.z_of", "partitions", "z_of"),
    ("partitions.composition_multiplicity", "partitions", "composition_multiplicity"),
    ("partitions.iter_subsets", "partitions", "iter_subsets"),
    ("partitions.decompositions", "partitions", "decompositions"),
)

# The registered identities at the time the benchmark was defined. Each gets
# an ``identities.<id>.wall_s`` metric, so the metric set stays fixed; ids
# added later appear in the per-identity table of the result file.
IDENTITY_IDS = (
    "catalan-ratio", "cf-alternating", "chu-vandermonde-variant", "gf-quadratic",
    "hl-jacobi", "interesting", "jacobi-binomial", "jacobi-bridge", "jonah",
    "jonah-alt", "koshy", "lagrange-thm2", "lemma2", "lemma3-a", "lemma3-b",
    "lemma4", "new-formula", "newton-catalan", "odd-parts-schroeder",
    "pa1-central", "partial-sum", "pieri-hook", "rot", "rothe", "schur-table-6",
    "strinc", "thm1", "thm2", "thm3", "thm3-schroeder", "thm4", "thm4-schroeder",
    "thm5", "thm5-schroeder", "thm6", "thm6-spec-q1", "thm6-spec-q2", "thm7",
    "thm8", "touchard", "typeB-central", "vanishing-sum",
)

# Metrics the trace run adds itself (see run.py).
RUN_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.absent", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the trace run reports, with its unit, in order."""
    units: dict[str, str] = {}
    for name, _, _ in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name == "poly.mul":
            units["poly.mul.term_pairs"] = "count"
        elif name == "lambdaring.h_series":
            for key in ("hits", "misses", "currsize"):
                units[f"{name}.{key}"] = "count"
            units[f"{name}.hit_ratio"] = "ratio"
        elif name == "identities.check_identity":
            units[f"{name}.p50_ms"] = "ms"
            units[f"{name}.p99_ms"] = "ms"
    for name, _, _ in COUNTED:
        units[f"{name}.calls"] = "count"
    for ident in IDENTITY_IDS:
        units[f"identities.{ident}.wall_s"] = "s"
    units.update(RUN_METRICS)
    return units


def _resolve(module: str, path: str):
    try:
        obj = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _size(x) -> int:
    """Number of stored terms of a polynomial operand; 1 for a scalar."""
    terms = getattr(x, "_terms", None)
    if terms is not None:
        return len(terms)
    items = getattr(x, "items", None)
    return sum(1 for _ in items()) if items is not None else 1


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(values, n=100) gives it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


class Tracer:
    """Wraps the package's entry points; ``install`` rebinds, ``uninstall`` restores."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.absent: list[str] = []
        self.term_pairs = 0
        self.case_spans: list[tuple[str, dict, float]] = []
        self._stack = [0.0]
        self._rebound: list[tuple[object, str, object]] = []
        self._h_series = None
        self._cache_start = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        targets = [(name, _resolve(module, path)) for name, module, path in TIMED + COUNTED]
        owners = []
        for modname, module in list(sys.modules.items()):
            if modname == PACKAGE or modname.startswith(PACKAGE + "."):
                owners.append(module)
                owners.extend(
                    v for v in vars(module).values()
                    if isinstance(v, type) and v.__module__ == modname
                )
        for name, target in targets:
            if target is None:
                self.absent.append(name)
                self.stats[name] = [0, 0.0]
                continue
            wrapper = self._wrap(name, target)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is target:
                        setattr(owner, attr, wrapper)
                        self._rebound.append((owner, attr, target))
            if name == "lambdaring.h_series":
                self._h_series = target
                self._cache_start = target.cache_info()

    def uninstall(self) -> None:
        for owner, attr, target in reversed(self._rebound):
            setattr(owner, attr, target)
        self._rebound.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = perf_counter
        # Three copies of one body: a hook called from a shared body would
        # add its own cost to each of about a million wrapped calls.

        if name == "poly.mul":
            def wrapper(a, b):
                self.term_pairs += _size(a) * _size(b)
                stack.append(0.0)
                start = clock()
                try:
                    return fn(a, b)
                finally:
                    elapsed = clock() - start
                    inner = stack.pop()
                    stack[-1] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed - inner
        elif name == "identities.check_identity":
            spans = self.case_spans

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    inner = stack.pop()
                    stack[-1] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed - inner
                    spans.append((args[0], args[1], elapsed))
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    inner = stack.pop()
                    stack[-1] += elapsed
                    stat[0] += 1
                    stat[1] += elapsed - inner

        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values for the names in ``metric_units``, less RUN_METRICS."""
        out: dict[str, float] = {}
        for name, _, _ in TIMED:
            calls, self_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["poly.mul.term_pairs"] = self.term_pairs
        hits = misses = currsize = 0
        if self._h_series is not None:
            now = self._h_series.cache_info()
            hits = now.hits - self._cache_start.hits
            misses = now.misses - self._cache_start.misses
            currsize = now.currsize
        out["lambdaring.h_series.hits"] = hits
        out["lambdaring.h_series.misses"] = misses
        out["lambdaring.h_series.currsize"] = currsize
        out["lambdaring.h_series.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        case_ms = [d * 1e3 for _, _, d in self.case_spans]
        out["identities.check_identity.p50_ms"] = quantile(case_ms, 50)
        out["identities.check_identity.p99_ms"] = quantile(case_ms, 99)
        for name, _, _ in COUNTED:
            out[f"{name}.calls"] = self.stats[name][0]
        walls = self.identity_table()
        for ident in IDENTITY_IDS:
            out[f"identities.{ident}.wall_s"] = walls.get(ident, {}).get("wall_s", 0.0)
        return out

    def identity_table(self) -> dict[str, dict]:
        """Per identity: cases, total wall time, and the slowest case."""
        table: dict[str, dict] = {}
        for ident, params, elapsed in self.case_spans:
            row = table.setdefault(
                ident, {"cases": 0, "wall_s": 0.0, "slowest_s": -1.0, "slowest_params": None}
            )
            row["cases"] += 1
            row["wall_s"] += elapsed
            if elapsed > row["slowest_s"]:
                row["slowest_s"] = elapsed
                row["slowest_params"] = {k: str(v) for k, v in sorted(params.items())}
        return table
