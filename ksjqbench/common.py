"""Shared pieces of the workloads: the metric contract, outcome record,
percentiles, memory, and the per-layer metrics derived from a traced
phase."""

from __future__ import annotations

import json
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import ALGORITHMS
from spans import Tracer


#: Workload name -> module that runs it.
WORKLOADS = {"adhoc-join": "adhoc", "served-mix": "served", "live-update": "live"}


def contract() -> dict:
    """``BENCHMARK.json`` at the checkout's root: the workloads and the
    metrics (names, units, directions) every run reports."""
    root = Path(__file__).resolve().parent.parent
    return json.loads((root / "BENCHMARK.json").read_text())


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Wrong answers and failed non-vacuity checks (each one line).
    problems: list[str] = field(default_factory=list)
    #: Extra human-readable lines printed before the result.
    notes: list[str] = field(default_factory=list)
    #: Per-layer metrics whose layer this workload never enters: reason.
    not_applicable: dict[str, str] = field(default_factory=dict)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def out_path(name: str) -> str:
    """Path of a working file in the run's output directory."""
    return os.path.join(os.environ.get("KSJQBENCH_OUT", "."), name)


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``): the smallest
    sample with at least ``q`` per cent of the samples at or below it.

    It is always a measured latency. The workloads mix fast and slow
    requests in fixed shares, so their latencies form clusters; an
    interpolated percentile can fall in the gap between two clusters,
    where it moves with the sample count rather than with the program.
    """
    ordered = sorted(values)
    return ordered[max(-(-q * len(ordered) // 100), 1) - 1]


def scaled_metrics(speed, spans: list[tuple[float, float]], window: int = 1) -> dict:
    """The gated timings, in ``ref_s`` (see :mod:`speed`), of requests
    that ran ``(start, end)``: throughput as requests per ``ref_s`` of
    busy time over the longest run of whole windows of ``window``
    requests (one unit of the workload's fixed request mix, so a partial
    mix at the end does not move it), and the nearest-rank median over
    every request."""
    scaled = [speed.scaled(start, end) for start, end in spans]
    whole = len(scaled) - len(scaled) % window or len(scaled)
    return {"throughput_per_ref_s": whole / sum(scaled[:whole]),
            "latency_p50_ref_s": percentile(scaled, 50)}


def timing_note(speed, spans: list[tuple[float, float]]) -> str:
    """Figures of the same requests that are printed but not gated: the
    p90 in ``ref_s`` (no run has the 100 samples a p90 needs), the wall
    clock p50 and p90, and how long one ``ref_s`` lasted."""
    scaled = [speed.scaled(start, end) for start, end in spans]
    wall = [end - start for start, end in spans]
    return (f"{len(spans)} samples: latency_p90_ref_s {percentile(scaled, 90):.4f}; "
            f"wall clock p50 {percentile(wall, 50):.4f}s p90 {percentile(wall, 90):.4f}s; "
            f"one ref_s lasted {speed.wall_per_ref_s():.4f}s ({len(speed.probes)} probes)")


def reset_peak_rss() -> None:
    """Start this process's peak resident set afresh (Linux
    ``clear_refs``), so the peak covers the measured phase alone."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    """Peak resident set of this process since start or the last
    :func:`reset_peak_rss`, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Set-ups timed before and after the measured phase of a run; ``setup_s``
#: is the median of all of them. The host's speed drifts over tens of
#: seconds, so set-ups spread over the run sample more of it than the
#: same number back to back. An untimed set-up runs before them all: the
#: first one in a process also pays one-time costs (adhoc-join's first
#: takes ~0.4 s, its later ones ~0.03 s), which made the median jump.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2


def time_setups(build, repeats: int, keep: bool = True, warm_up: bool = False):
    """Run ``build()`` ``repeats`` times (after one untimed run if
    ``warm_up``), closing every result but the last (and the last too
    unless ``keep``); return (seconds of each timed set-up, last result
    or None)."""
    times, built = [], (build() if warm_up else None)
    for _ in range(repeats):
        _close(built)
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
    if not keep:
        _close(built)
        built = None
    return times, built


def _close(built) -> None:
    if built is not None and hasattr(built, "close"):
        built.close()


# ----------------------------------------------------------------------
# Per-layer metrics from one traced phase
# ----------------------------------------------------------------------
#: Span names whose self time is reported as ``<span>.self_s``.
SELF_TIMED = (
    "engine.execute", "engine.choose_algorithm", "plan.compatible_pairs",
    "plan.categorize", "plan.view", "plan.stats", "targets.target_rows_exact",
    "join.oriented_for_pairs", "dominance.is_k_dominated",
    "dominance.k_dominated_any", "kdominant.candidates_block", "find_k",
    "cascade", "incremental", "serving.encode",
)
#: Span names whose call count is reported as ``<span>.calls``.
COUNTED = (
    "plan.compatible_pairs", "plan.categorize", "targets.target_rows_exact",
    "dominance.is_k_dominated", "index.build", "index.run_indexed",
    "parallel.run_parallel",
)


def layer_metrics(tracer: Tracer, requests: int) -> dict[str, float]:
    """Self seconds and call counts per request, plus the span counters.

    Every time and count is divided by ``requests`` (the requests the
    traced phase completed), so runs of different length compare.
    """
    own = tracer.self_times()
    total = tracer.totals()
    c = tracer.counters
    per = 1.0 / max(requests, 1)
    out: dict[str, float] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = own.get(name, (0, 0))[0] / 1e9 * per
    for name in COUNTED:
        out[f"{name}.calls"] = own.get(name, (0, 0))[1] * per
    out["plan.compatible_pairs.pairs_out"] = c.get("plan.compatible_pairs.pairs_out", 0) * per
    out["join.oriented_for_pairs.rows"] = c.get("join.oriented_for_pairs.rows", 0) * per
    out["dominance.k_dominated_any.rows"] = c.get("dominance.k_dominated_any.rows", 0) * per
    out["find_k.evaluations"] = c.get("find_k.evaluations", 0) * per
    checked = c.get("verify.checked", 0)
    out["verify.useful_ratio"] = c.get("verify.answer_rows", 0) / checked if checked else 0.0
    for op in ("insert_rows", "delete_rows"):
        ns, calls = total.get(f"dataset.{op}", (0, 0))
        out[f"dataset.{op}.total_s"] = ns / 1e9 / calls if calls else 0.0
    for algorithm in ALGORITHMS:
        out[f"engine.choose.picks.{algorithm}"] = c.get(
            f"engine.choose.picks.{algorithm}", 0) * per
    return out


def largest_self(tracer: Tracer, exclude: tuple[str, ...] = ("request",)) -> str:
    own = tracer.self_times()
    return max((n for n in own if n not in exclude), key=lambda n: own[n][0])


def engine_counters(engine) -> dict[str, int]:
    """The engine's cumulative cache, maintenance and recovery counters."""
    info = engine.cache_info()
    results = info["results"]
    res = info["resilience"]
    return {
        "plan_hits": info["hits"], "plan_misses": info["misses"],
        "result_hits": results["hits"], "result_misses": results["misses"],
        "invalidations": info["invalidations"] + results["invalidations"],
        "maintained": info["maintained"], "fallbacks": info["fallback_recomputes"],
        **{f"resilience.{name}": res[name]
           for name in ("shard_retries", "degradations", "breaker_opens")},
    }


def engine_metrics(before: dict[str, int], after: dict[str, int],
                   requests: int) -> dict[str, float]:
    """Per-layer engine metrics over the phase between two snapshots."""
    d = {key: after[key] - before[key] for key in after}

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    out = {
        "engine.plan_cache.hit_ratio": ratio(d["plan_hits"], d["plan_hits"] + d["plan_misses"]),
        "engine.result_cache.hit_ratio": ratio(
            d["result_hits"], d["result_hits"] + d["result_misses"]),
        "engine.invalidations": d["invalidations"] / max(requests, 1),
        "incremental.fallback_ratio": ratio(d["fallbacks"], d["maintained"] + d["fallbacks"]),
    }
    for name in ("shard_retries", "degradations", "breaker_opens"):
        out[f"resilience.{name}"] = float(d[f"resilience.{name}"])
    return out


#: Serving-layer metrics, measured only where requests cross HTTP.
SERVING = ("serving.queue_wait_s", "serving.route_latency_s", "serving.wire_s",
           "serving.encode.self_s", "serving.shed_ratio", "serving.degraded")


def in_process(out: Outcome) -> None:
    """Mark the serving-layer metrics as not applicable."""
    for name in SERVING:
        out.metrics.pop(name, None)
        out.not_applicable[name] = "in-process workload: no HTTP layer"
