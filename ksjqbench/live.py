"""``live-update``: writes mixed with reads on a registered Fig. 3b pair.

A closed loop of one in-process client. Each request is one write
(``insert_rows`` or ``delete_rows`` on either side, with the engine's
synchronous delta maintenance) followed by one read of the fresh answer:
usually through the ``engine.maintain()`` handle, for a minority through
a plain ``engine.execute``, which finds its cached plan invalidated by
the write. The request latency is the freshness latency a user sees:
from submitting the change to holding the updated answer.

Requests come in blocks with a fixed content, shuffled by the seed:
small inserts and deletes that the handle maintains incrementally, a
delete and re-insert of a batch above the maintenance cost model's limit
(under the library's default ``fallback_ratio``) that fall back to a
recompute, and a small write followed by a plain read.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext

import numpy as np

import data
import oracle
from common import (SETUPS_AFTER, SETUPS_BEFORE, Outcome, engine_counters,
                    engine_metrics, in_process, layer_metrics, out_path, peak_rss_mb,
                    percentile, reset_peak_rss, scaled_metrics, time_setups,
                    timing_note)
from speed import Speed

K = 11
#: The large batch, a reload: delete more than half of one side's rows,
#: then insert the same rows again (so every seed keeps maintaining
#: nearly the registered pair, whose answer size is fixed; fresh rows
#: would walk the answer between 1.3k and 1.9k rows, and the cost of every
#: recompute with it). The maintenance cost model prices a batch of r rows
#: on an n-row side at r / n of a recompute (``PlanStats``:
#: ``delta_maintenance_cost`` over ``recompute_cost``), so under the
#: library's default ``fallback_ratio`` (0.5) both writes recompute. The
#: margin keeps the delete above the limit; the sides drift by a few rows.
LARGE_MARGIN = 8
#: One block: (write kind, rows, read kind), in an order shuffled by the
#: seed. ``large`` is two adjacent requests on one side (see
#: LARGE_MARGIN), after which the relations are back to their usual size
#: for the block's other requests. Rows inserted and deleted balance.
#: Eight requests read through the handle after a small write and are
#: fast; the large delete recomputes a half join; the large insert and
#: the plain read each pay a full computation, so the p50 falls among the
#: fast requests and the p90 among those two.
BLOCK = [
    ("insert", 1, "handle"), ("insert", 2, "handle"), ("insert", 2, "handle"),
    ("insert", 4, "handle"), ("delete", 1, "handle"), ("delete", 2, "handle"),
    ("delete", 2, "handle"), ("delete", 2, "handle"), ("delete", 2, "execute"),
    ("large", None, "handle"),
]
#: Requests in one block (the large batch makes two).
BLOCK_REQUESTS = len(BLOCK) + 1
#: Requests per run whose answers are checked against the oracle.
CHECKS = 2
#: ``peak_rss_mb`` is read when this many requests have completed (or at
#: the end of a shorter run), so it covers the same work whatever number
#: of blocks the host's speed allows (the benchmark keeps every answer).
RSS_REQUESTS = 5 * BLOCK_REQUESTS


#: The registered pair is the same for every seed; the seed draws the
#: update stream. Every run then maintains an answer of the same size.
DATASET_SEED = 20170420


def base_pair() -> tuple[data.RawRelation, data.RawRelation]:
    return data.pair(data.rng_for(DATASET_SEED, 7), data.FIG3B)


def spec():
    from repro import QuerySpec

    return QuerySpec.for_ksjq(k=K, mode="exact", aggregate="sum")


def stream(seed: int, blocks: int) -> list[dict]:
    """The request stream: ``blocks`` shuffled blocks of writes + reads.

    Row choices are made against a mirror of both relations, so every
    delete names existing rows and every insert carries its new rows.
    A small insert brings back rows that small deletes took from the same
    side, oldest first, and draws fresh rows only when none are waiting:
    with fresh rows only, the ~18 blocks a fast host runs replaced a
    quarter of the rows, and the answer size, and every recompute's cost
    with it, walked with the seed.
    """
    rng = data.rng_for(seed, 6)
    left, right = base_pair()
    mirror = {"L": left, "R": right}
    waiting = {side: (raw.matrix[:0], raw.keys[:0]) for side, raw in mirror.items()}
    out = []
    for _ in range(blocks):
        for i in rng.permutation(len(BLOCK)):
            entry, rows, read = BLOCK[i]
            side = "L" if rng.random() < 0.5 else "R"
            if entry == "large":
                rows = len(mirror[side].keys) // 2 + LARGE_MARGIN
            for kind in ("delete", "insert") if entry == "large" else (entry,):
                raw = mirror[side]
                step = {"side": side, "kind": kind, "rows": rows, "read": read,
                        "large": entry == "large"}
                if entry == "large" and kind == "insert":
                    # A reload: the rows the large delete took come back.
                    step["matrix"], step["keys"] = dropped
                    mirror[side] = raw.inserted(*dropped)
                elif kind == "insert":
                    back_matrix, back_keys = waiting[side]
                    fresh = rows - min(rows, len(back_keys))
                    step["matrix"] = np.vstack([
                        back_matrix[:rows],
                        rng.uniform(0.0, 1.0, size=(fresh, raw.matrix.shape[1]))])
                    step["keys"] = np.concatenate([
                        back_keys[:rows], rng.integers(0, data.FIG3B["g"], size=fresh)])
                    waiting[side] = back_matrix[rows:], back_keys[rows:]
                    mirror[side] = raw.inserted(step["matrix"], step["keys"])
                else:
                    step["drop"] = np.sort(rng.choice(len(raw.keys), rows,
                                                      replace=False))
                    dropped = raw.matrix[step["drop"]], raw.keys[step["drop"]]
                    if entry != "large":
                        waiting[side] = (np.vstack([waiting[side][0], dropped[0]]),
                                         np.concatenate([waiting[side][1], dropped[1]]))
                    mirror[side] = raw.deleted(step["drop"])
                step["state"] = (mirror["L"], mirror["R"])
                out.append(step)
    return out


class Setup:
    """Registered datasets and a live maintained answer over them."""

    def __init__(self) -> None:
        from repro import Engine

        left, right = base_pair()
        self.engine = Engine()
        self.datasets = {"L": self.engine.register("L", left.to_relation()),
                         "R": self.engine.register("R", right.to_relation())}
        self.handle = self.engine.maintain("L", "R", spec())

    def close(self) -> None:
        self.handle.close()


def _loop(setup: Setup, steps: list[dict], seconds: float, tracer=None,
          limit: int | None = None, speed: Speed | None = None):
    """Whole blocks until ``seconds`` pass (or ``limit`` requests).

    Returns write latencies, (start, end) of each request, answers, plain
    reads that differ from the maintained answer of the same version, the
    wall time and the peak RSS after :data:`RSS_REQUESTS` requests. With
    ``speed``, the machine's speed is probed between requests.
    """
    the_spec = spec()
    writes, spans, answers, mismatches, rss = [], [], [], 0, None
    start = time.perf_counter()
    for i, step in enumerate(steps[:limit]):
        if (limit is None and i % BLOCK_REQUESTS == 0
                and time.perf_counter() - start >= seconds):
            break
        if speed is not None:
            speed.tick()
        with tracer.request(i) if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            dataset = setup.datasets[step["side"]]
            if step["kind"] == "insert":
                raw = step["state"][0 if step["side"] == "L" else 1]
                dataset.insert_rows(raw.records(step["matrix"], step["keys"]))
            else:
                dataset.delete_rows(step["drop"].tolist())
            t1 = time.perf_counter()
            if step["read"] == "handle":
                result = setup.handle.result()
            else:
                result = setup.engine.execute("L", "R", the_spec)
            t2 = time.perf_counter()
        writes.append(t1 - t0)
        spans.append((t0, t2))
        answers.append(oracle.answer_rows(result))
        if step["read"] == "execute":
            mismatches += answers[-1] != oracle.answer_rows(setup.handle.result())
        if len(spans) == RSS_REQUESTS:
            rss = peak_rss_mb()
    if speed is not None:
        speed.probe()
    wall = time.perf_counter() - start
    return (writes, spans, answers, mismatches, wall,
            rss if rss is not None else peak_rss_mb())


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    setup_times, setup = time_setups(Setup, SETUPS_BEFORE, warm_up=True)
    # Enough blocks for a fast program; a run stops at a block boundary.
    steps = stream(seed, blocks=40)
    before = engine_counters(setup.engine)
    budget = seconds / 2 if traced else seconds
    # Traced runs compare the untraced loop's wall with the traced one's,
    # so neither probes.
    speed = None if traced else Speed()
    reset_peak_rss()
    writes, spans, answers, mismatches, wall, rss = _loop(
        setup, steps, budget, speed=speed)
    after = engine_counters(setup.engine)
    done = len(spans)
    out.attempted, out.failed = done, mismatches
    out.require(mismatches == 0, f"{mismatches} plain reads differ from the handle")

    if traced:
        from layers import TARGETS
        from spans import Tracer, install

        setup.close()
        replay = Setup()
        tracer = Tracer()
        t_before = engine_counters(replay.engine)
        installed = install(tracer, TARGETS)
        try:
            _, _, traced_answers, _, traced_wall, _ = _loop(
                replay, steps, 0.0, tracer, done)
        finally:
            installed.uninstall()
            replay.close()
        out.metrics.update(layer_metrics(tracer, done))
        out.metrics.update(engine_metrics(t_before, engine_counters(replay.engine), done))
        out.metrics["trace.overhead_ratio"] = traced_wall / wall
        in_process(out)
        out.require([oracle.digest(a) for a in traced_answers]
                    == [oracle.digest(a) for a in answers],
                    "traced answers differ from untraced answers")
        tracer.dump(out_path(f"trace-live-update-{seed}.jsonl"))
    else:
        setup.close()
        out.metrics.update({
            "setup_s": statistics.median(
                setup_times + time_setups(Setup, SETUPS_AFTER, False)[0]),
            **scaled_metrics(speed, spans, BLOCK_REQUESTS),
            "peak_rss_mb": rss,
        })
        out.notes.append(timing_note(speed, spans))
        out.notes.append(f"{done} requests; write_p50_s = {percentile(writes, 50):.4f} "
                         f"(the insert/delete call alone)")

    # Non-vacuity: both maintenance paths ran, each write on the path its
    # size calls for; answers are non-empty.
    maintained = after["maintained"] - before["maintained"]
    fallbacks = after["fallbacks"] - before["fallbacks"]
    large = sum(1 for step in steps[:done] if step["large"])
    out.notes.append(f"maintenance: {maintained} incremental, {fallbacks} recomputed")
    out.require(maintained == done - large > 0 and fallbacks == large > 0,
                f"maintenance paths: incremental={maintained} fallback={fallbacks}, "
                f"expected {done - large} and {large}")
    nonempty = sum(1 for a in answers if a)
    out.require(nonempty >= 0.9 * done, f"only {nonempty}/{done} answers non-empty")

    # Correctness: a seeded sample of answers matches the oracle over the
    # mirrored relations.
    pick = np.random.default_rng([seed, 98]).choice(done, size=min(CHECKS, done),
                                                    replace=False)
    for i in sorted(pick.tolist()):
        problem = oracle.check(list(steps[i]["state"]), K, "exact", answers[i])
        if problem:
            out.failed += 1
            out.problems.append(f"live-update request {i}: {problem}")
    out.notes.append("answer digests: " + " ".join(oracle.digest(a) for a in answers))
    return out
