"""``adhoc-join``: a closed loop of one in-process client; every request
brings a freshly generated Fig. 3b relation pair (n = 304 per side,
d = 7, g = 10, a = 2, aggregate ``sum``, k = 11, exact mode, auto
algorithm), so plan build, categorize, pair enumeration and verify are
paid on every call and no cache can help."""

from __future__ import annotations

import statistics
import time

import numpy as np

import data
import oracle
from common import (SETUPS_AFTER, SETUPS_BEFORE, Outcome, engine_counters,
                    engine_metrics, in_process, largest_self, layer_metrics, out_path,
                    peak_rss_mb, reset_peak_rss, scaled_metrics, time_setups,
                    timing_note)
from speed import Speed

K = 11
#: Requests generated in set-up; a run stops early if it exhausts them.
POOL = 64
#: Answers per run checked against the oracle (outside the timed loop).
CHECKS = 2
#: ``peak_rss_mb`` is read when this many requests have completed (or at
#: the end of a shorter run). The engine keeps up to 32 plans and the
#: benchmark keeps every answer, so a peak over the whole run grew with
#: the number of requests the host's speed allowed (55 MiB after ~22,
#: 61 MiB after ~46).
RSS_REQUESTS = 16


def spec():
    from repro import QuerySpec

    return QuerySpec.for_ksjq(k=K, mode="exact", aggregate="sum")


def stream(seed: int) -> list[tuple[data.RawRelation, data.RawRelation]]:
    """The request stream: one fresh raw pair per request."""
    return [data.pair(data.rng_for(seed, 1, i), data.FIG3B) for i in range(POOL)]


class Setup:
    """Inputs handed to the program, and the engine serving them."""

    def __init__(self, seed: int) -> None:
        from repro import Engine

        self.raws = stream(seed)
        self.requests = [(l.to_relation(), r.to_relation()) for l, r in self.raws]
        self.engine = Engine()


def _loop(engine, requests, seconds: float, limit: int | None = None, tracer=None,
          speed: Speed | None = None):
    """Closed loop: returns (start, end) of each request, answers, errors,
    wall seconds and the peak RSS after :data:`RSS_REQUESTS` requests.
    With ``speed``, the machine's speed is probed between requests."""
    the_spec = spec()
    spans, answers, errors, rss = [], [], 0, None
    start = time.perf_counter()
    for i, (left, right) in enumerate(requests[:limit]):
        if limit is None and time.perf_counter() - start >= seconds:
            break
        if speed is not None:
            speed.tick()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.request(i):
                    result = engine.execute(left, right, the_spec)
            else:
                result = engine.execute(left, right, the_spec)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted
            errors += 1
            result = None
            print(f"adhoc-join request {i} failed: {exc!r}")
        end = time.perf_counter()
        spans.append((t0, end))
        answers.append(None if result is None else oracle.answer_rows(result))
        if len(spans) == RSS_REQUESTS:
            rss = peak_rss_mb()
    if speed is not None:
        speed.probe()
    wall = time.perf_counter() - start
    return spans, answers, errors, wall, rss if rss is not None else peak_rss_mb()


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    setup_times, setup = time_setups(lambda: Setup(seed), SETUPS_BEFORE, warm_up=True)
    before = engine_counters(setup.engine)
    budget = seconds / 2 if traced else seconds
    # Traced runs compare the untraced loop's wall with the traced one's,
    # so neither probes.
    speed = None if traced else Speed()
    reset_peak_rss()
    spans, answers, errors, wall, rss = _loop(
        setup.engine, setup.requests, budget, speed=speed)
    after = engine_counters(setup.engine)
    done = len(spans)
    out.attempted, out.failed = done, errors

    if traced:
        from layers import TARGETS
        from repro import Engine
        from spans import Tracer, install

        tracer = Tracer()
        engine = Engine()
        t_before = engine_counters(engine)
        installed = install(tracer, TARGETS)
        try:
            _, traced_answers, _, traced_wall, _ = _loop(
                engine, setup.requests, 0.0, limit=done, tracer=tracer)
        finally:
            installed.uninstall()
        out.metrics.update(layer_metrics(tracer, done))
        out.metrics.update(engine_metrics(t_before, engine_counters(engine), done))
        out.metrics["trace.overhead_ratio"] = traced_wall / wall
        in_process(out)
        out.require(
            [oracle.digest(a) for a in traced_answers if a is not None]
            == [oracle.digest(a) for a in answers if a is not None],
            "traced answers differ from untraced answers")
        top = largest_self(tracer)
        out.require(top == "plan.compatible_pairs",
                    f"largest self time is {top}, not plan.compatible_pairs")
        out.notes.append(f"largest self-time layer: {top}")
        tracer.dump(out_path(f"trace-adhoc-join-{seed}.jsonl"))
    else:
        out.metrics.update({
            "setup_s": statistics.median(
                setup_times + time_setups(lambda: Setup(seed), SETUPS_AFTER, False)[0]),
            **scaled_metrics(speed, spans),
            "peak_rss_mb": rss,
        })
        out.notes.append(timing_note(speed, spans))

    # Non-vacuity: no request may reuse a plan; most answers are non-empty.
    out.require(after["plan_hits"] - before["plan_hits"] == 0,
                "adhoc-join reused a cached plan")
    nonempty = sum(1 for a in answers if a)
    out.require(nonempty >= 0.9 * done, f"only {nonempty}/{done} answers non-empty")

    # Correctness: a seeded sample of answers against the oracle.
    pick = np.random.default_rng([seed, 99]).choice(done, size=min(CHECKS, done),
                                                    replace=False)
    for i in sorted(pick.tolist()):
        if answers[i] is None:
            continue
        problem = oracle.check(list(setup.raws[i]), K, "exact", answers[i])
        if problem:
            out.failed += 1
            out.problems.append(f"adhoc-join request {i}: {problem}")
    out.notes.append("answer digests: " + " ".join(
        oracle.digest(a) if a is not None else "error" for a in answers))
    return out
