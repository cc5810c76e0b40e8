"""Self-tests of the benchmark itself: ``python3 ksjqbench/run.py --self-test``.

* trace mechanics: self time of nested and overlapping spans, parents
  and request ids across threads, wrappers installed and removed;
* ``ref_s`` scaling: which probes scale a request's latency;
* the oracle agrees with the library's ``k_dominant_skyline_naive`` and
  its joined matrix with the library's join;
* seeds: one seed gives an identical request stream and identical answer
  digests, another seed a different stream;
* ``BENCHMARK.json`` is well-formed, names the workloads the benchmark
  runs, and ``manifest.json`` documents each of its workloads and metrics.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import re
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np

import adhoc
import data
import live
import oracle
import served
import served_data
from common import WORKLOADS, contract
from spans import ContextExecutor, Target, Tracer, covered, install
from speed import PROBES_PER_REF_S, Speed

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def test_self_time_arithmetic() -> None:
    tracer = Tracer()
    parent, child, grandchild = (tracer.name_id(n) for n in ("p", "c", "g"))
    # Parent [0, 100]; children overlap each other ([10, 30] and [20, 50])
    # and one runs past the parent's end ([90, 120]); the grandchild lies
    # inside a child and must not count against the parent.
    tracer.spans += [
        (0, parent, 0, 100, -1, 0),
        (1, child, 10, 30, 0, 0),
        (2, child, 20, 50, 0, 0),
        (3, child, 90, 120, 0, 0),
        (4, grandchild, 12, 18, 1, 0),
    ]
    own = tracer.self_times()
    expect(own["p"] == (100 - 40 - 10, 1), f"parent self time 50 (got {own['p']})")
    expect(own["c"] == (20 - 6 + 30 + 30, 3), f"children self time 74 (got {own['c']})")
    expect(covered(0, 10, [(2, 4), (3, 8), (9, 20)]) == 7, "interval union")


def test_wrappers() -> None:
    module = types.ModuleType("repro._ksjqbench_selftest")
    sys.modules[module.__name__] = module
    pool = ContextExecutor(max_workers=2)

    def inner(seconds: float) -> float:
        time.sleep(seconds)
        return seconds

    def outer() -> list[float]:
        # Two overlapping children on two threads.
        futures = [pool.submit(module.inner, 0.05), pool.submit(module.inner, 0.05)]
        return [f.result() for f in futures]

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    installed = install(tracer, [Target(f"{module.__name__}:inner", "inner"),
                                 Target(f"{module.__name__}:outer", "outer")])
    try:
        with tracer.request(7):
            module.outer()
        threading.Thread(target=module.outer).start()
        time.sleep(0.2)
    finally:
        installed.uninstall()
        pool.shutdown()
        del sys.modules[module.__name__]
    expect(module.inner is inner and module.outer is outer, "uninstall restores")
    names = {sid: tracer.names[nid] for sid, nid, *_ in tracer.spans}
    by_name = {}
    for sid, nid, start, end, parent, rid in tracer.spans:
        by_name.setdefault(tracer.names[nid], []).append((sid, parent, rid))
    expect(len(by_name["inner"]) == 4 and len(by_name["outer"]) == 2, "span counts")
    expect(all(names.get(parent) == "outer" for _, parent, _ in by_name["inner"]),
           "children on worker threads have the caller as parent")
    rids = sorted({rid for _, _, rid in by_name["inner"]})
    expect(len(rids) == 2 and 7 in rids, f"request ids propagate (got {rids})")
    own = tracer.self_times()
    expect(own["outer"][0] < 0.04e9, "overlapping children are not double-counted "
           f"(outer self {own['outer'][0] / 1e9:.3f}s for 2x50ms in parallel)")


def test_oracle() -> None:
    from repro.core.plan import JoinPlan
    from repro.skyline.kdominant import k_dominant_skyline_naive

    rng = np.random.default_rng(5)
    for n, d, k in ((300, 4, 3), (500, 6, 5), (400, 8, 6)):
        matrix = np.round(rng.uniform(size=(n, d)), 1)  # ties included
        expect(oracle.skyline_rows(matrix, k).tolist()
               == k_dominant_skyline_naive(matrix, k),
               f"oracle kernel matches k_dominant_skyline_naive (n={n} d={d} k={k})")
    left, right = data.pair(rng, dict(n=60, d=5, g=4, a=2))
    rows, matrix = oracle.joined([left, right])
    view = JoinPlan(left.to_relation(), right.to_relation(), aggregate="sum").view()

    def by_pair(pairs, values):
        # Column order may differ; compare each joined tuple's value multiset.
        return {tuple(p): sorted(np.round(v, 9)) for p, v in zip(pairs.tolist(), values)}

    expect(by_pair(rows, matrix) == by_pair(np.asarray(view.pairs), view.oriented()),
           "oracle join matches the library's joined view")


def test_speed() -> None:
    speed = Speed(measure=lambda: 0.0)
    speed.probes = [(0.0, 0.02), (0.5, 0.04), (3.0, 0.03)]
    expect(speed.ref_s(0.2, 0.3) == 0.03 * PROBES_PER_REF_S,
           "ref_s: median of the probes within the window")
    expect(speed.ref_s(10.0, 11.0) == 0.035 * PROBES_PER_REF_S,
           "ref_s: the two nearest probes when the window holds fewer")
    expect(abs(speed.scaled(0.2, 0.5) - 0.3 / (0.03 * PROBES_PER_REF_S)) < 1e-12,
           "scaled latency is wall latency over one ref_s")
    speed.tick()
    expect(len(speed.probes) == 4, "tick probes after a quiet spell")


def _stream_digest(workload: str, seed: int) -> str:
    if workload == "adhoc-join":
        items = [(l.matrix.tobytes(), r.matrix.tobytes()) for l, r in adhoc.stream(seed)]
    elif workload == "served-mix":
        items = [served_data.datasets(seed)[n].matrix.tobytes() for n in ("f3L", "d5L")]
        items += [repr(served.schedule(seed, 24.0))]
    else:
        items = [(s["side"], s["kind"], s["rows"], s["read"],
                  s["state"][0].matrix.tobytes()) for s in live.stream(seed, 4)]
    return hashlib.sha1(repr(items).encode()).hexdigest()


def test_seeds() -> None:
    for workload in WORKLOADS:
        a, b, c = (_stream_digest(workload, s) for s in (3, 3, 4))
        expect(a == b, f"{workload}: same seed, same request stream")
        expect(a != c, f"{workload}: another seed, another request stream")


def _answers(workload: str, seed: int) -> list[str]:
    """Digests of the first answers of a workload, from a fresh set-up."""
    if workload == "adhoc-join":
        setup = adhoc.Setup(seed)
        return [oracle.digest(oracle.answer_rows(setup.engine.execute(l, r, adhoc.spec())))
                for l, r in setup.requests[:2]]
    if workload == "live-update":
        setup = live.Setup()
        _, _, answers, _, _, _ = live._loop(setup, live.stream(seed, 1), 0.0,
                                         limit=live.BLOCK_REQUESTS)
        setup.close()
        return [oracle.digest(a) for a in answers]
    server = served.Server(seed, False)
    try:
        plan = [(0.0, 0, key) for _, _, key in served.schedule(seed, 24.0)[:12]]
        records = asyncio.run(served._open_loop(server.port, plan))
    finally:
        server.close()
    return [served.answer_digest(r["answer"]) for r in records]


def test_answer_digests() -> None:
    for workload in WORKLOADS:
        first, second = _answers(workload, 3), _answers(workload, 3)
        expect(first == second and len(first) > 1,
               f"{workload}: same seed, same answer digests ({len(first)} answers)")


def test_contract() -> None:
    on_disk = contract()
    expect(sorted(w["name"] for w in on_disk["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json names the workloads the benchmark runs")
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    metrics = on_disk["end_to_end"] + on_disk["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in on_disk["workloads"]]
    expect(all(name.match(n) for n in names) and len(set(names)) == len(names),
           "names are well-formed and unique")
    expect(all(unit.match(m["unit"]) and m["better"] in ("higher", "lower")
               for m in metrics), "units and directions are well-formed")
    expect(all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])
           and any(m["name"] == "setup_s" and m["unit"] == "s"
                   for m in on_disk["end_to_end"]), "bounds and setup_s")
    expect(all(len(w["why"]) <= 200 for w in on_disk["workloads"])
           and 2 <= len(on_disk["workloads"]) <= 8, "workloads")
    doc = json.loads((Path(__file__).resolve().parent / "manifest.json").read_text())
    documented = {m["name"] for m in doc["end_to_end"]}
    documented |= {m["name"] for layer in doc["per_layer"].values() for m in layer}
    missing = set(m["name"] for m in metrics) - documented
    missing |= set(WORKLOADS) - set(doc["workloads"])
    expect(not missing, f"manifest.json documents every workload and metric "
                        f"(missing {sorted(missing)})")


def main() -> int:
    for test in (test_self_time_arithmetic, test_wrappers, test_speed, test_oracle,
                 test_seeds, test_contract, test_answer_digests):
        print(f"-- {test.__name__}")
        test()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0
