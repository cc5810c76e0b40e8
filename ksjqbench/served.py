"""``served-mix``: an open loop against ``KSJQServer`` in its own process.

The server (:mod:`serve_child`, ``workers=2``) serves three registered
datasets with warm plans and an initially empty, bounded result cache.
One client process sends the seeded stream of :mod:`served_data` over at
most :data:`CONNECTIONS` connections: first at fixed offered rates
(evenly spaced arrivals), each latency timed from the request's due time
so a stall also delays the requests queued behind it, with the
generator's lateness reported; then, once the server has dropped its
cached results, a closed-loop phase sends queries the cache does not
hold and ``/find_k`` requests one after another, which measures the
service time and rate of uncached work over warm plans.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import data
import oracle
import served_data
from common import (SETUPS_AFTER, SETUPS_BEFORE, Outcome, percentile, scaled_metrics,
                    time_setups, timing_note)
from speed import Speed

HERE = Path(__file__).resolve().parent
#: Offered rate (requests/s) of each open-loop phase and its length in
#: turns of the key rotations, so each phase sends the same mix of
#: uncached keys on every run. Their latency from due time is printed
#: per rate; most of it is a few milliseconds of cache hits, where the
#: generator's own timer jitter is a large share, so the gated latency
#: metrics come from the closed-loop phase that fills the rest of the run.
RATES = (5.0, 10.0)
TURNS = (0.25, 0.25)
#: Upper bound on the closed-loop phase's request rate, to size the plan.
MAX_RATE = 60.0
#: Interactive latency limit on the p90 from due time.
SLO_S = 1.0
#: Client connections: at most the machine's cores, as the load comes
#: from a single process.
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Seconds to wait for the server process to exit once its input closes.
CHILD_TIMEOUT = 120


class Server:
    """A server process and its command pipe."""

    def __init__(self, seed: int, traced: bool) -> None:
        cmd = [sys.executable, str(HERE / "serve_child.py"), "--seed", str(seed)]
        # One malloc arena: with one per worker thread (glibc's default),
        # which thread served a request decided which arena kept its freed
        # arrays, and the closed loop's peak RSS read 68 or 84 MiB from run
        # to run; with one it reads 65-67 MiB.
        env = dict(os.environ, MALLOC_ARENA_MAX="1")
        self.proc = subprocess.Popen(cmd + (["--trace"] if traced else []),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env)
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"server failed to start: {line!r}")
        self.port = int(line.split()[1])

    def command(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def schedule(seed: int, seconds: float) -> list[tuple[float, int, tuple]]:
    """``(due offset s, phase, stream key)`` for every request a run may
    send: each open-loop phase at its fixed rate, evenly spaced; then the
    closed-loop phase (the last phase index) of uncached requests, which
    are sent back to back (their due time is when they are sent)."""
    dues, start = [], 0.0
    for phase, (rate, turns) in enumerate(zip(RATES, TURNS)):
        count = int(turns * served_data.ROTATION)
        dues += [(start + i / rate, phase) for i in range(count)]
        start += count / rate
    keys = served_data.stream(seed, len(dues))
    count = int(max(seconds - start, 1.0) * MAX_RATE)
    keys += served_data.closed_loop_stream(seed, count)
    dues += [(start, len(RATES))] * count
    return [(due, phase, key) for (due, phase), key in zip(dues, keys)]


async def _exchange(port: int, route: str, payload: dict) -> tuple[int, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        body = json.dumps(payload).encode()
        writer.write(f"POST {route} HTTP/1.1\r\nHost: bench\r\nContent-Type: "
                     f"application/json\r\nContent-Length: {len(body)}\r\n\r\n"
                     .encode() + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, rest = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(rest)


async def _send(port: int, record: dict, start: float) -> None:
    """Send one request; store its status, answer and completion offset."""
    try:
        route, payload = served_data.body(record["key"])
        status, answer = await _exchange(port, route, payload)
    except (OSError, ValueError, IndexError) as exc:  # a failed request
        status, answer = 0, {"error": repr(exc)}
    record.update(status=status, answer=answer, done=time.perf_counter() - start)


async def _open_loop(port: int, plan: list) -> list[dict]:
    """Send the open-loop requests of ``plan`` in order, each once it is
    due and one of :data:`CONNECTIONS` connections is free; returns one
    record per request once all are answered."""
    slots = asyncio.Semaphore(CONNECTIONS)
    records: list[dict] = []
    tasks = []
    start = time.perf_counter()

    async def one(record: dict) -> None:
        try:
            await _send(port, record, start)
        finally:
            slots.release()

    for due, phase, key in plan:
        delay = due - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        records.append({"due": due, "phase": phase, "key": key,
                        "sent": time.perf_counter() - start})
        tasks.append(asyncio.create_task(one(records[-1])))
    await asyncio.gather(*tasks)
    return records


async def _closed_loop(port: int, keys: list, seconds: float,
                       speed: Speed | None) -> list[dict]:
    """Send ``keys`` one at a time, each when the previous one is
    answered, until ``seconds`` have passed. With ``speed``, the server
    process's speed is probed between requests, and each record keeps
    its ``span`` in this process's clock."""
    records: list[dict] = []
    start = time.perf_counter()
    for key in keys:
        if speed is not None:
            speed.tick()
        now = time.perf_counter() - start
        if now >= seconds:
            break
        records.append({"due": now, "phase": len(RATES), "key": key, "sent": now})
        await _send(port, records[-1], start)
        records[-1]["span"] = (start + now, start + records[-1]["done"])
    if speed is not None:
        speed.probe()
    return records


def _drive(server: Server, plan: list, seconds: float,
           speed: Speed | None = None) -> tuple[list[dict], list[dict]]:
    """One pass over ``plan``: the open loop; then, once the server has
    dropped its cached results and started its peak resident set afresh,
    the closed loop until ``seconds`` have
    passed since the start (or for one second, if the open loop took
    longer). Returns the records and the server's stats at the start,
    before the closed loop and at the end."""
    closed = [key for _, phase, key in plan if phase == len(RATES)]
    start = time.perf_counter()
    snapshots = [server.command("stats")]
    records = asyncio.run(_open_loop(server.port, plan[:len(plan) - len(closed)]))
    server.command("drop results")
    snapshots.append(server.command("stats"))
    remaining = max(seconds - (time.perf_counter() - start), 1.0)
    records += asyncio.run(_closed_loop(server.port, closed, remaining, speed))
    snapshots.append(server.command("stats"))
    return records, snapshots


def _ok(record: dict) -> bool:
    answer = record["answer"]
    return record["status"] == 200 and not answer.get("partial") and "error" not in answer


def answer_digest(answer: dict) -> str:
    """Digest of a /query answer's rows, or of a /find_k answer's k."""
    if "pairs" in answer:
        return oracle.digest(answer["pairs"])
    return oracle.digest([(answer.get("k", -1),)])


def _phase_stats(records: list[dict], phase: int) -> dict:
    """Latency from due time, lateness and failures of one open-loop phase."""
    rows = [r for r in records if r["phase"] == phase]
    lat = [r["done"] - r["due"] for r in rows]
    late = [r["sent"] - r["due"] for r in rows]
    third = max(len(late) // 3, 1)
    return {
        "rate": RATES[phase], "n": len(rows),
        "failed": sum(1 for r in rows if not _ok(r)),
        "p50": percentile(lat, 50), "p90": percentile(lat, 90),
        "lateness_first": float(np.mean(late[:third])),
        "lateness_last": float(np.mean(late[-third:])),
    }


def _meets(stats: dict) -> bool:
    """p90 within the SLO, no failure, and lateness not growing."""
    growing = stats["lateness_last"] > stats["lateness_first"] + SLO_S / 2
    return stats["p90"] <= SLO_S and not growing and stats["failed"] == 0


def _closed_rows(records: list[dict]) -> list[dict]:
    """The closed-loop phase's records over its whole turns (so every
    query key counts equally often)."""
    rows = [r for r in records if r["phase"] == len(RATES)]
    return rows[:len(rows) - len(rows) % served_data.TURN or len(rows)]


def _closed_stats(records: list[dict]) -> dict:
    """Completions per second and wall latency of the closed-loop phase."""
    rows = _closed_rows(records)
    start = min(r["sent"] for r in rows)
    lat = [r["done"] - r["sent"] for r in rows]
    return {"n": len(rows), "rate": len(rows) / (max(r["done"] for r in rows) - start),
            "p50": percentile(lat, 50), "p90": percentile(lat, 90)}


def max_rate_in_slo(phases: list[dict]) -> float:
    """The highest fixed offered rate that meets the SLO (0 if none)."""
    return max((st["rate"] for st in phases if _meets(st)), default=0.0)


def _check_sample(seed: int, records: list[dict], out: Outcome) -> None:
    """Check one seeded answer per request shape against the oracle."""
    raws = served_data.datasets(seed)
    rng = data.rng_for(seed, 5)
    shapes: dict[tuple, list[int]] = {}
    for i, r in enumerate(records):
        if _ok(r):
            key = r["key"]
            shape = key[1][0] if key[0] == "find_k" else (key[1][0], key[1][2])
            shapes.setdefault((key[0], shape), []).append(i)
    sizes: dict[tuple, int] = {}

    def size(names, k) -> int:
        if (names, k) not in sizes:
            sizes[names, k] = oracle.skyline_size([raws[n] for n in names], k)
        return sizes[names, k]

    for (kind, shape), rows in sorted(shapes.items()):
        r = records[rows[rng.integers(len(rows))]]
        names = tuple(r["key"][1][0])
        rels = [raws[n] for n in names]
        answer = r["answer"]
        if kind == "find_k":
            delta, k = r["key"][1][1], answer["k"]
            lowest = max(rel.matrix.shape[1] for rel in rels) + 1
            problem = None
            if size(names, k) < delta:
                problem = f"find_k delta={delta}: k={k} has fewer than delta rows"
            elif k > lowest and size(names, k - 1) >= delta:
                problem = f"find_k delta={delta}: k={k - 1} already reaches delta"
        else:
            _, k, mode = r["key"][1]
            got = {tuple(p) for p in answer["pairs"]}
            problem = oracle.check(rels, k, mode, got)
        if problem:
            out.failed += 1
            out.problems.append(f"served-mix {names}: {problem}")


def _route_means(before: dict, after: dict, field: str) -> tuple[float, int]:
    """Mean of one histogram over the requests between two /metrics
    snapshots, across routes; and the number of requests."""
    total = count = 0.0
    for route in ("/query", "/find_k"):
        a = after["routes"].get(route, {}).get(field, {"count": 0, "mean": 0})
        b = before["routes"].get(route, {}).get(field, {"count": 0, "mean": 0})
        total += a["count"] * a["mean"] - b["count"] * b["mean"]
        count += a["count"] - b["count"]
    return (total / count if count else 0.0), int(count)


def _result_lookups(before: dict, after: dict) -> tuple[int, int]:
    """Result-cache hits and misses between two stats snapshots."""
    return (after["engine"]["result_hits"] - before["engine"]["result_hits"],
            after["engine"]["result_misses"] - before["engine"]["result_misses"])


def _route_counter(before: dict, after: dict, field: str) -> int:
    return sum(after["routes"].get(r, {}).get(field, 0)
               - before["routes"].get(r, {}).get(field, 0)
               for r in ("/query", "/find_k"))


def run(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    setup_times, server = time_setups(lambda: Server(seed, traced), SETUPS_BEFORE,
                                      warm_up=True)
    try:
        plan = schedule(seed, seconds)
        # Traced runs compare the untraced latencies with the traced ones,
        # so neither probes.
        speed = None if traced else Speed(lambda: server.command("probe")["seconds"])
        records, (before, between, after) = _drive(server, plan, seconds, speed)
        if traced:
            # The traced replay sends the same schedule to an emptied cache.
            server.command("drop results")
            server.command("trace on")
            traced_records, (t_before, _, t_after) = _drive(server, plan, seconds)
            layer = server.command(f"trace off {len(traced_records)}")["metrics"]
    finally:
        server.close()

    out.attempted = len(records)
    out.failed = sum(1 for r in records if not _ok(r))
    phases = [_phase_stats(records, p) for p in range(len(RATES))]
    closed = _closed_stats(records)
    for st in phases:
        out.notes.append(
            f"offered {st['rate']:g}/s: {st['n']} requests, from due time p50 "
            f"{st['p50']:.3f}s p90 {st['p90']:.3f}s; lateness {st['lateness_first']:.3f}s"
            f" -> {st['lateness_last']:.3f}s; {'meets' if _meets(st) else 'misses'} "
            f"the {SLO_S:g}s p90 limit")
    out.notes.append(f"closed loop: {closed['n']} uncached requests at "
                     f"{closed['rate']:.3f}/s, p50 {closed['p50']:.3f}s "
                     f"p90 {closed['p90']:.3f}s")
    out.notes.append(f"max_rate_in_slo_rps = {max_rate_in_slo(phases):g}")
    hits, misses = _result_lookups(before, between)
    closed_hits, closed_misses = _result_lookups(between, after)
    out.notes.append(f"result cache: open loop {hits} hits, {misses} misses; "
                     f"closed loop {closed_hits} hits, {closed_misses} misses")

    if traced:
        out.metrics.update(layer)
        n = min(len(records), len(traced_records))
        sent = np.mean([r["done"] - r["sent"] for r in records[:n]])
        traced_sent = np.mean([r["done"] - r["sent"] for r in traced_records[:n]])
        out.metrics["trace.overhead_ratio"] = float(traced_sent / sent)
        route_s, served_n = _route_means(t_before, t_after, "latency")
        wait_s, _ = _route_means(t_before, t_after, "queue_wait")
        all_sent = np.mean([r["done"] - r["sent"] for r in traced_records])
        out.metrics["serving.route_latency_s"] = route_s
        out.metrics["serving.queue_wait_s"] = wait_s
        out.metrics["serving.wire_s"] = float(all_sent) - route_s - wait_s
        shed = t_after["shed_total"] - t_before["shed_total"]
        out.metrics["serving.shed_ratio"] = shed / max(served_n + shed, 1)
        out.metrics["serving.degraded"] = float(_route_counter(t_before, t_after, "degraded"))
        out.require([answer_digest(r["answer"]) for r in traced_records[:n]]
                    == [answer_digest(r["answer"]) for r in records[:n]],
                    "traced answers differ from untraced answers")
    else:
        out.metrics.update({
            "setup_s": statistics.median(setup_times + time_setups(
                lambda: Server(seed, False), SETUPS_AFTER, False)[0]),
            # The median over whole turns; throughput over whole walks of
            # the /find_k keys, which cost different amounts.
            **scaled_metrics(speed, [r["span"] for r in _closed_rows(records)],
                             served_data.TURN * len(served_data.FIND_K_KEYS)),
            "peak_rss_mb": after["peak_rss_mb"],
        })
        out.notes.append("closed loop, " + timing_note(
            speed, [r["span"] for r in _closed_rows(records)]))

    # Non-vacuity: hits and misses, find_k and cascade ran, answers non-empty.
    kinds = {r["key"][0] for r in records}
    cascades = sum(1 for r in records if r["key"][0] == "query"
                   and tuple(r["key"][1][0]) == served_data.CAS)
    out.require(hits > 0 and misses > 0,
                f"open loop: result cache hits={hits} misses={misses}")
    out.require(closed_hits == 0 and closed_misses > 0,
                f"closed loop: result cache hits={closed_hits} misses={closed_misses}")
    out.require("find_k" in kinds, "no /find_k request ran")
    out.require(cascades > 0, "no cascade request ran")
    answered = [r for r in records if _ok(r) and "pairs" in r["answer"]]
    nonempty = sum(1 for r in answered if r["answer"]["pairs"])
    out.require(nonempty >= 0.75 * len(answered),
                f"only {nonempty}/{len(answered)} answers non-empty")
    _check_sample(seed, records, out)
    out.notes.append("answer digests: " + " ".join(
        answer_digest(r["answer"]) for r in records))
    return out
