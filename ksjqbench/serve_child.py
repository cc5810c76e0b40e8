"""The ``served-mix`` server process.

Started by :mod:`served` as ``python3 serve_child.py --seed N [--trace]``.
It registers the workload's datasets on a fresh engine, builds their
plans, starts :class:`repro.serving.server.KSJQServer` on a free port
and prints ``READY <port>``. It then obeys one command per stdin line,
answering each with one JSON line on stdout:

``stats``      engine counters, serving metrics and peak RSS;
``trace on``   wrap the layer boundaries (``--trace`` processes only);
``trace off``  unwrap them and report the per-layer metrics of the phase;
``drop results`` empty the result cache, keep the plans warm and start
               the peak resident set afresh;
``probe``      time one call of the reference kernel (:mod:`speed`).

End of input stops the server and exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import served_data  # noqa: E402
from common import (engine_counters, engine_metrics, layer_metrics,  # noqa: E402
                    out_path, peak_rss_mb, reset_peak_rss)
from layers import TARGETS  # noqa: E402
from spans import ContextExecutor, Tracer, install  # noqa: E402
from speed import time_kernel  # noqa: E402


def build_engine(seed: int):
    """Register every dataset on a fresh engine and build every plan the
    mix uses: group indexes, statistics and the cascade's chain set."""
    from repro import Engine

    engine = Engine(max_results=served_data.RESULT_CACHE)
    for name, raw in served_data.datasets(seed).items():
        engine.register(name, raw.to_relation())
    for names in (served_data.F3, served_data.D5):
        plan = engine.plan(*names, aggregate=served_data.aggregate(names))
        plan.left_groups(), plan.right_groups(), plan.stats()
    plan = engine.cascade_plan(served_data.CAS, aggregate="sum")
    plan.oriented(), plan.stats()
    return engine


class Child:
    def __init__(self, seed: int, traced: bool) -> None:
        from repro.serving.server import KSJQServer, ServingConfig

        self.engine = build_engine(seed)
        self.server = KSJQServer(self.engine, ServingConfig(
            workers=served_data.WORKERS, max_queue=served_data.MAX_QUEUE))
        self.tracer = None
        self.installed = None
        self.before = None
        if traced:
            # Engine calls and cost probes then run in a copy of the
            # request's context, so their spans carry its request id.
            self.server._executor.shutdown()
            self.server._executor = ContextExecutor(
                max_workers=served_data.WORKERS, thread_name_prefix="ksjq-worker")
            self.server._probe_executor.shutdown()
            self.server._probe_executor = ContextExecutor(
                max_workers=1, thread_name_prefix="ksjq-probe")

    def command(self, line: str) -> dict:
        if line == "stats":
            return {"engine": engine_counters(self.engine),
                    "routes": self.server.metrics.snapshot(),
                    "shed_total": self.server.admission.shed_total,
                    "peak_rss_mb": peak_rss_mb()}
        if line == "drop results":
            # The engine's only public call, clear_cache, also drops the
            # plans; the closed loop measures uncached queries over warm ones.
            with self.engine._lock:
                self.engine._results.clear()
            reset_peak_rss()
            return {"ok": True}
        if line == "probe":
            return {"seconds": time_kernel()}
        if line == "trace on":
            self.tracer = Tracer()
            self.before = engine_counters(self.engine)
            self.installed = install(self.tracer, TARGETS)
            return {"ok": True}
        if line.startswith("trace off"):
            requests = int(line.split()[2])
            self.installed.uninstall()
            metrics = layer_metrics(self.tracer, requests)
            metrics.update(engine_metrics(self.before, engine_counters(self.engine),
                                          requests))
            self.tracer.dump(out_path("trace-served-mix-server.jsonl"))
            return {"metrics": metrics}
        return {"error": f"unknown command {line!r}"}


async def amain(args: argparse.Namespace) -> None:
    child = Child(args.seed, args.trace)
    await child.server.start()
    loop = asyncio.get_running_loop()
    print(f"READY {child.server.port}", flush=True)
    done = asyncio.Event()

    def read_commands() -> None:
        for line in sys.stdin:
            # Commands run on the event loop: no request is mid-dispatch
            # while wrappers are swapped (the client is idle between phases).
            future = asyncio.run_coroutine_threadsafe(
                _run_command(child, line.strip()), loop)
            print(json.dumps(future.result()), flush=True)
        loop.call_soon_threadsafe(done.set)

    reader = threading.Thread(target=read_commands, daemon=True)
    reader.start()
    await done.wait()
    await child.server.stop()
    reader.join(5)


async def _run_command(child: Child, line: str) -> dict:
    return child.command(line)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    import warnings

    warnings.simplefilter("ignore")
    asyncio.run(amain(parser.parse_args()))


if __name__ == "__main__":
    main()
