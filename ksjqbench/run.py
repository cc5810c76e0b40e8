"""The KSJQ benchmark: one command, three seeded workloads.

Run from the repository root::

    python3 ksjqbench/run.py --workload adhoc-join --seed 1 --seconds 15 --trace 0
    python3 ksjqbench/run.py --workload served-mix --seed 1 --seconds 15 --trace 1
    python3 ksjqbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` replays the same requests with the library's layer
boundaries wrapped (see ``layers.py``) and reports the per-layer
metrics. Either way the answers are checked, and the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``), with the
metric names and units of ``BENCHMARK.json``.
Working files (span dumps) go to ``.ksjqbench-out/`` under the
current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = Path(".ksjqbench-out")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run on
    any other copy of the library."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"ksjqbench: no library source at {SRC / 'repro'}")
    sys.path[:0] = [str(HERE), str(SRC)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"ksjqbench: imported repro from {repro.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import warnings

    # Faithful mode with aggregates warns by design (documented errata).
    warnings.simplefilter("ignore")
    from common import WORKLOADS, contract

    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    OUT_DIR.mkdir(exist_ok=True)
    os.environ["KSJQBENCH_OUT"] = str(OUT_DIR.resolve())
    module = __import__(WORKLOADS[args.workload])
    outcome = module.run(args.seed, args.seconds, bool(args.trace))

    wanted = contract()["per_layer" if args.trace else "end_to_end"]
    for name, reason in outcome.not_applicable.items():
        outcome.metrics[name] = 0.0
        outcome.notes.append(f"{name} = 0: {reason}")
    missing = [m["name"] for m in wanted if m["name"] not in outcome.metrics]
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"PROBLEM: {problem}")
    metrics = {}
    for m in wanted:
        if m["name"] in outcome.metrics:
            value = outcome.metrics[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:40s} {value:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
