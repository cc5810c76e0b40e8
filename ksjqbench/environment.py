"""Print the machine a set of figures was measured on, as the JSON object
kept under ``"environment"`` in ``ksjqbench/manifest.json``.

Run from the repository root: ``python3 ksjqbench/environment.py``.
``calibration_seconds`` is the repository's machine-speed probe
(``benchmarks/check_regression.py``); the ratio of two machines'
probes predicts the ratio of their timings.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from benchmarks.check_regression import calibration_seconds  # noqa: E402

print(json.dumps({
    "nproc": os.cpu_count(), "python": platform.python_version(),
    "numpy": numpy.__version__, "machine": platform.machine(),
    "calibration_seconds": round(calibration_seconds(), 4),
}, indent=2))
