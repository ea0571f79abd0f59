"""Helpers shared by the benchmark's workloads and its server launcher."""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
from pathlib import Path
from typing import Dict

#: Root of the checkout the benchmark runs in (the directory above this one).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for registries, record logs and server output; removed at exit.
WORK = ROOT / ".perfbench_work"

BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def use_source() -> None:
    """Put the checkout's ``src`` on ``sys.path`` or raise :class:`SourceMissing`."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(name: str) -> Path:
    """A fresh, empty directory under :data:`WORK`."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()  # only succeeds once no other run uses it
    except OSError:
        pass


def environment() -> Dict[str, object]:
    """What the numbers depend on besides the code: cores, load, threads."""
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def emit(details: dict, correct: bool, attempted: int, failed: int,
         metrics: Dict[str, float], trace: bool) -> None:
    """Print the details line, then the result object as the last line.

    ``metrics`` must hold exactly the end-to-end metrics (untraced run) or
    the per-layer metrics (traced run) of ``BENCHMARK.json``.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise ValueError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                         "match the metrics of BENCHMARK.json")
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
