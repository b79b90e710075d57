"""Machine facts and a fixed machine-speed probe, recorded beside results.

The probe is never gated on: it lets a reader tell drift of the machine
from a regression of the code by comparing probe times between runs.
"""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import numpy as np


def facts(src: Path, decayalg_threads: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})

    def lib(kind):
        info = deps.get(kind, {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    src_lines = sum(p.read_bytes().count(b"\n") for p in sorted(src.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "DECAYALG_THREADS": decayalg_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": src_lines,
    }


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def probe() -> dict:
    """Best-of-3 times of a fixed pure-Python loop and a fixed complex SVD."""

    def python_loop():
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) & 0xFFFFFFFF
        return acc

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
    return {
        "python_loop_s": _best_of(python_loop),
        "complex_svd_s": _best_of(lambda: np.linalg.svd(a, compute_uv=False)),
    }
