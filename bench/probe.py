"""Machine-speed probe, drift correction, thread guard and environment record.

The sandbox's speed drifts by tens of percent between back-to-back runs.
A fixed probe, built from the same two kinds of work the program does
(pure-Python dict handling and small dense ``eigh``), runs right before
and right after each round; the round's wall time is scaled by
``P_REF_S / probe_time``, with the mean of the two probes, and so reads as
seconds on the reference machine.

The probe uses only this file's code and the ``eigh`` captured at import,
before any tracing wraps ``numpy.linalg``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import threading
import time
from pathlib import Path

import numpy as np

# Median probe time on the reference machine (2 vCPUs, Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31 on 1 thread).  It only fixes the unit of the
# corrected timings; a change that claims a speed-up must never re-measure it.
P_REF_S = 0.019

_eigh = np.linalg.eigh
_rng = np.random.default_rng(20201218)
_MATS = []
for _ in range(96):
    _m = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
    _MATS.append((_m + _m.conj().T) / 2.0)
_DICT_ITEMS = 18000


def _probe_work() -> float:
    d: dict[tuple[int, int], int] = {}
    for i in range(_DICT_ITEMS):
        key = ((i * 7919) % 1009, i % 13)
        d[key] = d.get(key, 0) + i
    total = float(sum(v for k, v in d.items() if k[1] != 3))
    for m in _MATS:
        total += float(_eigh(m)[0][0])
    return total


def probe() -> float:
    """Wall time of one fixed unit of work, in seconds."""
    t0 = time.perf_counter()
    _probe_work()
    return time.perf_counter() - t0


def corrected(raw_s: float, probe_s: float, p_ref_s: float = P_REF_S) -> float:
    """A wall time rescaled to the reference machine speed."""
    return raw_s * p_ref_s / probe_s


def spread(values: list[float]) -> float:
    """p90 / p10 of a sample: 1.0 means no drift within the run."""
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[-1] / deciles[0]


# -- thread guard -----------------------------------------------------------------


def _openblas():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn
    return None


_blas_threads = _openblas()


def blas_threads() -> int | None:
    """OpenBLAS's current thread count, when numpy's bundled OpenBLAS can be queried."""
    return None if _blas_threads is None else int(_blas_threads())


def native_threads() -> int | None:
    task = Path("/proc/self/task")
    return len(list(task.iterdir())) if task.is_dir() else None


class GuardError(RuntimeError):
    """The program changed the conditions the probe correction relies on."""


class ThreadGuard:
    """Fails a run when threads outlive a round or the BLAS thread setting moves,
    since either would slow the probe and flatter the corrected numbers."""

    def __init__(self, thread_vars: tuple[str, ...]) -> None:
        self.thread_vars = thread_vars
        self.baseline = self.snapshot()

    def snapshot(self) -> dict:
        return {
            "python_threads": threading.active_count(),
            "native_threads": native_threads(),
            "blas_threads": blas_threads(),
            "env": {v: os.environ.get(v) for v in self.thread_vars},
        }

    def check(self) -> None:
        now = self.snapshot()
        if now != self.baseline:
            raise GuardError(f"thread state changed between rounds: {self.baseline} -> {now}")


def environment(seed: int, thread_vars: tuple[str, ...]) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "thread_vars": {v: os.environ.get(v) for v in thread_vars},
        "blas_threads": blas_threads(),
        "seed": seed,
        "P_ref_s": P_REF_S,
    }
