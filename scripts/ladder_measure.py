"""Time the `measure` quantities and the positivity test in two checkouts, over a ladder of sizes.

    python3 scripts/ladder_measure.py OLD NEW

OLD and NEW are checkout roots, each with ``src/groupoidqm``.  For k = 4,
7, 10 and 14 disjoint history sets on ``pair_groupoid(12)`` (a pure state)
and on ``pair_groupoid(4) × Z3`` (a full-rank amplitude table), each side
computes every row that ``measure`` prints through the checkout's own
route: ``measure_rows`` where the checkout has it, else the loop of
``quantum_measure``, ``decoherence_functional`` and ``interference`` calls
that ``measure`` made before it.  Then, for ``pair_groupoid(n)`` densities
with n = 8, 12, 16 and 20 (pure and rank two), each side runs
``state_from_density``.  Every figure is the fastest of ``--repeats``
timed calls in one process, with BLAS pinned to one thread; rows are
compared between the sides.  The result is printed as one JSON object.
"""

from __future__ import annotations

import os

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SET_COUNTS = (4, 7, 10, 14)
PAIR_SIZES = (8, 12, 16, 20)


def import_package(root: Path):
    src = str((root / "src").resolve())
    for name in [n for n in sys.modules if n == "groupoidqm" or n.startswith("groupoidqm.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return importlib.import_module("groupoidqm")
    finally:
        sys.path.remove(src)


def loop_rows(gq, s, sets):
    """The rows as ``measure`` computed them before the Gram kernel: one call per quantity."""
    rows = [("mu", (k,), complex(gq.quantum_measure(s, a))) for k, a in enumerate(sets)]
    for (i, a), (j, b) in itertools.combinations(enumerate(sets), 2):
        rows.append(("D", (i, j), gq.decoherence_functional(s, a, b)))
        if not set(a) & set(b):
            rows.append(("I2", (i, j), complex(gq.interference(s, a, b))))
    for (i, a), (j, b), (k, c) in itertools.combinations(enumerate(sets), 3):
        if not (set(a) & set(b) or set(a) & set(c) or set(b) & set(c)):
            rows.append(("I3", (i, j, k), complex(gq.interference(s, a, b, c))))
    return rows


def fastest(f, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


def shapes(gq):
    rng = np.random.default_rng(1)
    g = gq.pair_groupoid(12)
    v = rng.standard_normal(g.n_transitions) + 1j * rng.standard_normal(g.n_transitions)
    yield "pair(12) pure", gq.pure_state(v / np.linalg.norm(v), g), 16
    g = gq.direct_product(gq.pair_groupoid(4), gq.cyclic_group(3))
    m = rng.standard_normal((g.n_transitions,) * 2) + 1j * rng.standard_normal((g.n_transitions,) * 2)
    full = m @ m.conj().T
    yield "pair(4)xZ3 phi", gq.state_from_phi(gq.state_from_density(full / np.trace(full).real, g).phi, g), 6


def densities(gq):
    for n in PAIR_SIZES:
        g = gq.pair_groupoid(n)
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((g.n_transitions, 2)) + 1j * rng.standard_normal((g.n_transitions, 2)))
        pure = np.outer(q[:, 0], q[:, 0].conj())
        mixed = 0.3 * pure + 0.7 * np.outer(q[:, 1], q[:, 1].conj())
        yield n, g, {"pure": pure, "rank two": (mixed + mixed.conj().T) / 2.0}


def run_side(root: Path, repeats: int) -> tuple[dict, dict]:
    gq = import_package(root)
    kernel = getattr(gq.states, "measure_rows", None)
    timings, rows = {}, {}
    for name, s, size in shapes(gq):
        n = s.groupoid.n_transitions
        for k in SET_COUNTS:
            ids = np.random.default_rng(k).permutation(n)
            width = min(size, n // k)
            sets = [sorted(ids[j * width:(j + 1) * width].tolist()) for j in range(k)]
            route = (lambda: kernel(s, sets)) if kernel else (lambda: loop_rows(gq, s, sets))
            rows[f"{name} k={k}"] = route()
            timings[f"{name} k={k}"] = {"sets": k, "set_size": width, "rows": len(rows[f"{name} k={k}"]),
                                        "seconds": fastest(route, repeats)}
    for n, g, rhos in densities(gq):
        for label, rho in rhos.items():
            timings[f"state_from_density pair({n}) {label}"] = {
                "d": g.n_transitions, "seconds": fastest(lambda: gq.state_from_density(rho, g), max(3, repeats // 10)),
            }
    return timings, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--repeats", type=int, default=50, help="timed calls per figure (default 50)")
    args = parser.parse_args(argv)
    (old, old_rows), (new, new_rows) = run_side(args.old, args.repeats), run_side(args.new, args.repeats)
    result = {}
    for key in old:
        result[key] = {"old_s": old[key]["seconds"], "new_s": new[key]["seconds"],
                       **{k: v for k, v in new[key].items() if k != "seconds"}}
        if key in old_rows:
            a, b = old_rows[key], new_rows[key]
            result[key]["rows_equal"] = [r[:2] for r in a] == [r[:2] for r in b]
            result[key]["worst_difference"] = max(abs(complex(x[2]) - complex(y[2])) for x, y in zip(a, b))
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
