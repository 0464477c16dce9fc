"""Time the `measure` inputs and quantities in two checkouts, over a ladder of sizes.

    python3 scripts/ladder_measure.py OLD NEW

OLD and NEW are checkout roots, each with ``src/groupoidqm``.  Both are
loaded into one process, with BLAS pinned to one thread, and their calls
alternate, each side first in every other round, so neither side pays for
running second; every figure is the fastest of its rounds.  The rows:

- every row that ``measure`` prints, for k = 4, 7, 10 and 14 disjoint
  history sets on ``pair_groupoid(12)`` (a pure state) and on
  ``pair_groupoid(4) × Z3`` (a full-rank amplitude table), each side
  through its own route: ``measure_rows`` where the checkout has it, else
  the loop of ``quantum_measure``, ``decoherence_functional`` and
  ``interference`` calls that ``measure`` made before it;
- ``state_from_density`` on ``pair_groupoid(n)`` densities, n = 8, 12, 16
  and 20, pure and rank two;
- ``pure_state`` on a left-regular unit vector of ``pair_groupoid(n)``,
  n = 8, 12, 16, 24 and 32;
- ``parse_groupoid_text`` with its axiom check on the text of
  ``pair_groupoid(n)``, n = 8, 12, 16 and 20.

Rows and amplitudes are compared between the sides.  The result is
printed as one JSON object.
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
DENSITY_SIZES = (8, 12, 16, 20)
VECTOR_SIZES = (8, 12, 16, 24, 32)
TEXT_SIZES = (8, 12, 16, 20)


def import_package(root: Path):
    src = str((root / "src").resolve())
    for name in [n for n in sys.modules if n == "groupoidqm" or n.startswith("groupoidqm.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        return importlib.import_module("groupoidqm")
    finally:
        sys.path.remove(src)


def fastest_alternating(calls, repeats: int) -> list[float]:
    """The fastest of ``repeats`` timed calls of each side, the sides alternating which goes first."""
    best = [float("inf")] * len(calls)
    for r in range(repeats):
        for k in range(len(calls)) if r % 2 == 0 else reversed(range(len(calls))):
            t0 = time.perf_counter()
            calls[k]()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best


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


def rows_route(gq, s, sets):
    kernel = getattr(gq.states, "measure_rows", None)
    return (lambda: kernel(s, sets)) if kernel else (lambda: loop_rows(gq, s, sets))


def measure_cases(gq):
    """(name, facts, call) for every ``measure`` row set."""
    rng = np.random.default_rng(1)
    g = gq.pair_groupoid(12)
    v = rng.standard_normal(g.n_transitions) + 1j * rng.standard_normal(g.n_transitions)
    pure = gq.pure_state(v / np.linalg.norm(v), g)
    g = gq.direct_product(gq.pair_groupoid(4), gq.cyclic_group(3))
    m = rng.standard_normal((g.n_transitions,) * 2) + 1j * rng.standard_normal((g.n_transitions,) * 2)
    full = m @ m.conj().T
    table = gq.state_from_phi(gq.state_from_density(full / np.trace(full).real, g).phi, g)
    for name, s, size in (("pair(12) pure", pure, 16), ("pair(4)xZ3 phi", table, 6)):
        n = s.groupoid.n_transitions
        for k in SET_COUNTS:
            ids = np.random.default_rng(k).permutation(n)
            width = min(size, n // k)
            sets = [sorted(ids[j * width:(j + 1) * width].tolist()) for j in range(k)]
            yield f"{name} k={k}", {"sets": k, "set_size": width}, rows_route(gq, s, sets)


def state_cases(gq):
    """(name, facts, call) for ``state_from_density``, ``pure_state`` and ``parse_groupoid_text``."""
    for n in DENSITY_SIZES:
        g = gq.pair_groupoid(n)
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((g.n_transitions, 2)) + 1j * rng.standard_normal((g.n_transitions, 2)))
        pure = np.outer(q[:, 0], q[:, 0].conj())
        mixed = 0.3 * pure + 0.7 * np.outer(q[:, 1], q[:, 1].conj())
        for label, rho in (("pure", pure), ("rank two", (mixed + mixed.conj().T) / 2.0)):
            yield f"state_from_density pair({n}) {label}", {"d": g.n_transitions}, \
                (lambda rho=rho, g=g: gq.state_from_density(rho, g))
    for n in VECTOR_SIZES:
        g = gq.pair_groupoid(n)
        v = np.random.default_rng(n).standard_normal(g.n_transitions) * (1 + 0j)
        v[1::2] *= 1j
        yield f"pure_state pair({n})", {"d": g.n_transitions}, (lambda v=v / np.linalg.norm(v), g=g: gq.pure_state(v, g))
    for n in TEXT_SIZES:
        text = gq.dump_groupoid_text(gq.pair_groupoid(n))
        yield f"parse_groupoid_text pair({n})", {"lines": text.count("\n")}, (lambda t=text: gq.parse_groupoid_text(t))


def same(a, b) -> dict:
    """How two sides' results of one call compare."""
    if isinstance(a, list):  # measure rows
        return {"rows_equal": [r[:2] for r in a] == [r[:2] for r in b],
                "worst_difference": max(abs(complex(x[2]) - complex(y[2])) for x, y in zip(a, b))}
    if hasattr(a, "phi"):  # a state
        return {"phi_identical": list(a.phi.values()) == list(b.phi.values())}
    return {"tables_equal": bool(np.array_equal(a.table, b.table))}


def compare(old_root: Path, new_root: Path, repeats: int) -> dict:
    old, new = import_package(old_root), import_package(new_root)
    result = {}
    cases = zip(itertools.chain(measure_cases(old), state_cases(old)), itertools.chain(measure_cases(new), state_cases(new)))
    for (name, facts, old_call), (_, _, new_call) in cases:
        rounds = repeats if "sets" in facts else max(3, repeats // 10)
        old_s, new_s = fastest_alternating((old_call, new_call), rounds)
        result[name] = {"old_s": old_s, "new_s": new_s, **facts, **same(old_call(), new_call())}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--repeats", type=int, default=50,
                        help="timed calls per side for each measure figure, a tenth (at least 3) for the others (default 50)")
    args = parser.parse_args(argv)
    print(json.dumps(compare(args.old, args.new, args.repeats), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
