"""Time `classicality_verdict` in two checkouts over a ladder of shapes, and compare what it decides.

    python3 scripts/ladder_verdict.py OLD NEW

OLD and NEW are checkout roots, each with ``src/groupoidqm``.  Each side
runs ``classicality_verdict`` with its defaults (5 random samples, seed 42,
the left-regular representation) on ``pair_groupoid(n)`` for n = 8, 12, 16
and 20, the disjoint unions of 5 copies of S3 and of 20 and 50 copies of
Z3, and on S4.  Both checkouts are loaded into one process, with BLAS
pinned to one thread, and their calls alternate, each side first in every
other round, so neither side pays for running second; every figure is the
fastest of ``--repeats`` calls.  For each shape the sides are compared, on
the verdicts of their last calls, on the lattice summary, the three routes'
flags and the witness: its law, operands and member labels, and the
difference of its residuals.
The result is printed as one JSON object.
"""

from __future__ import annotations

import os

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from ladder_measure import fastest_alternating, import_package  # noqa: E402


def shapes(gq):
    yield "pair(8)", gq.pair_groupoid(8)
    yield "pair(12)", gq.pair_groupoid(12)
    yield "pair(16)", gq.pair_groupoid(16)
    yield "pair(20)", gq.pair_groupoid(20)
    yield "5 x S3", gq.disjoint_union([gq.symmetric_group(3)] * 5)
    yield "20 x Z3", gq.disjoint_union([gq.cyclic_group(3)] * 20)
    yield "50 x Z3", gq.disjoint_union([gq.cyclic_group(3)] * 50)
    yield "S4", gq.symmetric_group(4)


def decided(v) -> dict:
    """What a verdict decides: its summary, its routes' flags and its witness."""
    w = v.witness
    return {
        "summary": v.report.summary(),
        "routes": [v.boolean_lattice, v.totally_disconnected, v.abelian_isotropy, v.abelian_algebra],
        "witness": None if w is None else [w.law, list(w.operands), [v.propositions[i].label for i in w.operands]],
        "residual": None if w is None else w.residual,
    }


def compare(old_root: Path, new_root: Path, repeats: int) -> dict:
    """Per shape: both sides' fastest of ``repeats`` alternating calls, and whether they decide alike."""
    old, new = import_package(old_root), import_package(new_root)
    result = {}
    for (name, g_old), (_, g_new) in zip(shapes(old), shapes(new)):
        last = [None, None]

        def run(k, gq, g):
            last[k] = None  # a side's previous verdict is freed before its next call
            last[k] = gq.classicality_verdict(g)

        best = fastest_alternating((lambda: run(0, old, g_old), lambda: run(1, new, g_new)), repeats)
        a, b = (decided(v) for v in last)
        result[name] = {
            "transitions": g_new.n_transitions, "old_s": best[0], "new_s": best[1], "summary": b["summary"],
            "same_decision": all(a[k] == b[k] for k in ("summary", "routes", "witness")),
            "residual_difference": None if a["residual"] is None or b["residual"] is None
            else abs(a["residual"] - b["residual"]),
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--repeats", type=int, default=4, help="timed calls per side and shape (default 4)")
    args = parser.parse_args(argv)
    print(json.dumps(compare(args.old, args.new, args.repeats), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
