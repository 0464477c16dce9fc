"""Time `classicality_verdict` in two checkouts over a ladder of shapes, and compare what it decides.

    python3 scripts/ladder_verdict.py OLD NEW

OLD and NEW are checkout roots, each with ``src/groupoidqm``.  Each side
runs ``classicality_verdict`` with its defaults (5 random samples, seed 42,
the left-regular representation) on ``pair_groupoid(n)`` for n = 8, 12, 16,
20, 24, 32, 48 and 64, the disjoint unions of 5 copies of S3 and of 20 and
50 copies of Z3, and on S4.  OLD runs only up to pair(32): the meet-based
engine takes about 25 s there and builds an (n, n, n) tensor.  Both
checkouts are loaded into one process, with BLAS pinned to one thread, and
their calls alternate, each side first in every other round, so neither
side pays for running second; every figure is the fastest of ``--repeats``
calls.  Each rung's peak RSS (``VmHWM`` on Linux) comes from a fresh process
per side that builds the shape and runs one verdict.  For each shape the sides
are compared, on the verdicts of their last calls, on the lattice summary,
the three routes' flags and the witness: its law, operands and member
labels, and the difference of its residuals.
The result is printed as one JSON object.
"""

from __future__ import annotations

import os

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from ladder_measure import fastest_alternating, import_package  # noqa: E402

# name, builder, and whether OLD runs there
SHAPES = [
    *((f"pair({n})", lambda gq, n=n: gq.pair_groupoid(n), n <= 32) for n in (8, 12, 16, 20, 24, 32, 48, 64)),
    ("5 x S3", lambda gq: gq.disjoint_union([gq.symmetric_group(3)] * 5), True),
    ("20 x Z3", lambda gq: gq.disjoint_union([gq.cyclic_group(3)] * 20), True),
    ("50 x Z3", lambda gq: gq.disjoint_union([gq.cyclic_group(3)] * 50), True),
    ("S4", lambda gq: gq.symmetric_group(4), True),
]

# run in a fresh process: the peak RSS of one verdict on one shape, from one checkout.  It reads VmHWM, the
# high-water mark of the process's own memory since exec; ru_maxrss would also count the forking parent's.
RSS_RUN = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[2]]
import groupoidqm as gq
from ladder_verdict import SHAPES
gq.classicality_verdict(dict((name, build) for name, build, _ in SHAPES)[sys.argv[3]](gq))
print(next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmHWM:")) / 1024)
"""


def peak_rss_mb(root: Path, name: str) -> float:
    """Peak RSS in MB of a fresh process that runs one verdict on shape ``name`` with the checkout at ``root``."""
    out = subprocess.run([sys.executable, "-c", RSS_RUN, str(root.resolve()), str(Path(__file__).resolve().parent), name],
                         check=True, capture_output=True, text=True).stdout
    return round(float(out), 1)


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
    """Per shape: both sides' fastest of ``repeats`` alternating calls (NEW's alone where OLD does not run), their
    peak RSS, and whether they decide alike."""
    old, new = import_package(old_root), import_package(new_root)
    result = {}
    for name, build, with_old in SHAPES:
        sides = [(old, build(old)), (new, build(new))] if with_old else [(new, build(new))]
        last = [None] * len(sides)

        def run(k):
            last[k] = None  # a side's previous verdict is freed before its next call
            last[k] = sides[k][0].classicality_verdict(sides[k][1])

        best = fastest_alternating([lambda k=k: run(k) for k in range(len(sides))], repeats)
        b = decided(last[-1])
        row = {"transitions": sides[-1][1].n_transitions, "old_s": best[0] if with_old else None, "new_s": best[-1],
               "old_rss_mb": peak_rss_mb(old_root, name) if with_old else None, "new_rss_mb": peak_rss_mb(new_root, name),
               "summary": b["summary"], "consistent": last[-1].consistent}
        if with_old:
            a = decided(last[0])
            row["same_decision"] = all(a[k] == b[k] for k in ("summary", "routes", "witness"))
            row["residual_difference"] = (None if a["residual"] is None or b["residual"] is None
                                          else abs(a["residual"] - b["residual"]))
        result[name] = row
        del sides, last
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
