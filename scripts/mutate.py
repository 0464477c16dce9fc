"""Run the recorded mutations of the library against the tests that should catch them.

    python3 scripts/mutate.py [--only NAME]

Each entry of ``MUTATIONS`` names a file under ``src/``, an exact old text
that must occur there once, its replacement, and the test files that should
fail.  For each entry the script copies the tree to a temporary directory,
applies the edit there and runs ``pytest -x -q -p no:cacheprovider`` on
those files.  A mutation is killed when a test fails (pytest's exit status
1), survived when the tests pass, stale when its old text does not occur
exactly once, and an error on any other exit status.  One line is printed
per mutation, with the failing test of a killed one, then the counts; the
exit status is 1 unless every mutation run was killed.  The tree itself is
never edited.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    path: str  # relative to the root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest arguments, relative to the root
    why: str  # what the mutation breaks


LATTICE, DYNAMICS = "src/groupoidqm/lattice.py", "src/groupoidqm/dynamics.py"

MUTATIONS = [
    Mutation(
        "verdict-margin-zero", LATTICE, "_PIN_MARGIN = 1e-6", "_PIN_MARGIN = 0.0", ("tests/test_lattice.py",),
        "the verdict gives the closed form 1 to a pair whose witness angle the meets pin and the Gram does not"),
    Mutation(
        "verdict-witness-residual-not-computed", LATTICE,
        "res[w] = worst(ui[w:w + 1], uj[w:w + 1], law)[0]", "pass", ("tests/test_lattice.py",),
        "the witness's residual is the closed form, not its meets'"),
    Mutation(
        "verdict-every-residual-computed", LATTICE, "    if joint:  # the closed form 1;", "    if False:  # the closed form 1;",
        ("tests/test_lattice.py",), "the verdict takes the meets of every unpinned pair, as check_boolean does"),
    Mutation(
        "pins-on-mu", LATTICE,
        "far = np.where((mu * mu >= 1.0 - MEET_PIN_TOL) | ((1.0 - mu) ** 2 >= 1.0 - MEET_PIN_TOL)",
        "far = np.where((mu >= 1.0 - MEET_PIN_TOL) | (1.0 - mu >= 1.0 - MEET_PIN_TOL)", ("tests/test_lattice.py",),
        "the Gram pins μ where the meets pin μ², so cos² θ = 1 − 7.1e-13 counts as compatible"),
    Mutation(
        "order-as-one-minus-sigma-squared", LATTICE,
        "on[idx[a[t] + s.start], idx[c[t]]] = ~_exceeds(u[a[t] + s.start] - u[c[t]] @ _adjoint(gram[a[t], c[t]]), tol)",
        "on[idx[a[t] + s.start], idx[c[t]]] = True", ("tests/test_lattice.py",),
        "the order is decided by tr P_i P_j alone, which cannot resolve sin θ = 4e-10 from 2e-9"),
    Mutation(
        "sigma-min-from-frobenius", DYNAMICS, "return np.stack([top, a * c / top], axis=1)",
        "return np.stack([top, np.sqrt(np.maximum(a2 + b * b + c * c - top * top, 0.0))], axis=1)",
        ("tests/test_dynamics.py",), "σ_min = √(‖M‖_F² − σ_max²) loses half the digits of a near-product state"),
    Mutation(
        "offblock-prefix-free", DYNAMICS,
        """    for gram in grams:
        total += np.einsum("...xy,...xy->...", prefix.conj(), gram).real  # tr(P A_c), as both are Hermitian
        prefix = prefix + gram
    return 2.0 * total""",
        """    total -= np.einsum("...xy,...xy->...", prefix.conj(), prefix).real
    for gram in grams:
        total -= np.einsum("...xy,...xy->...", gram.conj(), gram).real
        prefix = prefix + gram
    return total + np.einsum("...xy,...xy->...", prefix.conj(), prefix).real""",
        ("tests/test_dynamics.py",), "tr(S²) − Σ tr(A_b²) subtracts O(1) terms from a small off-block mass"),
    Mutation(
        "trial-chunks-count-t-times-d", DYNAMICS,
        "_chunks(trials, jobs, (1 + da if separability else 1) * times.size * da * db)",
        "_chunks(trials, jobs, times.size * da * db)", ("tests/test_dynamics.py",),
        "a separability trial's chunk counts one propagated start, not its 1 + d_A"),
]


def occurrences(m: Mutation, root: Path = ROOT) -> int:
    return (root / m.path).read_text(encoding="utf-8").count(m.old)


def run(m: Mutation) -> tuple[str, str]:
    """('killed', 'survived', 'stale' or 'error', the failing test or '') of one mutation, on a mutated copy of the tree."""
    if occurrences(m) != 1:
        return "stale", ""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", ".bench_work", ".hypothesis", ".pytest_cache", "__pycache__", "BENCH_*.json"))
        target = tree / m.path
        target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests]
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        return "error", done.stdout.strip().splitlines()[-1] if done.stdout.strip() else done.stderr.strip()
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return ("killed", failed[0] if failed else "") if done.returncode else ("survived", "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=[m.name for m in MUTATIONS], help="run this mutation alone")
    args = parser.parse_args(argv)
    counts: dict[str, int] = {}
    for m in MUTATIONS:
        if args.only in (None, m.name):
            outcome, test = run(m)
            counts[outcome] = counts.get(outcome, 0) + 1
            print(f"{outcome:8}  {m.name}: {m.why}" + (f" [{test}]" if test else ""), flush=True)
    print(", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 1 if counts.keys() - {"killed"} else 0


if __name__ == "__main__":
    sys.exit(main())
