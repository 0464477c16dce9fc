"""Time one layer of the library in two checkouts over a ladder of sizes, and compare what the sides compute.

    python3 scripts/ladder.py OLD NEW --layer {groups,measure,verdict,theorem} [--repeats N]

OLD and NEW are checkout roots, each with ``src/groupoidqm``; a root whose
package is missing or would come from elsewhere (say ``PYTHONPATH``) is an
error that names it.  Both are loaded into one process, with BLAS pinned
to one thread, and their calls alternate, each side first in every other
round; every time is the fastest of its rounds.  Every row also gives both
sides' peak RSS (``VmHWM``) of a fresh process that builds the row's input
and makes its call once, and says whether the sides agree.  The rows are
``GROUP_ROWS`` (group generators, ``group_groupoid``, ``validate`` and
character tables), ``MEASURE_ROWS`` (``measure``'s rows, state
construction, ``hamiltonian_from_matrix`` and ``parse_groupoid_text``), ``VERDICT_ROWS``
(``classicality_verdict``, with the matrices each side's ``lattice._meet_m``
took in one call) and ``THEOREM_ROWS`` (20 trials of each theorem
check on the default grid).  The result is printed as one JSON object.
Peak RSS depends on where a checkout sits, so place OLD and NEW side by
side under one directory.
"""

from __future__ import annotations

import os

os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

import numpy as np  # noqa: E402


def load_package(root: Path):
    """A fresh import of ``groupoidqm`` from ``root/src``; an ImportError naming ``root`` if it is not imported from there."""
    src = (root / "src").resolve()
    for name in [n for n in sys.modules if n == "groupoidqm" or n.startswith("groupoidqm.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        gq = importlib.import_module("groupoidqm")
    except ModuleNotFoundError as e:
        if e.name != "groupoidqm":
            raise
        gq = None
    finally:
        sys.path.remove(str(src))
    where = getattr(gq, "__file__", None)
    if where is None or not Path(where).resolve().is_relative_to(src):
        raise ImportError(f"no groupoidqm in the checkout at {root}: imported {where or 'nothing'}, not from {src}")
    return gq


def fastest_alternating(calls, repeats: int) -> tuple[list[float], list]:
    """The fastest of ``repeats`` timed calls of each side, the sides alternating which goes first, and each side's
    last result; a side's previous result is freed before its next call."""
    best, last = [float("inf")] * len(calls), [None] * len(calls)
    for r in range(repeats):
        for k in range(len(calls)) if r % 2 == 0 else reversed(range(len(calls))):
            last[k] = None
            t0 = time.perf_counter()
            last[k] = calls[k]()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best, last


class Row(NamedTuple):
    name: str
    facts: dict
    build: Callable  # the checkout's package -> the call to time, its input built
    agree: Callable  # (OLD's result, or None where OLD does not run, NEW's result) -> the fields that compare them
    old: bool = True  # whether OLD runs the row
    few: bool = False  # timed a tenth as often as --repeats asks, at least 3 times


# -- groups ------------------------------------------------------------------


def outside_symmetric_table(n: int) -> list[list[int]]:
    """The table of S_n one product at a time ("q first, then p" is p∘q), relabelled by a permutation seeded by n."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    label = np.random.default_rng(n).permutation(len(perms)).tolist()
    table = [[0] * len(perms) for _ in perms]
    for p, q in itertools.product(perms, repeat=2):
        table[label[index[p]]][label[index[q]]] = label[index[tuple(p[k] for k in q)]]
    return table


def fields(g) -> list:
    """Everything ``Groupoid.__eq__`` compares, in a form two checkouts' groupoids can share."""
    arrays = (g.source, g.target, g.inverse_table, g.table)
    return [list(g.object_labels), sorted(g.unit_of.items())] + [a.tobytes() for a in arrays]


def characters(gq, g) -> list:
    """Every object's character table and the diagonalising unitary, as bytes and tuples."""
    tables = [gq.isotropy_character_table(g, x) for x in range(g.n_objects)]
    u, labels = gq.character_diagonalization(g)
    return [(t.loop_ids, t.values.tobytes(), t.exponents, t.orders) for t in tables] + [u.tobytes(), labels]


def same_by(key: Callable) -> Callable:
    return lambda a, b: {"same": key(a) == key(b)}


def abelian(gq, name: str, orders: tuple[int, ...]):
    """The direct product of cyclic groups of ``orders``, or their disjoint union where ``name`` has a ``+``."""
    groups = [gq.cyclic_group(n) for n in orders]
    return gq.disjoint_union(groups) if "+" in name else functools.reduce(gq.direct_product, groups)


GROUP_ROWS = [
    *(Row(f"symmetric_group({n})", {}, lambda gq, n=n: lambda: gq.symmetric_group(n), same_by(fields)) for n in (3, 4, 5, 6)),
    *(Row(f"cyclic_group({n})", {}, lambda gq, n=n: lambda: gq.cyclic_group(n), same_by(fields)) for n in (12, 60, 240)),
    *(Row(f"discrete_groupoid({n})", {}, lambda gq, n=n: lambda: gq.discrete_groupoid(n), same_by(fields)) for n in (64, 512)),
    *(Row(f"group_groupoid(outside S{n})", {}, lambda gq, n=n: lambda t=outside_symmetric_table(n): gq.group_groupoid(t),
          same_by(fields)) for n in (4, 5)),
    *(Row(f"validate({name})", {}, lambda gq, build=build: lambda g=build(gq): gq.validate(g), same_by(str))
      for name, build in (("pair(12)", lambda gq: gq.pair_groupoid(12)), ("pair(20)", lambda gq: gq.pair_groupoid(20)),
                          ("S5", lambda gq: gq.symmetric_group(5)))),
    *(Row(f"characters({name})", {}, lambda gq, name=name, orders=orders: lambda g=abelian(gq, name, orders): characters(gq, g),
          same_by(lambda x: x))
      for name, orders in (("Z4", (4,)), ("Z6", (6,)), ("Z2^2", (2, 2)), ("Z2xZ4", (2, 4)), ("Z3^2", (3, 3)),
                           ("Z2^3", (2, 2, 2)), ("Z2+Z3+Z4", (2, 3, 4)))),
]


# -- measure -----------------------------------------------------------------


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


def measured_states(gq) -> list:
    """A pure state on pair(12) and a full-rank amplitude table on pair(4) × Z3, both from one seeded stream."""
    rng = np.random.default_rng(1)
    g = gq.pair_groupoid(12)
    v = rng.standard_normal(g.n_transitions) + 1j * rng.standard_normal(g.n_transitions)
    pure = gq.pure_state(v / np.linalg.norm(v), g)
    g = gq.direct_product(gq.pair_groupoid(4), gq.cyclic_group(3))
    m = rng.standard_normal((g.n_transitions,) * 2) + 1j * rng.standard_normal((g.n_transitions,) * 2)
    full = m @ m.conj().T
    return [pure, gq.state_from_phi(gq.state_from_density(full / np.trace(full).real, g).phi, g)]


def rows_call(gq, which: int, k: int, width: int):
    """``measure``'s rows for ``k`` disjoint sets of ``width`` seeded transitions of state ``which``, by the checkout's route."""
    s = measured_states(gq)[which]
    ids = np.random.default_rng(k).permutation(s.groupoid.n_transitions)
    sets = [sorted(ids[j * width:(j + 1) * width].tolist()) for j in range(k)]
    kernel = getattr(gq.states, "measure_rows", None)
    return (lambda: kernel(s, sets)) if kernel else (lambda: loop_rows(gq, s, sets))


def densities(gq, n: int) -> dict:
    """A pure and a rank-two density on pair(n), seeded by n."""
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n * n, 2)) + 1j * rng.standard_normal((n * n, 2)))
    pure = np.outer(q[:, 0], q[:, 0].conj())
    mixed = 0.3 * pure + 0.7 * np.outer(q[:, 1], q[:, 1].conj())
    return {"pure": pure, "rank two": (mixed + mixed.conj().T) / 2.0}


def unit_vector(n: int) -> np.ndarray:
    v = np.random.default_rng(n).standard_normal(n * n) * (1 + 0j)
    v[1::2] *= 1j
    return v / np.linalg.norm(v)


def rows_agree(a, b) -> dict:
    return {"rows_equal": [r[:2] for r in a] == [r[:2] for r in b],
            "worst_difference": max(abs(complex(x[2]) - complex(y[2])) for x, y in zip(a, b))}


def phi_agree(a, b) -> dict:
    return {"phi_identical": list(a.phi.values()) == list(b.phi.values())}


def hermitian_image(gq, g, rep: str) -> np.ndarray:
    """The image in ``rep`` of a + a* for a random element a of g's algebra, seeded by g's size."""
    rng = np.random.default_rng(g.n_transitions)
    a = gq.AlgebraElement(dict(enumerate(rng.standard_normal(g.n_transitions) + 1j * rng.standard_normal(g.n_transitions))))
    return gq.representation_matrix(a + gq.involution(a, g), g, rep).matrix


def fit_call(gq, g, rep: str):
    """``hamiltonian_from_matrix`` on ``hermitian_image``: (accepted, the coefficient of every transition or None)."""
    m = hermitian_image(gq, g, rep)

    def call():
        try:
            h = gq.hamiltonian_from_matrix(m, g, rep)
        except ValueError:
            return False, None
        return True, np.array([h.element.get(t) for t in range(g.n_transitions)])

    return call


def fits_agree(a, b) -> dict:
    row = {"accepted": b[0]}
    if a is not None:
        worst = float(np.abs(a[1] - b[1]).max()) if a[0] and b[0] else None
        row.update(same_fit=a[0] == b[0] and (worst is None or worst <= 1e-12), worst_difference=worst)
    return row


def tables_agree(a, b) -> dict:
    return {"tables_equal": bool(np.array_equal(a.table, b.table))}


# name, d, transitions, groupoid and representation
FIT_SHAPES = [
    *((f"pair({n})", n * n, n * n, lambda gq, n=n: gq.pair_groupoid(n), "left-regular") for n in (8, 12, 16, 32)),
    ("S3 x pair(4)", 4, 96, lambda gq: gq.direct_product(gq.symmetric_group(3), gq.pair_groupoid(4)), "fundamental"),
]

MEASURE_ROWS = [
    *(Row(f"{name} k={k}", {"sets": k, "set_size": min(size, d // k)},
          lambda gq, which=which, k=k, width=min(size, d // k): rows_call(gq, which, k, width), rows_agree)
      for which, (name, d, size) in enumerate((("pair(12) pure", 144, 16), ("pair(4)xZ3 phi", 48, 6)))
      for k in (4, 7, 10, 14)),
    *(Row(f"state_from_density pair({n}) {label}", {"d": n * n},
          lambda gq, n=n, label=label: lambda g=gq.pair_groupoid(n), rho=densities(gq, n)[label]: gq.state_from_density(rho, g),
          phi_agree, few=True) for n in (8, 12, 16, 20) for label in ("pure", "rank two")),
    *(Row(f"pure_state pair({n})", {"d": n * n},
          lambda gq, n=n: lambda g=gq.pair_groupoid(n), v=unit_vector(n): gq.pure_state(v, g), phi_agree, few=True)
      for n in (8, 12, 16, 24, 32)),
    *(Row(f"hamiltonian_from_matrix {name} {rep}", {"d": d, "transitions": n},
          lambda gq, shape=shape, rep=rep: fit_call(gq, shape(gq), rep), fits_agree, few=True)
      for name, d, n, shape, rep in FIT_SHAPES),
    # pair(n)'s text has a line of objects, n² transitions, n(n + 1)/2 inverse pairs and n³ composites
    *(Row(f"parse_groupoid_text pair({n})", {"lines": 1 + n * n + n * (n + 1) // 2 + n ** 3},
          lambda gq, n=n: lambda t=gq.dump_groupoid_text(gq.pair_groupoid(n)): gq.parse_groupoid_text(t),
          tables_agree, few=True) for n in (8, 12, 16, 20, 32, 64)),
]


# -- verdict -----------------------------------------------------------------


def decision(v) -> list:
    """What a verdict decides: its summary, its routes' flags and its witness."""
    w = v.witness
    return [v.report.summary(), [v.boolean_lattice, v.totally_disconnected, v.abelian_isotropy, v.abelian_algebra],
            None if w is None else [w.law, list(w.operands), [v.propositions[i].label for i in w.operands]]]


def meets_counted(gq, call: Callable) -> Callable:
    """``call`` with the checkout's ``lattice._meet_m`` wrapped: (its result, the matrices the meets took)."""
    def counted():
        meet, rows = gq.lattice._meet_m, []

        def spy(p, q):
            rows.append(len(p))
            return meet(p, q)

        gq.lattice._meet_m = spy
        try:
            return call(), sum(rows)
        finally:
            gq.lattice._meet_m = meet
    return counted


def decided(old, new) -> dict:
    """NEW's summary, consistency and meets; with OLD, whether the decisions agree, the witness residuals' difference
    and OLD's meets.  Each side is a (verdict, meets) pair from `meets_counted`."""
    b, meets = new
    row = {"summary": b.report.summary(), "consistent": b.consistent, "new_meets": meets}
    if old is not None:
        a, meets = old
        ra, rb = (None if v.witness is None else v.witness.residual for v in (a, b))
        row.update(same_decision=decision(a) == decision(b), residual_difference=None if None in (ra, rb) else abs(ra - rb),
                   old_meets=meets)
    return row


def verdict_row(name: str, transitions: int, shape: Callable, old: bool = True) -> Row:
    return Row(name, {"transitions": transitions},
               lambda gq: meets_counted(gq, lambda g=shape(gq): gq.classicality_verdict(g)), decided, old)


VERDICT_ROWS = [
    *(verdict_row(f"pair({n})", n * n, lambda gq, n=n: gq.pair_groupoid(n), n <= 32) for n in (8, 12, 16, 20, 24, 32, 48, 64)),
    verdict_row("5 x S3", 30, lambda gq: gq.disjoint_union([gq.symmetric_group(3)] * 5)),
    *(verdict_row(f"{k} x Z3", 3 * k, lambda gq, k=k: gq.disjoint_union([gq.cyclic_group(3)] * k)) for k in (20, 50, 100, 200)),
    verdict_row("S4", 24, lambda gq: gq.symmetric_group(4)),
    *(verdict_row(f"S3 x pair({n})", 6 * n * n, lambda gq, n=n: gq.direct_product(gq.symmetric_group(3), gq.pair_groupoid(n)))
      for n in (2, 4, 8)),
]

# -- theorem -----------------------------------------------------------------

THEOREM_TRIALS = 20


def theorem_call(gq, mode: str, ga, gb):
    """``THEOREM_TRIALS`` trials of the theorem check of ``mode`` on ga × gb over the default grid."""
    check = gq.separability_theorem_check if mode == "separability" else gq.entanglement_counterexample
    return lambda: check(ga, gb, trials=THEOREM_TRIALS)


def trials_agree(a, b) -> dict:
    """NEW's verdict; with OLD, whether the verdicts and every trial's ok and onset agree, and the largest
    difference in each trial float (None where the mode records none)."""
    row = {"passed": b.passed}
    if a is not None:
        outcomes = [[(t.ok, t.onset_time) for t in r.trials] for r in (a, b)]
        row["same_trials"] = a.passed == b.passed and outcomes[0] == outcomes[1]
        for key in ("max_ratio", "max_offblock", "max_entropy"):
            pairs = [(getattr(x, key), getattr(y, key)) for x, y in zip(a.trials, b.trials)]
            row[f"{key}_difference"] = max((abs(x - y) for x, y in pairs if x is not None), default=None)
    return row


THEOREM_ROWS = [
    *(Row(f"separability discrete(2) x pair({m})", {"d": 2 * m, "transitions": 2 * m * m},
          lambda gq, m=m: theorem_call(gq, "separability", gq.discrete_groupoid(2), gq.pair_groupoid(m)), trials_agree)
      for m in (3, 8, 16, 32)),
    *(Row(f"entanglement pair(2) x pair({m})", {"d": 2 * m, "transitions": 4 * m * m},
          lambda gq, m=m: theorem_call(gq, "entanglement", gq.pair_groupoid(2), gq.pair_groupoid(m)), trials_agree)
      for m in (3, 8, 16, 32)),
    # no side has two outcomes, so the Schmidt values come from LAPACK on both sides
    Row("entanglement pair(3) x pair(3)", {"d": 9, "transitions": 81},
        lambda gq: theorem_call(gq, "entanglement", gq.pair_groupoid(3), gq.pair_groupoid(3)), trials_agree),
]

# the rows and the default --repeats of each layer
LAYERS = {
    "groups": (GROUP_ROWS, 5), "measure": (MEASURE_ROWS, 50), "verdict": (VERDICT_ROWS, 4), "theorem": (THEOREM_ROWS, 5),
}

# run in a fresh process: the peak RSS of one row's call, built and made once with one checkout.  It reads VmHWM, the
# high-water mark of the process's own memory since exec; ru_maxrss would also count the forking parent's.
RSS_RUN = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from ladder import LAYERS, load_package
next(row for row in LAYERS[sys.argv[3]][0] if row.name == sys.argv[4]).build(load_package(Path(sys.argv[2])))()
print(next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmHWM:")) / 1024)
"""


def peak_rss_mb(root: Path, layer: str, name: str) -> float:
    """Peak RSS in MB of a fresh process that builds row ``name`` of ``layer`` with the checkout at ``root`` and calls it once."""
    argv = [sys.executable, "-c", RSS_RUN, str(Path(__file__).resolve().parent), str(root.resolve()), layer, name]
    return round(float(subprocess.run(argv, check=True, capture_output=True, text=True).stdout), 1)


def compare(old_root: Path, new_root: Path, layer: str, repeats: int | None = None) -> dict:
    """Per row of ``layer``: its facts, both sides' fastest alternating calls and peak RSS (NEW's alone where OLD does
    not run), and whether the sides agree."""
    rows, default = LAYERS[layer]
    repeats = repeats or default
    old, new = load_package(old_root), load_package(new_root)
    result = {}
    for row in rows:
        best, last = fastest_alternating([row.build(gq) for gq in ((old, new) if row.old else (new,))],
                                         max(3, repeats // 10) if row.few else repeats)
        agreement = row.agree(last[0] if row.old else None, last[-1])
        del last  # both sides' results are freed before the fresh processes run
        result[row.name] = {**row.facts, "old_s": best[0] if row.old else None, "new_s": best[-1],
                            "old_rss_mb": peak_rss_mb(old_root, layer, row.name) if row.old else None,
                            "new_rss_mb": peak_rss_mb(new_root, layer, row.name), **agreement}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--layer", required=True, choices=tuple(LAYERS))
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed calls per side and row (default 5 for groups, 50 for measure, 4 for verdict, "
                        "5 for theorem); "
                        "measure's rows other than measure's own take a tenth, at least 3")
    args = parser.parse_args(argv)
    try:
        result = compare(args.old, args.new, args.layer, args.repeats)
    except ImportError as e:
        parser.error(str(e))
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
