"""Workload rounds: the inputs the benchmark writes and the checks it applies.

A round is a fixed list of ``groupoidqm`` command lines, each with a check
computed by the benchmark from its own model (``groupoids``), never from
the program.  Round ``k`` of a run with seed ``s`` is drawn from
``numpy.random.default_rng([s, k])`` alone, so a seed always gives the
same pool of rounds.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

from groupoids import Table, cyclic, decoherence, pair, phi_from_density, product, relabel, symmetric, to_text, union

WORKLOADS = ("classify", "interfere", "dynamics")

# Known program defects.  Calls that fail exactly this way are counted as
# failed and tagged with one of these kinds; any other failure makes a run
# incorrect.
# - The lattice route calls S3-shaped groupoids Boolean on some seeds at the
#   default --samples 5, while the other two routes call them non-classical.
# - At 20 trials the entanglement counterexample now and then reports
#   passed=false with 17 of 20 trials entangled: trials whose random
#   Hamiltonian has one or two terms do not entangle.
KNOWN_DEFECTS = ("classify.false-boolean", "theorem.entanglement-shortfall")
ENTANGLEMENT_SHORTFALL_FLOOR = 0.8

MEASURE_TOL = 1e-9
RESIDUAL_TOL = 1e-10
ENTROPY_TOL = 1e-12
THEOREM_TRIALS = 20
EVOLVE_STEPS = 201


@dataclass(frozen=True)
class Failure:
    kind: str
    message: str


@dataclass(frozen=True)
class Call:
    label: str
    argv: tuple[str, ...]
    check: Callable[[dict], list[Failure]]


def check_call(call: Call, code: int, out: str, err: str) -> list[Failure]:
    """Failures of one finished call: a bad exit, unreadable output, or a failed check."""
    if code != 0:
        return [Failure(f"{call.argv[0]}.exit", f"exit code {code}: {err.strip()[:200]}")]
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as e:
        return [Failure(f"{call.argv[0]}.output", f"unreadable output: {e}")]
    try:
        return call.check(payload)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        return [Failure(f"{call.argv[0]}.output", f"malformed payload: {e!r}")]


# -- classify ------------------------------------------------------------------

CLASSIFY_SHAPES: dict[str, Callable[[], Table]] = {
    "pair2": lambda: pair(2),
    "Z2+Z3": lambda: union(cyclic(2), cyclic(3)),
    "S3": lambda: symmetric(3),
    "S3+S3": lambda: union(symmetric(3), symmetric(3)),
}

_SUMMARY = re.compile(r"(\d+) propositions, (\d+) pairs, (\d+) triples")


def lattice_counts(payload: dict) -> tuple[int, int]:
    """(pairs_tested, triples_tested) from a classify payload's lattice summary."""
    m = _SUMMARY.match(payload["lattice_summary"])
    if m is None:
        raise ValueError(f"unreadable lattice summary {payload['lattice_summary']!r}")
    return int(m.group(2)), int(m.group(3))


def classify_check(t: Table) -> Callable[[dict], list[Failure]]:
    truth = {
        "classical": t.classical,
        "totally_disconnected": t.disconnected,
        "abelian_isotropy": t.abelian_isotropy,
        "abelian_algebra": t.classical,
    }

    def check(p: dict) -> list[Failure]:
        lattice_counts(p)
        wrong = {k: p[k] for k, v in truth.items() if p[k] is not v}
        if not wrong and p["consistent"] is True:
            return []
        if wrong == {"classical": True} and t.disconnected and not t.abelian_isotropy:
            return [Failure(KNOWN_DEFECTS[0], "lattice route calls a non-abelian disconnected groupoid Boolean")]
        return [Failure("classify.verdict", f"wrong fields {wrong}, consistent={p['consistent']}")]

    return check


def _classify_round(rng: np.random.Generator, d: Path) -> list[Call]:
    seed = str(int(rng.integers(2**31)))
    calls = []
    for name, make in CLASSIFY_SHAPES.items():
        t = relabel(make(), rng)
        path = _write(d / f"{name}.groupoid", to_text(t))
        calls.append(Call(f"classify[{name}]", ("classify", path, "--seed", seed), classify_check(t)))
    return calls


# -- interfere -----------------------------------------------------------------


def _pairs(vec) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec, dtype=complex).ravel()]


def _disjoint_sets(rng: np.random.Generator, n_tr: int, count: int, size: int) -> list[tuple[str, list[int]]]:
    ids = rng.choice(n_tr, count * size, replace=False)
    return [(f"H{k}", sorted(int(i) for i in ids[k * size:(k + 1) * size])) for k in range(count)]


def expected_rows(t: Table, phi: np.ndarray, sets: list[tuple[str, list[int]]]) -> dict:
    """Reference ``measure`` rows keyed by (quantity, operands); I3 rows hold 0."""
    rows = {("mu", (n,)): complex(decoherence(t, phi, a, a).real) for n, a in sets}
    for (na, a), (nb, b) in combinations(sets, 2):
        d = decoherence(t, phi, a, b)
        rows[("D", (na, nb))] = d
        rows[("I2", (na, nb))] = complex(2.0 * d.real)
    for (na, _), (nb, _), (nc, _) in combinations(sets, 3):
        rows[("I3", (na, nb, nc))] = 0j
    return rows


def measure_check(expected: dict) -> Callable[[dict], list[Failure]]:
    def check(p: dict) -> list[Failure]:
        got = {(r["quantity"], tuple(r["operands"])): complex(r["re"], r["im"]) for r in p["rows"]}
        if got.keys() != expected.keys() or len(p["rows"]) != len(expected):
            return [Failure("measure.rows", f"{len(p['rows'])} rows, expected {len(expected)}")]
        worst = max(got, key=lambda k: abs(got[k] - expected[k]))
        err = abs(got[worst] - expected[worst])
        if err > MEASURE_TOL:
            return [Failure("measure.value", f"{worst[0]}{worst[1]} off by {err:.3e}")]
        return []

    return check


def _measure_call(label: str, d: Path, t: Table, state: dict, phi: np.ndarray, sets) -> Call:
    g = _write(d / f"{label}.groupoid", to_text(t))
    s = _write(d / f"{label}.state", json.dumps(state))
    h = _write(d / f"{label}.sets", json.dumps({"sets": [{"name": n, "transitions": ids} for n, ids in sets]}))
    argv = ("measure", g, "--state", s, "--sets", h)
    return Call(f"measure[{label}]", argv, measure_check(expected_rows(t, phi, sets)))


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _interfere_round(rng: np.random.Generator, d: Path) -> list[Call]:
    t1 = relabel(pair(12), rng)
    v = _random_unit(rng, t1.n_transitions)
    phi1 = phi_from_density(t1, np.outer(v, v.conj()))
    sets1 = _disjoint_sets(rng, t1.n_transitions, 4, 16)

    t2 = relabel(pair(8), rng)
    n2 = t2.n_transitions
    q, _ = np.linalg.qr(rng.standard_normal((n2, 2)) + 1j * rng.standard_normal((n2, 2)))
    w = rng.uniform(0.2, 0.8)
    rho = w * np.outer(q[:, 0], q[:, 0].conj()) + (1.0 - w) * np.outer(q[:, 1], q[:, 1].conj())
    rho = (rho + rho.conj().T) / 2.0
    phi2 = phi_from_density(t2, rho)
    sets2 = _disjoint_sets(rng, n2, 4, 8)

    t3 = relabel(product(pair(4), cyclic(3)), rng)
    n3 = t3.n_transitions
    m = rng.standard_normal((n3, n3)) + 1j * rng.standard_normal((n3, n3))
    full = m @ m.conj().T
    phi3 = phi_from_density(t3, full / np.trace(full).real)
    sets3 = _disjoint_sets(rng, n3, 7, 6)
    phi_terms = [{"transition_id": i, "re": float(z.real), "im": float(z.imag)} for i, z in enumerate(phi3)]

    return [
        _measure_call("pair12-vector", d, t1, {"rep": "left-regular", "vector": _pairs(v)}, phi1, sets1),
        _measure_call("pair8-density", d, t2, {"rep": "left-regular", "density": [_pairs(r) for r in rho]}, phi2, sets2),
        _measure_call("pair4xZ3-phi", d, t3, {"phi": phi_terms}, phi3, sets3),
    ]


# -- dynamics ------------------------------------------------------------------


def theorem_check(mode: str) -> Callable[[dict], list[Failure]]:
    def check(p: dict) -> list[Failure]:
        if p["mode"] != mode:
            return [Failure("theorem.mode", f"mode {p['mode']!r}, expected {mode!r}")]
        if p["n_trials"] != THEOREM_TRIALS or len(p["trials"]) != THEOREM_TRIALS:
            return [Failure("theorem.trials", f"{len(p['trials'])} trials, expected {THEOREM_TRIALS}")]
        if p["passed"] is not True:
            frac = p["fraction_entangled"]
            if mode == "entanglement" and frac >= ENTANGLEMENT_SHORTFALL_FLOOR:
                return [Failure(KNOWN_DEFECTS[1], f"fraction_entangled {frac} below min_fraction {p['min_fraction']}")]
            return [Failure("theorem.passed", f"{mode} check did not pass")]
        return []

    return check


def evolve_check(p: dict) -> list[Failure]:
    rows = p["rows"]
    if len(rows) != EVOLVE_STEPS:
        return [Failure("evolve.rows", f"{len(rows)} rows, expected {EVOLVE_STEPS}")]
    worst = max(r["residual"] for r in rows)
    if worst > RESIDUAL_TOL:
        return [Failure("evolve.residual", f"norm residual {worst:.3e}")]
    r0 = rows[0]
    if r0["t"] != 0.0 or r0["rank"] != 1 or abs(r0["entropy"]) > ENTROPY_TOL:
        return [Failure("evolve.start", f"t=0 row {r0} is not a product state")]
    return []


def _hermitian_element(rng: np.random.Generator, t: Table) -> dict:
    terms = {}
    for i, j in enumerate(t.inverse):
        if i > j or rng.random() < 0.5:
            continue
        if i == j:
            terms[i] = complex(rng.standard_normal())
        else:
            terms[i] = complex(rng.standard_normal(), rng.standard_normal())
            terms[j] = terms[i].conjugate()
    return {"terms": [{"transition_id": i, "re": c.real, "im": c.imag} for i, c in sorted(terms.items())]}


def _dynamics_round(rng: np.random.Generator, d: Path) -> list[Call]:
    seed = str(int(rng.integers(2**31)))
    s3s3 = _write(d / "s3s3.groupoid", to_text(relabel(union(symmetric(3), symmetric(3)), rng)))
    p3a = _write(d / "pair3a.groupoid", to_text(relabel(pair(3), rng)))
    p3b = _write(d / "pair3b.groupoid", to_text(relabel(pair(3), rng)))
    trials = ("--trials", str(THEOREM_TRIALS), "--seed", seed, "--jobs", "1")
    # Objects are relabelled per factor so the outcome basis stays first-factor
    # major and the 3:3 bipartition still splits it; transition ids are shuffled freely.
    prod = relabel(product(relabel(pair(3), rng), relabel(pair(3), rng)), rng, objects=False)
    g = _write(d / "pair3xpair3.groupoid", to_text(prod))
    psi = np.kron(_random_unit(rng, 3), _random_unit(rng, 3))
    s = _write(d / "product.state", json.dumps({"rep": "fundamental", "vector": _pairs(psi)}))
    h = _write(d / "hamiltonian.element", json.dumps(_hermitian_element(rng, prod)))
    evolve = ("evolve", g, "--state", s, "--hamiltonian", h, "--grid", f"0:10:{EVOLVE_STEPS}", "--bipartition", "3:3")
    return [
        Call("theorem[S3+S3 x pair3]", ("theorem", s3s3, p3a) + trials, theorem_check("separability")),
        Call("theorem[pair3 x pair3]", ("theorem", p3a, p3b) + trials, theorem_check("entanglement")),
        Call("evolve[pair3xpair3]", evolve, evolve_check),
    ]


# -- pool ----------------------------------------------------------------------

_ROUND_MAKERS = {"classify": _classify_round, "interfere": _interfere_round, "dynamics": _dynamics_round}


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def make_pool(workload: str, seed: int, rounds: int, workdir: Path) -> list[list[Call]]:
    """``rounds`` rounds of ``workload``, with their files written under ``workdir``."""
    pool = []
    for k in range(rounds):
        d = workdir / f"round{k:03d}"
        d.mkdir(parents=True)
        calls = _ROUND_MAKERS[workload](np.random.default_rng([seed, k]), d)
        pool.append([Call(c.label, c.argv + ("--format", "structured"), c.check) for c in calls])
    return pool
