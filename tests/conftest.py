"""Shared helpers plus the acceptance verdict summary.

Each test in ``test_acceptance.py`` covers one numbered criterion; after
the run a one-line PASS/FAIL verdict per criterion is printed so the
acceptance status can be read off without scanning the full log.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from groupoidqm import Groupoid, cyclic_group, direct_product, disjoint_union, group_groupoid, pair_groupoid, symmetric_group

ACCEPTANCE_FILE = "test_acceptance.py"

ACCEPTANCE_CRITERIA = {
    "test_criterion_01_classicality_equivalence": "three classicality routes agree over the desk-scale family",
    "test_criterion_02_superposition_obstruction": "superposition projection breaks distributivity in pair_groupoid(2)",
    "test_criterion_03_meet_matches_oracle": "iterated meet agrees with the range-intersection oracle",
    "test_criterion_04_product_dimensions": "span and double-commutant dimensions multiply over products",
    "test_criterion_05_grade_two_interference": "pair interference is exact: I3 vanishes, an I2 witness exceeds 0.1",
    "test_criterion_06_sum_over_histories": "character states satisfy the sum-over-histories identity",
    "test_criterion_07_separability_preserved": "classical-by-quantum dynamics preserves separability",
    "test_criterion_08_entanglement_generic": "quantum-by-quantum dynamics entangles most random trials",
    "test_criterion_09_character_diagonalization": "character unitary diagonalizes abelian transition algebras",
    "test_criterion_10_theorem_determinism": "theorem report bytes are identical across runs and job counts",
}

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if f"{ACCEPTANCE_FILE}::" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name not in ACCEPTANCE_CRITERIA:
        return
    if report.when == "call":
        _acceptance_outcomes[name] = report.outcome
    elif report.outcome != "passed" and name not in _acceptance_outcomes:
        _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, (name, title) in enumerate(ACCEPTANCE_CRITERIA.items(), start=1):
        outcome = _acceptance_outcomes.get(name, "not run")
        verdict = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"criterion {number:2d}: {verdict:4s}  {title}")


# -- shared numeric helpers ------------------------------------------------


def random_projection(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    """A rank-``rank`` orthogonal projection with Haar-random range."""
    z = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(z)
    return q @ q.conj().T


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A full-support random density matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


# -- random groupoids --------------------------------------------------------


def _quaternion_unit_product(u: int, v: int) -> tuple[int, int]:
    """(sign bit, unit) of u * v for the units 0, 1, 2, 3 = 1, i, j, k."""
    if u == 0 or v == 0:
        return 0, u + v
    if u == v:
        return 1, 0
    return (0 if (v - u) % 3 == 1 else 1), 6 - u - v


def quaternion_group() -> Groupoid:
    """Q8 as a one-object groupoid; element 4 * s + u is (-1)^s times 1, i, j or k."""
    table = []
    for a in range(8):
        row = []
        for b in range(8):
            sign, unit = _quaternion_unit_product(a % 4, b % 4)
            row.append(4 * ((a // 4 + b // 4 + sign) % 2) + unit)
        table.append(row)
    return group_groupoid(table)


def dihedral_group(n: int) -> Groupoid:
    """The dihedral group of order 2n as a one-object groupoid; element k + n * m is r^k s^m."""
    table = []
    for a in range(2 * n):
        k, m = a % n, a // n
        table.append([(k + (-1) ** m * (b % n)) % n + n * ((m + b // n) % 2) for b in range(2 * n)])
    return group_groupoid(table)


GROUPS = {
    "Z1": lambda: cyclic_group(1),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "S3": lambda: symmetric_group(3),
    "Q8": quaternion_group,
}
GROUP_ORDERS = {name: make().n_transitions for name, make in GROUPS.items()}


def permute_transitions(g: Groupoid, perm) -> Groupoid:
    """The same groupoid with transition ``t`` renamed ``perm[t]``."""
    p = np.asarray(perm, dtype=np.intp)
    n = g.n_transitions
    source, target, inverse = np.empty(n, np.intp), np.empty(n, np.intp), np.empty(n, np.intp)
    source[p], target[p], inverse[p] = g.source, g.target, p[g.inverse_table]
    table = np.full((n, n), -1, dtype=np.intp)
    table[np.ix_(p, p)] = np.where(g.table >= 0, p[g.table], -1)
    unit_of = {x: int(p[u]) for x, u in g.unit_of.items()}
    return Groupoid(g.object_labels, source, target, unit_of, inverse, table)


@st.composite
def random_groupoids(draw, max_transitions: int = 72) -> Groupoid:
    """Disjoint unions of pair(n) x G, G one of Z1-Z4, S3 and Q8, with permuted transition ids."""
    parts: list[Groupoid] = []
    budget = max_transitions
    while not parts or draw(st.booleans()):
        shapes = [(n, name) for n in (1, 2, 3) for name in GROUPS if n * n * GROUP_ORDERS[name] <= budget]
        if not shapes:
            break
        n, name = draw(st.sampled_from(shapes))
        parts.append(direct_product(pair_groupoid(n), GROUPS[name]()))
        budget -= parts[-1].n_transitions
    g = parts[0] if len(parts) == 1 else disjoint_union(parts)
    return permute_transitions(g, draw(st.permutations(range(g.n_transitions))))
