"""Unitary dynamics, Schmidt diagnostics and the theorem-scale trials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from groupoidqm import (
    FUNDAMENTAL,
    LEFT_REGULAR,
    AlgebraElement,
    Operator,
    block_structure,
    cyclic_group,
    direct_product,
    discrete_groupoid,
    disjoint_union,
    entanglement_counterexample,
    evolve,
    hamiltonian_from_element,
    hamiltonian_from_matrix,
    heisenberg,
    involution,
    operator_norm,
    pair_groupoid,
    pure_state,
    schmidt_diagnostics,
    separability_theorem_check,
    state_from_density,
    symmetric_group,
)
from groupoidqm.dynamics import parse_grid

QUICK_GRID = (0.0, 5.0, 21)


def hopping_hamiltonian(g, rep=FUNDAMENTAL):
    elem = AlgebraElement({1: 1.0, 2: 1.0})  # f + f^-1 on pair_groupoid(2)
    return hamiltonian_from_element(elem, g, rep)


# -- block structure ----------------------------------------------------------


def test_block_structure_of_classical_by_quantum_product():
    cat = discrete_groupoid(["alive", "dead"])
    g = direct_product(cat, pair_groupoid(2))
    blocks = block_structure(g)
    assert blocks.n_blocks == 2
    assert blocks.blocks == ((0, 1), (2, 3))
    assert blocks.labels == ("alive", "dead")


def test_block_structure_with_connected_first_factor():
    g = direct_product(pair_groupoid(2), cyclic_group(2))
    blocks = block_structure(g)
    assert blocks.n_blocks == 1
    assert blocks.blocks == ((0, 1),)


def test_block_structure_requires_product_provenance():
    with pytest.raises(ValueError, match="direct_product"):
        block_structure(pair_groupoid(2))


# -- Hamiltonian construction ---------------------------------------------------


def test_hamiltonian_from_element_requires_self_adjointness():
    g = pair_groupoid(2)
    with pytest.raises(ValueError, match="self-adjoint"):
        hamiltonian_from_element(AlgebraElement({1: 1.0}), g)
    h = hopping_hamiltonian(g)
    assert_allclose(h.matrix, [[0.0, 1.0], [1.0, 0.0]])
    assert h.rep == FUNDAMENTAL


def test_hamiltonian_from_matrix_recovers_the_element():
    g = pair_groupoid(2)
    m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    h = hamiltonian_from_matrix(m, g)
    assert h.element is not None
    assert h.element.isclose(AlgebraElement({1: 1.0, 2: 1.0}), tol=1e-9)


def test_hamiltonian_from_matrix_rejects_outside_span():
    g = cyclic_group(2)
    # left-regular images of Z2 are circulant; diag(1, 0) is not
    with pytest.raises(ValueError, match="not in the represented"):
        hamiltonian_from_matrix(np.diag([1.0, 0.0]), g, rep=LEFT_REGULAR)


def test_hamiltonian_from_matrix_rejects_non_hermitian():
    g = pair_groupoid(2)
    with pytest.raises(ValueError, match="self-adjoint"):
        hamiltonian_from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), g)
    with pytest.raises(ValueError, match="square"):
        hamiltonian_from_matrix(np.zeros((2, 3)), g)


# -- Heisenberg picture -----------------------------------------------------------


def test_heisenberg_at_time_zero_is_identity():
    g = pair_groupoid(2)
    h = hopping_hamiltonian(g)
    a = Operator(FUNDAMENTAL, np.diag([1.0, 0.0]).astype(complex))
    assert_allclose(heisenberg(h, a, 0.0).matrix, a.matrix, atol=1e-14)


def test_heisenberg_conserves_the_hamiltonian():
    g = pair_groupoid(2)
    h = hopping_hamiltonian(g)
    moved = heisenberg(h, Operator(FUNDAMENTAL, h.matrix), 1.3)
    assert_allclose(moved.matrix, h.matrix, atol=1e-12)


def test_heisenberg_flips_the_outcome_projection():
    # the hopping generator swaps the two outcomes at t = pi/2
    g = pair_groupoid(2)
    h = hopping_hamiltonian(g)
    p0 = Operator(FUNDAMENTAL, np.diag([1.0, 0.0]).astype(complex))
    moved = heisenberg(h, p0, np.pi / 2.0)
    assert_allclose(moved.matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_heisenberg_accepts_algebra_elements():
    g = pair_groupoid(2)
    h = hopping_hamiltonian(g)
    moved = heisenberg(h, AlgebraElement({0: 1.0}), 0.7)
    assert moved.rep == FUNDAMENTAL
    assert moved.matrix.trace() == pytest.approx(1.0)


def test_heisenberg_rejects_mismatched_representation():
    g = pair_groupoid(2)
    h = hopping_hamiltonian(g)
    with pytest.raises(ValueError, match="different representations"):
        heisenberg(h, Operator(LEFT_REGULAR, np.eye(4, dtype=complex)), 1.0)


# -- time grids and evolution ------------------------------------------------------


def test_parse_grid_includes_both_endpoints():
    grid = parse_grid(0.0, 10.0, 101)
    assert grid.size == 101
    assert grid[0] == 0.0 and grid[-1] == 10.0
    with pytest.raises(ValueError):
        parse_grid(0.0, 1.0, 0)


def test_evolve_vector_state_conserves_everything():
    g = pair_groupoid(2)
    h = hopping_hamiltonian(g)
    s = pure_state(np.array([1.0, 0.0]), g, FUNDAMENTAL)
    trace = evolve(h, s, parse_grid(*QUICK_GRID))
    assert trace.vectors is not None and trace.densities is None
    assert trace.norm_residuals.max() <= 1e-10
    assert trace.energy_residuals.max() <= 1e-10
    assert trace.unitarity_residuals.max() <= 1e-10
    # Rabi oscillation: the outcome flips completely at t = pi/2
    idx = int(np.argmin(np.abs(trace.times - np.pi / 2)))
    assert abs(trace.vectors[idx][0]) < 0.15


def test_evolve_density_state_preserves_trace():
    g = pair_groupoid(2)
    h = hopping_hamiltonian(g, rep=LEFT_REGULAR)
    rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
    s = state_from_density(rho, g, LEFT_REGULAR)
    trace = evolve(h, s, parse_grid(*QUICK_GRID))
    assert trace.densities is not None
    assert trace.norm_residuals.max() <= 1e-10
    for rho_t in trace.densities:
        assert_allclose(rho_t, rho_t.conj().T, atol=1e-12)


def test_evolve_checks_compatibility():
    g = pair_groupoid(2)
    h = hopping_hamiltonian(g)
    with pytest.raises(ValueError, match="different representations"):
        evolve(h, pure_state(np.ones(4) / 2.0, g, LEFT_REGULAR))
    s = pure_state(np.array([1.0, 0.0]), g, FUNDAMENTAL)
    with pytest.raises(ValueError, match="bipartition"):
        evolve(h, s, bipartition=(2, 2))


def test_evolve_rejects_bipartition_without_vector():
    g = pair_groupoid(2)
    h = hopping_hamiltonian(g)
    s = state_from_density(np.diag([0.5, 0.5]).astype(complex), g, FUNDAMENTAL)
    with pytest.raises(ValueError, match="pure state"):
        evolve(h, s, bipartition=(1, 2))


def test_evolve_tracks_schmidt_data():
    cat = discrete_groupoid(2)
    g = direct_product(cat, pair_groupoid(2))
    elem = AlgebraElement({i: 1.0 for i in (1, 2, 5, 6)})  # hop inside each block
    h = hamiltonian_from_element(0.5 * (elem + involution(elem, g)), g)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    s = pure_state(psi, g, FUNDAMENTAL)
    trace = evolve(h, s, parse_grid(*QUICK_GRID), bipartition=(2, 2))
    assert trace.schmidt is not None and len(trace.schmidt) == 21
    assert all(d.rank == 1 for d in trace.schmidt)


def reference_schmidt(vec, dims, tol=1e-9):
    """Schmidt data with one SVD per state: the reference for the batched routine."""
    sv = np.linalg.svd(vec.reshape(dims), compute_uv=False)
    rank = int(np.sum(sv > tol * sv[0]))
    p = (sv / np.linalg.norm(sv)) ** 2
    p = p[p > 1e-18]
    entropy = float(-np.sum(p * np.log(p)))
    if entropy <= 0.0:
        entropy = 0.0
    ratio = float(sv[1] / sv[0]) if sv.size > 1 else 0.0
    return sv, rank, entropy, ratio


def reference_evolve(h, state, times, bipartition):
    """One grid point at a time: the reference for the batched kernel of `evolve`."""
    w, v = np.linalg.eigh(h.matrix)
    out = {"unitarity": [], "norm": [], "energy": [], "states": [], "schmidt": []}
    for t in times:
        u = (v * np.exp(1j * w * float(t))) @ v.conj().T
        out["unitarity"].append(np.linalg.norm(u @ u.conj().T - np.eye(h.dim)))
    if state.vector is not None:
        psi0 = np.asarray(state.vector, dtype=complex)
        coef = v.conj().T @ psi0
        e0 = np.real(np.vdot(psi0, h.matrix @ psi0))
        for t in times:
            psi = v @ (np.exp(-1j * w * float(t)) * coef)
            out["states"].append(psi)
            out["norm"].append(abs(np.linalg.norm(psi) - 1.0))
            out["energy"].append(abs(np.real(np.vdot(psi, h.matrix @ psi)) - e0))
            if bipartition is not None:
                out["schmidt"].append(reference_schmidt(psi, bipartition))
    else:
        rho0 = np.asarray(state.density, dtype=complex)
        r = v.conj().T @ rho0 @ v
        e0 = np.real(np.trace(rho0 @ h.matrix))
        for t in times:
            ph = np.exp(-1j * w * float(t))
            rho = v @ ((ph[:, None] * r) * ph.conj()[None, :]) @ v.conj().T
            out["states"].append(rho)
            out["norm"].append(abs(np.trace(rho).real - 1.0))
            out["energy"].append(abs(np.real(np.trace(rho @ h.matrix)) - e0))
    return out


@settings(deadline=None, max_examples=40)
@given(
    st.integers(2, 9),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.integers(1, 30),
    st.floats(0.0, 10.0),
    st.data(),
)
def test_evolve_matches_reference_loops(d, seed, pure, steps, stop, data):
    rng = np.random.default_rng(seed)
    g = pair_groupoid(d)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = hamiltonian_from_matrix(m + m.conj().T, g)
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    vec /= np.linalg.norm(vec)
    if pure:
        state = pure_state(vec, g, FUNDAMENTAL)
        splits = [(a, d // a) for a in range(1, d + 1) if d % a == 0]
        bipartition = data.draw(st.one_of(st.none(), st.sampled_from(splits)))
    else:
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = a @ a.conj().T
        state = state_from_density(rho / np.trace(rho).real, g, FUNDAMENTAL)
        bipartition = None
    times = parse_grid(0.0, stop, steps)

    trace = evolve(h, state, times, bipartition=bipartition)
    ref = reference_evolve(h, state, times, bipartition)
    got = trace.vectors if pure else trace.densities
    assert (trace.densities if pure else trace.vectors) is None
    assert_allclose(got, np.array(ref["states"]), rtol=0, atol=1e-12)
    assert_allclose(trace.norm_residuals, ref["norm"], rtol=0, atol=1e-12)
    assert_allclose(trace.energy_residuals, ref["energy"], rtol=0, atol=1e-12)
    assert_allclose(trace.unitarity_residuals, ref["unitarity"], rtol=0, atol=1e-12)
    if bipartition is None:
        assert trace.schmidt is None
        return
    assert len(trace.schmidt) == len(ref["schmidt"])
    for diag, (sv, rank, entropy, ratio) in zip(trace.schmidt, ref["schmidt"]):
        assert_allclose(diag.coefficients, sv, rtol=0, atol=1e-12)
        assert diag.rank == rank
        assert diag.entropy == pytest.approx(entropy, rel=0, abs=1e-12)
        assert diag.ratio == pytest.approx(ratio, rel=0, abs=1e-12)
        assert diag.entropy >= 0.0 and not np.signbit(diag.entropy)  # -0.0 is clamped too


# -- Schmidt diagnostics -------------------------------------------------------------


def test_schmidt_of_product_state():
    vec = np.kron([1.0, 0.0], [1.0, 1.0]) / np.sqrt(2)
    d = schmidt_diagnostics(vec, (2, 2))
    assert d.is_product and d.rank == 1
    assert d.entropy == pytest.approx(0.0, abs=1e-12)
    assert d.ratio == pytest.approx(0.0, abs=1e-12)


def test_schmidt_of_maximally_entangled_state():
    vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    d = schmidt_diagnostics(vec, (2, 2))
    assert d.rank == 2
    assert d.entropy == pytest.approx(np.log(2.0))
    assert d.ratio == pytest.approx(1.0)


def test_schmidt_rejects_bad_inputs():
    with pytest.raises(ValueError, match="does not match"):
        schmidt_diagnostics(np.ones(3), (2, 2))
    with pytest.raises(ValueError, match="zero vector"):
        schmidt_diagnostics(np.zeros(4), (2, 2))


# -- theorem-scale trials --------------------------------------------------------------


def test_separability_check_passes_for_classical_factor():
    cat = discrete_groupoid(["alive", "dead"])
    report = separability_theorem_check(cat, pair_groupoid(2), trials=4, grid=QUICK_GRID)
    assert report.mode == "separability"
    assert report.passed
    assert report.n_trials == 4
    assert report.worst_ratio <= 1e-9
    assert report.worst_offblock <= 1e-10
    assert all(t.ok for t in report.trials)


def test_separability_check_requires_disconnected_first_factor():
    with pytest.raises(ValueError, match="totally disconnected"):
        separability_theorem_check(pair_groupoid(2), pair_groupoid(2), trials=1)


def test_counterexample_detects_entanglement():
    report = entanglement_counterexample(pair_groupoid(2), pair_groupoid(2), trials=4, grid=QUICK_GRID)
    assert report.mode == "entanglement"
    assert report.fraction_entangled > 0.0
    assert report.max_entropy > 0.1
    hit = next(t for t in report.trials if (t.max_entropy or 0.0) > 0.1)
    assert hit.onset_time is not None and 0.0 <= hit.onset_time <= 5.0


def test_zero_trials_is_an_empty_pass():
    cat = discrete_groupoid(2)
    report = separability_theorem_check(cat, pair_groupoid(2), trials=0, grid=QUICK_GRID)
    assert report.passed
    assert report.trials == ()
    assert report.fraction_entangled == 0.0


def test_reports_are_identical_across_job_counts():
    cat = discrete_groupoid(2)
    serial = separability_theorem_check(cat, pair_groupoid(2), trials=6, grid=QUICK_GRID, jobs=1)
    threaded = separability_theorem_check(cat, pair_groupoid(2), trials=6, grid=QUICK_GRID, jobs=3)
    assert serial.to_dict() == threaded.to_dict()
    assert "jobs" not in serial.to_dict()


def test_reports_are_deterministic_across_runs():
    a = entanglement_counterexample(pair_groupoid(2), pair_groupoid(2), trials=5, grid=QUICK_GRID, seed=7)
    b = entanglement_counterexample(pair_groupoid(2), pair_groupoid(2), trials=5, grid=QUICK_GRID, seed=7)
    assert a.to_dict() == b.to_dict()
    c = entanglement_counterexample(pair_groupoid(2), pair_groupoid(2), trials=5, grid=QUICK_GRID, seed=8)
    assert c.to_dict() != a.to_dict()


# Per-trial (support_size, ok, onset_time) of two seeded runs.  They pin the
# order of the random draws of each trial: the Hamiltonian, the first-factor
# outcome and the start vector, then (separability only) the mixture.
ENTANGLEMENT_SEED_31 = [
    (45, True, 0.2), (28, True, 0.2), (26, True, 0.2), (33, True, 0.1), (3, False, None),
    (81, True, 0.1), (73, True, 0.1), (12, True, 0.30000000000000004), (57, True, 0.1), (74, True, 0.2),
    (72, True, 0.1), (28, True, 0.2), (12, True, 0.2), (78, True, 0.1), (29, True, 0.2),
    (1, False, None), (61, True, 0.2), (61, True, 0.1), (1, False, None), (5, True, 0.9),
]
SEPARABILITY_SEED_42_SUPPORTS = [
    10, 69, 24, 84, 44, 29, 74, 52, 45, 87, 92, 51, 59, 14, 107, 82, 43, 21, 100, 37,
]


def test_theorem_trials_keep_their_draw_order():
    ent = entanglement_counterexample(pair_groupoid(3), pair_groupoid(3), trials=20, seed=31)
    assert [(t.support_size, t.ok, t.onset_time) for t in ent.trials] == ENTANGLEMENT_SEED_31
    assert ent.fraction_entangled == 0.85
    s3s3 = disjoint_union([symmetric_group(3), symmetric_group(3)])
    sep = separability_theorem_check(s3s3, pair_groupoid(3), trials=20, seed=42)
    expected = [(k, True, None) for k in SEPARABILITY_SEED_42_SUPPORTS]
    assert [(t.support_size, t.ok, t.onset_time) for t in sep.trials] == expected
