"""Unitary dynamics, Schmidt diagnostics and the theorem-scale trials."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_groupoids
from groupoidqm import (
    FUNDAMENTAL,
    LEFT_REGULAR,
    AlgebraElement,
    Groupoid,
    Operator,
    algebra_basis,
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
    representation_matrix,
    schmidt_diagnostics,
    separability_theorem_check,
    state_from_density,
    symmetric_group,
)
from groupoidqm import dynamics
from groupoidqm.dynamics import _draw_trials, _propagate, _schmidt, parse_grid

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


def lstsq_fit(m, g, rep, span_tol=1e-8):
    """The reference membership test: ``lstsq`` against the (d², n) stack of basis images, with
    ``hamiltonian_from_matrix``'s acceptance rule: (accepted, coefficients, residual)."""
    scale = max(1.0, float(np.linalg.norm(m)))
    images = [op.matrix.ravel() for op in algebra_basis(g, rep)]
    stack = np.stack(images, axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(stack, m.ravel(), rcond=None)
    residual = float(np.linalg.norm(stack @ coeffs - m.ravel()))
    return residual <= span_tol * scale, coeffs, residual


def hermitian_element(g, rng) -> AlgebraElement:
    a = AlgebraElement(dict(enumerate(rng.standard_normal(g.n_transitions) + 1j * rng.standard_normal(g.n_transitions))))
    return a + involution(a, g)


@settings(deadline=None, max_examples=100)
@given(
    st.lists(random_groupoids(max_transitions=18), min_size=1, max_size=2),
    st.booleans(),
    st.sampled_from([LEFT_REGULAR, FUNDAMENTAL]),
    st.sampled_from([0.0, 1e-3]),
    st.integers(0, 2**16),
)
def test_hamiltonian_from_matrix_is_the_least_squares_fit(parts, product, rep, noise, seed):
    # members (noise 0) and members plus a random Hermitian matrix, on unions and products of up to 36 transitions
    small = product and parts[0].n_transitions * parts[-1].n_transitions <= 36
    g = parts[0] if len(parts) == 1 else direct_product(*parts) if small else disjoint_union(parts)
    rng = np.random.default_rng(seed)
    m = representation_matrix(hermitian_element(g, rng), g, rep).matrix
    x = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    m = m + noise * (x + x.conj().T)
    accepted, coeffs, residual = lstsq_fit(m, g, rep)
    try:
        hamiltonian_from_matrix(m, g, rep)
    except ValueError as e:
        assert not accepted and "not in the represented" in str(e)
    else:
        assert accepted
    fit = hamiltonian_from_matrix(m, g, rep, span_tol=np.inf).element
    assert np.abs(np.array([fit.get(t) for t in range(g.n_transitions)]) - coeffs).max() <= 1e-12
    assert abs(float(np.linalg.norm(representation_matrix(fit, g, rep).matrix - m)) - residual) <= 1e-12


def test_hamiltonian_from_matrix_builds_no_basis_stack():
    # pair(12)'s left-regular basis images stacked as a (d², n) matrix take 45.6 MiB alone
    g = pair_groupoid(12)
    elem = hermitian_element(g, np.random.default_rng(0))
    m = representation_matrix(elem, g, LEFT_REGULAR).matrix
    tracemalloc.start()
    try:
        h = hamiltonian_from_matrix(m, g, LEFT_REGULAR)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.element.isclose(elem, 1e-12)
    assert peak <= 4 * 2**20


def test_a_transition_with_a_zero_image_gets_no_coefficient():
    g = Groupoid(["x"], [0], [0], [0], [0], {})  # fails validate: with no composite its left-regular image is 0
    assert hamiltonian_from_matrix(np.zeros((1, 1)), g, LEFT_REGULAR).element.is_zero()


def test_hamiltonian_from_matrix_checks_the_dimension():
    with pytest.raises(ValueError, match="representation dimension 4"):
        hamiltonian_from_matrix(np.eye(2), pair_groupoid(2), LEFT_REGULAR)


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


@pytest.mark.parametrize("start,stop", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)])
def test_parse_grid_rejects_non_finite_bounds(start, stop):
    with pytest.raises(ValueError, match=f"time grid {start}:{stop}:3 needs a finite start and stop"):
        parse_grid(start, stop, 3)


def test_evolve_fails_on_a_nan_time():
    # NaN residuals compare false with every tolerance, so the guards must fail on them explicitly
    g = pair_groupoid(2)
    h = hopping_hamiltonian(g)
    s = pure_state(np.array([1.0, 0.0]), g, FUNDAMENTAL)
    with pytest.raises(RuntimeError, match="residual nan"):
        evolve(h, s, np.array([0.0, np.nan]))


def test_theorem_checks_reject_non_finite_grids():
    with pytest.raises(ValueError, match="needs a finite start and stop"):
        separability_theorem_check(discrete_groupoid(2), pair_groupoid(2), trials=2, grid=(0.0, np.inf, 5))
    with pytest.raises(ValueError, match="needs a finite start and stop"):
        entanglement_counterexample(pair_groupoid(2), pair_groupoid(2), trials=2, grid=(0.0, np.nan, 5))


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


def test_evolve_measures_unitarity_with_its_propagation_kernel(monkeypatch):
    # an eigenbasis scaled by 1 + 1e-6 makes every U(t) U(t)^dagger equal (1 + 1e-6)^4 times 1: residual 4e-6 * sqrt(2)
    g = pair_groupoid(2)
    h, state = hopping_hamiltonian(g), pure_state(np.array([1.0, 0.0]), g, FUNDAMENTAL)
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (lambda w, v: (w, v * (1.0 + 1e-6)))(*eigh(m)))
    with pytest.raises(RuntimeError, match=r"lost unitarity: residual 5\.657e-06"):
        evolve(h, state, parse_grid(0.0, 1.0, 3))


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


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)], ids=lambda d: f"{d[0]}:{d[1]}")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan), complex(1.0, -np.inf)], ids=str)
def test_schmidt_rejects_non_finite_entries(dims, bad):
    # (2, 2) takes the closed form, (3, 3) the SVD; neither may pass a NaN through or call inf a zero vector
    vec = np.ones(dims[0] * dims[1], dtype=complex)
    vec[1] = bad
    with pytest.raises(ValueError, match="non-finite entries"):
        schmidt_diagnostics(vec, dims)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)], ids=lambda d: f"{d[0]}:{d[1]}")
@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-170], ids=str)
def test_schmidt_data_do_not_depend_on_the_scale(dims, scale):
    # (e0 ⊗ e0 + e1 ⊗ e1) times scale; the suite turns an overflow or a division by zero into an error
    vec = np.zeros(dims[0] * dims[1])
    vec[0] = vec[dims[1] + 1] = scale
    d = schmidt_diagnostics(vec, dims)
    assert d.entropy == pytest.approx(np.log(2.0), rel=0, abs=1e-12)
    assert d.rank == 2
    assert d.ratio == pytest.approx(1.0, rel=0, abs=1e-12)
    assert_allclose(d.coefficients[:2], scale, rtol=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 8), st.booleans(), st.sampled_from([0.0, 1e-16, 1e-13, 1e-10, 1e-6]), st.integers(0, 2**32 - 1))
def test_two_outcome_schmidt_values_match_one_svd_per_matrix(m, tall, perturbation, seed):
    # 2 x m stacks (m x 2 when tall) of products u wᵀ plus a perturbation, the second row rescaled by 1e-8 to 1e8,
    # an eighth with a zero row: the closed form against LAPACK one matrix at a time
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    n = 64
    mats = gauss(n, 2, 1) * gauss(n, 1, m) + perturbation * gauss(n, 2, m)
    mats[:, 1] *= 10.0 ** rng.integers(-8, 9, size=(n, 1))
    mats[: n // 8, rng.integers(2)] = 0.0
    if tall:
        mats = np.swapaxes(mats, 1, 2)
    dims = mats.shape[1:]
    sv, rank, _, ratio = _schmidt(mats.reshape(n, -1), dims)
    for k in range(n):
        want_sv, want_rank, _, want_ratio = reference_schmidt(mats[k].ravel(), dims)
        assert np.abs(sv[k] - want_sv).max() <= 1e-12 * want_sv[0]
        assert rank[k] == want_rank
        assert abs(ratio[k] - want_ratio) <= 1e-12


@pytest.mark.parametrize("dims", [(-2, -2), (-1, -4), (0, 4), (4, 0), (2, -2)], ids=lambda d: f"{d[0]}:{d[1]}")
def test_schmidt_rejects_non_positive_dimensions(dims):
    # (-2, -2) and (-1, -4) have the vector's length as their product
    with pytest.raises(ValueError, match="needs positive dimensions"):
        schmidt_diagnostics(np.ones(4), dims)


# -- theorem-scale trials --------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1.0]), st.integers(0, 2**32 - 1))
def test_offblock_norms_from_component_grams_match_the_density(da, db, leak, seed):
    # components e_x ⊗ u_x plus a leak of the given size into every block: ‖ρ_off‖_F from the prefix Grams
    # against the off-block entries of ρ = Σ_x φ_x φ_xᴴ, formed whole
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    d, block = da * db, np.arange(da * db) // db
    comps = leak * gauss(5, da, d)
    for x in range(da):
        comps[:, x, x * db:(x + 1) * db] += gauss(5, db)
    rho = np.swapaxes(comps, 1, 2) @ comps.conj()
    want = np.linalg.norm(rho[:, block[:, None] != block[None, :]], axis=1)
    got = np.sqrt(np.maximum(dynamics._offblock_squares(comps, da, db), 0.0))
    assert_allclose(got, want, rtol=1e-10, atol=0.0)


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
    # --jobs is the number of trial chunks; 7 chunks of 5 trials leaves two empty
    for check, ga in ((separability_theorem_check, cat), (entanglement_counterexample, pair_groupoid(2))):
        reports = [check(ga, pair_groupoid(2), trials=5, grid=QUICK_GRID, jobs=j).to_dict() for j in (1, 2, 3, 7)]
        assert all(r == reports[0] for r in reports)
        assert [t["index"] for t in reports[0]["trials"]] == [0, 1, 2, 3, 4]
        assert check(ga, pair_groupoid(2), trials=0, grid=QUICK_GRID, jobs=3).vacuous


def test_a_one_object_first_factor_makes_the_separability_report_vacuous():
    # d_A = 1: every state of the product is a product state, so the trials cannot show separability
    report = separability_theorem_check(symmetric_group(3), pair_groupoid(2), trials=3, grid=QUICK_GRID)
    assert report.passed and report.vacuous and "one object" in report.vacuous_reason
    assert report.to_dict()["vacuous_reason"] == report.vacuous_reason
    disconnected = separability_theorem_check(discrete_groupoid(2), pair_groupoid(2), trials=3, grid=QUICK_GRID)
    assert not disconnected.vacuous and disconnected.vacuous_reason is None


def test_reports_serialise_their_fields_and_properties():
    report = separability_theorem_check(discrete_groupoid(2), pair_groupoid(2), trials=2, grid=QUICK_GRID)
    # the text table's columns follow the record's key order
    assert list(report.trials[0].to_dict()) == [
        "index", "max_ratio", "max_offblock", "max_entropy", "onset_time", "ok",
    ]
    payload = report.to_dict()
    assert set(payload) == {
        "mode", "factor_a", "factor_b", "n_trials", "seed", "grid", "ratio_tol", "offblock_tol", "entropy_threshold",
        "min_fraction", "passed", "vacuous", "vacuous_reason", "worst_ratio", "worst_offblock", "max_entropy",
        "fraction_entangled", "trials",
    }
    assert payload["grid"] == {"start": 0.0, "stop": 5.0, "steps": 21}
    assert payload["trials"] == [t.to_dict() for t in report.trials]
    assert (payload["worst_ratio"], payload["passed"]) == (report.worst_ratio, True)


def test_trial_chunks_are_bounded(monkeypatch):
    assert [c.tolist() for c in dynamics._chunks(5, 2, 10)] == [[0, 1, 2], [3, 4]]
    assert [c.size for c in dynamics._chunks(7, 7 + 3, 10)] == [1] * 7
    monkeypatch.setattr(dynamics, "TRIAL_CHUNK_ENTRIES", 25)
    assert [c.size for c in dynamics._chunks(5, 1, 10)] == [2, 2, 1]  # at most 25 // 10 trials each
    assert [c.size for c in dynamics._chunks(5, 1, 100)] == [1] * 5  # never fewer than one trial
    with pytest.raises(ValueError, match="--trials"):
        dynamics._chunks(-1, 1, 10)
    with pytest.raises(ValueError, match="--jobs"):
        dynamics._chunks(5, 0, 10)
    # a chunk per trial gives the same report as one chunk for all
    args = (pair_groupoid(2), pair_groupoid(2))
    capped = entanglement_counterexample(*args, trials=5, grid=QUICK_GRID).to_dict()
    monkeypatch.setattr(dynamics, "TRIAL_CHUNK_ENTRIES", 1 << 16)
    assert capped == entanglement_counterexample(*args, trials=5, grid=QUICK_GRID).to_dict()
    # the separability mode propagates 1 + d_A starts a trial, here 3 × 21 points × d = 4 entries, and counts them all
    args = (discrete_groupoid(2), pair_groupoid(2))
    whole = separability_theorem_check(*args, trials=5, grid=QUICK_GRID).to_dict()
    sizes, propagate = [], dynamics._propagate
    monkeypatch.setattr(dynamics, "_propagate", lambda *a: (lambda out: sizes.append(out.size) or out)(propagate(*a)))
    monkeypatch.setattr(dynamics, "TRIAL_CHUNK_ENTRIES", 2 * 252)
    assert separability_theorem_check(*args, trials=5, grid=QUICK_GRID).to_dict() == whole
    assert sizes == [504, 504, 252]


def test_a_huge_job_count_asks_for_no_more_chunks_than_trials(array_split_within_trials):
    args = (pair_groupoid(2), pair_groupoid(2))
    expected = entanglement_counterexample(*args, trials=3, grid=QUICK_GRID, jobs=1).to_dict()
    for n in (0, 1, 5):
        assert [c.tolist() for c in dynamics._chunks(n, 10**8, 10)] == [[i] for i in range(n)]
    assert entanglement_counterexample(*args, trials=3, grid=QUICK_GRID, jobs=10**8).to_dict() == expected


def test_reports_are_deterministic_across_runs():
    a = entanglement_counterexample(pair_groupoid(2), pair_groupoid(2), trials=5, grid=QUICK_GRID, seed=7)
    b = entanglement_counterexample(pair_groupoid(2), pair_groupoid(2), trials=5, grid=QUICK_GRID, seed=7)
    assert a.to_dict() == b.to_dict()
    c = entanglement_counterexample(pair_groupoid(2), pair_groupoid(2), trials=5, grid=QUICK_GRID, seed=8)
    assert c.to_dict() != a.to_dict()


# Per-trial (ok, onset_time) of a seeded run.  It pins the order of the
# random draws of each trial: the Hamiltonian's coefficients, the first-factor
# outcome and the start vector; the per-trial reference pins the mixture too.
ENTANGLEMENT_SEED_31 = [(True, 0.2)] + [(True, 0.1)] * 13 + [(True, 0.2)] + [(True, 0.1)] * 5


def test_theorem_trials_keep_their_draw_order():
    ent = entanglement_counterexample(pair_groupoid(3), pair_groupoid(3), trials=20, seed=31)
    assert [(t.ok, t.onset_time) for t in ent.trials] == ENTANGLEMENT_SEED_31
    assert ent.fraction_entangled == 1.0


def test_every_trial_on_a_connected_first_factor_entangles():
    # a coefficient on every product transition makes each Hamiltonian generic; a sparse
    # support of a few transitions can act locally on the start and leave it a product state
    reports = [entanglement_counterexample(pair_groupoid(3), pair_groupoid(3), trials=20, seed=s) for s in range(50)]
    assert all(r.passed for r in reports)
    assert min(t.max_entropy for r in reports for t in r.trials) >= 0.5


def reference_trials(ga, gb, n_trials, grid, seed, mixture):
    """One trial at a time, with the Hamiltonian built as an algebra element, one SVD per state and the mixture
    propagated as a density: the reference for the trial stack."""
    product = direct_product(ga, gb)
    da, db = ga.n_objects, gb.n_objects
    n, times = product.n_transitions, parse_grid(*grid)
    off = np.ones((da * db, da * db), dtype=bool)
    for x in range(da):
        off[x * db:(x + 1) * db, x * db:(x + 1) * db] = False
    out = []
    for i in range(n_trials):
        rng = np.random.default_rng([seed, i])
        re, im = rng.standard_normal(n), rng.standard_normal(n)
        elem = AlgebraElement({t: complex(re[t], im[t]) for t in range(n)})
        m = representation_matrix(elem, product, FUNDAMENTAL).matrix
        h = (m + m.conj().T) / 2.0
        w, v = np.linalg.eigh(h)
        xa = int(rng.integers(da))
        psi0 = np.zeros(da * db, dtype=complex)
        unit = rng.standard_normal(db) + 1j * rng.standard_normal(db)
        psi0[xa * db:(xa + 1) * db] = unit / np.linalg.norm(unit)
        schmidt = [reference_schmidt(psi, (da, db)) for psi in _propagate(w, v, times, psi0)]
        ratio, entropy = max(r for _, _, _, r in schmidt), np.array([e for _, _, e, _ in schmidt])
        record = {"h": h, "psi0": psi0, "ratio": ratio, "entropy": entropy}
        if mixture:
            weights = rng.random(da) + 0.1
            weights /= weights.sum()
            rho0, mix = np.zeros((da * db, da * db), dtype=complex), np.zeros((da, da * db), dtype=complex)
            for x in range(da):
                vec = np.zeros(da * db, dtype=complex)
                unit = rng.standard_normal(db) + 1j * rng.standard_normal(db)
                vec[x * db:(x + 1) * db] = unit / np.linalg.norm(unit)
                rho0 += weights[x] * np.outer(vec, vec.conj())
                mix[x] = np.sqrt(weights[x]) * vec
            rhos = _propagate(w, v, times, rho0)
            record.update(mix=mix, offblock=float(np.linalg.norm(rhos[:, off], axis=1).max()))
        out.append(record)
    return out


@settings(deadline=None, max_examples=25)
@given(
    st.booleans(),
    st.data(),
    st.integers(0, 5),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.floats(0.1, 5.0),
)
def test_theorem_trials_match_per_trial_reference(separability, data, n_trials, jobs, seed, steps, stop):
    # separability mode needs a totally disconnected first factor; entanglement mode gets a connected one
    ga = data.draw(random_groupoids(max_transitions=8, pair_sizes=(1,) if separability else (2, 3)))
    gb = data.draw(random_groupoids(max_transitions=8))
    grid = (0.0, stop, steps)
    ref = reference_trials(ga, gb, n_trials, grid, seed, mixture=separability)
    if separability:
        report = separability_theorem_check(ga, gb, trials=n_trials, grid=grid, seed=seed, jobs=jobs)
    else:
        report = entanglement_counterexample(ga, gb, trials=n_trials, grid=grid, seed=seed, jobs=jobs)
    assert len(report.trials) == n_trials
    times = parse_grid(*grid)
    for i, (got, want) in enumerate(zip(report.trials, ref)):
        assert got.index == i
        if separability:
            assert got.max_ratio == pytest.approx(want["ratio"], rel=0, abs=1e-12)
            assert got.max_offblock == pytest.approx(want["offblock"], rel=0, abs=1e-12)
            assert got.ok == (want["ratio"] <= 1e-9 and want["offblock"] <= 1e-10)
        else:
            above = np.flatnonzero(want["entropy"] > 0.1)
            assert got.max_entropy == pytest.approx(float(want["entropy"].max()), rel=0, abs=1e-12)
            assert got.onset_time == (float(times[above[0]]) if above.size else None)
            assert got.ok == bool(above.size)
    if n_trials:
        product = direct_product(ga, gb)
        h, psi0, mix = _draw_trials(seed, np.arange(n_trials), product, ga.n_objects, gb.n_objects, separability)
        # bit-equal, signed zeros included, so every draw keeps its place in the order
        assert h.tobytes() == np.stack([r["h"] for r in ref]).tobytes()
        assert psi0.tobytes() == np.stack([r["psi0"] for r in ref]).tobytes()
        assert (mix is None) == (not separability)
        if separability:
            assert mix.tobytes() == np.stack([r["mix"] for r in ref]).tobytes()
