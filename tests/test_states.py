"""States, decoherence functionals, quantum measures and interference."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from groupoidqm import (
    FUNDAMENTAL,
    LEFT_REGULAR,
    StateFn,
    amplitude,
    classical_distribution,
    cyclic_group,
    decoherence_functional,
    disjoint_union,
    interference,
    is_factorizable,
    isotropy_character_table,
    pair_groupoid,
    pure_state,
    quantum_measure,
    state_from_density,
    state_from_phi,
    state_from_transition_phases,
)
from groupoidqm import states
from groupoidqm.states import _check_history_set, _least_eigenvalues, measure_rows

from conftest import groupoid_cases, random_density, random_groupoids

# fixed cases, run as explicit examples of the drawn groupoids
FIXED_GROUPOIDS = [
    pair_groupoid(2),
    pair_groupoid(3),
    cyclic_group(4),
    disjoint_union([cyclic_group(2), pair_groupoid(2)]),
]


on_groupoids = groupoid_cases(FIXED_GROUPOIDS, max_examples=30)


def superposition_state():
    g = pair_groupoid(2)
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[1] = 1 / np.sqrt(2)
    return g, pure_state(vec, g)


def random_state(g, rng):
    return state_from_density(random_density(rng, g.n_transitions), g)


def random_partition(g, rng, parts):
    """``parts`` disjoint history sets covering every transition; some may be empty."""
    labels = rng.integers(parts, size=g.n_transitions)
    return [set(np.flatnonzero(labels == k).tolist()) for k in range(parts)]


# -- construction and validation ----------------------------------------------


def test_state_from_density_accepts_maximally_mixed():
    g = pair_groupoid(2)
    s = state_from_density(np.eye(4) / 4.0, g)
    assert s.phi[0] == pytest.approx(0.5)
    assert s.phi[1] == pytest.approx(0.0)
    assert_allclose(classical_distribution(s), [0.5, 0.5])


def test_state_from_density_rejects_bad_inputs():
    g = pair_groupoid(2)
    with pytest.raises(ValueError, match="trace"):
        state_from_density(np.eye(4), g)
    with pytest.raises(ValueError, match="self-adjoint"):
        rho = np.eye(4) / 4.0
        rho[0, 1] = 0.3
        state_from_density(rho, g)
    with pytest.raises(ValueError, match="positive semidefinite"):
        state_from_density(np.diag([0.75, 0.75, -0.25, -0.25]), g)
    with pytest.raises(ValueError, match="shape"):
        state_from_density(np.eye(3) / 3.0, g)


def test_pure_state_requires_unit_norm():
    g = pair_groupoid(2)
    with pytest.raises(ValueError, match="norm"):
        pure_state(np.array([1.0, 1.0, 0.0, 0.0]), g)


def _outcome_of(f, *args):
    """A state's amplitudes and matrices, or the class of the error it raised."""
    try:
        s = f(*args)
    except Exception as e:  # noqa: BLE001 - the class is the outcome
        return type(e)
    return np.array(list(s.phi.values())).tobytes(), s.density.tobytes(), s.rep


@settings(deadline=None, max_examples=80)
@given(
    random_groupoids(max_transitions=36),
    st.sampled_from([LEFT_REGULAR, FUNDAMENTAL]),
    st.sampled_from(["unit", "norm", "trace", "nan", "length"]),
    st.integers(0, 2**32 - 1),
)
def test_pure_state_gathers_the_density_routes_amplitudes(g, rep, kind, seed):
    # bit-equal amplitudes and the same error class as the density route on v v†, whose d × d checks pure_state skips
    rng = np.random.default_rng(seed)
    dim = g.n_transitions if rep == LEFT_REGULAR else g.n_objects
    size = (dim + rng.choice([-1, 1]) if dim > 1 else 2) if kind == "length" else dim
    vec = rng.standard_normal(size) + 1j * rng.standard_normal(size) * rng.integers(2)
    vec /= np.linalg.norm(vec)
    if kind in ("norm", "trace"):  # |‖v‖² − 1| ≈ 1.5e-10: past STATE_TOL while |‖v‖ − 1| is within it
        vec *= 1.0 + (1e-3 if kind == "norm" else 0.75e-10)
    if kind == "nan":
        vec[rng.integers(size)] = np.nan
    want = _outcome_of(state_from_density, np.outer(vec, vec.conj()), g, rep)
    assert _outcome_of(pure_state, vec, g, rep) == want
    assert (want is ValueError) == (kind != "unit")


def test_pure_state_memory_holds_two_dense_arrays():
    g = pair_groupoid(32)
    vec = np.random.default_rng(32).standard_normal(g.n_transitions) + 0j
    vec /= np.linalg.norm(vec)
    pure_state(vec, g)
    tracemalloc.start()
    try:
        pure_state(vec, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # d = 1024: v v† and its gathered terms are 16 MiB each, 33.9 MiB traced in all; a third
    # d × d complex array, such as a masked copy of the terms, takes it to 49.0 MiB
    assert peak <= 40 * 2**20


def test_state_from_phi_checks_normalization():
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        state_from_phi({0: 0.4, 1: 0.0}, g)  # units must sum to one


def test_state_from_phi_checks_conjugation_symmetry():
    g = pair_groupoid(2)
    with pytest.raises(ValueError):
        state_from_phi({0: 0.5, 3: 0.5, 1: 0.5, 2: -0.5}, g)


def test_non_finite_inputs_are_rejected():
    g = pair_groupoid(2)
    units = [g.unit(x) for x in range(2)]
    t = next(t for t in range(4) if t not in units)
    with pytest.raises(ValueError, match=f"unit amplitude at object {g.label(0)}"):
        state_from_phi({units[0]: np.nan, units[1]: 0.5}, g)
    with pytest.raises(ValueError, match=f"conjugation symmetry at transition {min(t, g.inverse(t))}"):
        state_from_phi({units[0]: 0.5, units[1]: 0.5, t: np.nan, g.inverse(t): np.nan}, g)
    with pytest.raises(ValueError, match="norm"):
        pure_state(np.array([1.0, np.nan, 0.0, 0.0]), g)
    rho = np.eye(4) / 4.0
    rho[2, 2] = np.nan
    with pytest.raises(ValueError, match="self-adjoint"):
        state_from_density(rho, g)
    with pytest.raises(ValueError, match="unimodular"):
        state_from_transition_phases(g, [1.0, np.nan, 1.0, 1.0])


def test_state_from_phi_checks_positivity():
    g = cyclic_group(2)
    # phi(unit)=1, phi(flip)=2 makes the 2x2 Gram matrix indefinite
    with pytest.raises(ValueError, match="positive semidefinite"):
        state_from_phi({0: 1.0, 1: 2.0}, g)


@pytest.mark.parametrize("bad_components,named", [((2,), "2:0"), ((2, 1), "1:0"), ((0, 2), "0:0")])
def test_positivity_failure_names_the_first_object(bad_components, named):
    # pair(2) ⊔ pair(3) ⊔ pair(2): the Gram matrices of objects 0, 1, 5 and 6 are 2x2 and share one stacked check
    g = disjoint_union([pair_groupoid(2), pair_groupoid(3), pair_groupoid(2)])
    component = np.repeat([0, 1, 2], [2, 3, 2])
    phi = {int(t): 1.0 / 7.0 for t in (g.unit(x) for x in range(g.n_objects))}
    for t in np.flatnonzero(g.source != g.target):
        if component[g.source[t]] in bad_components:
            phi[int(t)] = 0.5  # beyond sqrt(phi(x) phi(y)) = 1/7
    with pytest.raises(ValueError, match=f"Gram matrix at object {named} is not positive semidefinite"):
        state_from_phi(phi, g)
    good = {t: v for t, v in phi.items() if g.source[t] == g.target[t]}
    assert state_from_phi(good, g).phi[g.unit(5)] == pytest.approx(1.0 / 7.0)


def test_state_from_phi_roundtrips_density_amplitudes(rng):
    g = pair_groupoid(2)
    s = random_state(g, rng)
    t = state_from_phi(s.phi, g)
    assert all(t.phi[k] == pytest.approx(s.phi[k]) for k in range(4))


def test_phases_must_be_unimodular_and_multiplicative():
    g = cyclic_group(2)
    with pytest.raises(ValueError, match="unimodular"):
        state_from_transition_phases(g, [1.0, 2.0])
    with pytest.raises(ValueError, match="multiplicative"):
        state_from_transition_phases(g, [1.0, 1.0j])
    with pytest.raises(ValueError, match="one phase per transition"):
        state_from_transition_phases(g, [1.0])


def test_character_phases_give_factorizable_states():
    g = cyclic_group(4)
    table = isotropy_character_table(g, 0)
    for k in range(4):
        s = state_from_transition_phases(g, table.values[k])
        ok, worst = is_factorizable(s)
        assert ok, worst
        assert s.phi[1] == pytest.approx(table.values[k, 1])


def test_connected_groupoid_phase_state_is_not_factorizable():
    g = pair_groupoid(2)
    s = state_from_transition_phases(g, [1.0, 1.0, 1.0, 1.0])
    assert s.phi[0] == pytest.approx(0.5)
    ok, worst = is_factorizable(s)
    assert not ok
    assert worst == pytest.approx(0.25)


# -- decoherence functional and measures ----------------------------------------


def test_superposition_interference_witness():
    g, s = superposition_state()
    stay, ret, flip = {0}, {2}, {3}
    assert quantum_measure(s, stay) == pytest.approx(0.5)
    assert quantum_measure(s, ret) == pytest.approx(0.5)
    assert quantum_measure(s, flip) == pytest.approx(0.5)
    assert decoherence_functional(s, stay, ret) == pytest.approx(0.5)
    assert interference(s, stay, ret) == pytest.approx(1.0)
    assert interference(s, stay, flip) == pytest.approx(0.0, abs=1e-12)


def test_diagonal_states_do_not_interfere(rng):
    g = pair_groupoid(2)
    s = state_from_density(np.diag(rng.dirichlet(np.ones(4))).astype(complex), g)
    assert interference(s, {0}, {2}) == pytest.approx(0.0, abs=1e-10)
    assert interference(s, {1}, {3}) == pytest.approx(0.0, abs=1e-10)


def test_interference_requires_disjoint_sets():
    _, s = superposition_state()
    with pytest.raises(ValueError, match="disjoint"):
        interference(s, {0, 1}, {1})
    with pytest.raises(ValueError, match="two or three"):
        interference(s, {0})


def test_decoherence_functional_rejects_foreign_ids():
    _, s = superposition_state()
    with pytest.raises(ValueError, match="does not belong"):
        decoherence_functional(s, {0}, {9})


@on_groupoids
def test_decoherence_functional_is_hermitian(g, seed):
    rng = np.random.default_rng(seed)
    s = random_state(g, rng)
    a, b = random_partition(g, rng, 2)
    dab = decoherence_functional(s, a, b)
    dba = decoherence_functional(s, b, a)
    assert dab == pytest.approx(np.conj(dba))


@on_groupoids
def test_decoherence_functional_is_biadditive(g, seed):
    rng = np.random.default_rng(seed)
    s = random_state(g, rng)
    a, b, c = random_partition(g, rng, 3)
    whole = decoherence_functional(s, a | b, c)
    split = decoherence_functional(s, a, c) + decoherence_functional(s, b, c)
    assert whole == pytest.approx(split)


@on_groupoids
def test_measures_are_real_and_diagonal_nonnegative(g, seed):
    rng = np.random.default_rng(seed)
    s = random_state(g, rng)
    (a,) = random_partition(g, rng, 1)
    mu = quantum_measure(s, a)
    assert mu >= -1e-10


@on_groupoids
def test_pair_interference_matches_cross_terms(g, seed):
    rng = np.random.default_rng(seed)
    s = random_state(g, rng)
    a, b = random_partition(g, rng, 2)
    i2 = interference(s, a, b)
    cross = decoherence_functional(s, a, b)
    assert i2 == pytest.approx(2.0 * cross.real)


def test_full_history_set_has_unit_measure(rng):
    # summing over everything recovers normalization for unit targets
    g = pair_groupoid(2)
    s = random_state(g, rng)
    total = quantum_measure(s, range(g.n_transitions))
    assert total >= -1e-10


# -- amplitudes ------------------------------------------------------------------


def test_amplitude_sums_direct_histories():
    g, s = superposition_state()
    assert amplitude(s, 0, 1) == pytest.approx(s.phi[1])
    assert amplitude(s, 0, 0) == pytest.approx(s.phi[0])


def test_amplitude_checks_object_range():
    _, s = superposition_state()
    with pytest.raises(ValueError, match="out of range"):
        amplitude(s, 0, 5)


# -- the Gram kernel against the per-gather route ---------------------------------


def _reference_functional(s, sa, sb):
    g = s.groupoid
    composite = g.table[g.inverse_table[sa][:, None], sb[None, :]]
    return complex(s._amplitudes[composite[composite >= 0]].sum())


def _reference_measure(s, sa):
    d = _reference_functional(s, sa, sa)
    if not abs(d.imag) <= 1e-12 * max(1.0, abs(d)):
        raise RuntimeError(f"measure came out non-real: imaginary part {d.imag:.3e}")
    return float(d.real)


def _reference_interference(s, *sets):
    g = s.groupoid
    families = [_check_history_set(g, a) for a in sets]
    if families and np.bincount(np.concatenate(families), minlength=1).max() > 1:
        raise ValueError("interference terms need pairwise disjoint history sets")

    def mu(*parts):
        member = np.zeros(g.n_transitions, dtype=bool)
        for part in parts:
            member[part] = True
        return _reference_measure(s, np.flatnonzero(member))

    if len(families) == 2:
        a, b = families
        return mu(a, b) - mu(a) - mu(b)
    if len(families) == 3:
        a, b, c = families
        return mu(a, b, c) - mu(a, b) - mu(a, c) - mu(b, c) + mu(a) + mu(b) + mu(c)
    raise ValueError("interference is defined for two or three history sets")


def reference_rows(s, sets):
    """The ``measure`` rows by one gather per D and per μ, as the command computed them before the Gram kernel."""
    g = s.groupoid
    rows = [("mu", (k,), complex(_reference_measure(s, _check_history_set(g, a)))) for k, a in enumerate(sets)]
    for (i, a), (j, b) in combinations(enumerate(sets), 2):
        rows.append(("D", (i, j), _reference_functional(s, _check_history_set(g, a), _check_history_set(g, b))))
        if not set(a) & set(b):
            rows.append(("I2", (i, j), complex(_reference_interference(s, a, b))))
    for (i, a), (j, b), (k, c) in combinations(enumerate(sets), 3):
        if not (set(a) & set(b) or set(a) & set(c) or set(b) & set(c)):
            rows.append(("I3", (i, j, k), complex(_reference_interference(s, a, b, c))))
    return rows


def _outcome(f, *args):
    try:
        return f(*args), None
    except (ValueError, RuntimeError) as e:
        return None, e


def _close(x, y):
    return abs(x - y) <= 1e-12 * max(1.0, abs(y))


def _assert_same_outcome(got, want):
    """Equal rows (values within 1e-12) or a scalar within 1e-12, or the same error."""
    (value, error), (ref_value, ref_error) = got, want
    assert type(error) is type(ref_error)
    if ref_error is None:
        if isinstance(ref_value, list):
            assert [r[:2] for r in value] == [r[:2] for r in ref_value]
            assert all(_close(r[2], q[2]) for r, q in zip(value, ref_value)), (value, ref_value)
        else:
            assert _close(value, ref_value)
    elif isinstance(ref_error, RuntimeError):  # the printed imaginary part may round differently in its last digit
        head, _, number = str(error).rpartition(" ")
        ref_head, _, ref_number = str(ref_error).rpartition(" ")
        assert head == ref_head and float(number) == pytest.approx(float(ref_number), rel=2e-3, abs=1e-300)
    else:
        assert str(error) == str(ref_error)


def _drawn_state(g, kind, rng):
    n = g.n_transitions
    if kind == "pure":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return pure_state(v / np.linalg.norm(v), g)
    if kind == "mixed":
        return random_state(g, rng)
    # unvalidated amplitude tables: real ones keep every μ real, complex ones make μ non-real
    phi = rng.standard_normal(n) + (1j * rng.standard_normal(n) if kind == "raw-complex" else 0.0)
    return StateFn(g, dict(enumerate(phi.tolist())))


def _drawn_sets(g, count, rng):
    """``count`` history sets: mostly disjoint, some overlapping, empty, with duplicate ids or an id out of range."""
    n = g.n_transitions
    labels = rng.integers(count + 1, size=n)
    sets = [np.flatnonzero(labels == k).tolist() for k in range(count)]
    for ids in sets:
        if rng.random() < 0.3:
            ids += rng.choice(n, size=int(rng.integers(1, 3))).tolist()
        if rng.random() < 0.15:
            ids.clear()
        if rng.random() < 0.05:
            ids.append(int(rng.choice([-1, n, n + 3])))
        rng.shuffle(ids)
    return sets


@settings(deadline=None, max_examples=60)
@given(
    random_groupoids(max_transitions=36),
    st.sampled_from(["pure", "mixed", "raw-real", "raw-complex"]),
    st.integers(0, 7),
    st.integers(0, 2**31 - 1),
)
def test_gram_kernel_equals_the_per_gather_route(g, kind, count, seed):
    rng = np.random.default_rng(seed)
    s = _drawn_state(g, kind, rng)
    sets = _drawn_sets(g, count, rng)
    _assert_same_outcome(_outcome(measure_rows, s, sets), _outcome(reference_rows, s, sets))
    _assert_same_outcome(_outcome(interference, s, *sets[:3]), _outcome(_reference_interference, s, *sets[:3]))
    for a in sets[:2]:
        want = _outcome(lambda: _reference_measure(s, _check_history_set(g, a)))
        _assert_same_outcome(_outcome(quantum_measure, s, a), want)
    if len(sets) >= 2:
        a, b = sets[:2]
        want = _outcome(lambda: _reference_functional(s, _check_history_set(g, a), _check_history_set(g, b)))
        _assert_same_outcome(_outcome(decoherence_functional, s, a, b), want)


def test_measure_rows_are_the_same_in_chunks_of_one_union(monkeypatch):
    g = pair_groupoid(3)
    s = random_state(g, np.random.default_rng(3))
    sets = [[0, 1], [2], [3, 4], [5, 6], [7], [8]]
    whole = measure_rows(s, sets)
    monkeypatch.setattr(states, "UNION_CHUNK_ENTRIES", 1)
    chunked = measure_rows(s, sets)
    assert [r[:2] for r in chunked] == [r[:2] for r in whole]
    assert all(_close(r[2], q[2]) for r, q in zip(chunked, whole))
    assert [r[:2] for r in whole] == [r[:2] for r in reference_rows(s, sets)]


def test_measure_rows_on_no_sets_and_empty_sets():
    _, s = superposition_state()
    assert measure_rows(s, []) == []
    rows = measure_rows(s, [[], [0]])
    assert [r[:2] for r in rows] == [("mu", (0,)), ("mu", (1,)), ("D", (0, 1)), ("I2", (0, 1))]
    assert rows[0][2] == 0 and rows[2][2] == 0 and rows[3][2] == 0


def test_measure_rows_raise_in_row_order():
    g = pair_groupoid(2)
    s = StateFn(g, {t: 1j for t in range(4)})  # every non-empty μ is non-real
    with pytest.raises(RuntimeError, match="non-real"):  # the μ row of set 0 comes before set 1's range check
        measure_rows(s, [[0], [9]])
    with pytest.raises(ValueError, match="transition id 9 does not belong"):
        measure_rows(s, [[], [9], [0]])


def _block_measure(s, ids):
    """μ(ids) as the explicit double sum of φ(u⁻¹∘v) over the whole block."""
    g = s.groupoid
    pairs = [(g.inverse_table[u], v) for u in ids for v in ids]
    return sum(s.phi[int(g.table[a, b])] for a, b in pairs if g.table[a, b] >= 0)


def test_union_measures_are_their_own_block_sums():
    # a real amplitude table that is not conjugate-symmetric: D(a, b) and D(b, a) differ, so a union's μ
    # assembled as μ(a) + μ(b) + 2 Re D(a, b) would miss μ(a ∪ b) by D(b, a) − D(a, b)
    g = pair_groupoid(3)
    rng = np.random.default_rng(5)
    s = StateFn(g, dict(enumerate(rng.standard_normal(g.n_transitions).tolist())))
    a, b, c = [0, 4], [1, 5, 8], [2, 7]
    i2 = interference(s, a, b)
    assert i2 == pytest.approx(_block_measure(s, a + b) - _block_measure(s, a) - _block_measure(s, b), abs=1e-12)
    assert abs(i2 - 2.0 * decoherence_functional(s, a, b).real) > 0.1
    rows = {r[:2]: r[2] for r in measure_rows(s, [a, b, c])}
    for x, y in combinations(range(3), 2):
        sx, sy = [a, b, c][x], [a, b, c][y]
        want = _block_measure(s, sx + sy) - _block_measure(s, sx) - _block_measure(s, sy)
        assert rows[("I2", (x, y))] == pytest.approx(want, abs=1e-12)
    assert rows[("I3", (0, 1, 2))] == pytest.approx(0.0, abs=1e-12)


# -- the positivity certificate ---------------------------------------------------


def _hermitian_with_spectrum(rng, spectrum):
    d = len(spectrum)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    h = (q * np.asarray(spectrum)) @ q.conj().T
    return (h + h.conj().T) / 2.0


@pytest.mark.parametrize("n", [2, 8, 12])
def test_certificate_accepts_rank_deficient_densities(n):
    rng = np.random.default_rng(n)
    g = pair_groupoid(n)
    d = g.n_transitions
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    rank_two = _hermitian_with_spectrum(rng, [0.3, 0.7] + [0.0] * (d - 2))
    for rho in (np.outer(v, v.conj()), rank_two):
        assert _least_eigenvalues(rho, 1e-10) == np.inf  # accepted by the certificate, without eigvalsh
        state_from_density(rho, g)
    assert pure_state(v, g).vector is not None


@pytest.mark.parametrize("tol", [1e-10, 1e-6, 1e-3])
@pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
@pytest.mark.parametrize("d", [1, 2, 9])
def test_certificate_decides_the_boundary_as_eigvalsh(tol, factor, d):
    rng = np.random.default_rng(d)
    spectrum = [-tol * factor] + list(rng.uniform(0.0, 1.0, d - 1))
    for h in (np.diag(np.asarray(spectrum, dtype=complex)), _hermitian_with_spectrum(rng, spectrum)):
        accepted = _least_eigenvalues(h, tol) >= -tol
        assert accepted == (np.linalg.eigvalsh(h)[0] >= -tol)


@pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
def test_density_at_the_boundary_is_decided_with_its_eigenvalue(factor):
    rho = np.diag([-1e-10 * factor, 0.5, 0.5 + 1e-10 * factor]).astype(complex)
    if factor > 1:
        with pytest.raises(ValueError, match=r"not positive semidefinite \(min eigenvalue -1\.000e-10\)"):
            state_from_density(rho, pair_groupoid(3), "fundamental")
    else:
        assert state_from_density(rho, pair_groupoid(3), "fundamental").phi[0] == pytest.approx(-1e-10 * factor)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 24),
    st.integers(1, 4),
    st.floats(0.0, 3.0) | st.floats(1 - 1e-5, 1 + 1e-5),
    st.sampled_from([1e-12, 1e-10, 1e-9, 1e-6]),
    st.integers(0, 2**31 - 1),
)
def test_certificate_never_accepts_below_minus_tol(d, stack, ratio, tol, seed):
    rng = np.random.default_rng(seed)
    # λ_min between 0 and −3·tol, often next to −tol; the other eigenvalues anywhere in [0, 1], some exactly 0
    h = np.array([
        _hermitian_with_spectrum(rng, [-ratio * tol] + list(rng.uniform(0, 1, d - 1) * (rng.random(d - 1) < 0.7)))
        for _ in range(stack)
    ])
    least = _least_eigenvalues(h, tol)
    exact = np.linalg.eigvalsh(h)[:, 0]
    assert np.all((least == np.inf) <= (exact >= -tol))
    assert np.all((least == np.inf) | (least == exact))
