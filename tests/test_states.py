"""States, decoherence functionals, quantum measures and interference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from groupoidqm import (
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

from conftest import random_density

GROUPOIDS = [
    pair_groupoid(2),
    pair_groupoid(3),
    cyclic_group(4),
    disjoint_union([cyclic_group(2), pair_groupoid(2)]),
]


def superposition_state():
    g = pair_groupoid(2)
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[1] = 1 / np.sqrt(2)
    return g, pure_state(vec, g)


def random_state(g, rng):
    return state_from_density(random_density(rng, g.n_transitions), g)


def random_partition(g, rng, parts):
    ids = rng.permutation(g.n_transitions)
    cuts = sorted(rng.choice(np.arange(1, g.n_transitions), size=parts - 1, replace=False))
    return [set(int(i) for i in chunk) for chunk in np.split(ids, cuts)]


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


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(GROUPOIDS), st.integers(0, 2**31 - 1))
def test_decoherence_functional_is_hermitian(g, seed):
    rng = np.random.default_rng(seed)
    s = random_state(g, rng)
    a, b = random_partition(g, rng, 2)
    dab = decoherence_functional(s, a, b)
    dba = decoherence_functional(s, b, a)
    assert dab == pytest.approx(np.conj(dba))


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(GROUPOIDS), st.integers(0, 2**31 - 1))
def test_decoherence_functional_is_biadditive(g, seed):
    rng = np.random.default_rng(seed)
    s = random_state(g, rng)
    a, b, c = random_partition(g, rng, 3)
    whole = decoherence_functional(s, a | b, c)
    split = decoherence_functional(s, a, c) + decoherence_functional(s, b, c)
    assert whole == pytest.approx(split)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(GROUPOIDS), st.integers(0, 2**31 - 1))
def test_measures_are_real_and_diagonal_nonnegative(g, seed):
    rng = np.random.default_rng(seed)
    s = random_state(g, rng)
    (a,) = random_partition(g, rng, 1)
    mu = quantum_measure(s, a)
    assert mu >= -1e-10


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(GROUPOIDS), st.integers(0, 2**31 - 1))
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
