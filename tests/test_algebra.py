"""Transition algebra: product, involution, representations, commutants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from groupoidqm import (
    FUNDAMENTAL,
    LEFT_REGULAR,
    AlgebraElement,
    algebra_basis,
    character_diagonalization,
    commutant,
    cyclic_group,
    direct_product,
    disjoint_union,
    double_commutant_dimension,
    fundamental,
    involution,
    is_abelian,
    isotropy_character_table,
    left_regular,
    multiply,
    operator_norm,
    pair_groupoid,
    product_transition,
    representation_matrix,
    span_dimension,
    symmetric_group,
    tensor_embed,
    unit_element,
)
from groupoidqm.algebra import _exceeds, _norms

from conftest import groupoid_cases

# fixed cases, run as explicit examples of the drawn groupoids
GROUPOIDS = [
    pair_groupoid(2),
    pair_groupoid(3),
    cyclic_group(2),
    cyclic_group(4),
    symmetric_group(3),
    disjoint_union([cyclic_group(2), cyclic_group(3)]),
    direct_product(pair_groupoid(2), cyclic_group(2)),
]


def elements_of(g):
    coeff = st.tuples(
        st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False)
    ).map(lambda p: complex(*p))
    return st.dictionaries(st.integers(0, g.n_transitions - 1), coeff, max_size=4).map(AlgebraElement)


def spread_elements(g):
    """Three elements on every transition of ``g``, with unit coefficients of differing phases."""
    t = np.arange(g.n_transitions)
    return [AlgebraElement(dict(enumerate(np.exp(1j * (k + 1) * t)))) for k in range(3)]


on_groupoids = groupoid_cases(
    GROUPOIDS, draws=lambda g: st.lists(elements_of(g), min_size=3, max_size=3), example_of=spread_elements
)


# -- element arithmetic ------------------------------------------------------


def test_zero_coefficients_are_pruned():
    a = AlgebraElement({0: 0.0, 1: 2.0, 2: 0j})
    assert a.support == {1}
    assert a.get(0) == 0j


def test_element_equality_and_isclose():
    a = AlgebraElement({0: 1.0, 1: 1e-12})
    b = AlgebraElement({0: 1.0})
    assert a != b
    assert a.isclose(b, tol=1e-10)


def test_multiply_follows_the_composition_table():
    # in pair_groupoid(2): (f + 1_x)(f^-1 + 1_x) = 1_y + f + f^-1 + 1_x
    g = pair_groupoid(2)
    f, f_inv, unit_x = 1, 2, 0
    left = AlgebraElement({f: 1.0, unit_x: 1.0})
    right = AlgebraElement({f_inv: 1.0, unit_x: 1.0})
    product = multiply(left, right, g)
    assert product == AlgebraElement({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})


def test_multiply_drops_noncomposable_pairs():
    g = pair_groupoid(2)
    assert multiply(AlgebraElement({1: 1.0}), AlgebraElement({1: 1.0}), g).is_zero()


def test_multiply_rejects_foreign_ids():
    g = cyclic_group(2)
    with pytest.raises(ValueError):
        multiply(AlgebraElement({5: 1.0}), unit_element(g), g)


def test_unit_element_sums_all_units():
    g = disjoint_union([cyclic_group(2), cyclic_group(3)])
    one = unit_element(g)
    assert one == AlgebraElement({g.unit(0): 1.0, g.unit(1): 1.0})


@on_groupoids
def test_unit_element_is_neutral(g, elements):
    a = elements[0]
    one = unit_element(g)
    assert multiply(one, a, g) == a
    assert multiply(a, one, g) == a


@on_groupoids
def test_multiply_is_associative(g, elements):
    a, b, c = elements
    lhs = multiply(multiply(a, b, g), c, g)
    rhs = multiply(a, multiply(b, c, g), g)
    assert lhs.isclose(rhs, tol=1e-9)


@on_groupoids
def test_involution_is_an_antihomomorphism(g, elements):
    a, b, _ = elements
    lhs = involution(multiply(a, b, g), g)
    rhs = multiply(involution(b, g), involution(a, g), g)
    assert lhs.isclose(rhs, tol=1e-9)


@on_groupoids
def test_involution_is_involutive(g, elements):
    a = elements[0]
    assert involution(involution(a, g), g) == a


def test_involution_conjugates_and_inverts():
    g = pair_groupoid(2)
    a = AlgebraElement({1: 2.0 + 1.0j})
    assert involution(a, g) == AlgebraElement({2: 2.0 - 1.0j})


# -- representations ---------------------------------------------------------


def test_left_regular_unit_projection_matrix():
    g = pair_groupoid(2)
    m = left_regular(AlgebraElement({0: 1.0}), g).matrix
    assert_allclose(m, np.diag([1.0, 0.0, 1.0, 0.0]))


def test_fundamental_moves_outcomes():
    g = pair_groupoid(2)
    m = fundamental(AlgebraElement({1: 1.0}), g).matrix  # transition 0 -> 1
    expected = np.zeros((2, 2))
    expected[1, 0] = 1.0
    assert_allclose(m, expected)


def test_fundamental_collapses_isotropy():
    g = cyclic_group(4)
    for t in range(4):
        assert_allclose(fundamental(AlgebraElement({t: 1.0}), g).matrix, [[1.0]])


def test_representation_matrix_rejects_unknown_rep():
    with pytest.raises(ValueError, match="representation"):
        representation_matrix(AlgebraElement({0: 1.0}), cyclic_group(2), rep="spin")


@on_groupoids
def test_representation_is_a_star_homomorphism(g, elements):
    a, b, _ = elements
    for rep in (LEFT_REGULAR, FUNDAMENTAL):
        ma = representation_matrix(a, g, rep).matrix
        mb = representation_matrix(b, g, rep).matrix
        mab = representation_matrix(multiply(a, b, g), g, rep).matrix
        assert_allclose(ma @ mb, mab, atol=1e-9)
        mstar = representation_matrix(involution(a, g), g, rep).matrix
        assert_allclose(mstar, ma.conj().T, atol=1e-12)


def test_algebra_basis_matches_transition_count():
    g = symmetric_group(3)
    basis = algebra_basis(g)
    assert len(basis) == g.n_transitions
    assert all(op.rep == LEFT_REGULAR and op.dim == 6 for op in basis)


def test_operator_norm_is_the_largest_singular_value():
    m = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert operator_norm(m) == pytest.approx(2.0)


def _scaled(m: np.ndarray, fro: float) -> np.ndarray:
    return m * (fro / np.linalg.norm(m))


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 8),
    st.integers(1, 6),
    st.sampled_from([1e-12, 1e-9, 1e-3, 1.0, 7.5]),
    st.integers(0, 2**16),
)
def test_exceeds_matches_the_spectral_norm(d, k, tol, salt):
    rng = np.random.default_rng([d, k, salt])
    x = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    # spectral norms spread over [tol/2, 2·√d·tol], across the whole Frobenius band
    x *= (rng.uniform(0.5, 2.0 * np.sqrt(d), size=k) * tol / _norms(x))[:, None, None]
    # the extremes, with their Frobenius norm at either edge of the band (tol, √d·tol]:
    # rank one has ‖·‖₂ = ‖·‖_F, a scaled unitary ‖·‖_F = √d·‖·‖₂
    u = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    rank_one = np.outer(u[:, 0], u[:, 1].conj())
    unitary, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    edges = [
        _scaled(m, edge * tol * (1.0 + nudge))
        for m in (rank_one, unitary)
        for edge in (1.0, np.sqrt(d))
        for nudge in (-1e-11, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-11)
    ]
    stack = np.concatenate([x, edges])
    assert np.array_equal(_exceeds(stack, tol), _norms(stack) > tol)
    assert bool(_exceeds(stack[0], tol)) == bool(_norms(stack[0]) > tol)
    # a NaN anywhere exceeds every tolerance
    stack[::2, 0, 0] = np.nan
    assert _exceeds(stack, tol)[::2].all()
    assert np.array_equal(_exceeds(stack, tol)[1::2], _norms(stack[1::2]) > tol)


# -- span and commutant -------------------------------------------------------


@pytest.mark.parametrize(
    "g, expected",
    [
        (pair_groupoid(2), 4),
        (pair_groupoid(3), 9),
        (cyclic_group(4), 4),
        (symmetric_group(3), 6),
        (disjoint_union([cyclic_group(2), cyclic_group(3)]), 5),
    ],
    ids=["pair2", "pair3", "z4", "s3", "z2+z3"],
)
def test_left_regular_span_dimension(g, expected):
    mats = [op.matrix for op in algebra_basis(g)]
    assert span_dimension(mats) == expected


def test_commutant_members_commute_with_the_algebra():
    g = pair_groupoid(2)
    mats = [op.matrix for op in algebra_basis(g)]
    comm = commutant(mats)
    assert len(comm) == 4  # one full matrix factor on the multiplicity space
    for c in comm:
        for b in mats:
            assert operator_norm(b @ c - c @ b) < 1e-9


def test_commutant_of_abelian_algebra_contains_it():
    g = cyclic_group(3)
    mats = [op.matrix for op in algebra_basis(g)]
    comm = commutant(mats)
    assert len(comm) == 3
    assert span_dimension(list(comm) + mats) == 3


@pytest.mark.parametrize("g", GROUPOIDS, ids=lambda g: repr(g))
def test_double_commutant_equals_span(g):
    mats = [op.matrix for op in algebra_basis(g)]
    assert double_commutant_dimension(g) == span_dimension(mats)


def test_is_abelian():
    assert is_abelian(cyclic_group(5))
    assert is_abelian(disjoint_union([cyclic_group(2), cyclic_group(2)]))
    assert not is_abelian(pair_groupoid(2))
    assert not is_abelian(symmetric_group(3))


# -- characters ---------------------------------------------------------------


def test_character_table_of_z4():
    table = isotropy_character_table(cyclic_group(4), 0)
    assert table.orders == (4,)
    assert table.values.shape == (4, 4)
    # characters are multiplicative and orthogonal
    g = cyclic_group(4)
    for k in range(4):
        chi = {t: table.values[k, i] for i, t in enumerate(table.loop_ids)}
        for a in range(4):
            for b in range(4):
                assert chi[g.compose(a, b)] == pytest.approx(chi[a] * chi[b], abs=1e-12)
    gram = table.values @ table.values.conj().T
    assert_allclose(gram, 4 * np.eye(4), atol=1e-12)


def test_character_table_of_klein_four_group():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    table = isotropy_character_table(g, 0)
    assert sorted(table.orders) == [2, 2]
    assert_allclose(np.abs(table.values), np.ones((4, 4)))
    assert_allclose(np.imag(table.values), np.zeros((4, 4)), atol=1e-12)


def test_character_table_rejects_nonabelian_isotropy():
    with pytest.raises(ValueError, match="not abelian"):
        isotropy_character_table(symmetric_group(3), 0)


def test_character_diagonalization_diagonalizes():
    g = disjoint_union([cyclic_group(2), cyclic_group(3)])
    u, labels = character_diagonalization(g)
    assert u.shape == (5, 5)
    assert_allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
    assert len(labels) == 5
    rng = np.random.default_rng(7)
    for _ in range(5):
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        m = left_regular(AlgebraElement(dict(enumerate(coeffs))), g).matrix
        d = u.conj().T @ m @ u
        off = d - np.diag(np.diag(d))
        assert operator_norm(off) < 1e-12


def test_character_diagonalization_requires_structure():
    with pytest.raises(ValueError, match="totally disconnected"):
        character_diagonalization(pair_groupoid(2))
    with pytest.raises(ValueError, match="abelian"):
        character_diagonalization(symmetric_group(3))


# -- products -----------------------------------------------------------------


def test_product_transition_indexing():
    ga, gb = pair_groupoid(2), cyclic_group(2)
    assert product_transition(ga, gb, 1, 1) == 3
    with pytest.raises(ValueError):
        product_transition(ga, gb, 4, 0)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_tensor_embed_represents_as_kronecker(data):
    ga = data.draw(st.sampled_from([pair_groupoid(2), cyclic_group(2)]))
    gb = data.draw(st.sampled_from([cyclic_group(3), pair_groupoid(2)]))
    a = data.draw(elements_of(ga))
    b = data.draw(elements_of(gb))
    g = direct_product(ga, gb)
    embedded = tensor_embed(a, b, ga, gb)
    lhs = left_regular(embedded, g).matrix
    rhs = np.kron(left_regular(a, ga).matrix, left_regular(b, gb).matrix)
    assert_allclose(lhs, rhs, atol=1e-12)
