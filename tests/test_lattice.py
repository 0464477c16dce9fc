"""Proposition lattice: certification, order, meet/join, Boolean checks."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from groupoidqm import (
    CertificationError,
    ConvergenceError,
    canonical_propositions,
    certify_proposition,
    check_boolean,
    classicality_verdict,
    complement,
    cyclic_group,
    disjoint_union,
    is_proposition,
    join,
    leq,
    meet,
    operator_norm,
    pair_groupoid,
    range_intersection_projection,
    spectral_projections,
    symmetric_group,
    transition_proposition,
    unit_proposition,
)
from groupoidqm.formats import fixture_path, load_groupoid
from groupoidqm.lattice import DEFAULT_TOL, LawViolation, _meet_m, meet_unsymmetrized

from conftest import dihedral_group, quaternion_group, random_groupoids, random_projection


def certified(m: np.ndarray):
    return certify_proposition(np.asarray(m, dtype=complex))


# -- certification ------------------------------------------------------------


def test_certify_unit_projection():
    g = pair_groupoid(2)
    p = unit_proposition(g, 0)
    assert_allclose(p.matrix, np.diag([1.0, 0.0, 1.0, 0.0]))
    assert p.rank == 2
    assert p.residual_adjoint <= 1e-15
    assert p.residual_idempotent <= 1e-15
    assert p.label == "unit[0]"


def test_certify_rejects_non_idempotent():
    with pytest.raises(CertificationError) as exc:
        certified(np.diag([0.5, 1.0]))
    assert exc.value.residual_idempotent > 0.2
    assert not is_proposition(np.diag([0.5, 1.0]))


def test_certify_rejects_non_selfadjoint():
    m = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(CertificationError):
        certified(m)
    assert not is_proposition(m)


def test_superposition_proposition_is_a_projection():
    g = pair_groupoid(2)
    p = transition_proposition(g, 1)
    assert p.rank == 2  # minimal in the algebra; doubled by multiplicity
    assert_allclose(p.matrix @ p.matrix, p.matrix, atol=1e-14)
    assert transition_proposition(g, 1, rep="fundamental").rank == 1
    # built from the transition and its inverse symmetrically
    assert transition_proposition(g, 2).matrix == pytest.approx(p.matrix)


def test_superposition_proposition_rejects_loops():
    g = cyclic_group(3)
    with pytest.raises(ValueError, match="distinct objects"):
        transition_proposition(g, 1)


# -- order, complement --------------------------------------------------------


def test_leq_basics():
    g = pair_groupoid(2)
    p = unit_proposition(g, 0)
    q = unit_proposition(g, 1)
    top = certified(np.eye(4))
    assert leq(p, p)
    assert leq(p, top)
    assert not leq(p, q)
    assert not leq(top, p)


def test_complement_is_orthogonal():
    g = pair_groupoid(2)
    p = unit_proposition(g, 0)
    pc = complement(p)
    assert_allclose(p.matrix + pc.matrix, np.eye(4))
    assert operator_norm(p.matrix @ pc.matrix) <= 1e-15
    assert leq(meet(p, pc), certified(np.zeros((4, 4))))


def test_units_of_distinct_outcomes_are_orthogonal():
    g = pair_groupoid(3)
    p, q = unit_proposition(g, 0), unit_proposition(g, 1)
    assert operator_norm(p.matrix @ q.matrix) <= 1e-15
    assert_allclose(join(p, q).matrix, p.matrix + q.matrix, atol=1e-12)


# -- meet and join ------------------------------------------------------------


def test_meet_of_unit_and_superposition_vanishes():
    g = pair_groupoid(2)
    p = unit_proposition(g, 0)
    s = transition_proposition(g, 1)
    assert operator_norm(meet(p, s).matrix) <= 1e-10


def test_meet_is_the_common_part():
    p = certified(np.diag([1.0, 1.0, 0.0]))
    q = certified(np.diag([0.0, 1.0, 1.0]))
    assert_allclose(meet(p, q).matrix, np.diag([0.0, 1.0, 0.0]), atol=1e-12)
    assert_allclose(join(p, q).matrix, np.eye(3), atol=1e-12)


def test_meet_raises_on_dimension_mismatch():
    for op in (meet, join):
        with pytest.raises(ValueError, match="different spaces"):
            op(certified(np.eye(2)), certified(np.eye(3)))


def test_meet_reports_nonconvergence():
    p = certified(np.diag([1.0, 0.0]))
    q = certified(np.full((2, 2), 0.5))
    with pytest.raises(ConvergenceError) as exc:
        meet(p, q, max_iter=1)
    assert exc.value.iterations == 1
    assert exc.value.residual > 0


def test_commuting_meet_converges_in_one_squaring():
    p = certified(np.diag([1.0, 1.0, 0.0]))
    q = certified(np.diag([0.0, 1.0, 1.0]))
    assert_allclose(meet(p, q, max_iter=1).matrix, np.diag([0.0, 1.0, 0.0]), atol=1e-15)


def test_stacked_meet_equals_pairwise_meet():
    rng = np.random.default_rng(5)
    dim = 6
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    pairs = []
    for k in range(12):
        if k % 3 == 0:  # commuting pairs settle after one squaring, the others take longer
            diag = rng.integers(0, 2, size=(2, dim))
            pairs.append([(basis * d) @ basis.conj().T for d in diag])
        else:
            pairs.append([random_projection(rng, dim, int(rng.integers(1, dim))) for _ in range(2)])
    stacked = _meet_m(np.array([p for p, _ in pairs]), np.array([q for _, q in pairs]))
    for (p, q), m in zip(pairs, stacked):
        assert_allclose(m, meet(certified(p), certified(q)).matrix, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 8), st.integers(0, 10))
def test_meet_matches_range_intersection_oracle(dim, salt):
    rng = np.random.default_rng([dim, salt])
    p = certified(random_projection(rng, dim, int(rng.integers(1, dim))))
    q = certified(random_projection(rng, dim, int(rng.integers(1, dim))))
    limit = meet(p, q).matrix
    oracle = range_intersection_projection(p, q)
    assert operator_norm(limit - oracle) < 1e-8


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 6), st.integers(0, 10))
def test_meet_unsymmetrized_agrees(dim, salt):
    rng = np.random.default_rng([7, dim, salt])
    p = certified(random_projection(rng, dim, int(rng.integers(1, dim))))
    q = certified(random_projection(rng, dim, int(rng.integers(1, dim))))
    assert operator_norm(meet_unsymmetrized(p, q) - meet(p, q).matrix) < 1e-8


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 6), st.integers(0, 10))
def test_join_projects_onto_the_span(dim, salt):
    rng = np.random.default_rng([11, dim, salt])
    p = certified(random_projection(rng, dim, int(rng.integers(1, dim))))
    q = certified(random_projection(rng, dim, int(rng.integers(1, dim))))
    j = join(p, q).matrix
    # the join fixes both ranges and kills the joint orthocomplement
    assert operator_norm(j @ p.matrix - p.matrix) < 1e-8
    assert operator_norm(j @ q.matrix - q.matrix) < 1e-8
    stacked = np.hstack([p.matrix, q.matrix])
    rank = int(np.sum(np.linalg.svd(stacked, compute_uv=False) > 1e-9))
    assert join(p, q).rank == rank


# -- spectral projections -------------------------------------------------------


def test_spectral_projections_resolve_identity():
    m = np.diag([2.0, 2.0, -1.0, 0.0])
    projs = spectral_projections(m)
    assert [p.rank for p in projs] == [1, 1, 2]  # eigenvalues ascending
    total = sum(p.matrix for p in projs)
    assert_allclose(total, np.eye(4), atol=1e-12)
    rebuilt = sum(lam * p.matrix for lam, p in zip([-1.0, 0.0, 2.0], projs))
    assert_allclose(rebuilt, m, atol=1e-12)


def test_spectral_projections_cluster_near_degeneracies():
    m = np.diag([1.0, 1.0 + 1e-12, 3.0])
    assert len(spectral_projections(m, cluster_tol=1e-8)) == 2


# -- canonical propositions and Boolean checks ---------------------------------


def test_canonical_propositions_for_pair_groupoid():
    g = pair_groupoid(2)
    props = canonical_propositions(g, samples=5, seed=42)
    assert len(props) == 8  # 2 units + 1 superposition witness + 5 sampled
    labels = [p.label for p in props]
    assert labels[:2] == ["unit[0]", "unit[1]"]
    assert labels[2] == "superpose[1]"
    for p in props:
        assert p.residual_idempotent <= 1e-9


def test_canonical_propositions_sampling_is_seeded():
    g = pair_groupoid(2)
    a = canonical_propositions(g, samples=3, seed=1)
    b = canonical_propositions(g, samples=3, seed=1)
    for x, y in zip(a, b):
        assert_allclose(x.matrix, y.matrix)


def test_canonical_family_names_its_loops_and_drops_duplicates():
    # Z2's sym cluster at 0 and Z3's sym cluster at 0 are the other component's unit projection
    g = disjoint_union([cyclic_group(2), cyclic_group(3)])
    props = canonical_propositions(g, samples=0)
    labels = [p.label for p in props]
    assert labels[:5] == ["unit[0:*]", "unit[1:*]", "sym[1]:eig[-2]", "sym[3]:eig[-1]", "skew[3]:eig[-1.732]"]
    assert len(labels) == 6 and labels[5].startswith("skew[3]:eig[")
    mats = np.stack([p.matrix for p in props])
    for i, j in itertools.combinations(range(len(props)), 2):
        assert np.linalg.norm(mats[i] - mats[j]) > DEFAULT_TOL


def test_canonical_family_keeps_the_random_draws():
    g = symmetric_group(3)
    fixed = canonical_propositions(g, samples=0)
    sampled = canonical_propositions(g, samples=3, seed=9)
    assert [p.label for p in sampled[:len(fixed)]] == [p.label for p in fixed]
    assert all(p.label.startswith("eig[") for p in sampled[len(fixed):])


def test_check_boolean_accepts_commuting_family():
    g = disjoint_union([cyclic_group(2), cyclic_group(3)])
    report = check_boolean(canonical_propositions(g))
    assert report.is_boolean
    assert report.violations == ()
    assert report.n_propositions >= 2


def test_check_boolean_finds_distributivity_failure():
    # an incompatible pair (P, Q) is a distributivity failure on (P, Q, not Q)
    g = pair_groupoid(2)
    report = check_boolean(canonical_propositions(g))
    assert not report.is_boolean
    assert report.max_residual == pytest.approx(1.0, abs=1e-9)
    assert set(report.by_law()) == {"compatibility"}
    assert all(len(v.operands) == 2 for v in report.violations)
    assert "not Boolean" in report.summary()


def test_check_boolean_fail_fast_stops_early():
    g = pair_groupoid(2)
    report = check_boolean(canonical_propositions(g), fail_fast=True)
    assert len(report.violations) == 1


def reference_check_boolean(props, tol=1e-9, fail_fast=False):
    """Per-pair loops with the range-intersection oracle as the meet."""
    mats = [p.matrix for p in props]
    n = len(mats)
    d = mats[0].shape[0]
    eye = np.eye(d)

    def meet_(a, b):
        return range_intersection_projection(a, b)

    def join_(a, b):
        return eye - range_intersection_projection(eye - a, eye - b)

    violations = []

    def done():
        return fail_fast and bool(violations)

    below = [[operator_norm(mats[i] @ mats[j] - mats[i]) <= tol for j in range(n)] for i in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        if i == j or done():
            continue
        if below[i][j] and below[j][i]:
            res = operator_norm(mats[i] - mats[j])
            if res > tol:
                violations.append(LawViolation("antisymmetry", (i, j), res))
                continue
        if below[i][j]:
            res = operator_norm(mats[j] - join_(mats[i], meet_(mats[j], eye - mats[i])))
            if res > tol:
                violations.append(LawViolation("orthomodularity", (i, j), res))
    for i, j, k in itertools.permutations(range(n), 3):
        if not done() and below[i][j] and below[j][k] and not below[i][k]:
            violations.append(LawViolation("transitivity", (i, j, k), operator_norm(mats[i] @ mats[k] - mats[i])))
    triples = 0
    for i, j in itertools.combinations(range(n), 2):
        if done():
            break
        triples += 1
        res = operator_norm(mats[i] - meet_(mats[i], mats[j]) - meet_(mats[i], eye - mats[j]))
        if res > tol:
            violations.append(LawViolation("compatibility", (i, j), res))
    return n * (n + 1) // 2, triples, violations


def reference_distributivity_holds(props, tol=1e-9):
    """Both distributive laws on every triple, by plain loops with the range-intersection meet."""
    mats = [p.matrix for p in props]
    eye = np.eye(mats[0].shape[0])

    def meet_(a, b):
        return range_intersection_projection(a, b)

    def join_(a, b):
        return eye - range_intersection_projection(eye - a, eye - b)

    for a, b, c in itertools.product(mats, repeat=3):
        if operator_norm(meet_(a, join_(b, c)) - join_(meet_(a, b), meet_(a, c))) > tol:
            return False
        if operator_norm(join_(a, meet_(b, c)) - meet_(join_(a, b), join_(a, c))) > tol:
            return False
    return True


@settings(deadline=None, max_examples=30)
@given(
    st.integers(2, 8),
    st.lists(st.booleans(), min_size=3, max_size=7),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_check_boolean_matches_reference_loops(dim, commuting, fail_fast, salt):
    rng = np.random.default_rng([dim, salt])
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    mats = [
        (basis * rng.integers(0, 2, size=dim)) @ basis.conj().T
        if shared
        else random_projection(rng, dim, int(rng.integers(1, dim)))
        for shared in commuting
    ]
    props = [certified(m) for m in mats]
    report = check_boolean(props, fail_fast=fail_fast)
    pairs, triples, violations = reference_check_boolean(props, fail_fast=fail_fast)
    assert (report.pairs_tested, report.triples_tested) == (pairs, triples)
    assert [(v.law, v.operands) for v in report.violations] == [(v.law, v.operands) for v in violations]
    for got, want in zip(report.violations, violations):
        assert abs(got.residual - want.residual) <= 1e-9
    # a pairwise compatible family generates a distributive lattice
    if not reference_distributivity_holds(props):
        assert not report.is_boolean


def test_check_boolean_memory_stays_chunked():
    # a first verdict pays one-off allocations that later calls do not repeat
    classicality_verdict(pair_groupoid(2))
    g = pair_groupoid(5)
    tracemalloc.start()
    try:
        classicality_verdict(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # per-pair loops peak at 4.4 MiB; whole (n, n, d, d) stacks at over 20 MiB
    assert peak <= 6.6 * 2**20


def test_orthomodularity_holds_even_off_boolean():
    g = pair_groupoid(2)
    report = check_boolean(canonical_propositions(g))
    assert "orthomodularity" not in report.by_law()


# -- classicality verdict -------------------------------------------------------


def test_verdict_pair_groupoid_is_quantum():
    v = classicality_verdict(pair_groupoid(2))
    assert not v.boolean_lattice
    assert not v.totally_disconnected
    assert v.abelian_isotropy
    assert not v.abelian_algebra
    assert v.consistent
    assert not v.is_classical
    assert not v.pseudo_classical
    assert v.witness is not None and v.witness.residual == pytest.approx(1.0, abs=1e-9)


def test_verdict_union_of_cyclic_groups_is_classical():
    v = classicality_verdict(disjoint_union([cyclic_group(2), cyclic_group(3)]))
    assert v.boolean_lattice and v.totally_disconnected
    assert v.abelian_isotropy and v.abelian_algebra
    assert v.consistent and v.is_classical
    assert v.witness is None


@settings(deadline=None, max_examples=40)
@given(random_groupoids(max_transitions=24))
def test_three_routes_agree_on_random_groupoids(g):
    assert classicality_verdict(g, samples=0).consistent


NON_ABELIAN = {
    "Q8": quaternion_group,
    "D4": lambda: dihedral_group(4),
    "S3+S3": lambda: disjoint_union([symmetric_group(3), symmetric_group(3)]),
    "cat_s3": lambda: load_groupoid(fixture_path("cat_s3.groupoid")),
}


@pytest.mark.parametrize("name", sorted(NON_ABELIAN))
def test_non_abelian_groups_are_never_called_boolean(name):
    g = NON_ABELIAN[name]()
    runs = [(0, 42)] + [(5, seed) for seed in range(20)]
    for samples, seed in runs:
        v = classicality_verdict(g, samples=samples, seed=seed)
        assert v.consistent and not v.boolean_lattice, (samples, seed)
        assert v.witness.law == "compatibility"


def test_symmetric_group_4_is_never_called_boolean():
    g = symmetric_group(4)
    for samples, seed in [(0, 42)] + [(5, seed) for seed in range(5)]:
        v = classicality_verdict(g, samples=samples, seed=seed)
        assert v.consistent and not v.boolean_lattice, (samples, seed)


def test_verdict_symmetric_group_is_pseudo_classical():
    v = classicality_verdict(symmetric_group(3))
    assert not v.boolean_lattice
    assert v.totally_disconnected
    assert not v.abelian_isotropy
    assert not v.abelian_algebra
    assert v.consistent
    assert v.pseudo_classical
    assert "pseudo-classical" in v.describe()
