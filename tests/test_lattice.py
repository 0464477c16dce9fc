"""Proposition lattice: certification, order, meet/join, Boolean checks."""

import itertools
import tracemalloc
from collections.abc import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from groupoidqm import (
    CertificationError,
    algebra_basis,
    ConvergenceError,
    canonical_propositions,
    certify_proposition,
    check_boolean,
    classicality_verdict,
    complement,
    cyclic_group,
    direct_product,
    disjoint_union,
    is_proposition,
    join,
    leq,
    meet,
    operator_norm,
    orbit_blocks,
    orbit_decomposition,
    pair_groupoid,
    range_intersection_projection,
    spectral_projections,
    symmetric_group,
    transition_proposition,
    unit_proposition,
)
from groupoidqm.formats import fixture_path, load_groupoid
from groupoidqm import lattice
from groupoidqm.algebra import FUNDAMENTAL, LEFT_REGULAR, AlgebraElement, _exceeds, _norms, involution, representation_matrix
from groupoidqm.lattice import (
    DEFAULT_TOL,
    MEET_PIN_TOL,
    LatticeReport,
    LawViolation,
    _check_blocks,
    meet_unsymmetrized,
)

from conftest import dihedral_group, permute_transitions, quaternion_group, random_groupoids, random_projection


def certified(m: np.ndarray):
    return certify_proposition(np.asarray(m, dtype=complex))


# -- the meet-based engine that the principal angles replaced, kept as a reference ---------
#
# `_meet_eigh`, `_meet_m`, `_join_m`, `_chunks` and the laws of `old_check_blocks` are the lattice
# engine as it stood before the laws were decided from the Gram matrix of the members' ranges,
# verbatim but for the engine's name: every pair's compatibility by two meets, the order by a
# product of every ordered pair, and transitivity from an (n, n, n) tensor.


def _adjoint(x: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(x, -1, -2))


def _meet_eigh(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the symmetrized P Q P, one ``eigh`` per matrix of a stack."""
    x = p @ q @ p
    return np.linalg.eigh(0.5 * (x + _adjoint(x)))


def _meet_m(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Meets of stacks of projections, shape ``(..., d, d)``, in closed form.

    The limit of (P Q P)^n is the spectral projection of P Q P for eigenvalue
    1, the projection onto ran P ∩ ran Q (von Neumann, *Functional Operators*
    II, 1950).  Directions in both ranges carry eigenvalue 1 only up to
    rounding, so each μ with μ² ≥ 1 − ``MEET_PIN_TOL`` becomes 1 and every
    other 0: the limit of `meet`'s squaring schedule, without the squarings.
    """
    mu, v = _meet_eigh(p, q)
    return (v * (mu * mu >= 1.0 - MEET_PIN_TOL)[..., None, :]) @ _adjoint(v)


def _join_m(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    eye = np.eye(p.shape[-1])
    m = _meet_m(eye - p, eye - q)
    return np.subtract(eye, m, out=m)


CHUNK_ENTRIES = 8192


def _chunks(count: int, d: int):
    """Index slices covering ``range(count)``, ``CHUNK_ENTRIES`` entries of d x d matrices each."""
    step = max(1, CHUNK_ENTRIES // (d * d))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def old_check_blocks(blocks: Sequence[np.ndarray], zero: np.ndarray, full: np.ndarray, tol: float, fail_fast: bool,
                  note: str) -> LatticeReport:
    """`check_boolean` on block-diagonal members, given as one ``(n, r, r)`` stack per block.

    Member i is 0 on block b where ``zero[b, i]``, I where ``full[b, i]``, else
    proper.  Where P is 0 or I the order needs no product (0 is below all, all
    below I, I below nothing proper, nothing proper below 0) and no law can fail:
    P ≤ Q ≤ P forces Q = P, Q = P ∨ (Q ∧ P′) and both compatibility identities
    hold when either side is 0 or I, and P ≤ Q ≤ R, P ≰ R needs all three proper
    where it fails.  So a law runs on the blocks where its operands are proper,
    and its residual is the largest there, the norm of a block-diagonal matrix.
    A compatibility pair with no such block counts in ``pairs_by_support``.
    """
    n = blocks[0].shape[0]
    proper = ~(zero | full)
    pairs = n * (n + 1) // 2
    violations: list[LawViolation] = []

    def done() -> bool:
        return fail_fast and bool(violations)

    def worst(i: np.ndarray, j: np.ndarray, law) -> np.ndarray:
        """Largest ‖law(mats, i, j)‖₂ above ``tol`` over the blocks where both members are proper, else 0."""
        out = np.zeros(len(i))
        for mats, ok in zip(blocks, proper):
            k = np.flatnonzero(ok[i] & ok[j])
            for s in _chunks(k.size, mats.shape[-1]):
                x = law(mats, i[k[s]], j[k[s]])
                over = _exceeds(x, tol)
                out[k[s][over]] = np.maximum(out[k[s][over]], _norms(x[over]))
        return out

    # order: P_i below P_j when P_i P_j = P_i on every block
    below = np.ones((n, n), dtype=bool)
    for mats, ok, z, f in zip(blocks, proper, zero, full):
        on = z[:, None] | f[None, :]
        oi, oj = np.nonzero(ok[:, None] & ok[None, :])
        for s in _chunks(oi.size, mats.shape[-1]):
            on[oi[s], oj[s]] = ~_exceeds(mats[oi[s]] @ mats[oj[s]] - mats[oi[s]], tol)
        below &= on

    # pair laws over the ordered pairs i != j with P_i below P_j, in row-major order
    bi, bj = np.nonzero(below & ~np.eye(n, dtype=bool))
    mutual = below[bj, bi]
    anti_res = worst(bi, bj, lambda m, i, j: m[i] - m[j])
    # orthomodularity: Q recovers as P or (Q and not P)
    ortho_res = worst(bi, bj, lambda m, i, j: m[j] - _join_m(m[i], _meet_m(m[j], np.eye(m.shape[-1]) - m[i])))
    for t in range(bi.size):
        if done():
            break
        i, j = int(bi[t]), int(bj[t])
        if mutual[t] and not anti_res[t] <= tol:
            violations.append(LawViolation("antisymmetry", (i, j), float(anti_res[t])))
        elif not ortho_res[t] <= tol:
            violations.append(LawViolation("orthomodularity", (i, j), float(ortho_res[t])))

    # i = j or j = k can never break; i = k only when a member is not below itself
    broken = below[:, :, None] & below[None, :, :] & ~below[:, None, :] & ~np.eye(n, dtype=bool)[:, None, :]
    tri = np.argwhere(broken)[: 0 if done() else 1 if fail_fast else None]
    tri_res = worst(tri[:, 0], tri[:, 2], lambda m, i, k: m[i] @ m[k] - m[i])
    violations += [LawViolation("transitivity", (i, j, k), float(r)) for (i, j, k), r in zip(tri.tolist(), tri_res)]

    # compatibility of every pair i < j, in row-major order
    ci, cj = np.triu_indices(n, 1)
    met = (proper[:, ci] & proper[:, cj]).any(axis=0)

    def report(decided: int) -> LatticeReport:
        return LatticeReport(n, pairs, decided, tuple(violations), note, decided - int(met[:decided].sum()))

    decided = 0 if done() else ci.size
    for s in _chunks(decided, max(m.shape[-1] for m in blocks)):
        res = worst(ci[s], cj[s], lambda m, i, j: m[i] - _meet_m(m[i], m[j]) - _meet_m(m[i], np.eye(m.shape[-1]) - m[j]))
        for t in np.flatnonzero(~(res <= tol)).tolist():
            violations.append(LawViolation("compatibility", (int(ci[s.start + t]), int(cj[s.start + t])), float(res[t])))
            if done():
                return report(s.start + t + 1)
    return report(decided)


def old_engine_report(stacks, tol, fail_fast):
    """The meet-based engine on members given as one stack per block, a member taken as 0 or I on a block within
    DEFAULT_TOL of it."""
    zero = np.array([~_exceeds(m, DEFAULT_TOL) for m in stacks])
    full = np.array([~_exceeds(np.eye(m.shape[-1]) - m, DEFAULT_TOL) for m in stacks])
    return old_check_blocks(stacks, zero, full, tol, fail_fast, "")


def old_check_boolean(props, tol=DEFAULT_TOL, fail_fast=False):
    """`check_boolean` on the meet-based engine: the family as one block."""
    return old_engine_report([np.stack([p.matrix for p in props])], tol, fail_fast)


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
    # the engine's closed form, and its test-local copy that the old engine's reference uses
    for meet_m in (lattice._meet_m, _meet_m):
        stacked = meet_m(np.array([p for p, _ in pairs]), np.array([q for _, q in pairs]))
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
    # the lattice engine's closed form and its test-local copy, on the pair as a stack of one
    for meet_m in (lattice._meet_m, _meet_m):
        assert operator_norm(meet_m(p.matrix[None], q.matrix[None])[0] - oracle) < 1e-8


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


def dict_sample_image(g, rep, rng) -> np.ndarray:
    """A random sample's image as the family built it before the table gather: ½(e + e*) of the draw as a dict."""
    n = g.n_transitions
    re, im = rng.standard_normal(n), rng.standard_normal(n)
    e = AlgebraElement({i: complex(re[i], im[i]) for i in range(n)})
    return representation_matrix(0.5 * (e + involution(e, g)), g, rep).matrix


@settings(deadline=None, max_examples=30)
@given(random_groupoids(max_transitions=24), st.sampled_from([LEFT_REGULAR, FUNDAMENTAL]), st.integers(0, 2**16))
def test_random_samples_are_the_self_adjoint_parts_of_their_draws(g, rep, seed):
    clusters, seen = lattice._eigen_clusters, []

    def spy(blocks, mult, cluster_tol):
        assert mult == [1]  # one block, the whole space
        seen.append(blocks[0].copy())
        return clusters(blocks, mult, cluster_tol)

    with mock.patch.object(lattice, "_eigen_clusters", spy):
        canonical_propositions(g, samples=4, seed=seed, rep=rep)
    assert len(seen) == 5  # the loops' stack, then one call per sample
    rng = np.random.default_rng(seed)
    for image in seen[1:]:
        want = dict_sample_image(g, rep, rng)
        assert image.shape == (1, *want.shape) and image[0].tobytes() == want.tobytes()
        rng.integers(len(clusters([want[None]], [1], 1e-8)[2][0]))  # the sample's pick, as the family draws it


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


# -- the per-member, per-norm route the stacked one replaced ----------------------


def _represented(terms: dict, g, rep: str) -> np.ndarray:
    """One element's image, scattered term by term in coefficient order."""
    a = AlgebraElement(terms)
    ids = np.array(list(a.coeffs), dtype=np.intp)
    coeffs = np.array(list(a.coeffs.values()), dtype=complex)
    if rep == FUNDAMENTAL:
        m = np.zeros((g.n_objects, g.n_objects), dtype=complex)
        np.add.at(m, (g.target[ids], g.source[ids]), coeffs)
        return m
    rows = g.table[ids]
    term, col = np.nonzero(rows >= 0)
    m = np.zeros((g.n_transitions, g.n_transitions), dtype=complex)
    np.add.at(m, (rows[term, col], col), coeffs[term])
    return m


def reference_canonical_family(g, samples, seed, rep):
    """(matrix, label, residual_adjoint, residual_idempotent) per kept member, one member at a time."""
    members = []

    def certify(m, label):
        ra, ri = operator_norm(m - m.conj().T), operator_norm(m @ m - m)
        assert ra <= DEFAULT_TOL and ri <= DEFAULT_TOL
        members.append((m, label, ra, ri))

    def clusters(m):
        assert operator_norm(m - m.conj().T) <= 1e-8
        w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
        ends = np.flatnonzero(np.diff(w) > 1e-8) + 1
        bounds = [0, *ends.tolist(), w.size]
        return w, v, [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def project(w, v, c, prefix=""):
        block, mean = v[:, c], float(np.mean(w[c]))
        certify(block @ block.conj().T, f"{prefix}eig[{mean if abs(mean) >= 1e-8 else 0.0:.4g}]")

    for x in range(g.n_objects):
        certify(_represented({g.unit(x): 1.0}, g, rep), f"unit[{g.label(x)}]")
    pairs = [t for t in range(g.n_transitions) if t <= g.inverse(t)]
    for t in pairs:
        if g.source[t] != g.target[t]:
            ends = {g.unit(g.source[t]): 0.5, g.unit(g.target[t]): 0.5, t: 0.5, g.inverse(t): 0.5}
            certify(_represented(ends, g, rep), f"superpose[{t}]")
    for s in [t for t in pairs if g.source[t] == g.target[t] and not g.is_unit(t)]:
        a = AlgebraElement.from_transition(s)
        for name, part in (("sym", a + involution(a, g)), ("skew", 1j * (a - involution(a, g)))):
            w, v, cs = clusters(_represented(part.coeffs, g, rep))
            for c in cs[:-1]:
                project(w, v, c, f"{name}[{s}]:")
    rng = np.random.default_rng(seed)
    n = g.n_transitions
    for _ in range(samples):
        re, im = rng.standard_normal(n), rng.standard_normal(n)
        elem = AlgebraElement({i: complex(re[i], im[i]) for i in range(n)})
        w, v, cs = clusters(_represented((0.5 * (elem + involution(elem, g))).coeffs, g, rep))
        project(w, v, cs[int(rng.integers(len(cs)))])
    family = []
    for member in members:
        if all(np.linalg.norm(kept[0] - member[0]) > DEFAULT_TOL for kept in family):
            family.append(member)
    return family


def reference_stacked_check_boolean(props, tol, fail_fast):
    """Every residual an operator norm over the stacks, then the violations collected in loop order."""
    n = len(props)
    mats = np.stack([p.matrix for p in props])
    d = mats.shape[-1]
    eye = np.eye(d)
    violations = []

    def norms(count, stack):
        out = np.empty(count)
        for s in _chunks(count, d):
            out[s] = np.linalg.norm(stack(s), 2, axis=(-2, -1))
        return out

    def done():
        return fail_fast and bool(violations)

    oi, oj = np.divmod(np.arange(n * n), n)
    order_res = norms(n * n, lambda s: mats[oi[s]] @ mats[oj[s]] - mats[oi[s]]).reshape(n, n)
    below = order_res <= tol
    bi, bj = np.nonzero(below & ~np.eye(n, dtype=bool))
    anti_res = norms(bi.size, lambda s: mats[bi[s]] - mats[bj[s]])
    ortho_res = norms(bi.size, lambda s: mats[bj[s]] - _join_m(mats[bi[s]], _meet_m(mats[bj[s]], eye - mats[bi[s]])))
    for t in range(bi.size):
        if done():
            break
        i, j = int(bi[t]), int(bj[t])
        if below[j, i] and anti_res[t] > tol:
            violations.append(LawViolation("antisymmetry", (i, j), float(anti_res[t])))
        elif ortho_res[t] > tol:
            violations.append(LawViolation("orthomodularity", (i, j), float(ortho_res[t])))
    for i, j, k in itertools.permutations(range(n), 3):
        if not done() and below[i, j] and below[j, k] and not below[i, k]:
            violations.append(LawViolation("transitivity", (i, j, k), float(order_res[i, k])))
    ci, cj = np.triu_indices(n, 1)
    triples = 0
    for s in _chunks(0 if done() else ci.size, d):
        lhs = mats[ci[s]] - _meet_m(mats[ci[s]], mats[cj[s]])
        lhs -= _meet_m(mats[ci[s]], eye - mats[cj[s]])
        res = np.linalg.norm(lhs, 2, axis=(-2, -1))
        triples = s.stop
        for t in np.flatnonzero(res > tol).tolist():
            violations.append(LawViolation("compatibility", (int(ci[s.start + t]), int(cj[s.start + t])), float(res[t])))
            if done():
                return n * (n + 1) // 2, s.start + t + 1, violations
    return n * (n + 1) // 2, triples, violations


def reference_abelian_algebra(g, rep):
    images = [op.matrix for op in algebra_basis(g, rep)]
    return all(operator_norm(a @ b - b @ a) <= 1e-10 for a, b in itertools.combinations(images, 2))


@settings(deadline=None, max_examples=12)
@given(
    random_groupoids(max_transitions=18),
    st.sampled_from([LEFT_REGULAR, FUNDAMENTAL]),
    st.integers(0, 3),
    st.integers(0, 2**16),
)
def test_stacked_lattice_route_equals_the_per_member_route(g, rep, samples, seed):
    props = canonical_propositions(g, samples=samples, seed=seed, rep=rep)
    family = reference_canonical_family(g, samples, seed, rep)
    assert [p.label for p in props] == [label for _, label, _, _ in family]
    for p, (m, _, ra, ri) in zip(props, family):
        assert p.matrix.tobytes() == m.tobytes()
        assert (p.residual_adjoint, p.residual_idempotent) == (ra, ri)
    # tolerances of about 1 put the residuals of 0/1 projections inside the Frobenius band,
    # where only the SVD decides
    for tol in (DEFAULT_TOL, 0.4, 1.2):
        for fail_fast in (False, True):
            report = check_boolean(props, tol=tol, fail_fast=fail_fast)
            pairs, triples, violations = reference_stacked_check_boolean(props, tol, fail_fast)
            assert (report.pairs_tested, report.triples_tested) == (pairs, triples)
            assert [(v.law, v.operands, v.residual) for v in report.violations] == [
                (v.law, v.operands, v.residual) for v in violations
            ]
    assert classicality_verdict(g, samples=0, rep=rep).abelian_algebra == reference_abelian_algebra(g, rep)


# -- the orbit-block route of classicality_verdict --------------------------------


@settings(deadline=None, max_examples=25)
@given(random_groupoids(max_transitions=24), st.sampled_from([LEFT_REGULAR, FUNDAMENTAL]), st.integers(0, 2**16))
def test_orbit_blocks_partition_the_basis_into_equal_blocks(g, rep, seed):
    blocks = orbit_blocks(g, rep)
    rows = np.concatenate([b.ravel() for b in blocks])
    d = g.n_transitions if rep == LEFT_REGULAR else g.n_objects
    assert sorted(rows.tolist()) == list(range(d))
    if rep == LEFT_REGULAR:
        for b in blocks:
            x = g.source[b[0, 0]]
            assert b[0].tolist() == np.flatnonzero(g.source == x).tolist()
            assert b.shape == (b.shape[0], b.shape[0] * len(g.loops_at(x)))
    rng = np.random.default_rng(seed)
    m = representation_matrix(AlgebraElement(dict(enumerate(rng.standard_normal(g.n_transitions)))), g, rep).matrix
    hat = np.zeros_like(m)
    for b in blocks:
        for row in b:
            assert m[np.ix_(row, row)].tobytes() == m[np.ix_(b[0], b[0])].tobytes()
            hat[np.ix_(row, row)] = m[np.ix_(row, row)]
    assert hat.tobytes() == m.tobytes()


@settings(deadline=None, max_examples=12)
@given(
    st.lists(random_groupoids(max_transitions=12), min_size=1, max_size=3),
    st.sampled_from([LEFT_REGULAR, FUNDAMENTAL]),
    st.integers(0, 3),
    st.integers(0, 2**16),
)
def test_block_engine_equals_the_one_block_engine(parts, rep, samples, seed):
    # unions of up to three random groupoids, so that most draws have several orbits
    g = parts[0] if len(parts) == 1 else disjoint_union(parts)
    dense = canonical_propositions(g, samples=samples, seed=seed, rep=rep)
    blocks = orbit_blocks(g, rep)
    family = lattice._family(g, blocks, samples, seed, rep)
    assert family.labels == tuple(p.label for p in dense)
    for stack, rows in zip(family.stacks, blocks):
        assert_allclose(stack, [p.matrix[np.ix_(rows[0], rows[0])] for p in dense], rtol=0, atol=1e-12)
    # lifted, each member is the dense one, off the blocks too
    for got, want, label in zip(family, dense, family.labels):
        assert (got.label, got.rep) == (label, rep)
        assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)
        assert_allclose([got.residual_adjoint, got.residual_idempotent],
                        [want.residual_adjoint, want.residual_idempotent], rtol=0, atol=1e-12)
    for tol in (DEFAULT_TOL, 0.4, 1.2):
        for fail_fast in (False, True):
            v = classicality_verdict(g, samples=samples, seed=seed, rep=rep, tol=tol, fail_fast=fail_fast)
            want = check_boolean(dense, tol=tol, fail_fast=fail_fast)
            assert v.propositions.labels == family.labels
            assert (v.boolean_lattice, v.report.n_propositions) == (want.is_boolean, want.n_propositions)
            assert (v.report.pairs_tested, v.report.triples_tested) == (want.pairs_tested, want.triples_tested)
            assert [(x.law, x.operands) for x in v.report.violations] == [(x.law, x.operands) for x in want.violations]
            assert_allclose([x.residual for x in v.report.violations], [x.residual for x in want.violations],
                            rtol=0, atol=1e-12)
            assert 0 <= v.report.pairs_by_support <= v.report.triples_tested
            # the dense family decides a pair by support alone where a member is 0 or I
            trivial = np.array([p.rank in (0, p.dim) for p in dense])
            ci, cj = np.triu_indices(len(dense), 1)
            assert want.pairs_by_support == int((trivial[ci] | trivial[cj])[:want.triples_tested].sum())
    assert v.abelian_algebra == reference_abelian_algebra(g, rep)


def test_the_block_family_drops_the_sample_the_dense_family_drops():
    # the dense family keeps 254 of 255 members: its last random sample, eig[-0.7202], lies within
    # Frobenius distance 1.92e-15 of skew[136]:eig[-1.732]
    v = classicality_verdict(disjoint_union([cyclic_group(3)] * 50), samples=5, seed=42)
    assert len(v.propositions) == 254 and v.boolean_lattice and v.consistent
    assert "skew[136]:eig[-1.732]" in v.propositions.labels and "eig[-0.7202]" not in v.propositions.labels


def test_the_verdict_builds_no_dense_member():
    # the dense family of pair(12) is 26 MiB, 0.3 MiB a member; the verdict names its witness without one
    g = pair_groupoid(12)
    classicality_verdict(g)
    tracemalloc.start()
    try:
        with mock.patch.object(lattice, "Proposition", side_effect=AssertionError("a member was lifted")):
            v = classicality_verdict(g)
            assert "witness: compatibility fails on (unit[0], superpose[" in v.describe()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert v.propositions[-1].matrix.shape == (144, 144)


def block_family(seed: int, dims, n: int):
    """(kinds, blocks, props): n members that are 0, I or a Haar-random projection on each block, and their sums."""
    rng = np.random.default_rng(seed)
    kinds = rng.choice(3, size=(len(dims), n), p=[0.2, 0.2, 0.6])
    kinds[(np.array(dims) == 1)[:, None] & (kinds == 2)] = 1
    blocks = [np.stack([random_projection(rng, r, int(rng.integers(1, r))) if k == 2 else np.eye(r) * (k == 1)
                        for k in row]).astype(complex) for r, row in zip(dims, kinds)]
    mats = np.zeros((n, sum(dims), sum(dims)), dtype=complex)
    for b, start in zip(blocks, np.cumsum([0, *dims[:-1]])):
        mats[:, start:start + b.shape[-1], start:start + b.shape[-1]] = b
    return kinds, blocks, [certified(m) for m in mats]


def assert_block_engine_matches(kinds, blocks, props, tol, fail_fast):
    got = _check_blocks(blocks, lattice._ranges(blocks), tol, fail_fast, "")
    want = check_boolean(props, tol=tol, fail_fast=fail_fast)
    assert (got.pairs_tested, got.triples_tested) == (want.pairs_tested, want.triples_tested)
    assert [(v.law, v.operands) for v in got.violations] == [(v.law, v.operands) for v in want.violations]
    assert_allclose([v.residual for v in got.violations], [v.residual for v in want.violations], rtol=0, atol=1e-12)
    both = (kinds == 2)[:, :, None] & (kinds == 2)[:, None, :]
    unmet = ~both.any(axis=0)[np.triu_indices(len(props), 1)]
    assert got.pairs_by_support == int(unmet[:got.triples_tested].sum())
    return got


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(2, 8), st.integers(0, 2**16))
def test_block_engine_on_block_diagonal_families(dims, n, seed):
    # at tolerances 0.7 and 0.9 the order relation of random projections is loose
    # enough to break transitivity
    family = block_family(seed, dims, n)
    for tol in (DEFAULT_TOL, 0.7, 0.9):
        for fail_fast in (False, True):
            assert_block_engine_matches(*family, tol, fail_fast)


def test_a_law_residual_is_the_largest_over_the_blocks():
    # a drawn family whose transitivity failure (3, 2, 0) has both outer members proper on
    # both blocks, and fails on the first block only
    kinds, blocks, props = block_family(68, [3, 3], 5)
    report = assert_block_engine_matches(kinds, blocks, props, 0.9, False)
    witness = next(v for v in report.violations if v.operands == (3, 2, 0))
    on_block = [operator_norm(b[3] @ b[0] - b[3]) for b in blocks]
    assert witness.law == "transitivity" and (kinds[:, [0, 3]] == 2).all()
    assert on_block[1] < 0.9 < on_block[0] and witness.residual == pytest.approx(on_block[0], abs=1e-12)


def test_block_engine_decides_pairs_on_different_orbits_without_a_meet():
    # each Z3 unit is I on its own block and 0 on the others, so only the loop
    # eigenprojections of one component ever meet
    v = classicality_verdict(disjoint_union([cyclic_group(3)] * 4), samples=0)
    assert v.boolean_lattice and v.consistent
    n = v.report.n_propositions
    assert v.report.triples_tested == n * (n - 1) // 2
    assert v.report.pairs_by_support == n * (n - 1) // 2 - 4 * 3


# -- the principal-angle engine against the meet-based one -------------------------------


def assert_same_report(got: LatticeReport, want: LatticeReport):
    assert (got.n_propositions, got.pairs_tested, got.triples_tested, got.pairs_by_support) == (
        want.n_propositions, want.pairs_tested, want.triples_tested, want.pairs_by_support)
    assert [(v.law, v.operands) for v in got.violations] == [(v.law, v.operands) for v in want.violations]
    assert_allclose([v.residual for v in got.violations], [v.residual for v in want.violations], rtol=0, atol=1e-9)
    for v in got.violations:
        # a witness angle is neither 0 nor π/2, its cos² unpinned as the meets pin it
        assert (v.angle is not None) == (v.law == "compatibility")
        if v.angle is not None:
            mu = np.cos(v.angle) ** 2
            assert 0 < v.angle < np.pi / 2 and mu * mu < 1 - MEET_PIN_TOL and (1 - mu) ** 2 < 1 - MEET_PIN_TOL


@pytest.mark.parametrize("rep", [LEFT_REGULAR, FUNDAMENTAL])
def test_route_three_represents_each_orbits_own_transitions(rep):
    # three components with permuted ids: each block's images are those of the transitions leaving its orbit
    g = permute_transitions(disjoint_union([pair_groupoid(2), symmetric_group(3), cyclic_group(2)]),
                            np.random.default_rng(3).permutation(12))
    represent, calls = lattice._represent, []

    def spy(g, rep, ids, coeffs, basis=None):
        calls.append(ids.copy())
        return represent(g, rep, ids, coeffs, basis)

    with mock.patch.object(lattice, "_represent", spy):
        v = classicality_verdict(g, samples=0, rep=rep)
    assert not v.abelian_algebra and v.consistent
    orbits = [np.flatnonzero(np.isin(g.source, orbit)) for orbit in orbit_decomposition(g).orbits]
    assert sorted(map(len, orbits)) == [2, 4, 6]
    assert [ids.tolist() for ids in calls[-3:]] == [o[:, None].tolist() for o in orbits]


@settings(deadline=None, max_examples=15)
@given(
    st.lists(random_groupoids(max_transitions=6), min_size=1, max_size=2),
    st.booleans(),
    st.sampled_from([LEFT_REGULAR, FUNDAMENTAL]),
    st.integers(0, 3),
    st.integers(0, 2**16),
)
def test_principal_angles_decide_as_the_meets_did(parts, product, rep, samples, seed):
    # unions and products (up to 24 transitions) of random groupoids; the verdict on its blocks and check_boolean
    # on the dense family
    small = product and parts[0].n_transitions * parts[-1].n_transitions <= 24
    g = parts[0] if len(parts) == 1 else direct_product(*parts) if small else disjoint_union(parts)
    family = lattice._family(g, orbit_blocks(g, rep), samples, seed, rep)
    dense = canonical_propositions(g, samples=samples, seed=seed, rep=rep)
    for tol in (DEFAULT_TOL, 0.4, 1.2):
        for fail_fast in (False, True):
            v = classicality_verdict(g, samples=samples, seed=seed, rep=rep, tol=tol, fail_fast=fail_fast)
            assert_same_report(v.report, old_engine_report(family.stacks, tol, fail_fast))
            assert_same_report(check_boolean(dense, tol=tol, fail_fast=fail_fast),
                               old_check_boolean(dense, tol=tol, fail_fast=fail_fast))


def test_principal_angles_near_the_pins_and_the_order_tolerance():
    # rank-one ranges in C^8 at angles from e1 across the meets' pins (cos² θ = 1 − 7.1e-13 is pinned to 1 on μ
    # but not on μ²) and across the order tolerance 1e-9 (sin θ = 4e-10 and 2e-9, which 1 − σ² cannot tell apart),
    # and rank-two ranges holding e1 or e2, so that a pair is pinned on one direction and not on the other;
    # in 8 dimensions a joint range is smaller than the space
    def ray(*x):
        x = np.pad(np.asarray(x, dtype=complex), (0, 8 - len(x)))
        return np.outer(x, x.conj()) / np.vdot(x, x).real

    e1 = np.eye(8)[0]
    mats = [ray(*e1)] + [ray(np.cos(t), np.sin(t), 0, 0) for t in (4e-10, 2e-9, 8.4e-7, np.pi / 2 - 8.4e-7, 0.3)]
    mats += [ray(*e1) + ray(0, 0, 1, 1), ray(0, 1, 0, 0) + ray(0, 0, 1, -1j), ray(0, 0.8, 0.6, 0)]
    props = [certified(m) for m in mats]
    stack = np.stack(mats)
    for tol in (DEFAULT_TOL, 0.4, 1.2):
        for fail_fast in (False, True):
            want = old_check_boolean(props, tol=tol, fail_fast=fail_fast)
            assert_same_report(check_boolean(props, tol=tol, fail_fast=fail_fast), want)
            # the same members with their residuals on the joint ranges, as the verdict computes them
            assert_same_report(_check_blocks([stack], lattice._ranges([stack]), tol, fail_fast, "", joint=True), want)
    assert {v.operands for v in old_check_boolean(props).violations} >= {(0, 3), (0, 4)}


def test_pinned_pairs_take_no_meet():
    # commuting projections that overlap or are orthogonal and are never nested: every principal angle is 0 or
    # π/2, so no pair is a candidate and neither the order nor compatibility takes a meet
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    props = [certified((basis * d) @ basis.conj().T) for d in ([1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1])]
    with mock.patch.object(lattice, "_meet_m", side_effect=AssertionError("a meet was taken")):
        report = check_boolean(props)
    assert report.is_boolean and report.triples_tested == 6


def rotated_pair(rng, d: int, thetas) -> list[np.ndarray]:
    """P and Q in C^d whose principal angles are ``thetas``, in coordinates rotated by a Haar-random unitary."""
    k = len(thetas)
    w, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    u, v = w[:, :k], w[:, :k] * np.cos(thetas) + w[:, k:2 * k] * np.sin(thetas)
    return [u @ u.conj().T, v @ v.conj().T]


def verdict_engine_matches(mats) -> LatticeReport:
    """`check_boolean`'s report on ``mats``, after asserting that the verdict's engine (``joint``) reports the same,
    residuals within 1e-12.  Every member has rank at most d/2, so both take their meets on the same matrices."""
    stack = np.stack(mats)
    want = check_boolean([certified(m) for m in mats])
    got = _check_blocks([stack], lattice._ranges([stack]), DEFAULT_TOL, False, "", joint=True)
    assert (got.triples_tested, got.pairs_by_support) == (want.triples_tested, want.pairs_by_support)
    assert [(v.law, v.operands) for v in got.violations] == [(v.law, v.operands) for v in want.violations]
    assert_allclose([v.residual for v in got.violations], [v.residual for v in want.violations], rtol=0, atol=1e-12)
    return want


def test_the_verdict_computes_the_residuals_of_pairs_near_a_pin():
    # rank-one P and Q in C² whose cos² θ lies a few ulps from the pin √(1 − 1e-12), or whose sin² θ does, after
    # the (A, B) witness at 45°: for some rotations the Gram's μ is unpinned while a meet's eigenvalue is pinned,
    # so the meets find P and Q compatible, and the closed form 1 would call them a violation
    pin, ulp = np.sqrt(1.0 - MEET_PIN_TOL), 2.0 ** -53
    straddles = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        for k in range(-16, 17):
            for c2 in (pin + k * ulp, 1.0 - (pin + k * ulp)):
                mats = [np.diag([1.0, 0.0]), np.full((2, 2), 0.5)] + rotated_pair(rng, 2, [np.arccos(np.sqrt(c2))])
                report = verdict_engine_matches(mats)
                assert report.violations[0].operands == (0, 1)
                (u, _), = lattice._ranges([np.stack(mats)])
                mu = abs(np.vdot(u[2, :, 0], u[3, :, 0])) ** 2
                unpinned = mu * mu < 1.0 - MEET_PIN_TOL and (1.0 - mu) ** 2 < 1.0 - MEET_PIN_TOL
                straddles += unpinned and (2, 3) not in [v.operands for v in report.violations]
    assert straddles > 0
    # the same straddle placed by hand, whatever the rounding: Q's range as the Gram reads it sits 16 ulps further
    # from e1 than Q itself, below the pin where the meets on the members pin Q's cos² θ
    mats = [np.diag([1.0, 0.0]), np.full((2, 2), 0.5), np.diag([1.0, 0.0])]
    mats.append(np.outer(*[[np.sqrt(pin + 8 * ulp), np.sqrt(1.0 - pin - 8 * ulp)]] * 2))
    (iso, rank), = lattice._ranges([np.stack(mats)])
    iso[3, :, 0] = np.sqrt(pin - 8 * ulp), np.sqrt(1.0 - pin + 8 * ulp)
    got = _check_blocks([np.stack(mats).astype(complex)], [(iso, rank)], DEFAULT_TOL, False, "", joint=True)
    assert [v.operands for v in got.violations] == [v.operands for v in check_boolean([certified(m) for m in mats]).violations]
    assert (2, 3) not in [v.operands for v in got.violations]


def test_a_pair_far_from_the_pins_on_its_witness_angle_has_residual_one():
    # rank-three P and Q in C^6 at the angles 0, θ and π/3, θ scanned across the pin from both sides, after the
    # (A, B) witness: the meets pin θ or not, and the eigenvectors of the pinned cluster mix with θ's, but both stay
    # in ran P, so P − (P ∧ Q) − (P ∧ Q′) stays a projection that holds π/3's direction, and its norm 1; the
    # verdict, which takes the meets only where the witness angle π/3 lies within the margin of a pin, agrees
    pin = np.sqrt(1.0 - MEET_PIN_TOL)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        a, b = (np.outer(x, x) / (x @ x) for x in rng.standard_normal((2, 6)))
        for c2 in (pin - 1e-13, pin, pin + 1e-13, 1.0 - 2e-12, 1.0 - pin, 1e-12):
            report = verdict_engine_matches([a, b] + rotated_pair(rng, 6, [0.0, np.arccos(np.sqrt(c2)), np.pi / 3]))
            assert report.violations[0].operands == (0, 1)
            residual = {v.operands: v.residual for v in report.violations}[(2, 3)]
            assert abs(residual - 1.0) <= 1e-14


def test_the_verdict_takes_meets_only_for_its_witness_on_s4():
    # the 433 unpinned pairs of S4's family are all compatibility violations, and none has its witness angle near a
    # pin: check_boolean takes the two meets of each, the verdict those of its witness alone; the orthomodularity
    # stage takes the same meets in both
    g = symmetric_group(4)
    meet, rows = lattice._meet_m, []

    def spy(p, q):
        rows.append(len(p))
        return meet(p, q)

    with mock.patch.object(lattice, "_meet_m", spy):
        v = classicality_verdict(g)
        verdict_rows, rows[:] = sum(rows), []
        want = check_boolean(canonical_propositions(g))
    assert v.report.summary() == want.summary() and want.by_law() == {"compatibility": 433}
    assert v.witness.operands == want.violations[0].operands
    assert sum(rows) - verdict_rows == 2 * 433 - 2


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


def test_check_boolean_pads_no_range_for_a_member_that_is_i():
    # the unit of S4 is I in the left-regular representation; were the ranges padded to its rank 24, the Gram of the
    # 36 members would take 36² · 24² complex entries, 12 MiB, at once
    props = canonical_propositions(symmetric_group(4))
    check_boolean(props)
    tracemalloc.start()
    try:
        report = check_boolean(props)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.is_boolean and props[0].rank == props[0].dim == 24
    assert peak <= 4 * 2**20


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
