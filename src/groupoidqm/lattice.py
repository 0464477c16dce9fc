"""Propositions (orthogonal projections) and their lattice.

A proposition is a self-adjoint idempotent in a represented transition
algebra.  The meet of two propositions is the strong limit of
alternating products, the projection onto ran P ∩ ran Q, which is the
eigenvalue-1 eigenspace of P Q P: one eigendecomposition of the
symmetrized seed gives it, and the pin-and-square schedule that decides
which eigenvalues count as 1 runs on the eigenvalues alone.  The join
is obtained from meets and complements.  All of this works on stacks
of matrices.  A family generates a Boolean lattice exactly when its
members are pairwise compatible, P = (P ∧ Q) ∨ (P ∧ Q′), so that law on
a generating family of C*(G) decides the classicality question, which
`classicality_verdict` answers three independent ways.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    LEFT_REGULAR,
    AlgebraElement,
    Operator,
    algebra_basis,
    involution,
    operator_norm,
    representation_matrix,
)
from .groupoid import Groupoid, has_abelian_isotropy, is_totally_disconnected

__all__ = [
    "Proposition",
    "CertificationError",
    "ConvergenceError",
    "certify_proposition",
    "is_proposition",
    "unit_proposition",
    "transition_proposition",
    "leq",
    "complement",
    "meet",
    "join",
    "meet_unsymmetrized",
    "range_intersection_projection",
    "spectral_projections",
    "canonical_propositions",
    "LawViolation",
    "LatticeReport",
    "check_boolean",
    "ClassicalityVerdict",
    "classicality_verdict",
]

DEFAULT_TOL = 1e-9
MEET_TOL = 1e-12
MEET_MAX_ITER = 500
MEET_PIN_TOL = 1e-12
# `check_boolean` processes its stacks of matrices this many complex entries
# (128 KiB) at a time.  classicality_verdict(pair_groupoid(5)) then peaks at
# 1.4 MiB traced (1.0 at half the chunk, 2.4 at twice it, all 0.05 s); pair(6)
# and S4 run within 15% of the faster neighbour (2 cores, numpy 2.4).
CHUNK_ENTRIES = 8192


class CertificationError(ValueError):
    """The matrix is not a projection within tolerance."""

    def __init__(self, residual_adjoint: float, residual_idempotent: float):
        self.residual_adjoint = residual_adjoint
        self.residual_idempotent = residual_idempotent
        super().__init__(
            f"not a proposition: self-adjointness residual {residual_adjoint:.3e}, "
            f"idempotency residual {residual_idempotent:.3e}"
        )


class ConvergenceError(RuntimeError):
    """The meet iteration did not settle within the iteration budget."""

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"meet iteration stalled at residual {residual:.3e} after {iterations} squarings")


@dataclass(frozen=True, eq=False)
class Proposition:
    """A certified projection, tagged with its representation."""

    matrix: np.ndarray
    rep: str
    residual_adjoint: float
    residual_idempotent: float
    label: str | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return int(round(float(np.real(np.trace(self.matrix)))))


def certify_proposition(
    op: Operator | np.ndarray,
    tol: float = DEFAULT_TOL,
    rep: str = LEFT_REGULAR,
    label: str | None = None,
) -> Proposition:
    """Certify self-adjointness and idempotency in operator norm."""
    if isinstance(op, Operator):
        m, rep = op.matrix, op.rep
    else:
        m = np.asarray(op, dtype=complex)
    ra = operator_norm(m - m.conj().T)
    ri = operator_norm(m @ m - m)
    if ra > tol or ri > tol:
        raise CertificationError(ra, ri)
    return Proposition(m, rep, ra, ri, label)


def is_proposition(op: Operator | np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    try:
        certify_proposition(op, tol)
    except CertificationError:
        return False
    return True


def unit_proposition(g: Groupoid, x: int, rep: str = LEFT_REGULAR) -> Proposition:
    """The projection recording "the outcome is x"."""
    op = representation_matrix(AlgebraElement.from_transition(g.unit(x)), g, rep)
    return certify_proposition(op, label=f"unit[{g.label(x)}]")


def transition_proposition(g: Groupoid, t: int, rep: str = LEFT_REGULAR) -> Proposition:
    """The even superposition projection attached to a connecting transition.

    For a transition t running x -> y with x != y this is half the sum
    of the two endpoint units, t itself and its inverse.  It is always a
    projection, and it is the standard witness that connecting
    transitions break distributivity.
    """
    if g.source[t] == g.target[t]:
        raise ValueError("the superposition projection needs a transition between distinct objects")
    elem = AlgebraElement(
        {
            g.unit(g.source[t]): 0.5,
            g.unit(g.target[t]): 0.5,
            t: 0.5,
            g.inverse(t): 0.5,
        }
    )
    op = representation_matrix(elem, g, rep)
    return certify_proposition(op, label=f"superpose[{t}]")


# -- order and operations -------------------------------------------------


def leq(p: Proposition, q: Proposition, tol: float = DEFAULT_TOL) -> bool:
    """Order by range inclusion: P below Q when P Q = P."""
    below = operator_norm(p.matrix @ q.matrix - p.matrix) <= tol
    if below:
        # the reversed product must then agree as well
        reversed_residual = operator_norm(q.matrix @ p.matrix - p.matrix)
        if reversed_residual > 2 * tol:
            raise RuntimeError(
                f"order check is one-sided: P Q = P but Q P differs from P by {reversed_residual:.3e}"
            )
    return below


def complement(p: Proposition) -> Proposition:
    m = np.eye(p.dim) - p.matrix
    return Proposition(m, p.rep, p.residual_adjoint, p.residual_idempotent,
                       None if p.label is None else f"not({p.label})")


def _adjoint(x: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(x, -1, -2))


def _norms(x: np.ndarray) -> np.ndarray:
    """Operator norms over the last two axes of a stack."""
    return np.linalg.norm(x, 2, axis=(-2, -1))


def _meet_m(p: np.ndarray, q: np.ndarray, tol: float = MEET_TOL, max_iter: int = MEET_MAX_ITER) -> np.ndarray:
    """Meets of stacks of projections, shape ``(..., d, d)``.

    The limit of repeated squaring of P Q P is V diag(mu) V^H, where V
    diagonalizes P Q P once and mu follows the squaring schedule on the
    eigenvalues: square, pin every value within ``MEET_PIN_TOL`` of 1 to
    exactly 1, and stop once a step moves the iterate by at most ``tol``
    in Frobenius norm.  Pinning matters because directions in both ranges
    carry eigenvalue 1 only up to rounding, and squaring alone would
    amplify any such deviation (upward ones overflow, downward ones
    annihilate the intersection).  Squares are never negative, so the
    clamp at 0 that a matrix loop needs has nothing to do here.  Each
    matrix of the stack stops at its own step, and ``ConvergenceError``
    reports the worst step of those still moving after ``max_iter``
    squarings.
    """
    x = p @ q @ p
    x += _adjoint(x)
    x *= 0.5
    mu, v = np.linalg.eigh(x)
    del x
    moving = np.ones(mu.shape[:-1], dtype=bool)
    moved = np.full(mu.shape[:-1], np.inf)
    for _ in range(max_iter):
        nxt = mu * mu
        nxt[nxt >= 1.0 - MEET_PIN_TOL] = 1.0
        nxt = np.where(moving[..., None], nxt, mu)
        moved = np.where(moving, np.linalg.norm(nxt - mu, axis=-1), moved)
        mu = nxt
        moving &= moved > tol
        if not moving.any():
            return (v * mu[..., None, :]) @ _adjoint(v)
    raise ConvergenceError(float(np.max(moved[moving])), max_iter)


def meet(p: Proposition, q: Proposition, tol: float = MEET_TOL, max_iter: int = MEET_MAX_ITER) -> Proposition:
    """Largest proposition below both arguments."""
    if p.dim != q.dim:
        raise ValueError("propositions live in different spaces")
    m = _meet_m(p.matrix[None], q.matrix[None], tol, max_iter)[0]
    return certify_proposition(m, rep=p.rep, label=_binary_label("and", p, q))


def join(p: Proposition, q: Proposition, tol: float = MEET_TOL, max_iter: int = MEET_MAX_ITER) -> Proposition:
    """Smallest proposition above both arguments, via complements of meets."""
    if p.dim != q.dim:
        raise ValueError("propositions live in different spaces")
    m = _join_m(p.matrix[None], q.matrix[None], tol, max_iter)[0]
    return certify_proposition(m, rep=p.rep, label=_binary_label("or", p, q))


def _join_m(p: np.ndarray, q: np.ndarray, tol: float = MEET_TOL, max_iter: int = MEET_MAX_ITER) -> np.ndarray:
    eye = np.eye(p.shape[-1])
    m = _meet_m(eye - p, eye - q, tol, max_iter)
    return np.subtract(eye, m, out=m)


def _binary_label(opname: str, p: Proposition, q: Proposition) -> str | None:
    if p.label is None or q.label is None:
        return None
    return f"{opname}({p.label},{q.label})"


def meet_unsymmetrized(p: Proposition, q: Proposition, tol: float = MEET_TOL, max_iter: int = MEET_MAX_ITER) -> np.ndarray:
    """Limit of powers of the plain product P Q; cross-check for `meet`.

    The iterates are not self-adjoint along the way, but the limit must
    agree with the symmetrized route for genuine projections.
    """
    x = p.matrix @ q.matrix
    moved = float("inf")
    for _ in range(max_iter):
        x2 = x @ x
        top = operator_norm(x2)
        if top > 1.0:
            x2 /= top
        moved = float(np.linalg.norm(x2 - x))
        if moved <= tol:
            return x2
        x = x2
    raise ConvergenceError(moved, max_iter)


def range_intersection_projection(p: Proposition | np.ndarray, q: Proposition | np.ndarray, rtol: float = 1e-9) -> np.ndarray:
    """Independent oracle for the meet: project onto ran(P) ∩ ran(Q).

    The intersection is the joint null space of I - P and I - Q, found
    by one singular value decomposition of the stacked constraints.
    """
    pm = p.matrix if isinstance(p, Proposition) else np.asarray(p, dtype=complex)
    qm = q.matrix if isinstance(q, Proposition) else np.asarray(q, dtype=complex)
    d = pm.shape[0]
    eye = np.eye(d)
    stacked = np.vstack([eye - pm, eye - qm])
    _, sv, vh = np.linalg.svd(stacked)
    if sv.size == 0 or sv[0] <= rtol:
        return np.eye(d, dtype=complex)
    rank = int(np.sum(sv > rtol * sv[0]))
    basis = vh[rank:].conj().T
    return basis @ basis.conj().T


def _eigen_clusters(m: np.ndarray, cluster_tol: float) -> tuple[np.ndarray, np.ndarray, list[slice]]:
    """Eigenvalues, eigenvectors and eigenvalue clusters of a self-adjoint matrix.

    A cluster ends wherever the gap to the next eigenvalue exceeds
    ``cluster_tol``; each cluster is a slice of the ascending spectrum.
    """
    herm_residual = operator_norm(m - m.conj().T)
    if herm_residual > 1e-8:
        raise ValueError(f"operator is not self-adjoint (residual {herm_residual:.3e})")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    ends = np.flatnonzero(np.diff(w) > cluster_tol) + 1
    bounds = [0, *ends.tolist(), w.size] if w.size else []
    return w, v, [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _cluster_projection(w: np.ndarray, v: np.ndarray, cluster: slice, rep: str, prefix: str = "") -> Proposition:
    block = v[:, cluster]
    mean = float(np.mean(w[cluster]))
    return certify_proposition(block @ block.conj().T, rep=rep, label=f"{prefix}eig[{mean:.4g}]")


def spectral_projections(op: Operator | np.ndarray, cluster_tol: float = 1e-8, rep: str = LEFT_REGULAR) -> list[Proposition]:
    """Eigenprojections of a self-adjoint operator, one per eigenvalue cluster.

    Eigenvalues closer than ``cluster_tol`` merge into one cluster, so
    near-degenerate spectra produce well-conditioned projections.
    """
    if isinstance(op, Operator):
        m, rep = op.matrix, op.rep
    else:
        m = np.asarray(op, dtype=complex)
    w, v, clusters = _eigen_clusters(m, cluster_tol)
    return [_cluster_projection(w, v, c, rep) for c in clusters]


# -- canonical proposition families and lattice laws ----------------------


def canonical_propositions(
    g: Groupoid,
    samples: int = 5,
    seed: int = 42,
    rep: str = LEFT_REGULAR,
) -> list[Proposition]:
    """A generating family of C*(G), used for lattice verdicts.

    In order: units; one superposition per connecting inverse pair; for
    each non-unit loop s <= s^-1, the eigenclusters but the last (the
    complement of the rest) of s + s* and i(s - s*), labelled
    ``sym[s]:eig[λ]`` and ``skew[s]:eig[λ]``; ``samples`` random
    eigenclusters.  Members within Frobenius distance ``DEFAULT_TOL`` of
    an earlier one are dropped.  A superposition fails to commute with
    the units; without connecting transitions the loops span C*(G).
    """
    if samples < 0:
        raise ValueError(f"the number of random eigenprojections (--samples) must be non-negative, got {samples}")
    props = [unit_proposition(g, x, rep) for x in range(g.n_objects)]
    pairs = [t for t in range(g.n_transitions) if t <= g.inverse(t)]
    props += [transition_proposition(g, t, rep) for t in pairs if g.source[t] != g.target[t]]
    for s in [t for t in pairs if g.source[t] == g.target[t] and not g.is_unit(t)]:
        a = AlgebraElement.from_transition(s)
        for name, part in (("sym", a + involution(a, g)), ("skew", 1j * (a - involution(a, g)))):
            w, v, clusters = _eigen_clusters(representation_matrix(part, g, rep).matrix, 1e-8)
            props += [_cluster_projection(w, v, c, rep, f"{name}[{s}]:") for c in clusters[:-1]]
    rng = np.random.default_rng(seed)
    n = g.n_transitions
    for _ in range(samples):
        re, im = rng.standard_normal(n), rng.standard_normal(n)
        elem = AlgebraElement({i: complex(re[i], im[i]) for i in range(n)})
        sym = 0.5 * (elem + involution(elem, g))
        w, v, clusters = _eigen_clusters(representation_matrix(sym, g, rep).matrix, 1e-8)
        pick = int(rng.integers(len(clusters)))
        props.append(_cluster_projection(w, v, clusters[pick], rep))
    family: list[Proposition] = []
    for p in props:
        if all(np.linalg.norm(q.matrix - p.matrix) > DEFAULT_TOL for q in family):
            family.append(p)
    return family


@dataclass(frozen=True)
class LawViolation:
    law: str
    operands: tuple[int, ...]
    residual: float

    def describe(self, props: Sequence[Proposition] | None = None) -> str:
        names = ", ".join(
            props[i].label or f"#{i}" if props else f"#{i}" for i in self.operands
        )
        return f"{self.law} fails on ({names}): residual {self.residual:.3e}"


@dataclass(frozen=True)
class LatticeReport:
    """Laws tested on n propositions.  ``pairs_tested`` is n(n+1)/2; ``triples_tested``
    counts the compatibility triples (P_i, P_j, P_j′), i < j, evaluated: n(n-1)/2, or under
    ``fail_fast`` up to the first violation (none if an order law failed first)."""

    n_propositions: int
    pairs_tested: int
    triples_tested: int
    violations: tuple[LawViolation, ...]
    note: str = ""

    @property
    def is_boolean(self) -> bool:
        return not self.violations

    @property
    def max_residual(self) -> float:
        return max((v.residual for v in self.violations), default=0.0)

    def by_law(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.law] = out.get(v.law, 0) + 1
        return out

    def summary(self) -> str:
        head = (
            f"{self.n_propositions} propositions, {self.pairs_tested} pairs, "
            f"{self.triples_tested} triples: "
        )
        if self.is_boolean:
            return head + "Boolean"
        counts = ", ".join(f"{law} x{k}" for law, k in sorted(self.by_law().items()))
        return head + f"not Boolean ({counts}; worst residual {self.max_residual:.3e})"


def _chunks(count: int, d: int):
    """Index slices covering ``range(count)``, ``CHUNK_ENTRIES`` entries of d x d matrices each."""
    step = max(1, CHUNK_ENTRIES // (d * d))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _chunked_norms(count: int, d: int, stack) -> np.ndarray:
    """Operator norms of ``stack(s)`` for index slices ``s`` covering ``range(count)``."""
    out = np.empty(count)
    for s in _chunks(count, d):
        out[s] = _norms(stack(s))
    return out


def check_boolean(
    props: Sequence[Proposition],
    tol: float = DEFAULT_TOL,
    fail_fast: bool = False,
    note: str = "",
) -> LatticeReport:
    """Test the order laws, orthomodularity and pairwise compatibility on a family.

    Antisymmetry and orthomodularity run over ordered pairs, transitivity over
    ordered triples, and compatibility, P_i = (P_i ∧ P_j) ∨ (P_i ∧ P_j′) (the
    meets are orthogonal, so the join is their sum), over pairs i < j: P_i and
    P_j commute, and commuting members generate a Boolean lattice
    (Foulis–Holland).  Residuals are operator norms of the two sides' difference.
    Every residual is computed on stacks of matrices, in chunks of
    ``CHUNK_ENTRIES`` entries; the violations are then collected in the
    order of the loops above, and ``fail_fast`` stops at the first one.
    """
    n = len(props)
    if n == 0:
        return LatticeReport(0, 0, 0, (), note)
    mats = np.stack([p.matrix for p in props])
    d = mats.shape[-1]
    eye = np.eye(d)
    pairs = n * (n + 1) // 2
    violations: list[LawViolation] = []

    def done() -> bool:
        return fail_fast and bool(violations)

    # order: P_i below P_j when P_i P_j = P_i
    oi, oj = np.divmod(np.arange(n * n), n)
    order_res = _chunked_norms(n * n, d, lambda s: mats[oi[s]] @ mats[oj[s]] - mats[oi[s]]).reshape(n, n)
    below = order_res <= tol

    # pair laws over the ordered pairs i != j with P_i below P_j, in row-major order
    bi, bj = np.nonzero(below & ~np.eye(n, dtype=bool))
    mutual = below[bj, bi]
    anti_res = _chunked_norms(bi.size, d, lambda s: mats[bi[s]] - mats[bj[s]])
    # orthomodularity: Q recovers as P or (Q and not P)
    ortho_res = _chunked_norms(
        bi.size, d,
        lambda s: mats[bj[s]] - _join_m(mats[bi[s]], _meet_m(mats[bj[s]], eye - mats[bi[s]])),
    )
    for t in range(bi.size):
        if done():
            break
        i, j = int(bi[t]), int(bj[t])
        if mutual[t] and anti_res[t] > tol:
            violations.append(LawViolation("antisymmetry", (i, j), float(anti_res[t])))
        elif ortho_res[t] > tol:
            violations.append(LawViolation("orthomodularity", (i, j), float(ortho_res[t])))

    distinct = np.ones((n, n, n), dtype=bool)
    idx = np.arange(n)
    distinct[idx, idx, :] = distinct[idx, :, idx] = distinct[:, idx, idx] = False
    broken = below[:, :, None] & below[None, :, :] & ~below[:, None, :] & distinct
    for i, j, k in np.argwhere(broken).tolist():
        if done():
            break
        violations.append(LawViolation("transitivity", (i, j, k), float(order_res[i, k])))

    # compatibility of every pair i < j, in row-major order
    ci, cj = np.triu_indices(n, 1)
    triples = 0
    for s in _chunks(0 if done() else ci.size, d):
        lhs = mats[ci[s]] - _meet_m(mats[ci[s]], mats[cj[s]])
        lhs -= _meet_m(mats[ci[s]], eye - mats[cj[s]])
        res = _norms(lhs)
        triples = s.stop
        for t in np.flatnonzero(res > tol).tolist():
            violations.append(LawViolation("compatibility", (int(ci[s.start + t]), int(cj[s.start + t])), float(res[t])))
            if done():
                return LatticeReport(n, pairs, s.start + t + 1, tuple(violations), note)
    return LatticeReport(n, pairs, triples, tuple(violations), note)


# -- the classicality theorem, three ways ---------------------------------


@dataclass(frozen=True)
class ClassicalityVerdict:
    """Classicality decided by lattice, structure and algebra routes.

    The three routes are logically equivalent; `consistent` records that
    they actually agreed on this instance.
    """

    boolean_lattice: bool
    totally_disconnected: bool
    abelian_isotropy: bool
    abelian_algebra: bool
    report: LatticeReport
    witness: LawViolation | None
    propositions: tuple[Proposition, ...] = field(repr=False, default=())

    @property
    def structural(self) -> bool:
        return self.totally_disconnected and self.abelian_isotropy

    @property
    def consistent(self) -> bool:
        return self.boolean_lattice == self.structural == self.abelian_algebra

    @property
    def is_classical(self) -> bool:
        return self.boolean_lattice

    @property
    def pseudo_classical(self) -> bool:
        """Sharp outcomes but a non-commutative layer underneath."""
        return self.totally_disconnected and not self.abelian_isotropy

    def describe(self) -> str:
        lines = [
            f"boolean lattice:       {self.boolean_lattice}",
            f"totally disconnected:  {self.totally_disconnected}",
            f"abelian isotropy:      {self.abelian_isotropy}",
            f"abelian algebra:       {self.abelian_algebra}",
            f"routes consistent:     {self.consistent}",
            f"verdict:               {'classical' if self.is_classical else 'non-classical'}",
        ]
        if self.pseudo_classical:
            lines.append("note: pseudo-classical candidate (disconnected outcomes, non-abelian isotropy)")
        if self.witness is not None:
            lines.append("witness: " + self.witness.describe(self.propositions))
        lines.append("lattice: " + self.report.summary())
        return "\n".join(lines)


def classicality_verdict(
    g: Groupoid,
    samples: int = 5,
    seed: int = 42,
    rep: str = LEFT_REGULAR,
    tol: float = DEFAULT_TOL,
    fail_fast: bool = False,
) -> ClassicalityVerdict:
    """Decide classicality three independent ways and cross-check.

    Route one tests the lattice laws, pairwise compatibility among them,
    on the canonical generating family, and uses no matrix commutator;
    route two inspects connectivity and isotropy commutativity; route
    three measures commutators of the represented basis directly.
    """
    props = canonical_propositions(g, samples=samples, seed=seed, rep=rep)
    note = f"canonical family: units, superpositions, loop eigenprojections, {samples} random eigenprojections"
    report = check_boolean(props, tol=tol, fail_fast=fail_fast, note=note)

    td = is_totally_disconnected(g)
    ab_iso = has_abelian_isotropy(g)

    images = [op.matrix for op in algebra_basis(g, rep)]
    comm_residual = 0.0
    for a, b in itertools.combinations(images, 2):
        comm_residual = max(comm_residual, operator_norm(a @ b - b @ a))
        if comm_residual > 1e-10:
            break
    abelian_alg = comm_residual <= 1e-10

    witness = report.violations[0] if report.violations else None
    return ClassicalityVerdict(
        boolean_lattice=report.is_boolean,
        totally_disconnected=td,
        abelian_isotropy=ab_iso,
        abelian_algebra=abelian_alg,
        report=report,
        witness=witness,
        propositions=tuple(props),
    )
