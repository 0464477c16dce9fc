"""Propositions (orthogonal projections) and their lattice.

A proposition is a self-adjoint idempotent in a represented transition
algebra.  The meet of two propositions is the strong limit of
alternating products, the projection onto ran P ∩ ran Q, which is the
eigenvalue-1 eigenspace of P Q P: one eigendecomposition of the
symmetrized seed gives it in closed form, and the public `meet` replays
the pin-and-square schedule on the eigenvalues alone.  The join
is obtained from meets and complements.  All of this works on stacks
of matrices; each tolerance test is decided exactly by a Frobenius
bracket around the spectral norm, and reported residuals are spectral
norms.  A family generates a Boolean lattice exactly when its members
are pairwise compatible, P = (P ∧ Q) ∨ (P ∧ Q′), so that law on a
generating family of C*(G) decides the classicality question, which
`classicality_verdict` answers three independent ways.  As C*(G) ≅
⊕_orbits M_{|O|}(ℂ[G_x]), it builds the family (`_family`) and runs the laws
and the commutators on one block per orbit (`orbit_blocks`), where the dense
`canonical_propositions` and `check_boolean` are the same on one block.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    LEFT_REGULAR,
    Operator,
    _exceeds,
    _norms,
    _rep_dim,
    _represent,
    operator_norm,
)
from .groupoid import Groupoid, has_abelian_isotropy, is_totally_disconnected, orbit_blocks

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
    return Proposition(m, rep, *_residuals([m[None]], tol)[:, 0].tolist(), label)


def _residuals(stacks: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> np.ndarray:
    """Self-adjointness and idempotency residuals, shape (2, n), of members given as one stack per block: the
    largest over the blocks, the operator norms of the block-diagonal members.  The first failure raises."""
    res = np.array([np.max([_norms(m - _adjoint(m)) for m in stacks], axis=0),
                    np.max([_norms(m @ m - m) for m in stacks], axis=0)])
    bad = np.flatnonzero(~(res <= tol).all(axis=0))
    if bad.size:
        raise CertificationError(*res[:, bad[0]].tolist())
    return res


def is_proposition(op: Operator | np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    try:
        certify_proposition(op, tol)
    except CertificationError:
        return False
    return True


def unit_proposition(g: Groupoid, x: int, rep: str = LEFT_REGULAR) -> Proposition:
    """The projection recording "the outcome is x"."""
    m = _represent(g, rep, np.array([[g.unit(x)]]), np.ones((1, 1), dtype=complex))[0]
    return certify_proposition(m, rep=rep, label=f"unit[{g.label(x)}]")


def transition_proposition(g: Groupoid, t: int, rep: str = LEFT_REGULAR) -> Proposition:
    """The even superposition projection attached to a connecting transition.

    For a transition t running x -> y with x != y this is half the sum
    of the two endpoint units, t itself and its inverse.  It is always a
    projection, and it is the standard witness that connecting
    transitions break distributivity.
    """
    if g.source[t] == g.target[t]:
        raise ValueError("the superposition projection needs a transition between distinct objects")
    ends = np.array([[g.unit(g.source[t]), g.unit(g.target[t]), t, g.inverse(t)]])
    return certify_proposition(_represent(g, rep, ends, np.full((1, 4), 0.5 + 0j))[0], rep=rep, label=f"superpose[{t}]")


# -- order and operations -------------------------------------------------


def leq(p: Proposition, q: Proposition, tol: float = DEFAULT_TOL) -> bool:
    """Order by range inclusion: P below Q when P Q = P."""
    below = not _exceeds(p.matrix @ q.matrix - p.matrix, tol)
    # the reversed product must then agree as well
    if below and _exceeds(q.matrix @ p.matrix - p.matrix, 2 * tol):
        residual = operator_norm(q.matrix @ p.matrix - p.matrix)
        raise RuntimeError(f"order check is one-sided: P Q = P but Q P differs from P by {residual:.3e}")
    return below


def complement(p: Proposition) -> Proposition:
    m = np.eye(p.dim) - p.matrix
    return Proposition(m, p.rep, p.residual_adjoint, p.residual_idempotent,
                       None if p.label is None else f"not({p.label})")


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


def _scheduled_meet(p: np.ndarray, q: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """The meet of two projections by squaring the eigenvalues of P Q P, each value within ``MEET_PIN_TOL`` of 1
    pinned to 1, until a step moves them by at most ``tol``; ``ConvergenceError`` after ``max_iter`` squarings."""
    mu, v = _meet_eigh(p, q)
    moved = float("inf")
    for _ in range(max_iter):
        nxt = mu * mu
        nxt[nxt >= 1.0 - MEET_PIN_TOL] = 1.0
        moved, mu = float(np.linalg.norm(nxt - mu)), nxt
        if moved <= tol:
            return (v * mu) @ _adjoint(v)
    raise ConvergenceError(moved, max_iter)


def meet(p: Proposition, q: Proposition, tol: float = MEET_TOL, max_iter: int = MEET_MAX_ITER) -> Proposition:
    """Largest proposition below both arguments, by `_scheduled_meet`'s squaring schedule: ``max_iter`` bounds the
    squarings and a budget too small raises ``ConvergenceError`` (the lattice engine uses the closed form, `_meet_m`)."""
    if p.dim != q.dim:
        raise ValueError("propositions live in different spaces")
    m = _scheduled_meet(p.matrix, q.matrix, tol, max_iter)
    return certify_proposition(m, rep=p.rep, label=_binary_label("and", p, q))


def join(p: Proposition, q: Proposition, tol: float = MEET_TOL, max_iter: int = MEET_MAX_ITER) -> Proposition:
    """Smallest proposition above both arguments, via complements of meets."""
    if p.dim != q.dim:
        raise ValueError("propositions live in different spaces")
    eye = np.eye(p.dim)
    m = eye - _scheduled_meet(eye - p.matrix, eye - q.matrix, tol, max_iter)
    return certify_proposition(m, rep=p.rep, label=_binary_label("or", p, q))


def _join_m(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    eye = np.eye(p.shape[-1])
    m = _meet_m(eye - p, eye - q)
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


def _eigen_clusters(blocks: Sequence[np.ndarray], mult: Sequence[int], cluster_tol: float):
    """Eigendecompositions (one ``eigh`` per block) and eigenvalue clusters of self-adjoint elements on invariant blocks.

    ``blocks`` holds one ``(m, r, r)`` stack per block, block b acting ``mult[b]`` times.  An element's
    spectrum is the ascending union of its blocks' spectra, block b's eigenvalues ``mult[b]`` times; a
    cluster is a slice of it that ends wherever the gap to the next eigenvalue exceeds ``cluster_tol``.
    """
    bad = np.any([_exceeds(m - _adjoint(m), 1e-8) for m in blocks], axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"operator is not self-adjoint (residual {max(operator_norm(m[k] - _adjoint(m[k])) for m in blocks):.3e})")
    eig = [np.linalg.eigh((m + _adjoint(m)) / 2.0) for m in blocks]
    union = np.sort(np.concatenate([np.repeat(w, k, axis=-1) for (w, _), k in zip(eig, mult)], axis=-1), axis=-1)
    bounds = [[0, *(np.flatnonzero(np.diff(row) > cluster_tol) + 1).tolist(), row.size] for row in union]
    return eig, union, [[slice(a, b) for a, b in zip(e, e[1:]) if b > a] for e in bounds]


def _cluster_projections(eig: list, union: np.ndarray, k: int, clusters: list[slice], prefix: str = "") -> list[tuple]:
    """(matrices, label) of the projection onto each given cluster of element k of `_eigen_clusters`: its matrix on
    each block, from the block's eigenvectors in the cluster, which are a slice of the block's ascending spectrum.
    The label's mean is ``np.mean``'s, one ``np.add.reduce`` divided by the count."""
    row, spectra = union[k].tolist(), [(w[k].tolist(), v[k]) for w, v in eig]
    return [([u @ u.conj().T for u in (v[:, bisect_left(w, row[c.start]):bisect_right(w, row[c.stop - 1])] for w, v in spectra)],
             f"{prefix}eig[{float(np.add.reduce(union[k, c])) / (c.stop - c.start):.4g}]") for c in clusters]


def spectral_projections(op: Operator | np.ndarray, cluster_tol: float = 1e-8, rep: str = LEFT_REGULAR) -> list[Proposition]:
    """Eigenprojections of a self-adjoint operator, one per eigenvalue cluster.

    Eigenvalues closer than ``cluster_tol`` merge into one cluster, so
    near-degenerate spectra produce well-conditioned projections.
    """
    if isinstance(op, Operator):
        m, rep = op.matrix, op.rep
    else:
        m = np.asarray(op, dtype=complex)
    eig, union, clusters = _eigen_clusters([m[None]], [1], cluster_tol)
    members = _cluster_projections(eig, union, 0, clusters[0])
    mats = np.reshape([p for (p,), _ in members], (-1, *m.shape))
    return [Proposition(p, rep, a, i, label) for p, (a, i), (_, label) in zip(mats, _residuals([mats]).T.tolist(), members)]


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
    This is `_family` on one block, the whole space.
    """
    return list(_family(g, [np.arange(_rep_dim(g, rep))[None]], samples, seed, rep))


def _family(g: Groupoid, blocks: Sequence[np.ndarray], samples: int, seed: int, rep: str) -> _BlockFamily:
    """`canonical_propositions` on invariant blocks covering the basis (rows of `orbit_blocks`), each element
    represented on each block's row 0.  Residuals are a member's largest over its blocks, and the Frobenius
    distance that drops duplicates weighs block b by √(rows of b), so both are the whole matrix's.  A sample's
    draw depends on its clusters, whose count is the whole space's, so samples run one by one."""
    if samples < 0:
        raise ValueError(f"the number of random eigenprojections (--samples) must be non-negative, got {samples}")
    pairs = [t for t in range(g.n_transitions) if t <= g.inverse(t)]
    links = [t for t in pairs if g.source[t] != g.target[t]]
    loops = [t for t in pairs if g.source[t] == g.target[t] and not g.is_unit(t)]
    # one row of term ids and coefficients per element: a unit, half the sum of a
    # link's endpoint units, itself and its inverse, and s + s* and i(s - s*) per loop
    terms = [[g.unit(x), -1, -1, -1] for x in range(g.n_objects)]
    terms += [[g.unit(g.source[t]), g.unit(g.target[t]), t, g.inverse(t)] for t in links]
    terms += [[s, g.inverse(s), -1, -1] for s in loops for _ in range(2)]
    coeffs = [[1, 0, 0, 0]] * g.n_objects + [[0.5] * 4] * len(links) + [[1, 1, 0, 0], [1j, -1j, 0, 0]] * len(loops)
    ids, coeffs = np.array(terms, dtype=np.intp), np.array(coeffs, dtype=complex)
    images = [_represent(g, rep, ids, coeffs, rows[0]) for rows in blocks]
    mult = [len(rows) for rows in blocks]
    head = g.n_objects + len(links)
    labels = [f"unit[{g.label(x)}]" for x in range(g.n_objects)] + [f"superpose[{t}]" for t in links]
    members = [([m[i] for m in images], label) for i, label in enumerate(labels)]
    eig, union, clusters = _eigen_clusters([m[head:] for m in images], mult, 1e-8)
    for k, s in enumerate(np.repeat(loops, 2).tolist()):
        members += _cluster_projections(eig, union, k, clusters[k][:-1], f"{('sym', 'skew')[k % 2]}[{s}]:")
    rng = np.random.default_rng(seed)
    n = g.n_transitions
    for _ in range(samples):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sym = 0.5 * (c + np.conj(c[g.inverse_table]))
        eig, union, clusters = _eigen_clusters([_represent(g, rep, np.arange(n)[None], sym[None], rows[0])
                                                for rows in blocks], mult, 1e-8)
        pick = int(rng.integers(len(clusters[0])))
        members += _cluster_projections(eig, union, 0, clusters[0][pick:pick + 1])
    sizes = [rows.shape[1] for rows in blocks]
    ends, flat = np.cumsum(np.square(sizes)), np.empty((len(members), sum(r * r for r in sizes)), dtype=complex)
    stacks = [flat[:, e - r * r:e].reshape(-1, r, r) for e, r in zip(ends, sizes)]
    for b, stack in enumerate(stacks):  # member i's matrices on the blocks are row i of flat
        np.stack([m[b] for m, _ in members], out=stack)
    residuals = _residuals(stacks)
    weight, keep = np.repeat(mult, np.square(sizes)), np.zeros(len(members), dtype=bool)
    for k in range(len(members)):  # against the kept members, about CHUNK_ENTRIES entries per call
        keep[k] = all((np.abs(flat[s][keep[s]] - flat[k]) ** 2 @ weight > DEFAULT_TOL ** 2).all()
                      for s in _chunks(k, int(flat.shape[1] ** 0.5)))
    return _BlockFamily(tuple(label for (_, label), kept in zip(members, keep) if kept), blocks,
                        [flat[keep, e - r * r:e].reshape(-1, r, r) for e, r in zip(ends, sizes)], residuals[:, keep], rep)


@dataclass(frozen=True, eq=False)
class _BlockFamily(Sequence):
    """A family as one ``(n, r, r)`` stack per block of ``blocks`` (`_family`).  Member i is lifted to its d x d
    `Proposition`, its block matrix on every row of each block and 0 elsewhere, only when read; ``labels`` lifts none."""

    labels: tuple[str, ...]
    blocks: Sequence[np.ndarray]
    stacks: list[np.ndarray]
    residuals: np.ndarray  # (2, n): self-adjointness and idempotency
    rep: str

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        i, d = range(len(self))[i], sum(rows.size for rows in self.blocks)
        m = np.zeros((d, d), dtype=complex)
        for rows, stack in zip(self.blocks, self.stacks):
            m[rows[:, :, None], rows[:, None, :]] = stack[i]
        return Proposition(m, self.rep, *self.residuals[:, i].tolist(), self.labels[i])


@dataclass(frozen=True)
class LawViolation:
    law: str
    operands: tuple[int, ...]
    residual: float

    def describe(self, props: Sequence[Proposition] | None = None) -> str:
        # a verdict's family names its members without lifting them
        labels = props.labels if isinstance(props, _BlockFamily) else [p.label for p in props or ()]
        names = ", ".join(labels[i] or f"#{i}" if labels else f"#{i}" for i in self.operands)
        return f"{self.law} fails on ({names}): residual {self.residual:.3e}"


@dataclass(frozen=True)
class LatticeReport:
    """Laws tested on n propositions.  ``pairs_tested`` is n(n+1)/2; ``triples_tested``
    counts the compatibility triples (P_i, P_j, P_j′), i < j, decided: n(n-1)/2, or under
    ``fail_fast`` up to the first violation (none if an order law failed first), and
    ``pairs_by_support`` those decided without a meet, as no block has both proper."""

    n_propositions: int
    pairs_tested: int
    triples_tested: int
    violations: tuple[LawViolation, ...]
    note: str = ""
    pairs_by_support: int = 0

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
    Every law runs on stacks in chunks of ``CHUNK_ENTRIES`` entries, decided by
    the Frobenius bracket of ``_exceeds``; only the violators' residuals are
    computed.  Violations come in the order of the loops above; ``fail_fast``
    stops at the first.  This is `_check_blocks` on one block, the whole space.
    """
    if not props:
        return LatticeReport(0, 0, 0, (), note)
    none = np.zeros((1, len(props)), dtype=bool)  # no member is taken as 0 or I
    return _check_blocks([np.stack([p.matrix for p in props])], none, none, tol, fail_fast, note)


def _check_blocks(blocks: Sequence[np.ndarray], zero: np.ndarray, full: np.ndarray, tol: float, fail_fast: bool,
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


# -- the classicality theorem, three ways ---------------------------------


@dataclass(frozen=True)
class ClassicalityVerdict:
    """Classicality decided by lattice, structure and algebra routes.

    The three routes are logically equivalent; `consistent` records that
    they actually agreed on this instance.  ``propositions`` lifts each
    member of the family from its orbit blocks only when it is read.
    """

    boolean_lattice: bool
    totally_disconnected: bool
    abelian_isotropy: bool
    abelian_algebra: bool
    report: LatticeReport
    witness: LawViolation | None
    propositions: Sequence[Proposition] = field(repr=False, default=())

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
    blocks = orbit_blocks(g, rep)
    props = _family(g, blocks, samples, seed, rep)
    note = f"canonical family: units, superpositions, loop eigenprojections, {samples} random eigenprojections"
    # a member is trivial on a block within DEFAULT_TOL of 0 or I there; a certified member's block is
    # a projection, of norm 0 or 1, so the Frobenius norm alone decides
    zero = np.array([~_exceeds(m, DEFAULT_TOL) for m in props.stacks])
    full = np.array([~_exceeds(np.eye(m.shape[-1]) - m, DEFAULT_TOL) for m in props.stacks])
    report = _check_blocks(props.stacks, zero, full, tol, fail_fast, note)

    td = is_totally_disconnected(g)
    ab_iso = has_abelian_isotropy(g)

    # route three: commutators of the basis images on each representative block, up to the first
    # failing chunk; the images are exact 0/1 matrices, equal on the blocks of one orbit, and a
    # transition that is 0 on a block commutes with everything there
    ids, abelian_alg = np.arange(g.n_transitions)[:, None], True
    for rows in blocks:
        images = _represent(g, rep, ids, np.ones(ids.shape), rows[0])
        images = images[images.any(axis=(-2, -1))]
        ci, cj = np.triu_indices(len(images), 1)
        abelian_alg = abelian_alg and not any(
            _exceeds(images[ci[s]] @ images[cj[s]] - images[cj[s]] @ images[ci[s]], 1e-10).any()
            for s in _chunks(ci.size, images.shape[-1])
        )

    witness = report.violations[0] if report.violations else None
    return ClassicalityVerdict(
        boolean_lattice=report.is_boolean,
        totally_disconnected=td,
        abelian_isotropy=ab_iso,
        abelian_algebra=abelian_alg,
        report=report,
        witness=witness,
        propositions=props,
    )
