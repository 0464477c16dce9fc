"""Propositions (orthogonal projections) and their lattice.

A proposition is a self-adjoint idempotent in a represented transition
algebra.  The meet of two propositions is the strong limit of
alternating products, the projection onto ran P ∩ ran Q, which is the
eigenvalue-1 eigenspace of P Q P: one eigendecomposition of the
symmetrized seed gives it in closed form, and the public `meet` replays
the pin-and-square schedule on the eigenvalues alone.  The join
is obtained from meets and complements.  A family generates a Boolean
lattice exactly when its members are pairwise compatible, P = (P ∧ Q) ∨
(P ∧ Q′), which `classicality_verdict` decides on a generating family of
C*(G) from the principal angles between the members' ranges (C. Jordan,
*Bull. SMF* 3, 1875), the arccosines of the singular values of U_Pᴴ U_Q for
P = U_P U_Pᴴ (Å. Björck and G. H. Golub, *Math. Comp.* 27, 1973): P and Q
commute exactly when every angle is 0 or π/2 (P. R. Halmos, *Trans. AMS*
144, 1969).  As C*(G) ≅ ⊕_orbits M_{|O|}(ℂ[G_x]), it builds the family
(`_family`) and runs the laws and the commutators on one block per orbit
(`orbit_blocks`); `canonical_propositions` and `check_boolean` are one block.
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
from .groupoid import Groupoid, _orbit_table, has_abelian_isotropy, is_totally_disconnected, orbit_blocks

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
# The verdict takes the meets of a compatibility pair whose witness μ has min(μ, 1 − μ) below this (`_check_blocks`):
# the Gram's μ and the meets' eigenvalues differ by about 1e-15 near the pins' 5e-13, at most by the tolerance 1e-9
# that certifies the members.
_PIN_MARGIN = 1e-6
# The lattice engine and route three process their stacks of matrices this many
# complex entries (128 KiB) at a time.
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
    res = np.zeros((2, len(stacks[0])))
    for m in stacks:
        for row, x in enumerate((m - _adjoint(m), m @ m - m)):
            nz = np.flatnonzero(x.any(axis=(-2, -1)))  # an exact 0 needs no SVD
            res[row, nz] = np.maximum(res[row, nz], _norms(x[nz]))
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
    skew = [m - _adjoint(m) for m in blocks]  # exactly 0 for an element built self-adjoint, which needs no norm
    bad = np.any([_exceeds(x, 1e-8) if x.any() else np.zeros(len(x), dtype=bool) for x in skew], axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"operator is not self-adjoint (residual {max(operator_norm(x[k]) for x in skew):.3e})")
    eig = [np.linalg.eigh((m + _adjoint(m)) / 2.0) for m in blocks]
    union = np.sort(np.concatenate([np.repeat(w, k, axis=-1) for (w, _), k in zip(eig, mult)], axis=-1), axis=-1)
    bounds = [[0, *(np.flatnonzero(np.diff(row) > cluster_tol) + 1).tolist(), row.size] for row in union]
    return eig, union, [[slice(a, b) for a, b in zip(e, e[1:]) if b > a] for e in bounds]


def _cluster_projections(eig: list, union: np.ndarray, k: int, clusters: list[slice], cluster_tol: float,
                         prefix: str = "") -> list[tuple]:
    """(isometries, label) of the projection U Uᴴ onto each given cluster of element k of `_eigen_clusters`: on each
    block, U is the block's eigenvectors in the cluster, a slice of its ascending spectrum.  The label's mean is
    ``np.mean``'s, one ``np.add.reduce`` divided by the count, printed as 0 below ``cluster_tol`` (rounding noise)."""
    row, spectra = union[k].tolist(), [(w[k].tolist(), v[k]) for w, v in eig]
    means = [float(np.add.reduce(union[k, c])) / (c.stop - c.start) for c in clusters]
    return [([v[:, bisect_left(w, row[c.start]):bisect_right(w, row[c.stop - 1])] for w, v in spectra],
             f"{prefix}eig[{mean if abs(mean) >= cluster_tol else 0.0:.4g}]") for c, mean in zip(clusters, means)]


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
    members = _cluster_projections(eig, union, 0, clusters[0], cluster_tol)
    mats = np.reshape([u @ u.conj().T for (u,), _ in members], (-1, *m.shape))
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
    draw depends on its clusters, whose count is the whole space's, so samples run one by one.  Each member keeps
    its ranges (`_isometries`), eigenvectors of its element, as the one ``eigh`` per block also takes the images."""
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
    eig, union, clusters = _eigen_clusters(images, mult, 1e-8)
    members = [([v[i][:, (w[i] <= 0.5).sum():] for w, v in eig], label) for i, label in enumerate(labels)]
    for k, s in enumerate(np.repeat(loops, 2).tolist(), head):
        members += _cluster_projections(eig, union, k, clusters[k][:-1], 1e-8, f"{('sym', 'skew')[(k - head) % 2]}[{s}]:")
    rng = np.random.default_rng(seed)
    n = g.n_transitions
    for _ in range(samples):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sym = 0.5 * (c + np.conj(c[g.inverse_table]))
        eig, union, clusters = _eigen_clusters([_represent(g, rep, np.arange(n)[None], sym[None], rows[0])
                                                for rows in blocks], mult, 1e-8)
        pick = int(rng.integers(len(clusters[0])))
        members += _cluster_projections(eig, union, 0, clusters[0][pick:pick + 1], 1e-8)
    sizes = [rows.shape[1] for rows in blocks]
    ends, flat = np.cumsum(np.square(sizes)), np.empty((len(members), sum(r * r for r in sizes)), dtype=complex)
    stacks = [flat[:, e - r * r:e].reshape(-1, r, r) for e, r in zip(ends, sizes)]
    for b, (stack, m) in enumerate(zip(stacks, images)):  # member i's matrices on the blocks are row i of flat
        stack[:head] = m[:head]  # a unit's or superposition's matrices are its images
        for i, (us, _) in enumerate(members[head:], head):
            stack[i] = us[b] @ us[b].conj().T
    residuals, ranges = _residuals(stacks), [_isometries([us[b] for us, _ in members], r) for b, r in enumerate(sizes)]
    # duplicates: the members' Hilbert–Schmidt Gram, Σ_b rows_b Re tr P_b Q_b, gives ‖P − Q‖_F² = tr P + tr Q − 2 tr P Q
    # to far within a margin of 1e-9, and the exact distance decides the pairs it puts within that margin
    hs = sum(k * (x @ x.T) for x, k in ((m.reshape(len(m), -1).view(float), k) for m, k in zip(stacks, mult)))
    near = np.argwhere(np.tril(hs.diagonal()[:, None] + hs.diagonal() - 2.0 * hs <= 1e-9, -1))  # (later, earlier)
    keep, weight = np.ones(len(members), dtype=bool), np.repeat(mult, np.square(sizes))
    for k, s in near[~(np.abs(flat[near[:, 0]] - flat[near[:, 1]]) ** 2 @ weight > DEFAULT_TOL ** 2)].tolist():
        keep[k] &= not keep[s]
    return _BlockFamily(tuple(label for (_, label), kept in zip(members, keep) if kept), blocks,
                        [flat[keep, e - r * r:e].reshape(-1, r, r) for e, r in zip(ends, sizes)], residuals[:, keep], rep,
                        [(iso[keep], rank[keep]) for iso, rank in ranges])


def _isometries(us: Sequence[np.ndarray], r: int) -> tuple[np.ndarray, np.ndarray]:
    """(isometries, ranks) of members on an r-dimensional block from orthonormal bases ``us`` of their ranges, as
    ``(n, r, k)`` with k the largest rank below r: zero columns pad the smaller ranks, and a member 0 or I is 0."""
    rank = np.array([u.shape[-1] for u in us], dtype=int)
    iso = np.zeros((len(us), r, int(rank[rank < r].max(initial=0))), dtype=complex)
    for i in np.flatnonzero((rank > 0) & (rank < r)).tolist():
        iso[i, :, :rank[i]] = us[i]
    return iso, rank


def _ranges(stacks: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """`_isometries` of each stack of projections from one batched ``eigh``: the eigenvectors with eigenvalue above ½."""
    return [_isometries([x[:, c:] for x, c in zip(v, (w <= 0.5).sum(axis=-1))], m.shape[-1])
            for m, (w, v) in zip(stacks, map(np.linalg.eigh, stacks))]


@dataclass(frozen=True, eq=False)
class _BlockFamily(Sequence):
    """A family as one ``(n, r, r)`` stack and its ``ranges`` (`_isometries`) per block of ``blocks`` (`_family`).  Member
    i is lifted to its d x d `Proposition`, its block matrix on every row of each block and 0 elsewhere, only when read."""

    labels: tuple[str, ...]
    blocks: Sequence[np.ndarray]
    stacks: list[np.ndarray]
    residuals: np.ndarray  # (2, n): self-adjointness and idempotency
    rep: str
    ranges: list[tuple[np.ndarray, np.ndarray]]

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
    """A law failing on members ``operands``: its residual, and for compatibility the witness principal angle, of
    the angles between the two ranges that are neither 0 nor π/2 the one farthest from both."""

    law: str
    operands: tuple[int, ...]
    residual: float
    angle: float | None = None

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
    ``pairs_by_support`` those decided by support alone, as no block has both proper."""

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


def _chunks(count: int, size: int):
    """Index slices covering ``range(count)``, ``CHUNK_ENTRIES`` entries of items of ``size`` entries each."""
    step = max(1, CHUNK_ENTRIES // max(1, size))
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
    (Foulis–Holland).  The laws are decided from the principal angles between
    the members' ranges (Jordan, 1875).  Residuals are operator norms of the two
    sides' difference, taken with the meets of `_meet_m` on the d x d members,
    for every candidate violator: the reference for the verdict, which gives
    most compatibility violations their closed form 1.  Violations come in the
    order of the loops above; ``fail_fast`` stops at the first.  This is
    `_check_blocks` on one block, the whole space.
    """
    if not props:
        return LatticeReport(0, 0, 0, (), note)
    stack = np.stack([p.matrix for p in props])
    return _check_blocks([stack], _ranges([stack]), tol, fail_fast, note)


def _check_blocks(blocks: Sequence[np.ndarray], ranges: Sequence[tuple[np.ndarray, np.ndarray]], tol: float,
                  fail_fast: bool, note: str, joint: bool = False) -> LatticeReport:
    """`check_boolean` on block-diagonal members, given as one ``(n, r, r)`` stack per block.

    ``ranges`` holds each member's range on each block, P = U Uᴴ (`_isometries`).  Where P is 0
    or I no law can fail and the order needs no product (0 is below all, all below I, I below
    nothing proper), so a law runs on the blocks where its operands are proper, and its residual
    is the largest there; a compatibility pair with no such block counts in ``pairs_by_support``.
    The blocks U_iᴴ U_j of the proper members' Gram matrix, ``CHUNK_ENTRIES`` entries at a
    time, decide: their squared singular values μ, pinned to 0 or 1 as `_meet_m` pins them,
    are all pinned exactly when P_i and P_j commute; P_i ≤ P_j when ‖U_i − U_j U_jᴴ U_i‖₂ ≤ tol,
    computed where tr P_i P_j allows it (1 − μ cannot resolve 1e-9); antisymmetry follows, as
    ‖P − Q‖ is the larger of ‖(I − Q) P‖ and ‖(I − P) Q‖ (Kato); a broken chain is a path of
    two in the order.  Residuals are computed on the block, or under ``joint`` (the verdict)
    on a basis of ran P_i + ran P_j where that is smaller: `check_boolean` keeps the d x d
    members, and every residual, as the reference for the verdict's.  Under ``joint`` a
    compatibility residual takes its meets only for the first violator, the witness, and for
    the pairs whose witness μ lies within ``_PIN_MARGIN`` of a pin, where the meets may pin an
    angle that the Gram does not; every other unpinned pair has the closed form 1 (Halmos, 1969):
    both meets lie in ran P_i, so P_i − (P_i ∧ P_j) − (P_i ∧ P_j′) is the projection onto P_i's
    principal vectors at the angles the meets leave unpinned, the witness's among them.
    """
    n, violations = blocks[0].shape[0], []
    proper = [(rank > 0) & (rank < m.shape[-1]) for m, (_, rank) in zip(blocks, ranges)]

    def done() -> bool:
        return fail_fast and bool(violations)

    def worst(i: np.ndarray, j: np.ndarray, law) -> np.ndarray:
        """Largest ‖law(P, Q, I)‖₂ above ``tol`` over the blocks where both members are proper, else 0."""
        out = np.zeros(len(i))
        for mats, (u, _), ok in zip(blocks, ranges, proper):
            r, side, k = mats.shape[-1], 2 * u.shape[-1], np.flatnonzero(ok[i] & ok[j])
            reduce = joint and side < r
            for s in _chunks(k.size, r * (side if reduce else r)):
                a, c = i[k[s]], j[k[s]]
                if reduce:  # on an orthonormal basis of a space holding both ranges
                    w = _adjoint(np.linalg.qr(np.concatenate([u[a], u[c]], axis=-1))[0])
                    p, q = w @ u[a], w @ u[c]
                    x = law(p @ _adjoint(p), q @ _adjoint(q), np.eye(side))
                else:
                    x = law(mats[a], mats[c], np.eye(r))
                over = _exceeds(x, tol)
                out[k[s][over]] = np.maximum(out[k[s][over]], _norms(x[over]))
        return out

    # per block: the order, and for each pair i < j the μ of its unpinned angle farthest from 0 and π/2, and that
    # angle's spread min(μ, 1 − μ)
    below, spread, witness = np.ones((n, n), dtype=bool), np.full((n, n), -1.0), np.zeros((n, n))
    for mats, (iso, rank), ok in zip(blocks, ranges, proper):
        r, idx = mats.shape[-1], np.flatnonzero(ok)
        on, u, rank = (rank == 0)[:, None] | (rank == r)[None, :], iso[idx], rank[idx]
        m, k = u.shape[0], u.shape[-1]
        flat = u.transpose(1, 0, 2).reshape(r, m * k)
        for s in _chunks(m, m * k * k):  # rows s of the Gram, as (|s|, m, k, k)
            gram = (_adjoint(u[s]) @ flat).reshape(-1, k, m, k).transpose(0, 2, 1, 3)
            a, c = np.nonzero(rank[s, None] - (np.abs(gram) ** 2).sum(axis=(2, 3)) <= rank[s, None] * (tol * tol + 1e-12))
            for t in _chunks(a.size, r * k):
                on[idx[a[t] + s.start], idx[c[t]]] = ~_exceeds(u[a[t] + s.start] - u[c[t]] @ _adjoint(gram[a[t], c[t]]), tol)
            a, c = np.nonzero(np.arange(s.start, s.stop)[:, None] < np.arange(m))
            if a.size and k:
                x = gram[a, c]
                mu = (np.abs(x[..., 0]) if k == 1 else np.linalg.svd(x, compute_uv=False)) ** 2
                far = np.where((mu * mu >= 1.0 - MEET_PIN_TOL) | ((1.0 - mu) ** 2 >= 1.0 - MEET_PIN_TOL), -1.0, np.minimum(mu, 1.0 - mu))
                t, (a, c) = (np.arange(len(x)), far.argmax(axis=-1)), (idx[a + s.start], idx[c])
                take = far[t] > spread[a, c]
                spread[a[take], c[take]], witness[a[take], c[take]] = far[t][take], mu[t][take]
        below &= on

    # orthomodularity over the ordered pairs i != j with P_i below P_j, in row-major order: Q = P or (Q and not P)
    off = below & ~np.eye(n, dtype=bool)
    bi, bj = np.nonzero(off)
    res = worst(bi, bj, lambda p, q, e: q - (e - _meet_m(e - p, e - _meet_m(q, e - p))))
    bad = np.flatnonzero(~(res <= tol))[:1 if fail_fast else None]
    violations += [LawViolation("orthomodularity", (i, j), r) for i, j, r in zip(bi[bad].tolist(), bj[bad].tolist(), res[bad].tolist())]

    # P_i ≤ P_j ≤ P_k, P_i ≰ P_k (i, j, k distinct): a path of two in ``off`` where ``below`` has no edge
    mid = np.flatnonzero(off.any(axis=0) & off.any(axis=1))
    broken = (off[:, mid].astype(float) @ off[mid].astype(float) > 0) & ~below & ~np.eye(n, dtype=bool)
    tri = [(i, j, k) for i in np.flatnonzero(broken.any(axis=1)).tolist() for j in mid[off[i, mid]].tolist()
           for k in np.flatnonzero(off[j] & broken[i]).tolist()][: 0 if done() else 1 if fail_fast else None]
    tri = np.array(tri, dtype=np.intp).reshape(-1, 3)
    res = worst(tri[:, 0], tri[:, 2], lambda p, q, e: p @ q - p)
    violations += [LawViolation("transitivity", (i, j, k), r) for (i, j, k), r in zip(tri.tolist(), res.tolist())]

    # compatibility of every pair i < j, in row-major order: only an unpinned pair can fail
    skip = done()
    ui, uj = np.nonzero(spread >= 0) if not skip else (np.zeros(0, dtype=np.intp),) * 2

    def law(p, q, e):
        return p - _meet_m(p, q) - _meet_m(p, e - q)

    if joint:  # the closed form 1; meets for the pairs near a pin and for the witness, the first violator
        met = spread[ui, uj] < _PIN_MARGIN
        res = np.full(ui.size, 1.0 if 1.0 > tol else 0.0)
        res[met] = worst(ui[met], uj[met], law)
        for w in np.flatnonzero(~(res <= tol)).tolist():
            if not met[w]:
                res[w] = worst(ui[w:w + 1], uj[w:w + 1], law)[0]
            if not res[w] <= tol:
                break
    else:
        res = worst(ui, uj, law)
    bad = np.flatnonzero(~(res <= tol))[:1 if fail_fast else None]
    angle = np.arccos(np.sqrt(np.clip(witness[ui[bad], uj[bad]], 0.0, 1.0)))
    violations += [LawViolation("compatibility", (i, j), r, a)
                   for i, j, r, a in zip(ui[bad].tolist(), uj[bad].tolist(), res[bad].tolist(), angle.tolist())]
    i, j = (int(ui[bad[0]]), int(uj[bad[0]])) if fail_fast and bad.size else (n - 2, n - 1)
    decided = 0 if skip else i * n - i * (i + 1) // 2 + j - i
    ok = np.array(proper, dtype=float)  # (okᵀ ok)[i, j] > 0: a block where P_i and P_j are both proper
    met = (ok.T @ ok > 0)[~np.tri(n, dtype=bool)][:decided]  # the pairs i < j in row-major order
    return LatticeReport(n, n * (n + 1) // 2, decided, tuple(violations), note, decided - int(met.sum()))


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
    three measures commutators of the represented basis directly.  Route
    one's compatibility violations, but for the witness and the pairs near
    a pin, carry their closed-form residual 1 (`_check_blocks` under
    ``joint``); `check_boolean` computes every one.
    """
    blocks = orbit_blocks(g, rep)
    props = _family(g, blocks, samples, seed, rep)
    note = f"canonical family: units, superpositions, loop eigenprojections, {samples} random eigenprojections"
    report = _check_blocks(props.stacks, props.ranges, tol, fail_fast, note, joint=True)

    td = is_totally_disconnected(g)
    ab_iso = has_abelian_isotropy(g)

    # route three: commutators of the basis images on each representative block, up to the first
    # failing chunk; the images are exact 0/1 matrices, equal on the blocks of one orbit, and only
    # the transitions leaving the orbit act there: the rest are 0 and commute with everything
    orbit_of, abelian_alg = _orbit_table(g)[0][g.source], True
    for k, rows in enumerate(blocks):
        ids = np.flatnonzero(orbit_of == k)[:, None]
        images = _represent(g, rep, ids, np.ones(ids.shape), rows[0])
        ci, cj = np.triu_indices(len(images), 1)
        abelian_alg = abelian_alg and not any(
            _exceeds(images[ci[s]] @ images[cj[s]] - images[cj[s]] @ images[ci[s]], 1e-10).any()
            for s in _chunks(ci.size, images.shape[-1] ** 2)
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
