"""Unitary dynamics in the outcome representation and bipartite structure.

Hamiltonians are self-adjoint algebra elements (or matrices certified
to lie in the represented algebra).  All dynamics goes through one
kernel: one eigendecomposition of the Hamiltonian, then one batched
propagation that yields every grid point at once, and one batched
Schmidt decomposition of a stack of states, in closed form when a side
has two outcomes and by one LAPACK SVD otherwise; `evolve`'s unitarity
residual is bounded from the eigenbasis.  Both theorem modes share one
trial runner that takes each chunk of trials through it as one stack;
a mixed start goes as its component vectors, and its off-block norm
comes from their per-block Gram matrices.  Unitarity, normalization and
energy conservation are tracked as residuals rather than assumed.

For a direct product whose first factor is totally disconnected, the
outcome space splits into blocks, one per first-factor outcome, and
every represented Hamiltonian is block diagonal.  Consequently product
states never entangle: pure ones keep Schmidt rank one and mixtures
keep all mass on the diagonal blocks.  When the first factor is
connected the same machinery produces entanglement generically, and
`entanglement_counterexample` measures how often.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .algebra import (
    FUNDAMENTAL,
    AlgebraElement,
    Operator,
    _exceeds,
    _rep_dim,
    _represent,
    _traces,
    involution,
    operator_norm,
    representation_matrix,
)
from .groupoid import Groupoid, _orbit_table, direct_product, is_totally_disconnected
from .states import StateFn

__all__ = [
    "BlockStructure",
    "block_structure",
    "Hamiltonian",
    "hamiltonian_from_element",
    "hamiltonian_from_matrix",
    "heisenberg",
    "EvolutionTrace",
    "evolve",
    "SchmidtDiagnostics",
    "schmidt_diagnostics",
    "TrialRecord",
    "TheoremReport",
    "separability_theorem_check",
    "entanglement_counterexample",
]

DEFAULT_GRID = (0.0, 10.0, 101)
# Largest trial chunk of the theorem checks, in entries of its stack of evolved
# vectors (trials, starts per trial, grid points, d), so that peak memory stays
# bounded whatever the number of trials.
TRIAL_CHUNK_ENTRIES = 1 << 16


# -- block structure of product outcome spaces ----------------------------


@dataclass(frozen=True)
class BlockStructure:
    """Partition of a product groupoid's outcome basis into dynamical blocks."""

    blocks: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def block_structure(product: Groupoid) -> BlockStructure:
    """Blocks of the outcome space of a recorded direct product.

    Product outcomes sharing a first-factor orbit form one block.  When
    the first factor is totally disconnected this is one block per
    first-factor outcome; a connected first factor collapses everything
    into a single block.  Every represented transition must stay inside
    its block; a violation would be an internal error, not bad input.
    """
    if product.factors is None:
        raise ValueError("block structure needs a groupoid built by direct_product")
    ga, gb = product.factors
    orbit_of, orbits = _orbit_table(ga)
    # product object x * nb + y lies in the block of first-factor object x
    block_of = orbit_of[np.arange(product.n_objects) // gb.n_objects]
    blocks = tuple(tuple(np.flatnonzero(block_of == k).tolist()) for k in range(len(orbits)))
    labels = tuple("+".join(ga.label(x) for x in orb.tolist()) for orb in orbits)
    escaped = np.flatnonzero(block_of[product.source] != block_of[product.target])
    if escaped.size:
        raise RuntimeError(f"transition {escaped[0]} escapes its block; product tables are corrupted")
    return BlockStructure(blocks, labels)


# -- Hamiltonians ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """A self-adjoint generator together with its algebra provenance."""

    matrix: np.ndarray
    rep: str
    groupoid: Groupoid
    element: AlgebraElement | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def hamiltonian_from_element(elem: AlgebraElement, g: Groupoid, rep: str = FUNDAMENTAL) -> Hamiltonian:
    if not involution(elem, g).isclose(elem, 1e-12):
        raise ValueError("Hamiltonian element must be self-adjoint under the involution")
    m = representation_matrix(elem, g, rep).matrix
    if _exceeds(m - m.conj().T, 1e-12):
        raise RuntimeError(f"represented Hamiltonian is not self-adjoint: residual {operator_norm(m - m.conj().T):.3e}")
    return Hamiltonian((m + m.conj().T) / 2.0, rep, g, elem)


def hamiltonian_from_matrix(
    m: np.ndarray,
    g: Groupoid,
    rep: str = FUNDAMENTAL,
    span_tol: float = 1e-8,
) -> Hamiltonian:
    """Accept a matrix only if it is self-adjoint and lies in the algebra.

    The coefficients c are the minimum-norm least-squares fit of the represented basis in closed form: two
    0/1 images R(t) are equal or disjoint, so c_t = ⟨R(t), m⟩_F / ⟨R(t), R(Σ_s s)⟩_F: `_traces` of mᵀ over
    the count of the transitions with t's endpoints (fundamental) or of the j that t can follow
    (left-regular).  A residual ‖R(c) − m‖_F beyond ``span_tol`` (relative to the matrix norm) rejects m.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("Hamiltonian matrix must be square")
    scale = max(1.0, float(np.linalg.norm(m)))
    if _exceeds(m - m.conj().T, 1e-10 * scale):
        raise ValueError("Hamiltonian matrix is not self-adjoint")
    d = _rep_dim(g, rep)
    if m.shape != (d, d):
        raise ValueError(f"Hamiltonian matrix shape {m.shape} does not match representation dimension {d}")
    key = g.target * g.n_objects + g.source
    overlap = np.bincount(key)[key] if rep == FUNDAMENTAL else np.bincount(g.target, minlength=g.n_objects)[g.source]
    coeffs = np.divide(_traces(g, rep, m.T), overlap, out=np.zeros(g.n_transitions, dtype=complex), where=overlap > 0)
    residual = float(np.linalg.norm(_represent(g, rep, np.arange(g.n_transitions)[None], coeffs[None])[0] - m))
    if not (residual <= span_tol * scale):
        raise ValueError(
            f"matrix is not in the represented transition algebra (residual {residual:.3e})"
        )
    elem = AlgebraElement({i: complex(c) for i, c in enumerate(coeffs) if abs(c) > 1e-14})
    return Hamiltonian((m + m.conj().T) / 2.0, rep, g, elem)


def _propagate(w: np.ndarray, v: np.ndarray, times: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Evolve ``start`` to every grid point under H = v diag(w) v^dagger.

    ``w`` and ``v`` may carry leading stack axes, one Hamiltonian per
    entry.  A vector start (``start.ndim == w.ndim``) gives a (..., T, d)
    stack of vectors, a density start a (..., T, d, d) stack of densities.
    The stack axes broadcast: ``w[:, None]`` and ``v[:, None]`` evolve an
    (n, S, d) stack of S vector starts per Hamiltonian to (n, S, T, d).
    """
    ph = np.exp(-1j * times[:, None] * w[..., None, :])
    vh = np.swapaxes(v.conj(), -1, -2)
    if start.ndim == w.ndim:
        return (ph * (vh @ start[..., None])[..., None, :, 0]) @ np.swapaxes(v, -1, -2)
    r = vh @ start @ v
    return v[..., None, :, :] @ (ph[..., :, None] * r[..., None, :, :] * ph.conj()[..., None, :]) @ vh[..., None, :, :]


def heisenberg(h: Hamiltonian, op: Operator | AlgebraElement, t: float) -> Operator:
    """Conjugate an observable by the time-t unitary."""
    if isinstance(op, AlgebraElement):
        op = representation_matrix(op, h.groupoid, h.rep)
    if op.rep != h.rep:
        raise ValueError("observable and Hamiltonian live in different representations")
    w, v = np.linalg.eigh(h.matrix)
    return Operator(h.rep, _propagate(w, v, np.array([-float(t)]), op.matrix)[0])


# -- Schmidt diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class SchmidtDiagnostics:
    """Singular structure of a bipartite pure state."""

    coefficients: np.ndarray
    rank: int
    entropy: float
    ratio: float

    @property
    def is_product(self) -> bool:
        return self.rank == 1


def _two_row_singular_values(rows: np.ndarray) -> np.ndarray:
    """Both singular values, largest first, of a (N, 2, k) stack whose largest entry has modulus 1 in each matrix.

    With a the longer row's norm, b the other row's component along it and c the norm of the rest of that
    row, each matrix has the singular values of the triangle [[a, 0], [|b|, c]], which LAPACK's DLAS2 gives
    as σ_max = ½(hypot(a + c, |b|) + hypot(a − c, |b|)) and σ_min = a·c/σ_max.  The rest of the row is formed
    as a vector, so σ_min keeps an absolute error near eps·σ_max; √(‖M‖_F² − σ_max²) or √eig(MMᴴ) would
    lose half the digits of a near-product state.
    """
    rows = np.ascontiguousarray(rows)
    flat = rows.view(float)  # einsum sums over the short last axes faster than np.sum
    norms2 = np.einsum("nri,nri->nr", flat, flat)
    swap = norms2[:, 1] > norms2[:, 0]
    first, other = rows[:, 0].copy(), rows[:, 1].copy()
    first[swap], other[swap] = rows[swap, 1], rows[swap, 0]
    a2 = np.where(swap, norms2[:, 1], norms2[:, 0])
    a = np.sqrt(a2)  # at least 1: the longer row holds the largest entry
    along = np.einsum("nk,nk->n", first.conj(), other) / a2  # b / a
    rest = (other - along[:, None] * first).view(float)
    c = np.sqrt(np.einsum("ni,ni->n", rest, rest))
    b = np.abs(along) * a
    top = 0.5 * (np.hypot(a + c, b) + np.hypot(a - c, b))
    return np.stack([top, a * c / top], axis=1)


def _schmidt(vecs: np.ndarray, dims: tuple[int, int], tol: float = 1e-9) -> tuple[np.ndarray, ...]:
    """Schmidt coefficients, ranks, entropies and ratios of a (..., da*db) stack, flattened to one axis.

    Each vector is reshaped to its (da, db) matrix.  When one side has two
    outcomes, every matrix is scaled by its largest entry and its two
    singular values come in closed form (`_two_row_singular_values`);
    otherwise one batched LAPACK SVD takes the stack, as no closed form of
    three or more singular values keeps that accuracy.  The rank counts
    coefficients above ``tol`` times the largest one; the ratio is the
    second coefficient over the first, 0 when there is only one.  The
    entropy's probabilities come from the coefficients divided by the power
    of two that brings the largest into [½, 1), so they do not depend on
    the vector's scale.
    A zero vector, or one with a NaN or infinite entry, is a ValueError.
    """
    da, db = dims
    if da < 1 or db < 1:
        raise ValueError(f"bipartition {dims} needs positive dimensions")
    if vecs.shape[-1] != da * db:
        raise ValueError(f"vector of length {vecs.shape[-1]} does not match bipartition {dims}")
    mats = vecs.reshape(-1, da, db)
    scale = np.abs(mats).max(axis=(1, 2))
    if not np.all(np.isfinite(scale)):
        raise ValueError("vector with non-finite entries (NaN or infinity) has no Schmidt structure")
    if not np.all(scale > 0.0):
        raise ValueError("zero vector has no Schmidt structure")
    if min(da, db) == 2:
        rows = mats if da == 2 else np.swapaxes(mats, 1, 2)
        sv = _two_row_singular_values(rows / scale[:, None, None]) * scale[:, None]
    else:
        sv = np.linalg.svd(mats, compute_uv=False)
    rank = np.sum(sv > tol * sv[:, :1], axis=1)
    unit = np.ldexp(sv, -np.frexp(sv[:, :1])[1])  # exact, so p is the same bits at every scale that keeps sv normal
    p = (unit / np.linalg.norm(unit, axis=1, keepdims=True)) ** 2
    keep = p > 1e-18
    entropy = -np.sum(np.where(keep, p * np.log(np.where(keep, p, 1.0)), 0.0), axis=1)
    entropy[entropy <= 0.0] = 0.0  # clamp -0.0 and negative rounding noise
    ratio = sv[:, 1] / sv[:, 0] if sv.shape[1] > 1 else np.zeros(len(sv))
    return sv, rank, entropy, ratio


def schmidt_diagnostics(vec: np.ndarray, dims: tuple[int, int], tol: float = 1e-9) -> SchmidtDiagnostics:
    """Schmidt coefficients, rank, entanglement entropy and second/first ratio.

    The vector is reshaped row-major to dims (first factor major), so it
    matches the outcome ordering of `direct_product`.
    """
    vec = np.asarray(vec, dtype=complex).ravel()
    sv, rank, entropy, ratio = _schmidt(vec[None], dims, tol)
    return SchmidtDiagnostics(sv[0], int(rank[0]), float(entropy[0]), float(ratio[0]))


# -- evolution -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Time series of an evolved state with conservation residuals."""

    times: np.ndarray
    rep: str
    vectors: np.ndarray | None
    densities: np.ndarray | None
    norm_residuals: np.ndarray
    unitarity_residuals: np.ndarray
    energy_residuals: np.ndarray
    schmidt: tuple[SchmidtDiagnostics, ...] | None


def parse_grid(start: float, stop: float, steps: int) -> np.ndarray:
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ValueError(f"time grid {start}:{stop}:{steps} needs a finite start and stop")
    if steps < 1:
        raise ValueError("time grid needs at least one point")
    return np.linspace(float(start), float(stop), int(steps))


def evolve(
    h: Hamiltonian,
    state: StateFn,
    times: np.ndarray | None = None,
    bipartition: tuple[int, int] | None = None,
    tol: float = 1e-10,
) -> EvolutionTrace:
    """Evolve a state along a time grid with one eigendecomposition.

    One ``eigh`` of the Hamiltonian gives the whole grid in one batched
    propagation: a stack of vectors for a pure state, a stack of
    densities otherwise.  Unitarity of every step and conservation of
    norm (or trace) are recorded; drifts beyond ``tol`` raise, since
    they can only come from a numerical breakdown.

    The unitarity residual, (2 + r)·r with r = ‖V†V − 1‖_F for the
    eigenbasis V, bounds ‖U(t)U(t)† − 1‖_F at every grid point: with
    V†V = 1 + E and Φ = exp(−itΛ) unitary (Λ is real), U U† − 1 =
    (V V† − 1) + V Φ E Φ† V†, where V V† − 1 has the eigenvalues of
    V†V − 1 (V is square) and ‖V Φ E Φ† V†‖_F ≤ ‖V‖₂²·r ≤ (1 + r)·r.
    """
    if times is None:
        times = parse_grid(*DEFAULT_GRID)
    times = np.asarray(times, dtype=float)
    if state.rep != h.rep:
        raise ValueError("state and Hamiltonian live in different representations")
    dim = h.dim
    w, v = np.linalg.eigh(h.matrix)
    r = float(np.linalg.norm(v.conj().T @ v - np.eye(dim)))
    unitarity = np.full(times.shape, (2.0 + r) * r)
    if not unitarity.max() <= tol:  # NaN fails too
        raise RuntimeError(f"evolution lost unitarity: residual {unitarity.max():.3e}")

    vectors = densities = schmidt = None
    if bipartition is not None and state.vector is None:
        raise ValueError("Schmidt diagnostics need a pure state given by a vector")
    if state.vector is not None:
        psi0 = np.asarray(state.vector, dtype=complex).ravel()
        if psi0.size != dim:
            raise ValueError("state dimension does not match the Hamiltonian")
        e0 = float(np.real(np.vdot(psi0, h.matrix @ psi0)))
        vectors = _propagate(w, v, times, psi0)
        norm_res = np.abs(np.linalg.norm(vectors, axis=1) - 1.0)
        energy_res = np.abs(np.sum(vectors.conj() * (vectors @ h.matrix.T), axis=1).real - e0)
        if bipartition is not None:
            sv, rank, entropy, ratio = _schmidt(vectors, bipartition)
            schmidt = tuple(map(SchmidtDiagnostics, sv, rank.tolist(), entropy.tolist(), ratio.tolist()))
    else:
        if state.density is None:
            raise ValueError("state carries neither a vector nor a density matrix")
        rho0 = np.asarray(state.density, dtype=complex)
        if rho0.shape != (dim, dim):
            raise ValueError("state dimension does not match the Hamiltonian")
        e0 = float(np.real(np.trace(rho0 @ h.matrix)))
        densities = _propagate(w, v, times, rho0)
        norm_res = np.abs(np.trace(densities, axis1=1, axis2=2).real - 1.0)
        energy_res = np.abs(np.einsum("tij,ji->t", densities, h.matrix).real - e0)
    if not norm_res.max() <= tol:
        raise RuntimeError(f"evolution lost normalization: residual {norm_res.max():.3e}")
    return EvolutionTrace(
        times=times,
        rep=h.rep,
        vectors=vectors,
        densities=densities,
        norm_residuals=norm_res,
        unitarity_residuals=unitarity,
        energy_residuals=energy_res,
        schmidt=schmidt,
    )


# -- theorem-scale checks --------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    index: int
    max_ratio: float | None = None
    max_offblock: float | None = None
    max_entropy: float | None = None
    onset_time: float | None = None
    ok: bool = True

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}  # asdict's deep copies cost 5x as much


@dataclass(frozen=True)
class TheoremReport:
    """Aggregated trial outcomes for the separability or entanglement mode."""

    mode: str
    factor_a: str
    factor_b: str
    n_trials: int
    seed: int
    grid: tuple[float, float, int]
    ratio_tol: float
    offblock_tol: float
    entropy_threshold: float
    min_fraction: float
    trials: tuple[TrialRecord, ...]
    objects_a: int  # d_A, the first factor's object count

    @property
    def worst_ratio(self) -> float:
        return max((t.max_ratio for t in self.trials if t.max_ratio is not None), default=0.0)

    @property
    def worst_offblock(self) -> float:
        return max((t.max_offblock for t in self.trials if t.max_offblock is not None), default=0.0)

    @property
    def max_entropy(self) -> float:
        return max((t.max_entropy for t in self.trials if t.max_entropy is not None), default=0.0)

    @property
    def fraction_entangled(self) -> float:
        if not self.trials:
            return 0.0
        hits = sum(1 for t in self.trials if (t.max_entropy or 0.0) > self.entropy_threshold)
        return hits / len(self.trials)

    @property
    def vacuous_reason(self) -> str | None:
        """Why the report can show nothing, or None."""
        if not self.trials:  # `passed` then holds for want of evidence
            return "no trial ran"
        if self.objects_a == 1:
            return "the first factor has one object, so every state of the product is a product state"
        return None

    @property
    def vacuous(self) -> bool:
        return self.vacuous_reason is not None

    @property
    def passed(self) -> bool:
        if not self.trials:
            return True
        if self.mode == "separability":
            return all(t.ok for t in self.trials)
        return self.fraction_entangled >= self.min_fraction

    def to_dict(self) -> dict:
        """Every field but ``objects_a`` and every property, the grid as {start, stop, steps}."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "objects_a"}
        out.update((k, getattr(self, k)) for k, v in vars(TheoremReport).items() if isinstance(v, property))
        out.update(grid=dict(zip(("start", "stop", "steps"), self.grid)), trials=[t.to_dict() for t in self.trials])
        return out


def _describe(g: Groupoid) -> str:
    return f"{g.n_objects} objects, {g.n_transitions} transitions"


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return vec / np.linalg.norm(vec)


def _chunks(n_trials: int, jobs: int, trial_entries: int) -> list[np.ndarray]:
    """Trial indices in ``jobs`` contiguous chunks, more to keep each within ``TRIAL_CHUNK_ENTRIES``; none empty.

    A ``jobs`` above the trial count costs nothing: ``array_split`` is asked for at most one section per trial.
    """
    if n_trials < 0 or jobs < 1:
        flag, need, got = ("trials", "non-negative", n_trials) if n_trials < 0 else ("jobs", "at least 1", jobs)
        raise ValueError(f"the number of {flag} (--{flag}) must be {need}, got {got}")
    jobs = max(jobs, -(-n_trials // max(1, TRIAL_CHUNK_ENTRIES // trial_entries)))
    return [c for c in np.array_split(np.arange(n_trials), min(jobs, max(n_trials, 1))) if c.size]


def _draw_trials(
    seed: int, indices: np.ndarray, product: Groupoid, da: int, db: int, mixture: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Stacked Hamiltonians, pure starts and (with ``mixture``) the mixed starts' components of trials ``indices``.

    Trial i draws from ``default_rng([seed, i])``: the real and imaginary
    parts of a coefficient c_t on every product transition t; a first-factor
    outcome and a unit vector on its block; with ``mixture``, the block
    weights w_x and one unit vector u_x per block.  Its Hamiltonian
    (R(c) + R(c)ᴴ)/2 is the image of ½(c + c*), as the fundamental
    representation is a *-representation; a full support makes it generic.
    The mixed start Σ_x w_x (e_x ⊗ u_x)(e_x ⊗ u_x)ᴴ is returned as its
    (n, da, d) stack of components √w_x·(e_x ⊗ u_x).
    """
    n_tr, d = product.n_transitions, da * db
    coeffs = np.zeros((len(indices), n_tr), dtype=complex)
    psi0 = np.zeros((len(indices), d), dtype=complex)
    mix = np.zeros((len(indices), da, d), dtype=complex) if mixture else None
    for row, i in enumerate(indices.tolist()):
        rng = np.random.default_rng([seed, i])
        coeffs[row] = rng.standard_normal(n_tr) + 1j * rng.standard_normal(n_tr)
        xa = int(rng.integers(da))
        psi0[row, xa * db:(xa + 1) * db] = _random_unit(rng, db)
        if mixture:
            weights = rng.random(da) + 0.1
            for x, wx in enumerate(np.sqrt(weights / weights.sum())):
                mix[row, x, x * db:(x + 1) * db] = wx * _random_unit(rng, db)
    m = _represent(product, FUNDAMENTAL, np.broadcast_to(np.arange(n_tr), coeffs.shape), coeffs)
    return (m + m.conj().transpose(0, 2, 1)) / 2.0, psi0, mix


def _offblock_squares(comps: np.ndarray, da: int, db: int) -> np.ndarray:
    """‖ρ_off‖_F² of ρ = Σ_x φ_x φ_xᴴ for each (da, d) stack of components φ_x, over the leading axes.

    With A_c = Φ_cᴴΦ_c the Gram of the components' block-c parts, ‖ρ_off‖_F² =
    Σ_{b≠c} tr(A_b A_c), summed as 2·Re tr(P A_c) with the running prefix
    P = Σ_{b<c} A_b: every term is as small as the off-block mass, where
    tr(S²) − Σ tr(A_b²) would subtract O(1) terms.  Only one block's
    Grams are held at a time.
    """
    grams = (np.einsum("...xi,...yi->...xy", part.conj(), part) for part in np.split(comps, da, axis=-1))
    prefix = next(grams)
    total = np.zeros(prefix.shape[:-2])
    for gram in grams:
        total += np.einsum("...xy,...xy->...", prefix.conj(), gram).real  # tr(P A_c), as both are Hermitian
        prefix = prefix + gram
    return 2.0 * total


def _theorem(
    mode: str, ga: Groupoid, gb: Groupoid, trials: int, grid: tuple[float, float, int], seed: int, jobs: int,
    **tols: float,
) -> TheoremReport:
    """The trials of either mode; only the per-trial record depends on ``mode``.

    ``tols`` are the report's ratio_tol, offblock_tol, entropy_threshold and
    min_fraction.  A chunk's Hamiltonians are diagonalized as one stack, and
    its starts, the pure one and in the separability mode the mixture's
    d_A components, are evolved by one `_propagate` call; the pure starts
    are Schmidt-decomposed as one stack, and the mixtures' off-block norms
    come from the components' per-block Grams (`_offblock_squares`).
    """
    separability = mode == "separability"
    product = direct_product(ga, gb)
    da, db = ga.n_objects, gb.n_objects
    times = parse_grid(*grid)
    records = []
    # every trial evolves 1 + d_A starts in the separability mode, 1 otherwise
    for chunk in _chunks(trials, jobs, (1 + da if separability else 1) * times.size * da * db):
        h, psi0, mix = _draw_trials(seed, chunk, product, da, db, mixture=separability)
        w, v = np.linalg.eigh(h)
        starts = psi0[:, None] if mix is None else np.concatenate([psi0[:, None], mix], axis=1)
        states = _propagate(w[:, None], v[:, None], times, starts)  # (n, starts, T, d)
        _, _, entropy, ratio = _schmidt(states[:, 0], (da, db))
        entropy, ratio = entropy.reshape(len(chunk), -1), ratio.reshape(len(chunk), -1)
        if separability:
            squares = _offblock_squares(np.swapaxes(states[:, 1:], 1, 2), da, db).max(axis=1)
            offblock = np.sqrt(np.maximum(squares, 0.0))  # a sum of PSD traces: only rounding leaves it below 0
        for row, i in enumerate(chunk.tolist()):
            if separability:
                max_ratio, max_off = float(ratio[row].max()), float(offblock[row])
                ok = max_ratio <= tols["ratio_tol"] and max_off <= tols["offblock_tol"]
                records.append(TrialRecord(i, max_ratio=max_ratio, max_offblock=max_off, ok=ok))
            else:
                max_entropy = float(entropy[row].max())
                above = np.flatnonzero(entropy[row] > tols["entropy_threshold"])
                onset = float(times[above[0]]) if above.size else None
                ok = max_entropy > tols["entropy_threshold"]
                records.append(TrialRecord(i, max_entropy=max_entropy, onset_time=onset, ok=ok))
    return TheoremReport(
        mode=mode,
        factor_a=_describe(ga),
        factor_b=_describe(gb),
        n_trials=trials,
        seed=seed,
        grid=(float(grid[0]), float(grid[1]), int(grid[2])),
        trials=tuple(records),
        objects_a=da,
        **tols,
    )


def separability_theorem_check(
    ga: Groupoid,
    gb: Groupoid,
    trials: int = 50,
    grid: tuple[float, float, int] = DEFAULT_GRID,
    seed: int = 42,
    jobs: int = 1,
    ratio_tol: float = 1e-9,
    offblock_tol: float = 1e-10,
) -> TheoremReport:
    """Verify that product states over a disconnected first factor stay separable.

    Each trial draws a random self-adjoint algebra element of the product,
    with a coefficient on every transition, as Hamiltonian, then evolves one
    pure product state and one block-diagonal mixture over the grid.  The
    pure state must keep Schmidt ratio at rank one and the mixture must keep
    all mass on the diagonal blocks.  The mixture goes as its d_A component
    vectors, evolved with the pure start, so a trial propagates 1 + d_A
    vectors.  ``jobs`` trial chunks, or more to keep each within
    ``TRIAL_CHUNK_ENTRIES`` counting every propagated vector, are evaluated
    one stack at a time: more chunks lower peak memory and leave the report
    unchanged.  With two first-factor outcomes, Schrödinger's cat, the
    Schmidt ratios come in closed form.
    """
    if not is_totally_disconnected(ga):
        raise ValueError(
            "the separability statement needs a totally disconnected first factor; "
            "use entanglement_counterexample for connected ones"
        )
    return _theorem(
        "separability", ga, gb, trials, grid, seed, jobs,
        ratio_tol=ratio_tol, offblock_tol=offblock_tol, entropy_threshold=0.0, min_fraction=0.0,
    )


def entanglement_counterexample(
    ga: Groupoid,
    gb: Groupoid,
    trials: int = 50,
    grid: tuple[float, float, int] = DEFAULT_GRID,
    seed: int = 42,
    jobs: int = 1,
    entropy_threshold: float = 0.1,
    min_fraction: float = 0.9,
) -> TheoremReport:
    """Show that a connected first factor generically entangles product states.

    Same draws as the separability check but for the mixture, so a generic
    Hamiltonian; the tracked quantity is the entanglement entropy over the
    grid and the time at which it first crosses the threshold.
    """
    return _theorem(
        "entanglement", ga, gb, trials, grid, seed, jobs,
        ratio_tol=0.0, offblock_tol=0.0, entropy_threshold=entropy_threshold, min_fraction=min_fraction,
    )
