"""Unitary dynamics in the outcome representation and bipartite structure.

Hamiltonians are self-adjoint algebra elements (or matrices certified
to lie in the represented algebra).  All dynamics goes through one
kernel: one eigendecomposition of the Hamiltonian, then one batched
propagation that yields every grid point at once, and one batched SVD
for the Schmidt data of a stack of states.  Unitarity, normalization
and energy conservation are tracked as residuals rather than assumed.

For a direct product whose first factor is totally disconnected, the
outcome space splits into blocks, one per first-factor outcome, and
every represented Hamiltonian is block diagonal.  Consequently product
states never entangle: pure ones keep Schmidt rank one and mixtures
keep all mass on the diagonal blocks.  When the first factor is
connected the same machinery produces entanglement generically, and
`entanglement_counterexample` measures how often.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebra import (
    FUNDAMENTAL,
    AlgebraElement,
    Operator,
    algebra_basis,
    involution,
    operator_norm,
    representation_matrix,
)
from .groupoid import Groupoid, direct_product, is_totally_disconnected, orbit_decomposition
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
    orbits = orbit_decomposition(ga).orbits
    orbit_of = np.empty(ga.n_objects, dtype=np.intp)
    for k, orb in enumerate(orbits):
        orbit_of[list(orb)] = k
    # product object x * nb + y lies in the block of first-factor object x
    block_of = orbit_of[np.arange(product.n_objects) // gb.n_objects]
    blocks = tuple(tuple(np.flatnonzero(block_of == k).tolist()) for k in range(len(orbits)))
    labels = tuple("+".join(ga.label(x) for x in orb) for orb in orbits)
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
    residual = operator_norm(m - m.conj().T)
    if residual > 1e-12:
        raise RuntimeError(f"represented Hamiltonian is not self-adjoint: residual {residual:.3e}")
    return Hamiltonian((m + m.conj().T) / 2.0, rep, g, elem)


def hamiltonian_from_matrix(
    m: np.ndarray,
    g: Groupoid,
    rep: str = FUNDAMENTAL,
    span_tol: float = 1e-8,
) -> Hamiltonian:
    """Accept a matrix only if it is self-adjoint and lies in the algebra.

    The membership test solves least squares against the represented
    basis; a residual beyond ``span_tol`` (relative to the matrix norm)
    means the matrix is not a represented algebra element.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("Hamiltonian matrix must be square")
    scale = max(1.0, float(np.linalg.norm(m)))
    if operator_norm(m - m.conj().T) > 1e-10 * scale:
        raise ValueError("Hamiltonian matrix is not self-adjoint")
    images = [op.matrix.ravel() for op in algebra_basis(g, rep)]
    stack = np.stack(images, axis=1)
    coeffs, _, _, _ = np.linalg.lstsq(stack, m.ravel(), rcond=None)
    residual = float(np.linalg.norm(stack @ coeffs - m.ravel()))
    if residual > span_tol * scale:
        raise ValueError(
            f"matrix is not in the represented transition algebra (residual {residual:.3e})"
        )
    elem = AlgebraElement({i: complex(c) for i, c in enumerate(coeffs) if abs(c) > 1e-14})
    return Hamiltonian((m + m.conj().T) / 2.0, rep, g, elem)


def _propagate(w: np.ndarray, v: np.ndarray, times: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Evolve ``start`` to every grid point under H = v diag(w) v^dagger.

    A vector start gives a (T, d) stack of vectors, a density start a
    (T, d, d) stack of densities.
    """
    ph = np.exp(-1j * np.multiply.outer(times, w))
    if start.ndim == 1:
        return (ph * (v.conj().T @ start)) @ v.T
    r = v.conj().T @ start @ v
    return v @ (ph[:, :, None] * r * ph.conj()[:, None, :]) @ v.conj().T


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


def _schmidt(vecs: np.ndarray, dims: tuple[int, int], tol: float = 1e-9) -> tuple[np.ndarray, ...]:
    """Schmidt coefficients, ranks, entropies and ratios of a (T, da*db) stack.

    One batched SVD over the (T, da, db) reshapes.  The rank counts
    coefficients above ``tol`` times the largest one; the ratio is the
    second coefficient over the first, 0 when there is only one.
    """
    da, db = dims
    if vecs.shape[-1] != da * db:
        raise ValueError(f"vector of length {vecs.shape[-1]} does not match bipartition {dims}")
    sv = np.linalg.svd(vecs.reshape(-1, da, db), compute_uv=False)
    if not np.all(sv[:, 0] > 0.0):
        raise ValueError("zero vector has no Schmidt structure")
    rank = np.sum(sv > tol * sv[:, :1], axis=1)
    p = (sv / np.linalg.norm(sv, axis=1, keepdims=True)) ** 2
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
    """
    if times is None:
        times = parse_grid(*DEFAULT_GRID)
    times = np.asarray(times, dtype=float)
    if state.rep != h.rep:
        raise ValueError("state and Hamiltonian live in different representations")
    dim = h.dim
    w, v = np.linalg.eigh(h.matrix)
    u = (v * np.exp(1j * np.multiply.outer(times, w))[:, None, :]) @ v.conj().T
    unitarity = np.linalg.norm(u @ u.conj().transpose(0, 2, 1) - np.eye(dim), axis=(1, 2))
    if unitarity.max() > tol:
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
    if norm_res.max() > tol:
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
    support_size: int
    max_ratio: float | None = None
    max_offblock: float | None = None
    max_entropy: float | None = None
    onset_time: float | None = None
    ok: bool = True

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "support_size": self.support_size,
            "max_ratio": self.max_ratio,
            "max_offblock": self.max_offblock,
            "max_entropy": self.max_entropy,
            "onset_time": self.onset_time,
            "ok": self.ok,
        }


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
    def vacuous(self) -> bool:  # no trial ran, so `passed` holds for want of evidence
        return not self.trials

    @property
    def passed(self) -> bool:
        if self.vacuous:
            return True
        if self.mode == "separability":
            return all(t.ok for t in self.trials)
        return self.fraction_entangled >= self.min_fraction

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "factor_a": self.factor_a,
            "factor_b": self.factor_b,
            "n_trials": self.n_trials,
            "seed": self.seed,
            "grid": {"start": self.grid[0], "stop": self.grid[1], "steps": self.grid[2]},
            "ratio_tol": self.ratio_tol,
            "offblock_tol": self.offblock_tol,
            "entropy_threshold": self.entropy_threshold,
            "min_fraction": self.min_fraction,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "worst_ratio": self.worst_ratio,
            "worst_offblock": self.worst_offblock,
            "max_entropy": self.max_entropy,
            "fraction_entangled": self.fraction_entangled,
            "trials": [t.to_dict() for t in self.trials],
        }


def _describe(g: Groupoid) -> str:
    return f"{g.n_objects} objects, {g.n_transitions} transitions"


def _sample_hamiltonian(rng: np.random.Generator, g: Groupoid, rep: str) -> tuple[np.ndarray, int]:
    n = g.n_transitions
    k = int(rng.integers(1, n + 1))
    ids = np.sort(rng.choice(n, size=k, replace=False))
    re = rng.standard_normal(k)
    im = rng.standard_normal(k)
    elem = AlgebraElement({int(i): complex(re[j], im[j]) for j, i in enumerate(ids)})
    sym = 0.5 * (elem + involution(elem, g))
    m = representation_matrix(sym, g, rep).matrix
    return (m + m.conj().T) / 2.0, k


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return vec / np.linalg.norm(vec)


def _run_trials(n_trials: int, jobs: int, worker) -> list[TrialRecord]:
    if n_trials < 0 or jobs < 1:
        flag, need, got = ("trials", "non-negative", n_trials) if n_trials < 0 else ("jobs", "at least 1", jobs)
        raise ValueError(f"the number of {flag} (--{flag}) must be {need}, got {got}")
    if jobs == 1:
        return [worker(i) for i in range(n_trials)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, range(n_trials)))


def _trial_start(seed: int, i: int, product: Groupoid, da: int, db: int) -> tuple:
    """Trial ``i``'s first draws, in the order both theorem modes share:
    a Hamiltonian, then a first-factor outcome and a unit vector on its block."""
    rng = np.random.default_rng([seed, i])
    h, support = _sample_hamiltonian(rng, product, FUNDAMENTAL)
    w, v = np.linalg.eigh(h)
    xa = int(rng.integers(da))
    psi0 = np.zeros(da * db, dtype=complex)
    psi0[xa * db:(xa + 1) * db] = _random_unit(rng, db)
    return rng, support, w, v, psi0


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

    Each trial draws a random self-adjoint algebra element of the
    product as Hamiltonian, then evolves one pure product state and one
    block-diagonal mixture over the grid.  The pure state must keep
    Schmidt ratio at rank one and the mixture must keep all mass on the
    diagonal blocks.
    """
    if not is_totally_disconnected(ga):
        raise ValueError(
            "the separability statement needs a totally disconnected first factor; "
            "use entanglement_counterexample for connected ones"
        )
    product = direct_product(ga, gb)
    da, db = ga.n_objects, gb.n_objects
    times = parse_grid(*grid)
    block_slices = [slice(x * db, (x + 1) * db) for x in range(da)]
    offdiag_mask = np.ones((da * db, da * db), dtype=bool)
    for s in block_slices:
        offdiag_mask[s, s] = False

    def worker(i: int) -> TrialRecord:
        rng, support, w, v, psi0 = _trial_start(seed, i, product, da, db)
        max_ratio = float(_schmidt(_propagate(w, v, times, psi0), (da, db))[3].max(initial=0.0))

        weights = rng.random(da) + 0.1
        weights /= weights.sum()
        rho0 = np.zeros((da * db, da * db), dtype=complex)
        for x in range(da):
            vec = np.zeros(da * db, dtype=complex)
            vec[block_slices[x]] = _random_unit(rng, db)
            rho0 += weights[x] * np.outer(vec, vec.conj())
        rhos = _propagate(w, v, times, rho0)
        max_off = float(np.linalg.norm(rhos[:, offdiag_mask], axis=1).max(initial=0.0))

        ok = max_ratio <= ratio_tol and max_off <= offblock_tol
        return TrialRecord(i, support_size=support, max_ratio=max_ratio, max_offblock=max_off, ok=ok)

    records = _run_trials(trials, jobs, worker)
    return TheoremReport(
        mode="separability",
        factor_a=_describe(ga),
        factor_b=_describe(gb),
        n_trials=trials,
        seed=seed,
        grid=(float(grid[0]), float(grid[1]), int(grid[2])),
        ratio_tol=ratio_tol,
        offblock_tol=offblock_tol,
        entropy_threshold=0.0,
        min_fraction=0.0,
        trials=tuple(records),
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

    Same sampling as the separability check, but the tracked quantity is
    the entanglement entropy over the grid and the time at which it
    first crosses the threshold.
    """
    product = direct_product(ga, gb)
    da, db = ga.n_objects, gb.n_objects
    times = parse_grid(*grid)

    def worker(i: int) -> TrialRecord:
        _, support, w, v, psi0 = _trial_start(seed, i, product, da, db)
        entropy = _schmidt(_propagate(w, v, times, psi0), (da, db))[2]
        max_entropy = float(entropy.max(initial=0.0))
        above = np.flatnonzero(entropy > entropy_threshold)
        return TrialRecord(
            i,
            support_size=support,
            max_entropy=max_entropy,
            onset_time=float(times[above[0]]) if above.size else None,
            ok=max_entropy > entropy_threshold,
        )

    records = _run_trials(trials, jobs, worker)
    return TheoremReport(
        mode="entanglement",
        factor_a=_describe(ga),
        factor_b=_describe(gb),
        n_trials=trials,
        seed=seed,
        grid=(float(grid[0]), float(grid[1]), int(grid[2])),
        ratio_tol=0.0,
        offblock_tol=0.0,
        entropy_threshold=entropy_threshold,
        min_fraction=min_fraction,
        trials=tuple(records),
    )
