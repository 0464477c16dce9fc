"""States on the transition algebra and history-set measures.

A state assigns a complex amplitude to every transition; positivity is
the statement that the per-target Gram matrices of those amplitudes are
positive semidefinite.  States come from density matrices in a chosen
representation, from raw amplitude tables, or from multiplicative phase
assignments (characters).  Both positivity tests, of a density and of
the per-target Gram matrices, accept on one Cholesky certificate and
otherwise leave the verdict to ``eigvalsh``.

On top of a state sit the pairwise functional D over history sets, the
induced measure μ and the two- and three-set interference terms, all
summed from one Gram matrix G[u, v] = φ(u⁻¹∘v) over the union of the
sets.  Every μ, each union's included, is its own block sum; still,
μ(S) = 1_Sᵀ G 1_S is a quadratic form in the indicator of S, whatever the
state, so the three-set term vanishes identically: I3 rows read rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .algebra import LEFT_REGULAR, AlgebraElement, _exceeds, _rep_dim, _traces
from .groupoid import Groupoid, _chains

__all__ = [
    "StateFn",
    "state_from_density",
    "state_from_phi",
    "pure_state",
    "state_from_transition_phases",
    "classical_distribution",
    "decoherence_functional",
    "quantum_measure",
    "interference",
    "measure_rows",
    "is_factorizable",
    "amplitude",
]

STATE_TOL = 1e-10
# union indicator entries gathered at a time: μ of C(k, 3) triples would otherwise hold k³·|U| floats at once
UNION_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class StateFn:
    """A positive normalized functional on a groupoid's transition algebra.

    ``phi`` maps every transition id to its amplitude.  When the state
    came from a density matrix, that matrix and its representation tag
    ride along; ``vector`` is set for pure states.
    """

    groupoid: Groupoid
    phi: dict[int, complex]
    rep: str | None = None
    density: np.ndarray | None = field(default=None, repr=False)
    vector: np.ndarray | None = field(default=None, repr=False)

    def phi_of(self, transition_id: int) -> complex:
        return self.phi[transition_id]

    @cached_property
    def _amplitudes(self) -> np.ndarray:
        """``phi`` as an array indexed by transition id."""
        return np.array([self.phi[t] for t in range(self.groupoid.n_transitions)], dtype=complex)

    def __call__(self, a: AlgebraElement) -> complex:
        return sum(c * self.phi[i] for i, c in a.coeffs.items())


def _least_eigenvalues(h: np.ndarray, tol: float) -> np.ndarray:
    """λ_min of each Hermitian matrix in the stack ``h``, or +inf where a Cholesky certificate proves λ_min > −tol.

    The certificate factors A = H + (tol − δ)·I with δ = (d+1)·d·ε·(‖H‖_F + √d·tol) ≥ (d+1)·d·ε·‖A‖_F,
    for d×d matrices and the Frobenius norm ‖H‖_F of the whole stack.  A completed factorization gives
    R*R = A + E + ΔA, with ‖E‖ ≤ ε·‖A‖_F from storing A and |ΔA| ≤ √2·γ_{d+2}·|R*||R| (Higham, Accuracy
    and Stability of Numerical Algorithms, §3.6 and §10.1); ‖R‖_F² = tr(A + E + ΔA) ≤ √d·(‖A‖_F +
    ‖E + ΔA‖_F) then bounds ‖E + ΔA‖ below δ for d ≥ 2 (for d = 1 only the sign of the stored diagonal
    counts, exactly).  R*R is PSD, so λ_min(H) > −(tol − δ) − δ = −tol.  The shift gives singular PSD
    matrices, such as pure densities, a factor.  When the factorization fails, δ ≥ tol or a NaN is
    present, ``eigvalsh`` decides.
    """
    d = h.shape[-1]
    delta = (d + 1) * d * np.finfo(float).eps * (np.sqrt(np.vdot(h, h).real) + np.sqrt(d) * tol)
    if delta < tol:
        try:
            np.linalg.cholesky(h + (tol - delta) * np.eye(d))
            return np.full(h.shape[:-2], np.inf)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.eigvalsh(h)[..., 0]


def _validate_phi(g: Groupoid, phi: np.ndarray, tol: float = STATE_TOL) -> None:
    """Check an amplitude array indexed by transition id; a NaN fails every check it meets."""
    units = phi[[g.unit(x) for x in range(g.n_objects)]].tolist()
    for x, u in enumerate(units):
        if not (abs(u.imag) <= tol and u.real >= -tol):
            raise ValueError(f"unit amplitude at object {g.label(x)} is not a probability: {u:.3e}")
    total = sum(u.real for u in units)
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"unit amplitudes sum to {total!r}, not 1")
    asymmetric = np.flatnonzero(~(np.abs(phi[g.inverse_table] - np.conj(phi)) <= tol))
    if asymmetric.size:
        raise ValueError(f"amplitudes break conjugation symmetry at transition {asymmetric[0]}")
    # positivity: the Gram matrix phi(a^-1 ∘ b) over the transitions into each object is PSD;
    # objects with equally many incoming transitions share one stacked check
    incoming, starts, sizes = _chains(g.target, g.n_objects)
    failures = []
    for size in sorted(set(sizes.tolist()) - {0}):
        objects = np.flatnonzero(sizes == size)
        family = incoming[starts[objects, None] + np.arange(size)]
        composite = g.table[g.inverse_table[family][:, :, None], family[:, None, :]]
        missing = (composite < 0).any(axis=(1, 2))
        gram = phi[composite]
        gram = (gram + gram.conj().transpose(0, 2, 1)) / 2.0
        bad = np.flatnonzero(missing | ~(_least_eigenvalues(gram, tol) >= -tol))
        if bad.size:
            failures.append((int(objects[bad[0]]), bool(missing[bad[0]])))
    if failures:
        y, missing = min(failures)
        if missing:
            raise ValueError(f"composition table has no entry for a pair into object {g.label(y)}")
        raise ValueError(f"Gram matrix at object {g.label(y)} is not positive semidefinite")


def state_from_density(rho: np.ndarray, g: Groupoid, rep: str = LEFT_REGULAR, tol: float = STATE_TOL) -> StateFn:
    """Pull the amplitude table out of a density matrix: φ(t) = tr(ρ·R(t)), gathered by `algebra._traces`."""
    rho = np.asarray(rho, dtype=complex)
    dim = _rep_dim(g, rep)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho.shape} does not match representation dimension {dim}")
    if _exceeds(rho - rho.conj().T, tol):
        raise ValueError("density matrix is not self-adjoint")
    eigmin = float(_least_eigenvalues((rho + rho.conj().T) / 2.0, tol))
    if not eigmin >= -tol:
        raise ValueError(f"density matrix is not positive semidefinite (min eigenvalue {eigmin:.3e})")
    return _state(rho, g, rep, tol, None)


def pure_state(vec: np.ndarray, g: Groupoid, rep: str = LEFT_REGULAR, tol: float = STATE_TOL) -> StateFn:
    """The state of a unit vector: ``state_from_density`` of ρ = v v† without its two d × d checks.

    They cannot fail.  Each stored ρ_ij is v_i·v̄_j(1 + δ), |δ| ≤ √2·γ₂ (Higham, Accuracy and Stability
    of Numerical Algorithms, §3.6), so ρ = v v† + E with ‖E‖_F ≤ √2·γ₂·‖v‖².  Without fused multiply-adds
    fl(v_i·v̄_j) is exactly the conjugate of fl(v_j·v̄_i) and ρ is exactly Hermitian; either way
    ‖ρ − ρ†‖_F ≤ 2‖E‖_F and λ_min((ρ + ρ†)/2) ≥ −‖E‖_F, below 7e-16 once |‖v‖ − 1| ≤ ``tol``: far below
    ``tol``.  The representation, dimension, norm and trace checks stay, and so does φ's Gram check.
    """
    vec = np.asarray(vec, dtype=complex).ravel()
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= tol:
        raise ValueError(f"state vector has norm {norm!r}, not 1")
    dim = _rep_dim(g, rep)
    if vec.shape != (dim,):
        raise ValueError(f"state vector length {vec.size} does not match representation dimension {dim}")
    return _state(np.outer(vec, vec.conj()), g, rep, tol, vec)


def _state(rho: np.ndarray, g: Groupoid, rep: str, tol: float, vector: np.ndarray | None) -> StateFn:
    """Check the trace of a certified density ``rho`` and gather its amplitudes."""
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= tol:
        raise ValueError(f"density matrix has trace {tr!r}, not 1")
    phi = _traces(g, rep, rho)
    _validate_phi(g, phi, max(tol, 1e-9))
    return StateFn(g, dict(enumerate(phi.tolist())), rep, rho, vector)


def state_from_phi(phi: dict[int, complex], g: Groupoid, tol: float = STATE_TOL) -> StateFn:
    """Build a state from a raw amplitude table, checking positivity."""
    full = np.zeros(g.n_transitions, dtype=complex)
    for t, v in phi.items():
        t = int(t)
        if not 0 <= t < g.n_transitions:
            raise ValueError(f"transition id {t} does not belong to this groupoid")
        full[t] = complex(v)
    _validate_phi(g, full, tol)
    return StateFn(g, dict(enumerate(full.tolist())), None, None, None)


def state_from_transition_phases(g: Groupoid, phases: Sequence[complex], tol: float = 1e-12) -> StateFn:
    """Pure state built from a multiplicative phase assignment.

    ``phases`` must send composition to multiplication (a character on
    every isotropy group, coherently extended along connections).  The
    state vector weights every transition by the conjugated phase.
    """
    phases = np.asarray(phases, dtype=complex)
    if phases.shape != (g.n_transitions,):
        raise ValueError("need exactly one phase per transition")
    if not np.max(np.abs(np.abs(phases) - 1.0)) <= tol:
        raise ValueError("phases must be unimodular")
    a, b = np.nonzero(g.table >= 0)
    broken = np.flatnonzero(~(np.abs(phases[g.table[a, b]] - phases[a] * phases[b]) <= tol))
    if broken.size:
        raise ValueError(f"phases are not multiplicative on the pair ({a[broken[0]]}, {b[broken[0]]})")
    vec = np.conj(phases) / np.sqrt(g.n_transitions)
    return pure_state(vec, g, LEFT_REGULAR)


def classical_distribution(s: StateFn) -> np.ndarray:
    """Outcome probabilities: the unit amplitudes."""
    g = s.groupoid
    return np.array([s.phi[g.unit(x)].real for x in range(g.n_objects)])


def _check_history_set(g: Groupoid, a: Iterable[int]) -> np.ndarray:
    """A history set as a sorted array of distinct transition ids, range-checked."""
    ids = {int(t) for t in a}
    out = np.array(sorted(ids), dtype=np.intp)
    if out.size and (out[0] < 0 or out[-1] >= g.n_transitions):
        t = next(t for t in ids if not 0 <= t < g.n_transitions)
        raise ValueError(f"transition id {t} does not belong to this groupoid")
    return out


def _gram_sums(s: StateFn, sets: Sequence[np.ndarray]) -> tuple[np.ndarray, dict[tuple[int, ...], complex]]:
    """The Gram kernel: D over every pair of the checked ``sets``, and unguarded μ of every union of 1–3 disjoint ones.

    G[u, v] = φ(u⁻¹∘v) is gathered once over the union U of the sets, 0 where the pair does not compose.
    D(sets[i], sets[j]) sums G over sets[i] × sets[j]; the μ of a union, keyed by its set indices, sums G
    over its own whole block, never assembled from D or from its parts' numbers.
    """
    member = np.zeros((len(sets), s.groupoid.n_transitions))
    for k, ids in enumerate(sets):
        member[k, ids] = 1.0
    union = np.flatnonzero(member.any(axis=0))
    member = member[:, union]  # 0/1 indicator rows over U
    composite = s.groupoid.table[s.groupoid.inverse_table[union][:, None], union]
    gram = np.where(composite >= 0, s._amplitudes[composite], 0)
    # overlaps and union rows without a float matmul, whose BLAS code would add to peak RSS
    apart = (np.einsum("iu,ju->ij", member, member) == 0).tolist()
    unions = [x for r in (1, 2, 3) for x in itertools.combinations(range(len(sets)), r)
              if all(apart[i][j] for i, j in itertools.combinations(x, 2))]
    parts = np.array([x + (len(sets),) * (3 - len(x)) for x in unions], dtype=np.intp).reshape(-1, 3)
    padded = np.vstack([member, np.zeros((1, len(union)))])  # the last row pads short unions
    step = max(1, UNION_CHUNK_ENTRIES // (3 * len(union) + 1))
    mu = [np.zeros(0)]
    for i in range(0, len(parts), step):
        indicator = padded[parts[i:i + step]].sum(axis=1)
        mu.append(((indicator @ gram) * indicator).sum(axis=1))
    return member @ gram @ member.T, dict(zip(unions, np.concatenate(mu).tolist()))


def _real(mu: complex) -> float:
    if not abs(mu.imag) <= 1e-12 * max(1.0, abs(mu)):
        raise RuntimeError(f"measure came out non-real: imaginary part {mu.imag:.3e}")
    return mu.real


def _interference(mu: dict[tuple[int, ...], complex], parts: tuple[int, ...]) -> float:
    """Σ (−1)^(n−|x|) μ(x) over the non-empty x ⊆ ``parts``, the whole union first; each μ is guarded as it is read."""
    value = 0.0
    for r in range(len(parts), 0, -1):
        for x in itertools.combinations(parts, r):
            value += (-1) ** (len(parts) - r) * _real(mu[x])
    return value


def measure_rows(s: StateFn, sets: Sequence[Iterable[int]]) -> list[tuple[str, tuple[int, ...], complex]]:
    """Every row of ``measure`` as (quantity, operand indices, value), from one Gram matrix.

    The rows are μ of each set; for each pair, D and, when the pair is disjoint, I2; then I3 for each
    pairwise disjoint triple.  Errors come in row order: an out-of-range id at its set's μ row, a
    non-real μ at the first row that reads it.
    """
    checked: list[np.ndarray] = []
    try:
        for a in sets:
            checked.append(_check_history_set(s.groupoid, a))
    finally:  # the μ rows before an out-of-range set run first, and may fail first
        d, mu = _gram_sums(s, checked)
        rows = [("mu", (k,), complex(_real(mu[(k,)]))) for k in range(len(checked))]
    for pair in itertools.combinations(range(len(checked)), 2):
        rows.append(("D", pair, complex(d[pair])))
        if pair in mu:
            rows.append(("I2", pair, complex(_interference(mu, pair))))
    return rows + [("I3", x, complex(_interference(mu, x))) for x in mu if len(x) == 3]


def decoherence_functional(s: StateFn, a: Iterable[int], b: Iterable[int]) -> complex:
    """Pairwise overlap of two history sets.

    Sums the amplitude of "first history reversed, then second" over
    all pairs sharing a target; pairs with different targets do not
    interact.
    """
    g = s.groupoid
    return complex(_gram_sums(s, [_check_history_set(g, a), _check_history_set(g, b)])[0][0, 1])


def quantum_measure(s: StateFn, a: Iterable[int]) -> float:
    """Diagonal of the pairwise functional; real by conjugation symmetry."""
    return _real(_gram_sums(s, [_check_history_set(s.groupoid, a)])[1][(0,)])


def interference(s: StateFn, *sets: Iterable[int]) -> float:
    """Deviation of the measure from additivity on disjoint sets.

    Two sets give the pair interference μ(a∪b) − μ(a) − μ(b); three sets give the triple
    term.  Each μ is its own sum over its set's block of the Gram matrix G, but μ(S) =
    1_Sᵀ G 1_S is a quadratic form in the indicator of S for any G, so the triple term
    vanishes identically, up to rounding: it is not a measurement of the state.
    """
    g = s.groupoid
    families = [_check_history_set(g, a) for a in sets]
    if families and np.bincount(np.concatenate(families), minlength=1).max() > 1:
        raise ValueError("interference terms need pairwise disjoint history sets")
    if len(families) not in (2, 3):
        raise ValueError("interference is defined for two or three history sets")
    return _interference(_gram_sums(s, families)[1], tuple(range(len(families))))


def is_factorizable(s: StateFn, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether the amplitude table is multiplicative over composition."""
    g = s.groupoid
    phi = s._amplitudes
    a, b = np.nonzero(g.table >= 0)
    worst = float(np.max(np.abs(phi[g.table[a, b]] - phi[a] * phi[b]), initial=0.0))
    return worst <= tol, worst


def amplitude(s: StateFn, source: int, target: int) -> complex:
    """Total amplitude from one outcome to another: sum over direct histories."""
    g = s.groupoid
    return sum(s.phi[t] for t in g.transitions_between(source, target))
