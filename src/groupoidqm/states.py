"""States on the transition algebra and history-set measures.

A state assigns a complex amplitude to every transition; positivity is
the statement that the per-target Gram matrices of those amplitudes are
positive semidefinite.  States come from density matrices in a chosen
representation, from raw amplitude tables, or from multiplicative phase
assignments (characters).

On top of a state sit the pairwise functional over history sets, the
induced measure, and the two- and three-set interference terms.  The
three-set term vanishes identically; that is the pairwise nature of the
whole construction and is pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .algebra import FUNDAMENTAL, LEFT_REGULAR, AlgebraElement, _exceeds
from .groupoid import Groupoid

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
    "is_factorizable",
    "amplitude",
]

STATE_TOL = 1e-10


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
    # objects with equally many incoming transitions share one stacked eigvalsh
    incoming = np.argsort(g.target, kind="stable")
    sizes = np.bincount(g.target, minlength=g.n_objects)
    starts = np.cumsum(sizes) - sizes
    failures = []
    for size in sorted(set(sizes.tolist()) - {0}):
        objects = np.flatnonzero(sizes == size)
        family = incoming[starts[objects, None] + np.arange(size)]
        composite = g.table[g.inverse_table[family][:, :, None], family[:, None, :]]
        missing = (composite < 0).any(axis=(1, 2))
        gram = phi[composite]
        gram = (gram + gram.conj().transpose(0, 2, 1)) / 2.0
        bad = np.flatnonzero(missing | ~(np.linalg.eigvalsh(gram)[:, 0] >= -tol))
        if bad.size:
            failures.append((int(objects[bad[0]]), bool(missing[bad[0]])))
    if failures:
        y, missing = min(failures)
        if missing:
            raise ValueError(f"composition table has no entry for a pair into object {g.label(y)}")
        raise ValueError(f"Gram matrix at object {g.label(y)} is not positive semidefinite")


def state_from_density(
    rho: np.ndarray,
    g: Groupoid,
    rep: str = LEFT_REGULAR,
    tol: float = STATE_TOL,
    vector: np.ndarray | None = None,
) -> StateFn:
    """Pull the amplitude table out of a density matrix.

    The amplitude of a transition is the trace of the density matrix
    against the transition's representing matrix, gathered from the
    tables: phi(t) = sum_j rho[j, t∘j] over the j that t can follow in
    the left-regular representation, and phi(t) = rho[s(t), t(t)] in
    the fundamental one.
    """
    rho = np.asarray(rho, dtype=complex)
    if rep not in (LEFT_REGULAR, FUNDAMENTAL):
        raise ValueError(f"unknown representation: {rep!r}")
    dim = g.n_transitions if rep == LEFT_REGULAR else g.n_objects
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix shape {rho.shape} does not match representation dimension {dim}")
    if _exceeds(rho - rho.conj().T, tol):
        raise ValueError("density matrix is not self-adjoint")
    eigmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)[0])
    if not eigmin >= -tol:
        raise ValueError(f"density matrix is not positive semidefinite (min eigenvalue {eigmin:.3e})")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= tol:
        raise ValueError(f"density matrix has trace {tr!r}, not 1")
    if rep == LEFT_REGULAR:
        phi = np.where(g.table >= 0, rho[np.arange(dim), g.table], 0).sum(axis=1)
    else:
        phi = rho[g.source, g.target]
    _validate_phi(g, phi, max(tol, 1e-9))
    return StateFn(g, dict(enumerate(phi.tolist())), rep, rho, vector)


def pure_state(vec: np.ndarray, g: Groupoid, rep: str = LEFT_REGULAR, tol: float = STATE_TOL) -> StateFn:
    vec = np.asarray(vec, dtype=complex).ravel()
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= tol:
        raise ValueError(f"state vector has norm {norm!r}, not 1")
    rho = np.outer(vec, vec.conj())
    return state_from_density(rho, g, rep, tol, vector=vec)


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


def _functional(s: StateFn, sa: np.ndarray, sb: np.ndarray) -> complex:
    """D over two checked history sets: one gather of phi(a^-1 ∘ b) over all pairs."""
    g = s.groupoid
    composite = g.table[g.inverse_table[sa][:, None], sb[None, :]]
    return complex(s._amplitudes[composite[composite >= 0]].sum())


def _measure(s: StateFn, sa: np.ndarray) -> float:
    d = _functional(s, sa, sa)
    if not abs(d.imag) <= 1e-12 * max(1.0, abs(d)):
        raise RuntimeError(f"measure came out non-real: imaginary part {d.imag:.3e}")
    return float(d.real)


def decoherence_functional(s: StateFn, a: Iterable[int], b: Iterable[int]) -> complex:
    """Pairwise overlap of two history sets.

    Sums the amplitude of "first history reversed, then second" over
    all pairs sharing a target; pairs with different targets do not
    interact.
    """
    g = s.groupoid
    return _functional(s, _check_history_set(g, a), _check_history_set(g, b))


def quantum_measure(s: StateFn, a: Iterable[int]) -> float:
    """Diagonal of the pairwise functional; real by conjugation symmetry."""
    return _measure(s, _check_history_set(s.groupoid, a))


def interference(s: StateFn, *sets: Iterable[int]) -> float:
    """Deviation of the measure from additivity on disjoint sets.

    Two sets give the pair interference; three sets give the triple
    term, which vanishes identically for states of this pairwise kind.
    Every measure, the unions' included, is its own gather over the
    whole set; none is assembled from the parts' numbers.
    """
    g = s.groupoid
    families = [_check_history_set(g, a) for a in sets]
    if families and np.bincount(np.concatenate(families), minlength=1).max() > 1:
        raise ValueError("interference terms need pairwise disjoint history sets")
    def mu(*parts: np.ndarray) -> float:
        member = np.zeros(g.n_transitions, dtype=bool)
        for part in parts:
            member[part] = True
        return _measure(s, np.flatnonzero(member))
    if len(families) == 2:
        a, b = families
        return mu(a, b) - mu(a) - mu(b)
    if len(families) == 3:
        a, b, c = families
        return (
            mu(a, b, c)
            - mu(a, b) - mu(a, c) - mu(b, c)
            + mu(a) + mu(b) + mu(c)
        )
    raise ValueError("interference is defined for two or three history sets")


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
