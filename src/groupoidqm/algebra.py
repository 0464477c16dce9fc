"""The transition algebra of a finite groupoid and its representations.

Elements are sparse complex coefficient maps over transition ids.  The
product follows composition: a basis transition times another is their
composite when the endpoints match and zero otherwise.  The involution
sends each transition to its inverse with conjugated coefficient.

Two matrix representations are provided: the left-regular one, acting
on a Hilbert space with one basis vector per transition, and the
fundamental one, acting on a space with one basis vector per object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .groupoid import Groupoid, has_abelian_isotropy, is_totally_disconnected

__all__ = [
    "LEFT_REGULAR",
    "FUNDAMENTAL",
    "AlgebraElement",
    "Operator",
    "unit_element",
    "multiply",
    "involution",
    "left_regular",
    "fundamental",
    "representation_matrix",
    "algebra_basis",
    "span_dimension",
    "commutant",
    "double_commutant_dimension",
    "is_abelian",
    "operator_norm",
    "CharacterTable",
    "isotropy_character_table",
    "character_diagonalization",
    "tensor_embed",
    "product_transition",
]

LEFT_REGULAR = "left-regular"
FUNDAMENTAL = "fundamental"


class AlgebraElement:
    """Sparse complex combination of transitions.

    Coefficients are stored by transition id; exact zeros are pruned so
    the support is meaningful.  Elements are plain coefficient data and
    do not remember a groupoid: operations that need the composition
    table take the groupoid as an argument and reject ids outside it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, complex] | None = None):
        self.coeffs: dict[int, complex] = {}
        if coeffs:
            for k, v in coeffs.items():
                v = complex(v)
                if v != 0:
                    self.coeffs[int(k)] = v

    @classmethod
    def from_transition(cls, transition_id: int, coeff: complex = 1.0) -> "AlgebraElement":
        return cls({transition_id: coeff})

    @property
    def support(self) -> set[int]:
        return set(self.coeffs)

    def get(self, transition_id: int) -> complex:
        return self.coeffs.get(transition_id, 0j)

    def items(self) -> Iterator[tuple[int, complex]]:
        return iter(sorted(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0j) + v
        return AlgebraElement(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __neg__(self) -> "AlgebraElement":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement({k: scalar * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def isclose(self, other: "AlgebraElement", tol: float = 1e-10) -> bool:
        return (self - other).max_abs() <= tol

    def __repr__(self) -> str:
        terms = ", ".join(f"{k}: {v:.6g}" for k, v in sorted(self.coeffs.items()))
        return f"AlgebraElement({{{terms}}})"


@dataclass(frozen=True, eq=False)
class Operator:
    """A matrix together with the representation it lives in."""

    rep: str
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_element(a: AlgebraElement, g: Groupoid) -> None:
    for k in a.coeffs:
        if not 0 <= k < g.n_transitions:
            raise ValueError(f"transition id {k} does not belong to this groupoid")


def _terms(a: AlgebraElement, g: Groupoid) -> tuple[np.ndarray, np.ndarray]:
    """Transition ids and coefficients of ``a`` as arrays, in coefficient order."""
    _check_element(a, g)
    return np.array(list(a.coeffs), dtype=np.intp), np.array(list(a.coeffs.values()), dtype=complex)


def unit_element(g: Groupoid) -> AlgebraElement:
    """The algebra unit: the sum of all object units."""
    return AlgebraElement({g.unit(x): 1.0 for x in range(g.n_objects)})


def multiply(a: AlgebraElement, b: AlgebraElement, g: Groupoid) -> AlgebraElement:
    """Convolution product: composable pairs compose, the rest vanish.

    Products landing on one transition are summed in the order of the
    pairs, ``a``'s terms outermost.
    """
    ia, ca = _terms(a, g)
    ib, cb = _terms(b, g)
    composite = g.table[ia[:, None], ib[None, :]]
    hit = composite >= 0
    out = np.zeros(g.n_transitions, dtype=complex)
    np.add.at(out, composite[hit], np.multiply.outer(ca, cb)[hit])
    keys = np.flatnonzero(np.bincount(composite[hit], minlength=g.n_transitions))
    return AlgebraElement(dict(zip(keys.tolist(), out[keys].tolist())))


def involution(a: AlgebraElement, g: Groupoid) -> AlgebraElement:
    """Adjoint: conjugate coefficients, invert transitions."""
    _check_element(a, g)
    return AlgebraElement({g.inverse(i): np.conj(c) for i, c in a.coeffs.items()})


# -- matrix representations ----------------------------------------------


def left_regular(a: AlgebraElement, g: Groupoid) -> Operator:
    """Act on the transition space: one basis vector per transition.

    The image of a basis transition t has a single 1 at (t∘j, j) for
    every j that t can follow, so the representation is faithful and
    *-preserving.  The element is scattered through its rows of the
    composition table.
    """
    ids, coeffs = _terms(a, g)
    n = g.n_transitions
    rows = g.table[ids]
    term, col = np.nonzero(rows >= 0)
    m = np.zeros((n, n), dtype=complex)
    np.add.at(m, (rows[term, col], col), coeffs[term])
    return Operator(LEFT_REGULAR, m)


def fundamental(a: AlgebraElement, g: Groupoid) -> Operator:
    """Act on the outcome space: one basis vector per object.

    Each transition becomes the matrix unit target-from-source, so all
    loops at an object act alike and isotropy detail is forgotten.
    Terms sharing an entry are summed in coefficient order.
    """
    ids, coeffs = _terms(a, g)
    n = g.n_objects
    m = np.zeros((n, n), dtype=complex)
    np.add.at(m, (g.target[ids], g.source[ids]), coeffs)
    return Operator(FUNDAMENTAL, m)


def representation_matrix(a: AlgebraElement, g: Groupoid, rep: str = LEFT_REGULAR) -> Operator:
    if rep == LEFT_REGULAR:
        return left_regular(a, g)
    if rep == FUNDAMENTAL:
        return fundamental(a, g)
    raise ValueError(f"unknown representation: {rep!r}")


def algebra_basis(g: Groupoid, rep: str = LEFT_REGULAR) -> list[Operator]:
    """Images of all basis transitions in the chosen representation."""
    return [representation_matrix(AlgebraElement.from_transition(i), g, rep) for i in range(g.n_transitions)]


def span_dimension(mats: Sequence[np.ndarray], rtol: float = 1e-9) -> int:
    """Dimension of the linear span of the given matrices.

    Singular values below ``rtol`` times the largest count as zero.
    """
    if len(mats) == 0:
        return 0
    stack = np.stack([np.asarray(m, dtype=complex).ravel() for m in mats])
    sv = np.linalg.svd(stack, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def operator_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def commutant(mats: Sequence[np.ndarray], rtol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormal basis of everything commuting with the given matrices.

    The commutation constraints for all generators are folded into one
    positive semidefinite Gram matrix; its null space (eigenvalues below
    ``rtol`` times the largest, floored at ``rtol``) is the commutant.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        raise ValueError("commutant of an empty generator list is the full matrix algebra; pass the identity")
    d = mats[0].shape[0]
    eye = np.eye(d)
    gram = np.zeros((d * d, d * d), dtype=complex)
    for b in mats:
        if b.shape != (d, d):
            raise ValueError("all generators must be square matrices of equal size")
        bh = b.conj().T
        # row-major vec of BX - XB is (B (x) I - I (x) B^T) vec X; fold K^H K
        gram += np.kron(bh @ b, eye)
        gram -= np.kron(bh, b.T)
        gram -= np.kron(b, bh.T)
        gram += np.kron(eye, (b.conj() @ b.T))
    gram = (gram + gram.conj().T) / 2.0
    w, v = np.linalg.eigh(gram)
    cutoff = rtol * max(float(w[-1]), 1.0)
    basis = [v[:, k].reshape(d, d) for k in range(w.size) if w[k] <= cutoff]
    return basis


def double_commutant_dimension(g: Groupoid, rep: str = LEFT_REGULAR, rtol: float = 1e-9) -> int:
    """Dimension of the double commutant of the represented algebra."""
    images = [op.matrix for op in algebra_basis(g, rep)]
    first = commutant(images, rtol)
    second = commutant(first, rtol)
    return len(second)


def is_abelian(g: Groupoid) -> bool:
    """Structural commutativity of the transition algebra.

    Basis transitions commute exactly when composability is symmetric
    and the two composites agree, that is, when the composition table
    is symmetric.
    """
    return bool(np.array_equal(g.table, g.table.T))


# -- characters of abelian isotropy --------------------------------------


def _subgroup_generated(mul: Sequence[Sequence[int]], identity: int, gens: Iterable[int]) -> set[int]:
    seen = {identity}
    frontier = [identity]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for h in gens:
            y = mul[x][h]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _element_order(mul: Sequence[Sequence[int]], identity: int, x: int) -> int:
    k, y = 1, x
    while y != identity:
        y = mul[y][x]
        k += 1
    return k


def _abelian_basis(mul: Sequence[Sequence[int]], identity: int) -> list[tuple[int, int]]:
    """Split an abelian group into a direct sum of cyclic subgroups.

    Returns (generator, order) pairs whose cyclic subgroups span the
    whole group directly.  Backtracking search, fine for small groups.
    """
    n = len(mul)
    orders = {x: _element_order(mul, identity, x) for x in range(n)}
    candidates = sorted((x for x in range(n) if x != identity), key=lambda x: (-orders[x], x))

    def extend(basis: list[int], span: set[int]) -> list[int] | None:
        if len(span) == n:
            return basis
        for c in candidates:
            if c in span:
                continue
            cyc = _subgroup_generated(mul, identity, [c])
            if len(cyc & span) != 1:
                continue
            new_span = _subgroup_generated(mul, identity, basis + [c])
            found = extend(basis + [c], new_span)
            if found is not None:
                return found
        return None

    if n == 1:
        return []
    basis = extend([], {identity})
    if basis is None:
        raise ValueError("group is not abelian or decomposition failed")
    return [(b, orders[b]) for b in basis]


@dataclass(frozen=True)
class CharacterTable:
    """All irreducible characters of one abelian isotropy group.

    ``values[k, i]`` is the k-th character on the i-th loop of
    ``loop_ids``; ``exponents[k]`` identifies the character by its
    integer exponent vector against the cyclic decomposition whose
    orders are ``orders``.
    """

    loop_ids: tuple[int, ...]
    values: np.ndarray
    exponents: tuple[tuple[int, ...], ...]
    orders: tuple[int, ...]


def isotropy_character_table(g: Groupoid, x: int) -> CharacterTable:
    loops = g.loops_at(x)
    n = len(loops)
    local = {t: i for i, t in enumerate(loops)}
    mul = [[local[g.compose(loops[i], loops[j])] for j in range(n)] for i in range(n)]
    identity = local[g.unit(x)]
    for i in range(n):
        for j in range(i + 1, n):
            if mul[i][j] != mul[j][i]:
                raise ValueError(f"isotropy group at object {g.label(x)} is not abelian")

    basis = _abelian_basis(mul, identity)
    orders = tuple(d for _, d in basis)
    # coordinates of every element against the cyclic decomposition
    coords: dict[int, tuple[int, ...]] = {}
    for ks in itertools.product(*(range(d) for d in orders)):
        e = identity
        for (b, _), k in zip(basis, ks):
            for _ in range(k):
                e = mul[e][b]
        coords[e] = ks
    if len(coords) != n:
        raise ValueError("cyclic decomposition does not span the group")

    exps = list(itertools.product(*(range(d) for d in orders)))
    values = np.ones((n, n), dtype=complex)
    for k, js in enumerate(exps):
        for i in range(n):
            ks = coords[i]
            phase = sum(j * c / d for j, c, d in zip(js, ks, orders))
            values[k, i] = np.exp(2j * np.pi * phase)
    return CharacterTable(loops, values, tuple(exps), orders)


def character_diagonalization(g: Groupoid) -> tuple[np.ndarray, list[tuple[str, tuple[int, ...]]]]:
    """Unitary that diagonalizes the whole left-regular algebra at once.

    Only exists when the groupoid is totally disconnected with abelian
    isotropy; columns are labeled by (object label, character exponents).
    """
    if not is_totally_disconnected(g):
        raise ValueError("character diagonalization needs a totally disconnected groupoid")
    if not has_abelian_isotropy(g):
        raise ValueError("character diagonalization needs abelian isotropy")
    n = g.n_transitions
    u = np.zeros((n, n), dtype=complex)
    labels: list[tuple[str, tuple[int, ...]]] = []
    col = 0
    for x in range(g.n_objects):
        table = isotropy_character_table(g, x)
        size = len(table.loop_ids)
        for k in range(size):
            for i, t in enumerate(table.loop_ids):
                u[t, col] = np.conj(table.values[k, i]) / np.sqrt(size)
            labels.append((g.label(x), table.exponents[k]))
            col += 1
    if col != n:
        raise RuntimeError(f"character tables cover {col} of {n} transitions")
    return u, labels


# -- products -------------------------------------------------------------


def product_transition(ga: Groupoid, gb: Groupoid, i: int, j: int) -> int:
    """Id of the pair transition (i, j) inside the direct product."""
    if not 0 <= i < ga.n_transitions:
        raise ValueError(f"transition id {i} does not belong to the first factor")
    if not 0 <= j < gb.n_transitions:
        raise ValueError(f"transition id {j} does not belong to the second factor")
    return i * gb.n_transitions + j


def tensor_embed(a: AlgebraElement, b: AlgebraElement, ga: Groupoid, gb: Groupoid) -> AlgebraElement:
    """Embed a pair of factor elements as one element of the product algebra."""
    _check_element(a, ga)
    _check_element(b, gb)
    out: dict[int, complex] = {}
    for i, ci in a.coeffs.items():
        for j, cj in b.coeffs.items():
            out[product_transition(ga, gb, i, j)] = ci * cj
    return AlgebraElement(out)
