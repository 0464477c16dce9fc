"""Finite groupoids stored as integer tables.

A groupoid here is a finite set of objects (outcomes) together with a
finite set of transitions between them.  Objects and transitions are
indexed by dense integers, and every structural map is a table:
``source``, ``target`` and ``inverse_table`` are read-only ``np.intp``
arrays with one entry per transition, ``unit_of`` maps each object to
its unit, and one dense, read-only composition table ``table`` of shape
``(n, n)`` holds every product.  ``table[a, b]`` is the composite "b
first, then a", and -1 marks a pair with no entry.  For n transitions
the table takes 8·n² bytes: 0.17 MB at ``pair_groupoid(12)`` (n = 144)
and 1.3 MB at ``pair_groupoid(20)`` (n = 400).  Products,
representations, states and validation all index these arrays
directly, and validation still points at the exact tuple that breaks
an axiom.  :func:`validate`'s batched kernel is the one associativity
check: :func:`group_groupoid` runs it on a group table from outside,
while the generators build their tables, inverses and units by
construction.

The composition convention is the function-like one: ``compose(a, b)``
means "b first, then a" and is defined exactly when ``source(a) ==
target(b)``.  The composite runs ``source(b) -> target(a)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Transition",
    "Violation",
    "ValidationReport",
    "Groupoid",
    "OrbitDecomposition",
    "validate",
    "orbit_decomposition",
    "orbit_blocks",
    "is_totally_disconnected",
    "has_abelian_isotropy",
    "pair_groupoid",
    "group_groupoid",
    "cyclic_group",
    "symmetric_group",
    "discrete_groupoid",
    "disjoint_union",
    "direct_product",
]

# Most (b, a, c) chains one associativity batch gathers at once.  A chain
# costs about 33 bytes of temporaries (tracemalloc on symmetric_group(5)),
# so a full batch peaks near 2.1 MB; pair_groupoid(12) has 20,736 chains
# and fits in one batch.  Over the benchmark's `measure` inputs, process
# peak RSS reads the same for every value from 4,096 to 65,536.
ASSOC_BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Transition:
    """An arrow between two objects, identified by a dense integer id."""

    id: int
    source: int
    target: int

    @property
    def is_loop(self) -> bool:
        return self.source == self.target


@dataclass(frozen=True)
class Violation:
    """One broken axiom, naming the offending objects or transitions."""

    kind: str
    subject: tuple
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def is_valid(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def __str__(self) -> str:
        if self.is_valid:
            return "valid groupoid"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.intp)
    arr.flags.writeable = False
    return arr


class Groupoid:
    """A finite groupoid backed by read-only integer tables.

    ``source``, ``target`` and ``inverse_table`` are ``np.intp`` arrays
    of length n, the number of transitions; ``table`` is the ``(n, n)``
    composition table, where ``table[a, b]`` is "b first, then a" and -1
    means no entry (8·n² bytes).  ``composition`` is a read-only
    ``{(a, b): c}`` view of the same table.  The constructor takes the
    composition either as such a Mapping or as an ``(n, n)`` array, and
    only checks that indices are in range; whether the tables actually
    satisfy the groupoid axioms is the job of :func:`validate`, which
    reports violations instead of raising.  The arrays are read-only and
    no method changes ``unit_of``, so a groupoid may be shared freely
    across threads.

    Structural equality compares the full tables (labels included).
    """

    def __init__(
        self,
        object_labels: Sequence[str],
        source: Sequence[int],
        target: Sequence[int],
        unit_of: Mapping[int, int] | Sequence[int],
        inverse: Sequence[int],
        composition: Mapping[tuple[int, int], int] | np.ndarray,
        factors: tuple["Groupoid", "Groupoid"] | None = None,
    ):
        self.object_labels = tuple(str(x) for x in object_labels)
        self.source = _frozen(source)
        self.target = _frozen(target)
        if self.source.shape != self.target.shape:
            raise ValueError("source and target tables differ in length")
        n_obj = len(self.object_labels)
        n_tr = self.source.size
        bad = np.flatnonzero((self.source < 0) | (self.source >= n_obj) | (self.target < 0) | (self.target >= n_obj))
        if bad.size:
            raise ValueError(f"transition endpoint out of range: ({self.source[bad[0]]}, {self.target[bad[0]]})")
        if isinstance(unit_of, Mapping):
            self.unit_of = {int(k): int(v) for k, v in unit_of.items()}
        else:
            self.unit_of = {x: int(u) for x, u in enumerate(unit_of)}
        for x, u in self.unit_of.items():
            if not (0 <= x < n_obj and 0 <= u < n_tr):
                raise ValueError(f"unit table entry out of range: {x} -> {u}")
        self.inverse_table = _frozen(inverse)
        if self.inverse_table.shape != (n_tr,):
            raise ValueError("inverse table length does not match transition count")
        bad = np.flatnonzero((self.inverse_table < 0) | (self.inverse_table >= n_tr))
        if bad.size:
            raise ValueError(f"inverse of {bad[0]} out of range: {self.inverse_table[bad[0]]}")
        if isinstance(composition, Mapping):
            table = np.full((n_tr, n_tr), -1, dtype=np.intp)
            for (a, b), c in composition.items():
                a, b, c = int(a), int(b), int(c)
                if not (0 <= a < n_tr and 0 <= b < n_tr and 0 <= c < n_tr):
                    raise ValueError(f"composition entry out of range: ({a}, {b}) -> {c}")
                table[a, b] = c
        else:
            table = np.array(composition, dtype=np.intp)
            if table.shape != (n_tr, n_tr):
                raise ValueError(f"composition table has shape {table.shape}, not {(n_tr, n_tr)}")
            bad = np.argwhere((table < -1) | (table >= n_tr))
            if bad.size:
                a, b = bad[0].tolist()
                raise ValueError(f"composition entry out of range: ({a}, {b}) -> {table[a, b]}")
        table.flags.writeable = False
        self.table = table
        # provenance for direct products; lets block analyses recover the factors
        self.factors = factors

    # -- basic accessors ------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.object_labels)

    @property
    def n_transitions(self) -> int:
        return self.source.size

    @property
    def composition(self) -> Mapping[tuple[int, int], int]:
        """Read-only ``{(first, second): composite}`` view of ``table``, built on each access."""
        pairs = np.argwhere(self.table >= 0)
        return MappingProxyType(dict(zip(map(tuple, pairs.tolist()), self.table[self.table >= 0].tolist())))

    def label(self, x: int) -> str:
        return self.object_labels[x]

    def transition(self, i: int) -> Transition:
        return Transition(i, int(self.source[i]), int(self.target[i]))

    def transitions(self) -> Iterator[Transition]:
        for i in range(self.n_transitions):
            yield self.transition(i)

    def unit(self, x: int) -> int:
        return self.unit_of[x]

    def is_unit(self, i: int) -> bool:
        return self.unit_of.get(int(self.source[i])) == i and self.composable(i, i)

    def inverse(self, i: int) -> int:
        return int(self.inverse_table[i])

    def composable(self, first: int, second: int) -> bool:
        """True when ``first`` can run after ``second``."""
        return bool(self.source[first] == self.target[second])

    def compose(self, first: int, second: int) -> int:
        """Composite of ``second`` followed by ``first``."""
        if not self.composable(first, second):
            raise ValueError(
                f"transitions not composable: source({first})={self.source[first]} "
                f"!= target({second})={self.target[second]}"
            )
        c = int(self.table[first, second])
        if c < 0:
            raise ValueError(f"composition table has no entry for ({first}, {second})")
        return c

    def _check_object(self, x: int) -> int:
        if not 0 <= x < self.n_objects:
            raise ValueError(f"object index {x} out of range")
        return x

    def transitions_into(self, y: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.target == self._check_object(y)).tolist())

    def transitions_out_of(self, x: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.source == self._check_object(x)).tolist())

    def loops_at(self, x: int) -> tuple[int, ...]:
        return self.transitions_between(x, x)

    def transitions_between(self, x: int, y: int) -> tuple[int, ...]:
        mask = (self.source == self._check_object(x)) & (self.target == self._check_object(y))
        return tuple(np.flatnonzero(mask).tolist())

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Groupoid):
            return NotImplemented
        return (
            self.object_labels == other.object_labels
            and np.array_equal(self.source, other.source)
            and np.array_equal(self.target, other.target)
            and self.unit_of == other.unit_of
            and np.array_equal(self.inverse_table, other.inverse_table)
            and np.array_equal(self.table, other.table)
        )

    def __repr__(self) -> str:
        return f"Groupoid(objects={self.n_objects}, transitions={self.n_transitions})"


# -- validation ---------------------------------------------------------


def validate(g: Groupoid) -> ValidationReport:
    """Check every groupoid axiom, returning all violations found.

    Distinct failure modes get distinct violation kinds so callers (and
    the command line front end) can report precisely what is broken.
    Each axiom is checked with masks over the tables; lookups through a
    -1 entry land on some other entry and are always masked out.
    Associativity compares ((a;b);c) with (a;(b;c)) on every composable
    chain, batched by the shape of the middle transition b (see
    ``ASSOC_BATCH_ENTRIES``), so its cost grows with the number of
    chains, Σ_b |out of target(b)|·|into source(b)|: n³/k² for a
    connected groupoid with n transitions on k objects, n² for a pair
    groupoid.  Violations come out in (b, a, c) order whatever the
    batching.
    """
    out: list[Violation] = []

    if g.n_objects == 0:
        out.append(Violation("empty-groupoid", (), "a groupoid needs at least one object"))
        return ValidationReport(tuple(out))

    src, tgt, inv, table = g.source, g.target, g.inverse_table, g.table
    for x in range(g.n_objects):
        u = g.unit_of.get(x)
        if u is None:
            out.append(Violation("missing-unit", (x,), f"object {g.label(x)} has no unit"))
        elif src[u] != x or tgt[u] != x:
            msg = f"declared unit {u} runs {src[u]} -> {tgt[u]}, not a loop at {x}"
            out.append(Violation("bad-unit", (x, u), msg))
    seen_units: dict[int, int] = {}
    for x in sorted(g.unit_of):
        u = g.unit_of[x]
        if u in seen_units:
            out.append(
                Violation("duplicate-unit", (seen_units[u], x, u), f"transition {u} is the unit of two objects")
            )
        seen_units[u] = x

    if len(set(inv.tolist())) != g.n_transitions:
        counts: dict[int, list[int]] = {}
        for a, b in enumerate(inv.tolist()):
            counts.setdefault(b, []).append(a)
        for b, pre in counts.items():
            if len(pre) > 1:
                out.append(
                    Violation("non-bijective-inverse", tuple(pre), f"transitions {pre} share the inverse {b}")
                )
    for a in np.flatnonzero((src[inv] != tgt) | (tgt[inv] != src)).tolist():
        msg = f"inverse of {src[a]}->{tgt[a]} must run {tgt[a]}->{src[a]}"
        out.append(Violation("bad-inverse-endpoints", (a, int(inv[a])), msg))

    composable = src[:, None] == tgt[None, :]
    entry = table >= 0
    for a, b in np.argwhere(composable & ~entry).tolist():
        out.append(Violation("missing-composition", (a, b), "composable pair has no table entry"))
    spurious = entry & ~composable
    bad_ends = entry & composable & ((src[table] != src[None, :]) | (tgt[table] != tgt[:, None]))
    for a, b in np.argwhere(spurious | bad_ends).tolist():
        c = int(table[a, b])
        if spurious[a, b]:
            msg = f"pair is not composable: source({a})={src[a]} != target({b})={tgt[b]}"
            out.append(Violation("spurious-composition", (a, b), msg))
        else:
            msg = f"composite must run {src[b]} -> {tgt[a]}, got {src[c]} -> {tgt[c]}"
            out.append(Violation("bad-composite-endpoints", (a, b, c), msg))

    ids = np.arange(g.n_transitions)
    units = np.full(g.n_objects, -1, dtype=np.intp)
    units[list(g.unit_of)] = list(g.unit_of.values())
    ut, us = units[tgt], units[src]
    # a lookup that finds no entry is not a law violation; missing entries are reported above
    left, right = table[ut, ids], table[ids, us]
    bad_left = (ut >= 0) & (left >= 0) & (left != ids)
    bad_right = (us >= 0) & (right >= 0) & (right != ids)
    for a in np.flatnonzero(bad_left | bad_right).tolist():
        if bad_left[a]:
            out.append(Violation("unit-law", (int(ut[a]), a), f"unit at target absorbs {a} incorrectly"))
        if bad_right[a]:
            out.append(Violation("unit-law", (a, int(us[a])), f"unit at source absorbs {a} incorrectly"))

    inv_ok = src[inv] == tgt  # endpoints already reported otherwise
    after, before = table[inv, ids], table[ids, inv]
    bad_after = inv_ok & (us >= 0) & (after >= 0) & (after != us)
    bad_before = inv_ok & (ut >= 0) & (before >= 0) & (before != ut)
    for a in np.flatnonzero(bad_after | bad_before).tolist():
        if bad_after[a]:
            out.append(Violation("inverse-law", (a,), f"inverse({a}) after {a} is not the unit at source"))
        if bad_before[a]:
            out.append(Violation("inverse-law", (a,), f"{a} after inverse({a}) is not the unit at target"))

    found = np.concatenate([np.empty((0, 5), dtype=np.intp), *_associativity_failures(g)])
    for b, a, c, ab_c, a_bc in found[np.lexsort(found[:, 2::-1].T)].tolist():  # (b, a, c) order
        out.append(Violation("associativity", (a, b, c), f"(({a};{b});{c})={ab_c} but ({a};({b};{c}))={a_bc}"))
    return ValidationReport(tuple(out))


def _chains(ends: np.ndarray, n_objects: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transitions grouped by one endpoint: (ids sorted by that endpoint, first position, count) per object."""
    order = np.argsort(ends, kind="stable")
    count = np.bincount(ends, minlength=n_objects)
    return order, np.cumsum(count) - count, count


def _associativity_failures(g: Groupoid) -> Iterator[np.ndarray]:
    """Every (b, a, c, ((a;b);c), (a;(b;c))) whose two bracketings disagree, one (m, 5) array per batch.

    Middle transitions b with the same chain shape, (number of a with
    source(a) = target(b), number of c with target(c) = source(b)), are
    checked together, each bracketing gathered from the flattened table
    with one index per batch; a batch holds at most
    ``ASSOC_BATCH_ENTRIES`` (b, a, c) chains, and never less than one b.
    Pairs without a table entry are masked out; they are reported as
    missing compositions.  Batches come in order of chain shape, not of b.
    """
    src, tgt, table, n = g.source, g.target, g.table, g.n_transitions
    flat = table.ravel()
    out_order, out_start, out_count = _chains(src, g.n_objects)
    in_order, in_start, in_count = _chains(tgt, g.n_objects)
    n_a, n_c = out_count[tgt], in_count[src]
    shape = n_a * (n + 1) + n_c
    middles = np.argsort(shape, kind="stable")
    if not middles.size:
        return
    cuts = np.flatnonzero(np.diff(shape[middles])) + 1
    for group in np.split(middles, cuts):
        na, nc = int(n_a[group[0]]), int(n_c[group[0]])
        step = max(1, ASSOC_BATCH_ENTRIES // max(1, na * nc))
        for lo in range(0, group.size, step):
            b = group[lo:lo + step]
            a = out_order[out_start[tgt[b]][:, None] + np.arange(na)]
            c = in_order[in_start[src[b]][:, None] + np.arange(nc)]
            ab, bc = table[a, b[:, None]], table[b[:, None], c]
            ab_c = flat[ab[:, :, None] * n + c[:, None, :]]
            a_bc = flat[a[:, :, None] * n + bc[:, None, :]]
            k, i, j = np.nonzero(ab_c != a_bc)
            # a -1 entry lands on some other entry of the table; the masks drop those lookups
            real = (ab[k, i] >= 0) & (bc[k, j] >= 0) & (ab_c[k, i, j] >= 0) & (a_bc[k, i, j] >= 0)
            yield np.column_stack((b[k], a[k, i], c[k, j], ab_c[k, i, j], a_bc[k, i, j]))[real]


# -- connectivity and isotropy -----------------------------------------


@dataclass(frozen=True)
class OrbitDecomposition:
    """Partition of the objects into orbits, plus per-object loop groups."""

    orbits: tuple[tuple[int, ...], ...]
    isotropy: tuple[tuple[int, ...], ...]

    @property
    def n_orbits(self) -> int:
        return len(self.orbits)


def _orbit_table(g: Groupoid) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each object's orbit index, orbits numbered by their least objects, and each orbit's objects in order.

    In a groupoid that passes `validate` the sources of the transitions into y are y's orbit, so the least
    of them, one ``np.minimum.at`` for all objects, is the orbit's least object; other tables may split orbits.
    """
    least = np.arange(g.n_objects)
    np.minimum.at(least, g.target, g.source)
    _, of = np.unique(least, return_inverse=True)
    return of, np.split(np.argsort(of, kind="stable"), np.cumsum(np.bincount(of))[:-1])


def orbit_decomposition(g: Groupoid) -> OrbitDecomposition:
    """Orbits and per-object loop groups of a groupoid that passes `validate` (see `_orbit_table`)."""
    loops = np.flatnonzero(g.source == g.target)
    loops = loops[np.argsort(g.source[loops], kind="stable")]
    isotropy = np.split(loops, np.cumsum(np.bincount(g.source[loops], minlength=g.n_objects))[:-1])
    return OrbitDecomposition(tuple(tuple(o.tolist()) for o in _orbit_table(g)[1]), tuple(tuple(x.tolist()) for x in isotropy))


def orbit_blocks(g: Groupoid, rep: str = "left-regular") -> list[np.ndarray]:
    """Each orbit's invariant blocks of a representation's basis, one row per block, row 0 the representative.

    Left-regular: row 0 lists the transitions t leaving the orbit's first object
    x, |O|·|G_x| of them, and object y's row lists t∘w for one w: y → x; right
    multiplication by w commutes with the representation, so every element of
    C*(G) has one matrix on all rows of an orbit.  Fundamental: the orbit's objects.
    """
    orbits = _orbit_table(g)[1]
    if rep == "fundamental":
        return [orb[None] for orb in orbits]
    if rep != "left-regular":
        raise ValueError(f"unknown representation: {rep!r}")
    out, w = [], np.empty(g.n_objects, dtype=np.intp)
    for orb in orbits:
        into = np.flatnonzero(g.target == orb[0])  # w[y]: a transition y -> x, the unit for y = x
        w[g.source[into]], w[orb[0]] = into, g.unit(orb[0])
        out.append(g.table[np.flatnonzero(g.source == orb[0])[None, :], w[orb][:, None]])
    return out


def is_totally_disconnected(g: Groupoid) -> bool:
    """True when every transition is a loop (all orbits are singletons)."""
    return bool(np.array_equal(g.source, g.target))


def has_abelian_isotropy(g: Groupoid) -> bool:
    """True when every object's loop group is commutative."""
    loop = g.source == g.target
    same_loop_group = loop[:, None] & loop[None, :] & (g.source[:, None] == g.source[None, :])
    return bool(np.array_equal(g.table[same_loop_group], g.table.T[same_loop_group]))


# -- generators ---------------------------------------------------------


def pair_groupoid(n: int, labels: Sequence[str] | None = None) -> Groupoid:
    """The groupoid with exactly one transition between any two of n objects."""
    if n < 1:
        raise ValueError("pair groupoid needs at least one object")
    if labels is None:
        labels = [str(x) for x in range(n)]
    elif len(labels) != n:
        raise ValueError("label count does not match object count")

    # transition x * n + y runs x -> y; "b, then a" runs source(b) -> target(a)
    source, target = np.divmod(np.arange(n * n), n)
    table = np.where(source[:, None] == target[None, :], source[None, :] * n + target[:, None], -1)
    return Groupoid(labels, source, target, range(0, n * n, n + 1), target * n + source, table)


def group_groupoid(table: Sequence[Sequence[int]], object_label: str = "*") -> Groupoid:
    """A one-object groupoid whose loops multiply by the given group table.

    ``table[i][j]`` is the index of the product "j first, then i", which
    matches the composition convention used everywhere else.  Rows,
    columns, identity and inverses are checked here, associativity by
    :func:`validate`'s kernel; an error names the first (a, b, c) that
    fails it.
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty multiplication table")
    t = np.asarray(table) if all(len(row) == n for row in table) else np.empty(0)
    ids = np.arange(n)
    # sorting compares values, so 1.5 or a NaN is rejected here and never cast
    if t.shape != (n, n) or t.dtype.kind not in "biuf" or not (np.sort(t, axis=1) == ids).all():
        raise ValueError("multiplication table rows must be permutations of 0..n-1")
    if not (np.sort(t, axis=0) == ids[:, None]).all():
        raise ValueError("multiplication table columns must be permutations of 0..n-1")
    t = t.astype(np.intp)
    identity = np.flatnonzero((t == ids).all(axis=1) & (t == ids[:, None]).all(axis=0))
    if not identity.size:
        raise ValueError("multiplication table has no identity element")
    e = int(identity[0])
    inv = np.argmax(t == e, axis=1)  # the one b in each row with a b = e
    bad = np.flatnonzero(t[inv, ids] != e)
    if bad.size:
        raise ValueError(f"element {bad[0]} has no two-sided inverse")
    g = Groupoid([object_label], [0] * n, [0] * n, [e], inv, t)
    # a Latin square with identity and inverses can only break associativity; find the least failing (a, b, c)
    keys = [((f[:, 1] * n + f[:, 0]) * n + f[:, 2]).min() for f in _associativity_failures(g) if len(f)]
    if keys:
        a, b, c = np.unravel_index(min(keys), (n, n, n))
        raise ValueError(f"multiplication table is not associative at ({a}, {b}, {c})")
    return g


def cyclic_group(n: int, object_label: str = "*") -> Groupoid:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    ids = np.arange(n)
    return Groupoid([object_label], [0] * n, [0] * n, [0], -ids % n, (ids[:, None] + ids) % n)


def symmetric_group(n: int, object_label: str = "*") -> Groupoid:
    """All permutations of n points as a one-object groupoid (n small)."""
    if not 1 <= n <= 6:
        raise ValueError("symmetric group generator supports 1 <= n <= 6")
    perms = np.array(sorted(itertools.permutations(range(n))), dtype=np.int8)
    # a permutation's digits in base n index the lookup; p∘q is p[q], so row p, column q
    key = n ** np.arange(n - 1, -1, -1)
    index = np.zeros(n**n, dtype=np.intp)
    index[perms @ key] = np.arange(len(perms))
    # the identity sorts first, and argsort inverts a permutation
    inverse, table = index[np.argsort(perms, axis=1) @ key], index[perms[:, perms] @ key]
    return Groupoid([object_label], [0] * len(perms), [0] * len(perms), [0], inverse, table)


def discrete_groupoid(objects: int | Sequence[str]) -> Groupoid:
    """Totally disconnected groupoid with trivial isotropy (units only)."""
    labels = [str(x) for x in range(objects)] if isinstance(objects, int) else list(objects)
    if not labels:
        raise ValueError("discrete groupoid needs at least one object")
    ids = np.arange(len(labels))
    return Groupoid(labels, ids, ids, ids, ids, np.diag(ids + 1) - 1)  # x∘x = x and no other entry


def disjoint_union(parts: Iterable[Groupoid]) -> Groupoid:
    """Side-by-side union; no transitions connect different parts."""
    parts = list(parts)
    if not parts:
        raise ValueError("disjoint union needs at least one part")
    all_labels = [lab for p in parts for lab in p.object_labels]
    dedupe = len(set(all_labels)) < len(all_labels)
    labels = [f"{k}:{lab}" if dedupe else lab for k, p in enumerate(parts) for lab in p.object_labels]
    obj_off = np.cumsum([0] + [p.n_objects for p in parts])
    tr_off = np.cumsum([0] + [p.n_transitions for p in parts])
    source = np.concatenate([p.source + o for p, o in zip(parts, obj_off)])
    target = np.concatenate([p.target + o for p, o in zip(parts, obj_off)])
    unit_of = [p.unit_of[x] + o for p, o in zip(parts, tr_off) for x in range(p.n_objects)]
    inverse = np.concatenate([p.inverse_table + o for p, o in zip(parts, tr_off)])
    table = np.full((tr_off[-1], tr_off[-1]), -1, dtype=np.intp)
    for p, o in zip(parts, tr_off):
        block = slice(o, o + p.n_transitions)
        table[block, block] = np.where(p.table >= 0, p.table + o, -1)
    return Groupoid(labels, source, target, unit_of, inverse, table)


def direct_product(a: Groupoid, b: Groupoid) -> Groupoid:
    """Componentwise product groupoid; records its factors for later block analyses."""
    nb_obj, nb_tr = b.n_objects, b.n_transitions
    n = a.n_transitions * nb_tr
    # object (x, y) is x * nb_obj + y and transition (i, j) is i * nb_tr + j
    labels = [
        f"({la},{lb})" for la in a.object_labels for lb in b.object_labels
    ]
    source = (a.source[:, None] * nb_obj + b.source[None, :]).ravel()
    target = (a.target[:, None] * nb_obj + b.target[None, :]).ravel()
    unit_of = [a.unit_of[x] * nb_tr + b.unit_of[y] for x in range(a.n_objects) for y in range(nb_obj)]
    inverse = (a.inverse_table[:, None] * nb_tr + b.inverse_table[None, :]).ravel()
    ta, tb = a.table[:, None, :, None], b.table[None, :, None, :]
    table = np.where((ta >= 0) & (tb >= 0), ta * nb_tr + tb, -1).reshape(n, n)
    return Groupoid(labels, source, target, unit_of, inverse, table, factors=(a, b))
