"""The benchmark's own model of finite groupoids.

Generators, a random relabeller, a writer and a reader for the program's
text format, an axiom checker, and the reference pairwise functional.
Nothing here imports the program under test, so every check built on
this module is independent of the code it checks.

Convention (the program's): ``compose[(a, b)]`` is "b first, then a" and
exists exactly when ``source[a] == target[b]``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Table:
    objects: tuple[str, ...]
    names: tuple[str, ...]
    source: tuple[int, ...]
    target: tuple[int, ...]
    unit: tuple[int, ...]
    inverse: tuple[int, ...]
    compose: dict

    @property
    def n_transitions(self) -> int:
        return len(self.source)

    @property
    def disconnected(self) -> bool:
        return all(s == t for s, t in zip(self.source, self.target))

    @property
    def abelian_isotropy(self) -> bool:
        for x in range(len(self.objects)):
            loops = [i for i in range(self.n_transitions) if self.source[i] == x == self.target[i]]
            for a, b in itertools.combinations(loops, 2):
                if self.compose[(a, b)] != self.compose[(b, a)]:
                    return False
        return True

    @property
    def classical(self) -> bool:
        """Ground truth of the classicality theorem: disconnected with abelian isotropy."""
        return self.disconnected and self.abelian_isotropy


def _default_names(n: int, prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def pair(n: int) -> Table:
    """One transition x -> y (id ``x*n + y``) between any two of n objects."""
    tid = lambda x, y: x * n + y  # noqa: E731
    comp = {(tid(y, z), tid(x, y)): tid(x, z) for x in range(n) for y in range(n) for z in range(n)}
    return Table(
        objects=_default_names(n, "o"),
        names=_default_names(n * n, "t"),
        source=tuple(x for x in range(n) for _ in range(n)),
        target=tuple(y for _ in range(n) for y in range(n)),
        unit=tuple(tid(x, x) for x in range(n)),
        inverse=tuple(tid(y, x) for x in range(n) for y in range(n)),
        compose=comp,
    )


def group(mul: list[list[int]]) -> Table:
    """One object whose loops multiply by ``mul[i][j]`` = "j first, then i"."""
    n = len(mul)
    e = next(i for i in range(n) if all(mul[i][j] == j for j in range(n)))
    inv = tuple(next(j for j in range(n) if mul[i][j] == e) for i in range(n))
    comp = {(i, j): mul[i][j] for i in range(n) for j in range(n)}
    return Table(("o0",), _default_names(n, "t"), (0,) * n, (0,) * n, (e,), inv, comp)


def cyclic(n: int) -> Table:
    return group([[(i + j) % n for j in range(n)] for i in range(n)])


def symmetric(n: int) -> Table:
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return group([[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms])


def union(*parts: Table) -> Table:
    objects, names, source, target, unit, inverse, comp = [], [], [], [], [], [], {}
    for k, p in enumerate(parts):
        no, nt = len(objects), len(source)
        objects += [f"p{k}{lab}" for lab in p.objects]
        names += [f"p{k}{nm}" for nm in p.names]
        source += [s + no for s in p.source]
        target += [t + no for t in p.target]
        unit += [u + nt for u in p.unit]
        inverse += [i + nt for i in p.inverse]
        comp.update({(a + nt, b + nt): c + nt for (a, b), c in p.compose.items()})
    return Table(tuple(objects), tuple(names), tuple(source), tuple(target), tuple(unit), tuple(inverse), comp)


def product(a: Table, b: Table) -> Table:
    """Componentwise product; object ``(x, y)`` is ``x*|Ob b| + y``, so the
    outcome basis is first-factor major, as a bipartition ``|Ob a|:|Ob b|`` reads it."""
    nbo, nbt = len(b.objects), b.n_transitions
    oid = lambda x, y: x * nbo + y  # noqa: E731
    tid = lambda i, j: i * nbt + j  # noqa: E731
    ta, tb = range(a.n_transitions), range(nbt)
    comp = {
        (tid(i1, j1), tid(i2, j2)): tid(i3, j3)
        for (i1, i2), i3 in a.compose.items()
        for (j1, j2), j3 in b.compose.items()
    }
    return Table(
        objects=tuple(f"{la}.{lb}" for la in a.objects for lb in b.objects),
        names=tuple(f"{na}.{nb}" for na in a.names for nb in b.names),
        source=tuple(oid(a.source[i], b.source[j]) for i in ta for j in tb),
        target=tuple(oid(a.target[i], b.target[j]) for i in ta for j in tb),
        unit=tuple(tid(a.unit[x], b.unit[y]) for x in range(len(a.objects)) for y in range(nbo)),
        inverse=tuple(tid(a.inverse[i], b.inverse[j]) for i in ta for j in tb),
        compose=comp,
    )


def relabel(t: Table, rng: np.random.Generator, objects: bool = True) -> Table:
    """Randomly permute transition ids (and object ids unless ``objects`` is
    false) and give everything fresh random names."""
    n_obj, n_tr = len(t.objects), t.n_transitions
    op = rng.permutation(n_obj) if objects else np.arange(n_obj)
    tp = rng.permutation(n_tr)
    obj_names = [f"x{v}" for v in rng.choice(10 * n_obj + 10, n_obj, replace=False)]
    tr_names = [f"a{v}" for v in rng.choice(10 * n_tr + 10, n_tr, replace=False)]
    new_obj = [""] * n_obj
    for old in range(n_obj):
        new_obj[op[old]] = obj_names[old]
    source, target, inverse, names = [0] * n_tr, [0] * n_tr, [0] * n_tr, [""] * n_tr
    for old in range(n_tr):
        new = tp[old]
        source[new] = int(op[t.source[old]])
        target[new] = int(op[t.target[old]])
        inverse[new] = int(tp[t.inverse[old]])
        names[new] = tr_names[old]
    unit = [0] * n_obj
    for old in range(n_obj):
        unit[op[old]] = int(tp[t.unit[old]])
    comp = {(int(tp[a]), int(tp[b])): int(tp[c]) for (a, b), c in t.compose.items()}
    return Table(tuple(new_obj), tuple(names), tuple(source), tuple(target), tuple(unit), tuple(inverse), comp)


def to_text(t: Table) -> str:
    """The program's groupoid text format; declaration order fixes the ids."""
    units = set(t.unit)
    lines = [f"objects: {' '.join(t.objects)}"]
    for i in range(t.n_transitions):
        flag = " unit" if i in units else ""
        lines.append(f"transition: {t.names[i]} {t.objects[t.source[i]]} {t.objects[t.target[i]]}{flag}")
    lines += [f"inverse: {t.names[i]} {t.names[j]}" for i, j in enumerate(t.inverse) if i <= j]
    lines += [f"compose: {t.names[a]} {t.names[b]} {t.names[c]}" for (a, b), c in sorted(t.compose.items())]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Table:
    """Read a well-formed file in the program's text format (no diagnostics)."""
    objects: list[str] = []
    names: list[str] = []
    ends: list[tuple[str, str]] = []
    unit_names: dict[str, str] = {}
    inv_pairs: list[tuple[str, str]] = []
    comp_names: list[tuple[str, str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, rest = (s.strip() for s in line.split(":", 1))
        tok = rest.split()
        if key == "objects":
            objects = tok
        elif key == "transition":
            names.append(tok[0])
            ends.append((tok[1], tok[2]))
            if len(tok) == 4:
                unit_names[tok[1]] = tok[0]
        elif key == "inverse":
            inv_pairs.append((tok[0], tok[1]))
        elif key == "compose":
            comp_names.append((tok[0], tok[1], tok[2]))
    oi = {o: k for k, o in enumerate(objects)}
    ti = {n: k for k, n in enumerate(names)}
    inverse = [0] * len(names)
    for a, b in inv_pairs:
        inverse[ti[a]], inverse[ti[b]] = ti[b], ti[a]
    return Table(
        objects=tuple(objects),
        names=tuple(names),
        source=tuple(oi[s] for s, _ in ends),
        target=tuple(oi[t] for _, t in ends),
        unit=tuple(ti[unit_names[o]] for o in objects),
        inverse=tuple(inverse),
        compose={(ti[a], ti[b]): ti[c] for a, b, c in comp_names},
    )


def axiom_violations(t: Table) -> list[str]:
    """Every broken groupoid axiom, as readable strings (empty when valid)."""
    out: list[str] = []
    n = t.n_transitions
    for x, u in enumerate(t.unit):
        if t.source[u] != x or t.target[u] != x:
            out.append(f"unit of object {x} is not a loop at it")
    composable = {(a, b) for a in range(n) for b in range(n) if t.source[a] == t.target[b]}
    if set(t.compose) != composable:
        out.append("composition is not defined exactly on composable pairs")
        return out
    for (a, b), c in t.compose.items():
        if t.source[c] != t.source[b] or t.target[c] != t.target[a]:
            out.append(f"composite of {(a, b)} has wrong endpoints")
    for a in range(n):
        if t.compose[(t.unit[t.target[a]], a)] != a or t.compose[(a, t.unit[t.source[a]])] != a:
            out.append(f"unit law fails at {a}")
        b = t.inverse[a]
        if t.source[b] != t.target[a] or t.target[b] != t.source[a]:
            out.append(f"inverse of {a} has wrong endpoints")
        elif t.compose[(b, a)] != t.unit[t.source[a]] or t.compose[(a, b)] != t.unit[t.target[a]]:
            out.append(f"inverse law fails at {a}")
    for (a, b), ab in t.compose.items():
        for c in range(n):
            if t.target[c] == t.source[b] and t.compose[(ab, c)] != t.compose[(a, t.compose[(b, c)])]:
                out.append(f"associativity fails at {(a, b, c)}")
    return out


# -- reference pairwise functional -------------------------------------------


def phi_from_density(t: Table, rho: np.ndarray) -> np.ndarray:
    """phi(s) = trace(rho L(s)) = sum_j rho[j, s∘j] in the left-regular basis."""
    phi = np.zeros(t.n_transitions, dtype=complex)
    for s in range(t.n_transitions):
        for j in range(t.n_transitions):
            if t.target[j] == t.source[s]:
                phi[s] += rho[j, t.compose[(s, j)]]
    return phi


def decoherence(t: Table, phi: np.ndarray, a, b) -> complex:
    """D(A, B) = sum over alpha in A, beta in B sharing a target of phi(alpha^-1 ∘ beta)."""
    return complex(
        sum(phi[t.compose[(t.inverse[al], be)]] for al in a for be in b if t.target[al] == t.target[be])
    )
