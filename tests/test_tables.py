"""The composition-table engine against the dict-and-loop code it replaced.

Each reference below is a copy of the earlier implementation, which
walked tuples, a ``{(first, second): composite}`` dict and per-object
adjacency lists one transition at a time.  The table engine must give
the same violations (kind, subject, message and order), the same
products and representation matrices, and the same states and pairwise
functional on random groupoids: disjoint unions of pair(n) x G with G
one of Z1-Z4, S3 and Q8, with permuted transition ids.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_groupoids
from groupoidqm import (
    FUNDAMENTAL,
    LEFT_REGULAR,
    AlgebraElement,
    Groupoid,
    decoherence_functional,
    dump_groupoid_text,
    fundamental,
    left_regular,
    multiply,
    pair_groupoid,
    parse_groupoid_text,
    state_from_density,
    state_from_phi,
    validate,
)

SETTINGS = settings(deadline=None, max_examples=40)


class Ref:
    """A groupoid in the earlier tuple-and-dict form."""

    def __init__(self, g: Groupoid, composition: dict | None = None):
        self.labels = g.object_labels
        self.n_objects = g.n_objects
        self.source = tuple(g.source.tolist())
        self.target = tuple(g.target.tolist())
        self.unit_of = dict(g.unit_of)
        self.inverse_table = tuple(g.inverse_table.tolist())
        self.composition = dict(g.composition if composition is None else composition)
        self.n_transitions = len(self.source)
        self.into = [tuple(i for i in range(self.n_transitions) if self.target[i] == y) for y in range(self.n_objects)]
        self.out_of = [tuple(i for i in range(self.n_transitions) if self.source[i] == x) for x in range(self.n_objects)]

    def compose(self, a: int, b: int) -> int:
        assert self.source[a] == self.target[b]
        return self.composition[(a, b)]


def ref_validate(g: Ref) -> list[tuple]:
    out: list[tuple] = []
    for x in range(g.n_objects):
        u = g.unit_of.get(x)
        if u is None:
            out.append(("missing-unit", (x,), f"object {g.labels[x]} has no unit"))
        elif g.source[u] != x or g.target[u] != x:
            out.append(("bad-unit", (x, u), f"declared unit {u} runs {g.source[u]} -> {g.target[u]}, not a loop at {x}"))
    seen_units: dict[int, int] = {}
    for x in sorted(g.unit_of):
        u = g.unit_of[x]
        if u in seen_units:
            out.append(("duplicate-unit", (seen_units[u], x, u), f"transition {u} is the unit of two objects"))
        seen_units[u] = x
    if len(set(g.inverse_table)) != g.n_transitions:
        counts: dict[int, list[int]] = {}
        for a, b in enumerate(g.inverse_table):
            counts.setdefault(b, []).append(a)
        for b, pre in counts.items():
            if len(pre) > 1:
                out.append(("non-bijective-inverse", tuple(pre), f"transitions {pre} share the inverse {b}"))
    for a in range(g.n_transitions):
        b = g.inverse_table[a]
        if g.source[b] != g.target[a] or g.target[b] != g.source[a]:
            out.append(("bad-inverse-endpoints", (a, b),
                        f"inverse of {g.source[a]}->{g.target[a]} must run {g.target[a]}->{g.source[a]}"))
    for a in range(g.n_transitions):
        for b in g.into[g.source[a]]:
            if (a, b) not in g.composition:
                out.append(("missing-composition", (a, b), "composable pair has no table entry"))
    for (a, b), c in sorted(g.composition.items()):
        if g.source[a] != g.target[b]:
            out.append(("spurious-composition", (a, b),
                        f"pair is not composable: source({a})={g.source[a]} != target({b})={g.target[b]}"))
        elif g.source[c] != g.source[b] or g.target[c] != g.target[a]:
            out.append(("bad-composite-endpoints", (a, b, c),
                        f"composite must run {g.source[b]} -> {g.target[a]}, got {g.source[c]} -> {g.target[c]}"))
    comp = g.composition.get
    for a in range(g.n_transitions):
        ut = g.unit_of.get(g.target[a])
        us = g.unit_of.get(g.source[a])
        if ut is not None and comp((ut, a)) not in (None, a):
            out.append(("unit-law", (ut, a), f"unit at target absorbs {a} incorrectly"))
        if us is not None and comp((a, us)) not in (None, a):
            out.append(("unit-law", (a, us), f"unit at source absorbs {a} incorrectly"))
    for a in range(g.n_transitions):
        b = g.inverse_table[a]
        us = g.unit_of.get(g.source[a])
        ut = g.unit_of.get(g.target[a])
        if g.source[b] == g.target[a]:
            if us is not None and comp((b, a)) not in (None, us):
                out.append(("inverse-law", (a,), f"inverse({a}) after {a} is not the unit at source"))
            if ut is not None and comp((a, b)) not in (None, ut):
                out.append(("inverse-law", (a,), f"{a} after inverse({a}) is not the unit at target"))
    for b in range(g.n_transitions):
        for a in g.out_of[g.target[b]]:
            ab = comp((a, b))
            if ab is None:
                continue
            for c in g.into[g.source[b]]:
                bc = comp((b, c))
                ab_c = comp((ab, c))
                a_bc = comp((a, bc)) if bc is not None else None
                if ab_c is None or a_bc is None:
                    continue
                if ab_c != a_bc:
                    out.append(("associativity", (a, b, c), f"(({a};{b});{c})={ab_c} but ({a};({b};{c}))={a_bc}"))
    return out


def ref_multiply(a: AlgebraElement, b: AlgebraElement, g: Ref) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for i, ci in a.coeffs.items():
        for j, cj in b.coeffs.items():
            if g.source[i] == g.target[j]:
                k = g.compose(i, j)
                out[k] = out.get(k, 0j) + ci * cj
    return {k: v for k, v in out.items() if v != 0}


def ref_left_regular(a: AlgebraElement, g: Ref) -> np.ndarray:
    m = np.zeros((g.n_transitions, g.n_transitions), dtype=complex)
    for i, c in a.coeffs.items():
        for j in g.into[g.source[i]]:
            m[g.compose(i, j), j] += c
    return m


def ref_fundamental(a: AlgebraElement, g: Ref) -> np.ndarray:
    m = np.zeros((g.n_objects, g.n_objects), dtype=complex)
    for i, c in a.coeffs.items():
        m[g.target[i], g.source[i]] += c
    return m


def ref_phi(rho: np.ndarray, g: Ref, rep: str) -> dict[int, complex]:
    represent = ref_left_regular if rep == LEFT_REGULAR else ref_fundamental
    return {
        t: complex(np.trace(rho @ represent(AlgebraElement.from_transition(t), g)))
        for t in range(g.n_transitions)
    }


def ref_decoherence(phi: dict[int, complex], g: Ref, sa, sb) -> complex:
    total = 0j
    for alpha in sa:
        for beta in sb:
            if g.target[alpha] == g.target[beta]:
                total += phi[g.compose(g.inverse_table[alpha], beta)]
    return total


def _element(rng: np.random.Generator, n: int) -> AlgebraElement:
    support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    return AlgebraElement({int(t): complex(*rng.standard_normal(2)) for t in support})


def _violations(g: Groupoid) -> list[tuple]:
    report = validate(g)
    for v in report.violations:
        assert all(type(s) is int for s in v.subject), v
    return [(v.kind, v.subject, v.message) for v in report.violations]


# -- validate -------------------------------------------------------------------


@SETTINGS
@given(random_groupoids(), st.data())
def test_validate_matches_reference_on_one_corrupted_entry(g, data):
    assert _violations(g) == ref_validate(Ref(g)) == []
    comp, inverse, unit_of = dict(g.composition), g.inverse_table.copy(), dict(g.unit_of)
    n = g.n_transitions
    spurious = [(a, b) for a in range(n) for b in range(n) if (a, b) not in comp]
    kinds = ["change", "delete", "inverse", "unit"] + (["spurious"] if spurious else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "spurious":
        comp[data.draw(st.sampled_from(spurious))] = data.draw(st.integers(0, n - 1))
    elif kind == "inverse":
        inverse[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
    elif kind == "unit":
        unit_of[data.draw(st.integers(0, g.n_objects - 1))] = data.draw(st.integers(0, n - 1))
    else:
        key = data.draw(st.sampled_from(sorted(comp)))
        if kind == "delete":
            del comp[key]
        else:
            comp[key] = data.draw(st.integers(0, n - 1).filter(lambda c: c != comp[key]))
    broken = Groupoid(g.object_labels, g.source, g.target, unit_of, inverse, comp)
    got = _violations(broken)
    assert got == ref_validate(Ref(broken, comp))
    assert str(validate(broken)).splitlines()[1:] == [f"  [{k}] {s}: {m}" for k, s, m in got]


# -- algebra --------------------------------------------------------------------


@SETTINGS
@given(random_groupoids(), st.integers(0, 2**32 - 1))
def test_products_and_representations_match_reference(g, seed):
    rng = np.random.default_rng(seed)
    ref = Ref(g)
    a, b = _element(rng, g.n_transitions), _element(rng, g.n_transitions)
    got, want = multiply(a, b, g).coeffs, ref_multiply(a, b, ref)
    assert got.keys() == want.keys()
    assert all(abs(got[k] - want[k]) <= 1e-12 for k in want)
    # scatters of the same coefficients in the same order: bit-for-bit equal
    assert np.array_equal(left_regular(a, g).matrix, ref_left_regular(a, ref))
    assert np.array_equal(fundamental(a, g).matrix, ref_fundamental(a, ref))


# -- states ---------------------------------------------------------------------


@SETTINGS
@given(random_groupoids(), st.integers(0, 2**32 - 1), st.sampled_from([LEFT_REGULAR, FUNDAMENTAL]))
def test_states_and_functional_match_reference(g, seed, rep):
    rng = np.random.default_rng(seed)
    ref = Ref(g)
    rho = random_density(rng, g.n_transitions if rep == LEFT_REGULAR else g.n_objects)
    s = state_from_density(rho, g, rep)
    want = ref_phi(rho, ref, rep)
    assert s.phi.keys() == want.keys()
    assert max(abs(s.phi[t] - want[t]) for t in want) <= 1e-12
    for _ in range(3):
        sa = frozenset(rng.choice(g.n_transitions, size=int(rng.integers(0, g.n_transitions + 1)), replace=False).tolist())
        sb = frozenset(rng.choice(g.n_transitions, size=int(rng.integers(0, g.n_transitions + 1)), replace=False).tolist())
        d = decoherence_functional(s, sa, sb)
        assert type(d) is complex
        assert abs(d - ref_decoherence(s.phi, ref, sa, sb)) <= 1e-12


# -- text format ----------------------------------------------------------------


@SETTINGS
@given(random_groupoids())
def test_text_roundtrip_restores_the_tables(g):
    assert parse_groupoid_text(dump_groupoid_text(g)) == g


@SETTINGS
@given(random_groupoids())
def test_accessors_return_python_ints(g):
    t = g.transition(g.n_transitions - 1)
    first = g.unit(int(g.target[0]))
    scalars = (t.id, t.source, t.target, g.inverse(0), g.unit(0), g.compose(first, 0), g.n_transitions)
    assert all(type(v) is int for v in scalars)
    for x in range(g.n_objects):
        ids = g.transitions_into(x) + g.transitions_out_of(x) + g.loops_at(x)
        assert ids and all(type(i) is int for i in ids)
    assert all(type(k) is int for pair in g.composition for k in pair)


def test_tables_are_read_only():
    g = Groupoid(["x"], [0], [0], [0], [0], np.array([[0]]))
    assert dict(g.composition) == {(0, 0): 0}
    with pytest.raises(TypeError):
        g.composition[(0, 0)] = 1
    with pytest.raises(ValueError):
        g.table[0, 0] = 1
    with pytest.raises(ValueError, match="composition entry out of range"):
        Groupoid(["x"], [0], [0], [0], [0], np.array([[1]]))


def test_gram_check_rejects_a_table_gap():
    g = pair_groupoid(2)
    comp = dict(g.composition)
    del comp[(1, 2)]  # inverse(2) after 2, an entry of the Gram matrix at object 0
    broken = Groupoid(g.object_labels, g.source, g.target, g.unit_of, g.inverse_table, comp)
    with pytest.raises(ValueError, match="no entry for a pair into object 0"):
        state_from_phi({0: 0.5, 3: 0.5}, broken)
