"""Core groupoid structure: generators, validation, orbits, isotropy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_groupoids
from groupoidqm import (
    Groupoid,
    cyclic_group,
    direct_product,
    discrete_groupoid,
    disjoint_union,
    group_groupoid,
    has_abelian_isotropy,
    is_totally_disconnected,
    orbit_decomposition,
    pair_groupoid,
    symmetric_group,
    validate,
)


def sample_groupoids() -> list[Groupoid]:
    return [
        discrete_groupoid(3),
        pair_groupoid(2),
        pair_groupoid(3),
        cyclic_group(1),
        cyclic_group(4),
        symmetric_group(3),
        disjoint_union([cyclic_group(2), cyclic_group(3)]),
        disjoint_union([pair_groupoid(2), cyclic_group(2)]),
        direct_product(pair_groupoid(2), cyclic_group(2)),
        direct_product(pair_groupoid(2), pair_groupoid(2)),
    ]


# -- pair groupoid layout --------------------------------------------------


def test_pair_groupoid_layout():
    g = pair_groupoid(2)
    assert g.n_objects == 2
    assert g.n_transitions == 4
    # transition x*n + y runs x -> y
    assert (g.source[1], g.target[1]) == (0, 1)
    assert (g.source[2], g.target[2]) == (1, 0)
    assert g.unit(0) == 0 and g.unit(1) == 3
    assert g.is_unit(0) and g.is_unit(3)
    assert not g.is_unit(1)
    assert g.inverse(1) == 2 and g.inverse(2) == 1
    # second argument happens first: (0->1) then (1->0) lands back at 0
    assert g.compose(2, 1) == 0
    assert g.compose(1, 2) == 3


def test_compose_rejects_noncomposable():
    g = pair_groupoid(2)
    assert not g.composable(1, 1)  # (0->1) cannot follow (0->1)
    with pytest.raises(ValueError, match="not composable"):
        g.compose(1, 1)


def test_accessors_reject_bad_object_index():
    g = pair_groupoid(2)
    with pytest.raises(ValueError, match="out of range"):
        g.transitions_into(2)
    with pytest.raises(ValueError, match="out of range"):
        g.transitions_between(0, -1)


def test_transitions_between():
    g = pair_groupoid(3)
    assert g.transitions_between(0, 1) == (1,)
    assert g.transitions_into(0) == (0, 3, 6)
    assert g.transitions_out_of(2) == (6, 7, 8)
    assert g.loops_at(1) == (4,)


# -- generators ------------------------------------------------------------


@pytest.mark.parametrize("g", sample_groupoids(), ids=lambda g: repr(g))
def test_generators_produce_valid_groupoids(g):
    report = validate(g)
    assert report.is_valid, str(report)


def test_pair_groupoid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        pair_groupoid(0)
    with pytest.raises(ValueError):
        pair_groupoid(2, labels=["only-one"])


def test_cyclic_group_structure():
    g = cyclic_group(4)
    assert g.n_objects == 1
    assert g.n_transitions == 4
    assert g.compose(1, 1) == 2
    assert g.compose(3, 1) == 0
    assert g.inverse(1) == 3


def test_symmetric_group_sizes():
    assert symmetric_group(1).n_transitions == 1
    assert symmetric_group(3).n_transitions == 6
    with pytest.raises(ValueError):
        symmetric_group(0)
    with pytest.raises(ValueError):
        symmetric_group(7)


def test_group_groupoid_rejects_non_latin_table():
    with pytest.raises(ValueError, match="permutations"):
        group_groupoid([[0, 1], [1, 1]])


def test_group_groupoid_rejects_table_without_identity():
    # subtraction mod 3 is a Latin square but has no two-sided identity
    table = [[(a - b) % 3 for b in range(3)] for a in range(3)]
    with pytest.raises(ValueError):
        group_groupoid(table)


# a loop of order 5: a Latin square with identity 0 in which every element is its own
# inverse, yet not associative, since the only group of order 5 is cyclic
NON_ASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def reference_associativity_error(table):
    """The first non-associative (a, b, c) in lexicographic order, by a plain triple loop."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return f"multiplication table is not associative at ({a}, {b}, {c})"
    return None


@settings(deadline=None, max_examples=30)
@given(st.permutations(range(5)), st.booleans())
def test_group_groupoid_reports_the_first_associativity_failure(perm, loop):
    base = NON_ASSOCIATIVE_LOOP if loop else [[(a + b) % 5 for b in range(5)] for a in range(5)]
    table = [[0] * 5 for _ in range(5)]
    for a in range(5):
        for b in range(5):
            table[perm[a]][perm[b]] = perm[base[a][b]]
    want = reference_associativity_error(table)
    if want is None:
        assert not loop
        assert group_groupoid(table).n_transitions == 5
        return
    with pytest.raises(ValueError) as exc:
        group_groupoid(table)
    assert str(exc.value) == want


def test_discrete_groupoid_is_all_units():
    g = discrete_groupoid(["up", "down"])
    assert g.n_objects == 2
    assert g.n_transitions == 2
    assert all(g.is_unit(t) for t in range(g.n_transitions))
    assert g.label(0) == "up"


def test_disjoint_union_offsets():
    g = disjoint_union([cyclic_group(2), cyclic_group(3)])
    assert g.n_objects == 2
    assert g.n_transitions == 5
    assert g.transitions_out_of(0) == (0, 1)
    assert g.transitions_out_of(1) == (2, 3, 4)
    # composition never crosses parts
    assert not g.composable(0, 2)


def test_direct_product_structure():
    a, b = pair_groupoid(2), cyclic_group(2)
    g = direct_product(a, b)
    assert g.n_objects == a.n_objects * b.n_objects
    assert g.n_transitions == a.n_transitions * b.n_transitions
    assert g.factors == (a, b)
    # componentwise composition
    for i in range(a.n_transitions):
        for j in range(b.n_transitions):
            t = i * b.n_transitions + j
            assert g.source[t] == a.source[i] * b.n_objects + b.source[j]
            assert g.target[t] == a.target[i] * b.n_objects + b.target[j]


# -- validation ------------------------------------------------------------


def _patched(g: Groupoid, **kwargs) -> Groupoid:
    base = dict(
        object_labels=g.object_labels,
        source=list(g.source),
        target=list(g.target),
        unit_of=dict(g.unit_of),
        inverse=list(g.inverse_table),
        composition=dict(g.composition),
    )
    base.update(kwargs)
    return Groupoid(**base)


def test_validate_flags_missing_unit():
    g = pair_groupoid(2)
    broken = _patched(g, unit_of={0: 0})
    report = validate(broken)
    assert not report.is_valid
    assert "missing-unit" in report.kinds()
    assert any(v.subject == (1,) for v in report.violations if v.kind == "missing-unit")


def test_validate_flags_bad_inverse():
    g = pair_groupoid(2)
    bad = list(g.inverse_table)
    bad[1] = 1  # claims (0->1) is its own inverse
    report = validate(_patched(g, inverse=bad))
    assert not report.is_valid
    assert "bad-inverse-endpoints" in report.kinds()
    assert "non-bijective-inverse" in report.kinds()


def test_validate_flags_wrong_composite_endpoints():
    g = pair_groupoid(2)
    comp = dict(g.composition)
    comp[(2, 1)] = 1  # (0->1)(1->0) must land on a loop at 0, not on (0->1)
    report = validate(_patched(g, composition=comp))
    assert not report.is_valid
    assert "bad-composite-endpoints" in report.kinds()
    assert any(v.subject[:2] == (2, 1) for v in report.violations)


def test_validate_flags_missing_composite():
    g = pair_groupoid(2)
    comp = dict(g.composition)
    del comp[(2, 1)]
    report = validate(_patched(g, composition=comp))
    assert not report.is_valid
    assert "missing-composition" in report.kinds()


def test_validate_flags_associativity_break():
    g = cyclic_group(3)
    comp = dict(g.composition)
    comp[(1, 1)] = 0  # 1+1 = 0 breaks associativity while endpoints stay fine
    report = validate(_patched(g, composition=comp))
    assert not report.is_valid
    assert "associativity" in report.kinds()
    triples = [v.subject for v in report.violations if v.kind == "associativity"]
    assert triples and all(len(t) == 3 for t in triples)


def test_constructor_rejects_out_of_range_tables():
    with pytest.raises(ValueError):
        Groupoid(["x"], source=[0], target=[1], unit_of={0: 0}, inverse=[0], composition={(0, 0): 0})


# -- orbits and classification ----------------------------------------------


def test_orbit_decomposition_pair_and_union():
    g = disjoint_union([pair_groupoid(2), cyclic_group(3)])
    dec = orbit_decomposition(g)
    assert dec.n_orbits == 2
    assert dec.orbits == ((0, 1), (2,))
    # isotropy is recorded per object: unit loops only on the pair part,
    # the full cyclic group on the one-object part
    assert dec.isotropy[0] == (g.unit(0),)
    assert dec.isotropy[2] == (4, 5, 6)


def test_total_disconnectedness():
    assert is_totally_disconnected(cyclic_group(5))
    assert is_totally_disconnected(disjoint_union([symmetric_group(3), cyclic_group(2)]))
    assert not is_totally_disconnected(pair_groupoid(2))
    assert not is_totally_disconnected(direct_product(pair_groupoid(2), cyclic_group(2)))


def test_abelian_isotropy():
    assert has_abelian_isotropy(cyclic_group(6))
    assert has_abelian_isotropy(pair_groupoid(3))
    assert not has_abelian_isotropy(symmetric_group(3))
    assert not has_abelian_isotropy(disjoint_union([cyclic_group(2), symmetric_group(3)]))


def test_structural_equality_ignores_provenance():
    a = direct_product(cyclic_group(2), cyclic_group(3))
    b = _patched(a)  # same tables, no factors
    assert a == b
    assert b.factors is None


# -- axioms as properties ----------------------------------------------------


groupoid_strategy = random_groupoids()


@settings(deadline=None)
@given(groupoid_strategy, st.data())
def test_inverse_is_involutive_and_swaps_endpoints(g, data):
    t = data.draw(st.integers(0, g.n_transitions - 1))
    s = g.inverse(t)
    assert g.inverse(s) == t
    assert g.source[s] == g.target[t]
    assert g.target[s] == g.source[t]


@settings(deadline=None)
@given(groupoid_strategy, st.data())
def test_inverse_composes_to_units(g, data):
    t = data.draw(st.integers(0, g.n_transitions - 1))
    assert g.compose(g.inverse(t), t) == g.unit(g.source[t])
    assert g.compose(t, g.inverse(t)) == g.unit(g.target[t])


@settings(deadline=None)
@given(groupoid_strategy, st.data())
def test_units_are_neutral(g, data):
    t = data.draw(st.integers(0, g.n_transitions - 1))
    assert g.compose(g.unit(g.target[t]), t) == t
    assert g.compose(t, g.unit(g.source[t])) == t


@settings(deadline=None)
@given(groupoid_strategy, st.data())
def test_composition_is_associative(g, data):
    t = data.draw(st.integers(0, g.n_transitions - 1))
    heads = [u for u in range(g.n_transitions) if g.composable(u, t)]
    u = data.draw(st.sampled_from(heads))
    nexts = [w for w in range(g.n_transitions) if g.composable(w, u)]
    w = data.draw(st.sampled_from(nexts))
    assert g.compose(w, g.compose(u, t)) == g.compose(g.compose(w, u), t)
