"""Core groupoid structure: generators, validation, orbits, isotropy."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GROUPS, random_groupoids
from groupoidqm import (
    Groupoid,
    block_structure,
    cyclic_group,
    direct_product,
    discrete_groupoid,
    disjoint_union,
    group_groupoid,
    has_abelian_isotropy,
    is_totally_disconnected,
    orbit_blocks,
    orbit_decomposition,
    pair_groupoid,
    symmetric_group,
    validate,
)
from groupoidqm.algebra import FUNDAMENTAL, LEFT_REGULAR
from groupoidqm.dynamics import BlockStructure


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


def _reference_symmetric_table(n: int) -> list[list[int]]:
    """The permutation table one product at a time: row p, column q holds p∘q, "q first, then p"."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_group_table_matches_the_per_product_table(n):
    g = symmetric_group(n)
    assert g == group_groupoid(_reference_symmetric_table(n))
    assert g.table.tolist() == _reference_symmetric_table(n)


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


def reference_check_group_table(table):
    """(identity, inverse list) of a group table, or the ValueError of a plain per-entry check."""
    n = len(table)
    if n == 0:
        raise ValueError("empty multiplication table")
    for row in table:
        if len(row) != n or sorted(row) != list(range(n)):
            raise ValueError("multiplication table rows must be permutations of 0..n-1")
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != list(range(n)):
            raise ValueError("multiplication table columns must be permutations of 0..n-1")
    identity = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("multiplication table has no identity element")
    inv = [-1] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == identity and table[b][a] == identity:
                inv[a] = b
                break
        if inv[a] < 0:
            raise ValueError(f"element {a} has no two-sided inverse")
    t = np.asarray(table, dtype=np.intp)
    for a in range(n):
        bad = np.argwhere(t[t[a]] != t[a][t])  # (a b) c against a (b c), in row-major (b, c) order
        if bad.size:
            raise ValueError(f"multiplication table is not associative at ({a}, {bad[0, 0]}, {bad[0, 1]})")
    return identity, inv


# a loop of order 5 with identity 0 in which 2 b = 0 needs b = 3 but 3 2 = 1
ONE_SIDED_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]
# a non-associative loop of order 6 whose first failure in (b, a, c) order, under every
# relabelling, is not its lexicographically first (a, b, c)
LOOP_OF_ORDER_6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 4, 5, 0, 1, 2],
    [4, 5, 0, 1, 2, 3],
    [5, 2, 1, 4, 3, 0],
]
BASE_TABLES = [make().table.tolist() for make in GROUPS.values()]
BASE_TABLES += [NON_ASSOCIATIVE_LOOP, LOOP_OF_ORDER_6, ONE_SIDED_LOOP]
CORRUPTIONS = ["none", "swap", "overwrite", "out-of-range", "non-integer", "ragged", "swap-rows"]


@st.composite
def group_tables(draw):
    """A base table relabelled by a drawn permutation, then possibly corrupted in one place."""
    base = draw(st.sampled_from(BASE_TABLES))
    n = len(base)
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[base[a][b]]
    kind = draw(st.sampled_from(CORRUPTIONS))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    (r, c), (r2, c2) = draw(cell), draw(cell)
    if kind == "swap":
        table[r][c], table[r2][c2] = table[r2][c2], table[r][c]
    elif kind == "overwrite":
        table[r][c] = draw(st.integers(0, n - 1))
    elif kind == "out-of-range":
        table[r][c] = draw(st.sampled_from([-1, n, n + 7]))
    elif kind == "non-integer":
        table[r][c] += draw(st.sampled_from([0.5, -0.25, float("nan")]))
    elif kind == "ragged":
        table[r] = table[r][:-1] if draw(st.booleans()) else table[r] + [c]
    elif kind == "swap-rows":
        table[r], table[r2] = table[r2], table[r]
    return table


@settings(deadline=None, max_examples=300)
@given(group_tables())
def test_group_groupoid_matches_the_per_entry_reference(table):
    try:
        identity, inv = reference_check_group_table(table)
    except ValueError as e:
        with pytest.raises(ValueError) as exc:
            group_groupoid(table)
        assert str(exc.value) == str(e)
        return
    n = len(table)
    assert group_groupoid(table) == Groupoid(["*"], [0] * n, [0] * n, [identity], inv, table)


def test_group_groupoid_names_an_element_without_a_two_sided_inverse():
    with pytest.raises(ValueError) as exc:
        group_groupoid(ONE_SIDED_LOOP)
    assert str(exc.value) == "element 2 has no two-sided inverse"


def test_symmetric_group_6_has_inverses_and_permutation_products():
    g = symmetric_group(6)
    perms = sorted(itertools.permutations(range(6)))
    index = {p: i for i, p in enumerate(perms)}
    assert (g.table[np.arange(720), g.inverse_table] == 0).all()
    assert g.unit_of == {0: 0} and perms[0] == tuple(range(6))
    rng = np.random.default_rng(6)
    for p, q in rng.integers(0, 720, size=(500, 2)).tolist():
        assert g.table[p, q] == index[tuple(perms[p][k] for k in perms[q])]


@pytest.mark.parametrize("n", range(1, 17))
def test_cyclic_group_is_valid(n):
    assert validate(cyclic_group(n)).is_valid


def test_validate_takes_a_groupoid_without_transitions():
    report = validate(Groupoid(["x"], [], [], {}, [], {}))
    assert [v.kind for v in report.violations] == ["missing-unit"]


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


def reference_orbit_decomposition(g: Groupoid) -> tuple[tuple, tuple]:
    """(orbits, isotropy) by union-find over the transitions, each root the least object of its orbit."""
    parent = list(range(g.n_objects))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(g.source.tolist(), g.target.tolist()):
        a, b = find(x), find(y)
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for x in range(g.n_objects):
        groups.setdefault(find(x), []).append(x)
    return tuple(tuple(groups[r]) for r in sorted(groups)), tuple(g.loops_at(x) for x in range(g.n_objects))


def reference_orbit_blocks(g: Groupoid, rep: str) -> list[np.ndarray]:
    orbits = reference_orbit_decomposition(g)[0]
    if rep == FUNDAMENTAL:
        return [np.array([orb]) for orb in orbits]
    out, w = [], np.empty(g.n_objects, dtype=np.intp)
    for orb in orbits:
        into = np.flatnonzero(g.target == orb[0])
        w[g.source[into]], w[orb[0]] = into, g.unit(orb[0])
        out.append(g.table[np.flatnonzero(g.source == orb[0])[None, :], w[list(orb)][:, None]])
    return out


def reference_block_structure(product: Groupoid) -> BlockStructure:
    ga, gb = product.factors
    orbits = reference_orbit_decomposition(ga)[0]
    orbit_of = np.empty(ga.n_objects, dtype=np.intp)
    for k, orb in enumerate(orbits):
        orbit_of[list(orb)] = k
    block_of = orbit_of[np.arange(product.n_objects) // gb.n_objects]
    blocks = tuple(tuple(np.flatnonzero(block_of == k).tolist()) for k in range(len(orbits)))
    return BlockStructure(blocks, tuple("+".join(ga.label(x) for x in orb) for orb in orbits))


@settings(deadline=None, max_examples=60)
@given(st.lists(random_groupoids(max_transitions=12), min_size=2, max_size=3), st.booleans())
def test_orbit_table_equals_the_union_find_reference(parts, product):
    first = parts[0] if len(parts) == 2 else disjoint_union(parts[:2])
    g = direct_product(first, parts[-1]) if product else disjoint_union(parts)
    for h in (parts[0], g):
        dec = orbit_decomposition(h)
        assert (dec.orbits, dec.isotropy) == reference_orbit_decomposition(h)
        for rep in (LEFT_REGULAR, FUNDAMENTAL):
            got, want = orbit_blocks(h, rep), reference_orbit_blocks(h, rep)
            assert [(b.dtype, b.tolist()) for b in got] == [(b.dtype, b.tolist()) for b in want]
    if product:
        assert block_structure(g) == reference_block_structure(g)


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
