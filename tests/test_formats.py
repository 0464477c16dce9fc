"""File formats: groupoid text, JSON payloads, bundled fixtures."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_groupoids
from groupoidqm import (
    AlgebraElement,
    FormatError,
    Groupoid,
    Operator,
    cyclic_group,
    direct_product,
    disjoint_union,
    dump_element,
    dump_groupoid_text,
    dump_history_sets,
    dump_operator,
    dump_state,
    fixture_path,
    load_element,
    load_groupoid,
    load_history_sets,
    load_operator,
    load_state,
    pair_groupoid,
    parse_groupoid_text,
    pure_state,
    save_groupoid,
    state_from_density,
    symmetric_group,
    validate,
)
from groupoidqm.formats import dump_json, parse_complex_matrix, read_json

VALID_TEXT = """\
# two outcomes, one connecting transition each way
objects: x y
transition: a x x unit
transition: f x y
transition: g y x
transition: b y y unit
inverse: a a
inverse: f g
inverse: b b
compose: a a a
compose: a g g
compose: f a f
compose: f g b
compose: g f a
compose: g b g
compose: b f f
compose: b b b
"""


def problems_of(text: str, **kwargs) -> list[str]:
    with pytest.raises(FormatError) as exc:
        parse_groupoid_text(text, **kwargs)
    return exc.value.problems


# -- groupoid text ------------------------------------------------------------


def test_parse_valid_groupoid_text():
    g = parse_groupoid_text(VALID_TEXT)
    assert g.object_labels == ("x", "y")
    assert g.n_transitions == 4
    assert g == pair_groupoid(2, labels=["x", "y"])


def test_groupoid_text_roundtrip():
    for g in (pair_groupoid(3), symmetric_group(3), disjoint_union([cyclic_group(2), cyclic_group(3)])):
        back = parse_groupoid_text(dump_groupoid_text(g))
        assert back == g
        assert list(back.unit_of.items()) == list(g.unit_of.items())  # in object order, which == does not see


def test_units_keep_their_declaration_order():
    text = "objects: x y\ntransition: v y y unit\ntransition: u x x unit\ninverse: u u\ninverse: v v\ncompose: u u u\ncompose: v v v\n"
    assert list(parse_groupoid_text(text).unit_of.items()) == [(1, 0), (0, 1)]


def test_product_roundtrip_keeps_tables_but_not_provenance():
    g = direct_product(pair_groupoid(2), cyclic_group(2))
    back = parse_groupoid_text(dump_groupoid_text(g))
    assert back == g
    assert back.factors is None


def test_save_and_load(tmp_path):
    path = tmp_path / "pair.groupoid"
    save_groupoid(pair_groupoid(2), str(path))
    assert load_groupoid(str(path)) == pair_groupoid(2)


def test_dump_names_parameter():
    text = dump_groupoid_text(cyclic_group(2), names=["e", "s"])
    assert "transition: e" in text and "compose: s s e" in text


def test_dump_rejects_unwritable_labels():
    with pytest.raises(ValueError, match="cannot be written"):
        dump_groupoid_text(pair_groupoid(2, labels=["a b", "c"]))


def test_comments_and_blank_lines_are_ignored():
    noisy = "\n# leading comment\n\n" + VALID_TEXT.replace("objects: x y", "objects: x y  # trailing")
    assert parse_groupoid_text(noisy) == pair_groupoid(2, labels=["x", "y"])


def test_syntax_problems_carry_line_numbers():
    probs = problems_of("objects: x\nwhat is this\nspin: up\ntransition: a x\n")
    assert probs == [
        "line 2: expected 'keyword: ...', got 'what is this'",
        "line 3: unknown keyword 'spin'",
        "line 4: expected 'transition: <id> <source> <target> [unit]'",
    ]


def test_duplicate_declarations_are_reported():
    probs = problems_of("objects: x x\nobjects: y\ntransition: a x x unit\ntransition: a x x\n")
    assert any("duplicate object labels" in p for p in probs)
    assert any("duplicate objects declaration" in p for p in probs)
    assert any("duplicate transition id 'a'" in p for p in probs)


def test_missing_objects_declaration():
    probs = problems_of("transition: a x x unit\n")
    assert "missing 'objects:' declaration" in probs


def test_unknown_object_and_id_references():
    text = "objects: x\ntransition: a x x unit\ntransition: f x z\ninverse: a a\ninverse: f q\ncompose: a a a\n"
    probs = problems_of(text)
    assert any(p.startswith("line 3: unknown target object 'z'") for p in probs)
    assert any(p.startswith("line 5: unknown transition id 'q'") for p in probs)


def test_unit_flag_problems():
    text = "objects: x y\ntransition: f x y unit\ninverse: f f\n"
    probs = problems_of(text)
    assert any("unit flag on a non-loop transition" in p for p in probs)


def test_undeclared_inverse_points_at_the_transition_line():
    text = "objects: x\ntransition: a x x unit\ncompose: a a a\n"
    probs = problems_of(text)
    assert probs == ["line 2: transition 'a' has no declared inverse"]


def test_conflicting_composition_is_reported():
    text = VALID_TEXT + "compose: g f g\n"
    probs = problems_of(text)
    assert probs == ["line 18: conflicting composition for ('g', 'f') (first on line 14)"]


def test_axiom_violations_map_back_to_lines():
    # drop one composition entry: the axiom check should cite the groupoid
    # problem while naming declared transition ids
    text = VALID_TEXT.replace("compose: g f a\n", "")
    probs = problems_of(text)
    assert any("[missing-composition]" in p and "'g'" in p for p in probs)


def test_check_false_defers_axiom_checks():
    text = VALID_TEXT.replace("compose: g f a\n", "")
    g = parse_groupoid_text(text, check=False)
    assert not validate(g).is_valid


def test_format_error_pretty_layout():
    err = FormatError("input.groupoid", ["line 1: first", "line 9: second"])
    assert err.pretty() == "input.groupoid:\n  line 1: first\n  line 9: second"


# -- states ---------------------------------------------------------------------


def test_state_vector_roundtrip(tmp_path):
    g = pair_groupoid(2)
    vec = np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2)
    path = tmp_path / "s.state"
    path.write_text(json.dumps(dump_state(pure_state(vec, g))))
    s = load_state(str(path), g)
    assert s.vector is not None
    assert_allclose(s.vector, vec)


def test_state_density_roundtrip(tmp_path):
    g = pair_groupoid(2)
    rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
    path = tmp_path / "s.state"
    path.write_text(json.dumps(dump_state(state_from_density(rho, g))))
    s = load_state(str(path), g)
    assert_allclose(s.density, rho)


def test_state_phi_roundtrip(tmp_path):
    g = cyclic_group(2)
    from groupoidqm import state_from_phi

    s0 = state_from_phi({0: 1.0, 1: 0.5}, g)
    path = tmp_path / "s.state"
    path.write_text(json.dumps(dump_state(s0)))
    s = load_state(str(path), g)
    assert s.phi[1] == pytest.approx(0.5)


def test_state_file_problems(tmp_path):
    g = pair_groupoid(2)
    cases = [
        ({"rep": "spin", "density": [[[1.0, 0.0]]]}, "unknown representation"),
        ({"vector": [[1.0, 0.0], [0.0]]}, "entries must be"),
        ({}, "needs a 'vector', 'density' or 'phi' field"),
        ([1, 2], "must be a JSON object"),
        ({"phi": [{"transition_id": None, "re": 1.0}]}, "term 0: transition_id must be an integer"),
        ({"phi": [{"transition_id": 1.5, "re": 1.0}]}, "term 0: transition_id must be an integer"),
        ({"phi": [{"transition_id": True, "re": 1.0}]}, "term 0: transition_id must be an integer"),
        ({"phi": [{"transition_id": 0, "re": "abc"}]}, "term 0: re and im must be real numbers"),
        ({"phi": [{"transition_id": 0, "re": 1.0}, {"transition_id": 1, "re": float("nan")}]},
         "term 1: transition 1 has a non-finite value"),
        ({"vector": [[1.0, 0.0], [0.0, float("inf")], [0.0, 0.0], [0.0, 0.0]]}, r"vector\[1\] is not finite"),
        ({"density": [[[0.5, 0.0], [float("nan"), 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}, r"density\[0\]\[1\] is not finite"),
    ]
    for payload, fragment in cases:
        path = tmp_path / "bad.state"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=fragment):
            load_state(str(path), g)


# -- elements, history sets, operators ----------------------------------------------


def test_element_roundtrip(tmp_path):
    a = AlgebraElement({1: 1.0 + 2.0j, 3: -0.5})
    path = tmp_path / "h.element"
    path.write_text(json.dumps(dump_element(a)))
    assert load_element(str(path)) == a


def test_element_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "h.element"
    payload = [{"transition_id": 1, "re": 1.0}, {"transition_id": 1, "im": 1.0}]
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="duplicate transition_id"):
        load_element(str(path))


@pytest.mark.parametrize(
    "term,fragment",
    [
        ({"transition_id": None}, "transition_id must be an integer"),
        ({"transition_id": 1.5}, "transition_id must be an integer"),
        ({"transition_id": True}, "transition_id must be an integer"),
        ({"transition_id": 2, "re": "abc"}, "re and im must be real numbers"),
        ({"transition_id": 2, "re": float("nan")}, "transition 2 has a non-finite value"),
        ({"transition_id": 3, "im": float("-inf")}, "transition 3 has a non-finite value"),
    ],
)
def test_element_terms_are_typed(tmp_path, term, fragment):
    path = tmp_path / "h.element"
    path.write_text(json.dumps({"terms": [{"transition_id": 0, "re": 1.0}, term]}))
    with pytest.raises(FormatError, match=f"term 1: {fragment}") as exc:
        load_element(str(path))
    assert exc.value.origin == str(path)


HUGE = 10**400  # an integer no float can hold; JSON writes it digit for digit


@pytest.mark.parametrize(
    "kind, payload, fragment",
    [
        ("state", {"phi": [{"transition_id": 0, "re": 1.0}, {"transition_id": 1, "re": HUGE}]},
         "term 1: transition 1 has a value too large for a float"),
        ("state", {"vector": [[1, 0], [0, 0], [0, -HUGE], [0, 0]]}, "vector[2] is not finite"),
        ("state", {"density": [[[0, 0]] * 4, [[0, 0]] * 4, [[0, 0], [0, 0], [0, 0], [HUGE, 0]], [[0, 0]] * 4]},
         "density[2][3] is not finite"),
        ("element", {"terms": [{"transition_id": 0, "re": 1.0}, {"transition_id": 3, "im": HUGE}]},
         "term 1: transition 3 has a value too large for a float"),
        ("operator", {"matrix": [[[HUGE, 0], [0, 0]], [[0, 0], [1, 0]]]}, "matrix[0][0] is not finite"),
    ],
    ids=["phi", "vector", "density", "element", "operator"],
)
def test_integers_too_large_for_a_float_are_rejected(tmp_path, kind, payload, fragment):
    path = tmp_path / f"huge.{kind}"
    path.write_text(json.dumps(payload))
    load = {"state": lambda p: load_state(p, pair_groupoid(2)), "element": load_element, "operator": load_operator}[kind]
    with pytest.raises(FormatError, match=fragment.replace("[", r"\[").replace("]", r"\]")) as exc:
        load(str(path))
    assert exc.value.origin == str(path)
    # just below the float range the value loads, and only the finiteness guards apply
    assert parse_complex_matrix([[2**1023, 0]], "origin", "vector")[0] == 2.0**1023


def test_history_sets_roundtrip(tmp_path):
    sets = [("stay", {0}), ("flip", {1, 2})]
    path = tmp_path / "h.sets"
    path.write_text(json.dumps(dump_history_sets(sets)))
    loaded = load_history_sets(str(path))
    assert loaded == [("stay", frozenset({0})), ("flip", frozenset({1, 2}))]


def test_history_sets_accept_bare_lists(tmp_path):
    path = tmp_path / "h.sets"
    path.write_text(json.dumps([[0, 1], [2]]))
    loaded = load_history_sets(str(path))
    assert loaded == [("S0", frozenset({0, 1})), ("S1", frozenset({2}))]


def test_history_sets_problems(tmp_path):
    path = tmp_path / "h.sets"
    path.write_text(json.dumps({"sets": [{"name": "a", "transitions": [0]}, {"name": "a", "transitions": [1]}]}))
    with pytest.raises(FormatError, match="duplicate name"):
        load_history_sets(str(path))
    path.write_text(json.dumps([["zero"]]))
    with pytest.raises(FormatError, match="integer ids"):
        load_history_sets(str(path))
    # JSON booleans are not transition ids, although bool is an int subclass
    for ids in ([True], [0, False]):
        path.write_text(json.dumps({"sets": [{"name": "a", "transitions": ids}]}))
        with pytest.raises(FormatError, match="set 0: transitions must be a list of integer ids"):
            load_history_sets(str(path))


def test_operator_roundtrip(tmp_path):
    op = Operator("fundamental", np.array([[0.0, 1.0j], [-1.0j, 0.0]]))
    path = tmp_path / "m.operator"
    path.write_text(json.dumps(dump_operator(op)))
    back = load_operator(str(path))
    assert back.rep == "fundamental"
    assert_allclose(back.matrix, op.matrix)


def test_operator_dim_mismatch(tmp_path):
    path = tmp_path / "m.operator"
    path.write_text(json.dumps({"dim": 3, "matrix": [[[1.0, 0.0]]]}))
    with pytest.raises(FormatError, match="declared dim"):
        load_operator(str(path))


@pytest.mark.parametrize("dim", [None, "1", 1.0, True], ids=["null", "string", "float", "bool"])
def test_operator_dim_must_be_an_integer(tmp_path, dim):
    path = tmp_path / "m.operator"
    path.write_text(json.dumps({"dim": dim, "matrix": [[[1.0, 0.0]]]}))
    with pytest.raises(FormatError, match="dim must be an integer") as exc:
        load_operator(str(path))
    assert exc.value.origin == str(path)


# -- JSON plumbing ---------------------------------------------------------------


def test_read_json_reports_the_broken_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "a": 1,\n}')
    with pytest.raises(FormatError, match="line 3"):
        read_json(str(path))


def test_read_json_names_the_file_for_an_integer_past_the_digit_limit(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"re": 1%s}\n' % ("0" * 4400))
    with pytest.raises(FormatError) as info:
        read_json(str(path))
    assert info.value.origin == str(path) and "invalid JSON" in info.value.problems[0]


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | st.text()
)


@settings(deadline=None, max_examples=200)
@given(
    st.recursive(
        _JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=30,
    )
)
def test_dump_json_matches_json_dumps_byte_for_byte(payload):
    assert dump_json(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_dump_json_matches_json_dumps_on_subclasses_and_keys():
    payload = {
        "np": [np.float64(1.5), np.float64("nan"), True, None],
        "keys": {"b": 1, "a": {"": [], "é\u2028\x00": {}}},
        "int_keys": {2: "x", 1: "y"},
        "float_keys": {1.5: 0, -0.5: 1},
        "other_keys": {True: "t"},
        "none_key": {None: 1},
    }
    assert dump_json(payload) == json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dump_json({"x": {1, 2}})


def test_parse_complex_matrix_shapes():
    vec = parse_complex_matrix([[1.0, 2.0], [3.0, 4.0]], "t", "vector")
    assert_allclose(vec, [1.0 + 2.0j, 3.0 + 4.0j])
    mat = parse_complex_matrix([[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]], "t", "matrix")
    assert mat.shape == (2, 2)
    with pytest.raises(FormatError, match="vector or square matrix"):
        parse_complex_matrix([[[1.0, 0.0], [0.0, 1.0]]], "t", "matrix")
    with pytest.raises(FormatError, match="vector or square matrix"):
        parse_complex_matrix([1.0, 2.0], "t", "vector")


# -- bundled fixtures --------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["cat.groupoid", "radioactive.groupoid", "quantum_cat.groupoid", "cat_s3.groupoid",
     "z4.groupoid", "z2z3.groupoid", "s3.groupoid"],
)
def test_bundled_groupoids_are_valid(name):
    g = load_groupoid(fixture_path(name))
    assert validate(g).is_valid


def test_bundled_quantum_cat_is_the_pair_groupoid():
    g = load_groupoid(fixture_path("quantum_cat.groupoid"))
    assert g == pair_groupoid(2, labels=["alive", "dead"])


def test_bundled_states_load_against_their_groupoids():
    g = load_groupoid(fixture_path("quantum_cat.groupoid"))
    s = load_state(fixture_path("superposition.state"), g)
    assert s.vector is not None
    d = load_state(fixture_path("diagonal.state"), g)
    assert d.density is not None
    sets = load_history_sets(fixture_path("pair2.sets"))
    assert [name for name, _ in sets] == ["stay", "return", "flip"]
    elem = load_element(fixture_path("hopping.element"))
    assert elem.support == {1, 2}


# -- parser diagnostics against the per-line reference --------------------------------


def ref_parse_problems(text: str) -> list[str]:
    """Problems of the earlier per-line parser, which resolved ``compose:`` lines one at a time; [] if it parses."""
    problems: list[str] = []
    object_labels: list[str] = []
    objects_line = None
    trans_names: list[str] = []
    trans_lines: dict[str, int] = {}
    trans_decl, inverse_decl, compose_decl = [], [], []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            problems.append(f"line {ln}: expected 'keyword: ...', got {raw.strip()!r}")
            continue
        key, rest = line.split(":", 1)
        key = key.strip()
        tokens = rest.split()
        if key == "objects":
            if objects_line is not None:
                problems.append(f"line {ln}: duplicate objects declaration (first on line {objects_line})")
                continue
            if not tokens:
                problems.append(f"line {ln}: objects declaration is empty")
            if len(set(tokens)) != len(tokens):
                problems.append(f"line {ln}: duplicate object labels")
            objects_line = ln
            object_labels = tokens
        elif key == "transition":
            if len(tokens) not in (3, 4) or (len(tokens) == 4 and tokens[3] != "unit"):
                problems.append(f"line {ln}: expected 'transition: <id> <source> <target> [unit]'")
                continue
            name = tokens[0]
            if name in trans_lines:
                problems.append(f"line {ln}: duplicate transition id {name!r} (first on line {trans_lines[name]})")
                continue
            trans_lines[name] = ln
            trans_names.append(name)
            trans_decl.append((ln, name, tokens[1], tokens[2], len(tokens) == 4))
        elif key == "inverse":
            if len(tokens) != 2:
                problems.append(f"line {ln}: expected 'inverse: <id> <id>'")
                continue
            inverse_decl.append((ln, tokens[0], tokens[1]))
        elif key == "compose":
            if len(tokens) != 3:
                problems.append(f"line {ln}: expected 'compose: <first> <second> <result>'")
                continue
            compose_decl.append((ln, tokens[0], tokens[1], tokens[2]))
        else:
            problems.append(f"line {ln}: unknown keyword {key!r}")
    if objects_line is None:
        problems.append("missing 'objects:' declaration")
    if problems:
        return problems
    obj_index = {lab: i for i, lab in enumerate(object_labels)}
    tr_index = {name: i for i, name in enumerate(trans_names)}
    source, target = [0] * len(trans_names), [0] * len(trans_names)
    unit_of: dict[int, int] = {}
    for ln, name, src, tgt, is_unit in trans_decl:
        i = tr_index[name]
        if src not in obj_index:
            problems.append(f"line {ln}: unknown source object {src!r}")
            continue
        if tgt not in obj_index:
            problems.append(f"line {ln}: unknown target object {tgt!r}")
            continue
        source[i], target[i] = obj_index[src], obj_index[tgt]
        if is_unit:
            if src != tgt:
                problems.append(f"line {ln}: unit flag on a non-loop transition")
            elif obj_index[src] in unit_of:
                problems.append(f"line {ln}: object {src!r} already has a unit")
            else:
                unit_of[obj_index[src]] = i
    inverse = [-1] * len(trans_names)
    for ln, a, b in inverse_decl:
        missing = [n for n in (a, b) if n not in tr_index]
        if missing:
            problems.append(f"line {ln}: unknown transition id {missing[0]!r}")
            continue
        for x, y in ((tr_index[a], tr_index[b]), (tr_index[b], tr_index[a])):
            if inverse[x] not in (-1, y):
                problems.append(f"line {ln}: conflicting inverse for {trans_names[x]!r}")
            inverse[x] = y
    for i, inv in enumerate(inverse):
        if inv == -1:
            problems.append(f"line {trans_lines[trans_names[i]]}: transition {trans_names[i]!r} has no declared inverse")
    composition: dict[tuple[int, int], int] = {}
    compose_lines: dict[tuple[int, int], int] = {}
    for ln, a, b, c in compose_decl:
        missing = [n for n in (a, b, c) if n not in tr_index]
        if missing:
            problems.append(f"line {ln}: unknown transition id {missing[0]!r}")
            continue
        key = (tr_index[a], tr_index[b])
        if key in composition and composition[key] != tr_index[c]:
            problems.append(f"line {ln}: conflicting composition for ({a!r}, {b!r}) (first on line {compose_lines[key]})")
            continue
        composition[key] = tr_index[c]
        compose_lines.setdefault(key, ln)
    if problems:
        return problems
    g = Groupoid(object_labels, source, target, unit_of, inverse, composition)
    object_kinds = ("missing-unit", "bad-unit", "duplicate-unit", "empty-groupoid")
    for v in validate(g).violations:
        if v.kind in object_kinds:
            loc = f" (see line {objects_line})"
        elif len(v.subject) >= 2 and (v.subject[0], v.subject[1]) in compose_lines:
            loc = f" (see line {compose_lines[(v.subject[0], v.subject[1])]})"
        elif v.subject and 0 <= v.subject[0] < len(trans_names):
            loc = f" (see line {trans_lines[trans_names[v.subject[0]]]})"
        else:
            loc = ""
        subject = tuple(trans_names[s] if v.kind not in object_kinds and 0 <= s < len(trans_names) else s for s in v.subject)
        problems.append(f"[{v.kind}] {subject}: {v.message}{loc}")
    return problems


def _corrupt_compose_lines(data, g) -> str:
    """Interleave unknown ids, conflicting and agreeing duplicates, changed results and comments among the compose lines."""
    lines = dump_groupoid_text(g).splitlines()
    names = [f"t{i}" for i in range(g.n_transitions)]
    for _ in range(data.draw(st.integers(1, 5))):
        composes = [k for k, line in enumerate(lines) if line.startswith("compose:")]
        k = data.draw(st.sampled_from(composes))
        tokens = lines[k].split()[1:]
        kind = data.draw(st.sampled_from(["unknown", "conflict", "agree", "result", "comment"]))
        if kind == "comment":
            lines[k] += "  # note: x"
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["", "  # aside", "   "])))
            continue
        if kind == "unknown":
            tokens[data.draw(st.integers(0, 2))] = "zz"
            lines[k] = "compose: " + " ".join(tokens)
            continue
        others = [t for t in names if t != tokens[2]]
        if kind in ("conflict", "result") and others and "zz" not in tokens:
            tokens[2] = data.draw(st.sampled_from(others))
        if kind == "result":
            lines[k] = "compose: " + " ".join(tokens)
        else:
            lines.insert(data.draw(st.integers(0, len(lines))), "compose: " + " ".join(tokens))
    return "\n".join(lines) + "\n"


def _corrupt_declaration_lines(data, text: str) -> str:
    """Unknown objects and ids, unit flags on non-loops and on second loops, conflicting and missing inverses."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        decls = [k for k, line in enumerate(lines) if line.startswith(("transition:", "inverse:"))]
        names = [lines[k].split()[1] for k in decls if lines[k].startswith("transition:")]
        if not names:
            break
        k = data.draw(st.sampled_from(decls))
        tokens = lines[k].split()
        kind = data.draw(st.sampled_from(["unknown", "unit", "extra unit", "inverse", "drop"]))
        if kind == "unknown":  # an object in a transition line, an id in an inverse line
            tokens[data.draw(st.integers(2 if tokens[0] == "transition:" else 1, len(tokens) - 1))] = "zz"
        elif kind == "unit" and tokens[0] == "transition:" and len(tokens) == 4:
            tokens.append("unit")  # on a non-unit, loop or not
        elif kind == "extra unit" and tokens[0] == "transition:":  # a new loop flagged as a unit
            tokens = ["transition:", f"x{k}", tokens[2], tokens[2], "unit"]
            lines.insert(data.draw(st.integers(0, len(lines))), " ".join(tokens))
            continue
        elif kind == "inverse" and tokens[0] == "inverse:":  # a second declaration for one of the ids
            tokens[data.draw(st.integers(1, 2))] = data.draw(st.sampled_from(names))
            lines.insert(data.draw(st.integers(0, len(lines))), " ".join(tokens))
            continue
        elif kind == "drop":
            del lines[k]
            continue
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=60)
@given(random_groupoids(max_transitions=24), st.data())
def test_declaration_diagnostics_match_the_per_line_parser(g, data):
    text = _corrupt_compose_lines(data, g) if data.draw(st.booleans()) else dump_groupoid_text(g)
    text = _corrupt_declaration_lines(data, text)
    want = ref_parse_problems(text)
    if not want:
        assert parse_groupoid_text(text) == g
        return
    with pytest.raises(FormatError) as err:
        parse_groupoid_text(text)
    assert err.value.problems == want


@settings(deadline=None, max_examples=60)
@given(random_groupoids(max_transitions=24), st.data())
def test_compose_diagnostics_match_the_per_line_parser(g, data):
    text = _corrupt_compose_lines(data, g)
    want = ref_parse_problems(text)
    if not want:
        assert parse_groupoid_text(text) == g
        return
    with pytest.raises(FormatError) as err:
        parse_groupoid_text(text)
    assert err.value.problems == want
