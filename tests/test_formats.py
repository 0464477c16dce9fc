"""File formats: groupoid text, JSON payloads, bundled fixtures."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from groupoidqm import (
    AlgebraElement,
    FormatError,
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
from groupoidqm.formats import parse_complex_matrix, read_json

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
        assert parse_groupoid_text(dump_groupoid_text(g)) == g


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
    ],
)
def test_element_terms_are_typed(tmp_path, term, fragment):
    path = tmp_path / "h.element"
    path.write_text(json.dumps({"terms": [{"transition_id": 0, "re": 1.0}, term]}))
    with pytest.raises(FormatError, match=f"term 1: {fragment}") as exc:
        load_element(str(path))
    assert exc.value.origin == str(path)


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
