"""End-to-end tests for the command-line interface.

Each test drives ``groupoidqm.cli.main`` in process and inspects the
exit code plus captured stdout/stderr, so the assertions cover exactly
what a shell user would see.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from groupoidqm import cli, formats, pair_groupoid, state_from_phi
from groupoidqm.cli import _cell, build_parser, main
from groupoidqm.formats import dump_state, fixture_path

CAT = fixture_path("cat.groupoid")
QCAT = fixture_path("quantum_cat.groupoid")
S3 = fixture_path("s3.groupoid")
Z2Z3 = fixture_path("z2z3.groupoid")
SUPERPOSITION = fixture_path("superposition.state")
DIAGONAL = fixture_path("diagonal.state")
HOPPING = fixture_path("hopping.element")
SETS = fixture_path("pair2.sets")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table(out):
    lines = out.rstrip("\n").split("\n")
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


# -- validate ----------------------------------------------------------------


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", CAT)
    assert code == 0
    assert out == "OK: 2 objects, 2 transitions\n"
    assert err == ""


def test_validate_structured(capsys):
    code, out, _ = run(capsys, "validate", QCAT, "--format", "structured")
    assert code == 0
    assert json.loads(out) == {"valid": True, "objects": 2, "transitions": 4}


def test_validate_reports_line_numbers(capsys, tmp_path):
    path = tmp_path / "broken.groupoid"
    path.write_text("objects: x\ntransition: a x y\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "line 2" in out and "'y'" in out


def test_validate_structured_problems(capsys, tmp_path):
    path = tmp_path / "broken.groupoid"
    path.write_text("objects: x\ntransition: a x y\n")
    code, out, _ = run(capsys, "validate", str(path), "--format", "structured")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any("line 2" in p for p in payload["problems"])


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/g.groupoid")
    assert code == 1
    assert err.startswith("error:")


def test_validate_axiom_failure(capsys, tmp_path):
    path = tmp_path / "no_inverse.groupoid"
    path.write_text(
        "objects: x\n"
        "transition: u x x unit\n"
        "transition: a x x\n"
        "inverse: u u\n"
        "compose: u u u\n"
        "compose: u a a\n"
        "compose: a u a\n"
        "compose: a a u\n"
    )
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "'a' has no declared inverse" in out


# -- info ---------------------------------------------------------------------


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", QCAT)
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "objects (2): alive dead"
    assert lines[1] == "transitions: 4"
    assert lines[2] == "orbits: alive,dead"
    assert lines[3] == "isotropy orders: alive:1 dead:1"
    assert lines[4] == "totally disconnected: False"
    assert lines[5] == "abelian isotropy: True"


def test_info_structured(capsys):
    code, out, _ = run(capsys, "info", S3, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["objects"] == ["*"]
    assert payload["transitions"] == 6
    assert payload["orbits"] == [["*"]]
    assert payload["isotropy_orders"] == {"*": 6}
    assert payload["totally_disconnected"] is True
    assert payload["abelian_isotropy"] is False


# -- classify -------------------------------------------------------------------


def test_classify_classical(capsys):
    code, out, _ = run(capsys, "classify", Z2Z3, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["classical"] is True
    assert payload["boolean_lattice"] is True
    assert payload["totally_disconnected"] is True
    assert payload["abelian_isotropy"] is True
    assert payload["abelian_algebra"] is True
    assert payload["consistent"] is True
    assert payload["pseudo_classical"] is False
    assert payload["witness"] is None


def test_classify_pseudo_classical_text(capsys):
    code, out, _ = run(capsys, "classify", S3)
    assert code == 0
    assert out.startswith("classical: false\n")
    assert "pseudo-classical" in out


def test_classify_quantum_witness(capsys):
    code, out, _ = run(capsys, "classify", QCAT, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["classical"] is False
    assert payload["totally_disconnected"] is False
    assert payload["pseudo_classical"] is False
    assert payload["consistent"] is True
    witness = payload["witness"]
    assert witness["law"] == "compatibility"
    assert len(witness["operands"]) == 2
    assert_allclose(witness["residual"], 1.0, atol=1e-9)


def test_classify_cat_s3_is_not_classical(capsys):
    code, out, _ = run(capsys, "classify", fixture_path("cat_s3.groupoid"))
    assert code == 0
    assert out.startswith("classical: false\n")
    assert "routes consistent:     True" in out


# -- lattice --------------------------------------------------------------------


def test_lattice_clean_for_classical_groupoid(capsys):
    code, out, _ = run(capsys, "lattice", Z2Z3)
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert "Boolean" in lines[0] and "not Boolean" not in lines[0]
    assert lines[1] == "law\toperands\tresidual"
    assert len(lines) == 2  # no violation rows


def test_lattice_quantum_violations(capsys):
    code, out, _ = run(capsys, "lattice", QCAT, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["boolean"] is False
    assert payload["propositions"][:2] == ["unit[alive]", "unit[dead]"]
    assert payload["violations"]
    for row in payload["violations"]:
        assert row["law"] == "compatibility"
        assert len(row["operands"]) == 2
        assert_allclose(row["residual"], 1.0, atol=1e-9)


@pytest.mark.parametrize("command", ["lattice", "classify"])
def test_negative_samples_rejected(capsys, command):
    code, out, err = run(capsys, command, QCAT, "--samples", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--samples" in err


# -- measure ----------------------------------------------------------------------


def test_measure_superposition_table(capsys):
    code, out, _ = run(capsys, "measure", QCAT, "--state", SUPERPOSITION, "--sets", SETS)
    assert code == 0
    header, rows = table(out)
    assert header == ["quantity", "operands", "re", "im"]
    values = {(r[0], r[1]): complex(float(r[2]), float(r[3])) for r in rows}
    assert_allclose(values[("mu", "stay")], 0.5, atol=1e-12)
    assert_allclose(values[("mu", "return")], 0.5, atol=1e-12)
    assert_allclose(values[("mu", "flip")], 0.5, atol=1e-12)
    assert_allclose(values[("D", "stay,return")], 0.5, atol=1e-12)
    assert_allclose(values[("I2", "stay,return")], 1.0, atol=1e-12)
    assert values[("D", "stay,flip")] == 0
    assert abs(values[("I3", "stay,return,flip")]) < 1e-11


def test_measure_structured(capsys):
    code, out, _ = run(capsys, "measure", QCAT, "--state", SUPERPOSITION, "--sets", SETS,
                       "--format", "structured")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 10
    assert {r["quantity"] for r in rows} == {"mu", "D", "I2", "I3"}
    for row in rows:
        assert set(row) == {"quantity", "operands", "re", "im"}


def test_measure_empty_sets(capsys, tmp_path):
    path = tmp_path / "none.sets"
    path.write_text('{"sets": []}\n')
    code, out, _ = run(capsys, "measure", QCAT, "--state", SUPERPOSITION, "--sets", str(path))
    assert code == 0
    assert out == "quantity\toperands\tre\tim\n"


@pytest.mark.parametrize("kind, text, where", [
    ("sets", '{"sets": [{"name": "a", "transitions": [0]}, {"name": "ghost", "transitions": [99]}]}', "set 1 (ghost)"),
    ("state", '{"phi": [{"transition_id": 0, "re": 1.0}, {"transition_id": 99, "re": 0.0}]}', "term 1"),
    ("hamiltonian", '{"terms": [{"transition_id": 0, "re": 1.0}, {"transition_id": 99, "re": 1.0}]}', "term 1"),
], ids=("sets", "state", "hamiltonian"))
def test_measure_unknown_transition(capsys, tmp_path, kind, text, where):
    """An out-of-range transition id in a sets, state or Hamiltonian file names the file and the set or term."""
    path = tmp_path / f"bad.{kind}"
    path.write_text(text + "\n")
    files = {"sets": SETS, "state": SUPERPOSITION, kind: str(path)}
    if kind == "hamiltonian":
        code, _, err = run(capsys, "evolve", QCAT, "--state", DIAGONAL, "--hamiltonian", files["hamiltonian"])
    else:
        code, _, err = run(capsys, "measure", QCAT, "--state", files["state"], "--sets", files["sets"])
    assert code == 1
    assert err.startswith(f"{path}:") and f"{where}: transition id 99 does not belong to this groupoid" in err


def test_measure_null_transition_id_names_file_and_term(capsys, tmp_path):
    path = tmp_path / "null.state"
    path.write_text('{"phi": [{"transition_id": 0, "re": 1.0}, {"transition_id": null, "re": 0.5}]}\n')
    code, _, err = run(capsys, "measure", QCAT, "--state", str(path), "--sets", SETS)
    assert code == 1
    assert str(path) in err and "term 1" in err


def test_measure_boolean_transition_id_exits_1(capsys, tmp_path):
    path = tmp_path / "bool.sets"
    path.write_text('{"sets": [{"name": "a", "transitions": [true]}]}\n')
    code, out, err = run(capsys, "measure", QCAT, "--state", SUPERPOSITION, "--sets", str(path))
    assert code == 1 and out == ""
    assert str(path) in err and "set 0: transitions must be a list of integer ids" in err


@pytest.mark.parametrize(
    "state, where",
    [
        ('{"phi": [{"transition_id": 0, "re": NaN, "im": 0}, {"transition_id": 1, "re": 0.5, "im": 0}]}',
         "term 0: transition 0 has a non-finite value"),
        ('{"phi": [{"transition_id": 0, "re": 1.0, "im": 0}, {"transition_id": 1, "re": 0, "im": Infinity}]}',
         "term 1: transition 1 has a non-finite value"),
        ('{"vector": [[1, 0], [NaN, 0]]}', "vector[1] is not finite"),
        ('{"rep": "fundamental", "density": [[[1, 0], [0, 0]], [[0, -Infinity], [0, 0]]]}',
         "density[1][0] is not finite"),
    ],
    ids=["phi-nan", "phi-inf", "vector-nan", "density-inf"],
)
def test_measure_rejects_non_finite_state_entries(capsys, tmp_path, state, where):
    path = tmp_path / "bad.state"
    path.write_text(state + "\n")
    sets = tmp_path / "ab.sets"
    sets.write_text('{"sets": [{"name": "A", "transitions": [0]}, {"name": "B", "transitions": [1]}]}\n')
    code, out, err = run(capsys, "measure", CAT, "--state", str(path), "--sets", str(sets))
    assert code == 1 and out == ""
    assert str(path) in err and where in err


@pytest.mark.parametrize(
    "state, where",
    [
        ('{"vector": [[0.6, 0], [0.8, 0], [0, 0]]}', "vector has shape (3,), but the left-regular representation needs (2,)"),
        ('{"rep": "fundamental", "density": [[[0.5, 0], [0, 0], [0, 0]], [[0, 0], [0.5, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]}',
         "density has shape (3, 3), but the fundamental representation needs (2, 2)"),
    ],
    ids=["vector", "density"],
)
def test_measure_names_the_file_for_a_state_of_the_wrong_dimension(capsys, tmp_path, state, where):
    path = tmp_path / "wide.state"
    path.write_text(state + "\n")
    code, out, err = run(capsys, "measure", CAT, "--state", str(path), "--sets", SETS)
    assert code == 1 and out == ""
    assert str(path) in err and where in err and "density matrix" not in err


HUGE = "1" + "0" * 400  # an integer literal no float can hold


@pytest.mark.parametrize(
    "state, where",
    [
        ('{"phi": [{"transition_id": 0, "re": 1.0, "im": 0}, {"transition_id": 1, "re": %s, "im": 0}]}' % HUGE,
         "term 1: transition 1 has a value too large for a float"),
        ('{"phi": [{"transition_id": 0, "re": 1.0, "im": -%s}]}' % HUGE,
         "term 0: transition 0 has a value too large for a float"),
        ('{"vector": [[1, 0], [0, %s]]}' % HUGE, "vector[1] is not finite"),
        ('{"rep": "fundamental", "density": [[[1, 0], [0, 0]], [[-%s, 0], [0, 0]]]}' % HUGE,
         "density[1][0] is not finite"),
    ],
    ids=["phi-re", "phi-im", "vector", "density"],
)
def test_measure_rejects_integers_too_large_for_a_float(capsys, tmp_path, state, where):
    path = tmp_path / "huge.state"
    path.write_text(state + "\n")
    sets = tmp_path / "ab.sets"
    sets.write_text('{"sets": [{"name": "A", "transitions": [0]}, {"name": "B", "transitions": [1]}]}\n')
    code, out, err = run(capsys, "measure", CAT, "--state", str(path), "--sets", str(sets))
    assert code == 1 and out == ""
    assert str(path) in err and where in err


def test_measure_names_the_file_for_an_integer_past_the_digit_limit(capsys, tmp_path):
    path = tmp_path / "long.state"
    path.write_text('{"phi": [{"transition_id": 0, "re": 1%s}]}\n' % ("0" * 4400))
    code, out, err = run(capsys, "measure", CAT, "--state", str(path), "--sets", SETS)
    assert code == 1 and out == ""
    assert str(path) in err and "invalid JSON" in err and "Traceback" not in err


def test_evolve_rejects_a_hamiltonian_coefficient_too_large_for_a_float(capsys, tmp_path):
    path = tmp_path / "huge.element"
    path.write_text('{"terms": [{"transition_id": 1, "re": 1.0}, {"transition_id": 2, "re": %s}]}\n' % HUGE)
    code, out, err = run(capsys, "evolve", QCAT, "--state", SUPERPOSITION, "--hamiltonian", str(path))
    assert code == 1 and out == ""
    assert str(path) in err and "term 1: transition 2 has a value too large for a float" in err


def test_evolve_rejects_a_non_finite_hamiltonian_coefficient(capsys, tmp_path):
    path = tmp_path / "nan.element"
    path.write_text('{"terms": [{"transition_id": 1, "re": 1.0}, {"transition_id": 2, "re": NaN}]}\n')
    code, out, err = run(capsys, "evolve", QCAT, "--state", SUPERPOSITION, "--hamiltonian", str(path))
    assert code == 1 and out == ""
    assert str(path) in err and "term 1: transition 2 has a non-finite value" in err


# -- evolve --------------------------------------------------------------------------


def test_evolve_takes_a_negative_grid_start_after_an_equals_sign(capsys):
    code, out, _ = run(capsys, "evolve", QCAT, "--state", DIAGONAL, "--hamiltonian", HOPPING, "--grid=-1:0:2")
    assert code == 0
    _, rows = table(out)
    assert [float(r[0]) for r in rows] == [-1.0, 0.0]


def test_evolve_reads_its_element_hamiltonian_once(capsys, monkeypatch):
    reads = []

    def counting(read):
        def wrapper(path):
            reads.append(path)
            return read(path)
        return wrapper

    monkeypatch.setattr(cli, "read_json", counting(cli.read_json))
    monkeypatch.setattr(formats, "read_json", counting(formats.read_json))
    code, _, _ = run(capsys, "evolve", QCAT, "--state", DIAGONAL, "--hamiltonian", HOPPING)
    assert code == 0
    assert reads.count(HOPPING) == 1


def test_evolve_density_table(capsys):
    code, out, _ = run(capsys, "evolve", QCAT, "--state", DIAGONAL,
                       "--hamiltonian", HOPPING, "--grid", "0:1:3")
    assert code == 0
    header, rows = table(out)
    assert header == ["t", "residual"]
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
    assert all(float(r[1]) < 1e-12 for r in rows)


def test_evolve_bipartition_columns(capsys):
    code, out, _ = run(capsys, "evolve", QCAT, "--state", SUPERPOSITION,
                       "--hamiltonian", HOPPING, "--grid", "0:1:3", "--bipartition", "2:2")
    assert code == 0
    header, rows = table(out)
    assert header == ["t", "entropy", "rank", "residual"]
    for row in rows:
        assert float(row[1]) == 0.0  # product state stays rank one
        assert row[2] == "1"


def test_evolve_rejects_bipartition_for_density_state(capsys):
    code, _, err = run(capsys, "evolve", QCAT, "--state", DIAGONAL,
                       "--hamiltonian", HOPPING, "--bipartition", "2:2")
    assert code == 1
    assert err == "error: Schmidt diagnostics need a pure state given by a vector\n"


def test_evolve_rejects_rep_mismatch(capsys, tmp_path):
    path = tmp_path / "h.operator"
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path.write_text(json.dumps({"rep": "fundamental", "matrix": eye}))
    code, _, err = run(capsys, "evolve", QCAT, "--state", SUPERPOSITION,
                       "--hamiltonian", str(path))
    assert code == 1
    assert "does not match the state" in err


def test_evolve_rejects_phi_only_state(capsys, tmp_path):
    g = pair_groupoid(2)
    state = state_from_phi({0: 0.5, 3: 0.5}, g)
    path = tmp_path / "phi.state"
    path.write_text(json.dumps(dump_state(state)))
    code, _, err = run(capsys, "evolve", QCAT, "--state", str(path), "--hamiltonian", HOPPING)
    assert code == 1
    assert "density-backed state" in err


def test_evolve_bad_grid_flag(capsys):
    with pytest.raises(SystemExit):
        main(["evolve", QCAT, "--state", DIAGONAL, "--hamiltonian", HOPPING,
              "--grid", "0..1..3"])
    assert "start:stop:steps" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0:nan:3", "nan:1:3", "0:inf:5", "0:-inf:5"])
@pytest.mark.parametrize(
    "argv",
    [["evolve", QCAT, "--state", SUPERPOSITION, "--hamiltonian", HOPPING], ["theorem", QCAT, QCAT, "--trials", "2"]],
    ids=["evolve", "theorem"],
)
def test_non_finite_grid_is_rejected(capsys, argv, grid):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--grid", grid])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"grid start and stop must be finite numbers, got {grid}" in captured.err


# -- theorem --------------------------------------------------------------------------


def test_theorem_separability_mode(capsys):
    code, out, _ = run(capsys, "theorem", CAT, QCAT, "--trials", "3", "--grid", "0:2:5")
    assert code == 0
    header, rows = table(out)
    assert header == ["trial", "ratio", "offblock", "entropy", "onset", "ok"]
    summary = rows[-1]
    assert summary[0] == "SUMMARY"
    assert summary[1] == "mode=separability"
    assert summary[2] == "passed=true"
    assert all(r[-1] == "true" for r in rows[:-1])


def test_theorem_entanglement_mode(capsys):
    code, out, _ = run(capsys, "theorem", QCAT, QCAT, "--trials", "3", "--grid", "0:2:5")
    assert code == 0
    _, rows = table(out)
    summary = rows[-1]
    assert summary[1] == "mode=entanglement"
    assert summary[2] == "passed=true"
    assert "fraction_entangled=1.0" in summary


def test_theorem_zero_trials(capsys):
    code, out, _ = run(capsys, "theorem", CAT, QCAT, "--trials", "0")
    assert code == 0
    header, rows = table(out)
    assert len(rows) == 1 and rows[0][0] == "SUMMARY"


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("pair", [(CAT, QCAT), (QCAT, QCAT)], ids=["separability", "entanglement"])
def test_theorem_vacuous_only_without_trials(capsys, pair, fmt):
    for trials, vacuous in (("0", True), ("1", False)):
        code, out, _ = run(capsys, "theorem", *pair, "--trials", trials, "--grid", "0:2:3", "--format", fmt)
        assert code == 0
        if fmt == "structured":
            assert json.loads(out)["vacuous"] is vacuous
        else:
            assert f"vacuous={str(vacuous).lower()}" in table(out)[1][-1]


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_theorem_over_a_one_object_first_factor_is_vacuous(capsys, fmt):
    code, out, _ = run(capsys, "theorem", S3, QCAT, "--trials", "2", "--grid", "0:2:3", "--format", fmt)
    assert code == 0
    reason = "the first factor has one object, so every state of the product is a product state"
    if fmt == "structured":
        payload = json.loads(out)
        assert payload["passed"] is True and payload["vacuous"] is True
        assert payload["vacuous_reason"] == reason
    else:
        summary = table(out)[1][-1]
        assert "vacuous=true" in summary and f"vacuous_reason={reason}" in summary


def test_theorem_vacuous_reason_is_null_when_trials_ran(capsys):
    for pair, trials, reason in (((CAT, QCAT), "1", None), ((CAT, QCAT), "0", "no trial ran")):
        code, out, _ = run(capsys, "theorem", *pair, "--trials", trials, "--grid", "0:2:3", "--format", "structured")
        assert code == 0 and json.loads(out)["vacuous_reason"] == reason


@pytest.mark.parametrize(
    "flag,value",
    [("--trials", "-1"), ("--trials", "-2"), ("--jobs", "0"), ("--jobs", "-3")],
)
@pytest.mark.parametrize("pair", [(CAT, QCAT), (QCAT, QCAT)], ids=["separability", "entanglement"])
def test_theorem_rejects_bad_counts(capsys, pair, flag, value):
    code, out, err = run(capsys, "theorem", *pair, "--trials", "2", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and flag in err


def test_theorem_structured_stable_across_jobs(capsys):
    argv = ["theorem", QCAT, QCAT, "--trials", "4", "--grid", "0:2:5", "--format", "structured"]
    code1, first, _ = run(capsys, *argv, "--jobs", "1")
    code2, second, _ = run(capsys, *argv, "--jobs", "3")
    assert code1 == code2 == 0
    assert first == second
    payload = json.loads(first)
    assert "jobs" not in payload
    assert len(payload["trials"]) == 4
    # --jobs counts trial chunks: 1, 2, 3 and more chunks than the 5 trials give the same bytes
    for pair in ((CAT, QCAT), (QCAT, QCAT)):
        argv = ["theorem", *pair, "--trials", "5", "--grid", "0:2:5", "--format", "structured"]
        outputs = {run(capsys, *argv, "--jobs", jobs) for jobs in ("1", "2", "3", "7")}
        assert len(outputs) == 1
        code, out, _ = outputs.pop()
        assert code == 0 and len(json.loads(out)["trials"]) == 5
        code, out, _ = run(capsys, "theorem", *pair, "--trials", "0", "--jobs", "3", "--format", "structured")
        assert code == 0 and json.loads(out)["vacuous"] is True


@pytest.mark.parametrize("pair", [(CAT, QCAT), (QCAT, QCAT)], ids=["separability", "entanglement"])
def test_theorem_with_more_jobs_than_trials_returns_the_one_job_bytes(capsys, array_split_within_trials, pair):
    argv = ["theorem", *pair, "--trials", "1", "--grid", "0:2:5"]
    expected = run(capsys, *argv, "--jobs", "1")
    assert run(capsys, *argv, "--jobs", "100000000") == expected


@pytest.mark.parametrize("pair", [(CAT, QCAT), (QCAT, QCAT)], ids=["separability", "entanglement"])
def test_theorem_text_columns_line_up_with_the_trial_records(capsys, pair):
    argv = ["theorem", *pair, "--trials", "3", "--grid", "0:2:5"]
    text, structured = run(capsys, *argv)[1], run(capsys, *argv, "--format", "structured")[1]
    header, rows = table(text.split("\nSUMMARY")[0])
    assert header == ["trial", "ratio", "offblock", "entropy", "onset", "ok"]
    keys = ["index", "max_ratio", "max_offblock", "max_entropy", "onset_time", "ok"]
    assert rows == [[_cell(t[k]) for k in keys] for t in json.loads(structured)["trials"]]


def test_theorem_seed_changes_trials(capsys):
    argv = ["theorem", QCAT, QCAT, "--trials", "2", "--grid", "0:2:5", "--format", "structured"]
    _, first, _ = run(capsys, *argv, "--seed", "7")
    _, second, _ = run(capsys, *argv, "--seed", "8")
    assert json.loads(first)["trials"] != json.loads(second)["trials"]


# -- parser ---------------------------------------------------------------------------


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


ARGV_WITHOUT_SEED_OR_TOL = {
    "validate": [CAT],
    "info": [CAT],
    "measure": [QCAT, "--state", SUPERPOSITION, "--sets", SETS],
    "evolve": [QCAT, "--state", DIAGONAL, "--hamiltonian", HOPPING],
    "theorem": [CAT, QCAT, "--trials", "1"],
}


@pytest.mark.parametrize(
    "command,flag",
    [(c, "--seed") for c in ("validate", "info", "measure", "evolve")]
    + [(c, "--tol") for c in ("validate", "info", "measure", "evolve", "theorem")],
)
def test_flags_are_rejected_where_they_change_nothing(capsys, command, flag):
    with pytest.raises(SystemExit):
        main([command, *ARGV_WITHOUT_SEED_OR_TOL[command], flag, "3"])
    assert "unrecognized arguments" in capsys.readouterr().err


def _first_call_bytes(capsys, argv):
    build_parser.cache_clear()
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return out


@pytest.mark.parametrize(
    "argv,flags",
    [
        (["classify", S3, "--format", "structured"], ["--seed", "7"]),
        (["theorem", QCAT, QCAT, "--trials", "3", "--grid", "0:2:5", "--format", "structured"], ["--jobs", "2", "--seed", "3"]),
    ],
)
def test_cached_parser_does_not_leak_flags(capsys, argv, flags):
    first = _first_call_bytes(capsys, argv)
    flagged = run(capsys, *argv, *flags)
    assert flagged[0] == 0 and flagged[1] != first  # the flags took effect
    assert run(capsys, *argv) == (0, first, "")
    assert build_parser().parse_args(argv) == build_parser.__wrapped__().parse_args(argv)


def test_cached_parser_survives_an_argparse_error(capsys):
    argv = ["classify", S3, "--format", "structured"]
    first = _first_call_bytes(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        main(["classify", S3, "--samples", "many"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert run(capsys, *argv) == (0, first, "")


def test_bad_bipartition_flag(capsys):
    with pytest.raises(SystemExit):
        main(["evolve", QCAT, "--state", DIAGONAL, "--hamiltonian", HOPPING,
              "--bipartition", "4"])
    assert "dimA:dimB" in capsys.readouterr().err


def _rejected_at_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {flag}:" in captured.err


@pytest.mark.parametrize("value", ["-1", "0", "-0.0", "nan", "inf", "-inf", "1", "1.2"])
@pytest.mark.parametrize("argv", [["classify", CAT], ["lattice", S3]], ids=["classify", "lattice"])
def test_tol_must_be_finite_and_positive(capsys, argv, value):
    _rejected_at_the_flag(capsys, [*argv, "--tol", value], "--tol")
    assert run(capsys, *argv, "--tol", "1e-6")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [["classify", CAT], ["lattice", S3], ["theorem", CAT, QCAT, "--trials", "1"]],
    ids=["classify", "lattice", "theorem"],
)
def test_seed_must_be_non_negative(capsys, argv):
    _rejected_at_the_flag(capsys, [*argv, "--seed=-1"], "--seed")
    assert run(capsys, *argv, "--seed", "0")[0] == 0


@pytest.mark.parametrize("value", ["-2:-2", "-1:-4", "0:4", "4:0", "2:-2"])
def test_bipartition_factors_must_be_positive(capsys, value):
    argv = ["evolve", QCAT, "--state", SUPERPOSITION, "--hamiltonian", HOPPING, "--grid", "0:1:3"]
    _rejected_at_the_flag(capsys, [*argv, f"--bipartition={value}"], "--bipartition")


def test_source_has_no_assert_statements():
    # `python -O` strips asserts, so runtime checks must raise errors the CLI maps to exit codes
    package = Path(main.__code__.co_filename).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
