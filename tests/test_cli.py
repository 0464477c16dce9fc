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

from groupoidqm import pair_groupoid, state_from_phi
from groupoidqm.cli import main
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


def test_measure_unknown_transition(capsys, tmp_path):
    path = tmp_path / "bad.sets"
    path.write_text('{"sets": [{"name": "ghost", "transitions": [99]}]}\n')
    code, _, err = run(capsys, "measure", QCAT, "--state", SUPERPOSITION, "--sets", str(path))
    assert code == 1
    assert err.startswith("error:")


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


# -- evolve --------------------------------------------------------------------------


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


# -- theorem --------------------------------------------------------------------------


def test_theorem_separability_mode(capsys):
    code, out, _ = run(capsys, "theorem", CAT, QCAT, "--trials", "3", "--grid", "0:2:5")
    assert code == 0
    header, rows = table(out)
    assert header == ["trial", "support", "ratio", "offblock", "entropy", "onset", "ok"]
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


def test_bad_bipartition_flag(capsys):
    with pytest.raises(SystemExit):
        main(["evolve", QCAT, "--state", DIAGONAL, "--hamiltonian", HOPPING,
              "--bipartition", "4"])
    assert "dimA:dimB" in capsys.readouterr().err


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
