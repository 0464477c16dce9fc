"""Self-tests of the benchmark: its reference functional, its checks, the
probe correction, the thread guard, the relabeller and the tracer.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import probe
import tracer
from groupoids import (
    axiom_violations,
    cyclic,
    decoherence,
    from_text,
    pair,
    phi_from_density,
    product,
    relabel,
    symmetric,
    to_text,
    union,
)
from run import THREAD_VARS, Book, Round, import_program, per_layer, run_calls
from workloads import (
    KNOWN_DEFECTS,
    THEOREM_TRIALS,
    Call,
    check_call,
    classify_check,
    expected_rows,
    make_pool,
    measure_check,
    theorem_check,
)

FIXTURES = Path(__file__).resolve().parents[2] / "src" / "groupoidqm" / "fixtures"


def test_reference_measure_on_quantum_cat():
    t = from_text((FIXTURES / "quantum_cat.groupoid").read_text())
    vec = np.array([complex(re, im) for re, im in json.loads((FIXTURES / "superposition.state").read_text())["vector"]])
    phi = phi_from_density(t, np.outer(vec, vec.conj()))
    sets = {s["name"]: s["transitions"] for s in json.loads((FIXTURES / "pair2.sets").read_text())["sets"]}
    assert decoherence(t, phi, sets["stay"], sets["stay"]) == pytest.approx(0.5, abs=1e-15)


# -- checks --------------------------------------------------------------------


def _classify_payload(t, classical):
    return {
        "classical": classical,
        "boolean_lattice": classical,
        "totally_disconnected": t.disconnected,
        "abelian_isotropy": t.abelian_isotropy,
        "abelian_algebra": t.classical,
        "consistent": classical == t.classical,
        "lattice_summary": "9 propositions, 45 pairs, 405 triples: Boolean",
    }


def test_classify_check_flags_a_flipped_verdict():
    t = pair(2)
    check = classify_check(t)
    assert check(_classify_payload(t, False)) == []
    (failure,) = check(_classify_payload(t, True))
    assert failure.kind == "classify.verdict"


def test_classify_check_tags_the_known_defect_only_on_its_shape():
    s3 = relabel(symmetric(3), np.random.default_rng(0))
    (failure,) = classify_check(s3)(_classify_payload(s3, True))
    assert failure.kind == KNOWN_DEFECTS[0]
    z = union(cyclic(2), cyclic(3))
    (failure,) = classify_check(z)(_classify_payload(z, False))
    assert failure.kind == "classify.verdict"


def _measure_case():
    rng = np.random.default_rng(3)
    t = relabel(pair(3), rng)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v /= np.linalg.norm(v)
    phi = phi_from_density(t, np.outer(v, v.conj()))
    sets = [("A", [0, 1]), ("B", [2, 3]), ("C", [4, 5])]
    expected = expected_rows(t, phi, sets)
    rows = [{"quantity": q, "operands": list(ops), "re": z.real, "im": z.imag} for (q, ops), z in expected.items()]
    return measure_check(expected), rows


def test_measure_check_accepts_the_reference_rows():
    check, rows = _measure_case()
    assert check({"rows": rows}) == []


@pytest.mark.parametrize("quantity,delta", [("I3", 1e-6), ("D", 1e-6j), ("mu", 1e-8)])
def test_measure_check_flags_a_tampered_row(quantity, delta):
    check, rows = _measure_case()
    row = next(r for r in rows if r["quantity"] == quantity)
    row["re"] += delta.real
    row["im"] += delta.imag
    (failure,) = check({"rows": rows})
    assert failure.kind == "measure.value"


@pytest.mark.parametrize(
    "mode,fraction,kind",
    [("entanglement", 0.85, KNOWN_DEFECTS[1]), ("entanglement", 0.5, "theorem.passed"), ("separability", 1.0, "theorem.mode")],
)
def test_theorem_check_flags_a_failed_report(mode, fraction, kind):
    report = {
        "mode": mode,
        "n_trials": THEOREM_TRIALS,
        "trials": [{}] * THEOREM_TRIALS,
        "passed": False,
        "fraction_entangled": fraction,
        "min_fraction": 0.9,
    }
    (failure,) = theorem_check("entanglement")(report)
    assert failure.kind == kind


def test_failed_calls_are_counted_and_only_the_known_defect_keeps_correct():
    call = Call("measure[x]", ("measure",), lambda p: [])
    book = Book()
    book.record(call, check_call(call, 0, '{"rows": []}', ""))
    assert (book.total, book.total_failed, book.correct) == (1, 0, True)
    book.record(call, check_call(call, 2, "", "internal error: boom"))
    assert (book.total, book.total_failed, book.correct) == (2, 1, False)
    known = Book()
    s3 = symmetric(3)
    known.record(call, classify_check(s3)(_classify_payload(s3, True)))
    assert (known.total_failed, known.correct) == (1, True)


# -- probe correction and thread guard -----------------------------------------


def test_probe_correction_removes_synthetic_drift():
    base = [0.10, 0.12, 0.11, 0.30, 0.15]
    slowdown = [1.0, 1.4, 0.8, 1.25, 1.6]
    rounds = [Round(b * f, probe.P_REF_S * f) for b, f in zip(base, slowdown)]
    assert [r.corrected_s for r in rounds] == pytest.approx(base, rel=1e-12)
    assert probe.corrected(2.0, 0.5, p_ref_s=0.25) == 1.0


def test_probe_spread_is_p90_over_p10():
    assert probe.spread([1.0] * 20) == 1.0
    assert probe.spread([float(x) for x in range(1, 12)]) == pytest.approx(10.0 / 2.0)


def test_thread_guard_fails_on_a_leftover_thread_and_on_blas_settings():
    guard = probe.ThreadGuard(THREAD_VARS)
    guard.check()
    release = threading.Event()
    worker = threading.Thread(target=release.wait, daemon=True)
    worker.start()
    try:
        with pytest.raises(probe.GuardError):
            guard.check()
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    guard.check()
    old = os.environ.get(THREAD_VARS[0])
    os.environ[THREAD_VARS[0]] = "2"
    try:
        with pytest.raises(probe.GuardError):
            guard.check()
    finally:
        os.environ[THREAD_VARS[0]] = old
    guard.check()


# -- relabeller and writer -----------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: pair(4),
        lambda: union(cyclic(2), cyclic(3)),
        lambda: union(symmetric(3), symmetric(3)),
        lambda: product(pair(4), cyclic(3)),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relabelled_groupoids_satisfy_the_axioms(make, seed):
    t = relabel(make(), np.random.default_rng(seed))
    assert axiom_violations(t) == []
    assert from_text(to_text(t)) == t


def test_product_relabelling_keeps_the_first_factor_major_layout():
    rng = np.random.default_rng(5)
    a, b = relabel(pair(3), rng), relabel(pair(3), rng)
    t = relabel(product(a, b), rng, objects=False)
    assert axiom_violations(t) == []
    for i in range(t.n_transitions):
        # object (x, y) sits at x*3 + y, so a transition's two factor parts move one coordinate each
        sx, sy = divmod(t.source[i], 3)
        tx, ty = divmod(t.target[i], 3)
        assert (sx, tx) in {(a.source[k], a.target[k]) for k in range(9)}
        assert (sy, ty) in {(b.source[k], b.target[k]) for k in range(9)}


def test_axiom_checker_catches_a_corrupted_composite():
    t = relabel(symmetric(3), np.random.default_rng(0))
    comp = dict(t.compose)
    key = next(k for k, v in comp.items() if t.unit[0] not in k and v != t.unit[0])
    comp[key] = t.unit[0]
    assert axiom_violations(dataclasses.replace(t, compose=comp))


# -- end to end through the program ----------------------------------------------


@pytest.mark.parametrize("workload", ["classify", "interfere", "dynamics"])
def test_generated_round_passes_its_checks(workload, tmp_path):
    (calls,) = make_pool(workload, 7, 1, tmp_path)
    cli = import_program()
    failures = [f for c, out in zip(calls, run_calls(cli, calls)) for f in check_call(c, *out)]
    assert all(f.kind in KNOWN_DEFECTS for f in failures), failures


def test_tracer_counts_layers_and_restores_the_program(tmp_path):
    (calls,) = make_pool("interfere", 7, 1, tmp_path)
    cli = import_program()
    original = cli.load_groupoid
    t = tracer.Tracer()
    t.install()
    try:
        run_calls(cli, calls[2:])
    finally:
        t.uninstall()
    counts, self_s = t.drain()
    assert cli.load_groupoid is original
    assert counts["cli"] == 1 and counts["lattice"] == 0 and counts["dynamics"] == 0
    assert counts["states"] > 0 and all(v >= 0.0 for v in self_s.values())


def test_traced_pass_reports_every_layer_with_a_sane_overhead(tmp_path):
    pool = make_pool("classify", 7, 2, tmp_path)
    cli = import_program()
    metrics = per_layer(cli, pool, probe.ThreadGuard(THREAD_VARS), Book(), seconds=0.0)
    assert len(metrics) == 24
    assert metrics["lattice.calls"]["value"] > 0 and metrics["dynamics.calls"]["value"] == 0
    assert metrics["lattice.pairs_tested"]["value"] > 0
    assert 0.5 < metrics["trace.overhead"]["value"] < 5.0
