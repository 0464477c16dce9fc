"""Smoke test of ``scripts/replay_pools.py``: a checkout replayed against itself agrees call by call."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_replay_of_a_checkout_against_itself_agrees(tmp_path):
    argv = [sys.executable, str(ROOT / "scripts" / "replay_pools.py"), str(ROOT), str(ROOT), "--seeds", "1", "--rounds", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {"classify", "interfere", "dynamics"}
    for workload in summary.values():
        assert workload["calls"] > 0
        assert workload["exit_codes_differ"] == workload["tags_differ"] == workload["layout_differs"] == 0
        assert workload["stdout_identical"] == workload["calls"]
        assert workload["worst_differences"] and set(workload["worst_differences"].values()) == {0.0}
        assert workload["failed"]["old"] == workload["failed"]["new"]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_payloads_compare_their_layout_and_each_float_key(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the scripts pin BLAS on import; monkeypatch restores the environment
    monkeypatch.setitem(sys.modules, "ladder", load_script("ladder"))  # replay_pools imports its loader from it
    replay = load_script("replay_pools")

    def payload(ratios, ok=True):
        return json.dumps({"passed": ok, "worst_ratio": max(ratios), "trials": [{"max_ratio": r, "ok": ok} for r in ratios]})

    same, worst = replay.compare_payloads(payload([1e-16, 0.0]), payload([0.0, 3e-16]))
    assert same and worst == {"worst_ratio": 2e-16, "max_ratio": 3e-16}
    assert replay.compare_payloads(payload([0.0]), payload([0.0], ok=False))[0] is False
    assert replay.compare_payloads(payload([0.0]), json.dumps({"passed": True, "trials": []}))[0] is False
    assert replay.compare_payloads("usage: ...", payload([0.0])) is None
