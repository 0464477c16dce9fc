"""Smoke test of ``scripts/replay_pools.py``: a checkout replayed against itself agrees call by call."""

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
        assert workload["exit_codes_differ"] == workload["tags_differ"] == workload["rows_layout_differs"] == 0
        assert workload["stdout_identical"] == workload["calls"]
        assert workload["worst_rows_difference"] == 0.0
        assert workload["failed"]["old"] == workload["failed"]["new"]
