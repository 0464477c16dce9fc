"""Smoke test of ``scripts/ladder.py``: each layer's first row, a checkout against itself, and the guarded loader."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

AGREEMENT = {"groups": "same", "measure": "rows_equal", "verdict": "same_decision", "theorem": "same_trials"}


def package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "groupoidqm" or n.startswith("groupoidqm.")}


@pytest.fixture
def ladder(monkeypatch):
    """The script as a module.  Its BLAS pinning and the fresh imports of ``groupoidqm`` it makes are undone after."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    saved = package_modules()
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "scripts" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("layer", sorted(AGREEMENT))
def test_first_row_of_each_layer_agrees_with_itself(ladder, monkeypatch, layer):
    rows, default = ladder.LAYERS[layer]
    monkeypatch.setitem(ladder.LAYERS, layer, (rows[:1], default))
    (row,) = ladder.compare(ROOT, ROOT, layer, repeats=1).values()
    assert row[AGREEMENT[layer]] is True
    assert row["old_rss_mb"] > 0 and row["new_rss_mb"] > 0
    if layer == "verdict":  # pair(8)'s verdict takes meets for its witness and orthomodularity
        assert row["old_meets"] == row["new_meets"] > 0


def test_loader_names_a_root_without_the_package(ladder, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))  # as PYTHONPATH=src would: the package importable from elsewhere
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        ladder.load_package(tmp_path)
