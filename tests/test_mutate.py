"""The mutation table of ``scripts/mutate.py`` stays current; the harness itself runs outside the suite."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutate", ROOT / "scripts" / "mutate.py")
mutate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutate)


@pytest.mark.parametrize("m", mutate.MUTATIONS, ids=[m.name for m in mutate.MUTATIONS])
def test_each_mutation_applies_once_and_names_its_tests(m):
    assert m.path.startswith("src/") and mutate.occurrences(m) == 1
    assert m.new != m.old and all((ROOT / t.partition("::")[0]).is_file() for t in m.tests)


def test_mutation_names_are_unique():
    names = [m.name for m in mutate.MUTATIONS]
    assert len(set(names)) == len(names)
