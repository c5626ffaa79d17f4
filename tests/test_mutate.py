"""``scripts/mutate.py`` seeds faults by replacing one text of a file; a text
that no longer occurs exactly once fails here, not in a mutation run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutate.py"


def test_each_mutant_names_one_text_and_says_what_it_breaks():
    spec = importlib.util.spec_from_file_location("mutate", SCRIPT)
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    assert mutate.MUTANTS
    names = [name for name, *_ in mutate.MUTANTS]
    assert len(names) == len(set(names))
    for name, path, old, new, fault in mutate.MUTANTS:
        assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, (name, path)
        assert old != new and fault.strip(), name
    # In a mutated copy this test reads the mutated file and fails, so it
    # would kill every mutant; the harness's runs must leave it out.
    assert "--ignore=%s" % Path(__file__).relative_to(ROOT).as_posix() in mutate.PYTEST
