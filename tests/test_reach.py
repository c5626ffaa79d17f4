"""``scripts/reach.py`` lists the statements that the suite never runs, less
an allowlist keyed by source text; a stale key fails here, not in a traced
run."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"


def test_each_allowlist_entry_names_one_statement_and_says_why():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    assert reach.ALLOWED
    for name, fragment, reason in reach.ALLOWED:
        assert reach.stripped(name).count(fragment) == 1, (name, fragment)
        assert reason.strip(), (name, fragment)
