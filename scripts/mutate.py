"""Run the test suite against seeded faults of the package and report which
ones it kills.

    python scripts/mutate.py

Each entry of ``MUTANTS`` replaces one text of one file with another: a
fault that a careless edit could make.  The repository, less ``.git``, is
copied to a temporary directory; for each mutant the text is replaced there,
and the suite runs with ``-x`` in a fresh interpreter; the mutant is killed
if the suite fails or times out.  The unmutated copy runs first, since a red
suite would kill every mutant.  The exit status is 1 if any mutant survives.

Each ``old`` text must occur in its file exactly once, which
``tests/test_mutate.py`` checks.  That test reads the mutated file in a
mutated copy, so it would kill every mutant; the runs here leave it out.
Not part of tier-1: a surviving mutant costs one whole run of the suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seconds one run of the suite may take before its mutant counts as killed.
TIMEOUT = 600

MUTANTS = [
    # (name, file, old, new, the fault)
    (
        "compile-without-validating",
        "src/towercalc/scenarios.py",
        "self.doc = json.loads(text)\n        validate_doc(self.doc)\n",
        "self.doc = json.loads(text)\n",
        "a compiled document is never validated, so a bad one fails late or not at all",
    ),
    (
        "dict-not-checked-as-json-data",
        "src/towercalc/scenarios.py",
        "    _check_values(doc, what)\n    if isinstance(doc, dict)",
        "    if isinstance(doc, dict)",
        "a tuple, an int key or a Fraction is dumped as if it were JSON data",
    ),
    (
        "dict-keyed-in-written-order",
        "src/towercalc/scenarios.py",
        "return _compiled(json.dumps(doc, sort_keys=True))",
        "return _compiled(json.dumps(doc))",
        "equal documents with their keys in another order compile twice",
    ),
    (
        "scenario-doc-not-compiled",
        "src/towercalc/scenarios.py",
        "    text = _scenario_text(name)\n    _compiled(text)\n    return json.loads(text)",
        "    return json.loads(_scenario_text(name))",
        "table, cone and export read a built-in document nothing has validated",
    ),
    (
        "format-tag-unchecked",
        "src/towercalc/scenarios.py",
        '    _entry(str(path), lambda: _read(doc, {"format": fmt}, None))\n',
        "",
        "a file of another format is read as a scenario document",
    ),
    (
        "unknown-field-named-in-sorted-order",
        "src/towercalc/scenarios.py",
        "    if isinstance(doc, dict) and not {*known, *_FREE_TEXT}.issuperset(doc):\n"
        "        _entry(what, lambda: _read(doc, {}, None, known))\n",
        "",
        "of two unknown fields of a dict or file, not the first written is named",
    ),
    (
        "policy-skipped-on-first-request",
        "src/towercalc/scenarios.py",
        "POLICY_NUMERIC and SYMBOLIC in ns:",
        "POLICY_NUMERIC and SYMBOLIC in ns and self.checks is not None:",
        "a numeric-only document builds and runs at symbolic when it is new",
    ),
    (
        "file-read-before-n",
        "src/towercalc/cli.py",
        "    ns = _parse_n_spec(args.n)\n"
        "    if args.scenario_file:\n"
        "        reports = _load_file(args.scenario_file)[1].reports(ns)\n",
        "    loaded = _load_file(args.scenario_file) if args.scenario_file else None\n"
        "    ns = _parse_n_spec(args.n)\n"
        "    if args.scenario_file:\n"
        "        reports = loaded[1].reports(ns)\n",
        "a bad --n is refused only after the file is read, so a file error wins",
    ),
    (
        "field-failure-not-placed",
        "src/towercalc/scenarios.py",
        "        raise _BadField(exc.args[0], (step,) + exc.path) from None\n"
        "    except ValueError as exc:\n"
        "        raise _BadField(str(exc), (step,)) from None\n",
        "        raise _BadField(exc.args[0], (step,) + exc.path) from None\n",
        "an engine refusal inside a field is reported without the field's path",
    ),
    (
        "check-failure-escapes",
        "src/towercalc/scenarios.py",
        "            except ValueError as exc:\n"
        '                raise ScenarioError("%s: %s" % (what, _cut(str(exc)))) from exc\n',
        "            finally:\n                pass\n",
        "a check the engine refuses raises a bare ValueError, not a named ScenarioError",
    ),
    (
        "mori-chain-catches-any-refusal",
        "src/towercalc/scenarios.py",
        "    except PropagationError as exc:\n",
        "    except (ValueError, PropagationError) as exc:\n",
        "a malformed chain reads as a failed propagation instead of a refused document",
    ),
    (
        "map-inverse-catches-any-refusal",
        "src/towercalc/scenarios.py",
        "    except LinearSolveError:\n",
        "    except (ValueError, LinearSolveError):\n",
        "a non-square map reads as not invertible instead of a refused document",
    ),
    (
        "nul-in-path-escapes",
        "src/towercalc/scenarios.py",
        "    try:\n"
        '        return open(path, mode, encoding="utf-8")\n'
        "    except ValueError as exc:\n"
        '        raise ScenarioError("%r: %s" % (path, exc)) from None\n',
        '    return open(path, mode, encoding="utf-8")\n',
        "a path holding a NUL byte ends in a traceback, not a named error",
    ),
    (
        "json-keys-in-insertion-order",
        "src/towercalc/scenarios.py",
        "for key in sorted(value):",
        "for key in value:",
        "canonical JSON writes an object's keys in the order they were inserted",
    ),
    (
        "json-bool-written-as-int",
        "src/towercalc/scenarios.py",
        "    if value is None or value is True or value is False:  # a bool is an int\n"
        "        return _LITERALS[value]\n"
        "    if isinstance(value, int):\n"
        "        return int.__repr__(value)\n",
        "    if isinstance(value, int):\n"
        "        return int.__repr__(value)\n"
        "    if value is None or value is True or value is False:  # a bool is an int\n"
        "        return _LITERALS[value]\n",
        "the int branch comes before the bool branch, so true and false are written 1 and 0",
    ),
    (
        "one-expected-value-for-every-check",
        "src/towercalc/scenarios.py",
        'parse_value(entry["value"]),',
        'parse_value(doc["expect"][0]["value"]),',
        "every check of a document is compared with its first check's expected value",
    ),
    (
        "extremal-strict-positivity-dropped",
        "src/towercalc/curves.py",
        "_int_signs_from([_dot(cand, row) for row in dense]) == {1}",
        "-1 not in _int_signs_from([_dot(cand, row) for row in dense])",
        "a functional whose pairing is 0 at some n >= 3 is certified as strictly positive",
    ),
    (
        "chain-set-not-multiset",
        "src/towercalc/curves.py",
        "        if pushed != expected:\n",
        "        if set(pushed) != set(expected):\n",
        "two generators pushed to one vector match a known cone that has it once",
    ),
    (
        "contracting-unsorted",
        "src/towercalc/curves.py",
        "for i in sorted(range(len(images)), key=lambda i: i != ci):",
        "for i in range(len(images)):",
        "of two generators that break a condition, not the marked one is named",
    ),
]


#: The suite as each copy runs it, less the check of this file's texts.
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--ignore=tests/test_mutate.py"]


def run_suite(root: Path) -> tuple:
    """(passed, seconds) of the suite run with ``-x`` in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [sys.executable, *PYTEST]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=TIMEOUT)
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - start


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="mutate-"))
    try:
        copy = work / "repo"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis")
        )
        passed, seconds = run_suite(copy)
        if not passed:
            print("mutate: the unmutated suite fails (%.1f s); nothing counts" % seconds)
            return 2
        print("unmutated suite passes in %.1f s" % seconds)
        survived = []
        for name, path, old, new, fault in MUTANTS:
            target = copy / path
            original = target.read_text(encoding="utf-8")
            if original.count(old) != 1:
                print("mutate: %s: its text is not once in %s" % (name, path))
                return 2
            target.write_text(original.replace(old, new), encoding="utf-8")
            try:
                passed, seconds = run_suite(copy)
            finally:
                target.write_text(original, encoding="utf-8")
            verdict = "SURVIVED" if passed else "killed"
            print("%-8s %-36s %5.1f s  %s" % (verdict, name, seconds, fault))
            if passed:
                survived.append(name)
    finally:
        shutil.rmtree(work)
    print(
        "mutate: %d mutants, %d killed, %d survived"
        % (len(MUTANTS), len(MUTANTS) - len(survived), len(survived))
    )
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
