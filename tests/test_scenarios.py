"""Scenario suite: green runs, coherence, round-trips, and error paths."""

import hashlib
import json
import math
import random
import re
import sys
import time
from fractions import Fraction
from importlib import resources
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from towercalc import exactnum, scenarios, symplectic
from towercalc.cli import main
from towercalc.exactnum import N, ParamPoly, _signs_from
from towercalc.scenarios import (
    CHECK_KINDS,
    ENV_CACHE_SIZE,
    FORMAT_TAG,
    MAX_SECTION_ENTRIES,
    POLICY_ANY,
    POLICY_NUMERIC,
    SYMBOLIC,
    ScenarioError,
    canonical_json,
    evaluate_doc,
    exc_restriction_routes,
    export_scenario,
    list_scenarios,
    load_scenario_file,
    parse_value,
    run_scenario,
    scenario_doc,
    serialize_value,
)
from towercalc.towers import BlowUp, FormalBase, FormalBundle

ALL_NAMES = [info["name"] for info in list_scenarios()]


# ---------------------------------------------------------------------------
# every built-in scenario is green


@pytest.mark.parametrize("name", ALL_NAMES)
def test_scenario_passes_symbolically_or_at_policy_minimum(name):
    doc = scenario_doc(name)
    n = 3 if doc["n_policy"] == POLICY_NUMERIC else SYMBOLIC
    report = run_scenario(name, n)
    assert report.passed, [c.name for c in report.checks if c.status != "PASS"]


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_scenario_passes_at_numeric_parameters(name, n):
    report = run_scenario(name, n)
    assert report.passed, [c.name for c in report.checks if c.status != "PASS"]


def test_symbolic_pass_implies_numeric_pass():
    # coherence: a symbolic run that passes must pass at every sampled n
    for name in ALL_NAMES:
        if scenario_doc(name)["n_policy"] == POLICY_NUMERIC:
            continue
        if run_scenario(name, SYMBOLIC).passed:
            for n in (3, 4, 5):
                assert run_scenario(name, n).passed, (name, n)


# ---------------------------------------------------------------------------
# listing


def test_list_scenarios_is_sorted_and_documented():
    infos = list_scenarios()
    assert len(infos) >= 13
    names = [i["name"] for i in infos]
    assert names == sorted(names)
    for info in infos:
        assert info["description"].strip()
        assert info["n_policy"] in (POLICY_ANY, POLICY_NUMERIC)


def test_expected_scenarios_are_present():
    expected = {
        "jz-intersection-table",
        "jz-canonical-class",
        "picard-matrices",
        "normal-bundle-transport",
        "mori-chain-jz",
        "mori-chain-ez",
        "pushforward-iz1z2",
        "extremal-sigma-ray",
        "ez-kernel-x2-x3",
        "local-model-stabilizers",
        "normal-cone-quadric",
        "incidence-fixed-locus",
        "contraction-numerics",
    }
    assert expected <= set(ALL_NAMES)


# ---------------------------------------------------------------------------
# packaged documents

PACKAGE = resources.files("towercalc")
DATA = PACKAGE / "data"
DATA_FILES = sorted(p.name for p in DATA.iterdir() if p.name.endswith(".json"))
ENTRY_SECTIONS = ("spaces", "bundles", "maps", "curves")
#: The first check of jz-intersection-table, as refusals name it.
CHECK_0 = "scenario 'jz-intersection-table' check 'ambient-product-dim'"
#: The most digits of an integer that the interpreter converts to text.
DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize("filename", DATA_FILES)
def test_data_file_is_its_own_canonical_export(filename, tmp_path):
    # A packaged file is canonical JSON; its export is a self-contained
    # document, the tower entries named by `uses` in place of that list.
    text = (DATA / filename).read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == canonical_json(doc)
    assert filename == doc["name"] + ".json"
    assert doc["format"] == FORMAT_TAG
    path = tmp_path / filename
    path.write_text(export_scenario(doc["name"]), encoding="utf-8")
    exported = load_scenario_file(path)
    assert exported == scenario_doc(doc["name"])
    assert set(exported) == set(doc) - {"uses"} | set(ENTRY_SECTIONS)
    assert all(exported[key] == doc[key] for key in set(doc) - {"uses"})
    used = [e["name"] for section in ENTRY_SECTIONS for e in exported[section]]
    assert sorted(used) == sorted(doc["uses"])


def test_every_kind_is_named_by_a_packaged_document():
    docs = [scenario_doc(name) for name in ALL_NAMES]

    def named(section, key="kind"):
        return {e[key] for doc in docs for e in doc.get(section, [])}

    curves = [e["atomic"] for doc in docs for e in doc.get("curves", [])]
    tables = {
        "SPACE_KINDS": named("spaces"),
        "BUNDLE_KINDS": named("bundles"),
        "MAP_KINDS": named("maps"),
        "CURVE_KINDS": {atomic["kind"] for atomic in curves},
        "CHECK_KINDS": named("expect", "check"),
    }
    for table, names in tables.items():
        assert set(getattr(scenarios, table)) <= names, table


def test_each_tower_entry_is_declared_once_and_used():
    # The packaged scenarios share one tower: no scenario file declares an
    # entry, each name it uses is declared in the tower file exactly once
    # (across all sections, since `uses` is one list), and each is used.
    tower = json.loads((PACKAGE / "tower.json").read_text(encoding="utf-8"))
    declared = [e["name"] for section in ENTRY_SECTIONS for e in tower[section]]
    assert len(declared) == len(set(declared))
    used = {}
    for filename in DATA_FILES:
        doc = json.loads((DATA / filename).read_text(encoding="utf-8"))
        assert not set(doc) & set(ENTRY_SECTIONS), filename
        assert len(doc["uses"]) == len(set(doc["uses"])), filename
        for name in doc["uses"]:
            used.setdefault(name, []).append(filename)
    assert set(used) <= set(declared), set(used) - set(declared)
    assert set(declared) <= set(used), set(declared) - set(used)
    # The comparison maps read the relative cotangent class whose c1
    # euler-convention pins as a reference value.
    assert {
        "euler-convention.json",
        "normal-bundle-transport.json",
        "picard-matrices.json",
    } <= set(used["curve_cotangent"])


def test_every_used_entry_is_reached_by_the_checks():
    # Without any one entry that its `uses` names, a packaged document ends
    # in an unknown reference to it.  References cannot form cycles, so
    # `uses` is exactly the closure of the entries that the checks reach.
    for filename in DATA_FILES:
        packaged = json.loads((DATA / filename).read_text(encoding="utf-8"))
        doc = scenario_doc(packaged["name"])
        for name in packaged["uses"]:
            cut = dict(doc)
            for section in ENTRY_SECTIONS:
                cut[section] = [e for e in doc[section] if e["name"] != name]
            refusal = r"^[a-z]+ '[^']+'( check '[^']+')?: field '[^']+': unknown reference %s$"
            with pytest.raises(ScenarioError, match=refusal % re.escape(repr(name))):
                evaluate_doc(cut, 3)


def test_every_non_python_file_of_the_package_is_shipped():
    # Without tower.json in the package, every built-in scenario fails in an
    # installed copy; package-data is what puts it there.
    import tomllib

    root = Path(__file__).resolve().parents[1]
    config = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    package = root / "src" / "towercalc"
    shipped = {
        path
        for pattern in config["tool"]["setuptools"]["package-data"]["towercalc"]
        for path in package.glob(pattern)
    }
    data = {
        path
        for path in package.rglob("*")
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    }
    assert (PACKAGE / "tower.json").is_file()
    assert data - shipped == set()


# ---------------------------------------------------------------------------
# reports


def test_report_schema_and_sorted_checks():
    report = run_scenario("picard-matrices", SYMBOLIC)
    d = report.to_json_dict()
    assert set(d) == {"scenario", "n", "checks"}
    assert d["scenario"] == "picard-matrices"
    assert d["n"] == "symbolic"
    names = [c["name"] for c in d["checks"]]
    assert names == sorted(names)
    for c in d["checks"]:
        assert set(c) == {"name", "expected", "computed", "status", "provenance"}
        assert c["status"] in ("PASS", "FAIL")
        assert c["provenance"] in ("reference", "derived", "trivial")


def test_report_json_round_trips_losslessly():
    for name in ("jz-intersection-table", "jz-canonical-class"):
        text = run_scenario(name, SYMBOLIC).to_json_text()
        parsed = json.loads(text)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text


def test_reports_are_deterministic():
    for name in ALL_NAMES:
        n = 3 if scenario_doc(name)["n_policy"] == POLICY_NUMERIC else SYMBOLIC
        assert (
            run_scenario(name, n).to_json_text() == run_scenario(name, n).to_json_text()
        )


def test_reports_and_list_match_the_digests_the_benchmark_pins(capsys):
    pinned = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text(
            encoding="utf-8"
        )
    )
    sha256 = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    keys = []
    for name in ALL_NAMES:
        numeric_only = scenario_doc(name)["n_policy"] == POLICY_NUMERIC
        ns = ([] if numeric_only else [SYMBOLIC]) + list(range(3, 13))
        keys += [(name, n) for n in ns]
    assert sorted("%s@%s" % key for key in keys) == sorted(pinned["reports"])
    drifted = [
        "%s@%s" % (name, n)
        for name, n in keys
        if sha256(run_scenario(name, n).to_json_text())
        != pinned["reports"]["%s@%s" % (name, n)]
    ]
    assert drifted == []
    assert main(["list"]) == 0
    assert sha256(capsys.readouterr().out) == pinned["list"]


def test_reports_contain_no_timestamps():
    text = run_scenario("jz-intersection-table", 3).to_json_text()
    for needle in ("time", "date", "20260", "utc"):
        assert needle not in text.lower()


def test_text_rendering_mentions_every_check():
    report = run_scenario("ez-kernel-x2-x3", SYMBOLIC)
    text = report.render_text()
    assert "result: PASS" in text
    for c in report.checks:
        assert c.name in text


def test_failing_check_is_reported_not_raised():
    doc = scenario_doc("picard-matrices")
    for entry in doc["expect"]:
        if entry["name"] == "psi-invertible":
            entry["value"] = False
    report = evaluate_doc(doc, SYMBOLIC)
    assert not report.passed
    failing = [c for c in report.checks if c.status == "FAIL"]
    assert [c.name for c in failing] == ["psi-invertible"]
    assert failing[0].expected is False
    assert failing[0].computed is True
    assert "expected" in report.render_text()


def test_a_bundle_of_the_wrong_rank_disagrees_with_the_conormal_bookkeeping():
    # One more rank in the flat part makes the conormal model one rank too
    # big for the ambient dimension minus the fiber dimension.
    doc = scenario_doc("contraction-numerics")
    flat = next(e for e in doc["bundles"] if e["name"] == "flat_correction")
    flat["rank"] = {"0": "-11", "1": "8"}
    report = evaluate_doc(doc, SYMBOLIC)
    check = next(c for c in report.checks if c.name == "conormal-rank-bookkeeping")
    assert check.status == "FAIL"
    assert check.computed["agree"] is False
    assert check.computed["bundle_rank"] != check.computed["expected_rank"]


# ---------------------------------------------------------------------------
# parameter validation and policy


def test_rejects_small_and_malformed_parameters():
    with pytest.raises(ScenarioError, match=r"^n must be >= 3 \(got 2\)$"):
        run_scenario("jz-intersection-table", 2)
    with pytest.raises(ScenarioError, match=r"^n must be >= 3 \(got 0\)$"):
        run_scenario("jz-intersection-table", 0)
    with pytest.raises(ScenarioError, match=r"^n must be an integer >= 3 or 'symbolic'$"):
        run_scenario("jz-intersection-table", True)
    with pytest.raises(ScenarioError, match=r"^n must be an integer >= 3 or 'symbolic'$"):
        run_scenario("jz-intersection-table", "sym")


def domain_texts(capsys):
    """The four texts that name the domain start, whitespace normalised."""
    base = FormalBase("base", ("g",), canonical=None, dim=N)
    texts = []
    for build in (
        lambda: FormalBundle(base, N - 4, base.gen("g")),
        lambda: BlowUp("up", base, N - 4, "e"),
        lambda: run_scenario("normal-cone-quadric", SYMBOLIC),
    ):
        with pytest.raises((ValueError, ScenarioError)) as err:
            build()
        texts.append(str(err.value))
    assert main(["verify", "--help"]) == 0
    texts.append(" ".join(capsys.readouterr().out.split()))
    return texts


def test_the_domain_start_is_one_constant(monkeypatch, capsys):
    assert _signs_from(N - 3) != {1}
    texts = domain_texts(capsys)
    assert texts[0] == "rank n - 4 is below 1 for some n >= 3"
    assert texts[1] == "codimension n - 4 is below 1 for some n >= 3"
    assert texts[2] == (
        "scenario 'normal-cone-quadric' computes finite ranks; run it at a numeric n >= 3"
    )
    assert "--n N integer >= 3, 'symbolic'" in texts[3]
    monkeypatch.setattr(exactnum, "N_MIN", 4)
    assert _signs_from(N - 3) == {1}
    assert domain_texts(capsys) == [t.replace(">= 3", ">= 4") for t in texts]
    for argv_n, message in (
        ("3", "n must be >= 4 (got 3)"),
        ("range:3..5", "n must be >= 4 (range starts at 3)"),
    ):
        code = main(["verify", "--scenario", "picard-matrices", "--n", argv_n])
        assert code == 2
        assert message in capsys.readouterr().err
    with pytest.raises(ScenarioError, match=r"^n must be >= 4 \(got 3\)$"):
        run_scenario("picard-matrices", 3)
    assert run_scenario("picard-matrices", 4).passed


# The scenarios that build resolved_incidence, the blow-up of x4 along a
# center of codimension 2n - 4: the one place where the engine needs n >= 3.
BUILDS_RESOLVED_INCIDENCE = {
    "contraction-numerics",
    "extremal-sigma-ray",
    "ez-kernel-x2-x3",
    "jz-canonical-class",
    "jz-intersection-table",
    "pushforward-iz1z2",
}


@pytest.mark.parametrize(
    "n_min, refusal",
    [
        (2, "space 'resolved_incidence': codimension 2n - 4 is below 1 for some n >= 2"),
        (1, "bundle 'middle_quotient': rank 2n - 2 is below 1 for some n >= 1"),
    ],
    ids=("2", "1"),
)
def test_only_the_resolved_incidence_needs_n_at_least_3(monkeypatch, n_min, refusal):
    # Below 3, the six scenarios that build resolved_incidence are refused,
    # and every check of the other eight still passes, at symbolic (where
    # the policy allows it) and at the lowered start.
    assert set(ALL_NAMES) > BUILDS_RESOLVED_INCIDENCE
    scenarios._compiled.cache_clear()
    monkeypatch.setattr(exactnum, "N_MIN", n_min)
    try:
        for name in ALL_NAMES:
            numeric = scenario_doc(name)["n_policy"] == POLICY_NUMERIC
            for n in (n_min,) if numeric else (SYMBOLIC, n_min):
                if name in BUILDS_RESOLVED_INCIDENCE:
                    with pytest.raises(ScenarioError, match="^%s$" % re.escape(refusal)):
                        run_scenario(name, n)
                else:
                    report = run_scenario(name, n)
                    assert report.passed, (name, n)
    finally:
        scenarios._compiled.cache_clear()


def test_unknown_scenario_names_the_known_ones():
    refusal = "^unknown scenario %s; known scenarios: %s$"
    known = ", ".join(ALL_NAMES)
    assert "jz-intersection-table" in known
    for name in ("no-such-scenario", "../pyproject", "jz-intersection-table.json"):
        with pytest.raises(ScenarioError, match=refusal % (re.escape(repr(name)), known)):
            run_scenario(name, 3)


def test_numeric_only_policy_is_enforced():
    refusal = r"^scenario 'normal-cone-quadric' computes finite ranks; run it at a numeric n >= 3$"
    with pytest.raises(ScenarioError, match=refusal):
        run_scenario("normal-cone-quadric", SYMBOLIC)
    assert run_scenario("normal-cone-quadric", 3).passed
    # The policy is refused before any check is bound, even a bad one.
    doc = scenario_doc("normal-cone-quadric")
    doc["expect"][0]["bogus"] = "1"
    with pytest.raises(ScenarioError, match=refusal):
        evaluate_doc(doc, SYMBOLIC)
    with pytest.raises(
        ScenarioError,
        match="^scenario 'normal-cone-quadric' check 'quadric': unknown field 'bogus'; "
        "known: anchor, check, description, name, note, provenance, value$",
    ):
        evaluate_doc(doc, 3)


def test_quadric_passes_at_symbolic_once_its_document_allows_it():
    doc = scenario_doc("normal-cone-quadric")
    doc["n_policy"] = POLICY_ANY
    report = evaluate_doc(doc, SYMBOLIC)
    assert report.passed
    quadric = report.checks[0].computed
    assert quadric["rank"] == quadric["nvars"] == {"0": "-4", "1": "4"}
    assert quadric["ambient_dim"] == {"0": "-5", "1": "4"}
    assert quadric["smooth"] is True


# ---------------------------------------------------------------------------
# document loading


def test_export_then_load_reproduces_the_report(tmp_path):
    for name in ALL_NAMES:
        n = 4 if scenario_doc(name)["n_policy"] == POLICY_NUMERIC else SYMBOLIC
        path = tmp_path / ("%s.json" % name)
        path.write_text(export_scenario(name), encoding="utf-8")
        doc = load_scenario_file(path)
        assert evaluate_doc(doc, n).to_json_text() == run_scenario(name, n).to_json_text()


def test_graded_ranks_fail_when_one_graded_rank_is_wrong(monkeypatch):
    # Every k of the check must agree, not just one of them.  The document
    # is compiled first: nothing caches a check's value, so a warm request
    # still runs the check.
    assert run_scenario("contraction-numerics", 3).passed
    real = scenarios.coh_dim_product_proj
    monkeypatch.setattr(
        scenarios, "coh_dim_product_proj", lambda a, b, q: real(a, b, q) + (a == b == 2)
    )
    report = run_scenario("contraction-numerics", 3)
    check = next(c for c in report.checks if c.name == "graded-ranks-square")
    assert check.status == "FAIL" and check.computed is False


#: One request of each route to a document, for the scenario exported to a path.
ROUTES = {
    "verify-scenario": lambda path: main(["verify", "--scenario", path.stem, "--n", "3"]),
    "verify-scenario-file": lambda path: main(
        ["verify", "--scenario-file", str(path), "--n", "3"]
    ),
    "table": lambda path: main(["table", "--scenario", path.stem, "--n", "3"]),
    "cone": lambda path: main(["cone", "--scenario", path.stem, "--n", "3"]),
    "export": lambda path: main(["export", "--scenario", path.stem]),
    "evaluate_doc": lambda path: evaluate_doc(json.loads(path.read_text(encoding="utf-8")), 3),
    "run_scenario": lambda path: run_scenario(path.stem, 3),
}


@pytest.mark.parametrize(
    "route, name",
    [(route, "mori-chain-ez" if route == "cone" else "jz-intersection-table") for route in ROUTES],
)
def test_each_route_validates_a_new_document_once_and_a_known_one_never(
    route, name, monkeypatch, capsys, tmp_path
):
    path = tmp_path / (name + ".json")
    path.write_text(export_scenario(name), encoding="utf-8")
    calls = []
    real = scenarios.validate_doc
    monkeypatch.setattr(scenarios, "validate_doc", lambda doc: calls.append(1) or real(doc))
    scenarios._compiled.cache_clear()
    ROUTES[route](path)
    assert len(calls) == 1
    ROUTES[route](path)
    assert len(calls) == 1
    # Whichever route compiled it, the exported file is the same entry.
    misses = scenarios._compiled.cache_info().misses
    assert main(["verify", "--scenario-file", str(path), "--n", "3"]) == 0
    assert scenarios._compiled.cache_info().misses == misses and len(calls) == 1
    capsys.readouterr()


def test_of_two_unknown_fields_the_first_written_is_named(tmp_path):
    # Validation reads the canonical dump, the key that equal documents
    # share, but the dict or file as written decides which field is named.
    known = "bundles, curves, description, expect, format, maps, n_policy, name, note, spaces"
    for first, second in (("zeta", "alpha"), ("alpha", "zeta")):
        doc = {"format": FORMAT_TAG, "name": "x", first: 1, second: 2}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        refusal = "^scenario 'x': unknown field '%s'; known: %s$" % (first, known)
        for route in (lambda: evaluate_doc(doc, 3), lambda: load_scenario_file(path)):
            with pytest.raises(ScenarioError, match=refusal):
                route()


def test_loaded_doc_with_a_wrong_value_fails_cleanly(tmp_path):
    doc = scenario_doc("mori-chain-ez")
    for entry in doc["expect"]:
        if entry["name"] == "boundary-push-sigma":
            entry["value"] = ["9", "9", "9", "9"]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = evaluate_doc(load_scenario_file(path), 3)
    assert not report.passed


def test_parse_error_carries_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "spaces": [1,]\n}', encoding="utf-8")
    refusal = "^%s: parse error at line 2 column 16: Expecting value$" % re.escape(str(path))
    with pytest.raises(ScenarioError, match=refusal):
        load_scenario_file(path)


def test_wrong_format_tag_is_rejected(tmp_path):
    path = tmp_path / "wrong.json"
    path.write_text('{"format": "other/9", "name": "x"}', encoding="utf-8")
    refusal = "^%s: field 'format': unknown format 'other/9'; known formats: towercalc-scenario/1$"
    with pytest.raises(ScenarioError, match=refusal % re.escape(str(path))):
        load_scenario_file(path)


def test_semantic_error_names_the_offending_object():
    doc = scenario_doc("jz-intersection-table")
    doc["spaces"][1]["bundle"] = "missing_bundle"
    refusal = "^space 'first_ruling': field 'bundle': unknown reference 'missing_bundle'$"
    with pytest.raises(ScenarioError, match=refusal):
        evaluate_doc(doc, 3)


def test_untagged_expected_value_is_rejected():
    doc = scenario_doc("jz-intersection-table")
    del doc["expect"][0]["provenance"]
    assert doc["expect"][0]["name"] == "ambient-product-dim"
    with pytest.raises(ScenarioError, match="^%s: field 'provenance': missing$" % CHECK_0):
        evaluate_doc(doc, 3)


@pytest.mark.parametrize("doc", [[1], "jz-intersection-table", None])
def test_a_document_that_is_not_an_object_is_rejected(doc):
    refusal = "^scenario document: expected an object, got %s$" % re.escape(repr(doc))
    with pytest.raises(ScenarioError, match=refusal):
        evaluate_doc(doc, 3)


def test_unknown_provenance_tag_is_rejected():
    doc = scenario_doc("jz-intersection-table")
    doc["expect"][0]["provenance"] = "guessed"
    refusal = "^%s: field 'provenance': unknown provenance 'guessed'; known provenances: %s$"
    with pytest.raises(ScenarioError, match=refusal % (CHECK_0, "derived, reference, trivial")):
        evaluate_doc(doc, 3)


def test_unknown_check_kind_is_rejected():
    doc = scenario_doc("jz-intersection-table")
    doc["expect"][0]["check"] = "warp-drive"
    refusal = "^%s: field 'check': unknown check kind 'warp-drive'; known check kinds: %s$"
    with pytest.raises(ScenarioError, match=refusal % (CHECK_0, ", ".join(sorted(CHECK_KINDS)))):
        evaluate_doc(doc, 3)


def test_duplicate_check_names_are_rejected():
    doc = scenario_doc("jz-intersection-table")
    doc["expect"][1]["name"] = doc["expect"][0]["name"]
    refusal = r"^scenario 'jz-intersection-table': field 'expect\[1\]\.name': duplicate name %s$"
    with pytest.raises(ScenarioError, match=refusal % "'ambient-product-dim'"):
        evaluate_doc(doc, 3)


def test_floats_are_rejected_everywhere():
    doc = scenario_doc("jz-intersection-table")
    doc["expect"][0]["value"] = 1.5
    refusal = r"^scenario 'jz-intersection-table': non-exact number 1\.5 \(use strings of %s\)$"
    with pytest.raises(ScenarioError, match=refusal % "integers or p/q"):
        evaluate_doc(doc, 3)


def test_missing_anchor_is_rejected():
    doc = scenario_doc("jz-intersection-table")
    del doc["expect"][0]["anchor"]
    with pytest.raises(ScenarioError, match="^%s: field 'anchor': missing$" % CHECK_0):
        evaluate_doc(doc, 3)


def test_anchor_stays_out_of_reports():
    doc = scenario_doc("jz-intersection-table")
    report = evaluate_doc(doc, 3)
    assert "anchor" not in report.to_json_text()


# ---------------------------------------------------------------------------
# serialization


def test_serialize_numbers_as_strings():
    assert serialize_value(Fraction(5, 2), SYMBOLIC) == "5/2"
    assert serialize_value(7, SYMBOLIC) == "7"
    assert serialize_value(True, SYMBOLIC) is True
    p = ParamPoly({1: 2, 0: -4})
    assert serialize_value(p, SYMBOLIC) == {"0": "-4", "1": "2"}
    assert serialize_value(p, 5) == "6"


def test_parse_round_trip_on_specific_values():
    cases = ["5/2", "-3", {"0": "-4", "1": "2"}, [["1", "0"], ["0", "1"]], True, None]
    for case in cases:
        assert serialize_value(parse_value(case), SYMBOLIC) == case


@given(st.fractions())
def test_fraction_serialization_round_trips(q):
    assert parse_value(serialize_value(q, SYMBOLIC)) == q


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.fractions(),
        min_size=1,
        max_size=4,
    )
)
def test_polynomial_serialization_is_idempotent(coeffs):
    p = ParamPoly(coeffs)
    once = serialize_value(p, SYMBOLIC)
    again = serialize_value(parse_value(once), SYMBOLIC)
    assert once == again


def test_only_integers_and_quotients_are_numbers():
    assert parse_value("-12/8") == Fraction(-3, 2)
    assert parse_value({"0": "3", "1": "-1/2"}) == 3 - N * Fraction(1, 2)
    for text in ("1e10000000", "1.5", "+3", " 3", "1_000", "\u0661"):
        assert parse_value(text) == text
        assert parse_value({"0": text}) == {"0": text}


def test_integer_literals_are_read_as_int():
    for value in (12, "12", "-12", "24/2"):
        assert type(parse_value(value)) is int and abs(parse_value(value)) == 12
    assert type(parse_value("1/2")) is Fraction
    assert all(type(c) is int for c in parse_value({"0": "3", "1": -1}).coeffs.values())


@pytest.mark.parametrize(
    "vector, text",
    [
        ((-1, 1, 0), "-x1 + x2"),
        ((0, -1, 0), "-x2"),
        ((Fraction(-1), 0, 1), "-x1 + x3"),
        ((1, -1, -3), "x1 - x2 - 3 x3"),
        ((-2, 0, Fraction(1, 2)), "-2 x1 + 1/2 x3"),
        ((Fraction(3, 2), -1, 0), "3/2 x1 - x2"),
        ((0, 0, 0), "0"),
    ],
)
def test_combination_strings(vector, text):
    # A leading -1 is written "-x1", with no space, as in ParamPoly's "-n".
    assert scenarios._combo_string(("x1", "x2", "x3"), vector) == text


# ---------------------------------------------------------------------------
# building a document's entries


SECTIONS = ("spaces", "bundles", "maps", "curves")


def counted_builds(monkeypatch):
    """Wrap scenarios._entry: (calls, builds, errors), the entry labels of
    every call, of every call that returned and of every call that raised a
    ScenarioError."""
    calls, builds, errors = [], [], []
    entry = scenarios._entry

    def counted(what, build):
        calls.append(what)
        try:
            value = entry(what, build)
        except ScenarioError:
            errors.append(what)
            raise
        builds.append(what)
        return value

    monkeypatch.setattr(scenarios, "_entry", counted)
    return calls, builds, errors


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_entry_is_built_once(monkeypatch, name):
    doc = scenario_doc(name)
    calls, builds, errors = counted_builds(monkeypatch)
    env = scenarios._make_env(doc)
    assert errors == []
    declared = [(s, e["name"]) for s in SECTIONS for e in doc.get(s, ())]
    assert sorted(builds) == sorted("%s %r" % (s[:-1], name) for s, name in declared)
    built = [(s, name) for s in SECTIONS for name in getattr(env, s)]
    assert sorted(built) == sorted(declared)
    # An attempt cut short waits on an entry not built yet, which is then
    # built: at most one such attempt per entry.
    assert len(calls) - len(builds) <= len(builds)


def interleaved_tower(depth):
    """Spaces s0..s{depth-1} and bundles b0..b{depth-1}: s0 a formal base,
    s_k the projective bundle of b_{k-1} over s_{k-1}, b_k pulled to s_k."""
    spaces = [{"name": "s0", "kind": "formal-base", "pic": ["h"], "dim": "2"}]
    bundles = [
        {"name": "b0", "kind": "declared", "space": "s0", "rank": "2", "c1": ["1"]}
    ]
    for k in range(1, depth):
        spaces.append(
            {
                "name": "s%d" % k,
                "kind": "proj-bundle",
                "base": "s%d" % (k - 1),
                "bundle": "b%d" % (k - 1),
                "taut": "t%d" % k,
            }
        )
        bundles.append(
            {
                "name": "b%d" % k,
                "kind": "pull-to",
                "of": "b%d" % (k - 1),
                "space": "s%d" % k,
            }
        )
    return spaces, bundles


@pytest.mark.parametrize("reverse", [False, True], ids=["dependency-order", "reversed"])
def test_deepest_interleaved_tower_builds_each_entry_once(monkeypatch, reverse):
    # The tower is as deep as a section may be long.  Building through the
    # readers' own recursion would need about eight frames per level, past
    # the default recursion limit, and retrying unready entries pass by pass
    # takes calls quadratic in the depth.
    depth = MAX_SECTION_ENTRIES
    spaces, bundles = interleaved_tower(depth)
    if reverse:
        spaces.reverse()
        bundles.reverse()
    doc = {"name": "tower", "spaces": spaces, "bundles": bundles}
    calls, builds, errors = counted_builds(monkeypatch)
    start = time.perf_counter()
    env = scenarios._make_env(doc)
    assert time.perf_counter() - start < 0.5
    assert len(builds) == len(set(builds)) == 2 * depth and errors == []
    assert len(calls) <= 2 * len(builds)
    assert env.spaces["s%d" % (depth - 1)].dim() == depth + 1


def test_a_map_may_read_through_a_map_declared_after_it():
    doc = scenario_doc("picard-matrices")
    assert any(
        isinstance(c, dict) and c.get("via") == "cotangent_split"
        for m in doc["maps"]
        for c in m.get("columns", ())
    )
    split = next(m for m in doc["maps"] if m["name"] == "cotangent_split")
    doc["maps"].remove(split)
    doc["maps"].append(split)
    for n in (SYMBOLIC, 3):
        expected = run_scenario("picard-matrices", n).to_json_text()
        assert evaluate_doc(doc, n).to_json_text() == expected


def test_entries_may_be_listed_in_any_order():
    doc = scenario_doc("contraction-numerics")
    for section in SECTIONS:
        doc[section] = doc.get(section, [])[::-1]
    for n in (SYMBOLIC, 4):
        expected = run_scenario("contraction-numerics", n).to_json_text()
        assert evaluate_doc(doc, n).to_json_text() == expected


# ---------------------------------------------------------------------------
# one compiled entry per distinct document, one count per fixed locus


def clear_caches():
    scenarios._compiled.cache_clear()
    symplectic.fixed_locus_incidence.cache_clear()


def tiny_doc(**fields):
    """A document with no checks and one formal base, ``fields`` replacing
    its defaults."""
    space = dict({"name": "s", "kind": "formal-base", "pic": ["h"], "dim": "2"}, **fields)
    return {"name": "tiny", "spaces": [space], "expect": []}


def test_shared_environments_give_the_reports_of_fresh_ones():
    # Every scenario at symbolic (where allowed) and at 3, 4, 5 and 12, run
    # twice in one process in two seeded orders, against the report computed
    # after clearing the caches.
    requests = [
        (name, n)
        for name in ALL_NAMES
        for n in ([] if scenario_doc(name)["n_policy"] == POLICY_NUMERIC else [SYMBOLIC])
        + [3, 4, 5, 12]
    ]
    warm = {}
    for seed in (26, 27):
        order = list(requests)
        random.Random(seed).shuffle(order)
        for name, n in order:
            warm.setdefault((name, n), set()).add(run_scenario(name, n).to_json_text())
    for (name, n), texts in warm.items():
        clear_caches()
        assert texts == {run_scenario(name, n).to_json_text()}, (name, n)


def test_a_changed_copy_of_a_packaged_scenario_builds_its_own_tower(tmp_path, capsys):
    assert run_scenario("euler-convention", 3).passed
    doc = scenario_doc("euler-convention")
    bundle = next(b for b in doc["bundles"] if b["name"] == "rank_two_trivial")
    bundle["rank"] = "3"
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--scenario-file", str(path), "--n", "3"]) == 1
    assert "result: FAIL" in capsys.readouterr().out
    assert run_scenario("euler-convention", 3).passed


def test_a_changed_scenario_doc_never_reaches_a_later_run():
    # scenario_doc hands out a fresh copy; the compiled document that
    # run_scenario shares is parsed from the scenario's text, not from it.
    before = run_scenario("euler-convention", 3).to_json_text()
    doc = scenario_doc("euler-convention")
    doc["expect"][0]["value"] = "0"
    doc["bundles"][0]["rank"] = "3"
    doc["name"] = "changed"
    assert run_scenario("euler-convention", 3).to_json_text() == before
    assert scenario_doc("euler-convention") != doc
    assert not evaluate_doc(doc, 3).passed
    assert run_scenario("euler-convention", 3).to_json_text() == before


def test_a_document_that_fails_to_build_fails_on_every_call(monkeypatch):
    # An entry that fails to build, and a check whose field fails to bind,
    # fail again on every call: a compiled document keeps no part of either.
    for section, field, label in [
        ("bundles", "space", "bundle 'rank_three_taut'"),
        ("expect", "bundle", "scenario 'euler-convention' check 'curve-tangent'"),
    ]:
        doc = scenario_doc("euler-convention")
        doc[section][0][field] = "nowhere"
        calls, builds, errors = counted_builds(monkeypatch)
        messages = set()
        for _ in range(3):
            refusal = "^%s: field '%s': unknown reference 'nowhere'$" % (label, field)
            with pytest.raises(ScenarioError, match=refusal) as exc:
                evaluate_doc(doc, 3)
            messages.add(str(exc.value))
        assert len(messages) == 1
        assert errors == [label] * 3


def test_the_environment_cache_stays_within_its_bound():
    for k in range(ENV_CACHE_SIZE + 5):
        evaluate_doc(tiny_doc(name="s%d" % k), 3)
    info = scenarios._compiled.cache_info()
    assert info.maxsize == ENV_CACHE_SIZE
    assert info.currsize == ENV_CACHE_SIZE


def test_a_document_that_is_not_json_data_is_refused():
    # Sections equal as JSON text to a cached document's, but not as data,
    # are refused before any tower is built or shared: a document must be
    # JSON data, and a tuple, an int key and a Fraction are not.
    evaluate_doc(tiny_doc(), 3)
    evaluate_doc(tiny_doc(dim={"0": "2"}), 3)
    for doc, message in [
        (tiny_doc(pic=("h",)), "scenario 'tiny': ('h',) is not JSON data"),
        (tiny_doc(dim={0: "2"}), "scenario 'tiny': key 0 is not a string"),
        (tiny_doc(dim=Fraction(2)), "scenario 'tiny': Fraction(2, 1) is not JSON data"),
    ]:
        with pytest.raises(ScenarioError, match="^%s$" % re.escape(message)):
            evaluate_doc(doc, 3)


def test_equal_sections_share_a_tower_whatever_their_key_order(monkeypatch):
    # Documents are equal as data whatever order their keys were written in,
    # so one whose objects list their keys backwards shares the compiled
    # entry: it is neither validated nor built again.
    def backwards(node):
        if isinstance(node, dict):
            return {k: backwards(node[k]) for k in reversed(list(node))}
        return [backwards(v) for v in node] if isinstance(node, list) else node

    clear_caches()
    doc = scenario_doc("picard-matrices")
    evaluate_doc(doc, SYMBOLIC)
    calls, _, _ = counted_builds(monkeypatch)
    report = evaluate_doc(backwards(doc), SYMBOLIC)
    assert report.passed and calls == []


@pytest.mark.parametrize(
    "dim, message",
    [
        # Its section has no JSON text to share a tower by, even where no
        # check reports the integer, as here the dimension of a space.
        ("big", "scenario 'tiny': an integer has more than %d digits" % DIGITS),
        # repr cannot print these either, so the error shows their type.
        ("big-key", "scenario 'tiny': key <int too long to print> is not a string"),
        ("big-fraction", "scenario 'tiny': <Fraction too long to print> is not JSON data"),
    ],
)
def test_an_entry_integer_over_the_digit_limit_is_a_named_error(dim, message):
    big = 10 ** sys.get_int_max_str_digits()
    dim = {"big": big, "big-key": {big: "2"}, "big-fraction": Fraction(big)}[dim]
    with pytest.raises(ScenarioError, match="^%s$" % re.escape(message)):
        evaluate_doc(tiny_doc(dim=dim), 3)


def test_an_integer_over_the_digit_limit_is_refused_anywhere_in_a_document():
    # The whole document is the key of its compiled entry, so an integer
    # that json.dumps cannot write is refused wherever it stands, by
    # validation and so before the policy.
    big = 10 ** sys.get_int_max_str_digits()
    doc = scenario_doc("euler-convention")
    doc["expect"][0]["value"] = big
    refusal = "^scenario %s: an integer has more than %d digits$"
    with pytest.raises(ScenarioError, match=refusal % ("'euler-convention'", DIGITS)):
        evaluate_doc(doc, 3)
    doc = dict(tiny_doc(), n_policy=POLICY_NUMERIC, format=big)
    with pytest.raises(ScenarioError, match=refusal % ("'tiny'", DIGITS)):
        evaluate_doc(doc, SYMBOLIC)


@pytest.mark.parametrize("name", ["jz-intersection-table", "mori-chain-ez", "picard-matrices"])
def test_a_second_run_builds_no_entry(monkeypatch, name):
    # A work guard that needs no clock: the labels of _entry name each
    # space, bundle, map and curve it builds and each check it binds, and a
    # second run of a compiled document calls it not at all.
    def entries(labels):
        return [w for w in labels if w.split()[0] in ("space", "bundle", "map", "curve")]

    clear_caches()
    calls, builds, errors = counted_builds(monkeypatch)
    run_scenario(name, SYMBOLIC)
    assert entries(builds) and errors == []
    del calls[:], builds[:]
    run_scenario(name, 4)
    assert calls == []


def test_a_fixed_locus_is_counted_once(monkeypatch):
    clear_caches()
    dims = []
    real = symplectic._projective_points
    monkeypatch.setattr(
        symplectic, "_projective_points", lambda dim: dims.append(dim) or real(dim)
    )
    assert run_scenario("incidence-fixed-locus", SYMBOLIC).passed
    assert run_scenario("incidence-fixed-locus", 3).passed
    assert sorted(dims) == [2, 4]


# ---------------------------------------------------------------------------
# comparison maps


def test_recipe_matrices_match_their_recorded_forms():
    psi = [
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(1), Fraction(-3)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(-1)],
    ]
    xi = [
        [Fraction(1), Fraction(-1), Fraction(-1), Fraction(1)],
        [Fraction(0), Fraction(2), Fraction(2), Fraction(-3)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(-1)],
    ]
    restriction = [
        [Fraction(0), Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(-1), Fraction(-1), Fraction(-1)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(-1)],
    ]
    for name in ("picard-matrices", "normal-bundle-transport"):
        maps = scenarios._make_env(scenario_doc(name)).maps
        assert maps["psi"].matrix.const_entries() == psi, name
        assert maps["xi"].matrix.const_entries() == xi, name
    restricting = [
        name
        for name in ALL_NAMES
        if any(m["name"] == "boundary_restriction" for m in scenario_doc(name)["maps"])
    ]
    assert len(restricting) == 6
    for name in restricting:
        maps = scenarios._make_env(scenario_doc(name)).maps
        assert maps["boundary_restriction"].matrix.const_entries() == restriction, name


def test_dimension_values_follow_from_the_tower_ranks():
    # Closed forms, derived by hand from the dimensions and ranks that
    # tower.json declares, not with Space.dim: P(E) over B has dimension
    # dim B + rank E - 1, the relative tangent bundle of P(E) has rank
    # rank E - 1, a fiber product over B adds the relative dimensions, a
    # divisor drops one, and a blow-up keeps the dimension.  A polynomial
    # in n is written (constant, coefficient of n).
    tower = json.loads((PACKAGE / "tower.json").read_text(encoding="utf-8"))
    entries = {e["name"]: e for section in ENTRY_SECTIONS for e in tower[section]}

    def poly(raw):
        raw = raw if isinstance(raw, dict) else {"0": raw}
        return int(raw.get("0", "0")), int(raw.get("1", "0"))

    assert poly(entries["proj_base"]["dim"]) == (-1, 2)
    assert poly(entries["pairing_perp"]["rank"]) == (-1, 2)
    assert poly(entries["taut_line"]["rank"]) == (1, 0)
    assert poly(entries["grass3"]["dim"]) == (-12, 6)
    assert poly(entries["rank_three_taut"]["rank"]) == (3, 0)
    ruling = {"kind": "proj-bundle", "base": "proj_base", "bundle": "middle_quotient"}
    plane_ruling = {"kind": "proj-bundle", "base": "chi_plane", "bundle": "plane_tangent"}
    shape = {
        "middle_quotient": {"kind": "quotient", "of": "pairing_perp", "sub": "taut_line"},
        "first_ruling": ruling,
        "second_ruling": ruling,
        "double_ruling_space": {
            "kind": "fiber-product",
            "left": "first_ruling",
            "right": "second_ruling",
            "over": "proj_base",
        },
        "incidence_divisor": {"kind": "divisor-in", "ambient": "double_ruling_space"},
        "resolved_incidence": {"kind": "blow-up", "ambient": "incidence_divisor"},
        "chi_plane": {"kind": "proj-bundle", "base": "grass3", "bundle": "rank_three_taut"},
        "plane_tangent": {"kind": "relative-tangent", "space": "chi_plane"},
        "ruling_one": plane_ruling,
        "ruling_two": plane_ruling,
        "ruling_product": {
            "kind": "fiber-product",
            "left": "ruling_one",
            "right": "ruling_two",
            "over": "chi_plane",
        },
    }
    for name, fields in shape.items():
        assert {key: entries[name][key] for key in fields} == fields, name

    # middle_quotient has rank (2n - 1) - 1, so each ruling has dimension
    # (2n - 1) + (2n - 2) - 1 = 4n - 4 and their product over proj_base
    # 2(4n - 4) - (2n - 1) = 6n - 7; the divisor and its blow-up have 6n - 8.
    # chi_plane has dimension (6n - 12) + 3 - 1 = 6n - 10 and plane_tangent
    # rank 2, so each plane ruling has 6n - 9 and their product over chi_plane
    # 2(6n - 9) - (6n - 10) = 6n - 8, whose fibers over grass3 have
    # (6n - 8) - (6n - 12) = 4.
    closed = {
        "ambient-product-dim": ("double_ruling_space", None, (-7, 6)),
        "incidence-dim": ("incidence_divisor", None, (-8, 6)),
        "resolved-dim": ("resolved_incidence", None, (-8, 6)),
        "product-dim": ("ruling_product", None, (-8, 6)),
        "ruling-fiber-dim": ("ruling_product", "grass3", (4, 0)),
    }
    checks = {
        e["name"]: (e["space"], e.get("over"), poly(e["value"]))
        for name in ("jz-intersection-table", "contraction-numerics")
        for e in scenario_doc(name)["expect"]
        if e["check"] == "dim"
    }
    assert checks == closed


def _determinant(rows):
    """Laplace expansion along the first row, in plain integers."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _determinant([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, a in enumerate(rows[0])
    )


def test_map_inverse_values_follow_from_plain_integer_arithmetic():
    # psi-invertible: psi has a nonzero integer determinant.
    # xi-inverse-recomputed: xi times the printed inverse is the identity on
    # both sides, multiplied as plain lists.
    picard = scenario_doc("picard-matrices")
    expect = {e["name"]: e for e in picard["expect"]}
    psi = [[int(x) for x in row] for row in expect["psi-matrix"]["value"]]
    xi = [[int(x) for x in row] for row in expect["xi-matrix"]["value"]]
    printed = next(m for m in picard["maps"] if m["name"] == "xi_inverse_printed")
    inverse = [[int(x) for x in row] for row in printed["matrix"]]
    assert _determinant(psi) == -1
    assert expect["psi-invertible"]["value"] is True
    assert "expected_map" not in expect["psi-invertible"]
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    product = lambda a, b: [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    assert product(xi, inverse) == identity and product(inverse, xi) == identity
    assert expect["xi-inverse-recomputed"]["value"] is True
    assert expect["xi-inverse-recomputed"]["expected_map"] == "xi_inverse_printed"


def test_map_inverse_reads_false_for_a_wrong_expected_map():
    doc = scenario_doc("picard-matrices")
    printed = next(m for m in doc["maps"] if m["name"] == "xi_inverse_printed")
    printed["matrix"][0][0] = "2"
    computed = {c.name: c.computed for c in evaluate_doc(doc, SYMBOLIC).checks}
    assert computed["xi-inverse-recomputed"] is False
    assert computed["psi-invertible"] is True


#: The four curves of extremal-sigma-ray, paired with x1..x4 on the resolved
#: incidence: the strict transforms of the two ruling lines, the section
#: pushed from the boundary, and a line along the exceptional ruling w.
SIGMA_RAY_CURVES = {
    "ehat_one": (0, 1, 0, 1),
    "ehat_two": (0, 0, 1, 1),
    "sigma_push": (1, -1, -1, -1),
    "gamma_exc": (0, 0, 0, -1),
}


def test_extremal_sigma_ray_values_follow_from_a_plain_shell_search():
    # The first integral functional, shell by shell in lexicographic order,
    # that vanishes on sigma_push and is at least 1 on each other curve,
    # found with plain integer dot products, not with the engine's search.
    def dot(f, v):
        return sum(a * b for a, b in zip(f, v))

    functional, height = next(
        (f, h)
        for h in range(9)
        for f in product(range(-h, h + 1), repeat=4)
        if max(map(abs, f)) == h
        and dot(f, SIGMA_RAY_CURVES["sigma_push"]) == 0
        and all(dot(f, v) >= 1 for name, v in SIGMA_RAY_CURVES.items() if name != "sigma_push")
    )
    values = [str(dot(functional, v)) for v in SIGMA_RAY_CURVES.values()]
    assert (functional, height, values) == ((3, 2, 2, -1), 3, ["1", "1", "0", "1"])
    for n in (SYMBOLIC, 3):
        computed = {c.name: c.computed for c in run_scenario("extremal-sigma-ray", n).checks}
        assert computed["certificate"] == {
            "status": "certified",
            "functional": [str(x) for x in functional],
            "height": str(height),
            "values": values,
            "witness": None,
        }
        assert computed["functional-values"] == values
    expect = {e["name"]: e for e in scenario_doc("extremal-sigma-ray")["expect"]}
    assert expect["certificate"]["curves"] == list(SIGMA_RAY_CURVES)
    assert expect["functional-values"]["functional"] == [str(x) for x in functional]


def _fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _fraction_inverse(m):
    """Gauss-Jordan inverse of a square matrix of Fractions, or None when it
    is singular."""
    k = len(m)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(m)]
    for c in range(k):
        pivot = next((r for r in range(c, k) if rows[r][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(k):
            if r != c:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[k:] for row in rows]


def test_derived_comparison_values_follow_from_the_reference_matrices():
    # The derived values next to psi and xi, recomputed from the recorded
    # reference matrices with plain Fraction arithmetic, not with the engine.
    picard = scenario_doc("picard-matrices")
    expect = {e["name"]: e for e in picard["expect"]}
    psi = _fractions(expect["psi-matrix"]["value"])
    xi = _fractions(expect["xi-matrix"]["value"])
    printed = next(m for m in picard["maps"] if m["name"] == "xi_inverse_printed")
    assert expect["psi-invertible"]["value"] is (_fraction_inverse(psi) is not None)
    assert expect["xi-inverse-recomputed"]["value"] is (
        _fraction_inverse(xi) == _fractions(printed["matrix"])
    )

    transport = scenario_doc("normal-bundle-transport")
    matrices = {"psi": psi, "xi": xi}
    bases = {m["name"]: (m["source"], m["target"]) for m in transport["maps"]}
    derived = [e for e in transport["expect"] if e["provenance"] == "derived"]
    assert {e["name"] for e in derived} == {"stage-one", "stage-two", "round-trip"}
    for entry in derived:
        coords = [Fraction(c) for c in entry["start"]]
        for step in entry["via"]:
            matrix = matrices[step["map"]]
            source, target = bases[step["map"]]
            if step.get("inverted"):
                matrix, target = _fraction_inverse(matrix), source
            coords = [sum(a * c for a, c in zip(row, coords)) for row in matrix]
        assert entry["value"]["names"] == target, entry["name"]
        assert [Fraction(c) for c in entry["value"]["coords"]] == coords, entry["name"]


def _fraction_kernel(rows, width):
    """Right kernel of a Fraction matrix by Gauss-Jordan: one vector per free
    column, that coordinate 1, scaled to primitive integers with a positive
    leading entry."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(width)]
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        ints = [x * math.lcm(*(y.denominator for y in v)) for x in v]
        lead = next(x for x in ints if x)
        g = math.gcd(*(int(x) for x in ints)) * (1 if lead > 0 else -1)
        basis.append([x / g for x in ints])
    return basis


def test_derived_kernel_and_table_values_follow_from_the_documents():
    # ez-kernel-x2-x3's kernel and kernel-combination and
    # jz-intersection-table's table-constant, recomputed with plain Fraction
    # arithmetic from the declared boundary_restriction rows and the curve
    # vectors, not with the engine.
    kernel_doc = scenario_doc("ez-kernel-x2-x3")
    table_doc = scenario_doc("jz-intersection-table")
    restriction = next(m for m in kernel_doc["maps"] if m["name"] == "boundary_restriction")
    assert restriction in table_doc["maps"]
    assert kernel_doc["curves"] == table_doc["curves"]
    rows = _fractions(restriction["matrix"])

    # Curve vectors: the divisors of the reference table are the generators
    # x1..x4 in order, so its rows are the curves' coordinates.  sigma_push,
    # the pushed section, is recomputed from the restriction rows, and
    # gamma_exc is recorded on its own.
    expect = {e["name"]: e for e in table_doc["expect"]}
    table = expect["table"]
    assert table["divisors"] == restriction["source"]
    vectors = dict(zip(table["curves"], table["value"]))
    sigma = next(c for c in table_doc["curves"] if c["name"] == "sigma_push")["atomic"]
    degrees = [Fraction(d) for d in sigma["degrees"]]
    pushed = [sum(d * row[j] for d, row in zip(degrees, rows)) for j in range(len(rows[0]))]
    assert _fractions([vectors["sigma_push"]]) == [pushed]
    assert vectors["gamma_exc"] == expect["exceptional-row"]["value"]
    # A pairing that depends on n is written as a coefficient map; every
    # entry here is a "p/q" string, so the table is constant.
    constant = all(isinstance(x, str) for v in vectors.values() for x in v)
    assert constant and expect["table-constant"]["value"] is constant

    by_name = {e["name"]: e for e in kernel_doc["expect"]}
    kernel = _fraction_kernel(rows, len(restriction["source"]))
    assert _fractions(by_name["kernel"]["value"]["kernel"]) == kernel
    curves = [_fractions([vectors[c]])[0] for c in by_name["kernel"]["curves"]]
    pairings = [[sum(a * b for a, b in zip(k, c)) for c in curves] for k in kernel]
    perp = _fraction_kernel(pairings, len(curves))
    assert _fractions(by_name["kernel"]["value"]["perp"]) == perp

    # kernel-combination: each kernel vector over the generator names; its
    # coefficients are units, so each term is a bare name with its sign.
    assert all(x in (-1, 0, 1) for v in kernel for x in v)
    combos = [
        " ".join(("+ " if x > 0 else "- ") + g for x, g in zip(v, restriction["source"]) if x)
        for v in kernel
    ]
    assert by_name["kernel-combination"]["value"] == [c.removeprefix("+ ") for c in combos]
    assert by_name["kernel-combination"]["curves"] == by_name["kernel"]["curves"]


def test_exceptional_restriction_routes_agree():
    routes = exc_restriction_routes()
    assert routes["agree"] is True
    assert routes["declared"] == routes["cone_route"]
