"""Command-line interface: exit codes, formats, and output routing."""

import ast
import contextlib
import copy
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towercalc
from towercalc import cli
from towercalc.census import MAX_SAMPLES
from towercalc.cli import MAX_RANGE_WIDTH, main
from towercalc.scenarios import (
    MAX_NESTING,
    MAX_SECTION_ENTRIES,
    SYMBOLIC,
    ScenarioError,
    canonical_json,
    evaluate_doc,
    export_scenario,
    list_scenarios,
    load_scenario_file,
    scenario_doc,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# listing


def test_list_prints_every_scenario(capsys):
    code, out, _ = run(capsys, ["list"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 13
    assert any("jz-intersection-table" in line for line in lines)
    assert any("[numeric only]" in line for line in lines)


def test_list_json_parses(capsys):
    code, out, _ = run(capsys, ["list", "--format", "json"])
    assert code == 0
    infos = json.loads(out)
    assert len(infos) >= 13
    assert all({"name", "description", "n_policy"} <= set(i) for i in infos)


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_json_round_trips(capsys):
    code, out, _ = run(
        capsys, ["verify", "--scenario", "picard-matrices", "--format", "json"]
    )
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out
    assert parsed["scenario"] == "picard-matrices"
    assert all(c["status"] == "PASS" for c in parsed["checks"])


def test_verify_rationals_and_polynomials_are_strings(capsys):
    code, out, _ = run(
        capsys, ["verify", "--scenario", "jz-canonical-class", "--format", "json"]
    )
    assert code == 0
    parsed = json.loads(out)
    by_name = {c["name"]: c for c in parsed["checks"]}
    coords = by_name["incidence-canonical"]["computed"]
    assert coords[0] == {"1": "-2"}
    assert coords[1] == {"0": "3", "1": "-2"}
    kneg = by_name["kneg"]["computed"]
    assert kneg["pairings"][0] == "-1"


def test_verify_range_aggregates_reports(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            "--scenario",
            "jz-intersection-table",
            "--n",
            "range:3..5",
            "--format",
            "json",
        ],
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["n"] for r in reports] == [3, 4, 5]
    assert all(c["status"] == "PASS" for r in reports for c in r["checks"])


def test_verify_range_runs_each_check_once(capsys, monkeypatch):
    from towercalc import scenarios

    calls = []
    search = scenarios.extremal_certificate

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(scenarios, "extremal_certificate", counted)
    argv = ["verify", "--scenario", "extremal-sigma-ray", "--format", "json"]
    code, out, _ = run(capsys, argv + ["--n", "range:3..6"])
    assert code == 0
    assert len(calls) == 1
    singles = [json.loads(run(capsys, argv + ["--n", str(n)])[1]) for n in range(3, 7)]
    assert json.loads(out) == singles


def test_verify_text_report(capsys):
    code, out, _ = run(capsys, ["verify", "--scenario", "euler-convention", "--n", "3"])
    assert code == 0
    assert "result: PASS" in out


def test_verify_failure_exits_one_but_emits_report(capsys, tmp_path):
    from towercalc.scenarios import export_scenario

    doc = json.loads(export_scenario("mori-chain-ez"))
    for entry in doc["expect"]:
        if entry["name"] == "boundary-push-sigma":
            entry["value"] = ["9", "9", "9", "9"]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, ["verify", "--scenario-file", str(path), "--n", "3"])
    assert code == 1
    assert "FAIL" in out and "boundary-push-sigma" in out


def test_verify_scenario_file_round_trip(capsys, tmp_path):
    path = tmp_path / "doc.json"
    code, _, _ = run(
        capsys, ["export", "--scenario", "ez-kernel-x2-x3", "--output", str(path)]
    )
    assert code == 0
    code, out, _ = run(capsys, ["verify", "--scenario-file", str(path)])
    assert code == 0
    assert "result: PASS" in out


# ---------------------------------------------------------------------------
# usage errors exit 2 with a message on stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scenario", "picard-matrices", "--n", "2"],
        ["verify", "--scenario", "picard-matrices", "--n", "zap"],
        ["verify", "--scenario", "picard-matrices", "--n", "range:1..4"],
        ["verify", "--scenario", "picard-matrices", "--bogus"],
        ["verify", "--scenario", "no-such-scenario"],
        ["verify", "--scenario", "normal-cone-quadric"],
        ["verify"],
        ["frobnicate"],
        [],
        ["verify", "--scenario", "picard-matrices", "--n", "range:5..4"],
        ["verify", "--scenario", "picard-matrices", "--n", "range:3.." + "9" * 5000],
    ],
)
def test_usage_errors(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.strip()


@pytest.mark.parametrize(
    "n", ["1_0", " 5 ", "٥", " ٥ ", "5\n", "+5", "range:٣..٥", "range:3..5\n"]
)
def test_n_is_read_in_ascii_digits_only(capsys, n):
    # Documents write numbers as -?[0-9]+; --n reads the same digits, with
    # no underscores, spaces, sign or non-ASCII digits that int() accepts.
    code, out, err = run(capsys, ["verify", "--scenario", "picard-matrices", "--n", n])
    assert code == 2 and out == ""
    assert err.startswith("error: invalid n %r" % n)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scenario", "picard-matrices", "--n", "9" * 5000],
        ["verify", "--scenario", "picard-matrices", "--n", "3" + "0" * 4999],
        ["verify", "--scenario", "picard-matrices", "--n", "range:" + "3" * 5000],
        ["verify", "--scenario", "x" * 5000],
        ["export", "--scenario", "x" * 5000],
    ],
)
def test_a_long_argument_is_cut_in_the_error(capsys, argv):
    # The unknown-scenario message goes on to list every known scenario;
    # only the echoed value is cut.
    known = ", ".join(info["name"] for info in list_scenarios())
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.replace(known, "")) < 200
    assert "(5002 characters)" in err or "(5008 characters)" in err
    assert "Traceback" not in err


def test_range_over_budget_is_rejected_before_any_scenario_runs(capsys, monkeypatch):
    def no_run(name, ns):
        raise AssertionError("ran a scenario")

    monkeypatch.setattr(cli, "run_scenario_at", no_run)
    too_wide = "range:3..%d" % (3 + MAX_RANGE_WIDTH)
    code, _, err = run(
        capsys, ["verify", "--scenario", "euler-convention", "--n", too_wide]
    )
    assert code == 2
    assert "budget of %d" % MAX_RANGE_WIDTH in err
    assert cli._parse_n_spec("range:3..%d" % (2 + MAX_RANGE_WIDTH)) == list(
        range(3, 3 + MAX_RANGE_WIDTH)
    )


def test_quadric_at_any_n_passes_in_work_that_does_not_grow_with_n(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["verify", "--scenario", "normal-cone-quadric", "--n", "999999999"]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert "result: PASS (1/1 checks)" in out
    assert '"rank": "3999999992"' in out


def test_parse_error_in_scenario_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    code, _, err = run(capsys, ["verify", "--scenario-file", str(path)])
    assert code == 2
    assert "parse error at line" in err


KNOWN_BUNDLE_KINDS = (
    "known bundle kinds: declared, dual, extension, pull-to, quotient,"
    " relative-tangent, tensor-line"
)
PSI_COLUMNS = [
    ["0", "1", "0", "0"],
    ["0", "1", "1", "0"],
    ["0", "1", "0", "1"],
    {"c1": "curve_cotangent", "via": "cotangent_split"},
]
PLUS_N = {"0": "1/2", "1": "1"}


@pytest.mark.parametrize(
    "scenario, section, entry, field, value, needle",
    [
        ("jz-intersection-table", "expect", "incidence-dim", "value", "1/0", "1/0"),
        (
            "jz-intersection-table",
            "expect",
            "incidence-dim",
            "space",
            ["incidence_divisor"],
            "['incidence_divisor']",
        ),
        (
            "jz-intersection-table",
            "expect",
            "table",
            "divisors",
            ["x9", "x2", "x3", "x4"],
            "x9",
        ),
        ("jz-intersection-table", "expect", "table", "curves", "ehat_one", "'curves'"),
        ("contraction-numerics", "expect", "graded-ranks-square", "ks", 5, "'ks'"),
        (
            "contraction-numerics",
            "expect",
            "higher-cohomology",
            "cases",
            [["1", "1"]],
            "'cases[0]'",
        ),
        ("mori-chain-ez", "expect", "ehat-sum-identity", "terms", [], "'terms'"),
        ("normal-bundle-transport", "expect", "stage-one", "via", [5], "'via[0]'"),
        ("mori-chain-jz", "expect", "chain", "chain.base", 5, "'chain.base'"),
        ("jz-intersection-table", "spaces", "proj_base", "pic", 5, "'pic'"),
        ("jz-intersection-table", "spaces", "proj_base", "canonical", 5, "'canonical'"),
        ("picard-matrices", "maps", "xi_inverse_printed", "source", 5, "'source'"),
        ("picard-matrices", "maps", "xi_inverse_printed", "matrix", [5], "'matrix[0]'"),
        ("jz-intersection-table", "curves", "sigma_push", "atomic", 5, "'atomic'"),
        ("jz-intersection-table", "expect", "table", "check", [], "'check'"),
        ("picard-matrices", "maps", "psi", "columns", "psi", "'columns'"),
        ("extremal-sigma-ray", "expect", "certificate", "face", "sigma_push", "'face'"),
        ("extremal-sigma-ray", "expect", "certificate", "height_bound", "16", "budget"),
        (
            "extremal-sigma-ray",
            "expect",
            "certificate",
            "height_bound",
            "-1",
            "negative",
        ),
        (
            "local-model-stabilizers",
            "expect",
            "rational-samples",
            "samples",
            str(MAX_SAMPLES + 1),
            "budget",
        ),
        (
            "local-model-stabilizers",
            "expect",
            "rational-samples",
            "samples",
            "0",
            "budget",
        ),
        (
            "normal-bundle-transport",
            "expect",
            "final-normal-class",
            "drop",
            "dhat",
            "'drop'",
        ),
        (
            "jz-intersection-table",
            "spaces",
            "resolved_incidence",
            "exc_directions",
            "ab",
            "'exc_directions'",
        ),
        (
            "mori-chain-ez",
            "expect",
            "ehat-sum-identity",
            "terms",
            [["0", "1", "0", "1"], ["0", "0", "1", "1", "7"]],
            "different lengths",
        ),
        (
            "jz-canonical-class",
            "expect",
            "restricted-canonical",
            "normal",
            ["-1", "0", "0", "5"],
            "expected 3 coordinates",
        ),
        (
            "jz-canonical-class",
            "expect",
            "restricted-canonical",
            "normal",
            [],
            "expected 3 coordinates",
        ),
        (
            "ez-kernel-x2-x3",
            "expect",
            "kernel",
            "curves",
            ["eps_one", "eps_two", "ehat_one"],
            "not on the source lattice of boundary_restriction",
        ),
        (
            "ez-kernel-x2-x3",
            "expect",
            "kernel-combination",
            "curves",
            ["eps_one", "ehat_one"],
            "not on the source lattice of boundary_restriction",
        ),
        (
            "euler-convention",
            "bundles",
            "curve_cotangent",
            "kind",
            "sym-power",
            KNOWN_BUNDLE_KINDS,
        ),
        (
            "euler-convention",
            "bundles",
            "curve_cotangent",
            "kind",
            "wedge-top",
            KNOWN_BUNDLE_KINDS,
        ),
        ("picard-matrices", "maps", "psi", "columns", [5] + PSI_COLUMNS[1:], "'columns[0]'"),
        (
            "picard-matrices",
            "maps",
            "psi",
            "columns",
            [PSI_COLUMNS[0] + ["7"]] + PSI_COLUMNS[1:],
            "field 'columns[0]': expected 4 entries, one per target generator, got 5",
        ),
        (
            "normal-bundle-transport",
            "maps",
            "psi",
            "columns",
            PSI_COLUMNS[:3] + [{"c1": "no_such_bundle"}],
            "'columns[3].c1': unknown reference 'no_such_bundle'",
        ),
        (
            "picard-matrices",
            "maps",
            "psi",
            "columns",
            PSI_COLUMNS[:3] + [{"c1": "phi_ten_line", "via": "cotangent_split"}],
            "map 'cotangent_split' reads (g, h, xk), not the lattice (g, h, k10, k01)",
        ),
        (
            "picard-matrices",
            "bundles",
            "phi_ten_line",
            "line",
            ["0", "-1", "0"],
            "expected 4 coordinates on ruling_product, got 3",
        ),
        (
            "picard-matrices",
            "maps",
            "cotangent_split",
            "matrix",
            [["1", "0", "0"], ["0", "1", "0"], ["0", "0", PLUS_N], ["0", "0", "1/2"]],
            "entry [2][2] depends on n: n + 1/2",
        ),
        (
            "picard-matrices",
            "bundles",
            "phi_ten_line",
            "line",
            ["0", PLUS_N, "0", "0"],
            "map 'xi': field 'columns[1]': the c1 of bundle 'phi_ten_line' depends on n",
        ),
        (
            "mori-chain-ez",
            "expect",
            "chain",
            "chain.steps.0.cprime.pullbacks",
            [[PLUS_N], ["0"]],
            "entry [0][0] depends on n: n + 1/2",
        ),
        (
            "pushforward-iz1z2",
            "expect",
            "tau-one",
            "curves",
            [],
            "observed pairings are inconsistent with the table",
        ),
        # A name that no entry declares is an unknown reference; entries that
        # wait on each other, or a space on itself, are a circular reference.
        (
            "picard-matrices",
            "spaces",
            "chi_plane",
            "bundle",
            "no_such_bundle",
            "space 'chi_plane': field 'bundle': unknown reference 'no_such_bundle'",
        ),
        (
            "picard-matrices",
            "bundles",
            "rank_three_taut",
            "space",
            "chi_plane",
            "circular reference: space 'chi_plane' -> bundle 'rank_three_taut'"
            " -> space 'chi_plane'",
        ),
        (
            "picard-matrices",
            "spaces",
            "chi_plane",
            "base",
            "chi_plane",
            "circular reference: space 'chi_plane' -> space 'chi_plane'",
        ),
        (
            "jz-intersection-table",
            "spaces",
            "resolved_incidence",
            "ambient",
            "resolved_incidence",
            "circular reference: space 'resolved_incidence'"
            " -> space 'resolved_incidence'",
        ),
        # Every key of an object read whole is declared by its reader, or is
        # free text (description, note); any other key is named with the
        # declared ones.
        (
            "extremal-sigma-ray",
            "expect",
            "certificate",
            "height_boud",
            "8",
            "unknown field 'height_boud'; known: anchor, check, curves, description,"
            " face, height_bound, name, note, provenance, space, value",
        ),
        (
            "normal-bundle-transport",
            "expect",
            "stage-one",
            "via.0.inverse",
            True,
            "field 'via[0]': unknown field 'inverse'; known: description, inverted,"
            " map, note",
        ),
        (
            "mori-chain-ez",
            "expect",
            "chain",
            "chain.steps.0.contracts",
            "x4",
            "field 'chain.steps[0]': unknown field 'contracts'; known: cdouble,"
            " contracted, cprime, description, generators, note, space",
        ),
        (
            "picard-matrices",
            "maps",
            "cotangent_split",
            "note",
            5,
            "map 'cotangent_split': field 'note': expected text, got 5",
        ),
        # Refusals of the engine beneath the readers: lattices that differ,
        # a vector of the wrong length, a step that breaks its own record.
        (
            "contraction-numerics",
            "bundles",
            "middle_quotient",
            "sub",
            "rank_three_taut",
            "classes on different lattices: proj_base vs grass3",
        ),
        (
            "contraction-numerics",
            "bundles",
            "conormal_model",
            "quot",
            "rank_three_taut",
            "classes on different lattices: plane_product vs grass3",
        ),
        (
            "normal-bundle-transport",
            "expect",
            "stage-one",
            "start",
            ["-1", "0", "0"],
            "check 'stage-one': vector length 3, expected 4",
        ),
        (
            "mori-chain-ez",
            "expect",
            "chain",
            "chain.steps.0.contracted",
            "nowhere",
            "field 'chain.steps[0]': contracted curve 'nowhere' not among the generators",
        ),
        (
            "mori-chain-ez",
            "expect",
            "chain",
            "chain.steps.0.cdouble.images",
            [["1"]],
            "field 'chain.steps[0]': fiber_direction declares 1 images for 2 generators",
        ),
        (
            "contraction-numerics",
            "spaces",
            "first_ruling",
            "bundle",
            "rank_three_taut",
            "space 'first_ruling': bundle does not live on the base",
        ),
        (
            "extremal-sigma-ray",
            "curves",
            "ehat_one",
            "atomic.ambient_curve",
            "gamma_exc",
            "ambient curve lives on resolved_incidence, not on the blow-up's ambient"
            " incidence_divisor",
        ),
        (
            "jz-intersection-table",
            "expect",
            "center-codim",
            "space",
            "incidence_divisor",
            "field 'space': 'incidence_divisor' is not a blow-up",
        ),
        # A kind that a more general one absorbed is an unknown kind.
        *(
            (
                scenario,
                "expect",
                check,
                "check",
                kind,
                "field 'check': unknown check kind '%s'; known check kinds:"
                " bundle-invariants, canonical," % kind,
            )
            for scenario, check, kind in (
                ("picard-matrices", "psi-invertible", "map-invertible"),
                ("picard-matrices", "xi-inverse-recomputed", "map-inverse-equals"),
                ("jz-canonical-class", "restricted-canonical", "restricted-canonical"),
                ("contraction-numerics", "ruling-fiber-dim", "fiber-dim"),
            )
        ),
        # Each reader and engine refusal that no other row reaches.
        (
            "normal-bundle-transport",
            "expect",
            "stage-one",
            "via.0.inverted",
            "yes",
            "field 'via[0].inverted': expected true or false, got 'yes'",
        ),
        (
            "contraction-numerics",
            "expect",
            "higher-cohomology",
            "cases",
            [["1/2", "0", "0"]],
            "field 'cases[0][0]': expected an integer, got '1/2'",
        ),
        (
            "euler-convention",
            "bundles",
            "rank_three_taut",
            "rank",
            "1/0",
            "field 'rank': zero denominator in '1/0'",
        ),
        (
            "contraction-numerics",
            "expect",
            "graded-ranks-square",
            "ks",
            ["-1"],
            "check 'graded-ranks-square': bad symmetric power arguments",
        ),
        (
            "contraction-numerics",
            "expect",
            "higher-cohomology",
            "cases",
            [["11", "0", "0"]],
            "check 'higher-cohomology': twist outside supported range",
        ),
        # Engine refusals inside the two checks that catch one kind of
        # ValueError: they refuse the document, not read as a value.
        (
            "mori-chain-ez",
            "expect",
            "chain",
            "chain.steps.0.cprime.pullbacks",
            [["1"], ["0"], ["0"]],
            "scenario 'mori-chain-ez' check 'chain': vector length 2, expected 3\n",
        ),
        (
            "picard-matrices",
            "expect",
            "psi-invertible",
            "map",
            "cotangent_split",
            "scenario 'picard-matrices' check 'psi-invertible': not square\n",
        ),
    ],
    ids=[
        "zero-denominator",
        "list-as-name",
        "unknown-divisor",
        "string-as-list",
        "number-as-list",
        "short-case",
        "empty-terms",
        "number-as-transport-step",
        "number-as-chain-base",
        "number-as-pic",
        "number-as-canonical",
        "number-as-map-source",
        "number-as-matrix-row",
        "number-as-atomic",
        "list-as-check-kind",
        "string-as-columns",
        "string-as-face",
        "height-over-budget",
        "negative-height",
        "samples-over-budget",
        "zero-samples",
        "string-as-drop",
        "string-as-directions",
        "ragged-terms",
        "long-normal",
        "empty-normal",
        "kernel-curve-off-the-source",
        "kernel-polynomials-curve-off-the-source",
        "sym-power-bundle",
        "wedge-top-bundle",
        "number-as-column",
        "long-column",
        "unknown-column-bundle",
        "column-via-off-the-lattice",
        "short-twisting-line",
        "declared-entry-depends-on-n",
        "c1-column-depends-on-n",
        "chain-pullback-depends-on-n",
        "no-pushforward-curves",
        "proj-bundle-of-an-undeclared-bundle",
        "space-and-bundle-refer-to-each-other",
        "proj-bundle-over-itself",
        "blow-up-of-itself",
        "misspelled-optional-field",
        "extra-key-in-transport-step",
        "extra-key-in-chain-step",
        "number-as-note",
        "quotient-across-lattices",
        "extension-across-lattices",
        "short-transport-start",
        "contracted-not-a-generator",
        "too-few-cdouble-images",
        "proj-bundle-of-a-bundle-elsewhere",
        "strict-transform-from-another-ambient",
        "codim-of-a-divisor",
        "map-invertible",
        "map-inverse-equals",
        "restricted-canonical",
        "fiber-dim",
        "string-as-flag",
        "fraction-as-integer",
        "zero-denominator-in-a-number",
        "negative-symmetric-power",
        "twist-over-the-bound",
        "chain-pullback-of-the-wrong-shape",
        "map-inverse-of-a-non-square-map",
    ],
)
def test_bad_document_is_a_named_error(
    capsys, tmp_path, scenario, section, entry, field, value, needle
):
    doc = scenario_doc(scenario)
    *parents, last = field.split(".")
    node = next(e for e in doc[section] if e["name"] == entry)
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[last] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, ["verify", "--scenario-file", str(path), "--n", "3"])
    assert code == 2
    assert entry in err and needle in err
    assert "Traceback" not in err


MISSING = object()
EULER = "scenario 'euler-convention'"


@pytest.mark.parametrize(
    "scenario, path, value, needles",
    [
        ("euler-convention", (), [1], ("object",)),
        ("euler-convention", ("name",), MISSING, ("'name'",)),
        (
            "euler-convention",
            ("n_policy",),
            "bogus",
            (EULER, "n_policy", "'bogus'"),
        ),
        ("euler-convention", ("spaces",), 5, (EULER, "'spaces'", "list")),
        ("euler-convention", ("spaces", 0), 5, (EULER, "spaces", "object")),
        ("euler-convention", ("bundles", 0, "name"), 5, (EULER, "bundles", "name")),
        (
            "euler-convention",
            ("spaces", 1, "name"),
            "grass3",
            (EULER, "duplicate", "'grass3'"),
        ),
        (
            "euler-convention",
            ("expect", 0, "value"),
            MISSING,
            (EULER + " check 'curve-tangent'", "value", "missing"),
        ),
        (
            "jz-canonical-class",
            ("expect", 3, "ambient_center_codim"),
            MISSING,
            (
                "scenario 'jz-canonical-class' check 'restricted-canonical-resolved'",
                "ambient_center_codim",
            ),
        ),
        (
            "pushforward-iz1z2",
            ("expect", 2, "coefficients"),
            ["1", "0", "0"],
            ("scenario 'pushforward-iz1z2' check 'tau-one-pairings'", "coefficient"),
        ),
        (
            "euler-convention",
            ("colour",),
            "blue",
            (EULER + ": unknown field 'colour'; known: bundles, curves, description,",),
        ),
    ],
    ids=[
        "list-as-document",
        "no-name",
        "unknown-policy",
        "number-as-section",
        "number-as-entry",
        "number-as-entry-name",
        "duplicate-entry-name",
        "no-expected-value",
        "blowup-without-center-codim",
        "short-coefficients",
        "extra-top-level-key",
    ],
)
def test_a_badly_shaped_document_is_a_named_error(
    capsys, tmp_path, scenario, path, value, needles
):
    # The document's own fields, its sections and each expected value's
    # metadata; an expect case names its check in the first needle.
    doc = scenario_doc(scenario)
    if path:
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        if path[0] == "expect":
            assert node["name"] in needles[0]
        if value is MISSING:
            del node[last]
        else:
            node[last] = value
    else:
        doc = value
    doc_path = tmp_path / "shape.json"
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["verify", "--scenario-file", str(doc_path), "--n", "3"])
    assert code == 2 and out == ""
    assert all(needle in err for needle in needles), err
    assert "Traceback" not in err


EXPONENT = "1e10000000"


@pytest.mark.parametrize(
    "section, entry, field, value, code, needle",
    [
        ("expect", "line-sanity", "value", EXPONENT, 1, "[FAIL] line-sanity"),
        (
            "bundles",
            "rank_three_taut",
            "rank",
            EXPONENT,
            2,
            "bundle 'rank_three_taut': field 'rank': expected an exact number, "
            "got '1e10000000'",
        ),
        (
            "bundles",
            "rank_three_taut",
            "rank",
            {"0": EXPONENT},
            2,
            "bundle 'rank_three_taut': field 'rank': expected an exact number, "
            "got {'0': '1e10000000'}",
        ),
    ],
    ids=["expected-value", "bundle-rank", "coefficient"],
)
def test_exponent_notation_is_not_a_number(
    capsys, tmp_path, section, entry, field, value, code, needle
):
    # Only -?d+ and -?d+/d+ are numbers.  Fraction() would read "1e10000000"
    # as an integer of ten million digits, for seconds, and then fail with
    # the interpreter's own digit-limit message.
    doc = scenario_doc("euler-convention")
    next(e for e in doc[section] if e["name"] == entry)[field] = value
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    got, out, err = run(capsys, ["verify", "--scenario-file", str(path), "--n", "3"])
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert needle in out + err
    assert "digits" not in out + err and "Traceback" not in err


@pytest.mark.parametrize(
    "field, literal, needle",
    [
        ("rank", '"%s"' % ("1" * 5000), "field 'rank': expected an exact number, got '111"),
        ("rank", "1" * 5000, "parse error: an integer has more than"),
        ("space", '"%s"' % ("x" * 5000), "field 'space': unknown reference 'xxx"),
        ("space", json.dumps(["grass3"] * 2000), "field 'space': expected a name, got ['grass3'"),
    ],
    ids=["string", "bare", "reference", "list"],
)
def test_a_five_thousand_digit_integer_is_a_short_named_error(capsys, tmp_path, field, literal, needle):
    # Past the interpreter's 4,300-digit limit json.loads raises a plain
    # ValueError for a bare integer, and int() fails on the string form.  A
    # long name or list in a reference field is cut in the message too.
    doc = scenario_doc("euler-convention")
    next(e for e in doc["bundles"] if e["name"] == "rank_three_taut")[field] = "VALUE"
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc).replace('"VALUE"', literal), encoding="utf-8")
    got, out, err = run(capsys, ["verify", "--scenario-file", str(path), "--n", "3"])
    assert got == 2 and out == ""
    assert needle in err and "Traceback" not in err
    assert len(err.replace(str(path), "<path>")) < 200


@pytest.mark.parametrize(
    "section, entry, field, value, needle",
    [
        (
            "expect",
            "table",
            "divisors",
            ["x1", "x" * 5000, "x3", "x4"],
            "scenario 'jz-intersection-table' check 'table': no generator 'xxx",
        ),
        (
            "curves",
            "eps_one",
            "atomic",
            {"kind": "line-in-proj-fiber", "taut": "x" * 5000},
            "curve 'eps_one': 'xxx",
        ),
    ],
    ids=["divisor", "taut"],
)
def test_a_long_name_in_an_engine_message_is_cut(
    capsys, tmp_path, section, entry, field, value, needle
):
    # The engine formats the name it rejects; the scenario layer cuts the
    # message, so that the entry it names stays readable.
    doc = scenario_doc("jz-intersection-table")
    next(e for e in doc[section] if e["name"] == entry)[field] = value
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    got, out, err = run(capsys, ["verify", "--scenario-file", str(path), "--n", "3"])
    assert got == 2 and out == ""
    assert needle in err and entry in err and "Traceback" not in err
    assert len(err.replace(str(path), "<path>")) < 200


def test_a_singular_map_fails_both_inverse_checks(capsys, tmp_path):
    # A zero first column makes psi and xi singular, so the checks that
    # invert them must compute false where the document expects true.
    doc = scenario_doc("picard-matrices")
    for entry in doc["maps"]:
        if entry["name"] in ("psi", "xi"):
            entry["columns"][0] = ["0", "0", "0", "0"]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    got, out, err = run(capsys, ["verify", "--scenario-file", str(path), "--format", "json"])
    assert got == 1 and err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in ("psi-invertible", "xi-inverse-recomputed"):
        assert checks[name]["status"] == "FAIL", name
        assert checks[name]["computed"] is False, name


def test_certificate_curve_on_another_lattice_of_the_same_size_is_a_named_error(
    capsys, tmp_path
):
    # "stray" lives on a lattice with as many generators (y1..y4) as the
    # x1..x4 lattice that each check reads, so only the names tell them apart.
    on_x = ["ehat_one", "ehat_two", "sigma_push"]
    not_the_source = "curve on other is not on the source lattice of boundary_restriction"
    for scenario, check, needle in (
        ("extremal-sigma-ray", "certificate", "curve 'stray' lives on other, not on resolved_incidence"),
        ("ez-kernel-x2-x3", "kernel", not_the_source),
        ("ez-kernel-x2-x3", "kernel-combination", not_the_source),
    ):
        doc = scenario_doc(scenario)
        doc["spaces"].append(
            {"name": "other", "kind": "formal-base", "pic": ["y1", "y2", "y3", "y4"]}
        )
        doc["curves"].append(
            {
                "name": "stray",
                "space": "other",
                "atomic": {"kind": "declared", "vector": ["1", "0", "0", "0"]},
            }
        )
        entry = next(e for e in doc["expect"] if e["name"] == check)
        entry["curves"] = on_x + ["stray"]
        path = tmp_path / ("%s.json" % check)
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["verify", "--scenario-file", str(path), "--n", "3"])
        assert code == 2, check
        assert "check %r" % check in err
        assert needle in err
        assert out == "" and "Traceback" not in err


def test_sym_power_of_a_large_rank_is_a_named_error(capsys, tmp_path):
    # A symmetric power of rank and power 2 * 10^5 costs seconds of binomial
    # coefficients; no bundle kind computes one, so the document stops at once.
    doc = scenario_doc("euler-convention")
    rank = str(2 * 10**5)
    doc["bundles"] += [
        {
            "name": "big",
            "kind": "declared",
            "space": "grass3",
            "rank": rank,
            "c1": ["1"],
        },
        {"name": "big_power", "kind": "sym-power", "of": "big", "power": rank},
    ]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, ["verify", "--scenario-file", str(path)])
    assert code == 2
    assert "big_power" in err and KNOWN_BUNDLE_KINDS in err


N_MINUS_11 = {"0": "-11", "1": "1"}


@pytest.mark.parametrize("n", ["symbolic", "4", "11"])
def test_pushforward_on_a_table_that_depends_on_n_is_a_named_error(
    capsys, tmp_path, n
):
    # The pairing table diag(n - 11, 1) is singular at n = 11 only, so no
    # solve can stand for every n; the check must never read PASS.
    doc = {
        "format": "towercalc-scenario/1",
        "name": "singular-at-eleven",
        "description": "a pairing table that depends on n",
        "n_policy": "symbolic-or-numeric",
        "spaces": [{"name": "base", "kind": "formal-base", "pic": ["a", "b"]}],
        "curves": [
            {
                "name": name,
                "space": "base",
                "atomic": {"kind": "declared", "vector": vector},
            }
            for name, vector in (("c1", [N_MINUS_11, "0"]), ("c2", ["0", "1"]))
        ],
        "expect": [
            {
                "name": "combination",
                "check": "solve-pushforward",
                "space": "base",
                "curves": ["c1", "c2"],
                "divisors": ["a", "b"],
                "observed": [N_MINUS_11, "2"],
                "value": ["1", "2"],
                "provenance": "derived",
                "anchor": "diag(n - 11, 1) y = (n - 11, 2)",
            }
        ],
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["verify", "--scenario-file", str(path), "--n", n])
    assert code == 2
    assert "'singular-at-eleven' check 'combination'" in err
    assert "depends on n" in err
    assert "PASS" not in out and "Traceback" not in err


def _quadric(edit):
    """The exported normal-cone-quadric document, numeric-only, after ``edit``."""
    doc = json.loads(export_scenario("normal-cone-quadric"))
    edit(doc)
    return canonical_json(doc)


QUADRIC_POLICY = (
    "error: scenario 'normal-cone-quadric' computes finite ranks; "
    "run it at a numeric n >= 3\n"
)


@pytest.mark.parametrize(
    "argv, text, stderr",
    [
        # n is read before the file.
        (["verify", "--scenario-file", "{path}", "--n", "2"], '{"name": ',
         "error: n must be >= 3 (got 2)\n"),
        # The file parses before its format tag is read.
        (["verify", "--scenario-file", "{path}"], '{"format": "other/9", "name": "x",}',
         "error: {path}: parse error at line 1 column 35: "
         "Expecting property name enclosed in double quotes\n"),
        # The format tag is read before any field.
        (["verify", "--scenario-file", "{path}"], '{"format": "other/9", "name": 5}',
         "error: {path}: field 'format': unknown format 'other/9'; "
         "known formats: towercalc-scenario/1\n"),
        # Values are checked before fields, the first written first.
        (["verify", "--scenario-file", "{path}"],
         '{"format": "towercalc-scenario/1", "name": "x", "zeta": 1.5, "alpha": 2.5}',
         "error: scenario 'x': non-exact number 1.5 (use strings of integers or p/q)\n"),
        # Of two unknown fields, the first written is named.
        (["verify", "--scenario-file", "{path}"],
         '{"format": "towercalc-scenario/1", "name": "x", "zeta": 1, "alpha": 2}',
         "error: scenario 'x': unknown field 'zeta'; known: bundles, curves, description, "
         "expect, format, maps, n_policy, name, note, spaces\n"),
        # Expected-value metadata is validated before the policy applies ...
        (["verify", "--scenario-file", "{path}"],
         _quadric(lambda doc: doc["expect"][0].update(provenance="guessed")),
         "error: scenario 'normal-cone-quadric' check 'quadric': field 'provenance': "
         "unknown provenance 'guessed'; known provenances: derived, reference, trivial\n"),
        # ... but a check's own fields are read when it is bound, after it.
        (["verify", "--scenario-file", "{path}"],
         _quadric(lambda doc: doc["expect"][0].update(extra=1)), QUADRIC_POLICY),
        # The policy applies before any entry is built.
        (["verify", "--scenario-file", "{path}"],
         _quadric(lambda doc: doc["spaces"].append(
             {"name": "s", "kind": "formal-base", "pic": ["h"], "dim": "x"})),
         QUADRIC_POLICY),
        (["verify", "--scenario-file", "{path}", "--n", "3"],
         _quadric(lambda doc: doc["spaces"].append(
             {"name": "s", "kind": "formal-base", "pic": ["h"], "dim": "x"})),
         "error: space 's': field 'dim': expected an exact number, got 'x'\n"),
        # n is read before the scenario name, on every subcommand.
        (["verify", "--scenario", "nope", "--n", "2"], None, "error: n must be >= 3 (got 2)\n"),
        (["table", "--scenario", "nope", "--n", "2"], None, "error: n must be >= 3 (got 2)\n"),
        (["cone", "--scenario", "nope", "--n", "2"], None, "error: n must be >= 3 (got 2)\n"),
        (["table", "--scenario", "nope", "--n", "range:3..4"], None,
         "error: table prints a single parameter value at a time\n"),
    ],
    ids=[
        "n-before-parse", "parse-before-format", "format-before-field",
        "first-written-value", "first-written-field", "expect-field-before-policy", "policy-before-check-field",
        "policy-before-build", "build-at-numeric-n", "verify-n-before-name",
        "table-n-before-name", "cone-n-before-name", "table-range-before-name",
    ],
)
def test_of_two_faults_the_same_one_is_refused(capsys, tmp_path, argv, text, stderr):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, [a.replace("{path}", str(path)) for a in argv])
    assert (code, out, err) == (2, "", stderr.replace("{path}", str(path)))


# ---------------------------------------------------------------------------
# input bounds, checked in a fresh interpreter so that a RecursionError
# would surface as it does for a user


def run_cold(path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(towercalc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "towercalc.cli", "verify", "--scenario-file", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_the_package_keeps_every_entry_point_the_benchmark_uses():
    # The benchmark child is read as text, not imported, so a missing name
    # fails here rather than in a benchmark run.
    text = (Path(__file__).parents[1] / "perfbench" / "child.py").read_text(encoding="utf-8")
    submodules = {p.stem for p in Path(towercalc.__file__).parent.glob("*.py")}
    used = set(re.findall(r"\btowercalc\.([A-Za-z_]\w*)", text)) - submodules
    assert {"run_scenario", "evaluate_doc", "list_scenarios", "scenario_doc"} <= used
    assert [name for name in sorted(used) if not hasattr(towercalc, name)] == []
    # Each per-layer group of the tracer names functions by their dotted
    # path; a renamed one would read 0 without an error.  The tracer is read
    # as text too: its module name, trace, is also a standard module's.
    tracer = (Path(__file__).parents[1] / "perfbench" / "trace.py").read_text(encoding="utf-8")
    tree = ast.parse(tracer)
    assigned = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    members = {
        (assigned[elt.id] if isinstance(elt, ast.Name) else elt).value
        for group in assigned["GROUPS"].values
        for elt in group.elts
    }
    assert {"scenarios.validate_doc", "census.isotropy_equivalence_f3"} <= members
    assert len(members) == 16

    def resolves(dotted):
        module, *attributes = dotted.split(".")
        obj = importlib.import_module("towercalc." + module)
        for attribute in attributes:
            obj = getattr(obj, attribute, None)
        return obj is not None

    assert [name for name in sorted(members) if not resolves(name)] == []


def test_import_pulls_in_no_dataclass_machinery():
    # dataclasses imports inspect, ast and dis: about a quarter of a cold
    # `towercalc` command's import time.
    src = os.path.dirname(os.path.dirname(os.path.abspath(towercalc.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    probe = "import sys, towercalc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(env, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def tower_doc(floors, value):
    """A document on a tower of ``floors`` divisor-in spaces over one base,
    with one vector-sum check whose expected value is ``value``."""
    spaces = [{"name": "s0", "kind": "formal-base", "pic": ["g"], "dim": "500"}]
    spaces += [
        {"name": "s%d" % i, "kind": "divisor-in", "ambient": "s%d" % (i - 1),
         "class": ["1"]}
        for i in range(1, floors)
    ]
    return {
        "format": "towercalc-scenario/1",
        "name": "bounded",
        "description": "input bounds",
        "spaces": spaces,
        "expect": [
            {"name": "top-dim", "check": "dim", "space": spaces[-1]["name"],
             "value": str(501 - floors), "provenance": "trivial", "anchor": "a"},
            {"name": "sum", "check": "vector-sum", "terms": [["1"]],
             "value": value, "provenance": "trivial", "anchor": "a"},
        ],
    }


def nested(levels):
    """An expected value that makes a document nest ``levels`` containers
    deep: the document, its expect list and the entry are three of them."""
    value = "1"
    for _ in range(levels - 3):
        value = [value]
    return value


@pytest.mark.parametrize(
    "floors, levels, code",
    [
        (MAX_SECTION_ENTRIES, MAX_NESTING, 1),
        (MAX_SECTION_ENTRIES + 1, MAX_NESTING, 2),
        (MAX_SECTION_ENTRIES, MAX_NESTING + 1, 2),
    ],
    ids=["at-the-bounds", "one-space-too-many", "one-level-too-deep"],
)
def test_document_bounds_end_in_a_report_or_a_named_error(
    tmp_path, floors, levels, code
):
    path = tmp_path / "bounded.json"
    path.write_text(json.dumps(tower_doc(floors, nested(levels))), encoding="utf-8")
    exit_code, out, err = run_cold(path)
    assert exit_code == code
    assert "Traceback" not in err
    if code == 1:
        assert "[PASS] top-dim" in out and "[FAIL] sum" in out
    else:
        assert "scenario 'bounded'" in err
        assert ("has %d entries" % floors if floors > MAX_SECTION_ENTRIES
                else "nested deeper than %d levels" % MAX_NESTING) in err


def test_a_chain_of_fiber_products_is_checked_in_linear_work():
    # Every level is the fiber product of the level below with itself, over
    # itself: reading the dimension or canonical class afresh from all three
    # factors at every level would cost 3^14 reads at the top.
    depth = 14
    spaces = [{"name": "f0", "kind": "formal-base", "pic": ["h"],
               "canonical": ["-3"], "dim": "2"}]
    spaces += [
        {"name": "f%d" % i, "kind": "fiber-product", "left": "f%d" % (i - 1),
         "right": "f%d" % (i - 1), "over": "f%d" % (i - 1)}
        for i in range(1, depth + 1)
    ]
    top = spaces[-1]["name"]
    doc = {
        "format": "towercalc-scenario/1",
        "name": "fiber-chain",
        "description": "a deep chain of fiber products",
        "spaces": spaces,
        "expect": [
            {"name": "top-dim", "check": "dim", "space": top, "value": "2",
             "provenance": "trivial", "anchor": "a"},
            {"name": "top-canonical", "check": "canonical", "space": top,
             "value": ["-3"], "provenance": "trivial", "anchor": "a"},
        ],
    }
    start = time.perf_counter()
    report = evaluate_doc(doc, SYMBOLIC)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert elapsed < 1.0


def test_a_file_too_deep_to_parse_is_a_named_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(
        '{"format": "towercalc-scenario/1", "name": "deep", "expect": %s}'
        % ("[" * 100000 + "]" * 100000),
        encoding="utf-8",
    )
    code, _, err = run_cold(path)
    assert code == 2
    assert str(path) in err and "nested deeper than the parser" in err
    assert "Traceback" not in err


def test_a_file_nested_near_the_parser_limit_is_a_named_error(tmp_path):
    # Every depth the parser follows is refused by name, including the few
    # levels just under its limit, where re-encoding the parsed document
    # would run out of stack first.
    path = tmp_path / "deep.json"
    limit = sys.getrecursionlimit()
    refusal = "^(%s: parse error: nested deeper than the parser can follow|%s)$" % (
        re.escape(str(path)),
        "scenario 'deep': nested deeper than %d levels" % MAX_NESTING,
    )
    for depth in range(limit - 300, limit + 1):
        path.write_text(
            '{"format": "towercalc-scenario/1", "name": "deep", "expect": %s}'
            % ("[" * depth + "]" * depth),
            encoding="utf-8",
        )
        with pytest.raises(ScenarioError, match=refusal):
            load_scenario_file(path)


def test_a_file_that_is_not_utf8_is_a_named_error(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, ["verify", "--scenario-file", str(path)])
    assert code == 2 and out == ""
    assert str(path) in err and "not UTF-8" in err
    assert "Traceback" not in err


LONE_SURROGATE = "\ud800x"


@pytest.mark.parametrize(
    "section, index, needle",
    [
        (None, None, "scenario '\\ud800x': field 'name'"),
        ("expect", 0, "field 'expect[0].name'"),
        ("spaces", 1, "field 'spaces[1].name'"),
    ],
    ids=["scenario-name", "check-name", "entry-name"],
)
def test_a_name_that_utf8_cannot_encode_is_a_named_error(
    capsys, tmp_path, section, index, needle
):
    # The JSON escape \ud800 reads as a lone surrogate, which no text report
    # can print; the name is refused before any report is written.
    doc = scenario_doc("euler-convention")
    (doc if section is None else doc[section][index])["name"] = LONE_SURROGATE
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["verify", "--scenario-file", str(path)])
    assert code == 2 and out == ""
    assert needle in err and "expected a name in UTF-8" in err
    assert "Traceback" not in err


def test_a_restriction_kernel_whose_pairings_depend_on_n_is_a_named_error(
    capsys, tmp_path
):
    # The kernel of (a, b) -> (a) is spanned by b, which pairs with the curve
    # to n: no kernel analysis over the integers stands for every n.
    doc = {
        "format": "towercalc-scenario/1",
        "name": "kernel-in-n",
        "spaces": [{"name": "base", "kind": "formal-base", "pic": ["a", "b"]}],
        "maps": [
            {
                "name": "r",
                "kind": "declared",
                "source": ["a", "b"],
                "target": ["t"],
                "matrix": [["1", "0"]],
            }
        ],
        "curves": [
            {
                "name": "c",
                "space": "base",
                "atomic": {"kind": "declared", "vector": ["0", {"1": "1"}]},
            }
        ],
        "expect": [
            {
                "name": "kernel",
                "check": "restriction-kernel",
                "matrix": "r",
                "curves": ["c"],
                "value": {"kernel": [["0", "1"]], "perp": []},
                "provenance": "derived",
                "anchor": "the kernel of r",
            }
        ],
    }
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["verify", "--scenario-file", str(path)])
    assert code == 2 and out == ""
    assert "'kernel-in-n' check 'kernel': curve pairings must be constant" in err
    assert "Traceback" not in err


def _field_paths(node, prefix=()):
    """Paths to every field and list item under ``node``, except expected
    values."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if key == "value":
            continue
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _field_paths(child, prefix + (key,))


FUZZ_DOCS = {info["name"]: scenario_doc(info["name"]) for info in list_scenarios()}
FUZZ_FIELDS = [
    (name, (section,) + path)
    for name, doc in FUZZ_DOCS.items()
    for section in ("spaces", "bundles", "maps", "curves", "expect")
    for path in _field_paths(doc.get(section, []))
    if len(path) > 1
]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    field=st.sampled_from(FUZZ_FIELDS),
    value=st.sampled_from([5, "x", [], [5], {}, None]),
)
def test_wrongly_typed_field_ends_in_a_report_or_a_named_error(field, value):
    name, path = field
    doc = copy.deepcopy(FUZZ_DOCS[name])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = os.path.join(tmp, "doc.json")
        with open(doc_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--scenario-file", doc_path, "--n", "3"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# table


def test_table_is_constant_across_parameters(capsys):
    code3, out3, _ = run(
        capsys, ["table", "--scenario", "jz-intersection-table", "--n", "3"]
    )
    code4, out4, _ = run(
        capsys, ["table", "--scenario", "jz-intersection-table", "--n", "4"]
    )
    assert code3 == code4 == 0
    assert out3 == out4
    assert "ehat_one" in out3 and "x4" in out3


def test_table_prints_the_kernel_combination(capsys):
    code, out, _ = run(capsys, ["table", "--scenario", "ez-kernel-x2-x3"])
    assert code == 0
    assert "x2 - x3" in out


def test_table_json_contains_entries(capsys):
    code, out, _ = run(
        capsys,
        ["table", "--scenario", "jz-intersection-table", "--n", "3", "--format", "json"],
    )
    assert code == 0
    parsed = json.loads(out)
    table = parsed["tables"][0]
    assert table["rows"] == ["ehat_one", "ehat_two", "sigma_push", "gamma_exc"]
    assert table["entries"][2] == ["1", "-1", "-1", "-1"]


def test_table_without_tabular_checks_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["table", "--scenario", "local-model-stabilizers"])
    assert code == 2
    assert "no tabular checks" in err


# ---------------------------------------------------------------------------
# cone


def test_cone_prints_chain_generators(capsys):
    code, out, _ = run(capsys, ["cone", "--scenario", "mori-chain-jz"])
    assert code == 0
    assert "sigma_hat: (1, -1, -1, -1)" in out
    assert "all conditions hold" in out


def test_cone_prints_certificates(capsys):
    code, out, _ = run(capsys, ["cone", "--scenario", "extremal-sigma-ray", "--n", "3"])
    assert code == 0
    assert "certified" in out
    assert "(3, 2, 2, -1)" in out


def test_cone_without_cone_checks_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["cone", "--scenario", "euler-convention"])
    assert code == 2
    assert "no cone checks" in err


@pytest.mark.parametrize(
    "command, scenario", [("table", "jz-intersection-table"), ("cone", "extremal-sigma-ray")]
)
def test_table_and_cone_take_a_single_n(capsys, command, scenario):
    code, out, err = run(capsys, [command, "--scenario", scenario, "--n", "range:3..4"])
    assert code == 2 and out == ""
    assert err == "error: %s prints a single parameter value at a time\n" % command


# ---------------------------------------------------------------------------
# export and output routing


def test_export_parses_and_reloads(capsys, tmp_path):
    from towercalc.scenarios import load_scenario_file

    code, out, _ = run(capsys, ["export", "--scenario", "incidence-fixed-locus"])
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "incidence-fixed-locus"
    path = tmp_path / "doc.json"
    path.write_text(out, encoding="utf-8")
    assert load_scenario_file(path)["name"] == "incidence-fixed-locus"


def test_output_flag_writes_the_file_and_stays_quiet(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        [
            "verify",
            "--scenario",
            "euler-convention",
            "--format",
            "json",
            "--output",
            str(path),
        ],
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["scenario"] == "euler-convention"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scenario-file"],
        ["verify", "--scenario", "euler-convention", "--output"],
        ["table", "--scenario", "jz-intersection-table", "--output"],
        ["cone", "--scenario", "mori-chain-ez", "--output"],
        ["list", "--output"],
        ["export", "--scenario", "euler-convention", "--output"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in (argv[0], argv[-1])),
)
def test_a_path_holding_a_nul_byte_is_a_named_error(capsys, tmp_path, argv):
    # open() refuses such a path with ValueError, not OSError; the CLI names
    # it as it names a path that cannot be opened.
    path = str(tmp_path / "re\x00port.json")
    code, out, err = run(capsys, argv + [path])
    assert (code, out) == (2, "")
    assert err == "error: %r: embedded null byte\n" % path
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# pinned output bytes

CLI_DIGESTS = Path(__file__).with_name("cli_digests.json")


def cli_digests() -> dict:
    """sha256 of the stdout of `export` for every built-in scenario, of
    `verify --format text` at symbolic and n = 3, of `verify` over
    `range:3..6` as JSON, and of `table` and `cone` at symbolic and n = 3 in
    both formats, for every scenario where the command succeeds; where it
    exits non-zero, sha256 of the exit code and the stderr text."""
    digests = {}
    for info in list_scenarios():
        name = info["name"]
        argvs = (
            [["export", "--scenario", name]]
            + [
                ["verify", "--scenario", name, "--n", n, "--format", "text"]
                for n in (SYMBOLIC, "3")
            ]
            + [["verify", "--scenario", name, "--n", "range:3..6", "--format", "json"]]
            + [
                [cmd, "--scenario", name, "--n", n, "--format", fmt]
                for cmd in ("table", "cone")
                for n in (SYMBOLIC, "3")
                for fmt in ("text", "json")
            ]
        )
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            text = out.getvalue() if code == 0 else "%d\n%s" % (code, err.getvalue())
            digests[" ".join(argv)] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def test_export_table_and_cone_outputs_match_their_digests():
    pinned = json.loads(CLI_DIGESTS.read_text(encoding="utf-8"))
    assert cli_digests() == pinned


if __name__ == "__main__":
    # Re-pin after an intended output change:
    #   PYTHONPATH=src python tests/test_cli.py > tests/cli_digests.json
    print(json.dumps(cli_digests(), indent=1, sort_keys=True))
