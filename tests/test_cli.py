"""Command-line interface: exit codes, formats, and output routing."""

import json

import pytest

from towercalc.cli import REPORT_DIR_ENV, main
from towercalc.scenarios import scenario_doc


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
    ],
)
def test_usage_errors(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.strip()


def test_parse_error_in_scenario_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    code, _, err = run(capsys, ["verify", "--scenario-file", str(path)])
    assert code == 2
    assert "parse error at line" in err


@pytest.mark.parametrize(
    "check, field, value, offender",
    [
        ("incidence-dim", "value", "1/0", "1/0"),
        ("incidence-dim", "space", ["incidence_divisor"], "['incidence_divisor']"),
        ("table", "divisors", ["x9", "x2", "x3", "x4"], "x9"),
        ("table", "curves", "ehat_one", "'curves'"),
    ],
    ids=["zero-denominator", "list-as-name", "unknown-divisor", "string-as-list"],
)
def test_bad_document_is_a_named_error(capsys, tmp_path, check, field, value, offender):
    doc = scenario_doc("jz-intersection-table")
    next(e for e in doc["expect"] if e["name"] == check)[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, ["verify", "--scenario-file", str(path), "--n", "3"])
    assert code == 2
    assert check in err and offender in err
    assert "Traceback" not in err


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


def test_report_dir_env_var(capsys, tmp_path, monkeypatch):
    rdir = tmp_path / "reports"
    monkeypatch.setenv(REPORT_DIR_ENV, str(rdir))
    code, out, _ = run(
        capsys,
        ["verify", "--scenario", "euler-convention", "--n", "4", "--format", "json"],
    )
    assert code == 0
    assert out  # still printed to stdout
    files = sorted(p.name for p in rdir.iterdir())
    assert files == ["euler-convention.n4.json"]
    assert json.loads((rdir / files[0]).read_text())["n"] == 4
