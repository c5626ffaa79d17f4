"""Command-line front end for the scenario suite.

Subcommands:

* ``verify``  - evaluate a scenario (built-in or from a document file) and
  emit its report; exit 0 when every check passes, 1 when any fails.
* ``table``   - print the tabular checks of a scenario (pairing tables,
  recorded matrices, kernel combinations).
* ``cone``    - print the cone generators and certificates of a scenario.
* ``list``    - list the built-in scenarios.
* ``export``  - print a scenario document as canonical JSON.

``--n`` accepts an integer >= 3, ``symbolic``, or ``range:A..B`` (inclusive,
at most ``MAX_RANGE_WIDTH`` values, aggregating one report per value).
``--format`` selects ``text`` or ``json``.  ``--output`` writes to a file
instead of stdout.  Usage errors exit with 2.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import exactnum
from .exactnum import ParamPoly
from .scenarios import (
    POLICY_NUMERIC,
    SYMBOLIC,
    ScenarioError,
    _load_file,
    _open,
    _shown,
    canonical_json,
    export_scenario,
    list_scenarios,
    run_scenario_at,
    scenario_doc,
)

#: Most values of n that one ``range:A..B`` may ask for.
MAX_RANGE_WIDTH = 1000
# ASCII digits, as in documents.  A range bound of more than nine digits
# ends as an invalid n, so int() never meets one too long to convert.
_RANGE_RE = re.compile(r"range:([0-9]{1,9})\.\.([0-9]{1,9})")


def _parse_n_spec(text: str) -> list:
    if text == SYMBOLIC:
        return [SYMBOLIC]
    match = _RANGE_RE.fullmatch(text)
    if match:
        lo, hi = int(match.group(1)), int(match.group(2))
        if lo < exactnum.N_MIN:
            raise ScenarioError(
                "n must be >= %d (range starts at %d)" % (exactnum.N_MIN, lo)
            )
        if hi < lo:
            raise ScenarioError("empty range %s" % text)
        if hi - lo + 1 > MAX_RANGE_WIDTH:
            raise ScenarioError(
                "range %s has %d values, over the budget of %d"
                % (text, hi - lo + 1, MAX_RANGE_WIDTH)
            )
        return list(range(lo, hi + 1))
    try:
        if not re.fullmatch(r"-?[0-9]+", text):
            raise ValueError(text)
        n = int(text)
    except ValueError:  # not an integer, or too many digits to convert
        raise ScenarioError(
            "invalid n %s: use an integer >= %d, %r, or range:A..B"
            % (_shown(text), exactnum.N_MIN, SYMBOLIC)
        )
    if n < exactnum.N_MIN:
        raise ScenarioError("n must be >= %d (got %d)" % (exactnum.N_MIN, n))
    return [n]


def _emit(text: str, args) -> None:
    if not text.endswith("\n"):
        text += "\n"
    out = getattr(args, "output", None)
    if out:
        with _open(out, "w") as fh:
            fh.write(text)
        return
    sys.stdout.write(text)


def _pretty(entry) -> str:
    """Compact text form of a serialized report value: a string, or a
    polynomial's coefficient map."""
    return entry if isinstance(entry, str) else str(ParamPoly(entry))


def _grid(row_labels, col_labels, entries) -> str:
    cells = [[""] + [str(c) for c in col_labels]]
    for label, row in zip(row_labels, entries):
        cells.append([str(label)] + [_pretty(e) for e in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    return "\n".join(
        "  ".join(s.rjust(w) for s, w in zip(r, widths)).rstrip() for r in cells
    )


def _vector(coords) -> str:
    return "(%s)" % ", ".join(_pretty(c) for c in coords)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    ns = _parse_n_spec(args.n)
    if args.scenario_file:
        reports = _load_file(args.scenario_file)[1].reports(ns)
    else:
        reports = run_scenario_at(args.scenario, ns)
    if args.format == "json":
        if len(reports) == 1:
            text = reports[0].to_json_text()
        else:
            text = canonical_json([r.to_json_dict() for r in reports])
    else:
        text = "\n".join(r.render_text() for r in reports)
    _emit(text, args)
    return 0 if all(r.passed for r in reports) else 1


def _tabular_blocks(doc, report):
    computed = {c.name: c.computed for c in report.checks}
    maps_by_name = {m["name"]: m for m in doc.get("maps", ())}
    tables, kernels = [], []
    for entry in doc.get("expect", ()):
        name, kind = entry["name"], entry["check"]
        if kind == "kernel-polynomials":
            kernels.append({"check": name, "combinations": computed[name]})
            continue
        if kind == "pairing-table":
            rows, columns = entry["curves"], entry["divisors"]
        elif kind == "map-matrix":
            m = maps_by_name[entry["map"]]
            rows, columns = m["target"], m["source"]
        else:
            continue
        table = {"check": name, "rows": list(rows), "columns": list(columns)}
        tables.append(dict(table, entries=computed[name]))
    return tables, kernels


def _single_report(args):
    """The document of ``--scenario`` and its report at the one value of
    ``--n`` that ``table`` and ``cone`` accept."""
    ns = _parse_n_spec(args.n)
    if len(ns) != 1:
        raise ScenarioError("%s prints a single parameter value at a time" % args.command)
    return scenario_doc(args.scenario), run_scenario_at(args.scenario, ns)[0]


def _cmd_table(args) -> int:
    doc, report = _single_report(args)
    tables, kernels = _tabular_blocks(doc, report)
    if not tables and not kernels:
        raise ScenarioError("scenario %r has no tabular checks" % doc["name"])
    if args.format == "json":
        text = canonical_json(
            {"scenario": doc["name"], "tables": tables, "kernels": kernels}
        )
    else:
        blocks = ["scenario: %s" % doc["name"]]
        for t in tables:
            blocks.append(
                "table %s\n%s" % (t["check"], _grid(t["rows"], t["columns"], t["entries"]))
            )
        for k in kernels:
            blocks.append("kernel %s: %s" % (k["check"], ", ".join(k["combinations"])))
        text = "\n\n".join(blocks)
    _emit(text, args)
    return 0


def _cmd_cone(args) -> int:
    doc, report = _single_report(args)
    computed = {c.name: c.computed for c in report.checks}
    cones = []
    certificates = []
    for entry in doc.get("expect", ()):
        if entry["check"] == "mori-chain":
            value = computed[entry["name"]]
            if "generators" in value:
                cones.append(dict(value, check=entry["name"]))
        elif entry["check"] == "extremal-certificate":
            certificates.append(dict(computed[entry["name"]], check=entry["name"]))
    if not cones and not certificates:
        raise ScenarioError("scenario %r has no cone checks" % doc["name"])
    if args.format == "json":
        text = canonical_json(
            {"scenario": doc["name"], "cones": cones, "certificates": certificates}
        )
    else:
        blocks = ["scenario: %s" % doc["name"]]
        for cone in cones:
            lines = ["cone %s" % cone["check"]]
            for name, vec in zip(cone["generator_names"], cone["generators"]):
                lines.append("  %s: %s" % (name, _vector(vec)))
            for step in cone["steps"]:
                lines.append("  step %s: all conditions hold" % step["space"])
            blocks.append("\n".join(lines))
        for cert in certificates:
            line = "certificate %s: status %s" % (cert["check"], cert["status"])
            if cert.get("functional"):
                line += ", functional %s, height %s" % (
                    _vector(cert["functional"]),
                    cert["height"],
                )
            blocks.append(line)
        text = "\n\n".join(blocks)
    _emit(text, args)
    return 0


def _cmd_list(args) -> int:
    infos = list_scenarios()
    if args.format == "json":
        text = canonical_json(infos)
    else:
        width = max(len(i["name"]) for i in infos)
        lines = []
        for info in infos:
            marker = "  [numeric only]" if info["n_policy"] == POLICY_NUMERIC else ""
            lines.append(
                "%s  %s%s" % (info["name"].ljust(width), info["description"], marker)
            )
        text = "\n".join(lines)
    _emit(text, args)
    return 0


def _cmd_export(args) -> int:
    _emit(export_scenario(args.scenario), args)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="towercalc",
        description="exact verification of the resolution towers' numerical content",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_n(p):
        p.add_argument(
            "--n",
            default=SYMBOLIC,
            help="integer >= %d, 'symbolic', or 'range:A..B' (default: symbolic)"
            % exactnum.N_MIN,
        )

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_output(p):
        p.add_argument("--output", help="write to this file instead of stdout")

    p_verify = sub.add_parser("verify", help="evaluate a scenario and emit its report")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", help="built-in scenario name")
    group.add_argument("--scenario-file", help="path to a scenario document")
    add_n(p_verify)
    add_format(p_verify)
    add_output(p_verify)

    for command, checks in (("table", "tabular"), ("cone", "cone")):
        p_show = sub.add_parser(command, help="print a scenario's %s checks" % checks)
        p_show.add_argument("--scenario", required=True)
        add_n(p_show)
        add_format(p_show)
        add_output(p_show)

    p_list = sub.add_parser("list", help="list the built-in scenarios")
    add_format(p_list)
    add_output(p_list)

    p_export = sub.add_parser("export", help="print a scenario document")
    p_export.add_argument("--scenario", required=True)
    add_output(p_export)

    return parser


_DISPATCH = {
    "verify": _cmd_verify,
    "table": _cmd_table,
    "cone": _cmd_cone,
    "list": _cmd_list,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except (ScenarioError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
