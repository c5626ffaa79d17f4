"""Self-test of the benchmark, in about two minutes.

    python3 perfbench/smoke.py

A one-second run of every workload, untraced and traced, must exit 0,
print every metric of BENCHMARK.json by name with its unit (in a
`metric` line and in the result object), and print the provenance line.
A cli-cold run with --fault, whose exported copy of one document carries
a wrong expected value, must report failed > 0 and exit nonzero.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads as W

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
PROVENANCE_KEYS = {"python", "nproc", "commit", "src_sha256", "seed", "towercalc"}


def run(workload: str, trace: int, *extra: str, seconds: int = 1):
    argv = [sys.executable, str(W.HERE / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=W.ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc, lines, result


def check_run(workload: str, trace: int, spec: dict) -> list:
    label = "%s --trace %d" % (workload, trace)
    proc, lines, result = run(workload, trace)
    if proc.returncode != 0 or result is None:
        return ["%s: exit %d, no result: %s" % (label, proc.returncode, proc.stderr.strip()[-300:])]
    problems = []
    if set(result) != RESULT_KEYS or not result["correct"] or result["failed"] != 0:
        problems.append("%s: bad result %s" % (label, {k: result.get(k) for k in RESULT_KEYS - {"metrics"}}))
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append("%s: metric names differ from BENCHMARK.json" % label)
    for m in wanted:
        entry = result["metrics"].get(m["name"], {})
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append("%s: %s missing or not in %s" % (label, m["name"], m["unit"]))
        printed = [l.split() for l in lines if l.startswith("metric %s " % m["name"])]
        if not printed or printed[0][-1] != m["unit"]:
            problems.append("%s: no 'metric %s <value> %s' line" % (label, m["name"], m["unit"]))
    header = [l for l in lines if l.startswith("# provenance ")]
    if not header or not PROVENANCE_KEYS <= set(json.loads(header[0][len("# provenance "):])):
        problems.append("%s: provenance line missing or incomplete" % label)
    elif json.loads(header[0][len("# provenance "):])["towercalc"] != "src/towercalc/__init__.py":
        problems.append("%s: towercalc not imported from this checkout's src/" % label)
    return problems


def main() -> int:
    with open(W.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print("%-12s trace %d: %s" % (workload, trace, "ok" if not found else "FAILED"))
            problems += found
    # Long enough for at least one full pass (25 requests), so the faulty
    # document is certainly read.
    proc, _, result = run("cli-cold", 0, "--fault", seconds=15)
    caught = proc.returncode != 0 and result is not None and result["failed"] > 0 and not result["correct"]
    print("cli-cold --fault: %s" % ("caught" if caught else "NOT CAUGHT"))
    if not caught:
        problems.append("a wrong expected value in %s did not fail the run" % W.FAULT_SCENARIO)
    for problem in problems:
        print("  " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
