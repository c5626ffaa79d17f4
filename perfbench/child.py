"""Child processes of the benchmark runner, one subcommand each.

  setup   import towercalc, list the scenarios, export cli-cold's documents
  worker  the in-process closed loop of cone-search and tower-sweep
  census  one census-cold request, in the fresh interpreter it runs in
  cli     one towercalc command under the tracer (untraced requests run
          the towercalc entry point directly)
  gate    the correctness gate: every scenario at symbolic, 3, 4 and 5

Each prints one JSON object as its last line of standard output.
Timestamps handed to the runner come from time.monotonic(), the clock the
runner reads too.  The runner puts this checkout's src/ on PYTHONPATH; the
import check below refuses any other copy of towercalc.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import workloads as W
from trace import Aggregate, Tracer


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def import_towercalc(module: str = "towercalc"):
    start = time.perf_counter()
    __import__(module)
    import_ms = (time.perf_counter() - start) * 1000
    towercalc = sys.modules["towercalc"]
    loaded = Path(towercalc.__file__).resolve()
    if W.SRC.resolve() not in loaded.parents:
        sys.exit("towercalc was imported from %s, not from %s" % (loaded, W.SRC))
    return towercalc, import_ms, str(loaded.relative_to(W.ROOT))


def timed_run(towercalc, name: str, n, pinned: dict):
    """One in-process request: `run_scenario` plus its canonical JSON report.
    Returns (seconds to verdict, failure or None)."""
    label = W.key(name, n)
    start = time.perf_counter()
    try:
        report = towercalc.run_scenario(name, n)
        text = report.to_json_text()
        passed = report.passed
    except Exception as exc:  # a request that raises is a failed request
        reason = traceback.format_exception_only(exc)[-1].strip()
        return time.perf_counter() - start, "%s: raised %s" % (label, reason)
    elapsed = time.perf_counter() - start
    return elapsed, W.verdict_failure(label, passed, text, pinned.get(label))


def env_seconds(towercalc, doc: dict, n) -> float:
    """Environment build and validation alone: `evaluate_doc` on the
    document with its expect list emptied."""
    bare = dict(doc, expect=[])
    start = time.perf_counter()
    towercalc.evaluate_doc(bare, n)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------


def cmd_setup(args) -> None:
    towercalc, import_ms, loaded = import_towercalc()
    infos = towercalc.list_scenarios()
    if args.workload == "cli-cold":
        W.DOCS.mkdir(parents=True, exist_ok=True)
        for info in W.light(infos):
            name = info["name"]
            text = towercalc.export_scenario(name)
            if args.fault and name == W.FAULT_SCENARIO:
                doc = json.loads(text)
                doc["expect"][0]["value"] = "0"
                text = json.dumps(doc, sort_keys=True)
            (W.DOCS / (name + ".json")).write_text(text + "\n", encoding="utf-8")
    ready_at = time.monotonic()
    emit({"ready_at": ready_at, "import_ms": import_ms, "towercalc": loaded, "scenarios": infos})


def cmd_worker(args) -> None:
    towercalc, _, _ = import_towercalc()
    reqs = W.requests(args.workload, towercalc.list_scenarios())
    pinned = W.load_digests()["reports"]
    tracer = Tracer() if args.trace else None
    agg = Aggregate()
    docs = {}
    latencies, failures = [], []
    attempted = 0
    untraced_s = traced_s = env_s = 0.0
    start = time.perf_counter()
    deadline = start + args.seconds
    for order in W.passes(reqs, args.seed):
        if time.perf_counter() >= deadline:
            break
        for name, n in order:
            if time.perf_counter() >= deadline:
                break
            if tracer is None:
                elapsed, failure = timed_run(towercalc, name, n, pinned)
                latencies.append(elapsed * 1000)
                failures += [failure] if failure else []
                attempted += 1
                continue
            # Traced runs pair every request with an untraced copy, taking
            # turns at going first, so the overhead compares like with like.
            modes = (False, True) if attempted % 4 == 0 else (True, False)
            for traced in modes:
                if traced:
                    tracer.install()
                try:
                    elapsed, failure = timed_run(towercalc, name, n, pinned)
                finally:
                    if traced:
                        tracer.uninstall()
                if traced:
                    tracer.fold(agg)
                    traced_s += elapsed
                else:
                    untraced_s += elapsed
                    latencies.append(elapsed * 1000)
                failures += [failure] if failure else []
                attempted += 1
            if name not in docs:
                docs[name] = towercalc.scenario_doc(name)
            env_s += env_seconds(towercalc, docs[name], n)
    wall_s = time.perf_counter() - start
    emit(
        {
            "attempted": attempted,
            "failures": failures,
            "latencies_ms": latencies,
            "wall_s": wall_s,
            "trace": agg.to_json() if tracer else None,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "env_ms": env_s * 1000 / max(agg.requests, 1),
        }
    )


def cmd_census(args) -> None:
    towercalc, _, _ = import_towercalc()
    pinned = W.load_digests()["reports"]
    tracer = Tracer() if args.trace else None
    agg = Aggregate()
    if tracer:
        tracer.install()
    try:
        _, failure = timed_run(towercalc, W.CENSUS, W.SYMBOLIC, pinned)
    finally:
        if tracer:
            tracer.uninstall()
    verdict_at = time.monotonic()
    env_ms = None
    if tracer:
        tracer.fold(agg)
        env_ms = env_seconds(towercalc, towercalc.scenario_doc(W.CENSUS), W.SYMBOLIC) * 1000
    emit(
        {
            "verdict_at": verdict_at,
            "failure": failure,
            "trace": agg.to_json() if tracer else None,
            "env_ms": env_ms,
        }
    )


def cmd_cli(args) -> None:
    towercalc, _, _ = import_towercalc("towercalc.cli")
    cli = sys.modules["towercalc.cli"]
    tracer = Tracer()
    agg = Aggregate()
    out = io.StringIO()
    tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(args.argv)
    finally:
        tracer.uninstall()
    tracer.fold(agg)
    env_ms = None
    argv = args.argv
    if argv[0] == "verify":
        n = argv[argv.index("--n") + 1]
        n = n if n == W.SYMBOLIC else int(n)
        if "--scenario" in argv:
            doc = towercalc.scenario_doc(argv[argv.index("--scenario") + 1])
        else:
            doc = towercalc.load_scenario_file(argv[argv.index("--scenario-file") + 1])
        env_ms = env_seconds(towercalc, doc, n) * 1000
    emit(
        {
            "code": code,
            "stdout": out.getvalue(),
            "trace": agg.to_json(),
            "env_ms": env_ms,
        }
    )


def cmd_gate(args) -> None:
    towercalc, _, _ = import_towercalc()
    pinned = W.load_digests()["reports"]
    results = []
    for name, n in W.gate_pairs(towercalc.list_scenarios()):
        elapsed, failure = timed_run(towercalc, name, n, pinned)
        results.append({"scenario": name, "n": n, "ms": elapsed * 1000, "failure": failure})
    if args.warm:
        # The census caches are full by now: this is the warm cost of the
        # same request the gate's first local-model-stabilizers run paid cold.
        elapsed, failure = timed_run(towercalc, W.CENSUS, W.SYMBOLIC, pinned)
        results.append({"scenario": W.CENSUS, "n": "warm", "ms": elapsed * 1000, "failure": failure})
    emit({"results": results})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--fault", action="store_true")
    p = sub.add_parser("worker")
    p.add_argument("--workload", required=True, choices=("cone-search", "tower-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p = sub.add_parser("census")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("gate")
    p.add_argument("--warm", action="store_true")
    args = parser.parse_args(argv)
    {
        "setup": cmd_setup,
        "worker": cmd_worker,
        "census": cmd_census,
        "cli": cmd_cli,
        "gate": cmd_gate,
    }[args.command](args)


if __name__ == "__main__":
    main()
