"""Verify-time benchmark for towercalc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One closed-loop client sends one request
at a time and the next only after the verdict arrives; the seed only
shuffles the order of the requests.  With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics, measured by wrapping the package's public functions from outside
(see trace.py).  Every run checks every verdict and the pinned report
digests; the last line of standard output is one JSON object, and the exit
code is 0 only when every verdict was correct.  --fault exports one
cli-cold document with a wrong expected value, to show the gate fails.

The runner process never imports towercalc: set-up probes, the in-process
worker, the request interpreters and the correctness gate are children.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import workloads as W
from trace import Aggregate, layer_metrics

SETUP_PROBES = 7
INTERPRETER_PROBES = 5
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD = str(W.HERE / "child.py")
# Exactly what the installed `towercalc` console script runs.
ENTRY_POINT = "import sys; from towercalc.cli import main; sys.exit(main())"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


@dataclass
class Child:
    start: float
    end: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float

    def result(self) -> dict | None:
        """The JSON object on the child's last line, or None when the child
        failed or printed none."""
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None

    def describe(self) -> str:
        tail = (self.stderr.strip().splitlines() or ["no output"])[-1]
        return "exit %d: %s" % (self.code, tail)


def _child_env() -> dict:
    # Children run with the interpreter's defaults whatever the caller's
    # PYTHON* settings: PYTHONDONTWRITEBYTECODE, for one, would make every
    # import in a fresh checkout compile from source.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(W.SRC)
    # The CLI would otherwise copy each report outside the checkout.
    env.pop("TOWERCALC_REPORT_DIR", None)
    return env


ENV = _child_env()


def spawn(argv: list) -> Child:
    """Run one child to completion.  os.wait4 gives the exact exit time and
    the child's own peak resident memory."""
    with tempfile.TemporaryFile(dir=W.WORK) as out, tempfile.TemporaryFile(dir=W.WORK) as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=W.ROOT, env=ENV
        )
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise BenchError("child timed out after %d s: %s" % (CHILD_TIMEOUT_S, argv[1:4]))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            start,
            end,
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            usage.ru_maxrss / 1024,
        )


def python(*args) -> list:
    return [sys.executable, *args]


# ---------------------------------------------------------------------------
# provenance


def _commit() -> str:
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((W.SRC / "towercalc").rglob("*.py")):
        h.update(str(path.relative_to(W.SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(args, towercalc_path: str) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "towercalc": towercalc_path,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# statistics


def tail(values: list):
    """(percentile, value) for the highest percentile with at least
    TAIL_BEYOND samples beyond it (nearest rank), or None."""
    ordered = sorted(values)
    count = len(ordered)
    for p in TAIL_PERCENTILES:
        if count * (100 - p) / 100 >= TAIL_BEYOND:
            return p, ordered[max(math.ceil(p / 100 * count) - 1, 0)]
    return None


# ---------------------------------------------------------------------------
# the run


class Run:
    def __init__(self, args):
        self.args = args
        self.failures: list = []
        self.attempted = 0
        self.latencies_ms: list = []
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.agg = Aggregate()
        # Time and count of the untraced and traced requests of a traced run.
        self.untraced = [0.0, 0]
        self.traced = [0.0, 0]
        self.env_ms: list = []
        self.pinned = W.load_digests()

    def verdict(self, failure) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(failure)

    # -- set-up ----------------------------------------------------------

    def setup(self) -> list:
        """Warm the bytecode caches, then time SETUP_PROBES fresh set-ups:
        interpreter start, `import towercalc`, the scenario list and, for
        cli-cold, exporting the documents its file requests read."""
        warm = spawn(python("-c", "import towercalc.cli"))
        if warm.code != 0:
            raise BenchError("cannot import towercalc: " + warm.describe())
        argv = python(CHILD, "setup", "--workload", self.args.workload)
        if self.args.fault:
            argv.append("--fault")
        seconds, probes = [], []
        for _ in range(SETUP_PROBES + 1):
            child = spawn(argv)
            probe = child.result()
            if probe is None:
                raise BenchError("set-up failed: " + child.describe())
            seconds.append(probe["ready_at"] - child.start)
            probes.append(probe)
        # The first probe also wrote the bytecode of the benchmark's own
        # modules; it is not counted.
        self.setup_s = statistics.median(seconds[1:])
        self.import_ms = [p["import_ms"] for p in probes[1:]]
        self.towercalc_path = probes[-1]["towercalc"]
        return probes[-1]["scenarios"]

    def add_time(self, traced: bool, seconds: float) -> None:
        side = self.traced if traced else self.untraced
        side[0] += seconds
        side[1] += 1

    # -- workloads -------------------------------------------------------

    def run_worker(self) -> None:
        a = self.args
        child = spawn(
            python(
                CHILD, "worker", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace),
            )
        )
        out = child.result()
        if out is None:
            self.verdict("in-process worker: " + child.describe())
            return
        self.rss_mb = child.rss_mb
        self.attempted += out["attempted"]
        self.failures += out["failures"]
        self.latencies_ms = out["latencies_ms"]
        self.wall_s = out["wall_s"]
        if out["trace"]:
            self.agg.merge(Aggregate(out["trace"]))
            self.untraced = [out["untraced_s"], len(out["latencies_ms"])]
            self.traced = [out["traced_s"], out["trace"]["requests"]]
            self.env_ms.append(out["env_ms"])

    def run_census(self) -> None:
        """One fresh interpreter per request; the latency runs from spawn to
        the child's verdict.  Traced runs alternate traced and untraced
        children and go on until each kind has run at least once."""
        a = self.args
        first = None
        kinds_done = set()
        count = 0
        while True:
            elapsed = 0 if first is None else time.monotonic() - first
            if elapsed >= a.seconds and (not a.trace or kinds_done == {0, 1}):
                break
            traced = a.trace and count % 2 == 1
            child = spawn(python(CHILD, "census", "--trace", str(int(traced))))
            first = child.start if first is None else first
            self.wall_s = child.end - first
            count += 1
            kinds_done.add(int(traced))
            out = child.result()
            if out is None:
                self.verdict("census-cold request: " + child.describe())
                continue
            self.verdict(out["failure"])
            self.rss_mb = max(self.rss_mb, child.rss_mb)
            latency = out["verdict_at"] - child.start
            if traced:
                self.agg.merge(Aggregate(out["trace"]))
                self.env_ms.append(out["env_ms"])
            else:
                self.latencies_ms.append(latency * 1000)
            self.add_time(traced, latency)

    def run_cli(self, infos: list) -> None:
        """One fresh `towercalc` process per request, timed from spawn to
        exit.  Traced runs pair each request with a traced copy run through
        child.py, taking turns at going first."""
        a = self.args
        reqs = W.requests("cli-cold", infos)
        first = None
        pair = 0
        for order in W.passes(reqs, a.seed):
            if first is not None and time.monotonic() - first >= a.seconds:
                break
            for label, argv in order:
                if first is not None and time.monotonic() - first >= a.seconds:
                    break
                modes = [False] if not a.trace else ([False, True] if pair % 2 == 0 else [True, False])
                pair += 1
                for traced in modes:
                    if traced:
                        child = spawn(python(CHILD, "cli", *argv))
                    else:
                        child = spawn(python("-c", ENTRY_POINT, *argv))
                    first = child.start if first is None else first
                    self.wall_s = child.end - first
                    self.rss_mb = max(self.rss_mb, child.rss_mb)
                    latency = child.end - child.start
                    self.add_time(traced, latency)
                    if not traced:
                        self.latencies_ms.append(latency * 1000)
                        self.verdict(self.cli_failure(label, child.code, child.stdout))
                        continue
                    out = child.result()
                    if out is None:
                        self.verdict("%s (traced): %s" % (label, child.describe()))
                        continue
                    self.agg.merge(Aggregate(out["trace"]))
                    if out["env_ms"] is not None:
                        self.env_ms.append(out["env_ms"])
                    self.verdict(self.cli_failure(label, out["code"], out["stdout"]))

    def cli_failure(self, label: str, code: int, stdout: str):
        if label == "list":
            if code != 0 or W.digest(stdout) != self.pinned["list"]:
                return "list: exit %d, or output differs from the pinned digest" % code
            return None
        try:
            checks = json.loads(stdout)["checks"]
        except (ValueError, KeyError, TypeError):
            return "%s: towercalc exited %d without a report" % (label, code)
        passed = code == 0 and all(c["status"] == "PASS" for c in checks)
        return W.verdict_failure(label, passed, stdout, self.pinned["reports"].get(label))

    # -- gate ------------------------------------------------------------

    def gate(self) -> None:
        argv = python(CHILD, "gate")
        if self.args.trace:
            argv.append("--warm")
        child = spawn(argv)
        out = child.result()
        self.gate_ms: dict = {}
        self.warm_ms = None
        if out is None:
            self.verdict("correctness gate: " + child.describe())
            return
        for entry in out["results"]:
            self.verdict(entry["failure"])
            if entry["n"] == "warm":
                self.warm_ms = entry["ms"]
            else:
                self.gate_ms.setdefault(entry["scenario"], []).append(entry["ms"])

    # -- metrics ---------------------------------------------------------

    def end_to_end(self) -> tuple[dict, list]:
        lat = self.latencies_ms
        notes = []
        metrics = {
            "evals_per_s": len(lat) / self.wall_s if self.wall_s else 0.0,
            "eval_p50_ms": statistics.median(lat) if lat else 0.0,
            "setup_s": self.setup_s,
            "peak_rss_mb": self.rss_mb,
        }
        notes.append("eval_p50_ms samples %d" % len(lat))
        t = tail(lat)
        if t is None:
            notes.append("eval_tail_ms omitted: %d samples, fewer than %d beyond any percentile" % (len(lat), TAIL_BEYOND))
        else:
            notes.append("eval_tail_ms %r ms (p%g, %d samples)" % (t[1], t[0], len(lat)))
        notes.append("setup_s median of %d set-ups" % SETUP_PROBES)
        return metrics, notes

    def per_layer(self, infos: list) -> tuple[dict, list]:
        metrics = layer_metrics(self.agg)
        interp = [spawn(python("-c", "pass")) for _ in range(INTERPRETER_PROBES)]
        metrics["cli.interpreter_ms"] = statistics.median((c.end - c.start) * 1000 for c in interp)
        metrics["cli.import_ms"] = statistics.median(self.import_ms)
        metrics["scenarios.env_ms"] = statistics.fmean(self.env_ms) if self.env_ms else 0.0
        (traced_s, traced_n), (untraced_s, untraced_n) = self.traced, self.untraced
        metrics["trace.overhead_pct"] = (
            100 * ((traced_s / traced_n) / (untraced_s / untraced_n) - 1)
            if traced_n and untraced_s else 0.0
        )
        for info in infos:
            values = self.gate_ms.get(info["name"])
            metrics["scenario.%s.p50_ms" % info["name"]] = statistics.median(values) if values else 0.0
        metrics["scenario.%s.warm_ms" % W.CENSUS] = self.warm_ms or 0.0
        notes = [
            "per-layer figures are means per traced request (%d traced requests)" % self.agg.requests,
            "scenario.*.p50_ms from the correctness gate: symbolic (where allowed), 3, 4, 5",
        ]
        return metrics, notes


def load_spec() -> dict:
    with open(W.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fault", action="store_true", help="self-test: make one exported cli-cold document wrong")
    args = parser.parse_args(argv)
    try:
        if not (W.SRC / "towercalc" / "__init__.py").is_file():
            raise BenchError("no towercalc sources at %s; run from the root of a checkout" % W.SRC)
        spec = load_spec()
        W.WORK.mkdir(exist_ok=True)
        run = Run(args)
        infos = run.setup()
        if args.workload == "census-cold":
            run.run_census()
        elif args.workload == "cli-cold":
            run.run_cli(infos)
        else:
            run.run_worker()
        run.gate()
        metrics, notes = run.per_layer(infos) if args.trace else run.end_to_end()
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print("perfbench: metrics %s do not match BENCHMARK.json" % sorted(set(units) ^ set(metrics)), file=sys.stderr)
        return 2
    print("# provenance " + json.dumps(provenance(args, run.towercalc_path), sort_keys=True))
    for name in units:
        print("metric %s %r %s" % (name, metrics[name], units[name]))
    for note in notes:
        print("# " + note)
    failed = len(run.failures)
    print("metric failed_share %r share (%d of %d verdicts)" % (failed / max(run.attempted, 1), failed, run.attempted))
    for failure in run.failures[:20]:
        print("FAILED " + failure, file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
