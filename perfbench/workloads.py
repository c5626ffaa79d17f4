"""Workload definitions and paths shared by the runner and its children.

Nothing here imports towercalc: the runner process never loads the package
it measures, so the scenario list reaches it from the set-up child.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DOCS = WORK / "docs"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("census-cold", "cone-search", "tower-sweep", "cli-cold")
CENSUS = "local-model-stabilizers"
EXTREMAL = "extremal-sigma-ray"
SYMBOLIC = "symbolic"
NUMERIC_ONLY = "numeric-only"
SWEEP_NS = [SYMBOLIC] + list(range(3, 13))
GATE_NS = [SYMBOLIC, 3, 4, 5]

# The scenario whose exported copy gets one wrong expected value under
# `run.py --fault`, to prove that the correctness gate fails the run.
FAULT_SCENARIO = "euler-convention"


def key(name: str, n) -> str:
    return "%s@%s" % (name, n)


def allowed_ns(info: dict, ns: list) -> list:
    if info["n_policy"] == NUMERIC_ONLY:
        return [n for n in ns if n != SYMBOLIC]
    return list(ns)


def light(infos: list) -> list:
    return [i for i in infos if i["name"] not in (CENSUS, EXTREMAL)]


def gate_pairs(infos: list) -> list:
    """Every scenario at symbolic (where allowed), 3, 4 and 5."""
    return [(i["name"], n) for i in infos for n in allowed_ns(i, GATE_NS)]


def requests(workload: str, infos: list) -> list:
    """The request set of one pass, before the seeded shuffle.

    census-cold and in-process requests are (scenario, n); cli-cold
    requests are (digest key, towercalc argv)."""
    if workload == "census-cold":
        return [(CENSUS, SYMBOLIC)]
    if workload == "cone-search":
        return [(EXTREMAL, n) for n in SWEEP_NS]
    if workload == "tower-sweep":
        return [(i["name"], n) for i in light(infos) for n in allowed_ns(i, SWEEP_NS)]
    if workload == "cli-cold":
        out = [("list", ["list"])]
        for info in light(infos):
            name = info["name"]
            n = allowed_ns(info, [SYMBOLIC, 3])[0]
            tail = ["--n", str(n), "--format", "json"]
            out.append((key(name, n), ["verify", "--scenario", name] + tail))
            doc = str(DOCS / (name + ".json"))
            out.append((key(name, n), ["verify", "--scenario-file", doc] + tail))
        return out
    raise ValueError("unknown workload %r" % workload)


def passes(reqs: list, seed: int):
    """Endless sequence of passes over `reqs`, each in a seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(reqs)
        rng.shuffle(order)
        yield order


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_failure(label: str, passed: bool, text: str, pinned) -> str | None:
    """Why a verdict is wrong, or None: every check must pass against the
    document's own expected value, and the report bytes must match the
    digest pinned for this (scenario, n)."""
    if not passed:
        failing = [c["name"] for c in json.loads(text)["checks"] if c["status"] != "PASS"]
        return "%s: failing checks %s" % (label, ", ".join(failing))
    if pinned is None:
        return "%s: no pinned digest" % label
    if digest(text) != pinned:
        return "%s: report bytes differ from the pinned digest" % label
    return None
