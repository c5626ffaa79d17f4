"""Span recorder that wraps towercalc's public functions from outside.

`Tracer.install()` replaces, on the imported module and class objects only,
every public function of the layer modules, every public method of their
classes and the arithmetic operators of those classes with a wrapper that
records a span: name, start, end and parent.  Nothing under ``src/`` is
edited; `Tracer.uninstall()` puts the originals back.

Spans are kept in memory for one request and folded into an `Aggregate`
when the request ends, so memory stays bounded by the largest request.
A span's self time is its duration minus the durations of its child spans
(children of one synchronous call never overlap).
"""

from __future__ import annotations

import enum
import functools
import importlib
import time
import types

LAYERS = ("exactnum", "towers", "curves", "symplectic", "projcoh", "census", "scenarios", "cli")

# Arithmetic operators are wrapped even though their names start with an
# underscore: ParamPoly and ExactMatrix arithmetic is where exactnum spends
# its time.  Comparison and hashing are left alone; dict and set lookups call
# them far too often for a span each.
OPERATORS = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"}
)

EXTREMAL = "curves.extremal_certificate"
POLY_OPS = frozenset("exactnum.ParamPoly." + op for op in OPERATORS)

# Inclusive-time metrics: the time under the outermost span of the group,
# so a group member called inside another member is not counted twice.
GROUPS = {
    "census.isotropy_f3_ms": {"census.isotropy_equivalence_f3"},
    "census.rational_samples_ms": {"census.rational_isotropy_samples"},
    "census.omega_census_ms": {"census.omega_census"},
    "census.sigma_census_ms": {"census.sigma_census"},
    "curves.extremal_ms": {EXTREMAL},
    "curves.mori_ms": {"curves.mori_propagate"},
    "scenarios.validate_ms": {"scenarios.validate_doc"},
    "scenarios.serialize_ms": {
        "scenarios.serialize_value",
        "scenarios.canonical_json",
        "scenarios.VerificationReport.to_json_dict",
        "scenarios.VerificationReport.to_json_text",
    },
    "scenarios.doc_build_ms": {
        "scenarios.scenario_doc",
        "scenarios.list_scenarios",
        "scenarios.load_scenario_file",
        "scenarios.export_scenario",
    },
    "cli.main_ms": {"cli.main"},
}
_GROUP_OF = {}
for _metric, _members in GROUPS.items():
    for _name in _members:
        _GROUP_OF.setdefault(_name, []).append(_metric)


class Aggregate:
    """Per-name call counts and self times, plus the group totals, summed
    over the requests folded into it.  JSON-friendly so that a child
    process can hand it to the benchmark runner."""

    def __init__(self, data: dict | None = None):
        data = data or {}
        self.requests = data.get("requests", 0)
        self.calls = dict(data.get("calls", {}))
        self.self_ns = dict(data.get("self_ns", {}))
        self.groups_ns = dict(data.get("groups_ns", {}))
        self.extremal_poly_ops = data.get("extremal_poly_ops", 0)

    def to_json(self) -> dict:
        return {
            "requests": self.requests,
            "calls": self.calls,
            "self_ns": self.self_ns,
            "groups_ns": self.groups_ns,
            "extremal_poly_ops": self.extremal_poly_ops,
        }

    def merge(self, other: "Aggregate") -> None:
        self.requests += other.requests
        for mine, theirs in (
            (self.calls, other.calls),
            (self.self_ns, other.self_ns),
            (self.groups_ns, other.groups_ns),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        self.extremal_poly_ops += other.extremal_poly_ops


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._patches: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def _patch(self, container, key, value, is_item: bool) -> None:
        if is_item:
            self._patches.append((container, key, container[key], True))
            container[key] = value
        else:
            self._patches.append((container, key, vars(container)[key], False))
            setattr(container, key, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("towercalc")
        modules = {layer: importlib.import_module("towercalc." + layer) for layer in LAYERS}
        replacements = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, (BaseException, enum.Enum)):
                        self._wrap_class(layer, obj)
                elif isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    replacements[id(obj)] = (obj, self._wrap(layer + "." + attr, obj))
        # Rebind every reference to a wrapped function: the defining module,
        # modules that imported it by name (under any alias), the package
        # namespace, and module-level dispatch tables.
        for module in [package, *modules.values()]:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1], is_item=False)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        hit = replacements.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patch(obj, key, hit[1], is_item=True)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for key, member in list(vars(cls).items()):
            if key.startswith("_") and key not in OPERATORS:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, key)
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(name, member.__func__))
            elif isinstance(member, types.FunctionType):
                wrapped = self._wrap(name, member)
            else:
                continue
            self._patch(cls, key, wrapped, is_item=False)

    def uninstall(self) -> None:
        for container, key, original, is_item in reversed(self._patches):
            if is_item:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- folding ------------------------------------------------------------

    def fold(self, into: Aggregate) -> None:
        """Add the spans recorded since the last fold to `into` as one
        request, then forget them."""
        if len(self._stack) != 1:
            raise RuntimeError("fold called inside an open span")
        spans = self.spans
        count = len(spans)
        child_ns = [0] * count
        under_extremal = [False] * count
        for index, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                under_extremal[index] = under_extremal[parent] or spans[parent][0] == EXTREMAL
        calls, self_ns, groups_ns = into.calls, into.self_ns, into.groups_ns
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + duration - child_ns[index]
            if under_extremal[index] and name in POLY_OPS:
                into.extremal_poly_ops += 1
            for metric in _GROUP_OF.get(name, ()):
                if _outermost_in(spans, parent, GROUPS[metric]):
                    groups_ns[metric] = groups_ns.get(metric, 0) + duration
        into.requests += 1
        spans.clear()


def _outermost_in(spans, parent: int, members) -> bool:
    while parent >= 0:
        name, _, _, parent_of_parent = spans[parent]
        if name in members:
            return False
        parent = parent_of_parent
    return True


def layer_metrics(agg: Aggregate) -> dict:
    """Per-request means of the per-layer metrics, from an aggregate of
    traced requests.  Times are in ms, counts in calls per request."""
    per = max(agg.requests, 1)
    out = {}
    for metric in GROUPS:
        out[metric] = agg.groups_ns.get(metric, 0) / 1e6 / per
    for layer in LAYERS:
        prefix = layer + "."
        out[layer + ".self_ms"] = (
            sum(v for k, v in agg.self_ns.items() if k.startswith(prefix)) / 1e6 / per
        )

    def calls(*names):
        return sum(agg.calls.get(name, 0) for name in names) / per

    def layer_calls(layer):
        prefix = layer + "."
        return sum(v for k, v in agg.calls.items() if k.startswith(prefix)) / per

    out["symplectic.omega_calls"] = calls("symplectic.SymplecticSpace.omega")
    out["symplectic.isotropic_calls"] = calls("symplectic.is_isotropic")
    out["towers.calls"] = layer_calls("towers")
    out["projcoh.calls"] = layer_calls("projcoh")
    out["exactnum.poly_ops"] = calls(*POLY_OPS)
    out["exactnum.solve_calls"] = calls("exactnum.solve_linear", "exactnum.solve_linear_generic")
    out["exactnum.matmul_calls"] = calls("exactnum.ExactMatrix.__mul__")
    out["curves.extremal_poly_ops"] = agg.extremal_poly_ops / per
    return out
