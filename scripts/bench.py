#!/usr/bin/env python3
"""In-process timings of the extremal certificate search and the census.

Each figure is the median wall time over ``--runs`` repetitions:

* ``extremal_certificate`` on the built-in ``extremal-sigma-ray`` cone, at
  symbolic and n = 3..12.  The cone comes from the real document: the
  search is timed by wrapping ``scenarios.extremal_certificate`` while
  ``run_scenario`` evaluates the scenario, which is timed as well.
* ``isotropy_equivalence_f3``, ``rational_isotropy_samples`` and
  ``omega_census``, cold: called through ``__wrapped__``, so their
  ``lru_cache`` neither serves nor keeps a result.
* a cold ``local-model-stabilizers`` run at symbolic, with the census
  caches cleared before each repetition.

The figures are stored under ``--label`` in the JSON file ``--out``, next to
the entries of other labels already there, with the interpreter version and
the CPU count.  ``--src`` selects the source tree that is imported, so one
file can hold the figures of two checkouts measured in the same host phase:

    python scripts/bench.py --src ../parent/src --label parent --out BENCH_7.json
    python scripts/bench.py --label change --out BENCH_7.json
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NS = ["symbolic"] + list(range(3, 13))


def _median_ms(fn, runs):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1000)
    return round(statistics.median(times), 2)


def _extremal(scenarios, runs):
    """Per n: median ms of the certificate search and of the whole scenario."""
    search_ms = []
    real = scenarios.extremal_certificate

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            search_ms.append((time.perf_counter() - start) * 1000)

    search, scenario = {}, {}
    scenarios.extremal_certificate = timed
    try:
        for n in NS:
            search_ms.clear()
            scenario[str(n)] = _median_ms(
                lambda: scenarios.run_scenario("extremal-sigma-ray", n), runs
            )
            search[str(n)] = round(statistics.median(search_ms), 2)
    finally:
        scenarios.extremal_certificate = real
    return search, scenario


def measure(runs):
    from towercalc import census, scenarios

    search, scenario = _extremal(scenarios, runs)
    cached = (
        census.isotropy_equivalence_f3,
        census.rational_isotropy_samples,
        census.omega_census,
    )

    def cold_stabilizers():
        for fn in cached:
            fn.cache_clear()
        scenarios.run_scenario("local-model-stabilizers", "symbolic")

    return {
        "extremal_certificate_ms": search,
        "extremal_certificate_p50_ms": statistics.median(search.values()),
        "extremal_scenario_ms": scenario,
        "isotropy_equivalence_f3_ms": _median_ms(
            census.isotropy_equivalence_f3.__wrapped__, runs
        ),
        "rational_isotropy_samples_ms": _median_ms(
            census.rational_isotropy_samples.__wrapped__, runs
        ),
        "omega_census_ms": _median_ms(census.omega_census.__wrapped__, runs),
        "local_model_stabilizers_cold_ms": _median_ms(cold_stabilizers, runs),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=5, help="repetitions per figure")
    parser.add_argument("--label", default="change", help="key of this tree's figures")
    parser.add_argument(
        "--src", default=os.path.join(ROOT, "src"), help="source tree to import"
    )
    parser.add_argument("--out", required=True, help="JSON file to update")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sys.path.insert(0, os.path.abspath(args.src))

    figures = measure(args.runs)
    try:
        with open(args.out, encoding="utf-8") as fh:
            bench = json.load(fh)
    except FileNotFoundError:
        bench = {}
    bench.setdefault("trees", {})[args.label] = dict(
        figures,
        python=platform.python_version(),
        cpus=os.cpu_count(),
        runs=args.runs,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(bench["trees"][args.label], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
