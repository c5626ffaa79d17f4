"""Exact-arithmetic verification engine for towers of projective bundles,
blow-up resolutions, and the curve cones and symplectic local models attached
to them.

Everything is computed over the rationals (with one formal parameter ``n``)
or over small prime fields; no floating point is used anywhere.  The entry
points are the scenario suite below and the ``towercalc`` command line tool;
the engine's pieces are imported from their own modules.
"""

from .scenarios import (
    ScenarioError,
    evaluate_doc,
    export_scenario,
    list_scenarios,
    load_scenario_file,
    run_scenario,
    scenario_doc,
)
