"""Scenario suite: declarative verification documents and their evaluator.

A scenario is a JSON-able document describing a tower of spaces, bundles,
lattice maps, and curve classes, plus a list of expected values.  The
evaluator rebuilds the objects with the engine, recomputes every expected
value, and emits a deterministic report.  Documents round-trip through
export and load without changing any report byte.  The built-in scenarios
are the documents packaged as ``towercalc/data/<name>.json``.

Expected values carry a provenance tag:

* ``reference`` - the value is taken from the source material and the
  engine must reproduce it;
* ``derived``   - the value was frozen from an independent computation and
  the engine must agree with it;
* ``trivial``   - the value is immediate arithmetic recorded for
  completeness.

All numbers are exact: integers and rationals serialize as strings like
``"-3"`` or ``"5/2"``, polynomials in the integer parameter as coefficient
maps like ``{"0": "3", "1": "-2"}``.  Reports never contain timestamps and
their checks are sorted by name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .census import (
    isotropy_equivalence_f3,
    omega_census,
    order_two_relations,
    rational_isotropy_samples,
    sigma_census,
)
from .curves import (
    ChainSpec,
    ChainStep,
    Cone,
    ContractionData,
    CurveClass,
    DeclaredSection,
    LineInExceptionalFiber,
    LineInProjFiber,
    PropagationError,
    StrictTransform,
    curve_from_atomic,
    extremal_certificate,
    intersect,
    kneg_check,
    mori_propagate,
    pairing_table,
    push_from_sublattice,
    restriction_kernel,
    solve_pushforward,
)
from .exactnum import (
    ExactMatrix,
    LinearSolveError,
    ParamPoly,
    aspoly,
    inverse,
    matrix_product_is_identity,
    rat_str,
    solve_linear,
)
from .projcoh import coh_dim_product_proj, sym_rank
from .symplectic import fixed_locus_incidence, normal_cone_quadric
from .towers import (
    BlowUp,
    CenterSpec,
    DivisorIn,
    FiberProduct,
    FormalBase,
    FormalBundle,
    LatticeError,
    ProjBundle,
    PullbackMap,
    RestrictionClassSpec,
    canonical_class,
    dual,
    extension,
    lift_class,
    pull_to,
    quotient,
    relative_tangent,
    sym_power,
    tensor_line,
    transport_class,
    wedge_top,
)

SYMBOLIC = "symbolic"
PROVENANCE_TAGS = ("reference", "derived", "trivial")
POLICY_ANY = "symbolic-or-numeric"
POLICY_NUMERIC = "numeric-only"
FORMAT_TAG = "towercalc-scenario/1"


class ScenarioError(Exception):
    """Base class for scenario-suite failures."""


class UnknownScenarioError(ScenarioError):
    pass


class BadParameterError(ScenarioError):
    pass


class PolicyError(ScenarioError):
    pass


class ScenarioFileError(ScenarioError):
    pass


# ---------------------------------------------------------------------------
# exact serialization


def serialize_value(value, n):
    """Map engine values to the exact JSON form used in documents and
    reports.  Numbers become strings, polynomials become coefficient maps
    (or evaluate when ``n`` is numeric); containers recurse."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, ParamPoly):
        if n == SYMBOLIC:
            if value.is_constant():
                return rat_str(value.constant_value())
            return value.to_coeff_strings()
        return rat_str(value.eval(n))
    if isinstance(value, str):
        return value
    if isinstance(value, ExactMatrix):
        return [[serialize_value(e, n) for e in row] for row in value.entries]
    if isinstance(value, dict):
        return {str(k): serialize_value(v, n) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [serialize_value(v, n) for v in value]
    raise TypeError("cannot serialize %r" % (value,))


def parse_value(value):
    """Inverse of :func:`serialize_value` on the symbolic form."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, float):
        raise ScenarioFileError(
            "non-exact number %r: use integer strings or p/q strings" % value
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError:
            return value
        except ZeroDivisionError:
            raise ScenarioFileError("zero denominator in %r" % value) from None
    if isinstance(value, dict):
        if value and all(
            isinstance(k, str) and k.isdigit() and isinstance(v, (str, int))
            for k, v in value.items()
        ):
            try:
                return ParamPoly.from_coeff_strings(
                    {k: str(v) for k, v in value.items()}
                )
            except (ValueError, ZeroDivisionError):
                pass
        return {k: parse_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [parse_value(v) for v in value]
    raise ScenarioFileError("cannot parse value %r" % (value,))


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# environment construction from a document


@dataclass
class Env:
    spaces: dict
    bundles: dict
    maps: dict
    curves: dict


def _req(obj: dict, key: str, what: str):
    if key not in obj:
        raise ScenarioFileError("%s: missing field %r" % (what, key))
    return obj[key]


def _poly_field(raw, what: str) -> ParamPoly:
    try:
        parsed = parse_value(raw)
    except ScenarioFileError as exc:
        raise ScenarioFileError("%s: %s" % (what, exc)) from None
    if isinstance(parsed, (Fraction, ParamPoly, int)):
        return aspoly(parsed)
    raise ScenarioFileError("%s: %r is not an exact number or polynomial" % (what, raw))


def _poly_vector(raw, what: str) -> tuple:
    if not isinstance(raw, (list, tuple)):
        raise ScenarioFileError("%s: expected a list of numbers" % what)
    return tuple(_poly_field(x, what) for x in raw)


def _int_field(raw, what: str) -> int:
    p = _poly_field(raw, what)
    if not p.is_constant() or p.constant_value().denominator != 1:
        raise ScenarioFileError("%s: %r is not an integer" % (what, raw))
    return int(p.constant_value())


def _lookup(table: dict, name, what: str):
    if not isinstance(name, str):
        raise ScenarioFileError("%s: reference %r is not a name" % (what, name))
    if name not in table:
        raise ScenarioFileError("%s: unknown reference %r" % (what, name))
    return table[name]


def _make_space(sd, spaces, bundles):
    name = _req(sd, "name", "space entry")
    what = "space %r" % name
    kind = _req(sd, "kind", what)
    try:
        if kind == "formal-base":
            canonical = sd.get("canonical")
            spaces[name] = FormalBase(
                name,
                tuple(sd.get("pic", ())),
                None if canonical is None else [_poly_field(c, what) for c in canonical],
                _poly_field(sd.get("dim", 0), what),
            )
        elif kind == "proj-bundle":
            spaces[name] = ProjBundle(
                name,
                _lookup(spaces, _req(sd, "base", what), what),
                _lookup(bundles, _req(sd, "bundle", what), what),
                _req(sd, "taut", what),
            )
        elif kind == "blow-up":
            directions = sd.get("exc_directions")
            restriction = None
            if directions:
                restriction = RestrictionClassSpec(
                    tuple(directions),
                    _poly_vector(_req(sd, "exc_degrees", what), what),
                )
            spaces[name] = BlowUp(
                name,
                _lookup(spaces, _req(sd, "ambient", what), what),
                CenterSpec(_poly_field(_req(sd, "codim", what), what), restriction),
                _req(sd, "exc", what),
            )
        elif kind == "fiber-product":
            spaces[name] = FiberProduct(
                name,
                _lookup(spaces, _req(sd, "left", what), what),
                _lookup(spaces, _req(sd, "right", what), what),
                _lookup(spaces, _req(sd, "over", what), what),
            )
        elif kind == "divisor-in":
            ambient = _lookup(spaces, _req(sd, "ambient", what), what)
            spaces[name] = DivisorIn(
                name,
                ambient,
                ambient.div(_poly_vector(_req(sd, "class", what), what)),
            )
        else:
            raise ScenarioFileError("%s: unknown kind %r" % (what, kind))
    except (LatticeError, ValueError) as exc:
        raise ScenarioFileError("%s: %s" % (what, exc)) from exc


def _make_bundle(bd, spaces, bundles):
    name = _req(bd, "name", "bundle entry")
    what = "bundle %r" % name
    kind = _req(bd, "kind", what)
    try:
        if kind == "declared":
            space = _lookup(spaces, _req(bd, "space", what), what)
            bundles[name] = FormalBundle(
                space,
                _poly_field(_req(bd, "rank", what), what),
                space.div(_poly_vector(_req(bd, "c1", what), what)),
                name=name,
            )
        elif kind == "dual":
            bundles[name] = dual(_lookup(bundles, _req(bd, "of", what), what))
        elif kind == "quotient":
            bundles[name] = quotient(
                _lookup(bundles, _req(bd, "of", what), what),
                _lookup(bundles, _req(bd, "sub", what), what),
            )
        elif kind == "tensor-line":
            f = _lookup(bundles, _req(bd, "of", what), what)
            bundles[name] = tensor_line(
                f, f.space.div(_poly_vector(_req(bd, "line", what), what))
            )
        elif kind == "extension":
            bundles[name] = extension(
                _lookup(bundles, _req(bd, "sub", what), what),
                _lookup(bundles, _req(bd, "quot", what), what),
            )
        elif kind == "sym-power":
            bundles[name] = sym_power(
                _lookup(bundles, _req(bd, "of", what), what),
                _int_field(_req(bd, "power", what), what),
            )
        elif kind == "wedge-top":
            bundles[name] = wedge_top(_lookup(bundles, _req(bd, "of", what), what))
        elif kind == "relative-tangent":
            space = _lookup(spaces, _req(bd, "space", what), what)
            if not isinstance(space, ProjBundle):
                raise ScenarioFileError(
                    "%s: %r is not a projective bundle" % (what, space.name)
                )
            bundles[name] = relative_tangent(space)
        elif kind == "pull-to":
            bundles[name] = pull_to(
                _lookup(bundles, _req(bd, "of", what), what),
                _lookup(spaces, _req(bd, "space", what), what),
            )
        else:
            raise ScenarioFileError("%s: unknown kind %r" % (what, kind))
    except (LatticeError, ValueError) as exc:
        raise ScenarioFileError("%s: %s" % (what, exc)) from exc


def _make_env(doc) -> Env:
    spaces: dict = {}
    bundles: dict = {}
    maps: dict = {}
    curves: dict = {}

    # Spaces and bundles live in separate lists but depend on each other in
    # an interleaved order (a projective bundle needs a bundle that lives on
    # an earlier space).  Build with a worklist that keeps document order
    # within each pass and retries entries whose references are not ready
    # yet; a pass with no progress surfaces the first missing reference.
    pending = [("space", sd) for sd in doc.get("spaces", ())]
    pending += [("bundle", bd) for bd in doc.get("bundles", ())]
    while pending:
        progress = False
        deferred = []
        first_error = None
        for kind, entry in pending:
            try:
                if kind == "space":
                    _make_space(entry, spaces, bundles)
                else:
                    _make_bundle(entry, spaces, bundles)
                progress = True
            except ScenarioFileError as exc:
                if "unknown reference" in str(exc):
                    deferred.append((kind, entry))
                    if first_error is None:
                        first_error = exc
                else:
                    raise
        if not progress:
            raise first_error
        pending = deferred

    for md in doc.get("maps", ()):
        name = _req(md, "name", "map entry")
        what = "map %r" % name
        kind = _req(md, "kind", what)
        source = tuple(_req(md, "source", what))
        target = tuple(_req(md, "target", what))
        try:
            if kind == "declared":
                rows = _req(md, "matrix", what)
                matrix = ExactMatrix(
                    [[_poly_field(e, what) for e in row] for row in rows],
                    cols=len(source),
                )
            elif kind == "recipe":
                recipe = _req(md, "recipe", what)
                if recipe not in RECIPES:
                    raise ScenarioFileError("%s: unknown recipe %r" % (what, recipe))
                matrix = RECIPES[recipe]()
            else:
                raise ScenarioFileError("%s: unknown kind %r" % (what, kind))
            maps[name] = PullbackMap(name, source, target, matrix)
        except (LatticeError, ValueError) as exc:
            raise ScenarioFileError("%s: %s" % (what, exc)) from exc

    for cd in doc.get("curves", ()):
        name = _req(cd, "name", "curve entry")
        what = "curve %r" % name
        space = _lookup(spaces, _req(cd, "space", what), what)
        atomic = _req(cd, "atomic", what)
        akind = _req(atomic, "kind", what)
        try:
            if akind == "line-in-proj-fiber":
                curve = curve_from_atomic(
                    space, LineInProjFiber(_req(atomic, "taut", what))
                )
            elif akind == "line-in-exceptional-fiber":
                curve = curve_from_atomic(
                    space, LineInExceptionalFiber(_req(atomic, "direction", what))
                )
            elif akind == "strict-transform":
                ambient_curve = _lookup(
                    curves, _req(atomic, "ambient_curve", what), what
                )
                curve = curve_from_atomic(
                    space,
                    StrictTransform(
                        ambient_curve,
                        _int_field(atomic.get("mult", 1), what),
                    ),
                )
            elif akind == "declared":
                curve = curve_from_atomic(
                    space,
                    DeclaredSection(
                        _poly_vector(_req(atomic, "vector", what), what),
                        atomic.get("note", ""),
                    ),
                )
            elif akind == "pushed":
                m = _lookup(maps, _req(atomic, "matrix", what), what)
                curve = CurveClass(
                    space,
                    push_from_sublattice(
                        m.matrix, _poly_vector(_req(atomic, "degrees", what), what)
                    ),
                    provenance=atomic.get("note", ""),
                )
            else:
                raise ScenarioFileError("%s: unknown atomic kind %r" % (what, akind))
        except (LatticeError, ValueError) as exc:
            raise ScenarioFileError("%s: %s" % (what, exc)) from exc
        curves[name] = curve

    return Env(spaces, bundles, maps, curves)


# ---------------------------------------------------------------------------
# derivation recipes for lattice maps


def _ig_dim_poly(k: int) -> ParamPoly:
    """Dimension of the isotropic-plane family: k(2n - k) - k(k-1)/2."""
    return ParamPoly({1: 2 * k, 0: Fraction(-k * k) - Fraction(k * (k - 1), 2)})


def ig_dim(k: int, m: int) -> int:
    """Dimension of the family of isotropic k-planes in a 2m-dimensional
    symplectic space."""
    return k * (2 * m - k) - k * (k - 1) // 2


def _chi_tower():
    grass3 = FormalBase("grass3", ("g",), canonical=None, dim=_ig_dim_poly(3))
    rank3 = FormalBundle(grass3, 3, grass3.gen("g", -1), name="rank_three_taut")
    chi = ProjBundle("chi_plane", grass3, rank3, "h")
    t_chi = relative_tangent(chi)
    return grass3, chi, t_chi


def relative_cotangent_class() -> FormalBundle:
    """Line bundle class of the relative cotangent of the plane curve
    fibration, on the lattice (g, h, xk)."""
    _, chi, t_chi = _chi_tower()
    kappa = ProjBundle("kappa_curve", chi, t_chi, "xk")
    return dual(relative_tangent(kappa))


def derive_psi_pullback() -> ExactMatrix:
    """Pullback matrix of the comparison of the two resolutions.

    The first three columns record declared generator correspondences; the
    fourth column is computed: the relative cotangent class is pulled to the
    doubled ruling lattice, and its fiber component splits evenly over the
    two rulings because restriction to the diagonal fixes the sum while swap
    symmetry forces equality.
    """
    omega = relative_cotangent_class()
    g_c, h_c, k_c = omega.c1.coords
    split = solve_linear(
        ExactMatrix([[1, 1], [1, -1]]), (k_c.constant_value(), Fraction(0))
    )
    cols = [
        (0, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
        (g_c, h_c, split[0], split[1]),
    ]
    return ExactMatrix([[cols[c][r] for c in range(4)] for r in range(4)])


def _ruling_lattice():
    _, chi, t_chi = _chi_tower()
    one = ProjBundle("ruling_one", chi, t_chi, "k10")
    two = ProjBundle("ruling_two", chi, t_chi, "k01")
    product = FiberProduct("double_ruling", one, two, chi)
    return product, t_chi


def derive_xi_pullback() -> ExactMatrix:
    """Pullback matrix of the resolution of the double-dual family.

    Ruling columns are computed by bundle algebra: quotient the pulled
    relative tangent by the ruling's tautological subline and twist by the
    dual plane class.  The last column is the transported relative cotangent
    class shared with the other pullback.
    """
    product, t_chi = _ruling_lattice()

    def ruling_column(taut_name: str):
        pulled = pull_to(t_chi, product)
        sub = FormalBundle(product, 1, product.gen(taut_name, -1))
        quo = quotient(pulled, sub)
        return tensor_line(quo, product.gen("h", -1)).c1.coords

    psi = derive_psi_pullback()
    cols = [
        (aspoly(1), aspoly(0), aspoly(0), aspoly(0)),
        ruling_column("k10"),
        ruling_column("k01"),
        tuple(psi.entries[r][3] for r in range(4)),
    ]
    return ExactMatrix([[cols[c][r] for c in range(4)] for r in range(4)])


def exc_restriction_routes() -> dict:
    """The exceptional-class restriction on the boundary lattice (a, t, w),
    by two routes: the declared product of the two degree-minus-one ruling
    classes, and the projectivized-cone route, where the cone is the model
    bundle twisted by the dual hyperplane line, so its tautological class
    picks up the twist."""
    declared = (Fraction(0), Fraction(-1), Fraction(-1))
    untwisted_taut = (Fraction(0), Fraction(0), Fraction(-1))
    twist = (Fraction(0), Fraction(-1), Fraction(0))
    cone_route = tuple(a + b for a, b in zip(untwisted_taut, twist))
    return {
        "declared": list(declared),
        "cone_route": list(cone_route),
        "agree": cone_route == declared,
    }


def derive_boundary_restriction() -> ExactMatrix:
    """Restriction of the resolved-fiber divisor lattice to the boundary
    lattice (a, t, w).  Columns one to three are declared restriction rules;
    the last column is the exceptional class, whose two derivation routes
    must agree."""
    routes = exc_restriction_routes()
    if not routes["agree"]:
        raise AssertionError("exceptional restriction routes disagree: %r" % routes)
    col4 = routes["declared"]
    cols = [
        (0, 1, 0),
        (1, -1, 0),
        (1, -1, 0),
        tuple(col4),
    ]
    return ExactMatrix([[cols[c][r] for c in range(4)] for r in range(3)])


RECIPES = {
    "psi-pullback": derive_psi_pullback,
    "xi-pullback": derive_xi_pullback,
    "boundary-restriction": derive_boundary_restriction,
}


# ---------------------------------------------------------------------------
# check kinds


def _space_of(env, params, key="space"):
    return _lookup(env.spaces, _req(params, key, "check params"), "check params")


def _names_of(params, key):
    names = _req(params, key, "check params")
    if not isinstance(names, list):
        raise ScenarioFileError("check params: %r must be a list of names" % key)
    return names


def _curves_of(env, params, key="curves"):
    return [_lookup(env.curves, c, "check params") for c in _names_of(params, key)]


def _divisors_of(env, space, params, key="divisors"):
    return [space.gen(d) for d in _names_of(params, key)]


def _check_dim(env, params, n):
    return _space_of(env, params).dim()


def _check_codim(env, params, n):
    space = _space_of(env, params)
    if not isinstance(space, BlowUp):
        raise ScenarioFileError("check params: %r is not a blow-up" % space.name)
    return space.center.codim


def _check_codim_in_ambient(env, params, n):
    return _check_codim(env, params, n) + 1


def _check_canonical(env, params, n):
    return list(canonical_class(_space_of(env, params)).coords)


def _check_restricted_canonical(env, params, n):
    divisor = _lookup(env.spaces, _req(params, "divisor", "check params"), "check params")
    normal = _poly_vector(_req(params, "normal", "check params"), "check params")
    k_div = canonical_class(divisor)
    restricted = divisor.div(tuple(a - b for a, b in zip(k_div.coords, normal)))
    if "blowup" not in params:
        return list(restricted.coords)
    blowup = _lookup(env.spaces, params["blowup"], "check params")
    codim = _poly_field(
        _req(params, "ambient_center_codim", "check params"), "check params"
    )
    lifted = lift_class(restricted, blowup)
    result = lifted + blowup.gen(blowup.exc_name) * (codim - 1)
    return list(result.coords)


def _check_kneg(env, params, n):
    space = _space_of(env, params)
    k = space.div(_poly_vector(_req(params, "k_class", "check params"), "check params"))
    report = kneg_check(k, _curves_of(env, params))
    return {
        "pairings": [e.pairing for e in report.entries],
        "all_negative": report.all_negative,
    }


def _check_pairing_table(env, params, n):
    space = _space_of(env, params)
    table = pairing_table(_curves_of(env, params), _divisors_of(env, space, params))
    return table


def _check_pairing_table_constant(env, params, n):
    return _check_pairing_table(env, params, n).is_constant()


def _check_curve_vector(env, params, n):
    curve = _lookup(env.curves, _req(params, "curve", "check params"), "check params")
    return list(curve.vector)


def _check_combination_pairings(env, params, n):
    space = _space_of(env, params)
    curves = _curves_of(env, params)
    coeffs = _poly_vector(_req(params, "coefficients", "check params"), "check params")
    if len(coeffs) != len(curves):
        raise ScenarioFileError("check params: one coefficient per curve")
    combo = None
    for c, curve in zip(coeffs, curves):
        term = curve * c
        combo = term if combo is None else combo + term
    return [intersect(combo, d) for d in _divisors_of(env, space, params)]


def _check_functional_values(env, params, n):
    space = _space_of(env, params)
    functional = space.div(
        _poly_vector(_req(params, "functional", "check params"), "check params")
    )
    return [intersect(c, functional) for c in _curves_of(env, params)]


def _check_vector_sum(env, params, n):
    terms = [
        _poly_vector(t, "check params")
        for t in _req(params, "terms", "check params")
    ]
    acc = list(terms[0])
    for t in terms[1:]:
        acc = [a + b for a, b in zip(acc, t)]
    return acc


def _check_map_matrix(env, params, n):
    return _lookup(env.maps, _req(params, "map", "check params"), "check params").matrix


def _check_matrix_product_identity(env, params, n):
    a = _lookup(env.maps, _req(params, "left", "check params"), "check params").matrix
    b = _lookup(env.maps, _req(params, "right", "check params"), "check params").matrix
    return {
        "left_right": matrix_product_is_identity(a, b),
        "right_left": matrix_product_is_identity(b, a),
    }


def _check_map_inverse_equals(env, params, n):
    a = _lookup(env.maps, _req(params, "of", "check params"), "check params").matrix
    b = _lookup(
        env.maps, _req(params, "expected_map", "check params"), "check params"
    ).matrix
    try:
        return inverse(a) == b
    except LinearSolveError:
        return False


def _check_map_invertible(env, params, n):
    a = _lookup(env.maps, _req(params, "map", "check params"), "check params").matrix
    try:
        inverse(a)
        return True
    except LinearSolveError:
        return False


def _check_transport(env, params, n):
    start = _poly_vector(_req(params, "start", "check params"), "check params")
    via = []
    for step in _req(params, "via", "check params"):
        m = _lookup(env.maps, _req(step, "map", "check params"), "check params")
        via.append(m.inverted() if step.get("inverted") else m)
    result = transport_class(start, via, tuple(params.get("drop", ())))
    return {"names": list(result.names), "coords": list(result.coords)}


def _check_solve_pushforward(env, params, n):
    space = _space_of(env, params)
    table = pairing_table(_curves_of(env, params), _divisors_of(env, space, params))
    observed = _poly_vector(_req(params, "observed", "check params"), "check params")
    return list(solve_pushforward(observed, table))


def _check_push_from_sublattice(env, params, n):
    m = _lookup(env.maps, _req(params, "matrix", "check params"), "check params")
    degrees = _poly_vector(_req(params, "degrees", "check params"), "check params")
    return list(push_from_sublattice(m.matrix, degrees))


def _check_extremal_certificate(env, params, n):
    space = _space_of(env, params)
    curves = _curves_of(env, params)
    names = tuple(_req(params, "curves", "check params"))
    cone = Cone(
        dim=len(space.pic_names()),
        generators=tuple(c.vector for c in curves),
        names=names,
    )
    cert = extremal_certificate(
        cone,
        tuple(_req(params, "face", "check params")),
        height_bound=_int_field(params.get("height_bound", 8), "check params"),
    )
    return {
        "status": cert.status,
        "functional": None if cert.functional is None else list(cert.functional),
        "height": cert.height,
        "values": None if cert.values is None else list(cert.values),
        "witness": serialize_value(cert.witness, SYMBOLIC)
        if cert.witness is not None
        else None,
    }


def _contraction_from_doc(data, what: str) -> ContractionData:
    name = _req(data, "name", what)
    has_pullbacks = "pullbacks" in data
    has_images = "images" in data
    if has_pullbacks == has_images:
        raise ScenarioFileError(
            "%s: contraction %r needs exactly one of pullbacks/images" % (what, name)
        )
    if has_pullbacks:
        rows = data["pullbacks"]
        return ContractionData(
            name,
            pullbacks=ExactMatrix(
                [[_poly_field(e, what) for e in row] for row in rows]
            ),
            note=data.get("note", ""),
        )
    return ContractionData(
        name,
        images=tuple(_poly_vector(v, what) for v in data["images"]),
        note=data.get("note", ""),
    )


def _check_mori_chain(env, params, n):
    chain_doc = _req(params, "chain", "check params")
    what = "mori chain"
    base = _req(chain_doc, "base", what)
    base_names = tuple(g["name"] for g in _req(base, "generators", what))
    base_vectors = tuple(
        _poly_vector(g["vector"], what) for g in base["generators"]
    )
    steps = []
    for sd in _req(chain_doc, "steps", what):
        names = tuple(g["name"] for g in _req(sd, "generators", what))
        vectors = tuple(_poly_vector(g["vector"], what) for g in sd["generators"])
        steps.append(
            ChainStep(
                space_name=_req(sd, "space", what),
                generator_names=names,
                generators=vectors,
                contracted=_req(sd, "contracted", what),
                cprime=_contraction_from_doc(_req(sd, "cprime", what), what),
                cdouble=_contraction_from_doc(_req(sd, "cdouble", what), what),
            )
        )
    chain = ChainSpec(
        base_space=_req(base, "space", what),
        base_generator_names=base_names,
        base_generators=base_vectors,
        steps=tuple(steps),
    )
    try:
        cone, reports = mori_propagate(chain)
    except PropagationError as exc:
        return {"error": str(exc)}
    return {
        "generator_names": list(cone.names),
        "generators": [list(g) for g in cone.generators],
        "steps": [
            {"space": r.space_name, "conditions": dict(r.conditions)}
            for r in reports
        ],
    }


def _check_restriction_kernel(env, params, n):
    m = _lookup(env.maps, _req(params, "matrix", "check params"), "check params")
    report = restriction_kernel(m.matrix, _curves_of(env, params))
    return {
        "kernel": [list(v) for v in report.kernel],
        "perp": [list(v) for v in report.perp],
    }


def _combo_string(names, vector) -> str:
    parts = []
    for name, coeff in zip(names, vector):
        c = Fraction(coeff)
        if c == 0:
            continue
        if not parts:
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append("-%s" % name)
            else:
                parts.append("%s %s" % (rat_str(c), name))
            continue
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        term = name if mag == 1 else "%s %s" % (rat_str(mag), name)
        parts.append("%s %s" % (sign, term))
    return " ".join(parts) if parts else "0"


def _check_kernel_polynomials(env, params, n):
    m = _lookup(env.maps, _req(params, "matrix", "check params"), "check params")
    report = restriction_kernel(m.matrix, _curves_of(env, params))
    return [_combo_string(m.source_names, v) for v in report.kernel]


def _check_stabilizer_census(env, params, n):
    return omega_census()


def _check_sigma_census(env, params, n):
    return sigma_census()


def _check_order_two_relations(env, params, n):
    return order_two_relations()


def _check_census_size_floor(env, params, n):
    minimum = _int_field(_req(params, "minimum", "check params"), "check params")
    return omega_census()["total"] >= minimum


def _check_isotropy_equivalence(env, params, n):
    return isotropy_equivalence_f3()


def _check_rational_isotropy_samples(env, params, n):
    return rational_isotropy_samples(
        _int_field(_req(params, "samples", "check params"), "check params"),
        _int_field(_req(params, "seed", "check params"), "check params"),
    )


def _check_quadric_rank(env, params, n):
    if n == SYMBOLIC:
        raise PolicyError(
            "finite rank computation needs a numeric parameter; "
            "declare the numeric-only policy"
        )
    model = normal_cone_quadric(n)
    return {
        "nvars": model.nvars,
        "rank": model.rank,
        "smooth": model.smooth_in_projective_space,
        "ambient_dim": model.ambient_projective_dim,
    }


def _check_fixed_locus(env, params, n):
    report = fixed_locus_incidence(_int_field(_req(params, "dim", "check params"), "check params"))
    return {
        "fixed_pairs": report.fixed_pairs,
        "diagonal_pairs": report.diagonal_pairs,
        "fixed_equals_diagonal": report.fixed_equals_diagonal,
    }


def _check_fixed_locus_details(env, params, n):
    report = fixed_locus_incidence(_int_field(_req(params, "dim", "check params"), "check params"))
    return {
        "projective_points": report.projective_points,
        "incidence_pairs": report.incidence_pairs,
    }


def _check_cohomology_products(env, params, n):
    return [
        coh_dim_product_proj(
            _int_field(case[0], "check params"),
            _int_field(case[1], "check params"),
            _int_field(case[2], "check params"),
        )
        for case in _req(params, "cases", "check params")
    ]


def _check_graded_ranks(env, params, n):
    return [
        coh_dim_product_proj(k, k, 0)
        for k in (_int_field(k, "check params") for k in _req(params, "ks", "check params"))
    ]


def _check_graded_ranks_consistency(env, params, n):
    ks = [_int_field(k, "check params") for k in _req(params, "ks", "check params")]
    return all(coh_dim_product_proj(k, k, 0) == sym_rank(3, k) ** 2 for k in ks)


def _check_bundle_invariants(env, params, n):
    f = _lookup(env.bundles, _req(params, "bundle", "check params"), "check params")
    return {"rank": f.rank, "c1": list(f.c1.coords)}


def _check_fiber_dim(env, params, n):
    total = _lookup(env.spaces, _req(params, "total", "check params"), "check params")
    base = _lookup(env.spaces, _req(params, "base", "check params"), "check params")
    return total.dim() - base.dim()


def _check_conormal_rank_consistency(env, params, n):
    ambient = _poly_field(_req(params, "ambient_dim", "check params"), "check params")
    fiber = _check_fiber_dim(env, params, n)
    f = _lookup(env.bundles, _req(params, "bundle", "check params"), "check params")
    expected_rank = ambient - fiber
    return {
        "expected_rank": expected_rank,
        "bundle_rank": f.rank,
        "agree": f.rank == expected_rank,
    }


def _check_ig_dim(env, params, n):
    return ig_dim(
        _int_field(_req(params, "k", "check params"), "check params"),
        _int_field(_req(params, "m", "check params"), "check params"),
    )


def _check_exc_restriction_routes(env, params, n):
    return exc_restriction_routes()


def _check_curve_degree(env, params, n):
    curve = _lookup(env.curves, _req(params, "curve", "check params"), "check params")
    div = curve.space.div(
        _poly_vector(_req(params, "divisor", "check params"), "check params")
    )
    return intersect(curve, div)


CHECK_KINDS = {
    "dim": _check_dim,
    "codim": _check_codim,
    "codim-in-ambient": _check_codim_in_ambient,
    "canonical": _check_canonical,
    "restricted-canonical": _check_restricted_canonical,
    "kneg": _check_kneg,
    "pairing-table": _check_pairing_table,
    "pairing-table-constant": _check_pairing_table_constant,
    "curve-vector": _check_curve_vector,
    "combination-pairings": _check_combination_pairings,
    "functional-values": _check_functional_values,
    "vector-sum": _check_vector_sum,
    "map-matrix": _check_map_matrix,
    "matrix-product-identity": _check_matrix_product_identity,
    "map-inverse-equals": _check_map_inverse_equals,
    "map-invertible": _check_map_invertible,
    "transport": _check_transport,
    "solve-pushforward": _check_solve_pushforward,
    "push-from-sublattice": _check_push_from_sublattice,
    "extremal-certificate": _check_extremal_certificate,
    "mori-chain": _check_mori_chain,
    "restriction-kernel": _check_restriction_kernel,
    "kernel-polynomials": _check_kernel_polynomials,
    "stabilizer-census": _check_stabilizer_census,
    "sigma-census": _check_sigma_census,
    "order-two-relations": _check_order_two_relations,
    "census-size-floor": _check_census_size_floor,
    "isotropy-equivalence": _check_isotropy_equivalence,
    "rational-isotropy-samples": _check_rational_isotropy_samples,
    "quadric-rank": _check_quadric_rank,
    "fixed-locus": _check_fixed_locus,
    "fixed-locus-details": _check_fixed_locus_details,
    "cohomology-products": _check_cohomology_products,
    "graded-ranks": _check_graded_ranks,
    "graded-ranks-consistency": _check_graded_ranks_consistency,
    "bundle-invariants": _check_bundle_invariants,
    "fiber-dim": _check_fiber_dim,
    "conormal-rank-consistency": _check_conormal_rank_consistency,
    "ig-dim": _check_ig_dim,
    "exc-restriction-routes": _check_exc_restriction_routes,
    "curve-degree": _check_curve_degree,
}


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    expected: object
    computed: object
    provenance: str
    anchor: str


@dataclass(frozen=True)
class VerificationReport:
    scenario: str
    n: object
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.status == "PASS" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "n": self.n,
            "checks": [
                {
                    "name": c.name,
                    "expected": c.expected,
                    "computed": c.computed,
                    "status": c.status,
                    "provenance": c.provenance,
                }
                for c in self.checks
            ],
        }

    def to_json_text(self) -> str:
        return canonical_json(self.to_json_dict())

    def render_text(self) -> str:
        good = sum(1 for c in self.checks if c.status == "PASS")
        lines = [
            "scenario: %s" % self.scenario,
            "n: %s" % self.n,
            "result: %s (%d/%d checks)"
            % ("PASS" if self.passed else "FAIL", good, len(self.checks)),
        ]
        for c in self.checks:
            lines.append("  [%s] %s (%s)" % (c.status, c.name, c.provenance))
            if c.status == "PASS":
                lines.append(
                    "      value: %s" % json.dumps(c.computed, sort_keys=True)
                )
            else:
                lines.append(
                    "      expected: %s" % json.dumps(c.expected, sort_keys=True)
                )
                lines.append(
                    "      computed: %s" % json.dumps(c.computed, sort_keys=True)
                )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# document validation and evaluation


def _validate_n(n):
    if n == SYMBOLIC:
        return
    if isinstance(n, bool) or not isinstance(n, int):
        raise BadParameterError("n must be an integer >= 3 or %r" % SYMBOLIC)
    if n < 3:
        raise BadParameterError("n must be >= 3 (got %d)" % n)


def _reject_floats(value, where: str):
    if isinstance(value, float):
        raise ScenarioFileError(
            "%s: non-exact number %r (use strings of integers or p/q)" % (where, value)
        )
    if isinstance(value, dict):
        for k, v in value.items():
            _reject_floats(v, where)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _reject_floats(v, where)


def validate_doc(doc) -> None:
    if not isinstance(doc, dict):
        raise ScenarioFileError("scenario document must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioFileError("scenario document needs a nonempty string 'name'")
    where = "scenario %r" % name
    policy = doc.get("n_policy", POLICY_ANY)
    if policy not in (POLICY_ANY, POLICY_NUMERIC):
        raise ScenarioFileError(
            "%s: n_policy %r is not one of %r or %r"
            % (where, policy, POLICY_ANY, POLICY_NUMERIC)
        )
    for section in ("spaces", "bundles", "maps", "curves", "expect"):
        part = doc.get(section, [])
        if not isinstance(part, list):
            raise ScenarioFileError("%s: section %r must be a list" % (where, section))
        seen = set()
        for entry in part:
            if not isinstance(entry, dict):
                raise ScenarioFileError(
                    "%s: every %s entry must be an object" % (where, section)
                )
            ename = entry.get("name")
            if not isinstance(ename, str) or not ename:
                raise ScenarioFileError(
                    "%s: a %s entry is missing its name" % (where, section)
                )
            if ename in seen:
                raise ScenarioFileError(
                    "%s: duplicate %s name %r" % (where, section, ename)
                )
            seen.add(ename)
    _reject_floats(doc, where)
    for entry in doc.get("expect", []):
        ename = entry["name"]
        ewhere = "%s check %r" % (where, ename)
        kind = entry.get("check")
        if kind not in CHECK_KINDS:
            raise ScenarioFileError("%s: unknown check kind %r" % (ewhere, kind))
        if "value" not in entry:
            raise ScenarioFileError("%s: missing expected value" % ewhere)
        if "provenance" not in entry:
            raise ScenarioFileError("%s: missing provenance tag" % ewhere)
        if entry["provenance"] not in PROVENANCE_TAGS:
            raise ScenarioFileError(
                "%s: provenance %r is not one of %s"
                % (ewhere, entry["provenance"], " | ".join(PROVENANCE_TAGS))
            )
        if not isinstance(entry.get("anchor"), str) or not entry["anchor"]:
            raise ScenarioFileError("%s: missing anchor text" % ewhere)


def evaluate_doc(doc, n) -> VerificationReport:
    _validate_n(n)
    validate_doc(doc)
    if doc.get("n_policy", POLICY_ANY) == POLICY_NUMERIC and n == SYMBOLIC:
        raise PolicyError(
            "scenario %r computes finite ranks; run it at a numeric n >= 3"
            % doc["name"]
        )
    env = _make_env(doc)
    results = []
    for entry in doc.get("expect", []):
        fn = CHECK_KINDS[entry["check"]]
        try:
            computed = serialize_value(fn(env, entry, n), n)
            expected = serialize_value(parse_value(entry["value"]), n)
        except (ValueError, ScenarioFileError) as exc:
            raise ScenarioFileError(
                "scenario %r check %r: %s" % (doc["name"], entry["name"], exc)
            ) from exc
        results.append(
            CheckResult(
                name=entry["name"],
                status="PASS" if computed == expected else "FAIL",
                expected=expected,
                computed=computed,
                provenance=entry["provenance"],
                anchor=entry["anchor"],
            )
        )
    results.sort(key=lambda c: c.name)
    return VerificationReport(doc["name"], n, tuple(results))


# ---------------------------------------------------------------------------
# built-in scenarios: the documents packaged in ``towercalc/data``

_DATA = resources.files(__package__) / "data"
_BUILTIN = tuple(
    sorted(p.name.removesuffix(".json") for p in _DATA.iterdir() if p.name.endswith(".json"))
)


def _parse_doc(text: str) -> dict:
    """Parse the JSON text of a scenario document, check its format tag,
    and validate it.  Parse errors carry the line and column; semantic
    errors name the offending object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(
            "parse error at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioFileError("scenario document must be a JSON object")
    fmt = doc.get("format")
    if fmt != FORMAT_TAG:
        raise ScenarioFileError(
            "unsupported format %r (expected %r)" % (fmt, FORMAT_TAG)
        )
    validate_doc(doc)
    return doc


# ---------------------------------------------------------------------------
# public entry points


def scenario_doc(name: str) -> dict:
    """Fresh document for a built-in scenario."""
    if name not in _BUILTIN:
        raise UnknownScenarioError(
            "unknown scenario %r; known scenarios: %s" % (name, ", ".join(_BUILTIN))
        )
    return _parse_doc((_DATA / (name + ".json")).read_text(encoding="utf-8"))


def list_scenarios() -> list:
    """Name, description, and parameter policy of every built-in scenario,
    sorted by name."""
    out = []
    for name in _BUILTIN:
        doc = scenario_doc(name)
        out.append(
            {
                "name": name,
                "description": doc["description"],
                "n_policy": doc["n_policy"],
            }
        )
    return out


def run_scenario(name: str, n) -> VerificationReport:
    """Evaluate a built-in scenario at ``n`` (an integer >= 3 or
    ``"symbolic"``)."""
    return evaluate_doc(scenario_doc(name), n)


def export_scenario(name: str) -> str:
    """Canonical JSON text of a built-in scenario document."""
    return canonical_json(scenario_doc(name))


def load_scenario_file(path) -> dict:
    """Parse and validate a scenario document from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_doc(fh.read())
