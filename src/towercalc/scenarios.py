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
from functools import partial
from importlib import resources

from .census import (
    isotropy_equivalence_f3,
    omega_census,
    order_two_relations,
    rational_isotropy_samples,
    sigma_census,
)
from .curves import (
    DEFAULT_HEIGHT_BOUND,
    ChainSpec,
    ChainStep,
    Cone,
    ContractionData,
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
# typed readers for document fields
#
# Each entry kind is one row of a kind table: the engine function it calls
# and a reader for each of its fields.  A reader turns the raw JSON value into
# an engine value, looking names up in the environment built so far, or
# raises _BadField; _read adds the field's path and _entry names the entry,
# so that a bad field always ends as a ScenarioFileError such as
# "space 'x': field 'pic[0]': expected a name, got 5".  Rows call engine
# functions through their module-level names (hence the forwarding lambdas),
# so that whatever rebinds those names, such as the span tracer in
# perfbench/, sees the calls.


@dataclass
class Env:
    spaces: dict
    bundles: dict
    maps: dict
    curves: dict


class _BadField(ValueError):
    def __init__(self, message: str, path: tuple = ()):
        super().__init__(message)
        self.path = path


_REQUIRED = object()


def _at(step, read, raw, env):
    """``read(raw, env)``, with a failure placed under ``step`` (a field
    name or a list index)."""
    try:
        return read(raw, env)
    except _BadField as exc:
        raise _BadField(exc.args[0], (step,) + exc.path) from None
    except ValueError as exc:
        raise _BadField(str(exc), (step,)) from None


def _read(obj, fields: dict, env) -> list:
    """The values of the fields of ``obj`` declared in ``fields``, in
    declaration order.  A field declared as ``(reader, default)`` is optional
    and takes the default when it is missing."""
    if not isinstance(obj, dict):
        raise _BadField("expected an object, got %r" % (obj,))
    values = []
    for key, spec in fields.items():
        read, default = spec if isinstance(spec, tuple) else (spec, _REQUIRED)
        if key in obj:
            values.append(_at(key, read, obj[key], env))
        elif default is _REQUIRED:
            raise _BadField("missing", (key,))
        else:
            values.append(default)
    return values


def _entry(what: str, build):
    """``build()``, with a bad field or an engine rejection reported as a
    ScenarioFileError naming ``what``."""
    try:
        return build()
    except _BadField as exc:
        path = "".join("[%d]" % s if isinstance(s, int) else "." + s for s in exc.path)
        where = " field %r:" % path.lstrip(".") if path else ""
        raise ScenarioFileError("%s:%s %s" % (what, where, exc.args[0])) from None
    except ValueError as exc:
        raise ScenarioFileError("%s: %s" % (what, exc)) from exc


def _name(raw, env) -> str:
    if not isinstance(raw, str):
        raise _BadField("expected a name, got %r" % (raw,))
    return raw


def _number(raw, env) -> ParamPoly:
    """An exact rational or a polynomial in n."""
    try:
        parsed = None if isinstance(raw, bool) else parse_value(raw)
    except ScenarioFileError as exc:
        raise _BadField(str(exc)) from None
    if not isinstance(parsed, (Fraction, ParamPoly)):
        raise _BadField("expected an exact number, got %r" % (raw,))
    return aspoly(parsed)


def _integer(raw, env) -> int:
    p = _number(raw, env)
    if not p.is_constant() or p.constant_value().denominator != 1:
        raise _BadField("expected an integer, got %r" % (raw,))
    return int(p.constant_value())


def _flag(raw, env) -> bool:
    if not isinstance(raw, bool):
        raise _BadField("expected true or false, got %r" % (raw,))
    return raw


def _list_of(read, length=None, nonempty=False):
    """A list whose items all read with ``read``, as a tuple."""

    def read_list(raw, env) -> tuple:
        if not isinstance(raw, list):
            raise _BadField("expected a list, got %r" % (raw,))
        if length is not None and len(raw) != length:
            raise _BadField("expected %d items, got %d" % (length, len(raw)))
        if nonempty and not raw:
            raise _BadField("expected at least one item")
        return tuple(_at(i, read, item, env) for i, item in enumerate(raw))

    return read_list


def _or_null(read):
    return lambda raw, env: None if raw is None else read(raw, env)


def _one_of(table: dict, label: str):
    """A name that is a key of ``table``; reads as the table's value."""

    def read(raw, env):
        if not isinstance(raw, str) or raw not in table:
            raise _BadField(
                "unknown %s %r; known %ss: %s"
                % (label, raw, label, ", ".join(sorted(table)))
            )
        return table[raw]

    return read


def _ref(section: str, cls=None, what: str = ""):
    """The name of an object defined earlier in ``section`` of the document,
    optionally of class ``cls``; reads as that object."""

    def read(raw, env):
        defined = getattr(env, section)
        name = _name(raw, env)
        if name not in defined:
            raise _BadField("unknown reference %r" % name)
        if cls is not None and not isinstance(defined[name], cls):
            raise _BadField("%r is not a %s" % (name, what))
        return defined[name]

    return read


def _object(build, fields: dict):
    """A nested object: ``build`` called with its declared fields."""
    return lambda raw, env: build(*_read(raw, fields, env))


def _row(entry, key: str, kind, env):
    """Read ``entry[key]`` with ``kind``, a `_one_of` reader of a kind table,
    then the fields of the row it names.  Returns the row's function with
    those fields bound."""
    build, fields = _read(entry, {key: kind}, env)[0]
    return partial(build, *_read(entry, fields, env))


def _kinded(kinds: dict, label: str):
    """An object whose ``kind`` field names its row of ``kinds``."""
    kind = _one_of(kinds, label)
    return lambda raw, env: _row(raw, "kind", kind, env)()


_space = _ref("spaces")
_blow_up = _ref("spaces", BlowUp, "blow-up")
_bundle = _ref("bundles")
_map = _ref("maps")
_curve = _ref("curves")
_names = _list_of(_name)
_vector = _list_of(_number)
_curves = _list_of(_curve)


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
# the spaces, bundles, maps and curves of a document


def _blow_up_space(name, ambient, codim, exc, exc_directions, exc_degrees):
    restriction = None
    if exc_directions:
        restriction = RestrictionClassSpec(exc_directions, exc_degrees)
    return BlowUp(name, ambient, CenterSpec(codim, restriction), exc)


SPACE_KINDS = {
    "formal-base": (
        FormalBase,
        {
            "name": _name,
            "pic": (_names, ()),
            "canonical": (_or_null(_vector), None),
            "dim": (_number, 0),
        },
    ),
    "proj-bundle": (
        ProjBundle,
        {"name": _name, "base": _space, "bundle": _bundle, "taut": _name},
    ),
    "blow-up": (
        _blow_up_space,
        {
            "name": _name,
            "ambient": _space,
            "codim": _number,
            "exc": _name,
            "exc_directions": (_names, ()),
            "exc_degrees": (_vector, ()),
        },
    ),
    "fiber-product": (
        FiberProduct,
        {"name": _name, "left": _space, "right": _space, "over": _space},
    ),
    "divisor-in": (
        lambda name, ambient, klass: DivisorIn(name, ambient, ambient.div(klass)),
        {"name": _name, "ambient": _space, "class": _vector},
    ),
}

BUNDLE_KINDS = {
    "declared": (
        lambda name, space, rank, c1: FormalBundle(
            space, rank, space.div(c1), name=name
        ),
        {"name": _name, "space": _space, "rank": _number, "c1": _vector},
    ),
    "dual": (lambda of: dual(of), {"of": _bundle}),
    "quotient": (lambda of, sub: quotient(of, sub), {"of": _bundle, "sub": _bundle}),
    "tensor-line": (
        lambda of, line: tensor_line(of, of.space.div(line)),
        {"of": _bundle, "line": _vector},
    ),
    "extension": (
        lambda sub, quot: extension(sub, quot),
        {"sub": _bundle, "quot": _bundle},
    ),
    "sym-power": (
        lambda of, power: sym_power(of, power),
        {"of": _bundle, "power": _integer},
    ),
    "wedge-top": (lambda of: wedge_top(of), {"of": _bundle}),
    "relative-tangent": (
        lambda space: relative_tangent(space),
        {"space": _ref("spaces", ProjBundle, "projective bundle")},
    ),
    "pull-to": (lambda of, space: pull_to(of, space), {"of": _bundle, "space": _space}),
}

_MAP_BASES = {"name": _name, "source": _names, "target": _names}

MAP_KINDS = {
    "declared": (
        lambda name, source, target, matrix: PullbackMap(
            name, source, target, ExactMatrix(matrix, cols=len(source))
        ),
        dict(_MAP_BASES, matrix=_list_of(_vector)),
    ),
    "recipe": (
        lambda name, source, target, recipe: PullbackMap(
            name, source, target, recipe()
        ),
        dict(_MAP_BASES, recipe=_one_of(RECIPES, "recipe")),
    ),
}

#: Atomic curve descriptors, read from a curve entry's ``atomic`` object.
CURVE_KINDS = {
    "line-in-proj-fiber": (LineInProjFiber, {"taut": _name}),
    "line-in-exceptional-fiber": (LineInExceptionalFiber, {"direction": _name}),
    "strict-transform": (
        StrictTransform,
        {"ambient_curve": _curve, "mult": (_integer, 1)},
    ),
    "declared": (DeclaredSection, {"vector": _vector, "note": (_name, "")}),
    "pushed": (
        lambda matrix, degrees, note: DeclaredSection(
            push_from_sublattice(matrix.matrix, degrees), note
        ),
        {"matrix": _map, "degrees": _vector, "note": (_name, "")},
    ),
}

_SPACE_ENTRY = _kinded(SPACE_KINDS, "space kind")
_BUNDLE_ENTRY = _kinded(BUNDLE_KINDS, "bundle kind")
_MAP_ENTRY = _kinded(MAP_KINDS, "map kind")
_CURVE_ENTRY = _object(
    lambda space, atomic: curve_from_atomic(space, atomic),
    {"space": _space, "atomic": _kinded(CURVE_KINDS, "curve kind")},
)


def _make_env(doc) -> Env:
    env = Env({}, {}, {}, {})

    def define(store: dict, label: str, read, entry) -> None:
        name = entry["name"]
        store[name] = _entry("%s %r" % (label, name), lambda: read(entry, env))

    # Spaces and bundles live in separate lists but depend on each other in
    # an interleaved order (a projective bundle needs a bundle that lives on
    # an earlier space).  Build with a worklist that keeps document order
    # within each pass and retries entries whose references are not ready
    # yet; a pass with no progress surfaces the first missing reference.
    pending = [(env.spaces, "space", _SPACE_ENTRY, sd) for sd in doc.get("spaces", ())]
    pending += [
        (env.bundles, "bundle", _BUNDLE_ENTRY, bd) for bd in doc.get("bundles", ())
    ]
    while pending:
        progress = False
        deferred = []
        first_error = None
        for item in pending:
            try:
                define(*item)
                progress = True
            except ScenarioFileError as exc:
                if "unknown reference" in str(exc):
                    deferred.append(item)
                    if first_error is None:
                        first_error = exc
                else:
                    raise
        if not progress:
            raise first_error
        pending = deferred

    for md in doc.get("maps", ()):
        define(env.maps, "map", _MAP_ENTRY, md)
    for cd in doc.get("curves", ()):
        define(env.curves, "curve", _CURVE_ENTRY, cd)
    return env


# ---------------------------------------------------------------------------
# check kinds
#
# A row's function takes the declared fields in order, then the parameter n.


def _pairings(space, curves, divisors):
    return pairing_table(curves, [space.gen(d) for d in divisors])


def _check_kneg(space, k_class, curves, n):
    report = kneg_check(space.div(k_class), curves)
    return {
        "pairings": [e.pairing for e in report.entries],
        "all_negative": report.all_negative,
    }


def _check_restricted_canonical(divisor, normal, blowup, ambient_center_codim, n):
    restricted = canonical_class(divisor) - divisor.div(normal)
    if blowup is None:
        return list(restricted.coords)
    if ambient_center_codim is None:
        raise ScenarioFileError("a blowup needs its ambient_center_codim")
    lifted = lift_class(restricted, blowup)
    result = lifted + blowup.gen(blowup.exc_name) * (ambient_center_codim - 1)
    return list(result.coords)


def _check_combination_pairings(space, curves, divisors, coefficients, n):
    if len(coefficients) != len(curves):
        raise ScenarioFileError("one coefficient per curve")
    combo = curves[0] * coefficients[0]
    for c, curve in zip(coefficients[1:], curves[1:]):
        combo = combo + curve * c
    return [intersect(combo, space.gen(d)) for d in divisors]


def _check_vector_sum(terms, n):
    if len({len(t) for t in terms}) != 1:
        raise ScenarioFileError("terms of different lengths")
    acc = list(terms[0])
    for t in terms[1:]:
        acc = [a + b for a, b in zip(acc, t)]
    return acc


def _check_map_inverse_equals(of, expected_map, n):
    try:
        return inverse(of.matrix) == expected_map.matrix
    except LinearSolveError:
        return False


def _check_map_invertible(m, n):
    try:
        inverse(m.matrix)
        return True
    except LinearSolveError:
        return False


def _check_extremal_certificate(space, curves, face, height_bound, n):
    names, classes = curves
    cone = Cone(
        dim=len(space.pic_names()),
        generators=tuple(c.vector for c in classes),
        names=names,
    )
    cert = extremal_certificate(cone, face, height_bound=height_bound)
    return {
        "status": cert.status,
        "functional": None if cert.functional is None else list(cert.functional),
        "height": cert.height,
        "values": None if cert.values is None else list(cert.values),
        "witness": serialize_value(cert.witness, SYMBOLIC)
        if cert.witness is not None
        else None,
    }


def _check_transport(start, via, drop, n):
    result = transport_class(start, via, drop)
    return {"names": list(result.names), "coords": list(result.coords)}


def _check_mori_chain(chain, n):
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


def _check_restriction_kernel(m, curves, n):
    report = restriction_kernel(m.matrix, curves)
    return {
        "kernel": [list(v) for v in report.kernel],
        "perp": [list(v) for v in report.perp],
    }


def _check_kernel_polynomials(m, curves, n):
    report = restriction_kernel(m.matrix, curves)
    return [_combo_string(m.source_names, v) for v in report.kernel]


def _check_quadric_rank(n):
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


def _check_fixed_locus(dim, n):
    report = fixed_locus_incidence(dim)
    return {
        "fixed_pairs": report.fixed_pairs,
        "diagonal_pairs": report.diagonal_pairs,
        "fixed_equals_diagonal": report.fixed_equals_diagonal,
    }


def _check_fixed_locus_details(dim, n):
    report = fixed_locus_incidence(dim)
    return {
        "projective_points": report.projective_points,
        "incidence_pairs": report.incidence_pairs,
    }


def _check_conormal_rank_consistency(ambient_dim, total, base, bundle, n):
    expected_rank = ambient_dim - (total.dim() - base.dim())
    return {
        "expected_rank": expected_rank,
        "bundle_rank": bundle.rank,
        "agree": bundle.rank == expected_rank,
    }


def _generators(raw, env):
    """A list of ``{"name", "vector"}`` objects, as (names, vectors)."""
    pairs = _list_of(
        _object(lambda name, vector: (name, vector), {"name": _name, "vector": _vector})
    )(raw, env)
    return tuple(name for name, _ in pairs), tuple(vector for _, vector in pairs)


def _contraction(name, pullbacks, images, note):
    return ContractionData(
        name, None if pullbacks is None else ExactMatrix(pullbacks), images, note
    )


_CONTRACTION = _object(
    _contraction,
    {
        "name": _name,
        "pullbacks": (_list_of(_vector), None),
        "images": (_list_of(_vector), None),
        "note": (_name, ""),
    },
)
_CHAIN = _object(
    lambda base, steps: ChainSpec(*base, steps),
    {
        "base": _object(
            lambda space, generators: (space, *generators),
            {"space": _name, "generators": _generators},
        ),
        "steps": _list_of(
            _object(
                lambda space, generators, contracted, cprime, cdouble: ChainStep(
                    space, *generators, contracted, cprime, cdouble
                ),
                {
                    "space": _name,
                    "generators": _generators,
                    "contracted": _name,
                    "cprime": _CONTRACTION,
                    "cdouble": _CONTRACTION,
                },
            )
        ),
    },
)
_TRANSPORT_STEP = _object(
    lambda m, inverted: m.inverted() if inverted else m,
    {"map": _map, "inverted": (_flag, False)},
)
_TABLE = {"space": _space, "curves": _curves, "divisors": _names}
_KERNEL = {"matrix": _map, "curves": _curves}

CHECK_KINDS = {
    "dim": (lambda space, n: space.dim(), {"space": _space}),
    "codim": (lambda space, n: space.center.codim, {"space": _blow_up}),
    "codim-in-ambient": (lambda space, n: space.center.codim + 1, {"space": _blow_up}),
    "canonical": (
        lambda space, n: list(canonical_class(space).coords),
        {"space": _space},
    ),
    "restricted-canonical": (
        _check_restricted_canonical,
        {
            "divisor": _space,
            "normal": _vector,
            "blowup": (_blow_up, None),
            "ambient_center_codim": (_number, None),
        },
    ),
    "kneg": (_check_kneg, {"space": _space, "k_class": _vector, "curves": _curves}),
    "pairing-table": (
        lambda space, curves, divisors, n: _pairings(space, curves, divisors),
        _TABLE,
    ),
    "pairing-table-constant": (
        lambda space, curves, divisors, n: _pairings(
            space, curves, divisors
        ).is_constant(),
        _TABLE,
    ),
    "curve-vector": (lambda curve, n: list(curve.vector), {"curve": _curve}),
    "combination-pairings": (
        _check_combination_pairings,
        dict(_TABLE, curves=_list_of(_curve, nonempty=True), coefficients=_vector),
    ),
    "functional-values": (
        lambda space, functional, curves, n: [
            intersect(c, space.div(functional)) for c in curves
        ],
        {"space": _space, "functional": _vector, "curves": _curves},
    ),
    "vector-sum": (_check_vector_sum, {"terms": _list_of(_vector, nonempty=True)}),
    "map-matrix": (lambda m, n: m.matrix, {"map": _map}),
    "matrix-product-identity": (
        lambda left, right, n: {
            "left_right": matrix_product_is_identity(left.matrix, right.matrix),
            "right_left": matrix_product_is_identity(right.matrix, left.matrix),
        },
        {"left": _map, "right": _map},
    ),
    "map-inverse-equals": (
        _check_map_inverse_equals,
        {"of": _map, "expected_map": _map},
    ),
    "map-invertible": (_check_map_invertible, {"map": _map}),
    "transport": (
        _check_transport,
        {"start": _vector, "via": _list_of(_TRANSPORT_STEP), "drop": (_names, ())},
    ),
    "solve-pushforward": (
        lambda space, curves, divisors, observed, n: list(
            solve_pushforward(observed, _pairings(space, curves, divisors))
        ),
        dict(_TABLE, observed=_vector),
    ),
    "push-from-sublattice": (
        lambda m, degrees, n: list(push_from_sublattice(m.matrix, degrees)),
        {"matrix": _map, "degrees": _vector},
    ),
    "extremal-certificate": (
        _check_extremal_certificate,
        {
            "space": _space,
            "curves": lambda raw, env: (_names(raw, env), _curves(raw, env)),
            "face": _names,
            "height_bound": (_integer, DEFAULT_HEIGHT_BOUND),
        },
    ),
    "mori-chain": (_check_mori_chain, {"chain": _CHAIN}),
    "restriction-kernel": (_check_restriction_kernel, _KERNEL),
    "kernel-polynomials": (_check_kernel_polynomials, _KERNEL),
    "stabilizer-census": (lambda n: omega_census(), {}),
    "sigma-census": (lambda n: sigma_census(), {}),
    "order-two-relations": (lambda n: order_two_relations(), {}),
    "census-size-floor": (
        lambda minimum, n: omega_census()["total"] >= minimum,
        {"minimum": _integer},
    ),
    "isotropy-equivalence": (lambda n: isotropy_equivalence_f3(), {}),
    "rational-isotropy-samples": (
        lambda samples, seed, n: rational_isotropy_samples(samples, seed),
        {"samples": _integer, "seed": _integer},
    ),
    "quadric-rank": (_check_quadric_rank, {}),
    "fixed-locus": (_check_fixed_locus, {"dim": _integer}),
    "fixed-locus-details": (_check_fixed_locus_details, {"dim": _integer}),
    "cohomology-products": (
        lambda cases, n: [coh_dim_product_proj(*case) for case in cases],
        {"cases": _list_of(_list_of(_integer, length=3))},
    ),
    "graded-ranks-consistency": (
        lambda ks, n: all(
            coh_dim_product_proj(k, k, 0) == sym_rank(3, k) ** 2 for k in ks
        ),
        {"ks": _list_of(_integer)},
    ),
    "bundle-invariants": (
        lambda f, n: {"rank": f.rank, "c1": list(f.c1.coords)},
        {"bundle": _bundle},
    ),
    "fiber-dim": (
        lambda total, base, n: total.dim() - base.dim(),
        {"total": _space, "base": _space},
    ),
    "conormal-rank-consistency": (
        _check_conormal_rank_consistency,
        {"ambient_dim": _number, "total": _space, "base": _space, "bundle": _bundle},
    ),
    "ig-dim": (lambda k, m, n: ig_dim(k, m), {"k": _integer, "m": _integer}),
    "exc-restriction-routes": (lambda n: exc_restriction_routes(), {}),
    "curve-degree": (
        lambda curve, divisor, n: intersect(curve, curve.space.div(divisor)),
        {"curve": _curve, "divisor": _vector},
    ),
}
_CHECK_KIND = _one_of(CHECK_KINDS, "check kind")


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
        _entry(ewhere, lambda: _read(entry, {"check": _CHECK_KIND}, None))
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
    # Every check reads its fields before the first one runs, so that a bad
    # field fails the document before any expensive check starts.
    checks = []
    for entry in doc.get("expect", []):
        what = "scenario %r check %r" % (doc["name"], entry["name"])
        check = _entry(what, lambda: _row(entry, "check", _CHECK_KIND, env))
        checks.append((entry, what, check))
    results = []
    for entry, what, check in checks:
        try:
            computed = serialize_value(check(n), n)
            expected = serialize_value(parse_value(entry["value"]), n)
        except (ValueError, ScenarioFileError) as exc:
            raise ScenarioFileError("%s: %s" % (what, exc)) from exc
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
