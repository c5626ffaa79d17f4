"""Scenario suite: declarative verification documents and their evaluator.

A scenario is a JSON-able document describing a tower of spaces, bundles,
lattice maps, and curve classes, plus a list of expected values.  The
evaluator rebuilds the objects with the engine, recomputes every expected
value, and emits a deterministic report.  Documents round-trip through
export and load without changing any report byte.  The built-in scenarios
share one tower: ``towercalc/tower.json`` declares each space, bundle, map
and curve once, and ``towercalc/data/<name>.json`` holds a scenario's
metadata and expected values, with a ``uses`` list naming the tower entries
it reads.  `scenario_doc` joins the two into one self-contained document.
Nothing a document builds depends on n, so a process compiles each distinct
document once (parses and validates it, builds its entries, binds its checks)
and keeps the last ``ENV_CACHE_SIZE`` (`_compiled`) by canonical JSON text;
equal documents share one, and so do a built-in and its exported file.

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
import sys
from fractions import Fraction
from functools import lru_cache, partial
from importlib import resources

from . import exactnum
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
    PropagationError,
    declared_section,
    extremal_certificate,
    intersect,
    kneg_check,
    line_in_exceptional_fiber,
    line_in_proj_fiber,
    mori_propagate,
    pairing_table,
    push_from_sublattice,
    restriction_kernel,
    solve_pushforward,
    strict_transform,
)
from .exactnum import (
    ExactMatrix,
    LinearSolveError,
    ParamPoly,
    aspoly,
    inverse,
    rat_str,
)
from .projcoh import coh_dim_product_proj, sym_rank
from .symplectic import fixed_locus_incidence, normal_cone_quadric
from .towers import (
    BlowUp,
    DivisorIn,
    FiberProduct,
    FormalBase,
    FormalBundle,
    ProjBundle,
    PullbackMap,
    canonical_class,
    dual,
    extension,
    lift_class,
    pull_to,
    quotient,
    relative_tangent,
    tensor_line,
    transport_class,
)

SYMBOLIC = "symbolic"
PROVENANCE_TAGS = ("reference", "derived", "trivial")
POLICY_ANY = "symbolic-or-numeric"
POLICY_NUMERIC = "numeric-only"
FORMAT_TAG = "towercalc-scenario/1"
#: Deepest nesting of lists and objects in a document (the packaged ones
#: reach 9), so that no reader of a document runs out of stack.
MAX_NESTING = 32
#: Most entries in one section of a document (the packaged ones list at
#: most 13), which also bounds the depth of a tower.
MAX_SECTION_ENTRIES = 128
#: Most compiled documents one process keeps; there are 14 packaged ones.
ENV_CACHE_SIZE = 32


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
        return [[serialize_value(e, n) for e in row] for row in value.const_entries()]
    if isinstance(value, dict):
        return {str(k): serialize_value(v, n) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [serialize_value(v, n) for v in value]
    raise TypeError("cannot serialize %r" % (value,))


def _cut(text: str) -> str:
    """text, cut to its first 60 characters when it is over 100 long."""
    return text if len(text) <= 100 else "%s... (%d characters)" % (text[:60], len(text))


def _shown(raw) -> str:
    try:
        return _cut(repr(raw))
    except ValueError:  # an integer over the interpreter's digit limit
        return "<%s too long to print>" % type(raw).__name__


def parse_value(value):
    """Inverse of :func:`serialize_value` on the symbolic form, for JSON data
    that `validate_doc` has accepted."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, (int, str)):
        try:
            return exactnum._const_value(value)
        except ValueError:
            return value
        except ZeroDivisionError:
            raise ScenarioFileError("zero denominator in %s" % _shown(value)) from None
    if isinstance(value, dict):
        if value and all(
            isinstance(k, str) and k.isdigit() and isinstance(v, (str, int))
            for k, v in value.items()
        ):
            try:
                return ParamPoly({k: str(v) for k, v in value.items()})
            except (ValueError, ZeroDivisionError):
                pass
        return {k: parse_value(v) for k, v in value.items()}
    return [parse_value(v) for v in value]


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# typed readers for document fields
#
# Each entry kind is one row of a kind table: the engine function it calls
# and a reader for each of its fields.  The document's own fields, its
# sections and the metadata of each expected value are rows too.  A reader
# turns the raw JSON value into an engine value, looking names up in the
# environment, or raises _BadField; _read adds the field's path and _entry
# names the entry, so that a bad field always ends as a ScenarioFileError
# such as "space 'x': field 'pic[0]': expected a name, got 5".  An engine
# message that _entry passes on is cut like a raw value.  Rows call engine
# functions through their module-level names (hence the forwarding lambdas),
# so that whatever rebinds those names, such as the span tracer in
# perfbench/, sees the calls.


class Env:
    """A document's entries by section and name, and the objects built so far."""

    def __init__(self, doc):
        self.declared = {s: {e["name"]: e for e in doc.get(s, ())} for s in _SECTIONS}
        self.spaces, self.bundles, self.maps, self.curves = {}, {}, {}, {}


class _BadField(ValueError):
    def __init__(self, message: str, path: tuple = ()):
        super().__init__(message)
        self.path = path


class _Unbuilt(Exception):
    """A reference to the entry (section, name) of the document, which is not
    built yet.  Not a ValueError, so that it passes `_at` and `_entry`."""


_REQUIRED = object()
#: Free text that any object read whole may carry; no reader reads it.
_FREE_TEXT = ("description", "note")


def _at(step, read, raw, env):
    """``read(raw, env)``, with a failure placed under ``step`` (a field
    name or a list index)."""
    try:
        return read(raw, env)
    except _BadField as exc:
        raise _BadField(exc.args[0], (step,) + exc.path) from None
    except ValueError as exc:
        raise _BadField(str(exc), (step,)) from None


def _read(obj, fields: dict, env, known=None) -> list:
    """The values of the fields of ``obj`` declared in ``fields``, in
    declaration order.  A field declared as ``(reader, default)`` is optional
    and takes the default when it is missing.  With ``known``, the keys read
    elsewhere, any other key that is not a field or free text is an error."""
    if not isinstance(obj, dict):
        raise _BadField("expected an object, got %s" % _shown(obj))
    if known is not None:
        declared = {*fields, *known, *_FREE_TEXT}
        for key in obj:
            if key not in declared:
                names = ", ".join(sorted(declared))
                raise _BadField("unknown field %s; known: %s" % (_shown(key), names))
        for key in _FREE_TEXT:
            if not isinstance(obj.get(key, ""), str):
                raise _BadField("expected text, got %s" % _shown(obj[key]), (key,))
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
        raise ScenarioFileError("%s: %s" % (what, _cut(str(exc)))) from exc


def _name(raw, env) -> str:
    """A nonempty string with no lone surrogate, which UTF-8 cannot encode."""
    if not isinstance(raw, str) or not raw:
        raise _BadField("expected a name, got %s" % _shown(raw))
    if not raw.isascii() and any("\ud800" <= c <= "\udfff" for c in raw):
        raise _BadField("expected a name in UTF-8, got %s" % _shown(raw))
    return raw


def _number(raw, env) -> ParamPoly:
    """An exact rational or a polynomial in n."""
    try:
        parsed = None if isinstance(raw, bool) else parse_value(raw)
    except ScenarioFileError as exc:
        raise _BadField(str(exc)) from None
    if not isinstance(parsed, (int, Fraction, ParamPoly)):
        raise _BadField("expected an exact number, got %s" % _shown(raw))
    return aspoly(parsed)


def _integer(raw, env) -> int:
    p = _number(raw, env)
    if not p.is_constant() or p.constant_value().denominator != 1:
        raise _BadField("expected an integer, got %s" % _shown(raw))
    return int(p.constant_value())


def _flag(raw, env) -> bool:
    if not isinstance(raw, bool):
        raise _BadField("expected true or false, got %s" % _shown(raw))
    return raw


def _list_of(read, length=None, nonempty=False, most=None):
    """A list whose items all read with ``read``, as a tuple.  A list over
    ``most`` items is refused before any item is read."""

    def read_list(raw, env) -> tuple:
        if not isinstance(raw, list):
            raise _BadField("expected a list, got %s" % _shown(raw))
        if length is not None and len(raw) != length:
            raise _BadField("expected %d items, got %d" % (length, len(raw)))
        if most is not None and len(raw) > most:
            raise _BadField("has %d entries, over the budget of %d" % (len(raw), most))
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
                "unknown %s %s; known %ss: %s"
                % (label, _shown(raw), label, ", ".join(sorted(table)))
            )
        return table[raw]

    return read


def _ref(section: str, cls=None, what: str = ""):
    """The name of an entry of ``section`` of the document, optionally of
    class ``cls``; reads as the object built from it."""

    def read(raw, env):
        defined = getattr(env, section)
        name = _name(raw, env)
        if name not in defined:
            if name in env.declared[section]:
                raise _Unbuilt(section, name)
            raise _BadField("unknown reference %s" % _shown(name))
        if cls is not None and not isinstance(defined[name], cls):
            raise _BadField("%s is not a %s" % (_shown(name), what))
        return defined[name]

    return read


def _object(build, fields: dict, known=()):
    """A nested object: ``build`` called with its fields, read by `_read`."""
    return lambda raw, env: build(*_read(raw, fields, env, known))


def _row(entry, key: str, kind, env, known=()):
    """Read ``entry[key]`` with ``kind``, a `_one_of` reader of a kind table,
    then the fields of the row it names; ``known`` are its other keys, read
    elsewhere.  Returns the row's function with those fields bound."""
    build, fields = _read(entry, {key: kind}, env)[0]
    return partial(build, *_read(entry, fields, env, (key, *known)))


def _kinded(kinds: dict, label: str):
    """An entry whose ``kind`` field names its row of ``kinds``."""
    kind = _one_of(kinds, label)
    return lambda raw, env: _row(raw, "kind", kind, env, ("name",))()


_space = _ref("spaces")
_blow_up = _ref("spaces", BlowUp, "blow-up")
_bundle = _ref("bundles")
_map = _ref("maps")
_curve = _ref("curves")
_names = _list_of(_name)
_vector = _list_of(_number)
_curves = _list_of(_curve)


# ---------------------------------------------------------------------------
# the spaces, bundles, maps and curves of a document


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
        BlowUp,
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
        lambda space, rank, c1: FormalBundle(space, rank, space.div(c1)),
        {"space": _space, "rank": _number, "c1": _vector},
    ),
    "dual": (lambda of: dual(of), {"of": _bundle}),
    "quotient": (lambda of, sub: quotient(of, sub), {"of": _bundle, "sub": _bundle}),
    "extension": (
        lambda sub, quot: extension(sub, quot),
        {"sub": _bundle, "quot": _bundle},
    ),
    "relative-tangent": (
        lambda space: relative_tangent(space),
        {"space": _ref("spaces", ProjBundle, "projective bundle")},
    ),
    "tensor-line": (
        lambda of, line: tensor_line(of, of.space.div(line)),
        {"of": _bundle, "line": _vector},
    ),
    "pull-to": (lambda of, space: pull_to(of, space), {"of": _bundle, "space": _space}),
}


def _c1_column(raw, env):
    """``{"c1": bundle, "via": map}``: the first Chern class of the bundle,
    carried through the map ``via`` when one is given."""
    bundle, via = _read(raw, {"c1": _bundle, "via": (_map, None)}, env, ())
    coords, names = bundle.c1.coords, bundle.space.pic_names()
    if via is not None:
        if via.source_names != names:
            raise ValueError(
                "map %s reads (%s), not the lattice (%s) of the bundle"
                % (_shown(via.name), ", ".join(via.source_names), ", ".join(names))
            )
        coords = via.matrix.apply(coords)
    if not all(x.is_constant() for x in coords):
        raise ValueError("the c1 of bundle %s depends on n" % _shown(raw["c1"]))
    return coords


def _column(raw, env):
    """A column of a ``columns`` map: a vector, or ``{"c1": bundle, "via":
    map}``."""
    return (_c1_column if isinstance(raw, dict) else _vector)(raw, env)


def _columns_map(name, source, target, columns):
    """Column j is the image of source generator j in the target basis."""
    for j, column in enumerate(columns):
        if len(column) != len(target):
            raise _BadField(
                "expected %d entries, one per target generator, got %d"
                % (len(target), len(column)),
                ("columns", j),
            )
    matrix = ExactMatrix(columns, cols=len(target)).transpose()
    return PullbackMap(name, source, target, matrix)


_MAP_BASES = {"name": _name, "source": _names, "target": _names}

MAP_KINDS = {
    "declared": (
        lambda name, source, target, matrix: PullbackMap(
            name, source, target, ExactMatrix(matrix, cols=len(source))
        ),
        dict(_MAP_BASES, matrix=_list_of(_vector)),
    ),
    "columns": (_columns_map, dict(_MAP_BASES, columns=_list_of(_column))),
}

#: Atomic curve constructors, read from a curve entry's ``atomic`` object.
#: A row's function takes the declared fields in order, then the entry's space.
CURVE_KINDS = {
    "line-in-proj-fiber": (
        lambda taut, space: line_in_proj_fiber(taut, space),
        {"taut": _name},
    ),
    "line-in-exceptional-fiber": (
        lambda direction, space: line_in_exceptional_fiber(direction, space),
        {"direction": _name},
    ),
    "strict-transform": (
        lambda ambient_curve, mult, space: strict_transform(ambient_curve, mult, space),
        {"ambient_curve": _curve, "mult": (_integer, 1)},
    ),
    "declared": (
        lambda vector, space: declared_section(vector, space),
        {"vector": _vector},
    ),
    "pushed": (
        lambda matrix, degrees, space: declared_section(
            push_from_sublattice(matrix.matrix, degrees), space
        ),
        {"matrix": _map, "degrees": _vector},
    ),
}

_CURVE_KIND = _one_of(CURVE_KINDS, "curve kind")

#: The reader of the entries of each section; errors call an entry of
#: "spaces" a "space", and so on.
_SECTIONS = {
    "spaces": _kinded(SPACE_KINDS, "space kind"),
    "bundles": _kinded(BUNDLE_KINDS, "bundle kind"),
    "maps": _kinded(MAP_KINDS, "map kind"),
    "curves": _object(
        lambda space, curve: curve(space),
        {"space": _space, "atomic": lambda raw, env: _row(raw, "kind", _CURVE_KIND, env)},
        ("name",),
    ),
}


def _make_env(doc) -> Env:
    """Build each entry of ``doc`` in document order.  An entry that names
    one not built yet stops at that name; the named entry is built first, on
    an explicit stack rather than through the readers, and the waiting one is
    read again.  An entry that waits on itself, directly or through others,
    is a circular reference."""
    env = Env(doc)
    for root in [(s, name) for s in _SECTIONS for name in env.declared[s]]:
        stack = [root]
        while stack:
            section, name = stack[-1]
            built = getattr(env, section)
            if name in built:
                stack.pop()
                continue
            entry = env.declared[section][name]
            try:
                built[name] = _entry(
                    "%s %s" % (section[:-1], _shown(name)),
                    lambda: _SECTIONS[section](entry, env),
                )
            except _Unbuilt as wait:
                if wait.args in stack:
                    cycle = stack[stack.index(wait.args):] + [wait.args]
                    raise ScenarioFileError(
                        "circular reference: "
                        + " -> ".join("%s %s" % (s[:-1], _shown(n)) for s, n in cycle)
                    ) from None
                stack.append(wait.args)
    return env


# ---------------------------------------------------------------------------
# check kinds
#
# A row's function takes the declared fields in order and returns the value
# the report prints.


def _pairings(space, curves, divisors):
    return pairing_table(curves, [space.gen(d) for d in divisors])


def _check_canonical(space, normal, blowup, ambient_center_codim):
    canonical = canonical_class(space)
    restricted = canonical if normal is None else canonical - space.div(normal)
    if blowup is None:
        return list(restricted.coords)
    if ambient_center_codim is None:
        raise ScenarioFileError("a blowup needs its ambient_center_codim")
    lifted = lift_class(restricted, blowup)
    result = lifted + blowup.gen(blowup.exc_name) * (ambient_center_codim - 1)
    return list(result.coords)


def _check_combination_pairings(space, curves, divisors, coefficients):
    if len(coefficients) != len(curves):
        raise ScenarioFileError("one coefficient per curve")
    combo = curves[0] * coefficients[0]
    for c, curve in zip(coefficients[1:], curves[1:]):
        combo = combo + curve * c
    return [intersect(combo, space.gen(d)) for d in divisors]


def _check_vector_sum(terms):
    if len({len(t) for t in terms}) != 1:
        raise ScenarioFileError("terms of different lengths")
    acc = list(terms[0])
    for t in terms[1:]:
        acc = [a + b for a, b in zip(acc, t)]
    return acc


def _check_map_inverse(m, expected_map):
    try:
        inverted = inverse(m.matrix)
    except LinearSolveError:
        return False
    return expected_map is None or inverted == expected_map.matrix


def _check_extremal_certificate(space, curves, face, height_bound):
    names, classes = curves
    for name, c in zip(names, classes):
        if c.space.pic_names() != space.pic_names():
            raise ScenarioFileError(
                "curve %s lives on %s, not on %s"
                % (_shown(name), c.space.name, space.name)
            )
    cone = Cone(
        dim=len(space.pic_names()),
        generators=tuple(c.coords for c in classes),
        names=names,
    )
    cert = extremal_certificate(cone, face, height_bound=height_bound)
    return dict(cert, witness=serialize_value(cert["witness"], SYMBOLIC))


def _check_mori_chain(chain):
    try:
        return mori_propagate(chain)
    except PropagationError as exc:
        return {"error": str(exc)}


def _combo_string(names, vector) -> str:
    parts = []
    for name, c in zip(names, vector):
        if c:
            term = name if abs(c) == 1 else "%s %s" % (rat_str(abs(c)), name)
            if parts:
                parts.append("%s %s" % ("-" if c < 0 else "+", term))
            else:
                parts.append(("-" if c < 0 else "") + term)
    return " ".join(parts) or "0"


def _check_kernel_polynomials(m, curves):
    kernel = restriction_kernel(m, curves)["kernel"]
    return [_combo_string(m.source_names, v) for v in kernel]


def _ig_dim_poly(k: int) -> ParamPoly:
    """Dimension of the family of isotropic k-planes in a 2n-dimensional
    symplectic space: k(2n - k) - k(k-1)/2."""
    return ParamPoly({1: 2 * k, 0: Fraction(-k * k) - Fraction(k * (k - 1), 2)})


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


def _fixed_locus(*keys):
    """A check row reporting the named counts of `fixed_locus_incidence`."""

    def check(dim):
        counts = fixed_locus_incidence(dim)
        return {key: counts[key] for key in keys}

    return check


def _check_conormal_rank_consistency(ambient_dim, total, base, bundle):
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


_CONTRACTION = _object(
    lambda name, pullbacks, images: ContractionData(
        name, None if pullbacks is None else ExactMatrix(pullbacks), images
    ),
    {
        "name": _name,
        "pullbacks": (_list_of(_vector), None),
        "images": (_list_of(_vector), None),
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
    "dim": (
        lambda space, over: space.dim() if over is None else space.dim() - over.dim(),
        {"space": _space, "over": (_space, None)},
    ),
    "codim": (lambda space: space.codim, {"space": _blow_up}),
    "codim-in-ambient": (lambda space: space.codim + 1, {"space": _blow_up}),
    "canonical": (
        _check_canonical,
        {
            "space": _space,
            "normal": (_vector, None),
            "blowup": (_blow_up, None),
            "ambient_center_codim": (_number, None),
        },
    ),
    "kneg": (
        lambda space, k_class, curves: kneg_check(space.div(k_class), curves),
        {"space": _space, "k_class": _vector, "curves": _curves},
    ),
    "pairing-table": (
        lambda space, curves, divisors: _pairings(space, curves, divisors),
        _TABLE,
    ),
    "pairing-table-constant": (
        lambda space, curves, divisors: all(
            x.is_constant() for row in _pairings(space, curves, divisors) for x in row
        ),
        _TABLE,
    ),
    "curve-vector": (lambda curve: list(curve.coords), {"curve": _curve}),
    "combination-pairings": (
        _check_combination_pairings,
        dict(_TABLE, curves=_list_of(_curve, nonempty=True), coefficients=_vector),
    ),
    "functional-values": (
        lambda space, functional, curves: [
            intersect(c, space.div(functional)) for c in curves
        ],
        {"space": _space, "functional": _vector, "curves": _curves},
    ),
    "vector-sum": (_check_vector_sum, {"terms": _list_of(_vector, nonempty=True)}),
    "map-matrix": (lambda m: m.matrix, {"map": _map}),
    "matrix-product-identity": (
        lambda left, right: {
            "left_right": (left.matrix * right.matrix).is_identity(),
            "right_left": (right.matrix * left.matrix).is_identity(),
        },
        {"left": _map, "right": _map},
    ),
    "map-inverse": (_check_map_inverse, {"map": _map, "expected_map": (_map, None)}),
    "transport": (
        lambda start, via, drop: transport_class(start, via, drop),
        {"start": _vector, "via": _list_of(_TRANSPORT_STEP), "drop": (_names, ())},
    ),
    "solve-pushforward": (
        lambda space, curves, divisors, observed: list(
            solve_pushforward(
                observed,
                ExactMatrix(_pairings(space, curves, divisors), cols=len(divisors)),
            )
        ),
        dict(_TABLE, observed=_vector),
    ),
    "push-from-sublattice": (
        lambda m, degrees: list(push_from_sublattice(m.matrix, degrees)),
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
    "restriction-kernel": (
        lambda m, curves: restriction_kernel(m, curves),
        _KERNEL,
    ),
    "kernel-polynomials": (_check_kernel_polynomials, _KERNEL),
    "stabilizer-census": (lambda: omega_census(), {}),
    "sigma-census": (lambda: sigma_census(), {}),
    "order-two-relations": (lambda: order_two_relations(), {}),
    "census-size-floor": (
        lambda minimum: omega_census()["total"] >= minimum,
        {"minimum": _integer},
    ),
    "isotropy-equivalence": (lambda: isotropy_equivalence_f3(), {}),
    "rational-isotropy-samples": (
        lambda samples, seed: rational_isotropy_samples(samples, seed),
        {"samples": _integer, "seed": _integer},
    ),
    "quadric-rank": (lambda: normal_cone_quadric(), {}),
    "fixed-locus": (
        _fixed_locus("fixed_pairs", "diagonal_pairs", "fixed_equals_diagonal"),
        {"dim": _integer},
    ),
    "fixed-locus-details": (
        _fixed_locus("projective_points", "incidence_pairs"),
        {"dim": _integer},
    ),
    "cohomology-products": (
        lambda cases: [coh_dim_product_proj(*case) for case in cases],
        {"cases": _list_of(_list_of(_integer, length=3))},
    ),
    "graded-ranks-consistency": (
        lambda ks: all(
            coh_dim_product_proj(k, k, 0) == sym_rank(3, k) ** 2 for k in ks
        ),
        {"ks": _list_of(_integer)},
    ),
    "bundle-invariants": (
        lambda f: {"rank": f.rank, "c1": list(f.c1.coords)},
        {"bundle": _bundle},
    ),
    "conormal-rank-consistency": (
        _check_conormal_rank_consistency,
        {"ambient_dim": _number, "total": _space, "base": _space, "bundle": _bundle},
    ),
    "ig-dim": (lambda k, m: _ig_dim_poly(k).eval(m), {"k": _integer, "m": _integer}),
    "exc-restriction-routes": (lambda: exc_restriction_routes(), {}),
    "curve-degree": (
        lambda curve, divisor: intersect(curve, curve.space.div(divisor)),
        {"curve": _curve, "divisor": _vector},
    ),
}
_CHECK_KIND = _one_of(CHECK_KINDS, "check kind")


# ---------------------------------------------------------------------------
# reports


class CheckResult:
    def __init__(self, name, status, expected, computed, provenance):
        self.name = name
        self.status = status
        self.expected = expected
        self.computed = computed
        self.provenance = provenance


class VerificationReport:
    def __init__(self, scenario: str, n, checks: tuple):
        self.scenario = scenario
        self.n = n
        self.checks = checks

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


def _validate_ns(ns):
    for n in ns:
        if n == SYMBOLIC:
            continue
        if isinstance(n, bool) or not isinstance(n, int):
            raise BadParameterError(
                "n must be an integer >= %d or %r" % (exactnum.N_MIN, SYMBOLIC)
            )
        if n < exactnum.N_MIN:
            raise BadParameterError("n must be >= %d (got %d)" % (exactnum.N_MIN, n))


def _check_values(value, where: str, depth: int = 0):
    """Reject anything in value that is not JSON data with exact numbers: a
    float, a value of another type, a key that is not a string, an integer
    too long to print, or nesting deeper than MAX_NESTING."""
    if isinstance(value, float):
        raise ScenarioFileError(
            "%s: non-exact number %r (use strings of integers or p/q)" % (where, value)
        )
    if isinstance(value, (dict, list)):
        if depth == MAX_NESTING:
            raise ScenarioFileError(
                "%s: nested deeper than %d levels" % (where, MAX_NESTING)
            )
        for key in value if isinstance(value, dict) else ():
            if not isinstance(key, str):
                raise ScenarioFileError("%s: key %s is not a string" % (where, _shown(key)))
        for v in value.values() if isinstance(value, dict) else value:
            _check_values(v, where, depth + 1)
    elif value is not None and not isinstance(value, (int, str)):
        raise ScenarioFileError("%s: %s is not JSON data" % (where, _shown(value)))
    elif isinstance(value, int):
        try:
            str(value)
        except ValueError:  # over the interpreter's digit limit
            message = "%s: an integer has more than %d digits"
            raise ScenarioFileError(message % (where, sys.get_int_max_str_digits())) from None


_ENTRY_NAMES = _list_of(
    _object(lambda name: name, {"name": _name}, None), most=MAX_SECTION_ENTRIES
)


def _section(raw, env):
    """A section of a document: at most MAX_SECTION_ENTRIES objects with
    distinct names.  Their other fields are read when the document runs."""
    names = _ENTRY_NAMES(raw, env)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise _BadField("duplicate name %s" % _shown(name), (i, "name"))
    return raw


_DOCUMENT = {
    "name": _name,
    "n_policy": (
        _one_of({p: p for p in (POLICY_ANY, POLICY_NUMERIC)}, "n_policy value"),
        POLICY_ANY,
    ),
    **{section: (_section, ()) for section in (*_SECTIONS, "expect")},
}
_EXPECT = {
    "check": _CHECK_KIND,
    "value": lambda raw, env: raw,
    "provenance": _one_of({tag: tag for tag in PROVENANCE_TAGS}, "provenance"),
    "anchor": _name,
}


def _label(doc) -> str:
    name = doc.get("name") if isinstance(doc, dict) else None
    return "scenario %s" % _shown(name) if isinstance(name, str) else "scenario document"


def validate_doc(doc) -> None:
    """Check that ``doc`` holds only exact values, nested at most
    MAX_NESTING deep, and read its own fields, its sections and the
    metadata of each expected value."""
    what = _label(doc)
    _check_values(doc, what)
    *_, expect = _entry(what, lambda: _read(doc, _DOCUMENT, None, ("format",)))
    for entry in expect:
        _entry(
            "%s check %s" % (what, _shown(entry["name"])),
            lambda: _read(entry, _EXPECT, None),
        )


class _Compiled:
    """A document parsed from its canonical JSON text and accepted by
    `validate_doc`, which no other step calls.  Its environment is built and
    its checks are bound on the first request that passes the policy."""

    def __init__(self, text: str):
        self.doc = json.loads(text)
        validate_doc(self.doc)
        self.checks = None

    def reports(self, ns) -> list:
        """One report per valid n of ``ns``.  No check depends on n, so each
        check runs once; only serializing and comparing happen per n."""
        doc = self.doc
        if doc.get("n_policy", POLICY_ANY) == POLICY_NUMERIC and SYMBOLIC in ns:
            raise PolicyError(
                "scenario %s computes finite ranks; run it at a numeric n >= %d"
                % (_shown(doc["name"]), exactnum.N_MIN)
            )
        if self.checks is None:
            env = _make_env(doc)
            # Every check reads its fields before the first one runs, so that
            # a bad field fails the document before any expensive check starts.
            checks = []
            for entry in doc.get("expect", []):
                what = "scenario %s check %s" % (_shown(doc["name"]), _shown(entry["name"]))
                read = lambda: _row(entry, "check", _CHECK_KIND, env, ("name", *_EXPECT))
                checks.append((entry, what, _entry(what, read)))
            self.checks = checks
        results = [[] for _ in ns]
        for entry, what, check in self.checks:
            try:
                value = check()
                computed = [serialize_value(value, n) for n in ns]
                wanted = parse_value(entry["value"])
                expected = [serialize_value(wanted, n) for n in ns]
            except (ValueError, ScenarioFileError) as exc:
                raise ScenarioFileError("%s: %s" % (what, _cut(str(exc)))) from exc
            for out, got, want in zip(results, computed, expected):
                status = "PASS" if got == want else "FAIL"
                out.append(CheckResult(entry["name"], status, want, got, entry["provenance"]))
        return [
            VerificationReport(doc["name"], n, tuple(sorted(out, key=lambda c: c.name)))
            for n, out in zip(ns, results)
        ]


_compiled = lru_cache(maxsize=ENV_CACHE_SIZE)(_Compiled)


def _compiled_dict(doc) -> _Compiled:
    """A dict's entry; of its bad values or unknown fields, the first written is named."""
    what, known = _label(doc), ("format", *_DOCUMENT)
    _check_values(doc, what)
    if isinstance(doc, dict) and not {*known, *_FREE_TEXT}.issuperset(doc):
        _entry(what, lambda: _read(doc, {}, None, known))
    return _compiled(json.dumps(doc, sort_keys=True))


def evaluate_doc(doc, n) -> VerificationReport:
    """Evaluate the scenario document ``doc`` at ``n``."""
    return evaluate_doc_at(doc, [n])[0]


def evaluate_doc_at(doc, ns) -> list:
    """`evaluate_doc` at each n of ``ns``, one report per n; compiling validates the dict."""
    _validate_ns(ns)
    return _compiled_dict(doc).reports(ns)


# ---------------------------------------------------------------------------
# built-in scenarios: ``towercalc/data`` joined with ``towercalc/tower.json``

_PACKAGE = resources.files(__package__)
_DATA = _PACKAGE / "data"
_BUILTIN = tuple(
    sorted(p.name.removesuffix(".json") for p in _DATA.iterdir() if p.name.endswith(".json"))
)


@lru_cache(maxsize=None)
def _tower() -> dict:
    return json.loads((_PACKAGE / "tower.json").read_text(encoding="utf-8"))


def _packaged(name: str) -> dict:
    return json.loads((_DATA / (name + ".json")).read_text(encoding="utf-8"))


@lru_cache(maxsize=None)
def _scenario_text(name: str) -> str:
    """The JSON text of a built-in scenario: its file with the ``uses`` list
    replaced by the entries it names, in the order of the tower file."""
    if name not in _BUILTIN:
        raise UnknownScenarioError(
            "unknown scenario %s; known scenarios: %s"
            % (_shown(name), ", ".join(_BUILTIN))
        )
    doc = _packaged(name)
    uses = set(doc.pop("uses"))
    for section in _SECTIONS:
        doc[section] = [e for e in _tower()[section] if e["name"] in uses]
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# public entry points


def scenario_doc(name: str) -> dict:
    """Fresh, self-contained document for a built-in scenario; compiling validates it."""
    text = _scenario_text(name)
    _compiled(text)
    return json.loads(text)


def list_scenarios() -> list:
    """Name, description, and parameter policy of every built-in scenario,
    sorted by name, read from its packaged file alone."""
    return [
        {key: doc[key] for key in ("name", "description", "n_policy")}
        for doc in map(_packaged, _BUILTIN)
    ]


def run_scenario(name: str, n) -> VerificationReport:
    """Evaluate a built-in scenario at ``n`` (an integer >= 3 or ``"symbolic"``)."""
    return run_scenario_at(name, [n])[0]


def run_scenario_at(name: str, ns) -> list:
    """`run_scenario` at each n of ``ns``, one report per n."""
    text = _scenario_text(name)
    _validate_ns(ns)
    return _compiled(text).reports(ns)


def export_scenario(name: str) -> str:
    """Canonical JSON text of a built-in scenario document."""
    return canonical_json(scenario_doc(name))


def load_scenario_file(path) -> dict:
    """A document read from a JSON file, its format tag checked, then compiled,
    which validates it; a file exported from a built-in shares the built-in's
    entry.  Parse errors name the file, with the line and column."""
    return _load_file(path)[0]


def _load_file(path) -> tuple:
    """`load_scenario_file`'s document and its compiled entry."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc, reason = json.loads(fh.read()), None
        except UnicodeDecodeError as exc:
            reason = ": not UTF-8: %s" % exc.reason
        except json.JSONDecodeError as exc:
            reason = " at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
        except RecursionError:
            reason = ": nested deeper than the parser can follow"
        except ValueError:  # an integer literal over the interpreter's digit limit
            reason = ": an integer has more than %d digits" % sys.get_int_max_str_digits()
    if reason:
        raise ScenarioFileError("%s: parse error%s" % (path, reason))
    fmt = _one_of({FORMAT_TAG: FORMAT_TAG}, "format")
    _entry(str(path), lambda: _read(doc, {"format": fmt}, None))
    return doc, _compiled_dict(doc)
