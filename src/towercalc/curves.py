"""Curve classes, the intersection pairing, pushforward solving, cone
certificates, and the cone-propagation rule along chains of contractions.

A curve class is stored as its vector of intersection numbers against the
divisor-generator basis of its home space.  Atomic constructors cover the
recurring geometric sources: a line in a projective-bundle fiber, a line in
an exceptional fiber of a blow-up (paired through the declared restriction
class), the strict transform of an ambient curve, and explicitly declared
section classes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from operator import mul
from typing import Sequence

from . import exactnum
from .exactnum import (
    ExactMatrix,
    NoSolutionError,
    ParamPoly,
    UnderdeterminedError,
    _int_signs_from,
    aspoly,
    negative_on_integers_from,
    nonnegative_on_integers_from,
    nullspace,
    solve_linear_generic,
)
from .towers import BlowUp, DivClass, LatticeVector, ProjBundle, PullbackMap, Space

DEFAULT_HEIGHT_BOUND = 8

#: Most candidate functionals, (2 * height_bound + 1) ** dim, that one
#: extremal_certificate search may enumerate.
MAX_SEARCH_SIZE = 10**6


class PropagationError(ValueError):
    """A chain step failed one of the contraction hypotheses."""


class CurveClass(LatticeVector):
    """Numerical curve class: pairings against the home space's generators."""

    def __init__(self, space: Space, coords: tuple[ParamPoly, ...]):
        coords = tuple(aspoly(v) for v in coords)
        if len(coords) != space.pic_rank:
            raise ValueError(
                "vector length %d does not match the %d generators of %s"
                % (len(coords), space.pic_rank, space.name)
            )
        super().__init__(space, coords)


# ---------------------------------------------------------------------------
# atomic curve constructors


def line_in_proj_fiber(taut_name: str, space: Space) -> CurveClass:
    """A line inside a fiber of the projective bundle that created the named
    tautological generator: degree 1 there, 0 against everything else."""
    names = space.pic_names()
    creators = [
        s
        for s in space.ancestors()
        if isinstance(s, ProjBundle) and s.taut_name == taut_name
    ]
    if not creators:
        raise ValueError(
            "%r is not a projective-bundle generator of %s" % (taut_name, space.name)
        )
    vec = [ParamPoly()] * len(names)
    vec[names.index(taut_name)] = aspoly(1)
    return CurveClass(space, tuple(vec))


def line_in_exceptional_fiber(direction: str, space: Space) -> CurveClass:
    """A line along a named ruling of an exceptional fiber; its degree on the
    exceptional class is the one the blow-up declares for that ruling."""
    names = space.pic_names()
    hits = [
        s for s in space.ancestors() if isinstance(s, BlowUp) and direction in s.exc_degrees
    ]
    if not hits:
        raise ValueError(
            "no blow-up of %s declares the ruling %r" % (space.name, direction)
        )
    if len(hits) > 1:
        raise ValueError(
            "ruling %r is declared by more than one blow-up" % direction
        )
    up = hits[0]
    vec = [ParamPoly()] * len(names)
    vec[names.index(up.exc_name)] = up.exc_degrees[direction]
    return CurveClass(space, tuple(vec))


def strict_transform(
    ambient_curve: CurveClass, mult_at_center: int, space: Space
) -> CurveClass:
    """Strict transform in a blow-up of an ambient curve meeting the center
    with the given multiplicity."""
    if mult_at_center < 0:
        raise ValueError("multiplicity must be >= 0")
    if not isinstance(space, BlowUp):
        raise ValueError("strict transforms live on a blow-up")
    if ambient_curve.space.pic_names() != space.ambient.pic_names():
        raise ValueError(
            "ambient curve lives on %s, not on the blow-up's ambient %s"
            % (ambient_curve.space.name, space.ambient.name)
        )
    vec = list(ambient_curve.coords) + [aspoly(mult_at_center)]
    return CurveClass(space, tuple(vec))


def declared_section(vector: Sequence, space: Space) -> CurveClass:
    """A curve class given directly by its vector."""
    return CurveClass(space, tuple(aspoly(v) for v in vector))


# ---------------------------------------------------------------------------
# pairing


def intersect(c: CurveClass, d: DivClass) -> ParamPoly:
    if c.space.pic_names() != d.space.pic_names():
        raise ValueError(
            "curve on %s paired with class on %s" % (c.space.name, d.space.name)
        )
    acc = ParamPoly()
    for deg, coeff in zip(c.coords, d.coords):
        acc = acc + deg * coeff
    return acc


def pairing_table(curves: Sequence[CurveClass], divisors: Sequence[DivClass]) -> tuple:
    """Rows of ParamPoly pairings, one row per curve, one column per divisor."""
    return tuple(tuple(intersect(c, d) for d in divisors) for c in curves)


def solve_pushforward(observed: Sequence, table: ExactMatrix) -> tuple[ParamPoly, ...]:
    """Coordinates y with table^T y = observed: the curve combination whose
    pairings against the basis divisors match the observed values."""
    try:
        return solve_linear_generic(table.transpose(), observed)
    except UnderdeterminedError as exc:
        raise ValueError("pairing table is singular") from exc
    except NoSolutionError as exc:
        raise ValueError(
            "observed pairings are inconsistent with the table"
        ) from exc


def push_from_sublattice(restriction: ExactMatrix, degrees: Sequence) -> tuple[ParamPoly, ...]:
    """Pushforward of a curve living where ``degrees`` is its pairing vector:
    each column of ``restriction`` expresses one ambient generator in the
    curve's home lattice, so the pushed curve pairs ambient generator j with
    degrees . column_j."""
    return restriction.transpose().apply(degrees)


def kneg_check(k_class: DivClass, curves: Sequence[CurveClass]) -> dict:
    """Pair the canonical-type class against each curve and decide whether
    every pairing is strictly negative for every integer n >= N_MIN."""
    pairings = [intersect(c, k_class) for c in curves]
    return {
        "pairings": pairings,
        "all_negative": all(negative_on_integers_from(p) for p in pairings),
    }


# ---------------------------------------------------------------------------
# cones and extremality certificates


class Cone:
    """A cone given by generators (curve vectors over a fixed lattice)."""

    def __init__(
        self,
        dim: int,
        generators: tuple[tuple[ParamPoly, ...], ...],
        names: tuple[str, ...] = (),
    ):
        gens = tuple(tuple(aspoly(x) for x in g) for g in generators)
        for g in gens:
            if len(g) != dim:
                raise ValueError("generator length does not match the lattice")
            if all(x.is_zero() for x in g):
                raise ValueError("zero generator")
        if names and len(names) != len(gens):
            raise ValueError("names do not match the generators")
        self.dim = dim
        self.generators = gens
        self.names = names


def _interval(h: int, bounds) -> range:
    """The integers x in [-h, h] with p + q * x >= b for every (p, q, b)."""
    lo, hi = -h, h
    for p, q, b in bounds:
        if q > 0:
            lo = max(lo, -((p - b) // q))
        elif q < 0:
            hi = min(hi, (p - b) // -q)
        elif p < b:
            lo = h + 1
        if lo > hi:
            break
    return range(lo, hi + 1)


def _face_candidates(dim: int, h: int, face_rows: Sequence[tuple[int, ...]], positive):
    """The vectors v of sup-height exactly h that every face row pairs to
    zero and every positive form r to v . r >= 1, lexicographically.  A face
    row with a nonzero last coefficient, the pivot, signed so that it is c > 0,
    solves for the last coordinate, and each form and the box |last| <= h
    become bounds on the one before, rewritten as c * r - r[-1] * pivot.  So
    dim - 2 coordinates are walked, and the next runs through the integer
    interval of its bounds where c divides; with no pivot, dim - 1 coordinates
    that zero every face row are walked, and the forms bound the last."""
    pivot = next((row for row in face_rows if row[-1]), None)
    forms = [(r, 1) for r in positive]
    if pivot is not None:
        pivot = pivot if pivot[-1] > 0 else tuple(-x for x in pivot)
        c = pivot[-1]
        forms += [((0,) * (dim - 1) + (sign,), -h) for sign in (1, -1)]
        forms = [(tuple(c * x - r[-1] * p for x, p in zip(r, pivot)), c * b) for r, b in forms]
    walked = dim - 1 - (pivot is not None)
    if walked < 0:
        yield from [(0,) * dim] if h == 0 and not positive else []
        return
    for prefix in product(range(-h, h + 1), repeat=walked):
        if pivot is None and any(_dot(prefix, row) for row in face_rows):
            continue
        for x in _interval(h, ((_dot(prefix, w), w[walked], b) for w, b in forms)):
            vec = prefix + (x,)
            if pivot is not None:  # the pivot's check below keeps the x that c divides
                vec += (-_dot(vec, pivot) // c,)
            if max(map(abs, vec)) == h and not any(_dot(vec, row) for row in face_rows):
                yield vec


def _coefficient_rows(gen: Sequence[ParamPoly]) -> tuple[int, list[tuple[int, ...]]]:
    """(scale, rows): rows[e], for e = 0..degree, is scale times the n^e
    coefficients of gen, and scale is the lcm of all their denominators, so
    functional . rows[e] == scale * (n^e coefficient of functional . gen)."""
    coeffs = [[x.coeff(e) for x in gen] for e in range(max(x.degree for x in gen) + 1)]
    scale = lcm(*(c.denominator for row in coeffs for c in row))
    return scale, [tuple(int(c * scale) for c in row) for row in coeffs]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _value(functional: Sequence[int], scale: int, rows) -> ParamPoly:
    """functional . gen as a ParamPoly, from the generator's coefficient rows."""
    return ParamPoly({e: Fraction(_dot(functional, row), scale) for e, row in enumerate(rows)})


def extremal_certificate(
    cone: Cone,
    face: Sequence,
    height_bound: int = DEFAULT_HEIGHT_BOUND,
) -> dict:
    """Search for an integral supporting functional vanishing on the face
    generators and strictly positive on every other generator.

    Exhaustive over sup-height shells 0..height_bound, lexicographic inside a
    shell, first hit returned as status "certified" with its functional,
    height and values on every generator.  Absence of a hit is reported as
    "inconclusive", never as a refutation; when a face generator is found to
    be a nonnegative combination of the remaining generators, that dependency
    witness is attached.

    Each generator is turned once into integer coefficient rows, one per
    exponent of n up to its degree, scaled by the lcm of its denominators
    (`_coefficient_rows`).  A candidate vanishes on the face exactly when its
    dot product with every nonzero face row is zero.  Its products with
    another generator's rows are the coefficients of a positive multiple of
    its pairing with it, signed by `_int_signs_from`; only the hit gets
    ParamPolys.  That multiple is at least 1 at n = N_MIN (read at each call)
    for a hit, so `_face_candidates` yields only the candidates that meet this
    for every other generator: it walks (2 * h + 1) ** (dim - 2) prefixes per
    shell and takes the last two coordinates from integer intervals.

    The search size (2 * height_bound + 1) ** dim is budgeted: a negative
    height_bound, or a size above MAX_SEARCH_SIZE, raises ValueError before
    the first candidate.
    """
    if height_bound < 0:
        raise ValueError("height_bound %d is negative" % height_bound)
    size = (2 * height_bound + 1) ** cone.dim
    if size > MAX_SEARCH_SIZE:
        raise ValueError(
            "height_bound %d in dimension %d searches %d candidates, over the "
            "budget of %d" % (height_bound, cone.dim, size, MAX_SEARCH_SIZE)
        )
    face_idx = _face_indices(cone, face)
    others = [i for i in range(len(cone.generators)) if i not in face_idx]
    rows = [_coefficient_rows(g) for g in cone.generators]
    face_rows = [row for i in face_idx for row in rows[i][1] if any(row)]
    pairings = [rows[j][1] for j in others]
    powers = [exactnum.N_MIN**e for e in range(max(map(len, pairings), default=0))]
    positive = [tuple(_dot(col, powers) for col in zip(*dense)) for dense in pairings]
    for h in range(height_bound + 1):
        for cand in _face_candidates(cone.dim, h, face_rows, positive):
            if all(
                _int_signs_from([_dot(cand, row) for row in dense]) == {1}
                for dense in pairings
            ):
                return {
                    "status": "certified",
                    "functional": cand,
                    "height": h,
                    "values": tuple(_value(cand, *r) for r in rows),
                    "witness": None,
                }
    return {
        "status": "inconclusive",
        "functional": None,
        "height": None,
        "values": None,
        "witness": _dependency_witness(cone, face_idx, others),
    }


def _face_indices(cone: Cone, face: Sequence[str]) -> list[int]:
    idx = []
    for f in face:
        if f not in cone.names:
            raise ValueError("unknown generator name %r" % (f,))
        idx.append(cone.names.index(f))
    return sorted(set(idx))


def _dependency_witness(cone: Cone, face_idx, others) -> dict | None:
    """Try to express some face generator as a nonnegative rational
    combination of the non-face generators, smallest support first."""
    for fi in face_idx:
        target = cone.generators[fi]
        for size in range(1, min(len(others), cone.dim) + 1):
            for subset in combinations(others, size):
                try:
                    mat = ExactMatrix(
                        [[cone.generators[j][k] for j in subset] for k in range(cone.dim)],
                        cols=size,
                    )
                    sol = solve_linear_generic(mat, target)
                except ValueError:
                    continue
                if all(nonnegative_on_integers_from(s) for s in sol):
                    return {
                        "face_generator": fi,
                        "combination": {
                            j: sol[t] for t, j in enumerate(subset)
                        },
                    }
    return None


# ---------------------------------------------------------------------------
# cone propagation along chains of contractions


class ContractionData:
    """One morphism out of a chain step.

    Either ``pullbacks`` (columns express the target's generators in the
    step's own lattice; curve images are then computed by pairing) or
    ``images`` (declared image vectors, one per step generator, for maps
    outside the divisor calculus) must be supplied, not both.
    """

    def __init__(
        self,
        name: str,
        pullbacks: ExactMatrix | None = None,
        images: tuple[tuple[ParamPoly, ...], ...] | None = None,
    ):
        if (pullbacks is None) == (images is None):
            raise ValueError(
                "exactly one of pullbacks/images must be given for %s" % name
            )
        if images is not None:
            images = tuple(tuple(aspoly(x) for x in v) for v in images)
        self.name = name
        self.pullbacks = pullbacks
        self.images = images

    def image_of(self, index: int, degrees: Sequence[ParamPoly]) -> tuple[ParamPoly, ...]:
        if self.pullbacks is not None:
            return push_from_sublattice(self.pullbacks, degrees)
        return self.images[index]


class ChainStep:
    def __init__(
        self,
        space_name: str,
        generator_names: tuple[str, ...],
        generators: tuple[tuple[ParamPoly, ...], ...],
        contracted: str,
        cprime: ContractionData,
        cdouble: ContractionData,
    ):
        generators = tuple(tuple(aspoly(x) for x in v) for v in generators)
        if len(generator_names) != len(generators):
            raise ValueError("generator names and vectors must align")
        for c in (cprime, cdouble):
            if c.images is not None and len(c.images) != len(generators):
                raise ValueError(
                    "%s declares %d images for %d generators"
                    % (c.name, len(c.images), len(generators))
                )
        if contracted not in generator_names:
            raise ValueError(
                "contracted curve %r not among the generators" % contracted
            )
        self.space_name = space_name
        self.generator_names = generator_names
        self.generators = generators
        self.contracted = contracted
        self.cprime = cprime
        self.cdouble = cdouble


class ChainSpec:
    def __init__(
        self,
        base_space: str,
        base_generator_names: tuple[str, ...],
        base_generators: tuple[tuple[ParamPoly, ...], ...],
        steps: tuple[ChainStep, ...],
    ):
        self.base_space = base_space
        self.base_generator_names = base_generator_names
        self.base_generators = tuple(
            tuple(aspoly(x) for x in v) for v in base_generators
        )
        self.steps = steps


def _vec_key(vec: Sequence[ParamPoly]) -> tuple[str, ...]:
    return tuple(str(x) for x in vec)


def _contracting(step, contraction, condition: str, ci: int, marked: bool) -> list:
    """The images of the step's generators under ``contraction``, which must
    contract exactly the generator ``ci`` when ``marked``, and exactly the
    others when not; the first generator that breaks this, ``ci`` first, is
    a PropagationError under ``condition``."""
    images = [contraction.image_of(i, g) for i, g in enumerate(step.generators)]
    for i in sorted(range(len(images)), key=lambda i: i != ci):
        contracted = all(x.is_zero() for x in images[i])
        if contracted != ((i == ci) == marked):
            state = "is" if contracted else "is not"
            raise PropagationError(
                "step %s, condition %s: %s %s contracted by %s"
                % (step.space_name, condition, step.generator_names[i], state, contraction.name)
            )
    return images


def mori_propagate(chain: ChainSpec) -> dict:
    """Propagate a known base cone up a chain of steps, verifying at each
    step: (a) the first morphism contracts exactly the marked generator;
    (b) the second morphism contracts exactly the remaining generators;
    (c) the non-contracted generators push to precisely the previous step's
    generator set.  A violation raises PropagationError naming the step and
    the failed condition, so every condition a returned step lists holds.

    Returns the top cone's generator names and vectors, and the conditions
    verified at each step."""
    prev_gens = chain.base_generators
    steps = []
    for step in chain.steps:
        ci = step.generator_names.index(step.contracted)
        images_prime = _contracting(step, step.cprime, "a", ci, True)
        _contracting(step, step.cdouble, "b", ci, False)
        pushed = sorted(_vec_key(img) for i, img in enumerate(images_prime) if i != ci)
        expected = sorted(_vec_key(g) for g in prev_gens)
        if pushed != expected:
            raise PropagationError(
                "step %s, condition c: pushed generators %r do not match the known cone %r"
                % (step.space_name, pushed, expected)
            )
        steps.append(
            {
                "space": step.space_name,
                "conditions": {
                    "contracts exactly %s" % step.contracted: True,
                    "second morphism contracts exactly the rest": True,
                    "pushforwards recover the known cone": True,
                },
            }
        )
        prev_gens = step.generators
    last = chain.steps[-1] if chain.steps else None
    return {
        "generator_names": last.generator_names if last else chain.base_generator_names,
        "generators": prev_gens,
        "steps": steps,
    }


# ---------------------------------------------------------------------------
# restriction kernels


def _primitive(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """vec scaled to coprime integers whose first nonzero entry is positive."""
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return tuple(x // g for x in ints) if g else tuple(ints)


def restriction_kernel(restriction: PullbackMap, curves: Sequence[CurveClass]) -> dict:
    """Kernel of a restriction map on divisor classes, plus its annihilator
    inside the span of the given curves (coordinates in the curve basis).

    Kernel vectors are normalized primitive-integral with positive leading
    entry.  Every curve must live on the lattice of the map's source."""
    for c in curves:
        if c.space.pic_names() != restriction.source_names:
            raise ValueError(
                "curve on %s is not on the source lattice of %s"
                % (c.space.name, restriction.name)
            )
    kernel = tuple(_primitive(v) for v in nullspace(restriction.matrix))
    if not kernel:
        perp_basis = tuple(
            tuple(int(i == j) for j in range(len(curves)))
            for i in range(len(curves))
        )
        return {"kernel": (), "perp": perp_basis}
    rows = []
    for k in kernel:
        row = []
        for c in curves:
            val = intersect(c, c.space.div(k))
            if not val.is_constant():
                raise ValueError("curve pairings must be constant for this analysis")
            row.append(val.constant_value())
        rows.append(row)
    perp = tuple(_primitive(v) for v in nullspace(ExactMatrix(rows, cols=len(curves))))
    return {"kernel": kernel, "perp": perp}
