"""Curve classes, the intersection pairing, pushforward solving, cone
certificates, and the cone-propagation rule along chains of contractions.

A curve class is stored as its vector of intersection numbers against the
divisor-generator basis of its home space.  Atomic constructors cover the
recurring geometric sources: a line in a projective-bundle fiber, a line in
an exceptional fiber of a blow-up (paired through the declared restriction
class), the strict transform of an ambient curve, and explicitly declared
section classes carrying a derivation note.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Mapping, Sequence

from .exactnum import (
    SIGN_SAMPLE_START,
    ExactMatrix,
    NoSolutionError,
    ParamPoly,
    UnderdeterminedError,
    aspoly,
    negative_on_integers_from,
    nonnegative_on_integers_from,
    nullspace,
    positive_on_integers_from,
    solve_linear_generic,
)
from .towers import BlowUp, DivClass, ProjBundle, Space

DEFAULT_HEIGHT_BOUND = 8


class CurveSpaceError(ValueError):
    pass


class SingularTableError(ValueError):
    pass


class InconsistentObservationError(ValueError):
    pass


class PropagationError(ValueError):
    """A chain step failed one of the contraction hypotheses."""

    def __init__(self, step_name: str, condition: str, detail: str):
        super().__init__(
            "step %s, condition %s: %s" % (step_name, condition, detail)
        )
        self.step_name = step_name
        self.condition = condition


@dataclass(frozen=True, eq=False)
class CurveClass:
    """Numerical curve class: pairings against the home space's generators."""

    space: Space
    vector: tuple[ParamPoly, ...]
    provenance: str = ""

    def __post_init__(self):
        vec = tuple(aspoly(v) for v in self.vector)
        object.__setattr__(self, "vector", vec)
        if len(vec) != self.space.pic_rank:
            raise CurveSpaceError(
                "vector length %d does not match the %d generators of %s"
                % (len(vec), self.space.pic_rank, self.space.name)
            )

    def _compat(self, other: "CurveClass") -> None:
        if self.space.pic_names() != other.space.pic_names():
            raise CurveSpaceError(
                "curves on different lattices: %s vs %s"
                % (self.space.name, other.space.name)
            )

    def __add__(self, other: "CurveClass") -> "CurveClass":
        self._compat(other)
        return CurveClass(
            self.space,
            tuple(a + b for a, b in zip(self.vector, other.vector)),
            provenance="combination",
        )

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        self._compat(other)
        return CurveClass(
            self.space,
            tuple(a - b for a, b in zip(self.vector, other.vector)),
            provenance="combination",
        )

    def __mul__(self, scalar) -> "CurveClass":
        s = aspoly(scalar)
        return CurveClass(
            self.space, tuple(v * s for v in self.vector), provenance="combination"
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurveClass):
            return NotImplemented
        return (
            self.space.pic_names() == other.space.pic_names()
            and self.vector == other.vector
        )

    def __hash__(self):
        return hash((self.space.pic_names(), self.vector))

    def degree_on(self, name: str) -> ParamPoly:
        names = self.space.pic_names()
        if name not in names:
            raise CurveSpaceError("no generator %r" % name)
        return self.vector[names.index(name)]


# ---------------------------------------------------------------------------
# atomic curve descriptors


@dataclass(frozen=True)
class LineInProjFiber:
    """A line inside a fiber of the projective bundle that created the named
    tautological generator: degree 1 there, 0 against everything else."""

    taut_name: str


@dataclass(frozen=True)
class LineInExceptionalFiber:
    """A line along a named ruling of an exceptional fiber; its degree on the
    exceptional class comes from the blow-up's declared restriction class."""

    direction: str


@dataclass(frozen=True)
class StrictTransform:
    """Strict transform in a blow-up of an ambient curve meeting the center
    with the given multiplicity."""

    ambient_curve: CurveClass
    mult_at_center: int = 1

    def __post_init__(self):
        if self.mult_at_center < 0:
            raise ValueError("multiplicity must be >= 0")


@dataclass(frozen=True)
class DeclaredSection:
    """A curve class given directly by its vector, with a derivation note."""

    vector: tuple
    note: str


AtomicCurveSpec = (LineInProjFiber, LineInExceptionalFiber, StrictTransform, DeclaredSection)


def curve_from_atomic(space: Space, atomic) -> CurveClass:
    names = space.pic_names()
    if isinstance(atomic, LineInProjFiber):
        creators = [
            s
            for s in space.ancestors()
            if isinstance(s, ProjBundle) and s.taut_name == atomic.taut_name
        ]
        if not creators:
            raise CurveSpaceError(
                "%r is not a projective-bundle generator of %s"
                % (atomic.taut_name, space.name)
            )
        vec = [ParamPoly()] * len(names)
        vec[names.index(atomic.taut_name)] = aspoly(1)
        return CurveClass(
            space, tuple(vec), provenance="line in %s-fiber" % atomic.taut_name
        )
    if isinstance(atomic, LineInExceptionalFiber):
        hits = []
        for s in space.ancestors():
            if isinstance(s, BlowUp) and s.center.exc_restriction is not None:
                if atomic.direction in s.center.exc_restriction.directions:
                    hits.append(s)
        if not hits:
            raise CurveSpaceError(
                "no blow-up of %s declares the ruling %r"
                % (space.name, atomic.direction)
            )
        if len(hits) > 1:
            raise CurveSpaceError(
                "ruling %r is declared by more than one blow-up" % atomic.direction
            )
        up = hits[0]
        vec = [ParamPoly()] * len(names)
        vec[names.index(up.exc_name)] = up.center.exc_restriction.degree_on(
            atomic.direction
        )
        return CurveClass(
            space,
            tuple(vec),
            provenance="line in exceptional fiber along %s" % atomic.direction,
        )
    if isinstance(atomic, StrictTransform):
        if not isinstance(space, BlowUp):
            raise CurveSpaceError("strict transforms live on a blow-up")
        amb = atomic.ambient_curve
        if amb.space.pic_names() != space.ambient.pic_names():
            raise CurveSpaceError(
                "ambient curve lives on %s, not on the blow-up's ambient %s"
                % (amb.space.name, space.ambient.name)
            )
        vec = list(amb.vector) + [aspoly(atomic.mult_at_center)]
        return CurveClass(
            space,
            tuple(vec),
            provenance="strict transform (mult %d)" % atomic.mult_at_center,
        )
    if isinstance(atomic, DeclaredSection):
        return CurveClass(
            space,
            tuple(aspoly(v) for v in atomic.vector),
            provenance="declared: %s" % atomic.note,
        )
    raise TypeError("not an atomic curve descriptor: %r" % (atomic,))


# ---------------------------------------------------------------------------
# pairing


def intersect(c, d: DivClass) -> ParamPoly:
    if not isinstance(c, CurveClass):
        c = curve_from_atomic(d.space, c)
    if c.space.pic_names() != d.space.pic_names():
        raise CurveSpaceError(
            "curve on %s paired with class on %s" % (c.space.name, d.space.name)
        )
    acc = ParamPoly()
    for deg, coeff in zip(c.vector, d.coords):
        acc = acc + deg * coeff
    return acc


def pairing_table(curves: Sequence[CurveClass], divisors: Sequence[DivClass]) -> ExactMatrix:
    """Matrix of pairings, one row per curve, one column per divisor."""
    return ExactMatrix(
        [[intersect(c, d) for d in divisors] for c in curves], cols=len(divisors)
    )


def solve_pushforward(observed: Sequence, table: ExactMatrix) -> tuple[ParamPoly, ...]:
    """Coordinates y with table^T y = observed: the curve combination whose
    pairings against the basis divisors match the observed values."""
    try:
        return solve_linear_generic(table.transpose(), observed)
    except UnderdeterminedError as exc:
        raise SingularTableError("pairing table is singular") from exc
    except NoSolutionError as exc:
        raise InconsistentObservationError(
            "observed pairings are inconsistent with the table"
        ) from exc


def push_from_sublattice(restriction: ExactMatrix, degrees: Sequence) -> tuple[ParamPoly, ...]:
    """Pushforward of a curve living where ``degrees`` is its pairing vector:
    each column of ``restriction`` expresses one ambient generator in the
    curve's home lattice, so the pushed curve pairs ambient generator j with
    degrees . column_j."""
    return restriction.transpose().apply(degrees)


@dataclass(frozen=True)
class KNegEntry:
    curve: CurveClass
    pairing: ParamPoly
    negative_for_all: bool


@dataclass(frozen=True)
class KNegReport:
    start: int
    entries: tuple[KNegEntry, ...]

    @property
    def all_negative(self) -> bool:
        return all(e.negative_for_all for e in self.entries)


def kneg_check(k_class: DivClass, curves: Sequence[CurveClass], start: int = SIGN_SAMPLE_START) -> KNegReport:
    """Pair the canonical-type class against each curve and decide strict
    negativity for every integer parameter value >= start."""
    entries = []
    for c in curves:
        p = intersect(c, k_class)
        entries.append(KNegEntry(c, p, negative_on_integers_from(p, start)))
    return KNegReport(start, tuple(entries))


# ---------------------------------------------------------------------------
# cones and extremality certificates


@dataclass(frozen=True)
class Cone:
    """A cone given by generators (curve vectors over a fixed lattice)."""

    dim: int
    generators: tuple[tuple[ParamPoly, ...], ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        gens = tuple(tuple(aspoly(x) for x in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if len(g) != self.dim:
                raise ValueError("generator length does not match the lattice")
            if all(x.is_zero() for x in g):
                raise ValueError("zero generator")
        if self.names and len(self.names) != len(gens):
            raise ValueError("names do not match the generators")


@dataclass(frozen=True)
class ExtremalCertificate:
    status: str  # "certified" | "inconclusive"
    functional: tuple[int, ...] | None = None
    values: tuple[ParamPoly, ...] | None = None
    height: int | None = None
    witness: Mapping | None = None
    note: str = ""


def _pair_vec(functional: Sequence[int], gen: Sequence[ParamPoly]) -> ParamPoly:
    acc = ParamPoly()
    for f, g in zip(functional, gen):
        acc = acc + g * f
    return acc


def _shell_vectors(dim: int, h: int):
    """Integer vectors of sup-height exactly h, lexicographically."""
    for vec in product(range(-h, h + 1), repeat=dim):
        if max((abs(x) for x in vec), default=0) == h:
            yield vec


def extremal_certificate(
    cone: Cone,
    face: Sequence,
    height_bound: int = DEFAULT_HEIGHT_BOUND,
    start: int = SIGN_SAMPLE_START,
) -> ExtremalCertificate:
    """Search for an integral supporting functional vanishing on the face
    generators and strictly positive on every other generator.

    Exhaustive over sup-height shells 0..height_bound, lexicographic inside a
    shell, first hit returned.  Absence of a hit is reported as
    "inconclusive", never as a refutation; when a face generator is found to
    be a nonnegative combination of the remaining generators, that dependency
    witness is attached.
    """
    face_idx = _face_indices(cone, face)
    others = [i for i in range(len(cone.generators)) if i not in face_idx]
    for h in range(height_bound + 1):
        for cand in _shell_vectors(cone.dim, h):
            values = [_pair_vec(cand, g) for g in cone.generators]
            if not all(values[i].is_zero() for i in face_idx):
                continue
            if all(positive_on_integers_from(values[j], start) for j in others):
                return ExtremalCertificate(
                    status="certified",
                    functional=cand,
                    values=tuple(values),
                    height=h,
                    note="exhaustive search, lexicographic first hit",
                )
    witness = _dependency_witness(cone, face_idx, others, start)
    note = "no supporting functional within height %d" % height_bound
    if witness is not None:
        note += "; a face generator is a nonnegative combination of the others"
    return ExtremalCertificate(status="inconclusive", witness=witness, note=note)


def _face_indices(cone: Cone, face: Sequence) -> list[int]:
    idx = []
    for f in face:
        if isinstance(f, str):
            if f not in cone.names:
                raise ValueError("unknown generator name %r" % f)
            idx.append(cone.names.index(f))
        else:
            i = int(f)
            if not 0 <= i < len(cone.generators):
                raise ValueError("generator index %d out of range" % i)
            idx.append(i)
    return sorted(set(idx))


def _dependency_witness(cone: Cone, face_idx, others, start) -> dict | None:
    """Try to express some face generator as a nonnegative rational
    combination of the non-face generators, smallest support first."""
    for fi in face_idx:
        target = cone.generators[fi]
        for size in range(1, min(len(others), cone.dim) + 1):
            for subset in combinations(others, size):
                mat = ExactMatrix(
                    [[cone.generators[j][k] for j in subset] for k in range(cone.dim)],
                    cols=size,
                )
                try:
                    sol = solve_linear_generic(mat, target)
                except (NoSolutionError, UnderdeterminedError, ValueError):
                    continue
                if all(nonnegative_on_integers_from(s, start) for s in sol):
                    return {
                        "face_generator": fi,
                        "combination": {
                            j: sol[t] for t, j in enumerate(subset)
                        },
                    }
    return None


# ---------------------------------------------------------------------------
# cone propagation along chains of contractions


@dataclass(frozen=True)
class ContractionData:
    """One morphism out of a chain step.

    Either ``pullbacks`` (columns express the target's generators in the
    step's own lattice; curve images are then computed by pairing) or
    ``images`` (declared image vectors, one per step generator, for maps
    outside the divisor calculus) must be supplied, not both.
    """

    name: str
    pullbacks: ExactMatrix | None = None
    images: tuple[tuple[ParamPoly, ...], ...] | None = None
    note: str = ""

    def __post_init__(self):
        if (self.pullbacks is None) == (self.images is None):
            raise ValueError(
                "exactly one of pullbacks/images must be given for %s" % self.name
            )
        if self.images is not None:
            object.__setattr__(
                self,
                "images",
                tuple(tuple(aspoly(x) for x in v) for v in self.images),
            )

    def image_of(self, index: int, degrees: Sequence[ParamPoly]) -> tuple[ParamPoly, ...]:
        if self.pullbacks is not None:
            return push_from_sublattice(self.pullbacks, degrees)
        return self.images[index]


@dataclass(frozen=True)
class ChainStep:
    space_name: str
    generator_names: tuple[str, ...]
    generators: tuple[tuple[ParamPoly, ...], ...]
    contracted: str
    cprime: ContractionData
    cdouble: ContractionData

    def __post_init__(self):
        object.__setattr__(
            self,
            "generators",
            tuple(tuple(aspoly(x) for x in v) for v in self.generators),
        )
        if len(self.generator_names) != len(self.generators):
            raise ValueError("generator names and vectors must align")
        for c in (self.cprime, self.cdouble):
            if c.images is not None and len(c.images) != len(self.generators):
                raise ValueError(
                    "%s declares %d images for %d generators"
                    % (c.name, len(c.images), len(self.generators))
                )
        if self.contracted not in self.generator_names:
            raise ValueError(
                "contracted curve %r not among the generators" % self.contracted
            )


@dataclass(frozen=True)
class ChainSpec:
    base_space: str
    base_generator_names: tuple[str, ...]
    base_generators: tuple[tuple[ParamPoly, ...], ...]
    steps: tuple[ChainStep, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "base_generators",
            tuple(tuple(aspoly(x) for x in v) for v in self.base_generators),
        )


@dataclass(frozen=True)
class StepReport:
    space_name: str
    conditions: tuple[tuple[str, bool], ...]


def _vec_key(vec: Sequence[ParamPoly]) -> tuple[str, ...]:
    return tuple(str(x) for x in vec)


def mori_propagate(chain: ChainSpec) -> tuple[Cone, tuple[StepReport, ...]]:
    """Propagate a known base cone up a chain of steps, verifying at each
    step: (a) the first morphism contracts exactly the marked generator;
    (b) the second morphism contracts exactly the remaining generators;
    (c) the non-contracted generators push to precisely the previous step's
    generator set.  A violation raises PropagationError naming the step and
    the failed condition."""
    prev_gens = chain.base_generators
    reports = []
    for step in chain.steps:
        ci = step.generator_names.index(step.contracted)
        images_prime = [
            step.cprime.image_of(i, g) for i, g in enumerate(step.generators)
        ]
        if not all(x.is_zero() for x in images_prime[ci]):
            raise PropagationError(
                step.space_name,
                "a",
                "%s is not contracted by %s" % (step.contracted, step.cprime.name),
            )
        for i, img in enumerate(images_prime):
            if i != ci and all(x.is_zero() for x in img):
                raise PropagationError(
                    step.space_name,
                    "a",
                    "%s is also contracted by %s"
                    % (step.generator_names[i], step.cprime.name),
                )
        images_double = [
            step.cdouble.image_of(i, g) for i, g in enumerate(step.generators)
        ]
        if all(x.is_zero() for x in images_double[ci]):
            raise PropagationError(
                step.space_name,
                "b",
                "%s is contracted by %s too" % (step.contracted, step.cdouble.name),
            )
        for i, img in enumerate(images_double):
            if i != ci and not all(x.is_zero() for x in img):
                raise PropagationError(
                    step.space_name,
                    "b",
                    "%s is not contracted by %s"
                    % (step.generator_names[i], step.cdouble.name),
                )
        pushed = sorted(
            _vec_key(images_prime[i])
            for i in range(len(step.generators))
            if i != ci
        )
        expected = sorted(_vec_key(g) for g in prev_gens)
        if pushed != expected:
            raise PropagationError(
                step.space_name,
                "c",
                "pushed generators %r do not match the known cone %r"
                % (pushed, expected),
            )
        reports.append(
            StepReport(
                step.space_name,
                (
                    ("contracts exactly %s" % step.contracted, True),
                    ("second morphism contracts exactly the rest", True),
                    ("pushforwards recover the known cone", True),
                ),
            )
        )
        prev_gens = step.generators
    last = chain.steps[-1] if chain.steps else None
    cone = Cone(
        dim=len(prev_gens[0]),
        generators=prev_gens,
        names=last.generator_names if last else chain.base_generator_names,
    )
    return cone, tuple(reports)


# ---------------------------------------------------------------------------
# restriction kernels


def _primitive(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


@dataclass(frozen=True)
class RestrictionKernelReport:
    kernel: tuple[tuple[Fraction, ...], ...]
    perp: tuple[tuple[Fraction, ...], ...]


def restriction_kernel(
    restriction: ExactMatrix, curves: Sequence[CurveClass]
) -> RestrictionKernelReport:
    """Kernel of a restriction map on divisor classes, plus its annihilator
    inside the span of the given curves (coordinates in the curve basis).

    Kernel vectors are normalized primitive-integral with positive leading
    entry."""
    kernel = tuple(_primitive(v) for v in nullspace(restriction))
    if not kernel:
        perp_basis = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(len(curves)))
            for i in range(len(curves))
        )
        return RestrictionKernelReport(kernel=(), perp=perp_basis)
    rows = []
    for k in kernel:
        row = []
        for c in curves:
            val = ParamPoly()
            for deg, coeff in zip(c.vector, k):
                val = val + deg * coeff
            if not val.is_constant():
                raise ValueError("curve pairings must be constant for this analysis")
            row.append(val.constant_value())
        rows.append(row)
    perp = tuple(_primitive(v) for v in nullspace(ExactMatrix(rows, cols=len(curves))))
    return RestrictionKernelReport(kernel=kernel, perp=perp)
