"""Formal bundle towers and first Chern class bookkeeping.

Spaces are built as a DAG of constructions over formal bases: projective
bundles (lines-in convention: the tautological subline has class -xi),
blow-ups along declared centers, fiber products over a common base, and
divisors inside an ambient space.  Each construction appends at most one
named generator to the divisor-class lattice, so a class is a coordinate
vector over the accumulated generator names; entries are polynomials in the
integer parameter n.

Bundles are tracked by (rank, c1) only, which is exactly the data the
canonical class and intersection bookkeeping consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .exactnum import (
    ExactMatrix,
    ParamPoly,
    aspoly,
    inverse as matrix_inverse,
    nonnegative_on_integers_from,
)


class LatticeError(ValueError):
    pass


class MissingCanonicalError(ValueError):
    pass


class Space:
    """Common behaviour of every node in a tower."""

    name: str

    def pic_names(self) -> tuple[str, ...]:
        raise NotImplementedError

    def dim(self) -> ParamPoly:
        raise NotImplementedError

    def canonical_coords(self) -> tuple[ParamPoly, ...]:
        raise NotImplementedError

    def parents(self) -> tuple["Space", ...]:
        return ()

    def ancestors(self) -> list["Space"]:
        seen: list[Space] = []
        stack = [self]
        while stack:
            s = stack.pop()
            if s not in seen:
                seen.append(s)
                stack.extend(s.parents())
        return seen

    @property
    def pic_rank(self) -> int:
        return len(self.pic_names())

    def gen(self, name: str, coeff=1) -> "DivClass":
        names = self.pic_names()
        if name not in names:
            raise LatticeError("no generator %r on %s" % (name, self.name))
        coords = [ParamPoly()] * len(names)
        coords[names.index(name)] = aspoly(coeff)
        return DivClass(self, tuple(coords))

    def div(self, coords: Sequence) -> "DivClass":
        coords = tuple(aspoly(c) for c in coords)
        if len(coords) != self.pic_rank:
            raise LatticeError(
                "expected %d coordinates on %s, got %d"
                % (self.pic_rank, self.name, len(coords))
            )
        return DivClass(self, coords)

    def zero(self) -> "DivClass":
        return DivClass(self, tuple(ParamPoly() for _ in self.pic_names()))

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self.name)


@dataclass(frozen=True, eq=False)
class DivClass:
    """Divisor class: coordinates over the space's generator names."""

    space: Space
    coords: tuple[ParamPoly, ...]

    def _compat(self, other: "DivClass") -> None:
        if self.space.pic_names() != other.space.pic_names():
            raise LatticeError(
                "classes on different lattices: %s vs %s"
                % (self.space.name, other.space.name)
            )

    def __add__(self, other: "DivClass") -> "DivClass":
        self._compat(other)
        return DivClass(
            self.space, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "DivClass") -> "DivClass":
        self._compat(other)
        return DivClass(
            self.space, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "DivClass":
        return DivClass(self.space, tuple(-a for a in self.coords))

    def __mul__(self, scalar) -> "DivClass":
        s = aspoly(scalar)
        return DivClass(self.space, tuple(a * s for a in self.coords))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, DivClass):
            return NotImplemented
        return (
            self.space.pic_names() == other.space.pic_names()
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.space.pic_names(), self.coords))

    def coeff(self, name: str) -> ParamPoly:
        names = self.space.pic_names()
        if name not in names:
            raise LatticeError("no generator %r" % name)
        return self.coords[names.index(name)]

    def __str__(self):
        names = self.space.pic_names()
        parts = [
            "(%s)*%s" % (c, g) for c, g in zip(self.coords, names) if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class FormalBundle:
    """A vector bundle remembered only through its rank and first Chern
    class.  The rank must be at least 1 for every integer n >= 3."""

    space: Space
    rank: ParamPoly
    c1: DivClass
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rank", aspoly(self.rank))
        if self.c1.space.pic_names() != self.space.pic_names():
            raise LatticeError("c1 lives on the wrong lattice")
        if not nonnegative_on_integers_from(self.rank - 1):
            raise ValueError("rank %s is below 1 for some n >= 3" % self.rank)


class FormalBase(Space):
    """Base of a tower: named generators, declared canonical class and
    dimension.  Canonical may be omitted when nothing above needs it."""

    def __init__(
        self,
        name: str,
        pic_names: Sequence[str] = (),
        canonical: Sequence | None = None,
        dim=0,
    ):
        self.name = name
        self._pic = tuple(pic_names)
        if len(set(self._pic)) != len(self._pic):
            raise LatticeError("duplicate generator names")
        self._canonical = (
            None if canonical is None else tuple(aspoly(c) for c in canonical)
        )
        if self._canonical is not None and len(self._canonical) != len(self._pic):
            raise LatticeError("canonical has wrong length")
        self._dim = aspoly(dim)

    def pic_names(self):
        return self._pic

    def dim(self):
        return self._dim

    def canonical_coords(self):
        if self._canonical is None:
            raise MissingCanonicalError("no canonical class declared on %s" % self.name)
        return self._canonical


def lift_coords(
    src: Space, dst: Space, coords: Sequence[ParamPoly]
) -> tuple[ParamPoly, ...]:
    """Re-index coordinates from a sub-lattice into a larger one by
    generator name; missing slots are zero."""
    src_names = src.pic_names()
    dst_names = dst.pic_names()
    out = [ParamPoly()] * len(dst_names)
    for name, c in zip(src_names, coords):
        if name not in dst_names:
            raise LatticeError(
                "generator %r of %s not present on %s" % (name, src.name, dst.name)
            )
        out[dst_names.index(name)] = c
    return tuple(out)


def lift_class(d: DivClass, dst: Space) -> DivClass:
    return DivClass(dst, lift_coords(d.space, dst, d.coords))


class ProjBundle(Space):
    """Projectivization of lines in a bundle; appends the dual tautological
    generator (the subline has class minus the generator)."""

    def __init__(self, name: str, base: Space, bundle: FormalBundle, taut_name: str):
        if bundle.space is not base and bundle.space.pic_names() != base.pic_names():
            raise LatticeError("bundle does not live on the base")
        if taut_name in base.pic_names():
            raise LatticeError("generator name %r already used" % taut_name)
        self.name = name
        self.base = base
        self.bundle = bundle
        self.taut_name = taut_name

    def parents(self):
        return (self.base,)

    def pic_names(self):
        return self.base.pic_names() + (self.taut_name,)

    def dim(self):
        return self.base.dim() + self.bundle.rank - 1

    def canonical_coords(self):
        below = lift_coords(self.base, self, self.base.canonical_coords())
        rel = relative_tangent(self)
        return tuple(b - c for b, c in zip(below, rel.c1.coords))


@dataclass(frozen=True)
class RestrictionClassSpec:
    """Restriction of the exceptional divisor class to its own fiber
    directions, given as degrees on named rulings."""

    directions: tuple[str, ...]
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(aspoly(d) for d in self.degrees))
        if len(self.directions) != len(self.degrees):
            raise ValueError("directions and degrees must align")

    def degree_on(self, direction: str) -> ParamPoly:
        if direction not in self.directions:
            raise ValueError("unknown ruling %r" % direction)
        return self.degrees[self.directions.index(direction)]


@dataclass(frozen=True)
class CenterSpec:
    """Blow-up center described by its codimension and, optionally, the
    restriction of the exceptional class to the exceptional fibers."""

    codim: ParamPoly
    exc_restriction: RestrictionClassSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "codim", aspoly(self.codim))
        if not nonnegative_on_integers_from(self.codim - 1):
            raise ValueError("codimension %s is below 1 for some n >= 3" % self.codim)


class BlowUp(Space):
    def __init__(self, name: str, ambient: Space, center: CenterSpec, exc_name: str):
        if exc_name in ambient.pic_names():
            raise LatticeError("generator name %r already used" % exc_name)
        self.name = name
        self.ambient = ambient
        self.center = center
        self.exc_name = exc_name

    def parents(self):
        return (self.ambient,)

    def pic_names(self):
        return self.ambient.pic_names() + (self.exc_name,)

    def dim(self):
        return self.ambient.dim()

    def canonical_coords(self):
        below = lift_coords(self.ambient, self, self.ambient.canonical_coords())
        disc = self.gen(self.exc_name, self.center.codim - 1)
        return tuple(b + e for b, e in zip(below, disc.coords))


class FiberProduct(Space):
    """Fiber product of two towers over a common ancestor; its lattice is the
    base lattice plus both sides' extra generators."""

    def __init__(self, name: str, left: Space, right: Space, over: Space):
        for side in (left, right):
            if over not in side.ancestors():
                raise LatticeError(
                    "%s is not built over %s" % (side.name, over.name)
                )
        self.name = name
        self.left = left
        self.right = right
        self.over = over
        base_names = over.pic_names()
        left_extra = [g for g in left.pic_names() if g not in base_names]
        right_extra = [g for g in right.pic_names() if g not in base_names]
        clash = set(left_extra) & set(right_extra)
        if clash:
            raise LatticeError("generator names shared by both factors: %r" % clash)
        self._pic = tuple(base_names) + tuple(left_extra) + tuple(right_extra)

    def parents(self):
        return (self.left, self.right, self.over)

    def pic_names(self):
        return self._pic

    def dim(self):
        return self.left.dim() + self.right.dim() - self.over.dim()

    def canonical_coords(self):
        kl = lift_coords(self.left, self, self.left.canonical_coords())
        kr = lift_coords(self.right, self, self.right.canonical_coords())
        ko = lift_coords(self.over, self, self.over.canonical_coords())
        return tuple(a + b - c for a, b, c in zip(kl, kr, ko))


class DivisorIn(Space):
    """A divisor inside an ambient space, with the ambient lattice restricted
    along it (same generator names).  Canonical class by adjunction."""

    def __init__(self, name: str, ambient: Space, klass: DivClass):
        if klass.space.pic_names() != ambient.pic_names():
            raise LatticeError("divisor class lives on the wrong lattice")
        self.name = name
        self.ambient = ambient
        self.klass = klass

    def parents(self):
        return (self.ambient,)

    def pic_names(self):
        return self.ambient.pic_names()

    def dim(self):
        return self.ambient.dim() - 1

    def canonical_coords(self):
        below = self.ambient.canonical_coords()
        return tuple(b + d for b, d in zip(below, self.klass.coords))


def relative_tangent(pb: ProjBundle) -> FormalBundle:
    """Relative tangent bundle of a projective bundle: rank r - 1 and first
    Chern class r*xi + (pullback of c1 of the bundle), from the relative
    Euler sequence."""
    if not isinstance(pb, ProjBundle):
        raise TypeError("relative tangent needs a projective bundle")
    r = pb.bundle.rank
    xi = pb.gen(pb.taut_name)
    c1 = xi * r + lift_class(pb.bundle.c1, pb)
    return FormalBundle(pb, r - 1, c1, name="T(%s)" % pb.name)


def canonical_class(space: Space) -> DivClass:
    return DivClass(space, space.canonical_coords())


# ---------------------------------------------------------------------------
# bundle algebra: everything stays at the (rank, c1) level


def dual(f: FormalBundle) -> FormalBundle:
    return FormalBundle(f.space, f.rank, -f.c1, name="dual(%s)" % f.name)


def tensor_line(f: FormalBundle, line: DivClass) -> FormalBundle:
    if line.space.pic_names() != f.space.pic_names():
        raise LatticeError("twisting line on the wrong lattice")
    return FormalBundle(f.space, f.rank, f.c1 + line * f.rank, name=f.name)


def dsum(f: FormalBundle, g: FormalBundle) -> FormalBundle:
    if f.space.pic_names() != g.space.pic_names():
        raise LatticeError("summands on different spaces")
    return FormalBundle(f.space, f.rank + g.rank, f.c1 + g.c1)


def extension(sub: FormalBundle, quot: FormalBundle) -> FormalBundle:
    """Middle term of an extension; rank and c1 are additive."""
    return dsum(sub, quot)


def quotient(total: FormalBundle, sub: FormalBundle) -> FormalBundle:
    if total.space.pic_names() != sub.space.pic_names():
        raise LatticeError("quotient on different spaces")
    return FormalBundle(total.space, total.rank - sub.rank, total.c1 - sub.c1)


def sym2(f: FormalBundle) -> FormalBundle:
    r = f.rank
    return FormalBundle(f.space, r * (r + 1) * Fraction(1, 2), f.c1 * (r + 1))


def sym_power(f: FormalBundle, k: int) -> FormalBundle:
    """Symmetric power for constant-rank bundles."""
    if k < 1:
        raise ValueError("power must be >= 1")
    r = f.rank.constant_value()
    if r.denominator != 1:
        raise ValueError("rank must be an integer")
    r = int(r)
    rank_out = comb(r + k - 1, k)
    c1_mult = comb(r + k - 1, k - 1)
    return FormalBundle(f.space, aspoly(rank_out), f.c1 * c1_mult)


def wedge_top(f: FormalBundle) -> FormalBundle:
    return FormalBundle(f.space, aspoly(1), f.c1, name="det(%s)" % f.name)


def pull_to(f: FormalBundle, dst: Space) -> FormalBundle:
    return FormalBundle(dst, f.rank, lift_class(f.c1, dst), name=f.name)


# ---------------------------------------------------------------------------
# pullback maps between named lattices


@dataclass(frozen=True)
class PullbackMap:
    """Lattice map recording a pullback on divisor classes.

    Columns of the matrix are the images of the source generators expressed
    in the target basis.
    """

    name: str
    source_names: tuple[str, ...]
    target_names: tuple[str, ...]
    matrix: ExactMatrix

    def __post_init__(self):
        if self.matrix.rows != len(self.target_names) or self.matrix.cols != len(
            self.source_names
        ):
            raise LatticeError("matrix shape does not match the bases")

    def apply(self, coords: Sequence) -> tuple[ParamPoly, ...]:
        if len(coords) != len(self.source_names):
            raise LatticeError(
                "expected %d source coordinates" % len(self.source_names)
            )
        return self.matrix.apply(coords)

    def inverted(self) -> "PullbackMap":
        return PullbackMap(
            name="%s^-1" % self.name,
            source_names=self.target_names,
            target_names=self.source_names,
            matrix=matrix_inverse(self.matrix),
        )


@dataclass(frozen=True)
class TransportResult:
    names: tuple[str, ...]
    coords: tuple[ParamPoly, ...]


def transport_class(
    coords: Sequence, via: Sequence[PullbackMap], drop: Sequence[str] = ()
) -> TransportResult:
    """Push a coordinate vector through a chain of lattice maps, then forget
    the named coordinates (quotient by the ignored generators)."""
    current = tuple(aspoly(c) for c in coords)
    names: tuple[str, ...] | None = None
    for step in via:
        if names is not None and names != step.source_names:
            raise LatticeError("chain bases do not line up")
        current = step.apply(current)
        names = step.target_names
    if names is None:
        raise ValueError("empty transport chain")
    keep = [i for i, g in enumerate(names) if g not in set(drop)]
    unknown = set(drop) - set(names)
    if unknown:
        raise LatticeError("cannot drop unknown generators %r" % unknown)
    return TransportResult(
        names=tuple(names[i] for i in keep),
        coords=tuple(current[i] for i in keep),
    )
