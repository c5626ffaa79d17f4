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

from typing import Sequence

from . import exactnum
from .exactnum import (
    ExactMatrix,
    ParamPoly,
    aspoly,
    inverse as matrix_inverse,
    nonnegative_on_integers_from,
)


class Space:
    """Common behaviour of every node in a tower.  Each constructor sets the
    generator names ``_pic`` and the dimension ``_dim`` once, and each kind
    of space defines ``canonical_coords``."""

    name: str
    _pic: tuple[str, ...]
    _dim: ParamPoly

    def pic_names(self) -> tuple[str, ...]:
        return self._pic

    def dim(self) -> ParamPoly:
        return self._dim

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
            raise ValueError("no generator %r on %s" % (name, self.name))
        coords = [ParamPoly()] * len(names)
        coords[names.index(name)] = aspoly(coeff)
        return DivClass(self, tuple(coords))

    def div(self, coords: Sequence) -> "DivClass":
        coords = tuple(aspoly(c) for c in coords)
        if len(coords) != self.pic_rank:
            raise ValueError(
                "expected %d coordinates on %s, got %d"
                % (self.pic_rank, self.name, len(coords))
            )
        return DivClass(self, coords)


class LatticeVector:
    """A vector of coordinates over the space's generator names; divisor and
    curve classes share this arithmetic.  Results keep the operand's type,
    and classes of different types are never equal."""

    def __init__(self, space: Space, coords: tuple[ParamPoly, ...]):
        self.space = space
        self.coords = coords

    def _compat(self, other: "LatticeVector") -> None:
        # Curve classes live on the dual of the divisor lattice.
        if type(other) is not type(self) or (
            self.space.pic_names() != other.space.pic_names()
        ):
            raise ValueError(
                "classes on different lattices: %s vs %s"
                % (self.space.name, other.space.name)
            )

    def __add__(self, other):
        self._compat(other)
        return type(self)(
            self.space, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._compat(other)
        return type(self)(
            self.space, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return type(self)(self.space, tuple(-a for a in self.coords))

    def __mul__(self, scalar):
        s = aspoly(scalar)
        return type(self)(self.space, tuple(a * s for a in self.coords))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.space.pic_names() == other.space.pic_names()
            and self.coords == other.coords
        )


class DivClass(LatticeVector):
    """Divisor class: coordinates over the space's generator names."""


class FormalBundle:
    """A vector bundle remembered only through its rank and first Chern
    class.  The rank must be at least 1 for every integer n >= N_MIN."""

    def __init__(self, space: Space, rank: ParamPoly, c1: DivClass):
        rank = aspoly(rank)
        if not nonnegative_on_integers_from(rank - 1):
            raise ValueError(
                "rank %s is below 1 for some n >= %d" % (rank, exactnum.N_MIN)
            )
        self.space = space
        self.rank = rank
        self.c1 = c1


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
            raise ValueError("duplicate generator names")
        self._canonical = (
            None if canonical is None else tuple(aspoly(c) for c in canonical)
        )
        if self._canonical is not None and len(self._canonical) != len(self._pic):
            raise ValueError("canonical has wrong length")
        self._dim = aspoly(dim)

    def canonical_coords(self):
        if self._canonical is None:
            raise ValueError("no canonical class declared on %s" % self.name)
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
            raise ValueError(
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
            raise ValueError("bundle does not live on the base")
        if taut_name in base.pic_names():
            raise ValueError("generator name %r already used" % taut_name)
        self.name = name
        self.base = base
        self.bundle = bundle
        self.taut_name = taut_name
        self._pic = base.pic_names() + (taut_name,)
        self._dim = base.dim() + bundle.rank - 1

    def parents(self):
        return (self.base,)

    def canonical_coords(self):
        below = lift_coords(self.base, self, self.base.canonical_coords())
        rel = relative_tangent(self)
        return tuple(b - c for b, c in zip(below, rel.c1.coords))


class BlowUp(Space):
    """Blow-up of ``ambient`` along a center of codimension ``codim``, with
    exceptional generator ``exc_name``.  The optional rulings of the
    exceptional fibers carry the degree of the exceptional class on a line
    along each of them."""

    def __init__(
        self, name: str, ambient: Space, codim, exc_name: str,
        exc_directions: tuple = (), exc_degrees: tuple = (),
    ):
        if len(exc_directions) != len(exc_degrees):
            raise ValueError("directions and degrees must align")
        if len(set(exc_directions)) != len(exc_directions):
            raise ValueError("a ruling is declared twice")
        self.codim = aspoly(codim)
        if not nonnegative_on_integers_from(self.codim - 1):
            raise ValueError(
                "codimension %s is below 1 for some n >= %d"
                % (self.codim, exactnum.N_MIN)
            )
        if exc_name in ambient.pic_names():
            raise ValueError("generator name %r already used" % exc_name)
        self.name = name
        self.ambient = ambient
        self.exc_name = exc_name
        self.exc_degrees = dict(zip(exc_directions, map(aspoly, exc_degrees)))
        self._pic = ambient.pic_names() + (exc_name,)
        self._dim = ambient.dim()

    def parents(self):
        return (self.ambient,)

    def canonical_coords(self):
        below = lift_coords(self.ambient, self, self.ambient.canonical_coords())
        disc = self.gen(self.exc_name, self.codim - 1)
        return tuple(b + e for b, e in zip(below, disc.coords))


class FiberProduct(Space):
    """Fiber product of two towers over a common ancestor; its lattice is the
    base lattice plus both sides' extra generators.  The canonical class is
    computed once, on first use: it reads all three factors, so recomputing
    it would cost 3^depth on a chain of fiber products."""

    def __init__(self, name: str, left: Space, right: Space, over: Space):
        for side in (left, right):
            if over not in side.ancestors():
                raise ValueError(
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
            raise ValueError("generator names shared by both factors: %r" % clash)
        self._pic = tuple(base_names) + tuple(left_extra) + tuple(right_extra)
        self._dim = left.dim() + right.dim() - over.dim()
        self._canonical = None

    def parents(self):
        return (self.left, self.right, self.over)

    def canonical_coords(self):
        if self._canonical is None:
            kl = lift_coords(self.left, self, self.left.canonical_coords())
            kr = lift_coords(self.right, self, self.right.canonical_coords())
            ko = lift_coords(self.over, self, self.over.canonical_coords())
            self._canonical = tuple(a + b - c for a, b, c in zip(kl, kr, ko))
        return self._canonical


class DivisorIn(Space):
    """A divisor inside an ambient space, with the ambient lattice restricted
    along it (same generator names).  Canonical class by adjunction."""

    def __init__(self, name: str, ambient: Space, klass: DivClass):
        self.name = name
        self.ambient = ambient
        self.klass = klass
        self._pic = ambient.pic_names()
        self._dim = ambient.dim() - 1

    def parents(self):
        return (self.ambient,)

    def canonical_coords(self):
        return (canonical_class(self.ambient) + self.klass).coords


def relative_tangent(pb: ProjBundle) -> FormalBundle:
    """Relative tangent bundle of a projective bundle: rank r - 1 and first
    Chern class r*xi + (pullback of c1 of the bundle), from the relative
    Euler sequence."""
    if not isinstance(pb, ProjBundle):
        raise TypeError("relative tangent needs a projective bundle")
    r = pb.bundle.rank
    xi = pb.gen(pb.taut_name)
    c1 = xi * r + lift_class(pb.bundle.c1, pb)
    return FormalBundle(pb, r - 1, c1)


def canonical_class(space: Space) -> DivClass:
    return DivClass(space, space.canonical_coords())


# ---------------------------------------------------------------------------
# bundle algebra: everything stays at the (rank, c1) level


def dual(f: FormalBundle) -> FormalBundle:
    return FormalBundle(f.space, f.rank, -f.c1)


def tensor_line(f: FormalBundle, line: DivClass) -> FormalBundle:
    return FormalBundle(f.space, f.rank, f.c1 + line * f.rank)


def extension(sub: FormalBundle, quot: FormalBundle) -> FormalBundle:
    """Middle term of an extension; rank and c1 are additive."""
    return FormalBundle(sub.space, sub.rank + quot.rank, sub.c1 + quot.c1)


def quotient(total: FormalBundle, sub: FormalBundle) -> FormalBundle:
    return FormalBundle(total.space, total.rank - sub.rank, total.c1 - sub.c1)


def pull_to(f: FormalBundle, dst: Space) -> FormalBundle:
    return FormalBundle(dst, f.rank, lift_class(f.c1, dst))


# ---------------------------------------------------------------------------
# pullback maps between named lattices


class PullbackMap:
    """Lattice map recording a pullback on divisor classes.

    Columns of the matrix are the images of the source generators expressed
    in the target basis.
    """

    def __init__(
        self,
        name: str,
        source_names: tuple[str, ...],
        target_names: tuple[str, ...],
        matrix: ExactMatrix,
    ):
        if matrix.rows != len(target_names) or matrix.cols != len(source_names):
            raise ValueError("matrix shape does not match the bases")
        self.name = name
        self.source_names = source_names
        self.target_names = target_names
        self.matrix = matrix

    def inverted(self) -> "PullbackMap":
        return PullbackMap(
            name="%s^-1" % self.name,
            source_names=self.target_names,
            target_names=self.source_names,
            matrix=matrix_inverse(self.matrix),
        )


def transport_class(
    coords: Sequence, via: Sequence[PullbackMap], drop: Sequence[str] = ()
) -> dict:
    """Push a coordinate vector through a chain of lattice maps, then forget
    the named coordinates (quotient by the ignored generators).  Returns the
    kept generator names and their coordinates."""
    current = tuple(aspoly(c) for c in coords)
    names: tuple[str, ...] | None = None
    for step in via:
        if names is not None and names != step.source_names:
            raise ValueError("chain bases do not line up")
        current = step.matrix.apply(current)
        names = step.target_names
    if names is None:
        raise ValueError("empty transport chain")
    keep = [i for i, g in enumerate(names) if g not in set(drop)]
    unknown = set(drop) - set(names)
    if unknown:
        raise ValueError("cannot drop unknown generators %r" % unknown)
    return {
        "names": tuple(names[i] for i in keep),
        "coords": tuple(current[i] for i in keep),
    }
