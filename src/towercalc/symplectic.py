"""Symplectic linear algebra local models.

Everything a fixed point of the involution needs checked locally: isotropy of
hom images, stabilizer classification for the two torus-versus-additive-group
tables, quadratic maps on ext pairs, the order-two scaling/swap action, the
normal cone quadric, and finite-field enumeration of the incidence fixed
locus.  All checks run over exact rationals or a small prime field.

The forms are fixed: E = F^6 carries the standard symplectic form omega with
gram [[0, I], [-I, 0]], W = F^3 the hyperbolic form kappa(v, w) = v1 w3 +
v2 w2 + v3 w1, and an ext pair is paired by the dot product, which the swap
negates.  A hom W -> E is its 6 x 3 constant matrix, columns the images of
w1, w2, w3.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from . import exactnum
from .exactnum import ExactMatrix, _const_value, nullspace, rank


class StabilizerClass(enum.Enum):
    FULL_SO_W = "full_so_w"
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"
    TRIVIAL = "trivial"


def _omega(v: Sequence, w: Sequence) -> int | Fraction:
    """The standard symplectic form on E = F^6, with gram [[0, I], [-I, 0]],
    for vectors whose entries are already int or Fraction.  A vector shorter
    than six fails with IndexError."""
    return (
        v[0] * w[3] + v[1] * w[4] + v[2] * w[5]
        - v[3] * w[0] - v[4] * w[1] - v[5] * w[2]
    )


def _kappa(v: Sequence, w: Sequence) -> int | Fraction:
    """The hyperbolic form v1 w3 + v2 w2 + v3 w1 on W = F^3, the trace form
    of the rank-three orthogonal Lie algebra model."""
    return v[0] * w[2] + v[1] * w[1] + v[2] * w[0]


def is_isotropic(generators: Sequence[Sequence]) -> bool:
    """True when the span of the generators is omega-isotropic in E.

    The empty list spans the zero subspace, which is isotropic.  Only pairs
    of distinct generators are paired: omega(v, v) = 0 as omega is
    antisymmetric.
    """
    gens = [list(map(_const_value, g)) for g in generators]
    for g in gens:
        if len(g) != 6:
            raise ValueError("generator length %d, expected 6" % len(g))
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if _omega(g, h) != 0:
                return False
    return True


def _hom_columns(phi: ExactMatrix) -> tuple[tuple[int | Fraction, ...], ...]:
    """The images of w1, w2, w3 under a hom W -> E, given as its 6 x 3
    constant matrix."""
    if (phi.rows, phi.cols) != (6, 3):
        raise ValueError(
            "a hom W -> E is a 6 x 3 matrix, got %d x %d" % (phi.rows, phi.cols)
        )
    return tuple(zip(*phi.const_entries()))


def _perp_in_w(vectors: Sequence[Sequence[Fraction]]):
    """kappa-orthogonal complement in W of the span of the given vectors:
    kappa's gram applied to a vector reverses it."""
    return nullspace(ExactMatrix([v[::-1] for v in vectors], cols=3))


def stabilizer_class_omega(phi: ExactMatrix) -> StabilizerClass:
    """Classify the stabilizer of a hom W -> E with isotropic image.

    rank 0 -> FULL_SO_W; rank >= 2 -> TRIVIAL; rank 1 splits on whether the
    kappa-orthogonal line of ker(phi) is kappa-isotropic (ADDITIVE) or not
    (MULTIPLICATIVE).
    """
    if not is_isotropic(_hom_columns(phi)):
        raise ValueError("image is not isotropic")
    r = rank(phi)
    if r == 0:
        return StabilizerClass.FULL_SO_W
    if r >= 2:
        return StabilizerClass.TRIVIAL
    perp = _perp_in_w(nullspace(phi))
    if len(perp) != 1:
        raise AssertionError("rank-1 hom must have a line as kernel-perp")
    v = perp[0]
    if _kappa(v, v) == 0:
        return StabilizerClass.ADDITIVE
    return StabilizerClass.MULTIPLICATIVE


def yoneda_omega(phi: ExactMatrix) -> tuple[Fraction, Fraction, Fraction]:
    """The three coordinates (phi^* omega)(w_i, w_j) for i < j of a hom
    W -> E, given as its 6 x 3 constant matrix."""
    c = _hom_columns(phi)
    return (
        Fraction(_omega(c[0], c[1])),
        Fraction(_omega(c[0], c[2])),
        Fraction(_omega(c[1], c[2])),
    )


class ExtPair:
    """Off-diagonal ext pair (e12, e21), paired by ``sign`` (1 or -1) times
    the dot product."""

    def __init__(self, e12: tuple, e21: tuple, sign: int = 1):
        self.e12 = tuple(Fraction(x) for x in e12)
        self.e21 = tuple(Fraction(x) for x in e21)
        if len(self.e12) != len(self.e21) or not self.e12:
            raise ValueError("e12 and e21 must be nonempty of equal length")
        self.sign = sign

    def pair(self) -> Fraction:
        return self.sign * sum(a * b for a, b in zip(self.e12, self.e21))

    def scaled(self, lam) -> "ExtPair":
        """The scaling by lam: (lam e12, e21 / lam), same sign, so the
        pairing value is preserved."""
        lam = Fraction(lam)
        if lam == 0:
            raise ValueError("scale factor must be nonzero")
        return ExtPair(
            tuple(lam * x for x in self.e12), tuple(x / lam for x in self.e21), self.sign
        )

    def swapped(self) -> "ExtPair":
        """The swap: the two slots exchange and the pairing goes to minus its
        transpose (the trace pairing anticommutes), which for +-I is a sign
        flip, so the value is negated."""
        return ExtPair(self.e21, self.e12, -self.sign)


def yoneda_sigma(pair: ExtPair) -> tuple[Fraction, Fraction]:
    """(alpha, beta) with beta = <e12, e21> and alpha = -beta.

    Membership in the zero locus of the quadratic model is exactly beta == 0.
    """
    beta = pair.pair()
    return (-beta, beta)


def stabilizer_class_sigma(pair: ExtPair) -> StabilizerClass:
    both_zero = all(x == 0 for x in pair.e12) and all(x == 0 for x in pair.e21)
    return StabilizerClass.MULTIPLICATIVE if both_zero else StabilizerClass.TRIVIAL


def normal_cone_quadric() -> dict:
    """Quadric cut out by the standard ext pairing q(e12, e21) = <e12, e21>
    on the 4n-4 coordinates of an off-diagonal ext pair, for every n: its
    number of variables, its rank, whether it is smooth in projective space
    (full rank) and that space's dimension, as polynomials in n.

    q is the orthogonal sum of 2n-2 hyperbolic planes, one per coordinate
    pair (e12_i, e21_i), so its rank is 2n-2 times the rank of one plane's
    gram [[0, 1/2], [1/2, 0]].  Full rank 4n-4 means the projectivized cone
    is a cone over a smooth quadric.
    """
    half = Fraction(1, 2)
    planes = 2 * exactnum.N - 2
    nvars = 2 * planes
    r = planes * rank(ExactMatrix([[0, half], [half, 0]]))
    return {"nvars": nvars, "rank": r, "smooth": r == nvars, "ambient_dim": nvars - 1}


def _f3_vectors(dim: int) -> list[tuple[int, ...]]:
    """The vectors of F_3^dim in order of their integer codes: vector number
    k has the base-3 digits of k, most significant first."""
    return list(product(range(3), repeat=dim))


def _projective_points(dim: int) -> list[tuple[int, ...]]:
    """Normalized representatives (first nonzero coordinate 1) of P^{dim-1}(F_3)."""
    return [v for v in _f3_vectors(dim) if next((x for x in v if x), 0) == 1]


@lru_cache(maxsize=None)
def fixed_locus_incidence(dim: int) -> dict:
    """Enumerate the incidence locus {([v],[w]) : omega(v, w) = 0} over F_3
    and intersect it with the fixed locus of the swap
    ([v],[w]) -> ([w],[v]).  Returns the counts of projective points,
    incidence pairs, fixed pairs and diagonal pairs.

    The expected outcome, checked by the caller, is that the fixed pairs are
    exactly the diagonal ones; the diagonal always lies in the incidence
    locus because omega is alternating.  Memoized like the census functions:
    every caller gets the same dict, which it must not mutate.
    """
    if dim % 2 != 0 or dim < 2 or dim > 6:
        raise ValueError("dim must be even with 2 <= dim <= 6")
    m = dim // 2
    pts = _projective_points(dim)

    def omega(v, w) -> int:
        acc = 0
        for i in range(m):
            acc += v[i] * w[m + i] - v[m + i] * w[i]
        return acc % 3

    incidence = fixed = 0
    for v in pts:
        for w in pts:
            if omega(v, w) == 0:
                incidence += 1
                if v == w:
                    fixed += 1
    return {
        "dim": dim,
        "projective_points": len(pts),
        "incidence_pairs": incidence,
        "fixed_pairs": fixed,
        "diagonal_pairs": len(pts),
        "fixed_equals_diagonal": fixed == len(pts),
    }

