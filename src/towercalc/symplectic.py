"""Symplectic linear algebra local models.

Everything a fixed point of the involution needs checked locally: isotropy of
hom images, stabilizer classification for the two torus-versus-additive-group
tables, quadratic maps on ext pairs, the order-two scaling/swap action, the
normal cone quadric, and finite-field enumeration of the incidence fixed
locus.  All checks run over exact rationals or a small prime field.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import product
from typing import Sequence

from . import exactnum
from .exactnum import ExactMatrix, _const_value, nullspace, rank


class StabilizerClass(enum.Enum):
    FULL_SO_W = "full_so_w"
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"
    TRIVIAL = "trivial"


class NotInHomOmegaError(ValueError):
    """The hom's image is not isotropic, so the omega-pullback model
    does not apply."""


class SingularPairingError(ValueError):
    pass


class SymplecticSpace:
    """Even-dimensional space with a nonsingular antisymmetric gram."""

    def __init__(self, gram: ExactMatrix):
        if gram.rows != gram.cols or gram.rows % 2 != 0:
            raise ValueError("gram must be square of even size")
        if gram.transpose() != -gram:
            raise ValueError("gram must be antisymmetric")
        if rank(gram) != gram.rows:
            raise ValueError("gram must be nonsingular")
        self.gram = gram
        self._terms = _nonzero_terms(gram)

    @classmethod
    def standard(cls, m: int) -> "SymplecticSpace":
        """Dimension 2m with gram [[0, I], [-I, 0]]."""
        if m < 1:
            raise ValueError("m must be positive")
        size = 2 * m
        rows = [[0] * size for _ in range(size)]
        for i in range(m):
            rows[i][m + i] = 1
            rows[m + i][i] = -1
        return cls(ExactMatrix(rows))

    @property
    def dim(self) -> int:
        return self.gram.rows


def _nonzero_terms(gram: ExactMatrix) -> tuple[tuple[int, int, int | Fraction], ...]:
    """The (i, j, g_ij) with g_ij != 0 of a constant gram; integral entries
    are stored as int."""
    return tuple(
        (i, j, x)
        for i, row in enumerate(gram.const_entries())
        for j, x in enumerate(row)
        if x
    )


def _raw_bilinear(terms, v: Sequence, w: Sequence) -> int | Fraction:
    """sum v_i g_ij w_j over the nonzero terms of a gram, for vectors whose
    entries are already int or Fraction, with no conversion.

    A nonsingular gram has a nonzero entry in every row and column, so a
    vector shorter than the gram fails with IndexError.
    """
    return sum(v[i] * g * w[j] for i, j, g in terms)


#: Hyperbolic gram of the three-dimensional quadratic space carrying the
#: trace form of the rank-three orthogonal Lie algebra model.
HYPERBOLIC_GRAM = ExactMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


class QuadSpaceW:
    """Three-dimensional quadratic space (w1, w2, w3)."""

    def __init__(self, gram: ExactMatrix = HYPERBOLIC_GRAM):
        if gram.rows != 3 or gram.cols != 3:
            raise ValueError("W is three-dimensional")
        if gram.transpose() != gram:
            raise ValueError("gram must be symmetric")
        if rank(gram) != 3:
            raise ValueError("gram must be nonsingular")
        self.gram = gram
        self._terms = _nonzero_terms(gram)

    def kappa(self, v: Sequence, w: Sequence) -> Fraction:
        """kappa(v, w) for any rational input; integral inputs stay int until
        the one Fraction of the result."""
        v = [_const_value(x) for x in v]
        w = [_const_value(x) for x in w]
        return Fraction(_raw_bilinear(self._terms, v, w))


class HomWE:
    """Linear map W -> E, given by a constant matrix; columns are the images
    of w1, w2, w3."""

    def __init__(self, matrix: ExactMatrix):
        if matrix.cols != 3:
            raise ValueError("need exactly three columns")
        self.matrix = matrix
        self._columns = tuple(zip(*matrix.const_entries()))

    def columns(self) -> list[tuple[int | Fraction, ...]]:
        return list(self._columns)


def is_isotropic(generators: Sequence[Sequence], space: SymplecticSpace) -> bool:
    """True when the span of the generators is omega-isotropic.

    The empty list spans the zero subspace, which is isotropic.  Only pairs
    of distinct generators are paired: omega(v, v) = 0 for the antisymmetric
    gram of every SymplecticSpace.
    """
    gens = [list(map(_const_value, g)) for g in generators]
    for g in gens:
        if len(g) != space.dim:
            raise ValueError("generator length %d, expected %d" % (len(g), space.dim))
    terms = space._terms
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            if _raw_bilinear(terms, g, h) != 0:
                return False
    return True


def _perp_in_w(vectors: Sequence[Sequence[Fraction]], w_space: QuadSpaceW):
    """kappa-orthogonal complement in W of the span of the given vectors."""
    if not vectors:
        return tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(3)) for i in range(3)
        )
    g = w_space.gram.const_entries()
    rows = [[sum(v[i] * g[i][j] for i in range(3)) for j in range(3)] for v in vectors]
    return nullspace(ExactMatrix(rows))


def stabilizer_class_omega(
    phi: HomWE, w_space: QuadSpaceW, e_space: SymplecticSpace
) -> StabilizerClass:
    """Classify the stabilizer of a hom with isotropic image.

    rank 0 -> FULL_SO_W; rank >= 2 -> TRIVIAL; rank 1 splits on whether the
    kappa-orthogonal line of ker(phi) is kappa-isotropic (ADDITIVE) or not
    (MULTIPLICATIVE).
    """
    if phi.matrix.rows != e_space.dim:
        raise ValueError("hom target dimension mismatch")
    if not is_isotropic(phi.columns(), e_space):
        raise NotInHomOmegaError("image is not isotropic")
    r = rank(phi.matrix)
    if r == 0:
        return StabilizerClass.FULL_SO_W
    if r >= 2:
        return StabilizerClass.TRIVIAL
    ker = nullspace(phi.matrix)
    perp = _perp_in_w(ker, w_space)
    if len(perp) != 1:
        raise AssertionError("rank-1 hom must have a line as kernel-perp")
    v = perp[0]
    if w_space.kappa(v, v) == 0:
        return StabilizerClass.ADDITIVE
    return StabilizerClass.MULTIPLICATIVE


def yoneda_omega(phi: HomWE, e_space: SymplecticSpace) -> tuple[Fraction, Fraction, Fraction]:
    """The three coordinates (phi^* omega)(w_i, w_j) for i < j."""
    if phi.matrix.rows != e_space.dim:
        raise ValueError("hom target dimension mismatch")
    c = phi._columns
    terms = e_space._terms
    return (
        Fraction(_raw_bilinear(terms, c[0], c[1])),
        Fraction(_raw_bilinear(terms, c[0], c[2])),
        Fraction(_raw_bilinear(terms, c[1], c[2])),
    )


class ExtPair:
    """Off-diagonal ext pair (e12, e21) with a nonsingular pairing."""

    def __init__(self, e12: tuple, e21: tuple, pairing: ExactMatrix | None = None):
        self.e12 = tuple(Fraction(x) for x in e12)
        self.e21 = tuple(Fraction(x) for x in e21)
        if len(self.e12) != len(self.e21) or not self.e12:
            raise ValueError("e12 and e21 must be nonempty of equal length")
        if pairing is None:
            pairing = ExactMatrix.identity(len(self.e12))
        if pairing.rows != len(self.e12) or pairing.cols != len(self.e21):
            raise ValueError("pairing shape mismatch")
        if rank(pairing) != pairing.rows:
            raise SingularPairingError("pairing is singular")
        self.pairing = pairing

    def pair(self) -> Fraction:
        g = self.pairing.const_entries()
        k = len(self.e12)
        return sum(self.e12[i] * g[i][j] * self.e21[j] for i in range(k) for j in range(k))

    def scaled(self, lam) -> "ExtPair":
        """The scaling by lam: (lam e12, e21 / lam), same pairing, so the
        pairing value is preserved."""
        lam = Fraction(lam)
        if lam == 0:
            raise ValueError("scale factor must be nonzero")
        return ExtPair(
            tuple(lam * x for x in self.e12), tuple(x / lam for x in self.e21), self.pairing
        )

    def swapped(self) -> "ExtPair":
        """The swap: the two slots exchange and the pairing goes to minus its
        transpose (the trace pairing anticommutes), so the value is negated."""
        return ExtPair(self.e21, self.e12, -self.pairing.transpose())


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


#: The prime field of `fixed_locus_incidence`.
FIELD_PRIME = 3


def _projective_points(dim: int, p: int) -> list[tuple[int, ...]]:
    """Normalized representatives (first nonzero coordinate 1) of P^{dim-1}(F_p)."""
    pts = []
    for v in product(range(p), repeat=dim):
        lead = next((x for x in v if x != 0), 0)
        if lead == 1:
            pts.append(v)
    return pts


def fixed_locus_incidence(dim: int) -> dict:
    """Enumerate the incidence locus {([v],[w]) : omega(v, w) = 0} over F_p,
    p = FIELD_PRIME, and intersect it with the fixed locus of the swap
    ([v],[w]) -> ([w],[v]).  Returns the counts of projective points,
    incidence pairs, fixed pairs and diagonal pairs.

    The expected outcome, checked by the caller, is that the fixed pairs are
    exactly the diagonal ones; the diagonal always lies in the incidence
    locus because omega is alternating.
    """
    if dim % 2 != 0 or dim < 2 or dim > 6:
        raise ValueError("dim must be even with 2 <= dim <= 6")
    p = FIELD_PRIME
    m = dim // 2
    pts = _projective_points(dim, p)

    def omega(v, w) -> int:
        acc = 0
        for i in range(m):
            acc += v[i] * w[m + i] - v[m + i] * w[i]
        return acc % p

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

