"""Line bundle cohomology on the projective plane and products of planes.

Dimensions are computed from the monomial-graded Cech complex on the three
standard affine charts.  A Laurent monomial contributes to the chart
intersection U_S exactly when its negative-exponent set is contained in S, so
the complex splits by multidegree into one tiny nerve complex per sign
pattern.  Those eight pattern complexes are row-reduced honestly (exact
rational ranks); multidegrees are then counted combinatorially per pattern.
Products are assembled by the Kunneth formula.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .exactnum import ExactMatrix, rank

_CHARTS = (0, 1, 2)

COH_DEGREE_BOUND = 10


def _subsets(size: int):
    return list(combinations(_CHARTS, size))


@lru_cache(maxsize=None)
def _pattern_cohomology(pattern: frozenset) -> tuple[int, int, int]:
    """h^0, h^1, h^2 of the nerve complex on chart subsets containing
    ``pattern``, computed by exact rank of the Cech differentials."""
    levels = []
    for size in (1, 2, 3):
        levels.append([s for s in _subsets(size) if pattern <= set(s)])

    def differential(src, dst) -> ExactMatrix | None:
        if not src or not dst:
            return None
        rows = []
        for t in dst:
            row = []
            for s in src:
                entry = Fraction(0)
                missing = set(t) - set(s)
                if len(missing) == 1 and set(s) <= set(t):
                    (i,) = missing
                    entry = Fraction((-1) ** t.index(i))
                row.append(entry)
            rows.append(row)
        return ExactMatrix(rows)

    d0 = differential(levels[0], levels[1])
    d1 = differential(levels[1], levels[2])
    r0 = rank(d0) if d0 is not None else 0
    r1 = rank(d1) if d1 is not None else 0
    h0 = len(levels[0]) - r0
    h1 = len(levels[1]) - r0 - r1
    h2 = len(levels[2]) - r1
    return (h0, h1, h2)


def _pattern_count(pattern: frozenset, d: int) -> int | None:
    """Number of multidegrees summing to d whose negative coordinates are
    exactly those in ``pattern``: coordinates in the pattern are <= -1 and the
    rest are >= 0.  None means the count is infinite."""
    k = len(pattern)
    if 0 < k < 3:
        return None
    if k == 0:
        return comb(d + 2, 2) if d >= 0 else 0
    # all three negative: substitute e_i' = -1 - e_i
    s = -3 - d
    return comb(s + 2, 2) if s >= 0 else 0


def cech_h_plane(d: int, q: int) -> int:
    """h^q of the degree-d line bundle on the plane."""
    if abs(d) > COH_DEGREE_BOUND:
        raise ValueError("degree %d outside supported range" % d)
    if q < 0:
        raise ValueError("negative cohomological degree")
    if q > 2:
        return 0
    total = 0
    for k in range(4):
        for pattern in combinations(_CHARTS, k):
            pat = frozenset(pattern)
            h = _pattern_cohomology(pat)[q]
            count = _pattern_count(pat, d)
            if count is None:
                if h != 0:
                    raise AssertionError(
                        "unbounded pattern %r with nonzero cohomology" % (pat,)
                    )
                continue
            total += count * h
    return total


def coh_dim_product_proj(a: int, b: int, q: int) -> int:
    """h^q of the (a, b) line bundle on the product of two planes, assembled
    by Kunneth from the plane computations."""
    if abs(a) > COH_DEGREE_BOUND or abs(b) > COH_DEGREE_BOUND:
        raise ValueError("twist outside supported range")
    if q < 0 or q > 4:
        raise ValueError("cohomological degree must satisfy 0 <= q <= 4")
    return sum(
        cech_h_plane(a, i) * cech_h_plane(b, q - i)
        for i in range(q + 1)
        if q - i <= 2 and i <= 2
    )


def sym_rank(bundle_rank: int, power: int) -> int:
    """Rank of the symmetric power of a bundle of the given rank."""
    if bundle_rank < 1 or power < 0:
        raise ValueError("bad symmetric power arguments")
    return comb(bundle_rank + power - 1, power)
