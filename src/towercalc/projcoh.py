"""Line bundle cohomology on the projective plane and products of planes.

On the plane, h^0(O(d)) counts the degree-d monomials in three variables,
C(d + 2, 2) for d >= 0; h^1 vanishes for every d; and Serre duality with
canonical bundle O(-3) gives h^2(O(d)) = h^0(O(-d - 3)) (Hartshorne III.5.1).
Products of two planes are assembled by the Kunneth formula.  The Cech
complex on the three standard charts, which these closed forms are checked
against, lives in ``tests/test_projcoh.py``.
"""

from __future__ import annotations

from math import comb

# The twists a document may ask for; the closed forms themselves hold for
# every d, so this bounds the domain, not the work.
COH_DEGREE_BOUND = 10


def h_plane(d: int, q: int) -> int:
    """h^q of the degree-d line bundle on the plane, for q >= 0."""
    if abs(d) > COH_DEGREE_BOUND:
        raise ValueError("twist outside supported range")
    if q == 0:
        return comb(d + 2, 2) if d >= 0 else 0
    if q == 2:
        return comb(-d - 1, 2) if d <= -3 else 0
    return 0


def coh_dim_product_proj(a: int, b: int, q: int) -> int:
    """h^q of the (a, b) line bundle on the product of two planes, assembled
    by Kunneth from the plane."""
    ha, hb = [h_plane(a, i) for i in range(3)], [h_plane(b, i) for i in range(3)]
    if q < 0 or q > 4:
        raise ValueError("cohomological degree must satisfy 0 <= q <= 4")
    return sum(ha[i] * hb[q - i] for i in range(3) if 0 <= q - i <= 2)


def sym_rank(bundle_rank: int, power: int) -> int:
    """Rank of the symmetric power of a bundle of the given rank."""
    if bundle_rank < 1 or power < 0:
        raise ValueError("bad symmetric power arguments")
    return comb(bundle_rank + power - 1, power)
