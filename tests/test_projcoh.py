from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towercalc.exactnum import ExactMatrix, rank
from towercalc.projcoh import coh_dim_product_proj, h_plane, sym_rank

CHARTS = (0, 1, 2)


@lru_cache(maxsize=None)
def _nerve_h(negative: frozenset, q: int) -> int:
    """h^q of the nerve complex on the chart subsets that contain
    ``negative``, from the ranks of its coboundary maps."""

    def cochains(p):
        return [s for s in combinations(CHARTS, p + 1) if negative <= set(s)] if p >= 0 else []

    def coboundary_rank(p):
        src, dst = cochains(p), cochains(p + 1)
        if not src or not dst:
            return 0
        return rank(ExactMatrix([
            [(-1) ** t.index(min(set(t) - set(s))) if set(s) < set(t) else 0 for s in src]
            for t in dst
        ]))

    return len(cochains(q)) - coboundary_rank(q) - coboundary_rank(q - 1)


@lru_cache(maxsize=None)
def cech_h_plane(d: int, q: int) -> int:
    """Independent oracle: h^q of O(d) on the plane from the Cech complex of
    the three standard charts, split by multidegree.  A Laurent monomial of
    degree d is a section over the chart intersection U_S exactly when its
    negative exponents lie in S, so it spans one copy of the nerve complex on
    the subsets containing them.  The monomials of the box are enumerated and
    their complexes ranked; outside it every monomial has one or two negative
    exponents, whose complexes the box shows to be acyclic."""
    box = range(-abs(d) - 3, abs(d) + 3)
    exponents = ((a, b, d - a - b) for a in box for b in box)
    return sum(_nerve_h(frozenset(i for i in CHARTS if e[i] < 0), q) for e in exponents)


class TestPlane:
    def test_frozen_values(self) -> None:
        assert h_plane(0, 0) == 1
        assert h_plane(1, 0) == 3
        assert h_plane(3, 0) == 10
        assert h_plane(-1, 0) == 0
        assert h_plane(-3, 2) == 1
        assert h_plane(-4, 2) == 3
        assert h_plane(5, 1) == 0

    def test_matches_closed_form(self) -> None:
        for d in range(-10, 11):
            for q in range(5):
                assert h_plane(d, q) == cech_h_plane(d, q), (d, q)

    def test_degree_bound(self) -> None:
        with pytest.raises(ValueError):
            h_plane(11, 0)


class TestProduct:
    def test_one_one(self) -> None:
        assert coh_dim_product_proj(1, 1, 0) == 9
        for q in (1, 2, 3, 4):
            assert coh_dim_product_proj(1, 1, q) == 0

    def test_diagonal_twists(self) -> None:
        for k in range(4):
            expect = ((k + 1) * (k + 2) // 2) ** 2
            assert coh_dim_product_proj(k, k, 0) == expect
            for q in (1, 2, 3, 4):
                assert coh_dim_product_proj(k, k, q) == 0

    def test_serre_corner(self) -> None:
        assert coh_dim_product_proj(-3, -3, 4) == 1

    @given(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-6, max_value=6),
    )
    @settings(max_examples=60)
    def test_kunneth_euler_characteristic(self, a: int, b: int) -> None:
        # chi is multiplicative across the product
        chi_a = sum((-1) ** q * h_plane(a, q) for q in range(3))
        chi_b = sum((-1) ** q * h_plane(b, q) for q in range(3))
        chi_ab = sum((-1) ** q * coh_dim_product_proj(a, b, q) for q in range(5))
        assert chi_ab == chi_a * chi_b

    def test_matches_the_cech_oracle(self) -> None:
        for a in range(-6, 7):
            for b in range(-6, 7):
                for q in range(5):
                    kunneth = sum(cech_h_plane(a, i) * cech_h_plane(b, q - i) for i in range(q + 1))
                    assert coh_dim_product_proj(a, b, q) == kunneth, (a, b, q)

    def test_q_bounds(self) -> None:
        with pytest.raises(ValueError):
            coh_dim_product_proj(1, 1, 5)


class TestSymRank:
    def test_values(self) -> None:
        assert sym_rank(3, 0) == 1
        assert sym_rank(3, 1) == 3
        assert sym_rank(3, 2) == 6
        assert sym_rank(3, 3) == 10
        assert sym_rank(2, 2) == 3

    def test_matches_section_count(self) -> None:
        # sections of the k-twist on the plane are degree-k forms in three
        # variables, which is also the k-th symmetric power of a rank-3 space
        for k in range(6):
            assert sym_rank(3, k) == cech_h_plane(k, 0)
