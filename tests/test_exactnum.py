from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towercalc.exactnum import (
    MAX_DEGREE,
    DegreeCapError,
    ExactMatrix,
    N,
    NoSolutionError,
    ParamPoly,
    PrimeField,
    PrimeFieldConfig,
    UnderdeterminedError,
    aspoly,
    interpolate_poly,
    inverse,
    matrix_product_is_identity,
    nullspace,
    rank,
    rat_str,
    solve_linear,
    solve_linear_generic,
)
from towercalc.exactnum import LinearSolveError

rats = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_polys = st.builds(
    lambda cs: ParamPoly({e: c for e, c in enumerate(cs)}),
    st.lists(rats, min_size=0, max_size=4),
)
# degree <= 2 so products stay under the degree cap
half_polys = st.builds(
    lambda cs: ParamPoly({e: c for e, c in enumerate(cs)}),
    st.lists(rats, min_size=0, max_size=3),
)


class TestParamPoly:
    def test_no_stored_zeros(self) -> None:
        p = ParamPoly({0: 1, 1: 0, 2: Fraction(0)})
        assert p.coeffs == {0: Fraction(1)}

    def test_degree_cap(self) -> None:
        with pytest.raises(DegreeCapError):
            ParamPoly({MAX_DEGREE + 1: 1})
        with pytest.raises(DegreeCapError):
            (N * N) * (N * N) * N  # degree 5 via multiplication

    def test_str_rendering(self) -> None:
        assert str(2 * N - 4) == "2n - 4"
        assert str(1 - 2 * N) == "-2n + 1"
        assert str(ParamPoly()) == "0"
        assert str(aspoly(Fraction(-3, 2))) == "-3/2"

    def test_eval_examples(self) -> None:
        assert (2 * N - 4).eval(3) == 2
        assert (4 - 2 * N).eval(5) == -6

    def test_json_round_trip(self) -> None:
        p = ParamPoly({0: Fraction(-4), 1: Fraction(2)})
        assert p.to_coeff_strings() == {"0": "-4", "1": "2"}
        assert ParamPoly.from_coeff_strings(p.to_coeff_strings()) == p

    @given(half_polys, half_polys)
    @settings(max_examples=50)
    def test_ring_ops_match_eval(self, p: ParamPoly, q: ParamPoly) -> None:
        # evaluation is a ring homomorphism
        for n in (3, 4, 7):
            assert (p + q).eval(n) == p.eval(n) + q.eval(n)
            assert (p * q).eval(n) == p.eval(n) * q.eval(n)
            assert (p - q).eval(n) == p.eval(n) - q.eval(n)

    @given(rats, rats, rats)
    def test_rat_field_ops(self, a: Fraction, b: Fraction, c: Fraction) -> None:
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a * (1 / a) == 1

    def test_reduced_representation(self) -> None:
        x = Fraction(6, -4)
        assert (x.numerator, x.denominator) == (-3, 2)


class TestSolveLinear:
    def test_diagonal_example(self) -> None:
        # hand elimination: 2x = 1, 3y = 1
        a = ExactMatrix([[2, 0], [0, 3]])
        assert solve_linear(a, [1, 1]) == (Fraction(1, 2), Fraction(1, 3))

    def test_no_solution(self) -> None:
        a = ExactMatrix([[1, 1], [1, 1]])
        with pytest.raises(NoSolutionError):
            solve_linear(a, [0, 1])

    def test_underdetermined_carries_kernel(self) -> None:
        a = ExactMatrix([[1, 1], [2, 2]])
        with pytest.raises(UnderdeterminedError) as exc:
            solve_linear(a, [3, 6])
        assert exc.value.kernel == ((Fraction(-1), Fraction(1)),)

    @given(
        st.lists(st.lists(rats, min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(rats, min_size=3, max_size=3),
    )
    @settings(max_examples=60)
    def test_resubstitution(self, rows, x) -> None:
        a = ExactMatrix(rows)
        b = a.apply(x)
        try:
            sol = solve_linear(a, [v.constant_value() for v in b])
        except UnderdeterminedError as exc:
            flat = a.const_entries()
            for k in exc.kernel:
                assert all(
                    sum(c * kv for c, kv in zip(row, k)) == 0 for row in flat
                )
            return
        assert list(sol) == [v.constant_value() for v in a.apply(sol)] or True
        assert [v.constant_value() for v in a.apply(sol)] == [
            v.constant_value() for v in b
        ]


class TestMatrix:
    def test_product_identity(self) -> None:
        a = ExactMatrix([[1, 2], [3, 4]])
        assert matrix_product_is_identity(a, inverse(a))
        assert matrix_product_is_identity(inverse(a), a)

    def test_symbolic_product(self) -> None:
        a = ExactMatrix([[N, 1], [0, 1]])
        b = ExactMatrix([[1, 0], [2, 1]])
        assert (a * b).entries[0][0] == N + 2

    def test_rank_and_nullspace(self) -> None:
        a = ExactMatrix([[1, -1, 0], [0, 0, 1]])
        assert rank(a) == 2
        assert nullspace(a) == ((Fraction(1), Fraction(1), Fraction(0)),)

    def test_rejects_ragged(self) -> None:
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2], [3]])


class TestInterpolation:
    @given(small_polys)
    def test_recovers_poly_from_samples(self, p: ParamPoly) -> None:
        pts = [(k, p.eval(k)) for k in range(3, 3 + p.degree + 1)]
        assert interpolate_poly(pts) == p

    def test_duplicate_points_rejected(self) -> None:
        with pytest.raises(ValueError):
            interpolate_poly([(3, Fraction(1)), (3, Fraction(2))])


class TestPrimeField:
    def test_config_requires_prime(self) -> None:
        for composite in (9, 25, 49):
            with pytest.raises(ValueError):
                PrimeFieldConfig(modulus=composite)
        for prime in (2, 97):
            assert PrimeFieldConfig(modulus=prime).modulus == prime

    @given(rats, rats)
    def test_agrees_with_rational_arithmetic(self, a: Fraction, b: Fraction) -> None:
        ff = PrimeField(PrimeFieldConfig(3))
        try:
            ra, rb = ff.from_fraction(a), ff.from_fraction(b)
            rsum = ff.from_fraction(a + b)
            rprod = ff.from_fraction(a * b)
        except ZeroDivisionError:
            return
        assert ff.add(ra, rb) == rsum
        assert ff.mul(ra, rb) == rprod

    def test_inverse(self) -> None:
        ff = PrimeField(PrimeFieldConfig(3))
        assert ff.mul(2, ff.inv(2)) == 1


class TestGenericSolve:
    def test_constant_system_delegates(self) -> None:
        a = ExactMatrix([[2, 0], [0, 3]])
        assert solve_linear_generic(a, [1, 1]) == (
            ParamPoly.const(Fraction(1, 2)),
            ParamPoly.const(Fraction(1, 3)),
        )

    def test_symbolic_diagonal(self) -> None:
        # Hand oracle: diag(1, n) x = (n, n^2) has the solution (n, n).
        a = ExactMatrix([[1, 0], [0, N]])
        sol = solve_linear_generic(a, [N, N * N])
        assert sol == (N, N)

    def test_symbolic_offdiagonal(self) -> None:
        # Hand oracle: [[1, n], [0, 1]] x = (2n, 1) gives x = (n, 1).
        a = ExactMatrix([[1, N], [0, 1]])
        assert solve_linear_generic(a, [2 * N, 1]) == (N, aspoly(1))

    def test_non_polynomial_solution_rejected(self) -> None:
        a = ExactMatrix([[N]])
        with pytest.raises(LinearSolveError):
            solve_linear_generic(a, [1])

    def test_rhs_length_checked(self) -> None:
        with pytest.raises(ValueError):
            solve_linear_generic(ExactMatrix([[1]]), [1, 2])


class TestEmptyShapes:
    def test_empty_matrix(self) -> None:
        m = ExactMatrix([], cols=3)
        assert (m.rows, m.cols) == (0, 3)
        assert m.transpose().rows == 3 and m.transpose().cols == 0
        assert nullspace(m) == (
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )

    def test_declared_cols_must_match(self) -> None:
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2]], cols=3)


def test_rat_str_forms() -> None:
    assert rat_str(Fraction(1, 2)) == "1/2"
    assert rat_str(Fraction(-7)) == "-7"
    assert rat_str(3) == "3"
