from __future__ import annotations

import doctest
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from towercalc import exactnum
from towercalc.exactnum import (
    MAX_DEGREE,
    N_MIN,
    ExactMatrix,
    N,
    NoSolutionError,
    ParamPoly,
    UnderdeterminedError,
    _int_signs_from,
    _signs_from,
    aspoly,
    inverse,
    negative_on_integers_from,
    nonnegative_on_integers_from,
    nullspace,
    rank,
    rat_str,
    solve_linear,
    solve_linear_generic,
)

rats = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_polys = st.builds(
    lambda cs: ParamPoly({e: c for e, c in enumerate(cs)}),
    st.lists(rats, min_size=0, max_size=MAX_DEGREE + 1),
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
        with pytest.raises(ValueError, match=r"^degree 5 exceeds cap 4$"):
            ParamPoly({MAX_DEGREE + 1: 1})
        with pytest.raises(ValueError, match=r"^degree 5 exceeds cap 4$"):
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
        assert ParamPoly(p.to_coeff_strings()) == p

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


sign_coeffs = st.fractions(min_value=-12, max_value=12, max_denominator=4)
sign_polys = st.one_of(
    st.builds(
        lambda cs: ParamPoly(dict(enumerate(cs))),
        st.lists(sign_coeffs, max_size=MAX_DEGREE + 1),
    ),
    # a root at an integer r, inside the domain when r >= N_MIN
    st.builds(
        lambda r, cs: (N - r) * ParamPoly(dict(enumerate(cs))),
        st.integers(0, 15),
        st.lists(sign_coeffs, max_size=MAX_DEGREE),
    ),
)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class TestIntegerSigns:
    @given(sign_polys, st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_integer_routine_matches_the_verdicts(self, p: ParamPoly, scale: int) -> None:
        # p over a common denominator times a positive scale, padded with
        # zeros up to the degree cap
        common = math.lcm(*(c.denominator for c in p.coeffs.values())) * scale
        signs = _int_signs_from([int(p.coeff(e) * common) for e in range(MAX_DEGREE + 1)])
        assert (signs == {1}) == (_signs_from(p) == {1})
        assert (signs == {-1}) == negative_on_integers_from(p)
        assert (-1 not in signs) == nonnegative_on_integers_from(p)
        # Oracle: no root exceeds max(1, sum |a_i / a_d|) in size, so beyond
        # that p has the sign of its leading coefficient.
        lead = p.coeff(p.degree)
        reach = sum(abs(p.coeff(i) / lead) for i in range(p.degree)) if lead else 0
        window = range(N_MIN, N_MIN + math.ceil(reach) + 2)
        assert signs == {_sign(p.eval(k)) for k in window} | {_sign(lead)}


class TestSolveLinear:
    def test_diagonal_example(self) -> None:
        # hand elimination: 2x = 1, 3y = 1
        a = ExactMatrix([[2, 0], [0, 3]])
        assert solve_linear(a, [1, 1]) == (Fraction(1, 2), Fraction(1, 3))

    def test_no_solution(self) -> None:
        a = ExactMatrix([[1, 1], [1, 1]])
        with pytest.raises(NoSolutionError):
            solve_linear(a, [0, 1])

    def test_underdetermined_system_has_a_kernel(self) -> None:
        a = ExactMatrix([[1, 1], [2, 2]])
        with pytest.raises(UnderdeterminedError):
            solve_linear(a, [3, 6])
        assert nullspace(a) == ((Fraction(-1), Fraction(1)),)

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
        except UnderdeterminedError:
            flat = a.const_entries()
            for k in nullspace(a):
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
        assert (a * inverse(a)).is_identity()
        assert (inverse(a) * a).is_identity()

    def test_rank_and_nullspace(self) -> None:
        a = ExactMatrix([[1, -1, 0], [0, 0, 1]])
        assert rank(a) == 2
        assert nullspace(a) == ((Fraction(1), Fraction(1), Fraction(0)),)

    def test_rejects_ragged(self) -> None:
        with pytest.raises(ValueError, match="row 1 has 1 entries, expected 2"):
            ExactMatrix([[1, 2], [3]])


def ref_entries(cells) -> tuple:
    """Every entry of a grid as a ParamPoly."""
    return tuple(tuple(aspoly(x) for x in row) for row in cells)


def ref_product(a: tuple, b: tuple, inner: int) -> tuple:
    """Reference product of two ParamPoly grids, one ParamPoly sum per entry."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        out_row = []
        for j in range(width):
            acc = ParamPoly()
            for k in range(inner):
                acc = acc + row[k] * b[k][j]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def grids(cell, rows, cols):
    return st.lists(st.lists(cell, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


const_cells = st.one_of(st.integers(-6, 6), rats)
mixed_cells = st.one_of(st.integers(-6, 6), rats, half_polys)
vector_cells = st.one_of(st.integers(-6, 6), rats, small_polys)


def as_const_polys(cells):
    """The same grid with every constant entry as an explicit ParamPoly."""
    return [[x if isinstance(x, ParamPoly) else ParamPoly.const(x) for x in row]
            for row in cells]


@st.composite
def matrix_pair(draw, cell):
    """(cells, other, vec): a grid, a grid it can multiply, and a vector it
    can apply to."""
    r, c, k = (draw(st.integers(1, 3)) for _ in range(3))
    return (draw(grids(cell, r, c)), draw(grids(cell, c, k)),
            draw(st.lists(cell, min_size=c, max_size=c)))


class TestConstantStorage:
    """A matrix of ints or Fractions and one of explicit constant ParamPolys
    are the same matrix, and both match ParamPoly arithmetic."""

    def test_const_poly_equals_int(self) -> None:
        assert ExactMatrix([[ParamPoly.const(1)]]) == ExactMatrix([[1]])
        with pytest.raises(TypeError):
            hash(ExactMatrix([[1]]))
        assert ExactMatrix([[Fraction(4, 2), "3/6"]]).const_entries() == [
            [2, Fraction(1, 2)]
        ]
        assert type(ExactMatrix([[Fraction(4, 2)]]).const_entries()[0][0]) is int

    @given(
        matrix_pair(const_cells),
        st.lists(vector_cells, min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_param_poly_arithmetic(self, const, polys) -> None:
        cells, other, vec = const
        ref = ref_entries(cells)
        plain, as_polys = ExactMatrix(cells), ExactMatrix(as_const_polys(cells))
        for m in (plain, as_polys):
            assert m == plain
            assert ref_entries(m.const_entries()) == ref
            assert ref_entries(m.transpose().const_entries()) == tuple(zip(*ref))
            for b in (ExactMatrix(other), ExactMatrix(as_const_polys(other))):
                assert ref_entries((m * b).const_entries()) == ref_product(
                    ref, ref_entries(other), m.cols
                )
            # Oracle for apply: one plain ParamPoly dot product per row, on a
            # constant vector and on one whose entries depend on n.
            for v in (vec, polys[: m.cols]):
                assert m.apply(v) == tuple(
                    sum((x * aspoly(y) for x, y in zip(row, v)), ParamPoly())
                    for row in ref
                )

    @given(matrix_pair(const_cells), st.lists(const_cells, min_size=3, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_row_reduction_reads_the_same_rationals(self, const, rhs) -> None:
        cells = const[0]
        plain, polys = ExactMatrix(cells), ExactMatrix(as_const_polys(cells))
        assert rank(plain) == rank(polys)
        kernel = nullspace(plain)
        assert kernel == nullspace(polys)
        assert all(type(x) is Fraction for v in kernel for x in v)
        b = rhs[: plain.rows]
        outcomes = []
        for m in (plain, polys):
            try:
                solution = solve_linear(m, b)
            except UnderdeterminedError:
                outcomes.append(("underdetermined", nullspace(m)))
            except NoSolutionError:
                outcomes.append("no solution")
            else:
                assert all(type(x) is Fraction for x in solution)
                outcomes.append(solution)
        assert outcomes[0] == outcomes[1]


@st.composite
def invertible_systems(draw):
    """(A, x): a constant invertible matrix of small ints and a solution of
    degree <= MAX_DEGREE."""
    k = draw(st.integers(1, 3))
    a = ExactMatrix(draw(grids(st.integers(-4, 4), k, k)))
    assume(rank(a) == k)
    return a, draw(st.lists(small_polys, min_size=k, max_size=k))


class TestGenericSolve:
    def test_constant_system_delegates(self) -> None:
        a = ExactMatrix([[2, 0], [0, 3]])
        assert solve_linear_generic(a, [1, 1]) == (
            ParamPoly.const(Fraction(1, 2)),
            ParamPoly.const(Fraction(1, 3)),
        )

    @given(invertible_systems())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_over_a_constant_matrix(self, system) -> None:
        a, x = system
        assert solve_linear_generic(a, a.apply(x)) == tuple(x)

    def test_never_evaluates_at_a_sample_n(self, monkeypatch) -> None:
        def refuse(self, n):
            raise AssertionError("evaluated at n = %s" % n)

        monkeypatch.setattr(ParamPoly, "eval", refuse)
        a = ExactMatrix([[1, 1], [0, 2]])
        # Hand oracle: y = (n^2 - 1) / 2 from the second row, x = n - y.
        assert solve_linear_generic(a, [N, N * N - 1]) == (
            N - (N * N - 1) * Fraction(1, 2),
            (N * N - 1) * Fraction(1, 2),
        )

    @given(grids(mixed_cells, 2, 2))
    @settings(max_examples=40, deadline=None)
    def test_matrix_that_depends_on_n_is_refused(self, cells) -> None:
        # The constructor names the first entry, in row order, that depends
        # on n, so no product, row reduction or solve ever sees one.
        first = next(
            ((i, j, x) for i, row in enumerate(cells) for j, x in enumerate(row)
             if not aspoly(x).is_constant()),
            None,
        )
        assume(first is not None)
        i, j, x = first
        with pytest.raises(ValueError) as exc:
            ExactMatrix(cells)
        assert str(exc.value) == "entry [%d][%d] depends on n: %s" % (i, j, x)

    def test_diagonal_singular_at_eleven_is_refused(self) -> None:
        # diag(n - 11, 1) x = (n - 11, 2) has the unique solution (1, 2) at
        # every n except 11, where the system is underdetermined.
        with pytest.raises(ValueError, match=r"entry \[0\]\[0\] depends on n: n - 11"):
            ExactMatrix([[N - 11, 0], [0, 1]])

    def test_non_polynomial_solution_rejected(self) -> None:
        # n x = 1 has the solution 1/n, no polynomial; the matrix is refused.
        with pytest.raises(ValueError, match="depends on n"):
            ExactMatrix([[N]])

    def test_rhs_that_is_no_polynomial_identity_has_no_solution(self) -> None:
        # x = n and x = 3 agree at n = 3 only.
        with pytest.raises(NoSolutionError):
            solve_linear_generic(ExactMatrix([[1], [1]]), [N, 3])

    def test_singular_constant_matrix_is_underdetermined(self) -> None:
        with pytest.raises(UnderdeterminedError):
            solve_linear_generic(ExactMatrix([[1, 1], [2, 2]]), [N, 2 * N])

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

    def test_empty_matrices_of_different_widths_differ(self) -> None:
        assert ExactMatrix([], cols=3) != ExactMatrix([], cols=2)
        assert ExactMatrix([], cols=3) == ExactMatrix([], cols=3)
        assert ExactMatrix([], cols=3).transpose() == ExactMatrix([[]] * 3)

    def test_declared_cols_must_match(self) -> None:
        with pytest.raises(ValueError, match="row 0 has 2 entries, expected 3"):
            ExactMatrix([[1, 2]], cols=3)


def test_docstring_examples_hold() -> None:
    result = doctest.testmod(exactnum)
    assert result.attempted >= 3 and result.failed == 0


@pytest.mark.parametrize(
    "text", ["1e10000000", "1.5", "+3", " 3", "1_000", "3/-2", "\u0661"]
)
def test_only_integers_and_quotients_are_read_as_rationals(text) -> None:
    with pytest.raises(ValueError, match="not an exact number"):
        ParamPoly.const(text)
    with pytest.raises(ValueError, match="not an exact number"):
        ParamPoly({"0": text})
    with pytest.raises(ValueError, match="not an exact number"):
        ExactMatrix([[text]])


def test_rat_str_forms() -> None:
    assert rat_str(Fraction(1, 2)) == "1/2"
    assert rat_str(Fraction(-7)) == "-7"
    assert rat_str(3) == "3"


# Coefficients as a document or a caller may write them: ints, Fractions
# (integral ones included), and "p" / "p/q" strings.
written_coeffs = st.one_of(
    st.integers(-40, 40),
    rats,
    st.integers(-40, 40).map(Fraction),
    rats.map(rat_str),
)
written_polys = st.dictionaries(st.integers(0, 2), written_coeffs, max_size=3)


def assert_stored_exactly(p: ParamPoly) -> None:
    """The storage invariant: every coefficient is a nonzero int or a
    non-integral Fraction at an exponent within the cap, and the public
    readers still hand out Fractions."""
    for e, c in p.coeffs.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (e, c)
        assert c != 0 and 0 <= e <= MAX_DEGREE
    assert all(type(p.coeff(e)) is Fraction for e in range(MAX_DEGREE + 2))
    if p.is_constant():
        assert type(p.constant_value()) is Fraction
    assert all(type(p.eval(k)) is Fraction for k in (3, 10, Fraction(1, 2), "5"))


def fraction_rref(rows):
    """Reference reduced row echelon form that uses Fractions only."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


class TestIntegralStorage:
    """Integral coefficients are stored as int and others as Fractions,
    whichever way a polynomial is built; the public readers return
    Fractions."""

    @given(written_polys, written_polys, written_coeffs)
    @settings(max_examples=80, deadline=None)
    def test_every_constructor_and_ring_operation_keeps_the_invariant(self, a, b, c) -> None:
        p, q = ParamPoly(a), ParamPoly(
            {str(e): x if isinstance(x, str) else rat_str(x) for e, x in b.items()}
        )
        built = [p, q, ParamPoly.const(c), aspoly(c), aspoly(p)]
        built += [p + q, p - q, -p, p * q, p + c, c + p, p - c, c - p, p * c, c * p]
        for r in built:
            assert_stored_exactly(r)
        for n in (3, 7):
            assert (p * q - c).eval(n) == p.eval(n) * q.eval(n) - Fraction(rat_str(c))

    def test_integral_fractions_are_stored_as_int(self) -> None:
        p = ParamPoly({0: Fraction(4, 2), 1: "6/3", 2: Fraction(1, 2)})
        assert [type(p.coeffs[e]) for e in (0, 1, 2)] == [int, int, Fraction]
        # 1/2 + 1/2 and 2 * 1/2 come back to ints
        half = ParamPoly.const(Fraction(1, 2))
        assert type((half + half).coeffs[0]) is int
        assert type((2 * half).coeffs[0]) is int
        assert (half - half).coeffs == {}

    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_row_reduction_of_int_matrices_matches_a_fraction_reference(
        self, rows, cols, data
    ) -> None:
        cells = data.draw(grids(st.integers(-5, 5), rows, cols))
        got, pivots = exactnum._rref([list(row) for row in cells])
        want, want_pivots = fraction_rref(cells)
        assert pivots == want_pivots and got == want
        assert all(type(x) in (int, Fraction) for row in got for x in row)
        square = [row[:rows] for row in cells]
        if cols >= rows and fraction_rref(square)[1] == list(range(rows)):
            inv = inverse(ExactMatrix(square)).const_entries()
            aug = [row + [Fraction(int(i == j)) for j in range(rows)]
                   for i, row in enumerate(square)]
            assert inv == [row[rows:] for row in fraction_rref(aug)[0]]
            assert all(type(x) in (int, Fraction) for row in inv for x in row)


def test_integral_arithmetic_builds_no_fraction(monkeypatch) -> None:
    # A work guard that needs no clock: ring operations on ParamPolys with
    # integral coefficients, reading an integer literal, and row reduction of
    # an int matrix whose divisions are exact must stay in ints.
    p, q = 2 * N * N - 3 * N + 1, 5 - N
    a, b = ExactMatrix([[2, 4, 6], [1, 3, 5]]), ExactMatrix([[1, 2], [0, 1]])
    built = []
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    results = [p + q, p - q, -p, p * q, q * q * q, p + 3, 3 - p, 7 * q, p - 1, 2 * p * q]
    assert rank(a) == 2 and inverse(b) == ExactMatrix([[1, -2], [0, 1]])
    assert exactnum._const_value("-12") == -12 and aspoly(-12) == ParamPoly.const(-12)
    assert built == []
    assert results[3].coeffs == {0: 5, 1: -16, 2: 13, 3: -2}
    Fraction(1, 2)  # the guard does see a Fraction being made
    assert built == [(1, 2)]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ParamPoly({0: 1.5}), TypeError, "expected an exact rational, got 1.5"),
        (lambda: ParamPoly({-1: 1}), ValueError, "negative exponent -1"),
        (lambda: (N - 3).constant_value(), ValueError, "polynomial n - 3 is not constant"),
        (
            lambda: solve_linear(ExactMatrix([[1]]), [N]),
            TypeError,
            "expected an exact rational, got the polynomial n",
        ),
        (
            lambda: ExactMatrix([[1, 2]]) * ExactMatrix([[1, 2]]),
            ValueError,
            "shape mismatch 1x2 \\* 1x2",
        ),
        (lambda: inverse(ExactMatrix([[1, 2]])), ValueError, "not square"),
    ],
    ids=["float", "negative-exponent", "not-constant", "polynomial-rhs", "shapes", "not-square"],
)
def test_the_library_refuses_what_it_cannot_compute(call, error, message) -> None:
    with pytest.raises(error, match="^%s$" % message):
        call()


def test_only_a_square_matrix_is_the_identity() -> None:
    assert ExactMatrix([[1, 0]]).is_identity() is False
    assert ExactMatrix([[1, 0], [0, 1]]).is_identity() is True
