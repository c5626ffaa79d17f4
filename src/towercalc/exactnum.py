"""Exact arithmetic substrate.

Rationals, sparse polynomials in one integer parameter ``n`` with an exact
decision of their sign on the integers ``n >= 3``, small exact matrices with
Gaussian elimination.  Inside the module an exact rational is stored as an
int when it is integral and as a Fraction only when it is not, so integer
arithmetic, which is all the verified towers need, builds no Fraction; the
public results (`ParamPoly.coeff`, `constant_value`, `eval`, `nullspace`,
`solve_linear`) are Fractions all the same.  Matrices hold constants only: an
entry that depends on ``n`` is a ValueError naming the entry, and a vector
that depends on ``n`` is multiplied or solved for one power of ``n`` at a
time.  Floating point is deliberately absent from this module and from
everything built on top of it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

#: Degree cap for ParamPoly.  Nothing in the verified constructions needs more,
#: and the cap fails fast on runaway symbolic growth.
MAX_DEGREE = 4


def _cap(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError("degree %d exceeds cap %d" % (degree, MAX_DEGREE))


class LinearSolveError(ValueError):
    pass


class NoSolutionError(LinearSolveError):
    """The linear system is inconsistent."""


class UnderdeterminedError(LinearSolveError):
    """The system has more than one solution."""


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _as_rat(x) -> Fraction:
    """x, an int, a Fraction or a string read by `_const_value`, as a
    Fraction."""
    if isinstance(x, ParamPoly):
        raise TypeError("expected an exact rational, got the polynomial %s" % x)
    return Fraction(_const_value(x))


def _const_value(x) -> int | Fraction | None:
    """x as an exact rational, int when it is integral; None when x is a
    ParamPoly that depends on n.  A string must be written ``-?d+`` or
    ``-?d+/d+`` in ASCII digits; any other, such as ``1e10000000``, is a
    ValueError."""
    if type(x) is int:
        return x
    if isinstance(x, ParamPoly):
        return None if x.degree else x.coeffs.get(0, 0)
    if isinstance(x, str):
        match = _RATIONAL.fullmatch(x)
        if match is None:
            raise ValueError("not an exact number: %r" % (x,))
        x = Fraction(int(match[1]), int(match[2])) if match[2] else int(match[1])
    elif not isinstance(x, (int, Fraction)):
        raise TypeError("expected an exact rational, got %r" % (x,))
    return x.numerator if x.denominator == 1 else x


class ParamPoly:
    """Polynomial in the integer parameter n with exact rational coefficients.

    Coefficients live in a sparse exponent -> int | Fraction map with no
    stored zeros: an integral coefficient is an int, any other a Fraction,
    and `coeff`, `constant_value` and `eval` return Fractions.  Instances
    are immutable by convention; all operations return new objects.

    >>> p = 2 * N - 4
    >>> p.eval(5)
    Fraction(6, 1)
    >>> str(p)
    '2n - 4'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        clean = {int(e): _as_rat(c) for e, c in dict(coeffs or {}).items()}
        if clean and min(clean) < 0:
            raise ValueError("negative exponent %d" % min(clean))
        self.coeffs = ParamPoly._of(clean).coeffs
        _cap(self.degree)

    @classmethod
    def _of(cls, coeffs: dict) -> "ParamPoly":
        """Trusted constructor: ``coeffs`` maps exponents up to MAX_DEGREE to
        exact rationals.  Drops zeros and stores integral values as int."""
        p = object.__new__(cls)
        p.coeffs = {e: _const_value(c) for e, c in coeffs.items() if c}
        return p

    @classmethod
    def const(cls, c) -> "ParamPoly":
        return cls._of({0: c if type(c) is int else _as_rat(c)})

    @classmethod
    def var(cls) -> "ParamPoly":
        return cls({1: 1})

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as degree 0."""
        return max(self.coeffs) if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return self.degree == 0

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial %s is not constant" % self)
        return Fraction(self.coeffs.get(0, 0))

    def eval(self, n) -> Fraction:
        n = n if type(n) is int else _as_rat(n)
        return Fraction(sum(c * n**e for e, c in self.coeffs.items()))

    def coeff(self, e: int) -> Fraction:
        return Fraction(self.coeffs.get(e, 0))

    def __add__(self, other) -> "ParamPoly":
        out = dict(self.coeffs)
        for e, c in aspoly(other).coeffs.items():
            out[e] = out.get(e, 0) + c
        return ParamPoly._of(out)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "ParamPoly":
        return self + (-aspoly(other))

    def __rsub__(self, other) -> "ParamPoly":
        return aspoly(other) + (-self)

    def __mul__(self, other) -> "ParamPoly":
        other = aspoly(other)
        _cap(self.degree + other.degree)
        out: dict[int, int | Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return ParamPoly._of(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                term = _rat_str(abs(c))
            else:
                mag = abs(c)
                head = "" if mag == 1 else _rat_str(mag)
                term = head + ("n" if e == 1 else "n^%d" % e)
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    def to_coeff_strings(self) -> dict[str, str]:
        """Sparse JSON form: exponent string -> coefficient string."""
        return {str(e): _rat_str(c) for e, c in sorted(self.coeffs.items())}


#: The parameter itself, for writing polynomials as expressions: 2 * N - 4.
N = ParamPoly.var()


def aspoly(x) -> ParamPoly:
    return x if isinstance(x, ParamPoly) else ParamPoly.const(x)


def _rat_str(c: int | Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def rat_str(c) -> str:
    """Serialize an exact rational as "p" or "p/q"."""
    return _rat_str(c if type(c) in (int, Fraction) else _as_rat(c))


# ---------------------------------------------------------------------------
# sign of a polynomial on the integers n >= N_MIN

#: Least value of the integer parameter n: every verified construction is
#: claimed for the integers n >= N_MIN.  Read at call time, never bound as a
#: default argument.
N_MIN = 3


def _int_signs_from(coeffs: Sequence[int]) -> set:
    """The signs (-1, 0, 1) that sum_e coeffs[e] * k^e, integer coefficients,
    takes over the integers k >= N_MIN.  Every root lies below the Cauchy
    bound 1 + max |a_i / a_d|, from which on the sign is the leading
    coefficient's; the integers below it are evaluated one by one."""
    d = len(coeffs) - 1
    while d and not coeffs[d]:
        d -= 1
    lead = coeffs[d]
    if not d:
        return {_sign(lead)}
    bound = 1 - (-max(map(abs, coeffs[:d])) // abs(lead))  # ceil, in integers
    window = range(N_MIN, max(N_MIN, bound) + 1)
    return {_sign(sum(c * k**e for e, c in enumerate(coeffs))) for k in window} | {_sign(lead)}


def _signs_from(p: ParamPoly) -> set:
    """`_int_signs_from` on p times the lcm of its denominators."""
    common = math.lcm(*(c.denominator for c in p.coeffs.values()))
    coeffs = [p.coeffs.get(e, 0) for e in range(p.degree + 1)]
    return _int_signs_from([c.numerator * (common // c.denominator) for c in coeffs])


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def negative_on_integers_from(p: ParamPoly) -> bool:
    """Exact verdict of p(k) < 0 for every integer k >= N_MIN."""
    return _signs_from(p) == {-1}


def nonnegative_on_integers_from(p: ParamPoly) -> bool:
    """Exact verdict of p(k) >= 0 for every integer k >= N_MIN."""
    return -1 not in _signs_from(p)


class ExactMatrix:
    """Dense matrix of exact rationals.

    Entries may be given as ints, Fractions, "p/q" strings or constant
    ParamPolys; they are stored as exact rationals, integral ones as int.
    The lattice maps of the verified towers are constant for every n, so an
    entry that depends on n is a ValueError naming the entry; a vector that
    depends on n goes through `apply` one power of n at a time.
    """

    __slots__ = ("rows", "cols", "_const")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        rows = [tuple(row) for row in entries]
        width = cols if cols is not None else len(rows[0]) if rows else 0
        const = []
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError("row %d has %d entries, expected %d" % (i, len(row), width))
            values = tuple(map(_const_value, row))
            if None in values:
                j = values.index(None)
                raise ValueError("entry [%d][%d] depends on n: %s" % (i, j, row[j]))
            const.append(values)
        self._const = tuple(const)
        self.rows = len(rows)
        self.cols = width

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.cols == other.cols and self._const == other._const

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        b = other._const
        out = [
            [sum(row[k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for row in self._const
        ]
        return ExactMatrix(out, cols=other.cols)

    def apply(self, vec: Sequence) -> tuple[ParamPoly, ...]:
        """Matrix times a column vector whose entries may depend on n."""
        if len(vec) != self.cols:
            raise ValueError("vector length %d, expected %d" % (len(vec), self.cols))
        return _per_power(
            vec, self.rows, lambda v: [sum(c * x for c, x in zip(row, v)) for row in self._const]
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[row[j] for row in self._const] for j in range(self.cols)], cols=self.rows
        )

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self._const)
            for j, x in enumerate(row)
        )

    def const_entries(self) -> list[list[int | Fraction]]:
        """The entries as fresh row lists of exact rationals, integral ones
        as int."""
        return [list(row) for row in self._const]


def _per_power(vec: Sequence, width: int, linear) -> tuple[ParamPoly, ...]:
    """A constant linear map on a vector that may depend on n: with v_e the
    coefficient vector of n^e in ``vec``, the sum over e of n^e
    ``linear(v_e)``, a vector of ``width`` ParamPolys.  The power n^0 is
    always mapped, so a map that checks its input sees every vector."""
    polys = [aspoly(x) for x in vec]
    powers = sorted({0}.union(*(x.coeffs for x in polys)))
    parts = [linear([x.coeffs.get(e, 0) for x in polys]) for e in powers]
    return tuple(
        ParamPoly._of({e: part[j] for e, part in zip(powers, parts)}) for j in range(width)
    )


def _rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns).

    Entries are ints and Fractions, and stay so: a row is divided only by a
    pivot other than 1, and exactly, so an integral quotient stays an int.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][c]
        if p != 1:
            rows[r] = [_quotient(x, p) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _quotient(x, y) -> int | Fraction:
    """x / y for exact rationals x and y != 0, an int when it is integral."""
    if type(x) is int and type(y) is int and not x % y:
        return x // y
    return _const_value(Fraction(x, y))


def rank(a: ExactMatrix) -> int:
    _, pivots = _rref(a.const_entries())
    return len(pivots)


def nullspace(a: ExactMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the right kernel, one vector per free column, in column order
    with the free coordinate set to 1."""
    rows, pivots = _rref(a.const_entries())
    free = [c for c in range(a.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * a.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[r][fc])
        basis.append(tuple(v))
    return tuple(basis)


def solve_linear(a: ExactMatrix, b: Sequence) -> tuple[Fraction, ...]:
    """Solve A x = b exactly over the rationals.

    Raises NoSolutionError on inconsistency and UnderdeterminedError when the
    solution is not unique.  Every returned solution is re-substituted before
    being handed back.
    """
    bvec = [_as_rat(x) for x in b]
    if len(bvec) != a.rows:
        raise ValueError("rhs length %d, expected %d" % (len(bvec), a.rows))
    aug_rows = [list(r) + [bvec[i]] for i, r in enumerate(a.const_entries())]
    rows, pivots = _rref(aug_rows)
    if a.cols in pivots:
        raise NoSolutionError("no solution")
    if len(pivots) < a.cols:
        raise UnderdeterminedError("underdetermined")
    x = [Fraction(0)] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(rows[r][a.cols])
    for i, row in enumerate(a.const_entries()):
        if sum(c * xv for c, xv in zip(row, x)) != bvec[i]:
            raise AssertionError("re-substitution failed")
    return tuple(x)


def inverse(a: ExactMatrix) -> ExactMatrix:
    if a.rows != a.cols:
        raise ValueError("not square")
    k = a.rows
    aug = [list(r) + [int(i == j) for j in range(k)]
           for i, r in enumerate(a.const_entries())]
    rows, pivots = _rref(aug)
    if pivots != list(range(k)):
        raise LinearSolveError("matrix is singular")
    return ExactMatrix([row[k:] for row in rows])


def solve_linear_generic(a: ExactMatrix, b: Sequence) -> "tuple[ParamPoly, ...]":
    """Solve A x = b for a constant A and a right-hand side that may depend on
    the parameter.

    Since A does not depend on n, one exact solve A x_e = b_e per power n^e
    of b (b_e its coefficient vector) gives x = sum_e n^e x_e, which solves
    A x = b as a polynomial identity; it is unique at every n because A has
    full column rank, else the first solve raises UnderdeterminedError.  A
    power with no solution raises NoSolutionError.
    """
    return _per_power(b, a.cols, lambda v: solve_linear(a, v))
