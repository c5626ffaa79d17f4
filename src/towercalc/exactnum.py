"""Exact arithmetic substrate.

Rationals, sparse polynomials in one integer parameter ``n`` with an exact
decision of their sign on the integers ``n >= 3``, small exact matrices with
Gaussian elimination, and the prime-field configuration of the brute-force
enumeration oracles.  Floating point is deliberately absent from this module
and from everything built on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Rat = Fraction

#: Degree cap for ParamPoly.  Nothing in the verified constructions needs more,
#: and the cap fails fast on runaway symbolic growth.
MAX_DEGREE = 4


class DegreeCapError(ValueError):
    pass


class LinearSolveError(ValueError):
    pass


class NoSolutionError(LinearSolveError):
    """The linear system is inconsistent."""


class UnderdeterminedError(LinearSolveError):
    """The system has more than one solution; carries a kernel basis."""

    def __init__(self, message: str, kernel: tuple):
        super().__init__(message)
        self.kernel = kernel


def _as_rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("expected an exact rational, got %r" % (x,))


class ParamPoly:
    """Polynomial in the integer parameter n with exact rational coefficients.

    Coefficients live in a sparse exponent -> Fraction map with no stored
    zeros.  Instances are immutable by convention; all operations return new
    objects.

    >>> p = 2 * N - 4
    >>> p.eval(5)
    Fraction(6, 1)
    >>> str(p)
    '2n - 4'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, object] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                e = int(e)
                if e < 0:
                    raise ValueError("negative exponent %d" % e)
                c = _as_rat(c)
                if c != 0:
                    clean[e] = c
        if clean and max(clean) > MAX_DEGREE:
            raise DegreeCapError(
                "degree %d exceeds cap %d" % (max(clean), MAX_DEGREE)
            )
        self.coeffs = clean

    @classmethod
    def const(cls, c) -> "ParamPoly":
        return cls({0: _as_rat(c)})

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
        return self.coeffs.get(0, Fraction(0))

    def eval(self, n) -> Fraction:
        n = _as_rat(n)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * n**e
        return total

    def coeff(self, e: int) -> Fraction:
        return self.coeffs.get(e, Fraction(0))

    def __add__(self, other) -> "ParamPoly":
        other = aspoly(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return ParamPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "ParamPoly":
        return self + (-aspoly(other))

    def __rsub__(self, other) -> "ParamPoly":
        return aspoly(other) + (-self)

    def __mul__(self, other) -> "ParamPoly":
        other = aspoly(other)
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return ParamPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self):
        return "ParamPoly(%r)" % (self.coeffs,)

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

    @classmethod
    def from_coeff_strings(cls, d: Mapping[str, str]) -> "ParamPoly":
        return cls({int(e): Fraction(c) for e, c in d.items()})


#: The parameter itself, for writing polynomials as expressions: 2 * N - 4.
N = ParamPoly.var()


def aspoly(x) -> ParamPoly:
    if isinstance(x, ParamPoly):
        return x
    return ParamPoly.const(_as_rat(x))


def _rat_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def rat_str(c) -> str:
    """Serialize an exact rational as "p" or "p/q"."""
    return _rat_str(_as_rat(c))


# ---------------------------------------------------------------------------
# sign of a polynomial on the integers from a start value on

#: First parameter value the verified constructions are claimed for.
SIGN_SAMPLE_START = 3


def _signs_from(p: ParamPoly, start: int) -> set:
    """The signs (-1, 0, 1) that p(k) takes over the integers k >= start.

    Every root of p lies below the Cauchy bound 1 + max |a_i / a_d|, so from
    the bound on p has the sign of its leading coefficient; the integers
    below it are evaluated one by one.
    """
    if p.is_constant():
        return {_sign(p.constant_value())}
    d = p.degree
    lead = p.coeff(d)
    bound = 1 + max(abs(p.coeff(i) / lead) for i in range(d))
    window = range(start, max(start, math.ceil(bound)) + 1)
    return {_sign(p.eval(k)) for k in window} | {_sign(lead)}


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def negative_on_integers_from(p: ParamPoly, start: int = SIGN_SAMPLE_START) -> bool:
    """Exact verdict of p(k) < 0 for every integer k >= start."""
    return _signs_from(p, start) == {-1}


def positive_on_integers_from(p: ParamPoly, start: int = SIGN_SAMPLE_START) -> bool:
    """Exact verdict of p(k) > 0 for every integer k >= start."""
    return _signs_from(p, start) == {1}


def nonnegative_on_integers_from(p: ParamPoly, start: int = SIGN_SAMPLE_START) -> bool:
    """Exact verdict of p(k) >= 0 for every integer k >= start."""
    return -1 not in _signs_from(p, start)


class ExactMatrix:
    """Dense matrix with ParamPoly entries (constants included).

    Row-reduction style algorithms require constant entries; purely algebraic
    operations (product, transpose, identity comparison) work symbolically.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        rows = [tuple(aspoly(x) for x in row) for row in entries]
        width = len(rows[0]) if rows else (cols or 0)
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != width:
            raise ValueError("declared column count %d does not match %d"
                             % (cols, width))
        self.entries = tuple(rows)
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def identity(cls, k: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "ExactMatrix(%s)" % (
            [[str(x) for x in row] for row in self.entries],
        )

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = ParamPoly()
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return ExactMatrix(out, cols=other.cols)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length %d, expected %d" % (len(vec), self.cols))
        vec = [aspoly(v) for v in vec]
        out = []
        for i in range(self.rows):
            acc = ParamPoly()
            for k in range(self.cols):
                acc = acc + self.entries[i][k] * vec[k]
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                want = 1 if i == j else 0
                if self.entries[i][j] != want:
                    return False
        return True

    def is_constant(self) -> bool:
        return all(x.is_constant() for row in self.entries for x in row)

    def const_entries(self) -> list[list[Fraction]]:
        if not self.is_constant():
            raise ValueError("matrix has symbolic entries; evaluate first")
        return [[x.constant_value() for x in row] for row in self.entries]

    def eval_at(self, n) -> "ExactMatrix":
        return ExactMatrix(
            [[x.eval(n) for x in row] for row in self.entries], cols=self.cols
        )

    def to_lists(self):
        """Entries as nested lists of coefficient strings or plain strings."""
        out = []
        for row in self.entries:
            out.append([_rat_str(x.constant_value()) if x.is_constant()
                        else x.to_coeff_strings() for x in row])
        return out


def matrix_product_is_identity(a: ExactMatrix, b: ExactMatrix) -> bool:
    return (a * b).is_identity()


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
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
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(a: ExactMatrix) -> int:
    _, pivots = _rref([list(r) for r in a.const_entries()])
    return len(pivots)


def nullspace(a: ExactMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Basis of the right kernel, one vector per free column, in column order
    with the free coordinate set to 1."""
    rows, pivots = _rref([list(r) for r in a.const_entries()])
    free = [c for c in range(a.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * a.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def solve_linear(a: ExactMatrix, b: Sequence) -> tuple[Fraction, ...]:
    """Solve A x = b exactly over the rationals.

    Raises NoSolutionError on inconsistency and UnderdeterminedError (carrying
    a kernel basis) when the solution is not unique.  Every returned solution
    is re-substituted before being handed back.
    """
    bvec = [_as_rat(x) for x in b]
    if len(bvec) != a.rows:
        raise ValueError("rhs length %d, expected %d" % (len(bvec), a.rows))
    aug_rows = [list(r) + [bvec[i]] for i, r in enumerate(a.const_entries())]
    rows, pivots = _rref(aug_rows)
    if a.cols in pivots:
        raise NoSolutionError("no solution")
    if len(pivots) < a.cols:
        raise UnderdeterminedError("underdetermined", kernel=nullspace(a))
    x = [Fraction(0)] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][a.cols]
    for i, row in enumerate(a.const_entries()):
        if sum(c * xv for c, xv in zip(row, x)) != bvec[i]:
            raise AssertionError("re-substitution failed")
    return tuple(x)


def inverse(a: ExactMatrix) -> ExactMatrix:
    if a.rows != a.cols:
        raise ValueError("not square")
    k = a.rows
    aug = [list(r) + [Fraction(1 if i == j else 0) for j in range(k)]
           for i, r in enumerate(a.const_entries())]
    rows, pivots = _rref(aug)
    if pivots != list(range(k)):
        raise LinearSolveError("matrix is singular")
    return ExactMatrix([row[k:] for row in rows])


GENERIC_SAMPLE_START = 3


def solve_linear_generic(a: ExactMatrix, b: Sequence) -> "tuple[ParamPoly, ...]":
    """Solve A x = b where entries may depend on the parameter.

    Constant systems go straight to the rational solver.  Symbolic systems are
    solved at MAX_DEGREE+1 integer parameter values starting at 3, each
    coordinate is interpolated, and the result is re-substituted at two fresh
    parameter values; a mismatch there means the solution is not polynomial
    within the degree cap and is reported as a LinearSolveError.
    """
    bvec = [aspoly(x) for x in b]
    if len(bvec) != a.rows:
        raise ValueError("rhs length %d, expected %d" % (len(bvec), a.rows))
    if a.is_constant() and all(x.is_constant() for x in bvec):
        sol = solve_linear(a, [x.constant_value() for x in bvec])
        return tuple(ParamPoly.const(c) for c in sol)
    samples = list(range(GENERIC_SAMPLE_START, GENERIC_SAMPLE_START + MAX_DEGREE + 1))
    per_point = [
        solve_linear(a.eval_at(n), [x.eval(n) for x in bvec]) for n in samples
    ]
    coords = [
        interpolate_poly([(n, per_point[i][j]) for i, n in enumerate(samples)])
        for j in range(a.cols)
    ]
    last = samples[-1]
    for n in (last + 1, last + 2):
        check = solve_linear(a.eval_at(n), [x.eval(n) for x in bvec])
        if tuple(c.eval(n) for c in coords) != check:
            raise LinearSolveError(
                "solution is not polynomial within the degree cap"
            )
    return tuple(coords)


def interpolate_poly(points: Sequence[tuple[int, Fraction]]) -> ParamPoly:
    """Lagrange interpolation through exact sample points.

    Used for the generic-in-n policy: compute at degree+1 concrete values of n
    and reassemble the polynomial.  Degree cap applies.
    """
    if not points:
        raise ValueError("need at least one point")
    xs = [p[0] for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate sample points")
    total = ParamPoly()
    for i, (xi, yi) in enumerate(points):
        term = ParamPoly.const(_as_rat(yi))
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = term * ParamPoly({0: Fraction(-xj, 1), 1: 1})
            term = term * Fraction(1, xi - xj)
        total = total + term
    for x, y in points:
        if total.eval(x) != _as_rat(y):
            raise AssertionError("interpolation re-substitution failed")
    return total


@dataclass(frozen=True)
class PrimeFieldConfig:
    """Configuration for brute-force enumeration over a small prime field."""

    modulus: int = 3

    def __post_init__(self):
        m = self.modulus
        if m < 2 or any(m % d == 0 for d in range(2, math.isqrt(m) + 1)):
            raise ValueError("modulus %d is not prime" % m)
