"""Scalar arithmetic over the four supported coefficient rings.

A scalar is an immutable value in exactly one ring:

* ``ExactInteger``   -- arbitrary-precision signed integer (Python ``int``).
* ``ExactRational``  -- ``fractions.Fraction``, always in lowest terms with
  a positive denominator.
* ``ApproxReal``     -- a ``float`` together with the zero-tolerance of the
  computation it belongs to; ``is_zero`` means ``|value| < tolerance``.
* ``Polynomial``     -- univariate polynomial with ``Fraction`` coefficients,
  stored densely lowest degree first with no trailing zeros (the zero
  polynomial is the empty coefficient tuple).

Arithmetic never mixes rings: combining scalars of different types raises
``RingMismatch`` instead of coercing.  The one place a promotion is allowed
is matrix-file parsing (see ``matrix.parse_matrix``), which happens before
any computation starts.

Exact division is the operation everything downstream leans on.  For
integers and polynomials the divisor must divide exactly; a nonzero
remainder raises ``InexactDivision``, which deliberately surfaces instead of
being masked by a silent switch to rationals (an inexact division means a
logic bug or an unhandled interior zero upstream).

The condensation stage kernel does not compute on these wrappers.  A
``NativeRing`` describes one matrix's ring, and the kernel works on native
values: ``int``, ``Fraction`` and ``float``, and ``Polynomial`` objects
themselves.  A real matrix then has one zero tolerance, the largest among its
entries, where scalar arithmetic gives each result the larger tolerance of its
two operands.  The two agree when every entry has the same tolerance, which
``parse_matrix`` always gives.  With mixed tolerances, every stage entry and
the determinant carry the matrix's tolerance, and every zero test and division
warning of the kernel uses it: a divisor below that tolerance counts as zero,
and forces a restart, even where the tolerances of its own operands are
smaller.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

DEFAULT_TOLERANCE = 1e-9


class RingMismatch(TypeError):
    """Arithmetic attempted between scalars of different rings."""


class DivisionByZero(ZeroDivisionError):
    """Exact division with a zero divisor (zero per the ring's is_zero)."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class InexactDivision(ArithmeticError):
    """Integer or polynomial division left a nonzero remainder."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class Scalar:
    """Base class for ring elements.  Values are immutable."""

    __slots__ = ()
    ring = "abstract"

    def _same_ring(self, other):
        if type(self) is not type(other):
            raise RingMismatch(
                f"cannot combine {self.ring} with "
                f"{getattr(other, 'ring', type(other).__name__)}"
            )

    def exact_div(self, other):
        raise NotImplementedError

    def is_zero(self):
        raise NotImplementedError

    def from_int(self, k: int):
        """A constant of this scalar's ring (used to build row-op factors)."""
        raise NotImplementedError


class ExactInteger(Scalar):
    __slots__ = ("value",)
    ring = "integer"

    def __init__(self, value: int):
        self.value = int(value)

    def __add__(self, other):
        self._same_ring(other)
        return ExactInteger(self.value + other.value)

    def __sub__(self, other):
        self._same_ring(other)
        return ExactInteger(self.value - other.value)

    def __mul__(self, other):
        self._same_ring(other)
        return ExactInteger(self.value * other.value)

    def __neg__(self):
        return ExactInteger(-self.value)

    def exact_div(self, other):
        self._same_ring(other)
        if other.value == 0:
            raise DivisionByZero("integer division by zero")
        q, r = divmod(self.value, other.value)
        if r != 0:
            raise InexactDivision(f"{other.value} does not divide {self.value}")
        return ExactInteger(q)

    def is_zero(self):
        return self.value == 0

    def from_int(self, k):
        return ExactInteger(k)

    def __eq__(self, other):
        return isinstance(other, ExactInteger) and self.value == other.value

    def __hash__(self):
        return hash(("int", self.value))

    def __repr__(self):
        return f"ExactInteger({self.value})"


class ExactRational(Scalar):
    __slots__ = ("value",)
    ring = "rational"

    def __init__(self, numerator, denominator=1):
        # Fraction keeps lowest terms and a positive denominator for us.
        self.value = Fraction(numerator, denominator)

    @classmethod
    def _wrap(cls, frac):
        out = cls.__new__(cls)
        out.value = frac
        return out

    def __add__(self, other):
        self._same_ring(other)
        return ExactRational._wrap(self.value + other.value)

    def __sub__(self, other):
        self._same_ring(other)
        return ExactRational._wrap(self.value - other.value)

    def __mul__(self, other):
        self._same_ring(other)
        return ExactRational._wrap(self.value * other.value)

    def __neg__(self):
        return ExactRational._wrap(-self.value)

    def exact_div(self, other):
        self._same_ring(other)
        if other.value == 0:
            raise DivisionByZero("rational division by zero")
        return ExactRational._wrap(self.value / other.value)

    def is_zero(self):
        return self.value == 0

    def from_int(self, k):
        return ExactRational(k)

    def __eq__(self, other):
        return isinstance(other, ExactRational) and self.value == other.value

    def __hash__(self):
        return hash(("rat", self.value))

    def __repr__(self):
        return f"ExactRational({self.value.numerator}, {self.value.denominator})"


class ApproxReal(Scalar):
    """Double-precision value with the zero-tolerance of its computation."""

    __slots__ = ("value", "tolerance")
    ring = "real"

    def __init__(self, value: float, tolerance: float = DEFAULT_TOLERANCE):
        self.value = float(value)
        self.tolerance = float(tolerance)

    def _tol(self, other):
        return max(self.tolerance, other.tolerance)

    def __add__(self, other):
        self._same_ring(other)
        return ApproxReal(self.value + other.value, self._tol(other))

    def __sub__(self, other):
        self._same_ring(other)
        return ApproxReal(self.value - other.value, self._tol(other))

    def __mul__(self, other):
        self._same_ring(other)
        return ApproxReal(self.value * other.value, self._tol(other))

    def __neg__(self):
        return ApproxReal(-self.value, self.tolerance)

    def exact_div(self, other):
        self._same_ring(other)
        if other.is_zero():
            raise DivisionByZero("real division by (near-)zero")
        return ApproxReal(self.value / other.value, self._tol(other))

    def is_zero(self):
        return abs(self.value) < self.tolerance

    def from_int(self, k):
        return ApproxReal(float(k), self.tolerance)

    def __eq__(self, other):
        return isinstance(other, ApproxReal) and self.value == other.value

    def __hash__(self):
        return hash(("real", self.value))

    def __repr__(self):
        return f"ApproxReal({self.value!r}, tolerance={self.tolerance!r})"


class Polynomial(Scalar):
    """Dense univariate polynomial over the rationals.

    ``coeffs`` is a tuple of ``Fraction``, lowest degree first, with no
    trailing zeros; ``()`` is the zero polynomial.
    """

    __slots__ = ("coeffs",)
    ring = "polynomial"

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other):
        self._same_ring(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other):
        self._same_ring(other)
        a, b = self.coeffs, other.coeffs
        out = list(a) + [Fraction(0)] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return Polynomial(out)

    def __mul__(self, other):
        self._same_ring(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Polynomial(out)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def exact_div(self, other):
        self._same_ring(other)
        if not other.coeffs:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        lead = den[-1]
        q = [Fraction(0)] * max(len(rem) - dd, 0)
        for k in range(len(rem) - dd - 1, -1, -1):
            factor = rem[k + dd] / lead
            q[k] = factor
            if factor:
                for i, c in enumerate(den):
                    rem[k + i] -= factor * c
        if any(c != 0 for c in rem[:dd]):
            raise InexactDivision("polynomial division left a remainder")
        return Polynomial(q)

    def is_zero(self):
        return not self.coeffs

    def from_int(self, k):
        return Polynomial([k])

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("poly", self.coeffs))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            body = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            mag = abs(c)
            if mag == 1 and body:
                term = body
            elif body:
                term = f"{_frac_str(mag)}*{body}"
            else:
                term = _frac_str(mag)
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


class NativeRing(NamedTuple):
    """One matrix's ring, for arithmetic on native values.

    The stage kernel computes on ``int``, ``Fraction`` and ``float`` values,
    and on ``Polynomial`` objects themselves, rather than on one ``Scalar``
    wrapper per entry.  ``unwrap(rows)`` gives the native rows of a matrix,
    ``wrap(value)`` the scalar of one native value, and
    ``divide_row(row, divisors, i)`` the entrywise exact quotients of row i;
    a failing division raises ``DivisionByZero`` or ``InexactDivision`` with
    the message ``exact_div`` gives and position (i, j) of the first failing
    entry.  ``tolerance`` is the zero tolerance of a real matrix, else None.
    """

    unwrap: Callable
    wrap: Callable
    divide_row: Callable
    tolerance: float | None = None


def native_ring(rows) -> NativeRing:
    """The ``NativeRing`` of a nonempty sequence of rows of scalars.

    Raises RingMismatch when the scalars belong to more than one ring, so
    unwrapped values never mix rings.  A real matrix gets one tolerance, the
    largest among its entries.
    """
    first = rows[0][0]
    kind = type(first)
    for r in rows:
        for e in r:
            if type(e) is not kind:
                first._same_ring(e)
    if kind is ExactInteger:
        return NativeRing(_values, ExactInteger, _divide_integers)
    if kind is ExactRational:
        return NativeRing(_values, ExactRational._wrap, _divide_rationals)
    if kind is ApproxReal:
        tol = max(e.tolerance for r in rows for e in r)
        return NativeRing(
            _values, lambda v: ApproxReal(v, tol), _real_divider(tol), tol
        )
    if kind is Polynomial:
        return NativeRing(_same, _same, _divide_polynomials)
    raise TypeError(f"not a scalar: {first!r}")


def _values(rows):
    return [[e.value for e in r] for r in rows]


def _same(x):
    return x


def _divide_integers(row, divisors, i):
    # every quotient at once; only a failure walks the row to its first failing entry
    try:
        qr = [divmod(x, d) for x, d in zip(row, divisors)]
        exact = [q for q, r in qr if not r]
        if len(exact) == len(qr):
            return exact
    except ZeroDivisionError:
        pass
    for j, (x, d) in enumerate(zip(row, divisors)):
        if d == 0:
            raise DivisionByZero("integer division by zero", (i, j))
        if x % d:
            raise InexactDivision(f"{d} does not divide {x}", (i, j))


def _divide_rationals(row, divisors, i):
    try:
        return [x / d for x, d in zip(row, divisors)]
    except ZeroDivisionError:
        raise DivisionByZero("rational division by zero", (i, divisors.index(0))) from None


def _real_divider(tol):
    def divide_row(row, divisors, i):
        for j, d in enumerate(divisors):
            if abs(d) < tol:
                raise DivisionByZero("real division by (near-)zero", (i, j))
        return [x / d for x, d in zip(row, divisors)]

    return divide_row


def _divide_polynomials(row, divisors, i):
    out = []
    for j, (x, d) in enumerate(zip(row, divisors)):
        try:
            out.append(x.exact_div(d))
        except (DivisionByZero, InexactDivision) as e:
            raise type(e)(str(e), (i, j)) from e
    return out


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_scalar(token: str, tolerance: float = DEFAULT_TOLERANCE) -> Scalar:
    """Parse one scalar token.

    ``p/q`` is rational, anything with a ``.`` or an exponent is real,
    otherwise a (signed) integer.  Polynomials have no text syntax; they are
    only ever built programmatically.
    """
    token = token.strip()
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            return ExactRational(int(num), int(den))
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"bad rational token {token!r}") from e
    if "." in token or "e" in token or "E" in token:
        try:
            return ApproxReal(float(token), tolerance)
        except ValueError as e:
            raise ValueError(f"bad real token {token!r}") from e
    try:
        return ExactInteger(int(token))
    except ValueError as e:
        raise ValueError(f"bad integer token {token!r}") from e


def format_scalar(a: Scalar) -> str:
    """Render a scalar in the text syntax ``parse_scalar`` reads.

    Rationals always print ``p/q`` (even for q = 1) so the ring survives a
    round-trip; reals use ``repr`` which keeps a ``.`` or exponent.
    """
    if isinstance(a, ExactInteger):
        return str(a.value)
    if isinstance(a, ExactRational):
        return f"{a.value.numerator}/{a.value.denominator}"
    if isinstance(a, ApproxReal):
        return repr(a.value)
    if isinstance(a, Polynomial):
        return str(a)
    raise TypeError(f"not a scalar: {a!r}")
