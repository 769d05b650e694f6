"""Scalar arithmetic over the four supported coefficient rings.

A scalar is an immutable value in exactly one ring:

* ``ExactInteger``   -- arbitrary-precision signed integer (Python ``int``).
* ``ExactRational``  -- ``fractions.Fraction``, always in lowest terms with
  a positive denominator.
* ``ApproxReal``     -- a ``float``.  The reals have one zero rule,
  ``abs(x) < DEFAULT_TOLERANCE``, so ``is_zero`` means the value is below
  1e-9 in magnitude, an exact 0.0 included.
* ``Polynomial``     -- univariate polynomial with rational coefficients,
  stored densely lowest degree first with no trailing zeros (the zero
  polynomial is the empty coefficient tuple).  A coefficient is an ``int``
  where integral and a ``Fraction`` otherwise, so the integer polynomials
  the Hückel matrices give compute in plain ``int``; ``repr``, ``==`` and
  ``hash`` do not depend on which type holds a coefficient.

Arithmetic never mixes rings: combining scalars of different types raises
``RingMismatch`` instead of coercing.  The one place a promotion is allowed
is matrix-file parsing (see ``matrix.parse_matrix``), which happens before
any computation starts.

Exact division is the operation everything downstream leans on.  For
integers and polynomials the divisor must divide exactly; a nonzero
remainder raises ``InexactDivision``, which deliberately surfaces instead of
being masked by a silent switch to rationals (an inexact division means a
logic bug or an unhandled interior zero upstream).

Each ring's rules are stated once.  ``integer_quotient``,
``rational_quotient`` and ``real_quotient`` are the number rings' exact
quotients, and ``Polynomial.exact_div`` the polynomial one: each holds its
ring's zero-divisor test and division messages.  ``_real_zero`` is the one
zero rule of the reals.  Each is its ring's per-entry ``NativeRing.quotient``,
which a scalar's ``exact_div`` and ``bareiss_det`` call.  The kernel form has
one division rule, ``kernel_quotient``: ``real_quotient`` on the reals and
``integer_quotient`` on every other ring, whose kernel form is integers.
The stage kernel and ``oracle._bareiss`` take that per-entry quotient; given
``integer_quotient`` they check each quotient as they form it, with
``divmod``, and call it only on a row where one fails, to raise its error.
The number scalars share their arithmetic, ``==`` and ``hash`` through
``_Number``, and ``native_ring`` is the one check that entries share a ring.
Each ring's text rule on native values, ``NativeRing.text``, is stated once
too; every printer and ``format_scalar`` apply it, and rationals print
``p/q`` even for q = 1.

Nothing on the hot path computes on these wrappers.  A ``Matrix`` holds
native ``int``, ``Fraction``, ``float`` or ``Polynomial`` values with their
``NativeRing``, and wraps them only where a public API returns a scalar.
Each ring is one fixed ``NativeRing``: ``INTEGERS``, ``RATIONALS``, ``REALS``
and ``POLYNOMIALS``.  ``NativeRing.is_zero`` is the ring's zero test on one
value, ``not x`` on the exact rings and the real zero rule on ``REALS``;
``Matrix.zeros``, the zero set mitigation reads, additive repair's re-tests
on the kernel form and the pivot test of ``oracle._bareiss``, the oracle's
and the fallback's elimination, use it, and the kernel's real zero stop
applies the same rule to a whole stage, so a real scalar and a real matrix
judge zeros alike.

The kernel form.  Condensation divides exactly only in an integral domain,
so the stage kernel runs every exact ring on the integers, and the reals as
they are.  A ``KernelForm`` holds the rows the kernel runs on, the row
scales L_i or None, and the packing width W or None.  A ring's ``encode``
builds it from native rows and its ``decode`` reads native rows back; a
``Matrix`` builds either form from the other at most once.  A form rotates
its rows with their scales (``KernelForm.rotated``); only this module and
additive repair read its scales or its width.

* Integers and reals: the native rows, with no scales and no width.
* Rationals: row i times L_i, the lcm of its denominators, by the one
  clearing rule, ``_cleared_rows``; ``matrix.parse_matrix`` reads a rational
  file straight into this form, with no ``Fraction`` per entry.
* Polynomials: cleared by the same rule, a row's coefficients counting as
  its entries (with no pass and no scales when every coefficient is an
  ``int``, as in the Hückel matrices), then packed by Kronecker
  substitution: f becomes the int f(2^W) (``pack_polynomial``), read back
  from its balanced base-2^W digits (``unpack_polynomial``).  The one width
  rule, ``_packing_width``, bounds every coefficient of every minor below
  2^(W - 1), so each unpacks exactly and a packed zero test is exact.

Evaluation at 2^W is a ring homomorphism, and stage k entry (i, j) is the
connected minor on rows i .. i + k, so the kernel run's is L_i ... L_{i+k}
times the native one, evaluated: the zeros, and with them mitigation,
restarts and the op counts, are the native run's, and every division is
still checked.  ``KernelForm.decoded`` divides a stage by those products.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import islice, repeat
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
    """Base class for ring elements.  Values are immutable.

    Every scalar has ``+``, ``-``, ``*``, unary ``-``, ``exact_div`` and
    ``is_zero``; its operands must come from its own ring.
    """

    __slots__ = ()
    ring = "abstract"

    def _same_ring(self, other):
        if type(self) is not type(other):
            raise RingMismatch(
                f"cannot combine {self.ring} with "
                f"{getattr(other, 'ring', type(other).__name__)}"
            )


def integer_quotient(x: int, d: int) -> int:
    """x / d over the integers; d must divide x."""
    if d == 0:
        raise DivisionByZero("integer division by zero")
    q, r = divmod(x, d)
    if r:
        raise InexactDivision(f"{d} does not divide {x}")
    return q


def rational_quotient(x: Fraction, d: Fraction) -> Fraction:
    if d == 0:
        raise DivisionByZero("rational division by zero")
    return x / d


def _real_zero(x: float) -> bool:
    """The real zero rule: x is zero when it is below ``DEFAULT_TOLERANCE``
    in magnitude."""
    return abs(x) < DEFAULT_TOLERANCE


def real_quotient(x: float, d: float) -> float:
    """x / d, where a divisor that the real zero rule counts as zero raises."""
    if _real_zero(d):
        raise DivisionByZero("real division by (near-)zero")
    return x / d


class _Number(Scalar):
    """A scalar holding one native number ``value``.

    A ring gives its constructor and ``repr``; ``is_zero`` and ``exact_div``
    are the zero test and the quotient of the ring's ``NativeRing``.
    """

    __slots__ = ("value",)

    @classmethod
    def _result(cls, value):
        out = cls.__new__(cls)
        out.value = value
        return out

    def is_zero(self):
        return _RINGS[type(self)].is_zero(self.value)

    def __add__(self, other):
        self._same_ring(other)
        return self._result(self.value + other.value)

    def __sub__(self, other):
        self._same_ring(other)
        return self._result(self.value - other.value)

    def __mul__(self, other):
        self._same_ring(other)
        return self._result(self.value * other.value)

    def __neg__(self):
        return self._result(-self.value)

    def exact_div(self, other):
        self._same_ring(other)
        return self._result(_RINGS[type(self)].quotient(self.value, other.value))

    def __eq__(self, other):
        return type(other) is type(self) and self.value == other.value

    def __hash__(self):
        return hash((self.ring, self.value))


class ExactInteger(_Number):
    __slots__ = ()
    ring = "integer"

    def __init__(self, value: int):
        self.value = int(value)

    def __repr__(self):
        return f"ExactInteger({_int_text(self.value)})"


class ExactRational(_Number):
    __slots__ = ()
    ring = "rational"

    def __init__(self, numerator, denominator=1):
        # Fraction keeps lowest terms and a positive denominator for us.
        self.value = Fraction(numerator, denominator)

    def __repr__(self):
        v = self.value
        return f"ExactRational({_int_text(v.numerator)}, {_int_text(v.denominator)})"


class ApproxReal(_Number):
    """Double-precision value; zero by the real zero rule."""

    __slots__ = ()
    ring = "real"

    def __init__(self, value: float):
        self.value = float(value)

    def __repr__(self):
        return f"ApproxReal({self.value!r}, tolerance={DEFAULT_TOLERANCE!r})"


class Polynomial(Scalar):
    """Dense univariate polynomial over the rationals.

    ``coeffs`` is a tuple of coefficients, lowest degree first, with no
    trailing zeros; ``()`` is the zero polynomial.  A coefficient is an
    ``int`` where integral and a ``Fraction`` otherwise.  The constructor
    converts each coefficient once and arithmetic does not re-check them: a
    result computed from ``int`` coefficients holds a ``Fraction`` only where
    a quotient coefficient is not integral, and one computed from
    ``Fraction`` coefficients may hold an integral ``Fraction``.  ``repr``,
    ``==`` and ``hash`` depend on the values only, not on which type holds
    them.  Only the zero polynomial is falsy.
    """

    __slots__ = ("coeffs",)
    ring = "polynomial"

    def __init__(self, coeffs=()):
        self.coeffs = _trimmed([_coefficient(c) for c in coeffs])

    @classmethod
    def _result(cls, cs):
        """The polynomial of the list ``cs`` of ``int`` and ``Fraction``
        coefficients, which only has its trailing zeros stripped."""
        out = cls.__new__(cls)
        out.coeffs = _trimmed(cs)
        return out

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other):
        self._same_ring(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return self._result(out)

    def __sub__(self, other):
        self._same_ring(other)
        a, b = self.coeffs, other.coeffs
        out = [x - y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        out.extend(-y for y in b[len(a):])
        return self._result(out)

    def __mul__(self, other):
        self._same_ring(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._result([])
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        return self._result(out)

    def __neg__(self):
        return self._result([-c for c in self.coeffs])

    def exact_div(self, other):
        self._same_ring(other)
        if not other.coeffs:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        lead = den[-1]
        q = [0] * max(len(rem) - dd, 0)
        for k in range(len(rem) - dd - 1, -1, -1):
            top = rem[k + dd]
            if top:
                factor, r = divmod(top, lead)
                if r:
                    factor = Fraction(top, lead)
                q[k] = factor
                for i, c in enumerate(den, k):
                    rem[i] -= factor * c
        if any(rem[:dd]):
            raise InexactDivision("polynomial division left a remainder")
        return self._result(q)

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("poly", self.coeffs))

    def __repr__(self):
        # an int coefficient c has c.numerator == c and c.denominator == 1
        cs = (f"Fraction({_int_text(c.numerator)}, {_int_text(c.denominator)})" for c in self.coeffs)
        return f"Polynomial([{', '.join(cs)}])"

    def __str__(self):
        return terms_text(self.coeffs, lambda k: power_text("x", k))


def _width_error(width: int) -> ValueError:
    # at width 1 the balanced digit of 1 is -1, which would leave an
    # unpacked value unchanged forever
    return ValueError(f"packing width must be at least 2, got {width}")


def pack_polynomial(coeffs, width: int) -> int:
    """f(2^width) for the integer coefficients ``coeffs`` of f, lowest degree
    first.  A width below 2 raises ValueError, as ``unpack_polynomial`` does."""
    if width < 2:
        raise _width_error(width)
    value = 0
    for c in reversed(coeffs):
        value = (value << width) + c
    return value


def unpack_polynomial(value: int, width: int, scale: int = 1) -> Polynomial:
    """The polynomial f / scale, where f(2^width) = ``value``.

    f's coefficients are read as the balanced base-2^width digits of
    ``value``, in [-2^(width - 1), 2^(width - 1)), which gives f exactly when
    each of them is below 2^(width - 1) in magnitude.  A nonzero f with
    coefficients below 2^width in magnitude packs to a nonzero int, so a
    packed zero test is exact under that bound.  A width below 2 has no
    balanced digits that end the reading, and raises ValueError.
    """
    if width < 2:
        raise _width_error(width)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    cs = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= 1 << width
        cs.append(digit)
        value = (value - digit) >> width
    if scale == 1:
        return Polynomial._result(cs)
    return Polynomial([Fraction(c, scale) for c in cs])


class KernelForm(NamedTuple):
    """The rows the condensation kernel runs on, with the row scales L_i or
    None, and the packing width W or None (see the module docstring)."""

    rows: tuple
    scales: tuple | None = None
    width: int | None = None

    def rotated(self, r: int, c: int) -> "KernelForm":
        """These rows rotated up by r and left by c, each keeping its scale."""
        rows, scales = self.rows, self.scales
        rows = [row[c:] + row[:c] for row in rows[r:] + rows[:r]]
        return KernelForm(rows, scales and scales[r:] + scales[:r], self.width)

    def decoded(self, decode: Callable, stage, k: int):
        """Stage k of a kernel run on these rows as native rows, by a ring's
        ``decode``: its row i is L_i ... L_{i+k} times the native one."""
        scales = self.scales and [math.prod(self.scales[i : i + k + 1]) for i in range(len(stage))]
        return decode(stage, scales, self.width)


def _cleared_rows(rows):
    """The one clearing rule: rational rows as integer rows, row i times
    L_i, the lcm of its reduced denominators; returns the rows and the L_i.

    Each row comes as its numerators and denominators, which need not be
    reduced or positive; a zero denominator raises ZeroDivisionError.  The
    lcm L' of the given denominators is a multiple of L_i, and the gcd of L'
    and the row times L' is L' / L_i: a prime power that divides L_i exactly
    leaves some entry of the row times L_i prime to it.  So the row is
    scaled by L', and both are divided by that gcd.
    """
    cleared, scales = [], []
    for nums, dens in rows:
        scale = math.lcm(*dens)
        row = [p * (scale // q) for p, q in zip(nums, dens)]
        g = math.gcd(scale, *row)
        if g > 1:
            scale //= g
            row = [v // g for v in row]
        cleared.append(tuple(row))
        scales.append(scale)
    return tuple(cleared), tuple(scales)


def _cleared_rationals(rows) -> KernelForm:
    fractions = (([x.numerator for x in r], [x.denominator for x in r]) for r in rows)
    return KernelForm(*_cleared_rows(fractions))


def _rational_rows(rows, scales, width):
    return tuple(tuple([Fraction(v, s) for v in r]) for r, s in zip(rows, scales))


def _packing_width(bounds) -> int:
    """The one width rule: one more than the bit length of prod_i max(1, b_i),
    b_i bounding the sum over cleared row i of |.|_1, a polynomial's sum of
    coefficient magnitudes.  That product bounds every coefficient of every
    minor, whose terms each take one entry from distinct rows, so every
    stage entry and every intermediate of ``oracle.elimination_det`` unpacks
    exactly at W or wider, and a packed divisor or pivot is 0 exactly when
    the polynomial is."""
    return math.prod(max(1, b) for b in bounds).bit_length() + 1


def _packed_rows(rows, stretch=1):
    """Polynomial rows as their kernel form, cleared by ``_cleared_rows``
    unless every coefficient is an ``int``, a row's coefficients counting as
    its entries, then packed at ``stretch`` times the width rule's W; and
    the |.|_1 sum of each of its rows."""
    coeffs = [[p.coeffs for p in r] for r in rows]
    scales = None
    if not all(type(c) is int for r in coeffs for cs in r for c in cs):
        flat, scales, _ = _cleared_rationals([[c for cs in r for c in cs] for r in coeffs])
        coeffs = [[list(islice(it, len(cs))) for cs in r] for it, r in zip(map(iter, flat), coeffs)]
    bounds = [sum(abs(c) for p in r for c in p) for r in coeffs]
    width = stretch * _packing_width(bounds)
    packed = tuple(tuple([pack_polynomial(p, width) for p in r]) for r in coeffs)
    return KernelForm(packed, scales, width), bounds


def _repacked(rows, width: int, bounds):
    """Rows packed at ``width``, whose entries' coefficients are below
    2^(width - 1) in magnitude, as lists packed at the width rule's W for
    the row bounds ``bounds``; and that W."""
    new = _packing_width(bounds)
    repack = lambda v: pack_polynomial(unpack_polynomial(v, width).coeffs, new)
    return [list(map(repack, r)) for r in rows], new


def _unpacked_rows(rows, scales, width):
    scaled = zip(rows, scales or repeat(1))
    return tuple(tuple([unpack_polynomial(v, width, s) for v in r]) for r, s in scaled)


def _coefficient(c):
    """A polynomial coefficient: an ``int`` when integral, else a ``Fraction``."""
    if type(c) is int:
        return c
    f = c if isinstance(c, Fraction) else Fraction(c)
    return f.numerator if f.denominator == 1 else f


def _trimmed(cs) -> tuple:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _frac_str(f: Fraction | int) -> str:
    num = _int_text(f.numerator)
    return num if f.denominator == 1 else f"{num}/{_int_text(f.denominator)}"


def power_text(base: str, k: int) -> list:
    """The text factors of base^k: none for k = 0."""
    return [] if k == 0 else [base if k == 1 else f"{base}^{k}"]


def terms_text(coeffs, factors) -> str:
    """The sum of c_k times the factors ``factors(k)``, highest degree first.

    Zero terms are skipped, a unit magnitude is dropped where a term has
    factors, and the sign is written ``-t`` first and `` + t``/`` - t`` after.
    """
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        fs = factors(k)
        term = "*".join(fs if abs(c) == 1 and fs else [_frac_str(abs(c)), *fs])
        if parts:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
        else:
            parts.append(term if c > 0 else f"-{term}")
    return " ".join(parts) or "0"


# Integers and text convert in halves split at a power of ten where the
# interpreter's int/str digit limit (4300 digits by default) refuses them;
# the limit is interpreter-wide, so it is left as it is.


def _int_text(v: int) -> str:
    """``str(v)``, for any number of digits."""
    try:
        return str(v)
    except ValueError:
        if v < 0:
            return "-" + _int_text(-v)
        m = v.bit_length() * 3 // 20  # about half the digits
        high, low = divmod(v, 10**m)
        return _int_text(high) + _int_text(low).zfill(m)


def plain_token(text: str) -> bool:
    """The token rule: a matrix token is ASCII and holds no ``_``.

    ``int`` and ``float`` also read ``_`` between digits and non-ASCII
    digits, but only up to the interpreter's digit limit; the rule makes a
    token's reading independent of its length."""
    return text.isascii() and "_" not in text


def _text_int(text: str) -> int:
    """``int(text)``, for any number of plain decimal digits; a text that
    breaks the token rule (``plain_token``) or holds whitespace, which
    ``int`` strips, raises ValueError."""
    if not plain_token(text) or text != text.strip():
        raise ValueError(f"not a plain decimal integer: {text!r}")
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[:1] in ("+", "-") else text
        if not (digits.isascii() and digits.isdigit()):
            raise
        m = len(digits) // 2
        value = _text_int(digits[:-m]) * 10**m + _text_int(digits[-m:])
        return -value if text[0] == "-" else value


def _fraction_text(f: Fraction) -> str:
    return f"{_int_text(f.numerator)}/{_int_text(f.denominator)}"


class NativeRing(NamedTuple):
    """One ring, for arithmetic on native values; each is a module constant.

    ``unwrap(rows)`` gives the native rows of rows of scalars, where scalars
    come in, and ``wrap(value)`` the scalar of one native value, where one
    goes out.  ``text(value)`` is one native value in the text syntax
    ``parse_scalar`` reads.  ``constant(x)`` is x as a native value, for an
    ``int`` x or, on the three number rings, a native value of the ring, by
    which ``parse_matrix`` promotes a file's values and a logged repair factor
    k is read.  ``encode(rows)`` is the ``KernelForm`` of native rows, and
    ``decode(rows, scales, width)`` the native rows of kernel rows packed at
    ``width``, row i being scales[i] times the native one (1 when ``scales``
    is None).  ``quotient(x, d)`` is the exact quotient of two native values,
    which raises ``DivisionByZero`` or ``InexactDivision`` when it fails; the
    kernel form divides by ``kernel_quotient(ring)``.  ``is_zero(x)`` is the
    ring's zero test, on a native value or a kernel one: ``not x`` on the
    exact rings, and the real zero rule on ``REALS``.
    """

    unwrap: Callable
    wrap: Callable
    constant: Callable
    text: Callable
    quotient: Callable = integer_quotient
    is_zero: Callable = operator.not_
    encode: Callable = KernelForm
    decode: Callable = lambda rows, scales, width: rows


def native_ring(rows) -> NativeRing:
    """The ``NativeRing`` of a nonempty sequence of rows of scalars.

    Raises TypeError when the entries are not scalars, and RingMismatch when
    they belong to more than one ring, so unwrapped values never mix rings.
    """
    first = rows[0][0]
    kind = type(first)
    ring = _RINGS.get(kind)
    if ring is None:
        raise TypeError(f"entries must be scalars, got {kind.__name__}")
    for r in rows:
        for e in r:
            if type(e) is not kind:
                first._same_ring(e)
    return ring


def _values(rows):
    return tuple(tuple([e.value for e in r]) for r in rows)


INTEGERS = NativeRing(_values, ExactInteger._result, int, _int_text)
RATIONALS = NativeRing(
    _values, ExactRational._result, Fraction, _fraction_text,
    quotient=rational_quotient, encode=_cleared_rationals, decode=_rational_rows,
)
REALS = NativeRing(
    _values, ApproxReal._result, float, repr,
    quotient=real_quotient, is_zero=_real_zero,
)
# a polynomial scalar is its own native value
POLYNOMIALS = NativeRing(
    tuple, lambda p: p, lambda k: Polynomial._result([k]), str,
    quotient=Polynomial.exact_div, decode=_unpacked_rows,
    encode=lambda rows: _packed_rows(rows)[0],
)
_RINGS = {
    ExactInteger: INTEGERS, ExactRational: RATIONALS, ApproxReal: REALS, Polynomial: POLYNOMIALS
}


def kernel_quotient(ring: NativeRing) -> Callable:
    """The exact quotient of ``ring``'s kernel form: ``real_quotient`` on
    ``REALS``, whose kernel form is its floats, and ``integer_quotient`` on
    every other ring, whose kernel form is integers."""
    return real_quotient if ring is REALS else integer_quotient


def parse_scalar(token: str) -> Scalar:
    """Parse one scalar token.

    ``p/q`` is rational, anything with a ``.`` or an exponent is real,
    otherwise a (signed) integer.  A real must be finite as a double.  Every
    token keeps the token rule, ``plain_token``: ASCII, with no ``_``.
    Polynomials have no text syntax; they are only ever built
    programmatically.
    """
    token = token.strip()
    if "/" in token:
        num, _, den = token.partition("/")
        try:
            return ExactRational(_text_int(num), _text_int(den))
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"bad rational token {token!r}") from e
    if "." in token or "e" in token or "E" in token:
        if not plain_token(token):
            raise ValueError(f"bad real token {token!r}")
        try:
            value = float(token)
        except ValueError as e:
            raise ValueError(f"bad real token {token!r}") from e
        if not math.isfinite(value):
            raise ValueError(f"bad real token {token!r}")
        return ApproxReal(value)
    try:
        return ExactInteger(_text_int(token))
    except ValueError as e:
        raise ValueError(f"bad integer token {token!r}") from e


def format_scalar(a: Scalar) -> str:
    """``a`` in the text syntax ``parse_scalar`` reads, by its ring's text
    rule (``NativeRing.text``); raises TypeError when ``a`` is no scalar."""
    ring = native_ring(((a,),))
    return ring.text(ring.unwrap(((a,),))[0][0])
