"""Dense matrices over one ring, with the submatrix vocabulary the
condensation algorithm is phrased in.

A ``Matrix`` is an immutable rectangular array over one ring, held in two
forms: its native values, ``native_rows``, and the form the condensation
kernel runs on, ``kernel`` (see ``ring``), either built from the other when
first read.  Nothing is mutated in place, so a condensation trace can keep
every intermediate stage intact.  ``text_rows`` prints it by its ring's text
rule on native values (``ring.NativeRing.text``).  Elementary row and column
operations are not methods here: ``condense.replay_log`` applies them from a
``MitigationLog``; a rotation, which mitigation applies as one permutation,
is ``ring.KernelForm.rotated``.

Submatrix terms used throughout the package:

* *connected minor* -- contiguous square block anchored at (top_row, left_col);
* *interior*        -- the matrix with its first and last rows and columns
  removed (the elementwise divisor of the condensation step two stages on);
* ``delete_row_col`` -- the classical minor with one row and one column gone;
* *adjugate*        -- entrywise signed minors ``(-1)^(i+j) * det(minor_ij)``
  with 1-based i, j in the sign, and **no transpose**.  The transpose-free
  convention is deliberate: it is the form the corner identity in
  ``oracle.jacobi_check`` is stated in.
"""

from __future__ import annotations

import math

from .ring import (
    INTEGERS,
    RATIONALS,
    REALS,
    KernelForm,
    Scalar,
    _cleared_rows,
    native_ring,
    parse_scalar,
    plain_token,
)


class IndexOutOfRange(IndexError):
    """Row/column index outside the matrix."""


class TooSmall(ValueError):
    """Matrix too small for the requested operation (e.g. interior of 2x2)."""


class ParseError(ValueError):
    """Malformed matrix text; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Matrix:
    """An immutable matrix over one ring, ``native_ring``, a
    ``ring.NativeRing``.  Its two forms are ``native_rows`` and ``kernel``:
    the one not given is built by the ring's ``decode`` or ``encode`` when
    first read, and kept.  ``Matrix(rows)`` checks the ring of rows of
    scalars once and keeps their native values; ``Matrix(rows, ring)`` takes
    native rows of ``ring``, or with a ``ring.KernelForm`` for ``rows`` that
    form.  ``rows()`` and ``m[i, j]`` wrap scalars on each read.  ``zeros``,
    the (i, j) whose entry ``native_ring.is_zero`` counts as zero, is read
    once, off the kernel form when the matrix holds it: the forms share their
    zeros.  A matrix keeps nothing else: a run's mitigation state is the
    run's own (see ``condense``).
    """

    __slots__ = ("n_rows", "n_cols", "native_ring", "_native", "_kernel", "_zeros")

    def __init__(self, rows, ring=None):
        form = rows if type(rows) is KernelForm else None
        rows = tuple(tuple(r) for r in (rows if form is None else form.rows))
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        if ring is None:
            # raises TypeError unless all entries share one ring
            ring = native_ring(rows)
            rows = ring.unwrap(rows)
        self.native_ring = ring
        if form is None:
            self._native, self._kernel = rows, None
        else:
            self._native, self._kernel = None, form._replace(rows=rows)
        self.n_rows = len(rows)
        self.n_cols = width
        self._zeros = None

    @property
    def native_rows(self) -> tuple:
        if self._native is None:
            self._native = self.native_ring.decode(*self._kernel)
        return self._native

    @property
    def kernel(self) -> KernelForm:
        if self._kernel is None:
            self._kernel = self.native_ring.encode(self._native)
        return self._kernel

    @property
    def zeros(self) -> frozenset:
        if self._zeros is None:
            ring, form = self.native_ring, self._kernel
            rows = self._native if form is None else form.rows
            self._zeros = frozenset(
                (i, j) for i, r in enumerate(rows) for j, x in enumerate(r) if ring.is_zero(x)
            )
        return self._zeros

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self.native_ring.wrap(self.native_rows[i][j])

    def rows(self):
        wrap = self.native_ring.wrap
        return tuple(tuple(map(wrap, r)) for r in self.native_rows)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __eq__(self, other):
        # natively 1 == Fraction(1) == 1.0: the type of an entry names the ring
        return (
            isinstance(other, Matrix)
            and type(self.native_rows[0][0]) is type(other.native_rows[0][0])
            and self.native_rows == other.native_rows
        )

    def __hash__(self):
        return hash((type(self.native_rows[0][0]), self.native_rows))

    def __repr__(self):
        return f"<Matrix {self.n_rows}x{self.n_cols} [{'; '.join(text_rows(self))}]>"

    def _check_row(self, i):
        if not 0 <= i < self.n_rows:
            raise IndexOutOfRange(f"row {i} outside 0..{self.n_rows - 1}")

    def _check_col(self, j):
        if not 0 <= j < self.n_cols:
            raise IndexOutOfRange(f"column {j} outside 0..{self.n_cols - 1}")

    def connected_minor(self, top_row: int, left_col: int, size: int) -> "Matrix":
        """Contiguous size x size block with upper-left corner at (top_row, left_col)."""
        if size < 1:
            raise IndexOutOfRange("minor size must be >= 1")
        if top_row < 0 or top_row + size > self.n_rows:
            raise IndexOutOfRange(f"rows [{top_row}, {top_row + size}) out of range")
        if left_col < 0 or left_col + size > self.n_cols:
            raise IndexOutOfRange(f"cols [{left_col}, {left_col + size}) out of range")
        return Matrix(
            (r[left_col : left_col + size] for r in self.native_rows[top_row : top_row + size]),
            self.native_ring,
        )

    def interior(self) -> "Matrix":
        """The matrix with first/last rows and columns deleted."""
        if self.n_rows < 3 or self.n_cols < 3:
            raise TooSmall("interior needs at least 3 rows and 3 columns")
        return Matrix((r[1:-1] for r in self.native_rows[1:-1]), self.native_ring)

    def delete_row_col(self, i: int, j: int) -> "Matrix":
        """Minor with row i and column j removed."""
        if not self.is_square or self.n_rows < 2:
            raise TooSmall("delete_row_col needs a square matrix, n >= 2")
        self._check_row(i)
        self._check_col(j)
        return Matrix(
            (r[:j] + r[j + 1 :] for k, r in enumerate(self.native_rows) if k != i),
            self.native_ring,
        )


def adjugate(a: Matrix, det_fn) -> Matrix:
    """Entrywise signed-minor matrix, *without* the classical transpose.

    ``det_fn`` is any determinant oracle taking a Matrix.  The (i, j) entry is
    ``(-1)^(i+j) * det_fn(a.delete_row_col(i, j))`` with the sign exponent in
    1-based indices.
    """
    if not a.is_square or a.n_rows < 2:
        raise TooSmall("adjugate needs a square matrix, n >= 2")
    out = []
    for i in range(a.n_rows):
        row = []
        for j in range(a.n_cols):
            d = det_fn(a.delete_row_col(i, j))
            row.append(d if (i + j) % 2 == 0 else -d)
        out.append(row)
    return Matrix(out)


def int_matrix(rows) -> Matrix:
    """An integer matrix on native ``int`` rows (test/benchmark helper)."""
    return Matrix([[int(v) for v in r] for r in rows], INTEGERS)


def parse_matrix(text: str) -> Matrix:
    """Parse the whitespace matrix format.

    ``#`` starts a comment; an optional first line ``n m`` fixes the shape,
    otherwise every non-blank line is one row.  When the lines also read as a
    square matrix without a header (``1 2`` over ``3 4``), the square reading
    wins.  The ring is inferred from the tokens: any ``/`` makes the file
    rational (integer tokens are promoted, the one permitted promotion), any
    ``.`` or exponent makes it real, in ``ring.REALS``, whose one zero rule
    is ``abs(x) < DEFAULT_TOLERANCE``; mixing rational and real tokens is an
    error.  Every token, and each part of a header, keeps the token rule
    (``ring.plain_token``): ASCII, with no ``_``.

    A rational file is read straight into its kernel form: each row's
    numerators and denominators go through ``ring._cleared_rows``, and no
    ``Fraction`` is built.  An integer or real file is read with one
    ``int()`` or ``float()`` per token.  If any token refuses, or a token
    breaks the token rule, the file is read again by ``parse_scalar``, which
    raises with that token's error and line, and reads integers past the
    interpreter's digit limit; each value is promoted to the file's ring by
    its ``constant``, into the native matrix the first read builds.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((lineno, body.split()))
    if not lines:
        raise ParseError("no matrix data")

    header = None
    first = lines[0][1]
    square = len(lines) == len(first) and all(len(toks) == len(first) for _, toks in lines)
    if len(first) == 2 and not square and all(map(plain_token, first)):
        try:
            n, m = int(first[0]), int(first[1])
        except ValueError:
            n = m = 0
        if n > 0 and m > 0:
            rest = sum(len(toks) for _, toks in lines[1:])
            if rest == n * m:
                header = (n, m)
                lines = lines[1:]

    # the file's ring, with each token classified by parse_scalar's rule
    flat = " ".join(t for _, toks in lines for t in toks)
    has_rational = "/" in flat
    unslashed = (t for _, toks in lines for t in toks if "/" not in t) if has_rational else (flat,)
    has_real = any("." in t or "e" in t or "E" in t for t in unslashed)
    if has_rational and has_real:
        raise ParseError("file mixes rational and real tokens")

    if header:
        n, m = header
        tokens = [t for _, toks in lines for t in toks]
        token_rows = [tokens[i * m : (i + 1) * m] for i in range(n)]
    else:
        widths = {len(toks) for _, toks in lines}
        if len(widths) != 1:
            raise ParseError(
                f"rows have differing entry counts {sorted(widths)}",
                line=lines[0][0],
            )
        token_rows = [toks for _, toks in lines]

    ring = RATIONALS if has_rational else REALS if has_real else INTEGERS
    if plain_token(flat):
        try:
            if has_rational:
                return Matrix(KernelForm(*_cleared_rows(map(_ratios, token_rows))), ring)
            read = _real_token if has_real else int
            return Matrix([list(map(read, r)) for r in token_rows], ring)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass

    def read(lineno, t):
        try:
            return ring.constant(parse_scalar(t).value)
        except ValueError as e:
            raise ParseError(str(e), line=lineno) from e
        except OverflowError as e:
            raise ParseError("integer token too large for a real", line=lineno) from e

    entries = [read(lineno, t) for lineno, toks in lines for t in toks]
    width = len(token_rows[0])
    return Matrix([entries[i : i + width] for i in range(0, len(entries), width)], ring)


def _ratios(tokens):
    """The numerators and denominators of a row of rational-file tokens,
    an integer token having the denominator 1."""
    parts = [t.partition("/") for t in tokens]
    return [int(p) for p, _, _ in parts], [int(q) if s else 1 for _, s, q in parts]


def _real_token(t: str) -> float:
    value = float(t) if "." in t or "e" in t or "E" in t else float(int(t))
    if not math.isfinite(value):
        raise ValueError(f"bad real token {t!r}")
    return value


def text_rows(a: Matrix) -> list:
    """Each row of ``a`` as text, its native values formatted by the ring's
    text rule and separated by spaces; every printer of a matrix uses it."""
    text = a.native_ring.text
    return [" ".join(map(text, r)) for r in a.native_rows]


def format_matrix(a: Matrix) -> str:
    """Render a matrix in the text format, always with the ``n m`` header.

    A 1 x 2 matrix puts its entries on two lines: ``1 2`` over one line of
    two would read back as a square matrix.
    """
    body = text_rows(a)
    if (a.n_rows, a.n_cols) == (1, 2):
        body = body[0].split()
    return "\n".join([f"{a.n_rows} {a.n_cols}", *body]) + "\n"
