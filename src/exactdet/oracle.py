"""Reference determinants and the identity that justifies condensation.

``cofactor_det`` is the deliberately-plain baseline: Laplace expansion along
the first row, no zero skipping, so its multiplication count follows
M(n) = n * (M(n-1) + 1) exactly and efficiency comparisons are well defined.
``bareiss_det`` is the second, structurally different oracle: one-step
fraction-free elimination with row pivoting, exact over any of the exact
rings.  Both compute on the matrix's native values, ``native_rows``, with
its ring's ``is_zero`` and per-entry ``quotient``, and wrap only their
result; they share no code with the condensation kernel.  The fallback,
``elimination_det``, runs ``bareiss_det``'s loop on the kernel form.
``jacobi_check`` verifies the 2x2-corner determinant identity
relating a matrix's entrywise adjugate to its interior, which is the reason
condensation's divisions come out exact.  ``count_ratio`` instruments
condensation on seeded random integer matrices and reports its
operation-count ratio to cofactor expansion, whose count is M(n) on any
matrix, so it is taken from ``cofactor_mults`` rather than run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .condense import FallbackRequired, OpCount, condensation_det
from .matrix import Matrix, TooSmall, int_matrix
from .ring import integer_quotient, kernel_quotient


def cofactor_det(a: Matrix, ops: OpCount | None = None):
    """Determinant by first-row Laplace expansion (no zero skipping), on ints
    for rationals: each row scaled by the lcm of its denominators."""
    if not a.is_square:
        raise ValueError("determinant needs a square matrix")
    ring, rows, ops = a.native_ring, a.native_rows, ops if ops is not None else OpCount()
    if ring.constant is not Fraction:
        return ring.wrap(_cofactor(rows, ops))
    scales = [math.lcm(*(x.denominator for x in r)) for r in rows]
    rows = [[x.numerator * (s // x.denominator) for x in r] for r, s in zip(rows, scales)]
    return ring.wrap(Fraction(_cofactor(rows, ops), math.prod(scales)))


def cofactor_mults(n: int) -> int:
    """M(n) = n * (M(n-1) + 1), M(1) = 0: the multiplications ``cofactor_det``
    spends on any n x n matrix; it makes no divisions."""
    m = 0
    for k in range(2, n + 1):
        m = k * (m + 1)
    return m


def _cofactor(rows, ops):
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, x in enumerate(rows[0]):
        term = x * _cofactor([r[:j] + r[j + 1 :] for r in rows[1:]], ops)
        ops.mults += 1
        if total is None:
            total = term
        else:
            total = total + term if j % 2 == 0 else total - term
            ops.adds += 1
    return total


def bareiss_det(a: Matrix, ops: OpCount | None = None):
    """Determinant by fraction-free elimination with zero-pivot row swaps."""
    if not a.is_square:
        raise ValueError("determinant needs a square matrix")
    ring = a.native_ring
    det = _bareiss(a.native_rows, ring.is_zero, ring.quotient, ops if ops is not None else OpCount())
    return ring.wrap(ring.constant(0) if det is None else det)


def elimination_det(a: Matrix, ops: OpCount | None = None):
    """Determinant of ``a`` by ``bareiss_det``'s loop on its kernel form,
    ``Matrix.kernel``, dividing by the ring's ``kernel_quotient`` as the
    stage kernel does, with ``bareiss_det``'s values and op counts.

    Every entry of step k is a minor of the scaled rows, so the packing
    width holds it, and the result decodes as a condensation's does; it is
    the one scalar built, the ring's zero on a zero column.
    """
    if not a.is_square:
        raise ValueError("determinant needs a square matrix")
    ring, form, ops = a.native_ring, a.kernel, ops if ops is not None else OpCount()
    det = _bareiss(form.rows, ring.is_zero, kernel_quotient(ring), ops)
    det = ring.constant(0) if det is None else form.decoded(ring.decode, [[det]], a.n_rows - 1)[0][0]
    return ring.wrap(det)


def _bareiss(rows, is_zero, quotient, ops):
    """The one fraction-free elimination loop: the determinant of the
    native rows ``rows``, or None on a column with no pivot.

    The pivot is the first entry at or below the diagonal that ``is_zero``
    does not count as zero; each entry below becomes p*x - f*y, divided by
    the previous pivot by ``quotient``.  With ``integer_quotient`` a row's
    quotients are formed and checked by ``divmod`` in one comprehension, as
    in the stage kernel, and only a failed row is divided by ``quotient``,
    to raise its error.  ``ops`` is charged step by step: per entry two
    multiplications, one addition and, from the second step, one division.
    """
    rows = [list(r) for r in rows]
    n, sign, prev = len(rows), 1, None
    fused = quotient is integer_quotient
    for k in range(n - 1):
        if is_zero(rows[k][k]):
            i = next((i for i in range(k + 1, n) if not is_zero(rows[i][k])), None)
            if i is None:
                return None
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        p, top = rows[k][k], rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            f, rest = row[k], row[k + 1 :]
            if prev is None:
                row[k + 1 :] = [p * x - f * y for x, y in zip(rest, top)]
                continue
            if fused:
                new = [q for x, y in zip(rest, top) for q, r in (divmod(p * x - f * y, prev),) if not r]
                if len(new) == len(rest):
                    row[k + 1 :] = new
                    continue
            row[k + 1 :] = [quotient(p * x - f * y, prev) for x, y in zip(rest, top)]
        m = (n - 1 - k) ** 2
        ops.mults += 2 * m
        ops.adds += m
        ops.divs += m if prev is not None else 0
        prev = p
    return rows[-1][-1] if sign == 1 else -rows[-1][-1]


def jacobi_check(a: Matrix) -> bool:
    """Check det[A'] = det(A) * det[A*] on the four-corner minor.

    A' is the entrywise adjugate restricted to rows/columns {1, n} and A*
    is the complementary minor, i.e. the interior of ``a``: Jacobi's
    identity det[A'] = det(A)^(m-1) * det[A*] at m = 2.  All determinants
    come from ``bareiss_det``.
    """
    if not a.is_square or a.n_rows < 3:
        raise TooSmall("jacobi_check needs a square matrix, n >= 3")
    n = a.n_rows
    corner_sign = 1 if (1 + n) % 2 == 0 else -1
    a11 = bareiss_det(a.delete_row_col(0, 0))
    ann = bareiss_det(a.delete_row_col(n - 1, n - 1))
    a1n = bareiss_det(a.delete_row_col(0, n - 1))
    an1 = bareiss_det(a.delete_row_col(n - 1, 0))
    if corner_sign < 0:
        a1n = -a1n
        an1 = -an1
    lhs = a11 * ann - a1n * an1
    rhs = bareiss_det(a) * bareiss_det(a.interior())
    return lhs == rhs


@dataclass(frozen=True)
class RatioReport:
    """Mean operation counts of both determinant routes at one size."""

    n: int
    trials: int
    condensation_ops: float
    cofactor_ops: float
    ratio: float
    regenerated: int


def count_ratio(n: int, trials: int, seed: int) -> RatioReport:
    """Mean (mults + divs) of condensation vs. cofactor expansion.

    Draws ``trials`` integer matrices with entries uniform in [-9, 9] from a
    seeded generator.  Matrices that trigger any mitigation are regenerated
    (and counted) so the means describe the clean condensation path, whose
    costs are a function of n alone: a draw is kept when its plan is the
    identity, ("rot", 0, 0), and it never restarted, which is read off the
    plan without building a rotation's swaps.  Cofactor expansion makes
    exactly ``cofactor_mults(n)`` multiplications on any matrix, so its
    count is that closed form, not a run of its n! terms.
    """
    if n < 3:
        raise ValueError("count_ratio needs n >= 3")
    if trials < 1:
        raise ValueError("count_ratio needs trials >= 1")
    rng = random.Random(seed)
    cond_total = 0
    regenerated = 0
    done = 0
    guard = 0
    while done < trials:
        guard += 1
        if guard > 1000 * trials:
            raise RuntimeError("could not draw enough mitigation-free matrices")
        m = int_matrix(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        try:
            _, trace = condensation_det(m)
        except FallbackRequired:
            regenerated += 1
            continue
        if trace.mitigation.plan != ("rot", 0, 0) or trace.restarts:
            regenerated += 1
            continue
        cond_total += trace.ops.muldiv
        done += 1
    return RatioReport(
        n=n,
        trials=trials,
        condensation_ops=cond_total / trials,
        cofactor_ops=float(cofactor_mults(n)),
        ratio=cond_total / (cofactor_mults(n) * trials),
        regenerated=regenerated,
    )
