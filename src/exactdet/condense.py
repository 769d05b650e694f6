"""The condensation determinant algorithm, with interior-zero mitigation.

One round of condensation replaces a k x k matrix by the (k-1) x (k-1)
matrix of its 2x2 consecutive-minor determinants; from the second round on,
each entry is additionally divided by the matching entry of the interior of
the stage two rounds back.  Iterating down to 1x1 yields the determinant.
Every division is exact as long as no interior entry along the way is zero:
the (i, j) entry of stage k is itself the determinant of the (k+1) x (k+1)
connected minor of stage 0 anchored at (i, j), so over the integers every
intermediate stays an integer.

The stage kernel, ``_condense_rows``, computes only the recurrence: the 2x2
minors of native values (see ``ring.NativeRing``) and their exact quotients.
``condensation_det`` runs it on the mitigated matrix's kernel form,
``Matrix.kernel``: integer rows for every exact ring, the reals as they are
(see ``ring``), dividing by the ring's one kernel division rule,
``ring.kernel_quotient``.  On the integers it makes one pass per stage row:
each minor is formed and its ``divmod`` quotient checked for a zero
remainder in one comprehension, and only a row where a division fails is
formed again and divided entry by entry by ``integer_quotient``, to raise
its error.  The reals divide each minor by ``real_quotient``, which holds
the real zero rule.  The run keeps only the previous two stages and decodes
and wraps only the result.
A ``CondensationTrace`` stores stage 0; when first read, its stages are read
off a repeat of the run's kernel rows and decoded by the ring's ``decode``,
and its pre-division matrices are the 2x2 minors of each stage in the
matrix's ring.  ``render_trace`` prints them from their native rows by the
ring's text rule, wrapping no scalar.
``condense_step`` is the scalar reference: one round computed with the
scalars' own ``*``, ``-`` and ``exact_div``, independent of the kernel.

Interior zeros are the method's one failure mode.  ``mitigate_interior_zeros``
clears them with determinant-preserving elementary operations before the run
starts; if a zero only surfaces in a later stage, ``condensation_det``
restarts from the original matrix under the next untried transform.  Swap
parity is tracked in a ``MitigationLog`` whose sign multiplies the final
result; ``replay_log`` re-applies its operations to scalars.

Mitigation plans are tried in a fixed order so results are reproducible:

1. identity (no interior zeros to begin with),
2. cyclic row rotations by 1 .. n-1 positions,
3. cyclic column rotations,
4. combined row and column rotations,
   but when the zero set accepts no rotation, n >= 10 and at least n^2 / 3
   entries are zero, the order ends here: such sparse inputs all but never
   condense, and their repairs cost several eliminations; a run whose
   ``repair`` is off, as ``huckel``'s are, always ends it here,
5. additive repair: for each surviving interior zero, add a row (or failing
   that, a column) holding a nonzero entry at the offending position, with
   the scale escalating 1, 2, 3, ... on repeated failure at one position.

Rotations are judged on the input's zero set, by ``_column_shifts`` once
per row shift when the order first reaches it; a run makes one walk, which
each of its restarts resumes, and the identity plan is accepted exactly
when the interior has no zero.  Only the accepted plan is applied, as one
index permutation, and its ``MitigationLog`` is that permutation plus a
sign, whose adjacent swaps are built only when a reader asks for them.

An attempt ends at the stage that holds its zero divisor, in every ring.
``condensation_det`` tests each stage's interior as soon as it exists, for
a 0 on the exact rings, and on the reals by the division-warning scan,
which, when it trips, finds the first entry ``NativeRing.is_zero`` counts
as zero.  If that first zero, row by row, is at (i + 1, j + 1) of stage k,
the attempt stops there and records the restart (k + 2, (i, j)).  ``OpCount``
follows the paper's schedule, which ``_charge`` alone states: per minor two
multiplications, one addition and, from stage 2 on, one division.

Mitigation reads the input's zero set once, ``Matrix.zeros``, which every
attempt of a run shares, and wraps no value.  A rotation permutes the
input's kernel form, so a run encodes its input at most once.  Additive
repair adds ints d + k*s on the kernel form, cleared rational rows at a
common scale; a polynomial input is packed for it once per run, at four
times the width rule's W, room for a few repairs, and again only where its
row bounds outgrow that.  It re-tests only the entries whose source entry
is nonzero, by ``Matrix.zeros``'s rule.  A run's used plans, walk, repair
switch and repair packing are its own, a ``_Run``: the input keeps only its
forms and zero set, so threads may share it.

A matrix that defeats all of this (e.g. the zero matrix) raises
``UnremovableZero``.  ``condensation_det`` bounds the work of failed
attempts in the op counter's units, and raises ``FallbackRequired`` past
that bound or when mitigation runs out of plans, so callers can switch to
elimination: ``oracle.elimination_det``, ``bareiss_det``'s loop run in every
ring on the matrix's kernel form, whose intermediates are minors, not
connected ones, of its scaled rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .matrix import IndexOutOfRange, Matrix, TooSmall, text_rows
from .ring import (
    DEFAULT_TOLERANCE,
    POLYNOMIALS,
    REALS,
    DivisionByZero,
    InexactDivision,
    _packed_rows,
    _packing_width,
    _repacked,
    format_scalar,
    integer_quotient,
    kernel_quotient,
)


class UnremovableZero(ValueError):
    """No mitigation plan clears the interior."""


class FallbackRequired(RuntimeError):
    """Condensation gave up; fall back to ``bareiss_det``'s loop on the kernel form."""


@dataclass(slots=True)
class OpCount:
    """Running tally of ring operations consumed by a determinant run.

    The tally follows the paper's schedule of 2x2 minors and divisions, not
    the work the program happens to do: an attempt that stops early at an
    interior zero is charged what the schedule spends to reach the zero
    divisor that zero becomes two stages on.
    """

    mults: int = 0
    divs: int = 0
    adds: int = 0

    @property
    def muldiv(self) -> int:
        return self.mults + self.divs


class MitigationLog:
    """Elementary operations applied before a run, plus their sign factor.

    Operations are tuples: ``("swap_rows", i, j)``, ``("swap_cols", i, j)``,
    ``("add_scaled_row", src, dst, c)``, ``("add_scaled_col", src, dst, c)``.
    A log has ``sign`` (-1)**(number of swaps); additions never change it.

    A rotation's log, ``MitigationLog.rotation(n, r, c)``, holds only its
    plan ("rot", r, c), and its sign is (-1)**((r + c)(n - 1)), read off
    the plan.  Its operations, the (r + c)(n - 1) adjacent swaps of
    ``_rotation_swaps``, are built when first read, as ``replay_log`` and
    ``repr`` do, and kept, so every read gives the same tuple and a run
    that reads only the sign builds none.  A repair's log keeps its factors
    as ints k until then, with their ring ``_ring`` to wrap them.
    """

    __slots__ = ("_operations", "_size", "_ring", "plan")

    def __init__(self, operations=(), plan=None):
        self._operations = tuple(operations)
        self._size = self._ring = None
        self.plan = plan

    @classmethod
    def rotation(cls, n: int, r: int, c: int):
        """The log of the plan ("rot", r, c) on an n x n matrix."""
        log = cls((), ("rot", r, c))
        log._operations, log._size = None, n
        return log

    @property
    def operations(self) -> tuple:
        if self._operations is None:
            _, r, c = self.plan
            self._operations = tuple(_rotation_swaps(self._size, r, c))
        elif self._ring is not None:
            ring, ops, self._ring = self._ring, self._operations, None
            self._operations = tuple((*op[:3], ring.wrap(ring.constant(op[3]))) for op in ops)
        return self._operations

    @property
    def sign(self) -> int:
        if self._size is None:
            swaps = sum(1 for op in self._operations if op[0].startswith("swap"))
        else:
            _, r, c = self.plan
            swaps = (r + c) * (self._size - 1)
        return -1 if swaps % 2 else 1

    def __repr__(self):
        return f"MitigationLog({list(self.operations)!r}, plan={self.plan!r})"


@dataclass(frozen=True)
class CondensationTrace:
    """Everything a condensation run produced.

    ``mitigated`` is stage 0, the matrix the run condensed after mitigation.
    ``stages[k]`` is the (n-k) x (n-k) stage matrix; ``starred[k-2]`` is the
    pre-division matrix belonging to ``stages[k]`` for k >= 2.  The run keeps
    only two live stages, so neither is stored: on first access the stages
    are read off a repeat of the run's kernel rows, and the pre-division
    matrices are the 2x2 minors of the stages in their own ring.  Both are
    cached, and reading them leaves ``ops`` unchanged.  ``restarts`` lists
    (stage, position) pairs for every zero divisor that forced a restart;
    ``division_warning`` is set when a real-arithmetic run met a
    divisor within 1000x of the zero tolerance.
    """

    mitigated: Matrix
    mitigation: MitigationLog
    ops: OpCount
    restarts: tuple = ()
    division_warning: bool = False

    @cached_property
    def stages(self) -> tuple:
        a0, ring = self.mitigated, self.mitigated.native_ring
        form, decode = a0.kernel, ring.decode
        later = enumerate(_stage_rows(form.rows, kernel_quotient(ring)), 1)
        return (a0,) + tuple(Matrix(form.decoded(decode, s, k), ring) for k, s in later)

    @cached_property
    def starred(self) -> tuple:
        ring, stages = self.mitigated.native_ring, self.stages[1:-1]
        return tuple(Matrix(_condense_rows(s.native_rows, None, None), ring) for s in stages)


def _condense_rows(current, divisor, quotient) -> list:
    """The stage kernel: one condensation round on native rows.

    Each entry is a 2x2 consecutive minor of ``current``.  With a
    ``divisor`` (the interior rows of the stage two rounds back, None on the
    first round), each entry is divided exactly by its divisor entry with
    the per-entry ``quotient``, the ring's ``kernel_quotient``, and a failed
    division raises; ``condensation_det`` ends an attempt before its zero
    divisor, so in a run none does.  With ``integer_quotient``, the kernel
    form of every exact ring, each row is one pass, as in
    ``oracle._bareiss``: every minor is formed and its ``divmod`` quotient
    checked for a zero remainder in one comprehension.  A row where a check
    fails, and every row of the reals, is divided entry by entry by
    ``quotient``, which raises at the first failed division
    ``DivisionByZero`` or ``InexactDivision``, never a bare
    ``ZeroDivisionError``.  The kernel counts nothing; ``_charge`` does.
    """
    pairs = zip(current, current[1:])
    if divisor is None:
        return [_minors(top, bottom) for top, bottom in pairs]
    fused = quotient is integer_quotient
    out = []
    for (top, bottom), under in zip(pairs, divisor):
        if fused:
            try:
                row = [
                    q
                    for a, b, c, d, e in zip(top, top[1:], bottom, bottom[1:], under)
                    for q, r in (divmod(a * d - b * c, e),)
                    if not r
                ]
            except ZeroDivisionError:
                row = ()
            if len(row) == len(under):
                out.append(row)
                continue
        cells = zip(top, top[1:], bottom, bottom[1:], under)
        out.append([quotient(a * d - b * c, e) for a, b, c, d, e in cells])
    return out


def _minors(top, bottom) -> list:
    """The 2x2 consecutive minors of two adjacent rows."""
    return [a * d - b * c for a, b, c, d in zip(top, top[1:], bottom, bottom[1:])]


def _stage_rows(rows, quotient):
    """Yield stages 1 .. n-1 of the native rows ``rows`` (stage 0).

    Only the previous two stages are kept: the one to condense and the one
    whose interior divides it, entry by entry by ``quotient``.
    """
    prev, current = None, rows
    for _ in range(len(rows) - 1):
        divisor = None if prev is None else [r[1:-1] for r in prev[1:-1]]
        prev, current = current, _condense_rows(current, divisor, quotient)
        yield current


def _interior_zero(stage, bound=None):
    """Where the interior of the stage ``stage`` first holds a zero, row by
    row: the position (i, j) of the divisor it becomes, for the entry at
    (i + 1, j + 1), or None when the interior has no zero.  A real stage
    passes ``DEFAULT_TOLERANCE``, below which an entry is zero."""
    for i, row in enumerate(stage[1:-1]):
        inner = row[1:-1]
        if bound is not None:
            inner = [0 if abs(x) < bound else x for x in inner]
        if 0 in inner:
            return i, inner.index(0)
    return None


def _charge(ops: OpCount, n: int, stage: int, position=None) -> None:
    """Charge ``ops`` the paper's schedule for an n x n run through stage
    ``stage``; with a ``position``, stage ``stage`` only through that minor,
    whose zero divisor stopped the attempt, and without its division."""
    sizes = [(n - t) ** 2 for t in range(1, stage + (position is None))]
    minors, divs = sum(sizes), sum(sizes[1:])
    if position is not None:
        done = (n - stage) * position[0] + position[1]
        minors += done + 1
        divs += done
    ops.mults += 2 * minors
    ops.adds += minors
    ops.divs += divs


def condense_step(current: Matrix, divisor_interior, ops: OpCount) -> Matrix:
    """One condensation round: 2x2 minor determinants, divided elementwise.

    The scalar reference for the stage kernel, computed with the scalars'
    own ``*``, ``-`` and ``exact_div``.  ``divisor_interior`` is None exactly
    on the first round.  Zero or inexact divisions raise with the offending
    (i, j) position attached, for callers and tests (``condensation_det``
    finds restarts with ``_interior_zero``); ``ops`` then counts every minor
    up to and including the failing one, and the divisions before it.  A
    divisor from another ring than ``current`` raises RingMismatch.
    """
    if not current.is_square or current.n_rows < 2:
        raise ValueError("condense_step needs a square matrix, n >= 2")
    w = current.n_rows - 1
    if divisor_interior is not None and (divisor_interior.n_rows, divisor_interior.n_cols) != (w, w):
        raise ValueError("divisor interior must be (k-1) x (k-1)")
    rows = current.rows()
    out = []
    for i, (top, bottom) in enumerate(zip(rows, rows[1:])):
        row = []
        for j in range(w):
            minor = top[j] * bottom[j + 1] - top[j + 1] * bottom[j]
            ops.mults += 2
            ops.adds += 1
            if divisor_interior is not None:
                try:
                    minor = minor.exact_div(divisor_interior[i, j])
                except (DivisionByZero, InexactDivision) as e:
                    e.position = (i, j)
                    raise
                ops.divs += 1
            row.append(minor)
        out.append(row)
    return Matrix(out)


def _rotation_swaps(n: int, row_shift: int, col_shift: int) -> list:
    """Adjacent swaps that rotate rows up / columns left cyclically."""
    row_swaps = [("swap_rows", i, i + 1) for _ in range(row_shift) for i in range(n - 1)]
    col_swaps = [("swap_cols", j, j + 1) for _ in range(col_shift) for j in range(n - 1)]
    return row_swaps + col_swaps


def _additive_repair(form, bounds, zeros: set, salt: int, is_zero):
    """Clear the interior zeros of the kernel form ``form`` (packed rows with
    their |.|_1 ``bounds``) by adding k times a row/column, for int k; return
    the repaired form, packed wider if its bounds ask, and the operations.

    ``zeros`` holds every (i, j) where ``form`` has a zero; it picks each
    zero's source, and the least of its interior positions, row by row, is
    the zero to clear.  After each operation only the entries whose source
    entry is nonzero by exact falsiness are re-tested, by the ring's zero
    test ``is_zero``: adding k times a 0 keeps an entry's zero test, while a
    real source below the tolerance may still move its destination across
    it.  ``salt`` shifts the starting factor so successive restart rounds
    produce distinct transforms.  Raises UnremovableZero when a zero has no
    nonzero source in its row or column, or when the repair budget runs out.
    """
    rows, scales = [list(r) for r in form.rows], form.scales and list(form.scales)
    width, bounds, n = form.width, bounds and list(bounds), len(rows)
    inner = {(i, j) for i, j in zeros if 0 < i < n - 1 and 0 < j < n - 1}
    attempts, ops = {}, []
    for _ in range(4 * n * n):
        if not inner:
            break
        zero_at = min(inner)  # the first interior zero, row by row
        i, j = zero_at
        attempts[zero_at] = attempts.get(zero_at, 0) + 1
        k = salt + attempts[zero_at]
        src = next((s for s in range(n) if s != i and (s, j) not in zeros), None)
        if src is not None:
            op = ("add_scaled_row", src, i, k)
            changed = [(i, t) for t, x in enumerate(rows[src]) if x]
        else:
            src = next((t for t in range(n) if t != j and (i, t) not in zeros), None)
            if src is None:
                raise UnremovableZero(
                    f"interior zero at ({i}, {j}) has no nonzero row or column source"
                )
            op = ("add_scaled_col", src, j, k)
            changed = [(s, j) for s, r in enumerate(rows) if r[src]]
        width = _add_scaled(rows, scales, bounds, width, op)
        ops.append(op)
        for p in changed:
            s, t = p
            if is_zero(rows[s][t]):
                zeros.add(p)
                if 0 < s < n - 1 and 0 < t < n - 1:
                    inner.add(p)
            else:
                zeros.discard(p)
                inner.discard(p)
    else:
        raise UnremovableZero("additive repair budget exhausted")
    if width is not None and _packing_width(bounds) > width:
        rows, width = _repacked(rows, width, bounds)
    return form._replace(rows=rows, scales=scales, width=width), ops


def _add_scaled(rows, scales, bounds, width, op):
    """Apply the addition ``op`` to kernel rows in place; return their width.
    A row's addition takes both rows to the lcm of their scales, then divides
    cleared rationals by their gcd with it.  Packed rows' bounds grow by the
    triangle inequality (a column's by at most 1 + k times), and the rows are
    packed again before one reaches 2^(W - 1), past which entries may not unpack."""
    kind, src, dst, k = op
    a, c, col = 1, k, kind == "add_scaled_col"
    if scales is not None and not col:
        scale = math.lcm(scales[src], scales[dst])
        a, c = scale // scales[dst], k * (scale // scales[src])
    if bounds is not None:
        if col:
            bounds[:] = [b + k * b if r[src] else b for b, r in zip(bounds, rows)]
        else:
            bounds[dst] = a * bounds[dst] + c * bounds[src]
        if max(bounds).bit_length() >= width:
            rows[:], width = _repacked(rows, width, bounds)
    if col:
        for r in rows:
            r[dst] += k * r[src]
        return width
    rows[dst] = [a * d + c * s for d, s in zip(rows[dst], rows[src])]
    if scales is not None:
        g = math.gcd(scale, *rows[dst]) if width is None else 1
        scales[dst], rows[dst] = scale // g, [v // g for v in rows[dst]]
    return width


def _column_shifts(zeros, n: int, r: int):
    """The column shifts c that, with row shift r, clear the interior of an
    n x n matrix whose zeros are at ``zeros``.

    The zeros outside rows r and r - 1 (mod n) must all lie in columns c and
    c - 1: with none, every c is accepted, with one or two columns the c
    whose pair holds them, and with more, none.
    """
    cols = set()
    for i, j in zeros:
        if i != r and i != (r - 1) % n:
            cols.add(j)
            if len(cols) > 2:
                return ()
    if not cols:
        return range(n)
    return {c for j in cols for c in (j, (j + 1) % n) if cols <= {c, (c - 1) % n}}


def _plans(zeros, n: int):
    """The plans that may clear the interior of an n x n matrix whose zeros
    are at ``zeros``, in the documented order: the rotations it accepts,
    then every additive repair.  A row shift's column shifts are found when
    the order first reaches it, all of them before the first repair.  When no
    rotation is accepted, n >= 10 and at least n^2 / 3 entries are zero, it
    raises UnremovableZero instead of offering a repair."""
    shifts = []
    for r in range(n):
        shifts.append(sorted(_column_shifts(zeros, n, r)))
        if 0 in shifts[r]:
            yield ("rot", r, 0)
    for r, cs in enumerate(shifts):
        for c in cs:
            if c:
                yield ("rot", r, c)
    if n >= 10 and 3 * len(zeros) >= n * n and not any(shifts):
        raise UnremovableZero(
            "no rotation clears the interior, n >= 10 and at least n^2/3"
            " entries are zero: additive repair is not tried"
        )
    for salt in range(n):
        yield ("add", salt)


class _Run(list):
    """The mitigation state of one condensation run on ``a``: the plans it
    accepted, in order, its walk of ``_plans``, which each restart resumes,
    ``repair``, whether the walk goes on past the rotations to additive
    repair, and ``packing``, the kernel form and row bounds repair copies."""

    __slots__ = ("walk", "repair", "packing")

    def __init__(self, a: Matrix, used=(), repair=True):
        super().__init__(used)
        self.walk, self.repair, self.packing = _plans(a.zeros, a.n_rows), repair, None


def mitigate_interior_zeros(a: Matrix, exclude=()):
    """Transform ``a`` so its interior holds no zeros; return (matrix, log).

    Plans are tried in the fixed order documented at module level, judged on
    ``a.zeros``; ``exclude`` skips plans already consumed by earlier restarts.
    ``condensation_det`` passes its run for ``exclude``: the call resumes the
    run's walk, so a run scans ``a``'s zeros once per row shift, adds the
    plan it accepts to the run, and offers no repair when the run's
    ``repair`` is off.  Raises UnremovableZero when no plan succeeds, and,
    with its own message, before any repair when no rotation is accepted,
    n >= 10 and at least n^2 / 3 entries are zero.
    """
    if not a.is_square:
        raise TooSmall("mitigation needs a square matrix")
    if a.n_rows < 3:
        raise TooSmall("mitigation needs n >= 3 (smaller sizes have no interior)")
    run, ring = exclude if isinstance(exclude, _Run) else _Run(a, exclude), a.native_ring
    for plan in run.walk:
        if plan in run:
            continue
        if plan[0] == "add":
            if not run.repair:
                break
            if run.packing is None:
                polynomial = ring.decode is POLYNOMIALS.decode
                run.packing = _packed_rows(a.native_rows, 4) if polynomial else (a.kernel, None)
            form, ops = _additive_repair(*run.packing, set(a.zeros), plan[1], ring.is_zero)
            log = MitigationLog(ops, plan)
            log._ring, out = ring, Matrix(form, ring)
        else:
            _, r, c = plan
            log = MitigationLog.rotation(a.n_rows, r, c)
            out = a if r == c == 0 else Matrix(a.kernel.rotated(r, c), ring)
        run.append(plan)
        return out, log
    raise UnremovableZero("every mitigation plan failed or was excluded")


def condensation_det(a: Matrix, *, _repair=True):
    """Determinant of ``a`` by condensation; returns (value, trace).

    Runs mitigation first (for n >= 3; smaller sizes have no interior),
    restarts under a fresh plan whenever a zero divisor appears mid-run, and
    multiplies the result by the accumulated swap sign.  Each attempt runs
    on the mitigated matrix's kernel form (see ``ring``), keeps two live
    stages and decodes and wraps only the result; an attempt ends at the
    stage whose interior holds its zero divisor.  ``_repair=False``, the
    run's ``repair`` (``huckel``'s), ends the plan order after the rotations.

    The work spent on failed attempts is bounded in the op counter's units.
    Each failed attempt adds to a tally W the muldiv ``_charge`` charged it
    and, after additive repair, n per repair operation; once W exceeds 2C,
    C being a clean run's muldiv, the run stops.  The repair units go into W
    only, not into ``OpCount``.  So a success charges at most 3C, 2C for
    its failed attempts and C for its clean run, and a fallback at most 2C
    plus its last failed attempt, which stops before a clean run's last
    division.  Raises FallbackRequired when W exceeds 2C or mitigation runs
    out of plans; on a sparse input that no rotation clears, n >= 10 and at
    least n^2 / 3 entries zero, mitigation offers no plan at all, so the run
    falls back after only its n^2 zero tests.
    """
    if not a.is_square:
        raise ValueError("condensation needs a square matrix")
    n = a.n_rows
    ops, clean = OpCount(), OpCount()
    _charge(clean, n, n - 1)
    budget, wasted = 2 * clean.muldiv, 0
    run = _Run(a, repair=_repair) if n >= 3 else None
    restarts = []
    warning = False
    while True:
        if n < 3:
            a0, log = a, MitigationLog()
        else:
            try:
                a0, log = mitigate_interior_zeros(a, exclude=run)
            except UnremovableZero as e:
                raise FallbackRequired(str(e)) from e
        rows, ring = a0.kernel.rows, a0.native_ring
        for k, stage in enumerate(chain([rows], _stage_rows(rows, kernel_quotient(ring)))):
            if ring is REALS:
                # an interior entry divides two rounds on; a zero divisor
                # is inside this bound too, so an aborted attempt always
                # sets the warning
                near = 1e3 * DEFAULT_TOLERANCE
                if not any(abs(d) < near for r in stage[1:-1] for d in r[1:-1]):
                    continue
                warning = True
                zero = _interior_zero(stage, DEFAULT_TOLERANCE)
            else:
                zero = _interior_zero(stage)
            if zero is not None:
                restarts.append((k + 2, zero))
                charged = ops.muldiv
                _charge(ops, n, k + 2, zero)
                wasted += ops.muldiv - charged
                if log.plan[0] == "add":
                    wasted += n * len(log._operations)
                if wasted > budget:
                    raise FallbackRequired(
                        "the work W charged to failed attempts exceeds 2C,"
                        " C being a clean run's muldiv"
                    )
                break
        else:
            _charge(ops, n, n - 1)
            result = a0.kernel.decoded(ring.decode, stage, k)[0][0]
            result = ring.wrap(-result if log.sign < 0 else result)
            return result, CondensationTrace(a0, log, ops, tuple(restarts), warning)


def replay_log(a: Matrix, log: MitigationLog) -> Matrix:
    """Re-apply a mitigation log to a matrix (trace reproducibility).

    The log's operations apply to scalars.  Their indices come from the
    caller, so they are checked: an index outside the matrix (negative ones
    included) or equal source and destination raises IndexOutOfRange, and an
    unknown kind raises ValueError.
    """
    rows = [list(r) for r in a.rows()]
    for op in log.operations:
        kind = op[0]
        if kind in ("swap_rows", "add_scaled_row"):
            axis, size = "row", len(rows)
        elif kind in ("swap_cols", "add_scaled_col"):
            axis, size = "column", len(rows[0])
        else:
            raise ValueError(f"unknown mitigation operation {kind!r}")
        src, dst = op[1], op[2]
        for k in (src, dst):
            if not 0 <= k < size:
                raise IndexOutOfRange(f"{axis} {k} outside 0..{size - 1}")
        if src == dst:
            raise IndexOutOfRange(f"{kind} needs two distinct {axis}s")
        if kind == "swap_rows":
            rows[src], rows[dst] = rows[dst], rows[src]
        elif kind == "swap_cols":
            for r in rows:
                r[src], r[dst] = r[dst], r[src]
        elif kind == "add_scaled_row":
            # only the zero Polynomial is falsy: every number entry is computed
            rows[dst] = [d + op[3] * s if s else d for d, s in zip(rows[dst], rows[src])]
        else:
            for r in rows:
                r[dst] = r[dst] + op[3] * r[src] if r[src] else r[dst]
    return Matrix(rows)


def render_trace(trace: CondensationTrace) -> str:
    """Serialize a trace: stage blocks, restart notes, mitigation log, sign."""
    n = trace.mitigated.n_rows
    lines = []
    for k, stage in enumerate(trace.stages):
        if k >= 2:
            lines.append(f"stage {k} (pre-division)")
            lines.extend(text_rows(trace.starred[k - 2]))
        lines.append(f"stage {k} ({n - k} x {n - k})")
        lines.extend(text_rows(stage))
    for stage_k, pos in trace.restarts:
        lines.append(f"restart: zero divisor at stage {stage_k}, minor ({pos[0]}, {pos[1]})")
    log, ring = trace.mitigation, trace.mitigation._ring
    text = format_scalar if ring is None else lambda k: ring.text(ring.constant(k))
    for op in log.operations if ring is None else log._operations:  # int factors unwrapped
        lines.append(" ".join([*map(str, op[:3]), *map(text, op[3:])]))
    lines.append(f"sign: {log.sign:+d}")
    return "\n".join(lines) + "\n"
