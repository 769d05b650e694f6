"""The condensation determinant algorithm, with interior-zero mitigation.

One round of condensation replaces a k x k matrix by the (k-1) x (k-1)
matrix of its 2x2 consecutive-minor determinants; from the second round on,
each entry is additionally divided by the matching entry of the interior of
the stage two rounds back.  Iterating down to 1x1 yields the determinant.
Every division is exact as long as no interior entry along the way is zero:
the (i, j) entry of stage k is itself the determinant of the (k+1) x (k+1)
connected minor of stage 0 anchored at (i, j), so over the integers every
intermediate stays an integer.

Interior zeros are the method's one failure mode.  ``mitigate_interior_zeros``
clears them with determinant-preserving elementary operations before the run
starts; if a zero only surfaces in a later stage, ``condensation_det``
restarts from the original matrix under the next untried transform.  Swap
parity is tracked in a ``MitigationLog`` whose sign multiplies the final
result.  One function, ``_apply_operation``, applies a logged operation to a
list of row lists in place; additive repair and ``replay_log`` both use it.

Mitigation plans are tried in a fixed order so results are reproducible:

1. identity (no interior zeros to begin with),
2. cyclic row rotations by 1 .. n-1 positions,
3. cyclic column rotations,
4. combined row and column rotations,
5. additive repair: for each surviving interior zero, add a row (or failing
   that, a column) holding a nonzero entry at the offending position, with
   the scale escalating 1, 2, 3, ... on repeated failure at one position.

A rotation by r rows and c columns is applied as one index permutation of
the rows and columns.  Only the accepted plan is logged, as the (r + c)(n - 1)
adjacent swaps that ``replay_log`` re-applies, so its sign is
(-1)^((r + c)(n - 1)).

A matrix that defeats all of this (e.g. the zero matrix) raises
``UnremovableZero``; ``condensation_det`` wraps budget exhaustion in
``FallbackRequired`` so callers can switch to an elimination oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .matrix import IndexOutOfRange, Matrix, TooSmall
from .ring import ApproxReal, DivisionByZero, InexactDivision, format_scalar


class UnremovableZero(ValueError):
    """No mitigation plan in the strategy budget clears the interior."""


class FallbackRequired(RuntimeError):
    """Condensation gave up; use an oracle determinant instead."""


class OpCount:
    """Running tally of ring operations consumed by a determinant run."""

    __slots__ = ("mults", "divs", "adds")

    def __init__(self, mults: int = 0, divs: int = 0, adds: int = 0):
        self.mults = mults
        self.divs = divs
        self.adds = adds

    @property
    def muldiv(self) -> int:
        return self.mults + self.divs

    def __eq__(self, other):
        return (
            isinstance(other, OpCount)
            and (self.mults, self.divs, self.adds)
            == (other.mults, other.divs, other.adds)
        )

    def __repr__(self):
        return f"OpCount(mults={self.mults}, divs={self.divs}, adds={self.adds})"


class MitigationLog:
    """Elementary operations applied before a run, plus their sign factor.

    Operations are tuples: ``("swap_rows", i, j)``, ``("swap_cols", i, j)``,
    ``("add_scaled_row", src, dst, c)``, ``("add_scaled_col", src, dst, c)``.
    ``sign`` is (-1)**(number of swaps); additions never change it.
    """

    __slots__ = ("operations", "plan")

    def __init__(self, operations=(), plan=None):
        self.operations = tuple(operations)
        self.plan = plan

    @property
    def sign(self) -> int:
        swaps = sum(1 for op in self.operations if op[0].startswith("swap"))
        return -1 if swaps % 2 else 1

    def __repr__(self):
        return f"MitigationLog({list(self.operations)!r}, plan={self.plan!r})"


def _apply_operation(rows: list, op: tuple) -> None:
    """Apply one ``MitigationLog`` operation to a list of row lists, in place.

    Indices come from the log, which ``replay_log`` takes from its caller, so
    they are checked: an index outside the matrix (negative ones included)
    or equal source and destination raises IndexOutOfRange, and an unknown
    kind raises ValueError.
    """
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
        c = op[3]
        rows[dst] = [d + c * s for d, s in zip(rows[dst], rows[src])]
    else:
        c = op[3]
        for r in rows:
            r[dst] = r[dst] + c * r[src]


@dataclass(frozen=True)
class CondensationTrace:
    """Everything a condensation run produced.

    ``stages[k]`` is the (n-k) x (n-k) stage matrix; ``starred[k-2]`` is the
    pre-division matrix belonging to ``stages[k]`` for k >= 2.  Only the
    stages are stored: the pre-division matrices are recomputed from them on
    first access and then cached.  ``restarts`` lists (stage, position) pairs
    for every zero divisor that forced a restart; ``division_warning`` is set
    when a real-arithmetic division used a divisor within 1000x of the zero
    tolerance.
    """

    stages: tuple
    mitigation: MitigationLog
    ops: OpCount
    restarts: tuple = ()
    division_warning: bool = False

    @cached_property
    def starred(self) -> tuple:
        return tuple(Matrix(_minor_rows(s)) for s in self.stages[1:-1])


def _minor_rows(m: Matrix):
    """Rows of the 2x2 consecutive-minor determinants of ``m``."""
    rows = m.rows()
    for top, bottom in zip(rows, rows[1:]):
        yield [a * d - b * c for a, b, c, d in zip(top, top[1:], bottom, bottom[1:])]


def condense_step(current: Matrix, divisor_interior, ops: OpCount) -> Matrix:
    """One condensation round: 2x2 minor determinants, divided elementwise.

    ``divisor_interior`` is None exactly on the first round.  Zero or inexact
    divisions are re-raised with the offending (i, j) position attached, which
    is what the restart logic keys on; ``ops`` then counts every minor up to
    and including the failing one, and the divisions before it.
    """
    if not current.is_square or current.n_rows < 2:
        raise ValueError("condense_step needs a square matrix, n >= 2")
    w = current.n_rows - 1
    if divisor_interior is not None and (
        divisor_interior.n_rows != w or divisor_interior.n_cols != w
    ):
        raise ValueError("divisor interior must be (k-1) x (k-1)")
    out_rows = []
    for i, row in enumerate(_minor_rows(current)):
        if divisor_interior is not None:
            for j, d in enumerate(divisor_interior.rows()[i]):
                try:
                    row[j] = row[j].exact_div(d)
                except (DivisionByZero, InexactDivision) as e:
                    ops.mults += 2 * (j + 1)
                    ops.adds += j + 1
                    ops.divs += j
                    raise type(e)(str(e), position=(i, j)) from e
            ops.divs += w
        ops.mults += 2 * w
        ops.adds += w
        out_rows.append(row)
    return Matrix(out_rows)


def _rotation_swaps(n: int, row_shift: int, col_shift: int) -> list:
    """Adjacent swaps that rotate rows up / columns left cyclically."""
    row_swaps = [("swap_rows", i, i + 1) for _ in range(row_shift) for i in range(n - 1)]
    col_swaps = [("swap_cols", j, j + 1) for _ in range(col_shift) for j in range(n - 1)]
    return row_swaps + col_swaps


def _additive_repair(matrix_rows, salt: int):
    """Clear interior zeros by adding scaled rows/columns.

    ``salt`` shifts the starting scale so successive restart rounds produce
    distinct transforms.  The additions are applied in place to a copy of
    ``matrix_rows`` by ``_apply_operation``, the applier ``replay_log`` uses,
    and one ``Matrix`` is built at the end.  Raises
    UnremovableZero when a zero has no nonzero source in its row or column,
    or when the repair budget runs out.
    """
    rows = [list(r) for r in matrix_rows]
    n = len(rows)
    ops = []
    attempts = {}
    for _ in range(4 * n * n):
        zero_at = next(
            (
                (i, j)
                for i in range(1, n - 1)
                for j in range(1, n - 1)
                if rows[i][j].is_zero()
            ),
            None,
        )
        if zero_at is None:
            return Matrix(rows), ops
        i, j = zero_at
        attempts[zero_at] = attempts.get(zero_at, 0) + 1
        c = rows[0][0].from_int(salt + attempts[zero_at])
        src = next(
            (s for s in range(n) if s != i and not rows[s][j].is_zero()), None
        )
        if src is not None:
            op = ("add_scaled_row", src, i, c)
        else:
            src = next(
                (t for t in range(n) if t != j and not rows[i][t].is_zero()), None
            )
            if src is None:
                raise UnremovableZero(
                    f"interior zero at ({i}, {j}) has no nonzero row or column source"
                )
            op = ("add_scaled_col", src, j, c)
        _apply_operation(rows, op)
        ops.append(op)
    raise UnremovableZero("additive repair budget exhausted")


def _plans(n: int):
    yield ("rot", 0, 0)
    for r in range(1, n):
        yield ("rot", r, 0)
    for c in range(1, n):
        yield ("rot", 0, c)
    for r in range(1, n):
        for c in range(1, n):
            yield ("rot", r, c)
    for salt in range(n):
        yield ("add", salt)


def mitigate_interior_zeros(a: Matrix, exclude=()):
    """Transform ``a`` so its interior holds no zeros; return (matrix, log).

    Plans are tried in the fixed order documented at module level; ``exclude``
    skips plans already consumed by earlier restarts.  Raises UnremovableZero
    when no remaining plan succeeds.
    """
    if not a.is_square:
        raise TooSmall("mitigation needs a square matrix")
    if a.n_rows < 3:
        raise TooSmall("mitigation needs n >= 3 (smaller sizes have no interior)")
    excluded = set(exclude)
    n = a.n_rows
    rows = a.rows()
    for plan in _plans(n):
        if plan in excluded:
            continue
        if plan[0] == "add":
            cand, ops = _additive_repair(rows, plan[1])
            return cand, MitigationLog(ops, plan)
        _, r, c = plan
        rotated = [row[c:] + row[:c] for row in rows[r:] + rows[:r]]
        if any(e.is_zero() for row in rotated[1:-1] for e in row[1:-1]):
            continue
        if r == c == 0:
            return a, MitigationLog((), plan)
        return Matrix(rotated), MitigationLog(_rotation_swaps(n, r, c), plan)
    raise UnremovableZero("every mitigation plan failed or was excluded")


def condensation_det(a: Matrix):
    """Determinant of ``a`` by condensation; returns (value, trace).

    Runs mitigation first (for n >= 3; smaller sizes have no interior),
    restarts under a fresh plan whenever a zero divisor appears mid-run (at
    most 2n restarts), and multiplies the result by the accumulated swap
    sign.  Raises FallbackRequired when the strategy is exhausted.
    """
    if not a.is_square:
        raise ValueError("condensation needs a square matrix")
    n = a.n_rows
    real = isinstance(a[0, 0], ApproxReal)
    ops = OpCount()
    budget = 2 * n
    excluded = []
    restarts = []
    warning = False
    for _ in range(budget + 1):
        if n < 3:
            a0, log = a, MitigationLog()
        else:
            try:
                a0, log = mitigate_interior_zeros(a, exclude=excluded)
            except UnremovableZero as e:
                raise FallbackRequired(str(e)) from e
        stages = [a0]
        k = 0
        try:
            for k in range(1, n):
                divisor = stages[k - 2].interior() if k >= 2 else None
                if real and divisor is not None:
                    # a zero divisor is inside this bound too, so an aborted
                    # attempt always sets the warning
                    warning = warning or any(
                        abs(d.value) < 1e3 * d.tolerance
                        for row in divisor.rows()
                        for d in row
                    )
                stages.append(condense_step(stages[k - 1], divisor, ops))
        except DivisionByZero as e:
            restarts.append((k, e.position))
            excluded.append(log.plan)
            continue
        result = stages[-1][0, 0]
        if log.sign < 0:
            result = -result
        trace = CondensationTrace(tuple(stages), log, ops, tuple(restarts), warning)
        return result, trace
    raise FallbackRequired(
        f"no clean condensation path within {budget} restarts"
    ) from UnremovableZero("restart budget exhausted")


def replay_log(a: Matrix, log: MitigationLog) -> Matrix:
    """Re-apply a mitigation log to a matrix (trace reproducibility)."""
    rows = [list(r) for r in a.rows()]
    for op in log.operations:
        _apply_operation(rows, op)
    return Matrix(rows)


def _matrix_body(m: Matrix) -> str:
    return "\n".join(
        " ".join(format_scalar(e) for e in row) for row in m.rows()
    )


def render_trace(trace: CondensationTrace) -> str:
    """Serialize a trace: stage blocks, restart notes, mitigation log, sign."""
    n = trace.stages[0].n_rows
    lines = []
    for k, stage in enumerate(trace.stages):
        if k >= 2:
            lines.append(f"stage {k} (pre-division)")
            lines.append(_matrix_body(trace.starred[k - 2]))
        lines.append(f"stage {k} ({n - k} x {n - k})")
        lines.append(_matrix_body(stage))
    for stage_k, pos in trace.restarts:
        lines.append(f"restart: zero divisor at stage {stage_k}, minor ({pos[0]}, {pos[1]})")
    for op in trace.mitigation.operations:
        if op[0].startswith("swap"):
            lines.append(f"{op[0]} {op[1]} {op[2]}")
        else:
            lines.append(f"{op[0]} {op[1]} {op[2]} {format_scalar(op[3])}")
    lines.append(f"sign: {trace.mitigation.sign:+d}")
    return "\n".join(lines) + "\n"
