import contextlib
import itertools
import math
import pathlib
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactdet import condense, huckel
from exactdet import ring as ring_module
from exactdet.condense import (
    CondensationTrace,
    FallbackRequired,
    MitigationLog,
    OpCount,
    UnremovableZero,
    condensation_det,
    condense_step,
    mitigate_interior_zeros,
    render_trace,
    replay_log,
)
from exactdet.huckel import PiSystem, secular_matrix
from exactdet import matrix as matrix_module
from exactdet.matrix import IndexOutOfRange, Matrix, TooSmall, int_matrix, parse_matrix, text_rows
from exactdet.oracle import bareiss_det, cofactor_det, elimination_det
from exactdet.ring import (
    DEFAULT_TOLERANCE,
    ApproxReal,
    DivisionByZero,
    ExactInteger,
    ExactRational,
    InexactDivision,
    Polynomial,
    RingMismatch,
    integer_quotient,
    kernel_quotient,
    real_quotient,
)

from test_cli import profiled_calls
from test_elimination import NAPHTHALENE, cycle
from test_matrix import CLEAN4, RESTART4, identity

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
STAGE1 = [[2, 4, 6], [-1, 5, -8], [1, -11, 8]]


def clean_mults(n):
    return sum(2 * k * k for k in range(1, n))


def clean_divs(n):
    return sum(k * k for k in range(1, n - 1))


def clean_adds(n):
    return sum(k * k for k in range(1, n))


@contextlib.contextmanager
def matrices_built(monkeypatch):
    """Collects one entry per ``Matrix`` constructed inside the block, from
    scalars or from native rows."""
    built = []
    original = Matrix.__init__

    def counting_init(self, rows, ring=None):
        built.append(1)
        original(self, rows, ring)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    try:
        yield built
    finally:
        monkeypatch.undo()


RINGS = ["integer", "rational", "real", "polynomial"]
# small entries, so zero divisors turn up in every ring
ENTRIES = {
    "integer": lambda rng: ExactInteger(rng.randint(-3, 3)),
    "rational": lambda rng: ExactRational(rng.randint(-3, 3), rng.randint(1, 3)),
    "real": lambda rng: ApproxReal(
        rng.choice([0.0, 1e-12]) if rng.random() < 0.15 else rng.uniform(-4, 4)
    ),
    "polynomial": lambda rng: Polynomial(
        [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
    ),
}


def scalar_step(current, divisor):
    """One condensation round on Scalar entries, entry by entry."""
    rows = current.rows()
    out = []
    for i in range(current.n_rows - 1):
        row = []
        for j in range(current.n_cols - 1):
            a, b = rows[i][j], rows[i][j + 1]
            c, d = rows[i + 1][j], rows[i + 1][j + 1]
            minor = a * d - b * c
            if divisor is not None:
                try:
                    minor = minor.exact_div(divisor[i, j])
                except DivisionByZero as e:
                    raise DivisionByZero(str(e), position=(i, j)) from e
            row.append(minor)
        out.append(row)
    return Matrix(out)


def entry_reprs(m):
    return [[repr(e) for e in row] for row in m.rows()]


def constant(x, k):
    """The integer k in the ring of the scalar x, built by the scalar's own
    constructor, so the reference repairs do not depend on the engine."""
    return Polynomial([k]) if isinstance(x, Polynomial) else type(x)(k)


def stepwise_stages(m):
    """Every stage of a condensation of ``m`` by ``condense_step``."""
    stages = [m]
    for k in range(1, m.n_rows):
        divisor = stages[k - 2].interior() if k >= 2 else None
        stages.append(condense_step(stages[k - 1], divisor, OpCount()))
    return stages


class TestCondenseStep:
    @pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[7]]])
    def test_needs_a_square_matrix_of_two_rows_or_more(self, rows):
        with pytest.raises(ValueError, match=r"^condense_step needs a square matrix, n >= 2$"):
            condense_step(int_matrix(rows), None, OpCount())

    def test_first_step_no_division(self):
        ops = OpCount()
        out = condense_step(int_matrix(CLEAN4), None, ops)
        assert out == int_matrix(STAGE1)
        assert ops == OpCount(mults=18, divs=0, adds=9)

    def test_second_step_divides_by_interior(self):
        ops = OpCount()
        out = condense_step(
            int_matrix(STAGE1), int_matrix(CLEAN4).interior(), ops
        )
        assert out == int_matrix([[14, -31], [-6, -16]])
        assert ops == OpCount(mults=8, divs=4, adds=4)

    def test_final_step(self):
        ops = OpCount()
        out = condense_step(
            int_matrix([[14, -31], [-6, -16]]), int_matrix([[5]]), ops
        )
        assert out == int_matrix([[-82]])

    def test_zero_divisor_carries_position(self):
        # (current, divisor, failing position, ops spent up to the failure);
        # in the 3x3 step the minors at (0, 0) and (0, 1) divide before (1, 0)
        cases = [
            ([[1, 2], [3, 4]], [[0]], (0, 0), OpCount(mults=2, divs=0, adds=1)),
            (STAGE1, [[1, 1], [0, 1]], (1, 0), OpCount(mults=6, divs=2, adds=3)),
        ]
        for current, divisor, position, spent in cases:
            ops = OpCount()
            with pytest.raises(DivisionByZero) as err:
                condense_step(int_matrix(current), int_matrix(divisor), ops)
            assert err.value.position == position
            assert ops == spent

    def test_inexact_division_carries_position(self):
        # 3*1 - 1*1 = 2 is not divisible by 4; 2x2 at (0, 0) is the culprit
        ops = OpCount()
        with pytest.raises(InexactDivision) as err:
            condense_step(int_matrix([[3, 1], [1, 1]]), int_matrix([[4]]), ops)
        assert err.value.position == (0, 0)
        assert str(err.value) == "4 does not divide 2"

    def test_divisor_shape_checked(self):
        with pytest.raises(ValueError):
            condense_step(int_matrix(STAGE1), int_matrix([[1]]), OpCount())

    @pytest.mark.parametrize("ring", RINGS)
    def test_agrees_with_scalar_formula(self, ring):
        # every stage of seeded condensations, and the failing step of those
        # that hit a zero divisor, against (a*d - b*c).exact_div(e) per entry
        rng = random.Random(sum(map(ord, ring)))
        entry = ENTRIES[ring]
        divided = failed = 0
        for n in (2, 3, 4, 5, 6):
            for _ in range(12):
                stages = [Matrix([[entry(rng) for _ in range(n)] for _ in range(n)])]
                for k in range(1, n):
                    divisor = stages[k - 2].interior() if k >= 2 else None
                    try:
                        expected = scalar_step(stages[k - 1], divisor)
                    except DivisionByZero as e:
                        with pytest.raises(DivisionByZero) as err:
                            condense_step(stages[k - 1], divisor, OpCount())
                        assert err.value.position == e.position
                        assert str(err.value) == str(e)
                        failed += 1
                        break
                    out = condense_step(stages[k - 1], divisor, OpCount())
                    assert entry_reprs(out) == entry_reprs(expected)
                    divided += divisor is not None
                    stages.append(out)
        # both outcomes are reached: divided stages and zero divisors
        assert divided > 20 and failed > 10

    @pytest.mark.parametrize("ring", ["rational", "real", "polynomial"])
    def test_zero_divisor_in_every_ring(self, ring):
        # the integer case of test_zero_divisor_carries_position in the other
        # rings: rational 0, a real below the 1e-9 tolerance, the zero polynomial
        wrap = {
            "rational": ExactRational,
            "real": ApproxReal,
            "polynomial": lambda v: Polynomial([v]),
        }[ring]
        zero = {"real": ApproxReal(1e-12), "polynomial": Polynomial()}.get(ring, wrap(0))
        current = Matrix([[wrap(v) for v in row] for row in STAGE1])
        divisor = Matrix([[wrap(1), wrap(1)], [zero, wrap(1)]])
        ops = OpCount()
        with pytest.raises(DivisionByZero) as err:
            condense_step(current, divisor, ops)
        assert err.value.position == (1, 0)
        assert ops == OpCount(mults=6, divs=2, adds=3)

    def test_ring_mismatch_with_divisor(self):
        rational = Matrix([[ExactRational(v) for v in row] for row in [[1, 1], [1, 1]]])
        with pytest.raises(RingMismatch):
            condense_step(int_matrix(STAGE1), rational, OpCount())
        with pytest.raises(RingMismatch):
            condense_step(
                Matrix([[ExactRational(v) for v in row] for row in STAGE1]),
                int_matrix([[1, 1], [1, 1]]),
                OpCount(),
            )

    @pytest.mark.parametrize("ring", RINGS)
    def test_independent_of_the_kernel(self, ring, monkeypatch):
        # the scalar reference runs with the stage kernel patched to raise:
        # CLEAN4's stages, and RESTART4's zero divisor at stage 3, minor (0, 0)
        wrap = {
            "integer": ExactInteger,
            "rational": ExactRational,
            "real": lambda v: ApproxReal(float(v)),
            "polynomial": lambda v: Polynomial([v]),
        }[ring]

        def matrix(rows):
            return Matrix([[wrap(v) for v in r] for r in rows])

        def no_kernel(*args):
            raise AssertionError("condense_step ran the stage kernel")

        monkeypatch.setattr(condense, "_condense_rows", no_kernel)
        assert stepwise_stages(matrix(CLEAN4)) == [
            matrix(CLEAN4), matrix(STAGE1), matrix([[14, -31], [-6, -16]]), matrix([[-82]])
        ]
        ops = OpCount()
        stage1 = condense_step(matrix(RESTART4), None, ops)
        assert stage1 == matrix([[1, 6, -24], [-16, 0, 6], [7, -3, 2]])
        stage2 = condense_step(stage1, matrix(RESTART4).interior(), ops)
        assert stage2 == matrix([[32, 6], [48, 9]])
        with pytest.raises(DivisionByZero) as err:
            condense_step(stage2, stage1.interior(), ops)
        assert err.value.position == (0, 0)
        assert ops == OpCount(mults=28, divs=4, adds=14)


# the kernel's integer rows [[1, 1, 1], [1, 2, 3], [1, 4, 9]], whose minors
# are [[1, 1], [2, 6]], as integer, cleared rational and packed polynomial
# matrices: rational row i has the denominator L_i, polynomials are constants
KERNEL_ROWS = [[1, 1, 1], [1, 2, 3], [1, 4, 9]]
KERNEL_INPUTS = {
    "integer": lambda: int_matrix(KERNEL_ROWS),
    "rational": lambda: Matrix(
        [[ExactRational(v, s) for v in r] for r, s in zip(KERNEL_ROWS, (2, 3, 1))]
    ),
    "polynomial": lambda: Matrix([[Polynomial([v]) for v in r] for r in KERNEL_ROWS]),
}


# stage 0 of a real kernel round; its 2x2 minors are exact in floats
REAL_ROWS = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.5], [7.0, 8.5, 9.0]]


square_ints = st.integers(2, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


class TestKernel:
    @pytest.mark.parametrize("ring", sorted(KERNEL_INPUTS))
    @pytest.mark.parametrize(
        "divisor,error,message",
        [
            ([[1, 1], [2, 3]], None, None),
            ([[1, 1], [0, 3]], DivisionByZero, "integer division by zero"),
            ([[1, 1], [1, 0]], DivisionByZero, "integer division by zero"),
            ([[1, 1], [4, 3]], InexactDivision, "4 does not divide 2"),
            # the first failed division in the row decides the error
            ([[1, 1], [4, 0]], InexactDivision, "4 does not divide 2"),
            ([[1, 1], [0, 4]], DivisionByZero, "integer division by zero"),
        ],
    )
    def test_division_errors(self, ring, divisor, error, message):
        # the kernel raises what integer_quotient raises, never a bare
        # ZeroDivisionError, on every ring that condenses on integers
        m = KERNEL_INPUTS[ring]()
        rows = m.kernel.rows
        assert [list(r) for r in rows] == KERNEL_ROWS
        assert kernel_quotient(m.native_ring) is integer_quotient
        if error is None:
            assert condense._condense_rows(rows, divisor, integer_quotient) == [[1, 1], [1, 2]]
            return
        with pytest.raises(error) as err:
            condense._condense_rows(rows, divisor, integer_quotient)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_integer_quotients_are_checked_as_they_are_formed(self):
        # integer, cleared rational and packed polynomial runs, and their
        # traces, never call integer_quotient, by which every exact ring's
        # kernel form divides: the kernel checks each quotient as it forms
        # it, and only a failed row, which a run never has, is divided again
        # entry by entry
        rings = (ring_module.INTEGERS, ring_module.RATIONALS, ring_module.POLYNOMIALS)
        assert {kernel_quotient(r) for r in rings} == {integer_quotient}
        rng = random.Random("fused-kernel")
        cases = [
            int_matrix([[rng.randint(-10**6, 10**6) for _ in range(9)] for _ in range(9)]),
            int_matrix(RESTART4),
            Matrix(
                [[ExactRational(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(7)] for _ in range(7)]
            ),
            secular_matrix(PiSystem.chain(6)),
        ]

        def run(m):
            det, trace = condensation_det(m)
            return det, trace, trace.stages

        for m in cases:
            (det, trace, stages), calls = profiled_calls({integer_quotient.__code__}, lambda: run(m))
            assert calls == 0
            assert det == bareiss_det(m)
            assert list(stages) == stepwise_stages(trace.mitigated)

    @given(rows=square_ints)
    def test_stages_equal_condense_step(self, rows):
        # every kernel stage of a seeded integer matrix is condense_step's,
        # and a zero divisor raises the same error in both
        stages = [int_matrix(rows)]
        kernel = condense._stage_rows([list(r) for r in rows], integer_quotient)
        for k in range(1, len(rows)):
            divisor = stages[k - 2].interior() if k >= 2 else None
            try:
                stages.append(condense_step(stages[k - 1], divisor, OpCount()))
            except (DivisionByZero, InexactDivision) as e:
                with pytest.raises(type(e)) as err:
                    next(kernel)
                assert str(err.value) == str(e)
                return
            assert next(kernel) == [list(r) for r in stages[k].native_rows]

    @given(rows=square_ints, data=st.data())
    def test_round_with_any_divisor(self, rows, data):
        # one round by divisors drawn freely, so that inexact quotients and
        # zeros anywhere in the divisor rows are reached too
        w = len(rows) - 1
        divisor = data.draw(
            st.lists(st.lists(st.integers(-4, 4), min_size=w, max_size=w), min_size=w, max_size=w)
        )
        try:
            want = condense_step(int_matrix(rows), int_matrix(divisor), OpCount())
        except (DivisionByZero, InexactDivision) as e:
            with pytest.raises(type(e)) as err:
                condense._condense_rows(rows, divisor, integer_quotient)
            assert type(err.value) is type(e)
            assert str(err.value) == str(e)
        else:
            got = condense._condense_rows(rows, divisor, integer_quotient)
            assert got == [list(r) for r in want.native_rows]

    @pytest.mark.parametrize("zero", [0.0, -0.0, 1e-10, -1e-10])
    @pytest.mark.parametrize("at", [(0, 0), (1, 1)])
    def test_real_division_by_near_zero(self, zero, at):
        # a real divisor the real zero rule counts as zero raises the real
        # quotient's error, never a bare ZeroDivisionError
        divisor = [[1.0, 2.0], [0.5, 3.0]]
        divisor[at[0]][at[1]] = zero
        with pytest.raises(DivisionByZero) as err:
            condense._condense_rows(REAL_ROWS, divisor, real_quotient)
        assert type(err.value) is DivisionByZero
        assert str(err.value) == "real division by (near-)zero"

    def test_real_division_is_plain(self):
        # a divisor above the zero rule's tolerance divides as floats do
        divisor = [[1e-8, 2.0], [0.5, -3.0]]
        minors = [[-3.0, -2.0], [-1.0, -10.25]]
        got = condense._condense_rows(REAL_ROWS, divisor, real_quotient)
        assert got == [[x / d for x, d in zip(m, e)] for m, e in zip(minors, divisor)]


ROTATIONS = [(n, r, c) for n in range(3, 10) for r in range(n) for c in range(n)]


class TestRotationLog:
    def test_sign_operations_and_repr(self):
        # the sign is read off the plan, before any swap is built, and is
        # the parity the same swaps give as an explicit log
        for n, r, c in ROTATIONS:
            log = MitigationLog.rotation(n, r, c)
            sign = log.sign
            swaps = condense._rotation_swaps(n, r, c)
            assert log.plan == ("rot", r, c)
            assert log.operations == tuple(swaps)
            assert log.operations is log.operations
            assert sign == log.sign == MitigationLog(swaps).sign == (-1) ** ((r + c) * (n - 1))
            assert repr(log) == f"MitigationLog({swaps!r}, plan=('rot', {r}, {c}))"

    def test_sign_builds_no_swap(self, monkeypatch):
        def no_swaps(*args):
            raise AssertionError("a rotation's swaps were built")

        monkeypatch.setattr(condense, "_rotation_swaps", no_swaps)
        for n, r, c in ROTATIONS:
            assert MitigationLog.rotation(n, r, c).sign == (-1) ** ((r + c) * (n - 1))

    def test_untraced_det_builds_no_swap(self, monkeypatch, capsys):
        # rotated [-9, 9] inputs condense, restart and fall back without
        # building one swap; a trace then prints the swaps of the plan
        from exactdet.cli import main

        rng = random.Random("lazy-rotation-log")
        cases = [
            int_matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            for n in (7, 8, 9)
            for _ in range(20)
        ]
        cases += [int_matrix(RESTART4), parse_matrix((FIXTURES / "rotate5.txt").read_text())]
        swaps = condense._rotation_swaps

        def no_swaps(*args):
            raise AssertionError("a rotation's swaps were built")

        rotated = 0
        for m in cases:
            with monkeypatch.context() as patched:
                patched.setattr(condense, "_rotation_swaps", no_swaps)
                try:
                    det, trace = condensation_det(m)
                except FallbackRequired:
                    continue
                assert det == bareiss_det(m)
            plan = trace.mitigation.plan
            if plan[0] == "rot" and plan != ("rot", 0, 0):
                rotated += 1
                assert trace.mitigation.operations == tuple(swaps(m.n_rows, *plan[1:]))
        assert rotated >= 10
        with monkeypatch.context() as patched:
            patched.setattr(condense, "_rotation_swaps", no_swaps)
            assert main(["det", str(FIXTURES / "rotate5.txt")]) == 0
        assert capsys.readouterr().out == "-149\n"
        assert main(["det", str(FIXTURES / "rotate5.txt"), "--trace"]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = [line for line in lines if line.startswith("swap")]
        assert printed == [f"{op} {i} {j}" for op, i, j in swaps(5, 2, 1)]


class TestMitigation:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, 2, 3], [4, 5, 6]], "mitigation needs a square matrix"),
            ([[1, 2], [3, 4]], "mitigation needs n >= 3"),
        ],
    )
    def test_too_small(self, rows, message):
        with pytest.raises(TooSmall, match=message):
            mitigate_interior_zeros(int_matrix(rows))

    def test_clean_interior_is_identity_plan(self):
        m = int_matrix(CLEAN4)
        out, log = mitigate_interior_zeros(m)
        assert out is m
        assert log.operations == ()
        assert log.plan == ("rot", 0, 0)
        assert log.sign == 1

    def test_restart4_needs_nothing_up_front(self):
        # the zero only appears in a later stage; stage 0's interior is clean
        out, log = mitigate_interior_zeros(int_matrix(RESTART4))
        assert out == int_matrix(RESTART4)
        assert log.operations == ()

    def test_center_zero_fixed_by_rotation(self):
        m = int_matrix([[1, 2, 3], [4, 0, 6], [7, 8, 9]])
        out, log = mitigate_interior_zeros(m)
        assert not out.interior()[0, 0].is_zero()
        assert log.plan == ("rot", 1, 0)
        # determinant-preservation up to the recorded sign
        assert cofactor_det(out) == (
            cofactor_det(m) if log.sign == 1 else -cofactor_det(m)
        )

    def test_checkerboard_needs_additions(self, monkeypatch):
        # every cyclic 2x2 interior block of this pattern contains zeros,
        # so all rotation plans fail and additive repair must kick in
        m = int_matrix([[(i + j) % 2 for j in range(4)] for i in range(4)])
        with matrices_built(monkeypatch) as built:
            out, log = mitigate_interior_zeros(m)
        # the repair works on row lists and builds only the returned Matrix
        assert len(built) == 1
        assert log.plan == ("add", 0)
        assert all(op[0].startswith("add") for op in log.operations)
        assert log.sign == 1
        inner = out.interior()
        assert all(
            not inner[i, j].is_zero() for i in range(2) for j in range(2)
        )
        assert cofactor_det(out) == cofactor_det(m)

    def test_exclusion_skips_plans(self):
        m = int_matrix(CLEAN4)
        out, log = mitigate_interior_zeros(m, exclude=[("rot", 0, 0)])
        assert log.plan != ("rot", 0, 0)
        assert log.operations != ()

    def test_zero_matrix_unremovable(self):
        z = int_matrix([[0] * 4 for _ in range(4)])
        with pytest.raises(UnremovableZero):
            mitigate_interior_zeros(z)

    def test_a_matrix_finds_each_row_shifts_columns_once(self, monkeypatch):
        # repeated calls on one matrix, with exclusions shrinking as well as
        # growing, return what a fresh matrix returns; each row shift's
        # column shifts are found once; the two zeros in row 2 let every
        # rotation with row shift 2 or 3, or column shift 3, clear them
        rows = [[0 if (i, j) in {(2, 2), (2, 3)} else 1 + i * j % 5 for j in range(6)] for i in range(6)]
        order = [("rot", 0, 0)]  # rejected: the interior holds zeros
        while order[-1] != ("add", 5):
            order.append(mitigate_interior_zeros(int_matrix(rows), exclude=order)[1].plan)
        calls = [order[:k] for k in (3, 1, 0, len(order) - 1, 2, len(order))]
        fresh = [mitigate_interior_zeros(int_matrix(rows), exclude=e) for e in calls[:-1]]
        m, walked = int_matrix(rows), []
        original = condense._column_shifts
        monkeypatch.setattr(
            condense, "_column_shifts", lambda *args: walked.append(args[2]) or original(*args)
        )
        for exclude, (out, log) in zip(calls, fresh):
            got, got_log = mitigate_interior_zeros(m, exclude=exclude)
            assert (got_log.plan, got_log.operations, got) == (log.plan, log.operations, out)
        with pytest.raises(UnremovableZero, match="every mitigation plan failed or was excluded"):
            mitigate_interior_zeros(m, exclude=calls[-1])
        assert walked == list(range(6))
        assert len(order) == 1 + 16 + 6 and ("rot", 1, 3) in order

    @pytest.mark.parametrize("exclude", [[], [("rot", 0, 0)], [("add", 0)]])
    def test_the_sparse_rule_ends_every_walk(self, exclude):
        # the order ends with the rule's refusal, on the first call and on
        # every later call on the same matrix
        m = with_zeros_at(random.Random("zeros-34"), 10, 34)
        assert shortcut_applies(m)
        for _ in range(3):
            with pytest.raises(UnremovableZero, match=SHORTCUT):
                mitigate_interior_zeros(m, exclude=exclude)

    def test_threads_sharing_a_matrix_agree(self):
        # the column shifts a matrix keeps are plain data, which racing walks
        # write alike, so runs on one matrix from several threads agree with
        # a run on a fresh copy; a switch every microsecond interleaves them
        rng = random.Random(17)
        draws = [[[rng.choice([0, 0, 1, -1, 2]) for _ in range(7)] for _ in range(7)] for _ in range(12)]

        def outcome(m):
            try:
                value, trace = condensation_det(m)
                return value, trace.restarts
            except FallbackRequired as e:
                return str(e)

        expected = [outcome(int_matrix(rows)) for rows in draws]
        assert sum(isinstance(o, tuple) and len(o[1]) > 1 for o in expected) >= 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rows, want in zip(draws * 5, expected * 5):
                m, got = int_matrix(rows), []
                threads = [threading.Thread(target=lambda: got.append(outcome(m))) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert got == [want] * 6
        finally:
            sys.setswitchinterval(interval)

    def test_replay_matches_returned_matrix(self):
        m = int_matrix([[(i + j) % 2 for j in range(4)] for i in range(4)])
        out, log = mitigate_interior_zeros(m)
        assert replay_log(m, log) == out

    def test_every_rotation_plan_logs_its_swaps(self):
        # entries in 1..9 leave every rotation's interior clean, so excluding
        # the plans before it reaches each rotation plan in turn
        rng = random.Random(7)
        for n in (5, 6, 7):
            m = int_matrix([[rng.randint(1, 9) for _ in range(n)] for _ in range(n)])
            order = rotation_order(n)
            for k, plan in enumerate(order):
                out, log = mitigate_interior_zeros(m, exclude=order[:k])
                assert log.plan == plan
                _, r, c = plan
                assert len(log.operations) == (r + c) * (n - 1)
                assert log.sign == (-1) ** ((r + c) * (n - 1))
                assert replay_log(m, log) == out

    def test_rejected_plans_build_no_matrix(self, monkeypatch):
        # only the interior entry a[2][2] is nonzero, so the five plans before
        # ("rot", 1, 1) are rejected; the accepted one builds the only Matrix
        m = int_matrix([[1, 0, 1], [0, 0, 0], [1, 0, 1]])
        with matrices_built(monkeypatch) as built:
            out, log = mitigate_interior_zeros(m)
        assert log.plan == ("rot", 1, 1)
        assert len(built) == 1
        assert out == int_matrix([[0, 0, 0], [0, 1, 1], [0, 1, 1]])
        assert replay_log(m, log) == out

    @pytest.mark.parametrize("kind", ["integer", "rational", "real", "secular"])
    def test_zero_set_rule_matches_rotated_interiors(self, kind):
        # the oracle judges each rotation the direct way: build the rotated
        # rows, then test every interior entry with its ring's is_zero
        def oracle(a, exclude):
            rows, n = a.rows(), a.n_rows
            for plan in rotation_order(n):
                if plan in exclude:
                    continue
                _, r, c = plan
                rotated = [row[c:] + row[:c] for row in rows[r:] + rows[:r]]
                if not any(e.is_zero() for row in rotated[1:-1] for e in row[1:-1]):
                    return plan, Matrix(rotated)
            return ("add", 0), None

        for a in zero_set_inputs(kind):
            order = rotation_order(a.n_rows)
            for k in range(len(order) + 1):
                plan, expected = oracle(a, order[:k])
                try:
                    out, log = mitigate_interior_zeros(a, exclude=order[:k])
                except UnremovableZero:
                    assert plan == ("add", 0)
                    continue
                assert log.plan == plan
                if plan == ("rot", 0, 0):
                    assert out is a
                if expected is not None:
                    assert out == expected

    @pytest.mark.parametrize(
        "zeros, plan",
        [([(6, 6)], ("rot", 6, 0)), ([(6, 6), (1, 5)], ("rot", 0, 6))],
    )
    def test_plan_search_tests_each_entry_once(self, monkeypatch, zeros, plan):
        # at most n^2 = 64 zero tests, however many plans are rejected
        m = int_matrix(
            [[0 if (i, j) in zeros else 1 for j in range(8)] for i in range(8)]
        )
        tested = counted_zero_tests(monkeypatch)
        _, log = mitigate_interior_zeros(m)
        assert log.plan == plan
        assert 0 < len(tested) <= 64

    def test_rotation_rule_matches_brute_force(self):
        # random zero sets and exclude lists: the accepted plan is the first
        # one in the documented order that leaves each zero in row r or
        # r - 1 or in column c or c - 1 (mod n)
        rng = random.Random("rotation-rule")
        for n in range(3, 13):
            order = rotation_order(n)
            for _ in range(30):
                share = rng.choice([0.05, 0.15, 0.3])
                zeros = {(i, j) for i in range(n) for j in range(n) if rng.random() < share}
                m = int_matrix([[0 if (i, j) in zeros else 1 for j in range(n)] for i in range(n)])
                exclude = rng.sample(order, rng.randint(0, len(order) // 2))
                expected = next(
                    (
                        (kind, r, c)
                        for kind, r, c in order
                        if (kind, r, c) not in exclude
                        and all(i in (r, (r - 1) % n) or j in (c, (c - 1) % n) for i, j in zeros)
                    ),
                    None,
                )
                try:
                    out, log = mitigate_interior_zeros(m, exclude=exclude)
                except UnremovableZero:
                    assert expected is None
                    continue
                if expected is None:
                    assert log.plan[0] == "add"
                    continue
                assert log.plan == expected
                if expected == ("rot", 0, 0):
                    assert out is m

    def test_repair_retests_only_changed_lines(self, monkeypatch):
        # the 8x8 checkerboard defeats every rotation; the repair's 6 row
        # additions each re-test only the entries whose source entry is
        # nonzero, 4 of row 0 and, once row 0 is added to it, 8 of row 1:
        # 64 + 3 * (4 + 8) tests, where re-testing whole rows made 64 + 6 * 8
        m = int_matrix([[(i + j) % 2 for j in range(8)] for i in range(8)])
        tested = counted_zero_tests(monkeypatch)
        _, log = mitigate_interior_zeros(m)
        pairs = [(0, 1), (1, 2), (0, 3), (1, 4), (0, 5), (1, 6)]
        assert log.operations == tuple(
            ("add_scaled_row", src, dst, ExactInteger(1)) for src, dst in pairs
        )
        assert log.plan == ("add", 0)
        assert len(tested) == 64 + 3 * (4 + 8)

    def test_zero_set_is_read_once_per_input(self, monkeypatch):
        # entries of about 1e-3 leave every interior nonzero but make later
        # divisors fall below the tolerance: every attempt restarts, the
        # third takes the failed attempts' work past two clean runs, and the
        # run falls back, having tested the input's 64 entries once
        rng = random.Random(3)
        m = Matrix([[ApproxReal(rng.uniform(-1e-3, 1e-3)) for _ in range(8)] for _ in range(8)])
        calls = []
        original = condense.mitigate_interior_zeros

        def counting_mitigation(a, exclude=()):
            calls.append(a)
            return original(a, exclude=exclude)

        monkeypatch.setattr(condense, "mitigate_interior_zeros", counting_mitigation)
        tested = counted_zero_tests(monkeypatch)
        with pytest.raises(FallbackRequired):
            condensation_det(m)
        assert len(calls) == 3 and all(a is m for a in calls)
        assert len(tested) == 64

    @pytest.mark.parametrize("kind", RINGS)
    @given(data=st.data())
    def test_repair_matches_the_scalar_reference(self, kind, data):
        # sparse draws in every ring, with random plans excluded: the
        # mitigation on native rows logs what the scalar reference logs,
        # factors included, and its matrix is that log replayed on scalars
        m = data.draw(sparse_matrices(SPARSE_ENTRIES[kind]))
        n = m.n_rows
        plans = rotation_order(n) + [("add", salt) for salt in range(n)]
        exclude = data.draw(st.lists(st.sampled_from(plans), unique=True))
        try:
            expected = reference_mitigation(m, exclude)
        except UnremovableZero:
            with pytest.raises(UnremovableZero):
                mitigate_interior_zeros(m, exclude=exclude)
            return
        out, log = mitigate_interior_zeros(m, exclude=exclude)
        assert (log.plan, log.operations) == (expected.plan, expected.operations)
        assert repr(log) == repr(expected)
        assert out == replay_log(m, log)
        assert entry_reprs(out) == entry_reprs(replay_log(m, log))

    @pytest.mark.parametrize("kind", RINGS)
    def test_repair_matches_the_rescanning_loop(self, kind):
        # seeded sparse matrices, n = 3..9, every salt: the repair on the
        # kernel form, which keeps its interior zeros, logs, repairs (its rows
        # decoded) and leaves the zero set as the loop on native values that
        # rescans the interior and re-tests whole lines, and fails with its
        # messages; polynomials are packed at the width rule's W as well as
        # at mitigation's wider one, so repairs outgrow their width
        rng = random.Random(f"rescanning-{kind}")
        stretches = (1, 4) if kind == "polynomial" else (None,)
        entry = REPAIR_ENTRIES[kind]
        zero = constant(entry(rng), 0)
        failed = set()
        for n in range(3, 10):
            for draw in range(6):
                m = [[entry(rng) for _ in range(n)] for _ in range(n)]
                if draw == 0:
                    # an interior zero with no source: its row and column
                    # are zero, so the repair fails there
                    i, j = rng.randint(1, n - 2), rng.randint(1, n - 2)
                    m = [[zero if i == s or j == t else x for t, x in enumerate(r)] for s, r in enumerate(m)]
                m = Matrix(m)
                for salt in range(n):
                    expected = repair_outcome(m, salt, rescanning_repair)
                    for stretch in stretches:
                        assert repair_outcome(m, salt, stretch=stretch) == expected
                    failed.add(expected[0].startswith("UnremovableZero"))
        assert failed == {True, False}

    def test_repair_retests_a_real_that_crosses_the_tolerance(self):
        # (1, 2) holds 8e-10 and its source (0, 2) 5e-10, both zero by the
        # real rule but nonzero as values: adding row 0 to row 1 to clear
        # (1, 1) makes (1, 2) 1.3e-9, no longer zero, so one operation
        # clears the interior; a re-test skipped because the source is in
        # the zero set would leave (1, 2) a zero and add a second operation
        m = Matrix(
            [
                [ApproxReal(v) for v in r]
                for r in [
                    [1.0, 1.0, 5e-10, 1.0],
                    [1.0, 0.0, 8e-10, 1.0],
                    [1.0, 2.0, 3.0, 4.0],
                    [4.0, 3.0, 2.0, 1.0],
                ]
            ]
        )
        assert m.zeros == {(0, 2), (1, 1), (1, 2)}
        zeros = set(m.zeros)
        form, ops = condense._additive_repair(m.kernel, None, zeros, 0, m.native_ring.is_zero)
        assert ops == [("add_scaled_row", 0, 1, 1)]
        assert form.rows[1] == [2.0, 1.0, 8e-10 + 5e-10, 2.0]
        assert zeros == {(0, 2)}
        assert repair_outcome(m, 0, rescanning_repair) == repair_outcome(m, 0)
        _, log = mitigate_interior_zeros(m, exclude=rotation_order(4))
        assert log.operations == (("add_scaled_row", 0, 1, ApproxReal(1.0)),)

    def test_real_repair_adds_a_zero_source(self):
        # -0.0 + 1.0 * 0.0 is 0.0: a zero number source is added, not skipped
        m = Matrix([[ApproxReal(v) for v in r] for r in [[0.0, 2.0, 3.0], [-0.0, 0.0, 5.0], [7.0, 4.0, 6.0]]])
        out, log = mitigate_interior_zeros(m, exclude=rotation_order(3))
        assert log.operations == (("add_scaled_row", 0, 1, ApproxReal(1.0)),)
        assert math.copysign(1.0, out[1, 0].value) == 1.0


def counted_zero_tests(monkeypatch):
    """Collects one entry per zero test mitigation makes, ``NativeRing.is_zero``."""
    tested = []
    field = ring_module.NativeRing.is_zero  # the field's descriptor

    def counting_is_zero(self):
        is_zero = field.__get__(self)

        def counted(x):
            tested.append(1)
            return is_zero(x)

        return counted

    monkeypatch.setattr(ring_module.NativeRing, "is_zero", property(counting_is_zero))
    return tested


def rotation_order(n):
    return (
        [("rot", 0, 0)]
        + [("rot", r, 0) for r in range(1, n)]
        + [("rot", 0, c) for c in range(1, n)]
        + [("rot", r, c) for r in range(1, n) for c in range(1, n)]
    )


def zero_set_inputs(kind):
    """Seeded square matrices with interior zeros, n = 3..8 (atoms 3..10
    for the secular matrices of chains and cycles)."""
    if kind == "secular":
        for n in range(3, 11):
            yield secular_matrix(PiSystem.chain(n))
            yield secular_matrix(
                PiSystem.from_edges(n, [(k, (k + 1) % n) for k in range(n)])
            )
        return
    rng = random.Random(f"zero-set-{kind}")
    entry = {
        "integer": lambda: ExactInteger(rng.randint(-2, 2)),
        "rational": lambda: ExactRational(
            rng.choice([0, 0, rng.randint(-5, 5)]), rng.randint(1, 7)
        ),
        "real": lambda: ApproxReal(
            rng.choice([0.0, 1e-12]) if rng.random() < 0.3 else rng.uniform(-2, 2)
        ),
    }[kind]
    for n in range(3, 9):
        for _ in range(4):
            yield Matrix([[entry() for _ in range(n)] for _ in range(n)])


def reference_repair(rows, salt):
    """The additive repair on scalar entries, rescanning the interior with
    ``is_zero`` after every operation; returns the operations."""
    m, n = Matrix(rows), len(rows)
    ops, attempts = [], {}
    for _ in range(4 * n * n):
        rows = m.rows()
        inner = ((i, j) for i in range(1, n - 1) for j in range(1, n - 1))
        zero_at = next((p for p in inner if rows[p[0]][p[1]].is_zero()), None)
        if zero_at is None:
            return ops
        i, j = zero_at
        attempts[zero_at] = attempts.get(zero_at, 0) + 1
        c = constant(rows[0][0], salt + attempts[zero_at])
        src = next((s for s in range(n) if s != i and not rows[s][j].is_zero()), None)
        if src is not None:
            op = ("add_scaled_row", src, i, c)
        else:
            src = next((t for t in range(n) if t != j and not rows[i][t].is_zero()), None)
            if src is None:
                raise UnremovableZero("no source")
            op = ("add_scaled_col", src, j, c)
        m = replay_log(m, MitigationLog([op]))
        ops.append(op)
    raise UnremovableZero("budget")


def rescanning_repair(rows, zeros, salt, ring):
    """``_additive_repair`` as it was before it kept its interior zeros and
    computed on the kernel form: on the native rows ``rows``, in place, it
    rescans the interior for the first zero before every operation, adds
    the ring's constant k times the source with the ring's native ``+`` and
    ``*``, and re-tests the whole row or column each operation changed.  The
    reference for the loop that re-tests only the entries with a nonzero
    source; returns the operations, each with its int k."""
    n = len(rows)
    interior = [(i, j) for i in range(1, n - 1) for j in range(1, n - 1)]
    attempts, ops = {}, []
    for _ in range(4 * n * n):
        zero_at = next((p for p in interior if p in zeros), None)
        if zero_at is None:
            return ops
        i, j = zero_at
        attempts[zero_at] = attempts.get(zero_at, 0) + 1
        k = salt + attempts[zero_at]
        src = next((s for s in range(n) if s != i and (s, j) not in zeros), None)
        if src is not None:
            op = ("add_scaled_row", src, i, k)
            changed = [(i, t) for t in range(n)]
        else:
            src = next((t for t in range(n) if t != j and (i, t) not in zeros), None)
            if src is None:
                raise UnremovableZero(
                    f"interior zero at ({i}, {j}) has no nonzero row or column source"
                )
            op = ("add_scaled_col", src, j, k)
            changed = [(s, j) for s in range(n)]
        c = ring.constant(k)
        if op[0] == "add_scaled_row":
            rows[i] = [d + c * x for d, x in zip(rows[i], rows[src])]
        else:
            for r in rows:
                r[j] = r[j] + c * r[src]
        ops.append(op)
        for s, t in changed:
            if ring.is_zero(rows[s][t]):
                zeros.add((s, t))
            else:
                zeros.discard((s, t))
    raise UnremovableZero("additive repair budget exhausted")


# native entries for the repair reference: zeros of every kind, and reals
# below the tolerance that cross it when added (8e-10 + 5e-10)
REPAIR_ENTRIES = {
    "integer": lambda rng: ExactInteger(rng.choice([0, 0, 1, -1, 2])),
    "rational": lambda rng: ExactRational(rng.choice([0, 0, 1, -1, 2]), rng.randint(1, 3)),
    "real": lambda rng: ApproxReal(rng.choice([0.0, -0.0, 1e-12, 5e-10, 8e-10, 0.5, -1.5, 2.0])),
    "polynomial": lambda rng: Polynomial(
        rng.choice([(), (), (1,), (0, 1), (0, -1), (-1, 2), (Fraction(1, 2),)])
    ),
}


def repair_outcome(m, salt, reference=None, stretch=4):
    """What additive repair with ``salt`` does to ``m``: the repr of its
    operations or its UnremovableZero message, the reprs of the repaired
    native rows (None when it fails), and the zero set it leaves.  Without
    a ``reference`` it is ``condense._additive_repair`` on ``m``'s kernel
    form, polynomials packed at ``stretch`` times the width rule's W, its
    rows decoded; a ``reference`` repairs a copy of the native rows."""
    zeros, ring = set(m.zeros), m.native_ring
    try:
        if reference is not None:
            rows = [list(r) for r in m.native_rows]
            ops = reference(rows, zeros, salt, ring)
        else:
            packed = ring is ring_module.POLYNOMIALS
            base = ring_module._packed_rows(m.native_rows, stretch) if packed else (m.kernel, None)
            form, ops = condense._additive_repair(*base, zeros, salt, ring.is_zero)
            rows = Matrix(form, ring).native_rows
            if ring is ring_module.RATIONALS:
                # each row keeps the scale the clearing rule gives it
                assert (tuple(map(tuple, form.rows)), tuple(form.scales)) == ring.encode(rows)[:2]
    except UnremovableZero as e:
        return f"UnremovableZero: {e}", None, zeros
    return repr(ops), [[repr(x) for x in r] for r in rows], zeros


def reference_mitigation(a, exclude=()):
    """``mitigate_interior_zeros`` on scalar entries: rotated interiors
    tested with ``is_zero``, and ``reference_repair``; returns the log."""
    rows, n = a.rows(), a.n_rows
    for plan in rotation_order(n) + [("add", salt) for salt in range(n)]:
        if plan in exclude:
            continue
        if plan[0] == "add":
            return MitigationLog(reference_repair(rows, plan[1]), plan)
        _, r, c = plan
        rotated = [row[c:] + row[:c] for row in rows[r:] + rows[:r]]
        if not any(e.is_zero() for row in rotated[1:-1] for e in row[1:-1]):
            return MitigationLog(condense._rotation_swaps(n, r, c), plan)
    raise UnremovableZero("every plan failed")


def near_zero_divisor(stage):
    """Whether the interior of a real ``Matrix`` stage holds an entry within
    1000x of the zero tolerance, the division warning's rule."""
    return any(
        isinstance(e, ApproxReal) and abs(e.value) < 1e3 * DEFAULT_TOLERANCE
        for row in stage.rows()[1:-1]
        for e in row[1:-1]
    )


def reference_condensation(a):
    """``condensation_det`` by ``condense_step`` on ``Matrix`` stages after
    ``reference_mitigation``; returns (det, log, restarts, ops, warning), or
    None where condensation gives up.  ``warning`` is whether any stage
    computed, in any attempt, holds a divisor ``near_zero_divisor`` finds.

    The work budget is taken from ``condense_step``'s own counts: each failed
    attempt adds the muldiv its steps counted, plus n per operation of an
    additive repair, and the run gives up once that exceeds twice the clean
    run's closed form, sum 2w^2 for w < n plus sum w^2 for w < n - 1."""
    n = a.n_rows
    ops, excluded, restarts, warning = OpCount(), [], [], False
    budget = 2 * (sum(2 * w * w for w in range(1, n)) + sum(w * w for w in range(1, n - 1)))
    wasted = 0
    while True:
        try:
            log = reference_mitigation(a, excluded)
        except UnremovableZero:
            return None
        stages = [replay_log(a, log)]
        charged = ops.muldiv
        try:
            for k in range(1, n):
                divisor = stages[k - 2].interior() if k >= 2 else None
                stages.append(condense_step(stages[k - 1], divisor, ops))
        except DivisionByZero as e:
            restarts.append((k, e.position))
            excluded.append(log.plan)
            wasted += ops.muldiv - charged + (n * len(log.operations) if log.plan[0] == "add" else 0)
            if wasted > budget:
                return None
            continue
        finally:
            warning = warning or any(map(near_zero_divisor, stages))
        det = stages[-1][0, 0]
        return (det if log.sign > 0 else -det), log, tuple(restarts), ops, warning


def random_polynomial_matrix(rng, n, coefficient, zero_share):
    """An n x n matrix of polynomials of degree at most 4, with about
    ``zero_share`` of them the zero polynomial."""
    return Matrix(
        [
            [
                Polynomial([])
                if rng.random() < zero_share
                else Polynomial([coefficient() for _ in range(rng.randint(1, 5))])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def clearing_packed_rows(rows):
    """``ring._packed_rows`` by the clearing pass alone: every row times
    the lcm of its coefficients' denominators, whatever their type."""
    scales = [math.lcm(*{c.denominator for p in r for c in p.coeffs}) for r in rows]
    coeffs = [
        [[c.numerator * (s // c.denominator) for c in p.coeffs] for p in r]
        for r, s in zip(rows, scales)
    ]
    bound = math.prod(max(1, sum(abs(c) for p in r for c in p)) for r in coeffs)
    width = bound.bit_length() + 1
    return [[ring_module.pack_polynomial(p, width) for p in r] for r in coeffs], width, scales


def repair_coefficients(coefficient):
    """Polynomials of degree at most 2 with coefficients ``coefficient``,
    zero in about half the draws."""
    poly = st.lists(coefficient, min_size=1, max_size=3).map(Polynomial)
    return st.one_of(st.just(Polynomial([])), poly)


# entries whose zeros make repairs, restarts and fallbacks common
REPAIRED_ENTRIES = {
    "integer-polynomial": repair_coefficients(st.integers(-2, 2)),
    "rational-polynomial": repair_coefficients(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))),
    "rational": st.builds(ExactRational, st.sampled_from([0, 0, 1, -1, 2]), st.integers(1, 3)),
}


class TestPackedPolynomials:
    @pytest.mark.parametrize("kind", sorted(REPAIRED_ENTRIES))
    @settings(max_examples=120)
    @given(data=st.data())
    def test_runs_match_the_native_reference(self, kind, data):
        # the repair on the kernel form against the native-value reference,
        # condense_step on its replayed log: value, op counts, restarts, the
        # log and the printed trace, which prints the factors unwrapped
        n = data.draw(st.integers(3, 6))
        m = Matrix(data.draw(st.lists(st.lists(REPAIRED_ENTRIES[kind], min_size=n, max_size=n), min_size=n, max_size=n)))
        expected = reference_condensation(m)
        try:
            det, trace = condensation_det(m)
        except FallbackRequired:
            assert expected is None
            return
        ref_det, log, restarts, ops, _ = expected
        text = render_trace(trace)
        assert (repr(det), trace.restarts, trace.ops) == (repr(ref_det), restarts, ops)
        assert repr(trace.mitigation) == repr(log)
        assert text == render_trace(CondensationTrace(replay_log(m, log), log, ops, restarts))

    @pytest.mark.parametrize("field", ["integer", "rational"])
    def test_matches_bareiss_and_stepwise_replay(self, field):
        # Z[x] coefficients up to 10^6, Q[x] ones p/q with q up to 99; the
        # zero polynomials make rotations, repairs, restarts and fallbacks
        rng = random.Random(f"packed-{field}")
        coefficient = {
            "integer": lambda: rng.randint(-10**6, 10**6),
            "rational": lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
        }[field]
        # RESTART4 times x: a clean interior, then a zero divisor at stage 3
        cases = [Matrix([[Polynomial([0, v]) for v in r] for r in RESTART4])]
        for n in (3, 4, 5, 6):
            for zero_share in (0.0, 0.3, 0.5, 0.7):
                cases += [random_polynomial_matrix(rng, n, coefficient, zero_share) for _ in range(3)]
        seen = set()
        for m in cases:
            expected = reference_condensation(m)
            try:
                det, trace = condensation_det(m)
            except FallbackRequired:
                assert expected is None
                seen.add("fallback")
                continue
            ref_det, log, restarts, ops, _ = expected
            assert det == ref_det == bareiss_det(m)
            assert trace.mitigation.plan == log.plan
            assert trace.mitigation.operations == log.operations
            assert (trace.restarts, trace.ops) == (restarts, ops)
            seen.add(log.plan[0] + ("-restart" if restarts else ""))
        assert {"rot", "add", "rot-restart", "fallback"} <= seen

    def test_integer_rows_pack_as_the_clearing_pass_does(self, monkeypatch):
        # Hückel matrices and Z[x] draws: no lcm is taken, every scale is 1,
        # and the packed rows and width are those the clearing pass gives
        rng = random.Random("integer-packing")
        cases = [secular_matrix(s) for n in range(3, 13) for s in (PiSystem.chain(n), cycle(n))]
        cases.append(secular_matrix(NAPHTHALENE))
        for n in (3, 5, 8):
            for zero_share in (0.0, 0.5):
                cases += [random_polynomial_matrix(rng, n, lambda: rng.randint(-999, 999), zero_share) for _ in range(3)]
        expected = [clearing_packed_rows(m.native_rows) for m in cases]

        def no_lcm(*args):
            raise AssertionError("integer rows had their denominators cleared")

        monkeypatch.setattr(ring_module, "_cleared_rows", no_lcm)
        for m, (rows, width, scales) in zip(cases, expected):
            assert scales == [1] * m.n_rows
            # every L_i is 1, so the form has no scales
            assert m.kernel == (tuple(map(tuple, rows)), None, width)

    @pytest.mark.parametrize(
        "system, width",
        [
            (PiSystem.chain(6), 10),
            (PiSystem.chain(8), 13),
            (cycle(8), 14),
            (PiSystem.chain(10), 16),
            (NAPHTHALENE, 18),
        ],
    )
    def test_huckel_packing_widths(self, system, width):
        assert secular_matrix(system).kernel.width == width

    def test_rational_rows_that_need_repair_still_clear(self):
        # the chain of 6 with x/2 on the diagonal and 1/3 on its edges: the
        # zeros of the chain, so it condenses after a restart under plan
        # ("add", 1), on rows cleared by 6, as the clearing pass packs them
        m = secular_matrix(PiSystem.chain(6))
        m = Matrix(
            [
                [Polynomial([Fraction(c, 2 if i == j else 3) for c in p.coeffs]) for j, p in enumerate(r)]
                for i, r in enumerate(m.rows())
            ]
        )
        rows, width, scales = clearing_packed_rows(m.native_rows)
        assert m.kernel == (tuple(map(tuple, rows)), tuple(scales), width)
        assert m.kernel.scales == (6,) * 6
        det, trace = condensation_det(m)
        assert trace.mitigation.plan == ("add", 1)
        assert trace.restarts == ((3, (2, 0)),)
        assert det == bareiss_det(m)

    @pytest.mark.parametrize("packed", [False, True], ids=["native", "packed"])
    def test_rotations_permute_the_input_kernel_form(self, monkeypatch, packed):
        # RESTART4 times x, its identity plan excluded: the rotation by one
        # row is accepted on the zero set and permutes the input's kernel
        # form, which a matrix of native entries packs once for it
        m = Matrix([[Polynomial([0, v]) for v in r] for r in RESTART4])
        if packed:
            m.kernel
        pack, packings = ring_module.pack_polynomial, []

        def counting(*args):
            packings.append(args)
            return pack(*args)

        def no_unpacking(*args):
            raise AssertionError("a rotation unpacked or cleared the matrix")

        with monkeypatch.context() as patched:
            patched.setattr(ring_module, "pack_polynomial", counting)
            for name in ("unpack_polynomial", "_cleared_rows"):
                patched.setattr(ring_module, name, no_unpacking)
            out, log = mitigate_interior_zeros(m, exclude=[("rot", 0, 0)])
            assert log.plan == ("rot", 1, 0)
        # the rotation read the input's kernel form, packed once, and holds
        # only its rows rotated, at its width
        assert len(packings) == (0 if packed else 16)
        form = m._kernel
        assert out._native is None
        assert out.kernel.rows == form.rows[1:] + form.rows[:1]
        assert out.kernel.width == form.width
        # the decoded native rows are the replayed ones
        assert out.native_rows == replay_log(m, log).native_rows
        assert out == replay_log(m, log)

    def test_a_run_encodes_its_input_once(self, monkeypatch):
        # the identity plan is rejected on the interior zero at (1, 2), the
        # rotation by one row restarts at stage 3 and the rotation by two
        # condenses: both rotations permute the input's one kernel form
        rows = [[2, -2, -1, 3], [-2, -1, 0, 3], [-3, -3, 3, -2], [3, 2, -2, -3]]
        polynomial = Matrix([[Polynomial([0, v]) for v in r] for r in rows])
        rational = Matrix([[Fraction(v, i + 2) for v in r] for i, r in enumerate(rows)], ring_module.RATIONALS)
        for m, name, calls in ((polynomial, "pack_polynomial", 16), (rational, "_cleared_rows", 1)):
            encode, encodings = getattr(ring_module, name), []

            def counting(*args):
                encodings.append(args)
                return encode(*args)

            with monkeypatch.context() as patched:
                patched.setattr(ring_module, name, counting)
                det, trace = condensation_det(m)
            assert trace.restarts == ((3, (0, 0)),)
            assert trace.mitigation.plan == ("rot", 2, 0)
            assert len(encodings) == calls
            assert det == bareiss_det(m)

    def test_a_rotated_rational_file_stays_cleared(self, monkeypatch):
        # a parsed rational file holds only its kernel form; a rotation
        # permutes its rows and scales, and builds no Fraction; the rotated
        # matrix's native rows are decoded once, when first read
        decoded = []

        def counting(*form):
            decoded.append(form)
            return ring_module._rational_rows(*form)

        rationals = ring_module.RATIONALS._replace(decode=counting)
        monkeypatch.setattr(matrix_module, "RATIONALS", rationals)
        m = parse_matrix("1/2 1/3 1/4\n1/5 0 1/7\n1/8 1/9 1/10\n")

        def no_fraction(*args):
            raise AssertionError("a rotation built a Fraction")

        with monkeypatch.context() as patched:
            patched.setattr(ring_module, "Fraction", no_fraction)
            patched.setattr(ring_module, "_cleared_rows", no_fraction)
            out, log = mitigate_interior_zeros(m)
            assert log.plan == ("rot", 1, 0)
        rows, scales, _ = m.kernel
        assert out.kernel == (rows[1:] + rows[:1], scales[1:] + scales[:1], None)
        assert out.zeros == {(0, 1)}
        assert not decoded
        assert out.native_rows is out.native_rows
        assert text_rows(out) == ["1/5 0/1 1/7", "1/8 1/9 1/10", "1/2 1/3 1/4"]
        assert decoded == [out.kernel]
        assert out.native_rows == replay_log(m, log).native_rows

    @pytest.mark.parametrize(
        "system, packings",
        [
            (PiSystem.chain(6), 2),
            (PiSystem.chain(8), 4),
            (PiSystem.chain(10), 1),
            (cycle(6), 2),
            (cycle(8), 4),
            (cycle(10), 1),
            (NAPHTHALENE, 1),
        ],
    )
    def test_each_matrix_packs_at_most_once(self, monkeypatch, system, packings):
        # one packing per attempted matrix, and one for the input when it
        # falls back; a trace or an elimination on a packed matrix packs it
        # no more
        packed = []

        def counting(rows):
            packed.append(rows)
            return ring_module._packed_rows(rows)[0]

        ring = ring_module.POLYNOMIALS._replace(encode=counting)
        monkeypatch.setattr(huckel, "POLYNOMIALS", ring)
        sp = huckel.secular_polynomial(system)
        assert len(packed) <= packings
        assert len(set(packed)) == len(packed)
        if sp.method == "condensation":
            _, trace = condensation_det(secular_matrix(system))
            before = len(packed)
            assert trace.stages[-1].rows()[0][0] == sp.coeffs
            assert elimination_det(trace.mitigated) == sp.coeffs
            assert len(packed) == before

    @pytest.mark.parametrize("system", [PiSystem.chain(8), cycle(8)], ids=["chain8", "cycle8"])
    def test_a_run_packs_its_input_once(self, monkeypatch, system):
        # three attempts after additive repair, ("add", 0) to ("add", 2),
        # before the run falls back: the input's n^2 entries are packed once
        # for every repair, and no repaired matrix is packed again
        packed = []
        pack = ring_module.pack_polynomial

        def counting(coeffs, width):
            packed.append(width)
            return pack(coeffs, width)

        monkeypatch.setattr(ring_module, "pack_polynomial", counting)
        salts = counted_repairs(monkeypatch)
        with pytest.raises(FallbackRequired):
            condensation_det(secular_matrix(system))
        assert salts == [0, 1, 2]
        assert len(packed) == 8 * 8

    @pytest.mark.parametrize(
        "system", [PiSystem.chain(6), cycle(6), PiSystem.chain(8), cycle(8)],
        ids=["chain6", "cycle6", "chain8", "cycle8"],
    )
    def test_repair_builds_no_polynomial(self, monkeypatch, system):
        # the repair adds packed ints: no Polynomial is built while it runs,
        # its factors included
        inside, built = [False], []
        original_repair = condense._additive_repair
        result, init = Polynomial._result.__func__, Polynomial.__init__

        def repairing(*args):
            inside[0] = True
            try:
                return original_repair(*args)
            finally:
                inside[0] = False

        def counting_result(cls, cs):
            built.append(inside[0])
            return result(cls, cs)

        def counting_init(self, coeffs=()):
            built.append(inside[0])
            init(self, coeffs)

        monkeypatch.setattr(condense, "_additive_repair", repairing)
        monkeypatch.setattr(Polynomial, "_result", classmethod(counting_result))
        monkeypatch.setattr(Polynomial, "__init__", counting_init)
        try:
            condensation_det(secular_matrix(system))
        except FallbackRequired:
            pass
        assert built and not any(built)

    def test_an_untraced_repaired_run_wraps_no_factor(self):
        # chain 6 condenses under ("add", 1) after a restart and wraps only
        # its determinant, chain 8 falls back and wraps nothing; the log
        # wraps its factors when its operations are read, and a trace prints
        # them unwrapped
        for system, det_wraps in ((PiSystem.chain(6), 1), (PiSystem.chain(8), 0)):
            m = secular_matrix(system)
            wrapped = []

            def counting(value, wrap=m.native_ring.wrap):
                wrapped.append(value)
                return wrap(value)

            counted = Matrix(m.native_rows, m.native_ring._replace(wrap=counting))
            try:
                _, trace = condensation_det(counted)
            except FallbackRequired:
                assert (det_wraps, wrapped) == (0, [])
                continue
            assert trace.mitigation.plan == ("add", 1)
            assert len(wrapped) == det_wraps
            text = render_trace(trace)
            assert len(wrapped) == det_wraps and "add_scaled_row" in text
            factors = [op[3] for op in trace.mitigation.operations]
            assert factors == [Polynomial([2])] * 6
            assert len(wrapped) == det_wraps + 6
            assert render_trace(trace) == text

    def test_a_repair_that_outgrows_its_width_packs_again(self, monkeypatch):
        # row 0 holds 2^100 x in every column and column 1 is zero below it,
        # so each of the five interior zeros there takes row 0: the repaired
        # rows' bounds ask for more than the four times the input's width
        # the repair starts at, and the repaired matrix is packed again, at
        # the width rule's W for them, once
        big, one, zero = Polynomial([0, 2**100]), Polynomial([1]), Polynomial([])
        m = Matrix([[big] * 7] + [[one, zero] + [one] * 5 for _ in range(6)])
        repacks = []
        repacked = condense._repacked

        def counting(*args):
            # the width packed at, and whether an addition asked for it
            repacks.append((args[1], sys._getframe(1).f_code.co_name == "_add_scaled"))
            return repacked(*args)

        monkeypatch.setattr(condense, "_repacked", counting)
        exclude = rotation_order(7)
        out, log = mitigate_interior_zeros(m, exclude=exclude)
        expected = reference_mitigation(m, exclude)
        assert log.plan == expected.plan == ("add", 0)
        assert repr(log) == repr(expected)
        assert len(log.operations) == 5
        assert out == replay_log(m, expected)
        assert repacks == [(4 * m.kernel.width, False)]
        # the bounds are the rows' exact |.|_1 here, so the width is the rule's
        assert out.kernel.width == Matrix(out.native_rows, m.native_ring).kernel.width > repacks[0][0]
        assert elimination_det(out) == bareiss_det(m)
        # unit rows packed at the width rule's W, 2: the first addition takes
        # a row's bound to 2, where an entry might no longer unpack, so the
        # rows are packed again before it, and again as the repair goes on
        units = [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]]
        m = Matrix([[Polynomial([v]) for v in r] for r in units])
        for salt in range(5):
            repacks.clear()
            assert repair_outcome(m, salt, stretch=1) == repair_outcome(m, salt, rescanning_repair)
            assert repacks[0] == (2, True) and len(repacks) >= 3

    def test_huckel_run_multiplies_no_polynomials(self, monkeypatch):
        # condensation runs on packed ints; a repair only multiplies by
        # its constant factors
        systems = [PiSystem.chain(n) for n in range(3, 11)] + [
            PiSystem.from_edges(n, [(k, (k + 1) % n) for k in range(n)]) for n in range(3, 11)
        ]
        expected = [bareiss_det(secular_matrix(s)) for s in systems]
        multiply = Polynomial.__mul__

        def no_polynomial_arithmetic(*args):
            raise AssertionError("condensation computed on Polynomial objects")

        def constant_products_only(p, q):
            if p.degree >= 1 and q.degree >= 1:
                no_polynomial_arithmetic()
            return multiply(p, q)

        condensed = 0
        with monkeypatch.context() as patched:
            patched.setattr(Polynomial, "__mul__", constant_products_only)
            patched.setattr(Polynomial, "exact_div", no_polynomial_arithmetic)
            for system, det in zip(systems, expected):
                try:
                    assert condensation_det(secular_matrix(system))[0] == det
                    condensed += 1
                except FallbackRequired:
                    pass
        assert condensed >= 6

    def test_trace_stages_divide_no_polynomials(self, monkeypatch):
        # a packed run's trace reads its stages off the integer run: chains
        # and cycles of 3 to 6 atoms, and Z[x] and Q[x] draws whose zero
        # polynomials make rotations and restarts
        rng = random.Random("packed-trace")
        cases = [secular_matrix(PiSystem.chain(n)) for n in range(3, 7)]
        cases += [
            secular_matrix(PiSystem.from_edges(n, [(k, (k + 1) % n) for k in range(n)]))
            for n in range(3, 7)
        ]
        coefficients = [
            lambda: rng.randint(-999, 999),
            lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
        ]
        for coefficient in coefficients:
            for n in (3, 4, 5, 6):
                for zero_share in (0.0, 0.3, 0.5):
                    cases += [random_polynomial_matrix(rng, n, coefficient, zero_share) for _ in range(2)]

        def no_polynomial_division(*args):
            raise AssertionError("a trace divided Polynomials")

        seen = set()
        for m in cases:
            try:
                _, trace = condensation_det(m)
            except FallbackRequired:
                continue
            with monkeypatch.context() as patched:
                patched.setattr(Polynomial, "exact_div", no_polynomial_division)
                stages = trace.stages
            assert list(stages) == stepwise_stages(trace.mitigated)
            assert list(trace.starred) == [condense_step(s, None, OpCount()) for s in stages[1:-1]]
            plan = trace.mitigation.plan
            seen.add("rotated" if plan and plan[0] == "rot" and plan[1:] != (0, 0) else plan and plan[0])
            seen.add("restarted" if trace.restarts else "clean")
        assert {"rotated", "restarted", "clean"} <= seen


def real_entry(step):
    """Nonzero reals, multiples of ``step`` up to 9: a zero ``zero_at_stage``
    makes comes out as 0.0 when ``step`` is 1, and generally as a rounding
    residue when it is 0.1."""
    return lambda rng: ApproxReal(rng.choice([-1, 1]) * rng.randint(1, 9) * step)


# nonzero entries, so that the first attempt runs on the draw itself
EARLY_STOP_ENTRIES = {
    "integer": lambda rng: ExactInteger(rng.choice([-1, 1]) * rng.randint(1, 9)),
    "rational": lambda rng: ExactRational(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)),
    "real": real_entry(1),
    "polynomial": lambda rng: Polynomial([rng.randint(-3, 3), rng.choice([-1, 1]) * rng.randint(1, 3)]),
}
# the stepwise comparison draws reals with exact zeros and with residues,
# which count as zero below 1e-9
STEPWISE_ENTRIES = {"real": [real_entry(1), real_entry(0.1)] * 3}


def zero_at_stage(rng, n, k, entry):
    """An n x n draw whose stage k has a zero at a random interior position:
    the row holding the bottom-right corner of that entry's (k + 1) x (k + 1)
    connected minor is scaled by the minor's leading k x k minor C, and the
    corner is then set to make the minor singular."""
    rows = [[entry(rng) for _ in range(n)] for _ in range(n)]
    p, q = rng.randint(1, n - k - 2), rng.randint(1, n - k - 2)
    zero = constant(rows[0][0], 0)
    block = [r[q : q + k + 1] for r in rows[p : p + k + 1]]
    block[k][k] = zero
    lead = bareiss_det(Matrix([r[:k] for r in block[:k]]))
    rest = bareiss_det(Matrix(block))
    rows[p + k] = [lead * e for e in rows[p + k]]
    rows[p + k][q + k] = zero - rest
    return Matrix(rows)


class TestEarlyStop:
    """Attempts end at the stage that holds their zero divisor."""

    @pytest.mark.parametrize("kind", sorted(EARLY_STOP_ENTRIES))
    def test_matches_stepwise_reference(self, kind):
        # stage k's zero divides stage k + 2; mitigation clears stage 0's
        # interior, so the first restart comes from a stage k of 1 .. n - 3.
        # Dense draws with zeros add rotations, repairs and fallbacks.
        rng = random.Random(f"early-stop-{kind}")
        entries = STEPWISE_ENTRIES.get(kind, [EARLY_STOP_ENTRIES[kind]] * 3)
        sizes = range(4, 9 if kind != "polynomial" else 7)
        seen = set()
        zero = constant(entries[0](rng), 0)
        cases = []
        for n in sizes:
            for k in range(1, n - 2):
                cases += [zero_at_stage(rng, n, k, entry) for entry in entries]
            for entry in entries * (6 // len(entries)):
                cases.append(
                    Matrix([[entry(rng) if rng.random() < 0.5 else zero for _ in range(n)] for _ in range(n)])
                )
        first_stages = {}
        for m in cases:
            expected = reference_condensation(m)
            try:
                det, trace = condensation_det(m)
            except FallbackRequired:
                assert expected is None
                seen.add("fallback")
                continue
            ref_det, log, restarts, ops, warning = expected
            assert det == ref_det
            assert (trace.mitigation.plan, trace.mitigation.operations) == (log.plan, log.operations)
            assert (trace.restarts, trace.ops) == (restarts, ops)
            assert trace.division_warning == warning
            seen.add(warning)
            if restarts:
                first_stages.setdefault(m.n_rows, set()).add(restarts[0][0] - 2)
        assert first_stages == {n: set(range(1, n - 2)) for n in sizes}
        assert "fallback" in seen
        # a real run warns when a divisor comes near zero, and only then
        assert seen >= ({True, False} if kind == "real" else {False})

    def test_no_stage_after_the_zero(self, monkeypatch):
        # a failed attempt whose restart is at stage s computes stages
        # 1 .. s - 2 only: its zero is in stage s - 2's interior, in every
        # ring (a real one found by the division-warning scan)
        calls = []
        original = condense._condense_rows

        def counting(current, divisor, quotient):
            calls.append(len(current))
            return original(current, divisor, quotient)

        monkeypatch.setattr(condense, "_condense_rows", counting)
        rng = random.Random("no-work-after-zero")
        checked = 0
        for kind, entry in EARLY_STOP_ENTRIES.items():
            for n in (5, 6, 7):
                for k in range(1, n - 2):
                    m = zero_at_stage(rng, n, k, entry)
                    calls.clear()
                    try:
                        _, trace = condensation_det(m)
                    except FallbackRequired:
                        continue
                    produced = [n + 1 - size for size in calls]  # stage index of each call
                    expected = [t for s, _ in trace.restarts for t in range(1, s - 1)]
                    assert produced == expected + list(range(1, n)), (kind, n, k)
                    checked += bool(trace.restarts)
        assert checked >= 20


def paper_schedule(n, stage, position=None):
    """The paper's op schedule for an n x n run, enumerated minor by minor:
    stages 1 .. ``stage`` whole, or, with a ``position``, stage ``stage``
    only through that minor, without its division."""
    ops = OpCount()
    for t in range(1, stage + 1):
        for i in range(n - t):
            for j in range(n - t):
                ops.mults += 2
                ops.adds += 1
                if (t, (i, j)) == (stage, position):
                    return ops
                if t >= 2:
                    ops.divs += 1
    return ops


class TestCharge:
    def test_complete_stages(self):
        for n in range(1, 10):
            for stage in range(n):
                ops = OpCount()
                condense._charge(ops, n, stage)
                assert ops == paper_schedule(n, stage), (n, stage)
            assert ops == OpCount(clean_mults(n), clean_divs(n), clean_adds(n)), n

    def test_every_failing_position(self):
        checked = 0
        for n in range(3, 10):
            for stage in range(2, n):
                for position in itertools.product(range(n - stage), repeat=2):
                    ops = OpCount()
                    condense._charge(ops, n, stage, position)
                    assert ops == paper_schedule(n, stage, position), (n, stage, position)
                    checked += 1
        assert checked == sum(w * w for n in range(3, 10) for w in range(1, n - 1))

    def test_adds_to_the_tally(self):
        ops = OpCount(1, 2, 3)
        condense._charge(ops, 5, 3, (1, 0))
        expected = paper_schedule(5, 3, (1, 0))
        assert ops == OpCount(expected.mults + 1, expected.divs + 2, expected.adds + 3)


class TestCondensationDet:
    def test_golden_clean_path(self):
        det, trace = condensation_det(int_matrix(CLEAN4))
        assert det == ExactInteger(-82)
        assert trace.stages[1] == int_matrix(STAGE1)
        assert trace.starred[0] == int_matrix([[14, -62], [6, -48]])
        assert trace.stages[2] == int_matrix([[14, -31], [-6, -16]])
        assert trace.starred[1] == int_matrix([[-410]])
        assert trace.restarts == ()
        assert trace.mitigation.sign == 1

    def test_golden_restart_path(self):
        det, trace = condensation_det(int_matrix(RESTART4))
        assert det == ExactInteger(-163)
        swaps = [op for op in trace.mitigation.operations if op[0] == "swap_rows"]
        assert len(swaps) == 3
        assert trace.mitigation.sign == -1
        assert len(trace.restarts) == 1
        # the first row was rotated to the bottom
        assert trace.stages[0] == int_matrix(
            [[-1, 3, 6, -3], [5, 1, 2, 0], [-2, 1, -1, 1], [0, 1, 0, 4]]
        )
        assert trace.stages[1] == int_matrix(
            [[-16, 0, 6], [7, -3, 2], [-2, 1, -4]]
        )

    def test_identity_4x4(self):
        det, trace = condensation_det(identity(4))
        assert det == ExactInteger(1)
        assert trace.restarts == ()
        assert trace.mitigation.sign == 1

    def test_1x1_and_2x2(self, monkeypatch):
        # sizes without an interior never reach mitigation
        def no_mitigation(*args, **kwargs):
            raise AssertionError("mitigation called for n < 3")

        monkeypatch.setattr(condense, "mitigate_interior_zeros", no_mitigation)
        det1, trace1 = condensation_det(int_matrix([[7]]))
        assert det1 == ExactInteger(7)
        assert len(trace1.stages) == 1
        det2, trace2 = condensation_det(int_matrix([[1, 2], [3, 4]]))
        assert det2 == ExactInteger(-2)
        assert trace2.ops == OpCount(mults=2, divs=0, adds=1)
        for trace in (trace1, trace2):
            assert repr(trace.mitigation) == "MitigationLog([], plan=None)"
            assert trace.starred == ()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            condensation_det(int_matrix([[1, 2, 3], [4, 5, 6]]))

    def test_stage_shapes(self):
        _, trace = condensation_det(int_matrix(CLEAN4))
        for k, stage in enumerate(trace.stages):
            assert (stage.n_rows, stage.n_cols) == (4 - k, 4 - k)

    def test_opcount_closed_form(self):
        rng = random.Random(11)
        for n in (3, 4, 5, 6):
            while True:
                m = int_matrix(
                    [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                )
                try:
                    _, trace = condensation_det(m)
                except FallbackRequired:
                    continue  # not a clean draw
                if not trace.mitigation.operations and not trace.restarts:
                    break
            assert trace.ops == OpCount(clean_mults(n), clean_divs(n), clean_adds(n))

    def test_oracle_equivalence_sweep(self):
        rng = random.Random(99)
        for _ in range(100):
            m = int_matrix(
                [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
            )
            try:
                det, _ = condensation_det(m)
            except FallbackRequired:
                det = bareiss_det(m)
            assert det == bareiss_det(m)

    def test_connected_minor_invariant(self):
        rng = random.Random(5)
        for n in (3, 4, 5):
            m = int_matrix(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            )
            _, trace = condensation_det(m)
            base = trace.stages[0]
            for k, stage in enumerate(trace.stages):
                for i in range(stage.n_rows):
                    for j in range(stage.n_cols):
                        assert stage[i, j] == cofactor_det(
                            base.connected_minor(i, j, k + 1)
                        )

    def test_sign_correctness_via_replay(self):
        m = int_matrix(RESTART4)
        _, trace = condensation_det(m)
        replayed = replay_log(m, trace.mitigation)
        assert replayed == trace.stages[0]
        det_replayed, _ = condensation_det(replayed)
        sign = trace.mitigation.sign
        original = det_replayed if sign == 1 else -det_replayed
        assert original == ExactInteger(-163)

    def test_corner_formula_3x3(self):
        # base case: det(A) = (det(TL)*det(BR) - det(TR)*det(BL)) / a_22,
        # the 2x2 blocks being the four connected minors
        rng = random.Random(33)
        checked = 0
        while checked < 20:
            m = int_matrix(
                [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            )
            center = m[1, 1]
            if center.is_zero():
                continue
            tl = cofactor_det(m.connected_minor(0, 0, 2))
            tr = cofactor_det(m.connected_minor(0, 1, 2))
            bl = cofactor_det(m.connected_minor(1, 0, 2))
            br = cofactor_det(m.connected_minor(1, 1, 2))
            numerator = tl * br - tr * bl
            assert numerator.exact_div(center) == cofactor_det(m)
            checked += 1

    def test_real_interior_zero_triggers_mitigation(self):
        # 1e-12 sits below the default 1e-9 tolerance, so it counts as zero
        rows = [[1.0, 2.0, 3.0], [4.0, 1e-12, 6.0], [7.0, 8.0, 9.5]]
        m = Matrix([[ApproxReal(v) for v in r] for r in rows])
        _, trace = condensation_det(m)
        assert trace.mitigation.operations != ()
        inner = trace.stages[0].interior()
        assert not inner[0, 0].is_zero()

    def test_zero_matrix_falls_back(self):
        z = int_matrix([[0] * 4 for _ in range(4)])
        with pytest.raises(FallbackRequired):
            condensation_det(z)

    def test_real_matrix_and_division_warning(self):
        rows = [[1.0, 2.0, 3.0], [4.0, 1e-7, 6.0], [7.0, 8.0, 10.0]]
        m = Matrix([[ApproxReal(v) for v in r] for r in rows])
        det, trace = condensation_det(m)
        assert trace.division_warning
        assert det.value == pytest.approx(52.0, abs=1e-4)
        # the aborted attempt's zero divisor trips the warning on its own
        m = Matrix([[ApproxReal(float(v)) for v in r] for r in RESTART4])
        det, trace = condensation_det(m)
        assert det == ApproxReal(-163.0)
        assert trace.restarts == ((3, (0, 0)),)
        assert trace.division_warning

    def test_clean_run_builds_no_matrix(self, monkeypatch):
        # stages live as native rows; only reading trace.stages builds them
        rng = random.Random(20)
        m = int_matrix(
            [[rng.randint(-10**6, 10**6) for _ in range(20)] for _ in range(20)]
        )
        with matrices_built(monkeypatch) as built:
            det, trace = condensation_det(m)
        assert len(built) == 0
        assert trace.mitigation.plan == ("rot", 0, 0)
        assert det == bareiss_det(m)
        ops = repr(trace.ops)
        stages = [replay_log(m, trace.mitigation)]
        for k in range(1, 20):
            divisor = stages[k - 2].interior() if k >= 2 else None
            stages.append(condense_step(stages[k - 1], divisor, OpCount()))
        assert list(trace.stages) == stages
        assert repr(trace.ops) == ops

    def test_rational_matrix_equivalence(self):
        from exactdet.ring import ExactRational

        rng = random.Random(21)
        for _ in range(10):
            m = Matrix(
                [
                    [ExactRational(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)]
                    for _ in range(4)
                ]
            )
            try:
                det, _ = condensation_det(m)
            except FallbackRequired:
                det = bareiss_det(m)
            assert det == cofactor_det(m)

    def test_rational_run_divides_only_integers(self, monkeypatch):
        # neither the run nor reading its trace's stages divides a Fraction
        rng = random.Random(12)
        m = Matrix(
            [
                [ExactRational(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(12)]
                for _ in range(12)
            ]
        )

        def no_fraction_division(*args):
            raise AssertionError("the kernel divided Fractions")

        with monkeypatch.context() as patched:
            patched.setattr(Fraction, "__truediv__", no_fraction_division)
            det, trace = condensation_det(m)
            stages = trace.stages
        assert (trace.restarts, trace.mitigation.plan) == ((), ("rot", 0, 0))
        assert det == bareiss_det(m)
        assert trace.ops == OpCount(
            mults=clean_mults(12), divs=clean_divs(12), adds=clean_adds(12)
        )
        assert list(stages) == stepwise_stages(m)

    def test_rational_matrices_with_zeros_match_bareiss(self):
        # zero numerators make rotations and restarts occur
        rng = random.Random(5)
        rotated = restarted = 0
        for n in range(3, 13):
            for _ in range(3):
                m = Matrix(
                    [
                        [
                            ExactRational(
                                rng.choice((0, rng.randint(-99, 99))), rng.randint(1, 99)
                            )
                            for _ in range(n)
                        ]
                        for _ in range(n)
                    ]
                )
                try:
                    det, trace = condensation_det(m)
                except FallbackRequired:
                    continue
                assert det == bareiss_det(m)
                plan = trace.mitigation.plan
                rotated += plan[0] == "rot" and plan[1:] != (0, 0)
                restarted += bool(trace.restarts)
        assert rotated and restarted

    def test_polynomial_matrix_equivalence(self):
        from exactdet.ring import Polynomial

        rng = random.Random(22)
        for _ in range(5):
            m = Matrix(
                [
                    [
                        Polynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
                        for _ in range(3)
                    ]
                    for _ in range(3)
                ]
            )
            try:
                det, _ = condensation_det(m)
            except FallbackRequired:
                det = bareiss_det(m)
            assert det == cofactor_det(m)

    def test_real_matrix_without_risky_divisors(self):
        rows = [[1.0, 2.0, 3.0], [4.0, 5.5, 6.0], [7.0, 8.0, 10.0]]
        m = Matrix([[ApproxReal(v) for v in r] for r in rows])
        det, trace = condensation_det(m)
        assert not trace.division_warning
        # cofactor expansion by hand: 1*(55-48) - 2*(40-42) + 3*(32-38.5)
        assert det.value == pytest.approx(-8.5, abs=1e-9)


def clean_muldiv(n):
    return clean_mults(n) + clean_divs(n)


def counted_mitigations(monkeypatch):
    """The plans of the ``mitigate_interior_zeros`` calls ``condensation_det``
    makes while the returned list is alive."""
    plans = []
    original = condense.mitigate_interior_zeros

    def counting(a, exclude=()):
        out = original(a, exclude=exclude)
        plans.append(out[1].plan)
        return out

    monkeypatch.setattr(condense, "mitigate_interior_zeros", counting)
    return plans


def counted_repairs(monkeypatch):
    """The salts of the ``_additive_repair`` calls made while the returned
    list is alive."""
    salts = []
    original = condense._additive_repair

    def counting(form, bounds, zeros, salt, is_zero):
        salts.append(salt)
        return original(form, bounds, zeros, salt, is_zero)

    monkeypatch.setattr(condense, "_additive_repair", counting)
    return salts


# the FallbackRequired message of a sparse input that no rotation clears
SHORTCUT = "no rotation clears the interior, n >= 10 and at least n\\^2/3 entries are zero"

# sparse entries: one in four is zero, so rotations, repairs, restarts and
# fallbacks are common
sparse = st.sampled_from([0, 0, 1, -1, 2, -2, 3, -3])


# about two entries in five are zero, and reals include -0.0 and 1e-12,
# which is zero at the default tolerance
SPARSE_ENTRIES = {
    "integer": st.sampled_from([0, 0, 1, -1, 2]).map(ExactInteger),
    "rational": st.builds(ExactRational, st.sampled_from([0, 0, 1, -1, 2]), st.integers(1, 3)),
    "real": st.sampled_from([0.0, -0.0, 1e-12, 0.5, -1.5, 2.0]).map(ApproxReal),
    "polynomial": st.sampled_from([(), (), (1,), (0, 1), (-1, 2), (Fraction(1, 2),)]).map(Polynomial),
}


def sparse_matrices(entry):
    return st.integers(3, 8).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(Matrix)
    )


class TestWorkBudget:
    """Failed attempts may charge at most two clean runs' muldiv, C each."""

    @settings(max_examples=300)
    @given(m=st.one_of(
        sparse_matrices(sparse.map(ExactInteger)),
        sparse_matrices(st.builds(ExactRational, sparse, st.integers(1, 4))),
    ))
    def test_success_charges_at_most_three_clean_runs(self, m):
        # each failed attempt of a success left the tally at most 2C, and
        # the clean run adds C; the budget's looser statement, 2C of waste
        # plus one more failed attempt plus the clean run, is 4C
        try:
            det, trace = condensation_det(m)
        except FallbackRequired:
            return
        assert det == bareiss_det(m)
        assert trace.ops.muldiv <= 3 * clean_muldiv(m.n_rows)

    @pytest.mark.parametrize("system, message, tried", [
        # every attempt is an additive repair that stops at a zero divisor;
        # the budget ends the run after three of them, where the cap of 2n
        # restarts made 8 attempts
        (PiSystem.chain(8), "exceeds 2C", [("add", 0), ("add", 1), ("add", 2)]),
        # no rotation clears them and most entries are zero, so no repair
        # plan is tried, where the budget ended the run after three
        (PiSystem.chain(10), SHORTCUT, []),
        (NAPHTHALENE, SHORTCUT, []),
    ], ids=["chain8", "chain10", "naphthalene"])
    def test_huckel_mitigation_calls(self, monkeypatch, system, message, tried):
        plans = counted_mitigations(monkeypatch)
        with pytest.raises(FallbackRequired, match=message):
            condensation_det(secular_matrix(system))
        assert plans == tried

    def test_chain6_still_condenses_after_one_restart(self, monkeypatch):
        plans = counted_mitigations(monkeypatch)
        _, trace = condensation_det(secular_matrix(PiSystem.chain(6)))
        assert plans == [("add", 0), ("add", 1)]
        assert len(trace.restarts) == 1

    @pytest.mark.parametrize("name, plans", [
        # C = 33 at n = 4.  Each one-operation repair stops at stage 3,
        # minor (0, 0), for 32 muldiv plus 4 repair units: 36, then 72 > 66.
        # Without the repair units a third attempt would run (32, 64, 96).
        ("falls_back4", [("add", 0), ("add", 1)]),
        # C = 74 at n = 5.  Rotations add no repair units for their swaps:
        # stage 3, 4 and 3 at minor (0, 0) charge 61, 73 and 61 muldiv,
        # and the third failure takes the tally from 134 to 195 > 148.
        ("over_budget5", [("rot", 2, 0), ("rot", 3, 0), ("rot", 0, 1)]),
    ])
    def test_tally_of_failed_attempts(self, monkeypatch, name, plans):
        m = parse_matrix((FIXTURES / f"{name}.txt").read_text())
        tried = counted_mitigations(monkeypatch)
        with pytest.raises(FallbackRequired, match="exceeds 2C"):
            condensation_det(m)
        assert tried == plans

    def test_tally_of_exactly_2c_restarts(self, monkeypatch):
        # C = 74 at n = 5.  The rotation (2, 1) stops at stage 3, minor
        # (0, 0), for 61 muldiv, and the repair ("add", 0) at stage 3, minor
        # (1, 0), for 67 plus 4 operations of 5 repair units: 148 = 2C, which
        # does not exceed 2C, so ("add", 1) runs and condenses
        m = int_matrix(
            [[2, -1, 1, -1, 1], [0, -1, 1, 0, 2], [0, -1, 0, 0, 1], [0, 0, -1, -1, -1], [0, 0, -1, -1, 2]]
        )
        tried = counted_mitigations(monkeypatch)
        det, trace = condensation_det(m)
        assert tried == [("rot", 2, 1), ("add", 0), ("add", 1)]
        assert det == bareiss_det(m)
        assert trace.ops.muldiv == 61 + 67 + clean_muldiv(5)


def rotation_accepted(m):
    return any(condense._column_shifts(m.zeros, m.n_rows, r) for r in range(m.n_rows))


def shortcut_applies(m):
    n = m.n_rows
    return n >= 10 and 3 * len(m.zeros) >= n * n and not rotation_accepted(m)


def auto_det(m):
    """What the ``auto`` method computes: condensation, else elimination."""
    try:
        return condensation_det(m)[0]
    except FallbackRequired:
        return elimination_det(m)


def with_zeros_at(rng, n, count):
    """An n x n integer matrix with ``count`` zeros at seeded positions."""
    zeros = set(rng.sample(range(n * n), count))
    return int_matrix(
        [[0 if i * n + j in zeros else rng.choice([1, -1, 2, -2, 3, -3]) for j in range(n)] for i in range(n)]
    )


def cross10(rng):
    """A 10 x 10 integer matrix whose 34 zeros fill rows and columns 4 and 5
    but for (4, 4) and (5, 5): the rotation ("rot", 5, 5) clears them."""
    return int_matrix([
        [0 if (i in (4, 5) or j in (4, 5)) and i != j else rng.choice([1, -1, 2, -2, 3, -3]) for j in range(10)]
        for i in range(10)
    ])


class TestSparseShortcut:
    """From n = 10, an input that no rotation clears and whose entries are
    at least a third zeros falls back before any additive repair."""

    @pytest.mark.parametrize("m", [
        with_zeros_at(random.Random("zeros-34"), 10, 34),
        parse_matrix((FIXTURES / "sparse10.txt").read_text()),
    ], ids=["34-zeros", "sparse10"])
    def test_falls_back_before_any_attempt(self, monkeypatch, m):
        assert shortcut_applies(m)
        plans, salts = counted_mitigations(monkeypatch), counted_repairs(monkeypatch)
        with pytest.raises(FallbackRequired, match=SHORTCUT) as info:
            condensation_det(m)
        assert isinstance(info.value.__cause__, UnremovableZero)
        assert (plans, salts) == ([], [])
        assert auto_det(m) == bareiss_det(m)

    # each fails exactly one condition of the rule, so repair is still tried
    @pytest.mark.parametrize("m, zeros, rotation", [
        # n = 9: a band of width 3, 56 zeros
        (int_matrix([[int(abs(i - j) <= 1) for j in range(9)] for i in range(9)]), 56, False),
        # n = 10 and no rotation, but 33 zeros, just under n^2/3
        (with_zeros_at(random.Random("zeros-33"), 10, 33), 33, False),
        # n = 10 and 34 zeros, but ("rot", 5, 5) clears them; it stops at a
        # zero divisor and the repairs follow
        (cross10(random.Random("cross10")), 34, True),
    ], ids=["n9", "33-zeros", "rotation"])
    def test_boundary_still_repairs(self, monkeypatch, m, zeros, rotation):
        assert (len(m.zeros), rotation_accepted(m)) == (zeros, rotation)
        assert not shortcut_applies(m)
        plans, salts = counted_mitigations(monkeypatch), counted_repairs(monkeypatch)
        try:
            det = condensation_det(m)[0]
        except FallbackRequired as e:
            assert "exceeds 2C" in str(e)
            det = elimination_det(m)
        assert salts[:1] == [0]
        assert plans[0] == (("rot", 5, 5) if rotation else ("add", 0))
        assert det == bareiss_det(m)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(10, 14).flatmap(lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 1, -1, 2, -2]), min_size=n, max_size=n), min_size=n, max_size=n,
        )),
        rational=st.booleans(),
    )
    def test_auto_equals_bareiss_and_shortcuts_repair_nothing(self, rows, rational):
        # entries a third zeros, so draws fall on both sides of the rule
        if rational:
            m = Matrix([[ExactRational(x, 1 + (i + j) % 3) for j, x in enumerate(r)] for i, r in enumerate(rows)])
        else:
            m = int_matrix(rows)
        with pytest.MonkeyPatch.context() as mp:
            salts = counted_repairs(mp)
            assert auto_det(m) == bareiss_det(m)
        if shortcut_applies(m):
            assert salts == []
            with pytest.raises(FallbackRequired, match=SHORTCUT):
                condensation_det(m)


entry = st.integers(min_value=-9, max_value=9)
square4 = st.lists(
    st.lists(entry, min_size=4, max_size=4), min_size=4, max_size=4
).map(int_matrix)


@given(m=square4)
def test_condensation_equals_oracles(m):
    try:
        det, _ = condensation_det(m)
    except FallbackRequired:
        det = bareiss_det(m)
    assert det == cofactor_det(m)


@given(m=square4, data=st.data())
def test_replay_det_relation(m, data):
    ops = []
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(
            ["swap_rows", "swap_cols", "add_scaled_row", "add_scaled_col"]
        ))
        i = data.draw(st.integers(0, 3))
        j = data.draw(st.integers(0, 3).filter(lambda v: v != i))
        if kind.startswith("swap"):
            ops.append((kind, i, j))
        else:
            ops.append((kind, i, j, ExactInteger(data.draw(entry))))
    log = MitigationLog(ops)
    replayed = replay_log(m, log)
    assert cofactor_det(replayed) == (
        cofactor_det(m) if log.sign == 1 else -cofactor_det(m)
    )


def test_replay_empty_log_is_identity():
    m = int_matrix(CLEAN4)
    assert replay_log(m, MitigationLog()) == m


def test_replay_builds_one_matrix(monkeypatch):
    # the (9, 9) rotation of a 10 x 10 matrix is 162 logged swaps
    n = 10
    m = int_matrix([[i * n + j for j in range(n)] for i in range(n)])
    log = MitigationLog(condense._rotation_swaps(n, 9, 9))
    assert len(log.operations) == 162
    with matrices_built(monkeypatch) as built:
        out = replay_log(m, log)
    assert len(built) == 1
    rows = [list(r) for r in m.rows()]
    assert out == Matrix([row[9:] + row[:9] for row in rows[9:] + rows[:9]])


@pytest.mark.parametrize(
    "kind", ["swap_rows", "swap_cols", "add_scaled_row", "add_scaled_col"]
)
def test_replay_rejects_bad_indices(kind):
    # 3 x 5, so an index past the rows is still a valid column and vice versa
    m = int_matrix([[1, 2, 3, 4, 5], [6, 7, 8, 9, 10], [11, 12, 13, 14, 15]])
    size = 3 if "row" in kind else 5
    extra = () if kind.startswith("swap") else (ExactInteger(2),)
    for src, dst in [(size, 0), (0, size), (-1, 0), (0, -1), (1, 1)]:
        with pytest.raises(IndexOutOfRange):
            replay_log(m, MitigationLog([(kind, src, dst) + extra]))
    replay_log(m, MitigationLog([(kind, size - 1, 0) + extra]))


def test_replay_rejects_unknown_kind():
    m = int_matrix(CLEAN4)
    with pytest.raises(ValueError, match="unknown mitigation operation 'rot'"):
        replay_log(m, MitigationLog([("rot", 1, 0)]))


# chain 6's secular matrix restarts once, then condenses after additive
# repair; its polynomial stages are printed by their own text rule
GOLDEN_CHAIN6_TRACE = """\
stage 0 (6 x 6)
x 1 0 0 0 0
1 x + 2 2*x + 3 2*x + 2 2 0
2 2*x + 5 5*x + 6 4*x + 5 4 0
2*x 2 1 x 1 0
2*x + 2 2*x + 6 4*x + 6 4*x + 5 x + 4 1
0 0 0 0 1 x
stage 1 (5 x 5)
x^2 + 2*x - 1 2*x + 3 0 0 0
1 x^2 - 3 -2*x^2 + 3 -2 0
-4*x^2 - 10*x + 4 -8*x - 7 5*x^2 + 2*x - 5 5 0
4*x^2 + 8*x - 4 6*x + 6 -4*x^2 - 2*x + 5 x^2 - 5 1
0 0 0 4*x + 5 x^2 + 4*x - 1
stage 2 (pre-division)
x^4 + 2*x^3 - 4*x^2 - 8*x -4*x^3 - 6*x^2 + 6*x + 9 0 0
4*x^4 + 10*x^3 - 16*x^2 - 38*x + 5 5*x^4 - 14*x^3 - 34*x^2 + 18*x + 36 4*x + 5 0
8*x^3 + 8*x^2 - 12*x - 4 2*x^3 + 2*x^2 - 8*x - 5 5*x^4 + 2*x^3 - 10*x^2 5
0 0 -16*x^3 - 28*x^2 + 10*x + 25 x^4 + 4*x^3 - 6*x^2 - 24*x
stage 2 (4 x 4)
x^3 - 4*x -2*x^2 + 3 0 0
2*x^3 - 8*x + 1 x^3 - 4*x^2 - 2*x + 6 1 0
4*x^3 + 4*x^2 - 6*x - 2 2*x^3 + 2*x^2 - 8*x - 5 5*x^3 + 2*x^2 - 10*x 5
0 0 -4*x^2 - 2*x + 5 x^3 - 6*x
stage 3 (pre-division)
x^6 - 6*x^4 + 10*x^2 - 3 -2*x^2 + 3 0
16*x^5 - 2*x^4 - 62*x^3 + 22*x^2 + 64*x + 7 5*x^6 - 18*x^5 - 28*x^4 + 64*x^3 + 30*x^2 - 52*x + 5 5
0 -8*x^5 - 12*x^4 + 38*x^3 + 46*x^2 - 30*x - 25 5*x^6 + 2*x^5 - 40*x^4 - 12*x^3 + 80*x^2 + 10*x - 25
stage 3 (3 x 3)
x^4 - 3*x^2 + 1 1 0
-2*x^4 + 2*x^3 + 6*x^2 - 8*x - 1 x^4 - 4*x^3 - 3*x^2 + 10*x - 1 1
0 2*x^3 + 2*x^2 - 8*x - 5 5*x^4 + 2*x^3 - 15*x^2 - 2*x + 5
stage 4 (pre-division)
x^8 - 4*x^7 - 6*x^6 + 22*x^5 + 11*x^4 - 36*x^3 - 6*x^2 + 18*x 1
-4*x^7 + 32*x^5 - 10*x^4 - 76*x^3 + 32*x^2 + 48*x + 5 5*x^8 - 18*x^7 - 38*x^6 + 102*x^5 + 73*x^4 - 168*x^3 - 22*x^2 + 60*x
stage 4 (2 x 2)
x^5 - 4*x^3 + 3*x 1
-2*x^4 + 2*x^3 + 6*x^2 - 8*x - 1 x^5 - 4*x^4 - 4*x^3 + 14*x^2 + x - 6
stage 5 (pre-division)
x^10 - 4*x^9 - 8*x^8 + 30*x^7 + 20*x^6 - 74*x^5 - 14*x^4 + 64*x^3 - 3*x^2 - 10*x + 1
stage 5 (1 x 1)
x^6 - 5*x^4 + 6*x^2 - 1
restart: zero divisor at stage 3, minor (2, 0)
add_scaled_row 2 1 2
add_scaled_row 3 1 2
add_scaled_row 1 2 2
add_scaled_row 0 3 2
add_scaled_row 0 4 2
add_scaled_row 1 4 2
sign: +1
"""


class TestRenderTrace:
    def test_stage_headers_and_sign(self):
        _, trace = condensation_det(int_matrix(CLEAN4))
        text = render_trace(trace)
        assert "stage 0 (4 x 4)" in text
        assert "stage 1 (3 x 3)" in text
        assert "stage 2 (pre-division)" in text
        assert "stage 3 (pre-division)" in text
        assert text.endswith("sign: +1\n")

    def test_restart_and_swaps_rendered(self):
        _, trace = condensation_det(int_matrix(RESTART4))
        text = render_trace(trace)
        assert text.count("swap_rows") == 3
        assert "restart: zero divisor at stage 3" in text
        assert text.endswith("sign: -1\n")

    def test_chain6_golden(self):
        _, trace = condensation_det(secular_matrix(PiSystem.chain(6)))
        assert trace.mitigation.plan == ("add", 1)
        assert render_trace(trace) == GOLDEN_CHAIN6_TRACE
