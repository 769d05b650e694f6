import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactdet import ring as ring_module
from exactdet.condense import OpCount
from exactdet.huckel import secular_matrix
from exactdet.matrix import Matrix, TooSmall, int_matrix
from exactdet.oracle import (
    bareiss_det,
    cofactor_det,
    cofactor_mults,
    count_ratio,
    elimination_det,
    jacobi_check,
)
from exactdet.ring import ApproxReal, ExactInteger, ExactRational, Polynomial

from test_condense import matrices_built
from test_elimination import cycle
from test_matrix import CLEAN4, RESTART4, identity


def reference_mults(n):
    # M(n) = n * (M(n-1) + 1), M(1) = 0
    m = 0
    for k in range(2, n + 1):
        m = k * (m + 1)
    return m


class TestCofactorDet:
    def test_golden_values(self):
        assert cofactor_det(int_matrix(CLEAN4)) == ExactInteger(-82)
        assert cofactor_det(int_matrix(RESTART4)) == ExactInteger(-163)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identity(self, n):
        assert cofactor_det(identity(n)) == ExactInteger(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_mult_counter_recurrence(self, n):
        rng = random.Random(n)
        m = int_matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        ops = OpCount()
        cofactor_det(m, ops)
        assert ops.mults == reference_mults(n) == cofactor_mults(n)
        assert ops.divs == 0

    def test_recursion_builds_no_matrix(self, monkeypatch):
        rng = random.Random(6)
        m = int_matrix([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
        ops = OpCount()
        with matrices_built(monkeypatch) as built:
            det = cofactor_det(m, ops)
        assert built == []
        assert det == bareiss_det(m)
        # M(6) = 1236 and A(n) = n * A(n-1) + n - 1, A(1) = 0
        assert ops == OpCount(mults=1236, divs=0, adds=719)

    def test_rational_ring(self):
        m = Matrix([[ExactRational(1, 2), ExactRational(1, 3)],
                    [ExactRational(1, 4), ExactRational(1, 5)]])
        assert cofactor_det(m) == ExactRational(1, 60)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            cofactor_det(int_matrix([[1, 2, 3], [4, 5, 6]]))


class TestBareissDet:
    def test_golden_values(self):
        assert bareiss_det(int_matrix(CLEAN4)) == ExactInteger(-82)
        assert bareiss_det(int_matrix(RESTART4)) == ExactInteger(-163)

    def test_singular_equal_rows(self):
        m = int_matrix([[1, 2, 3], [1, 2, 3], [4, 5, 6]])
        assert bareiss_det(m) == ExactInteger(0)

    def test_zero_leading_column_needs_pivot(self):
        m = int_matrix([[0, 1, 2], [0, 3, 4], [5, 6, 7]])
        assert bareiss_det(m) == cofactor_det(m)

    def test_random_7x7_matches_cofactor(self):
        rng = random.Random(77)
        m = int_matrix([[rng.randint(-9, 9) for _ in range(7)] for _ in range(7)])
        assert bareiss_det(m) == cofactor_det(m)

    def test_polynomial_ring(self):
        x = Polynomial([0, 1])
        one = Polynomial([1])
        zero = Polynomial([])
        m = Matrix([[x, one, zero], [one, x, one], [zero, one, x]])
        assert bareiss_det(m) == Polynomial([0, -2, 0, 1])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="^determinant needs a square matrix$"):
            bareiss_det(int_matrix([[1, 2, 3], [4, 5, 6]]))


def six_by_six():
    """6 x 6 integer, rational and real matrices, and the Hückel matrix of
    the 6-cycle."""
    rng = random.Random(66)
    draw = lambda make: Matrix([[make() for _ in range(6)] for _ in range(6)])
    return [
        draw(lambda: ExactInteger(rng.randint(-10**6, 10**6))),
        draw(lambda: ExactRational(rng.randint(-99, 99), rng.randint(1, 99))),
        draw(lambda: ApproxReal(rng.uniform(-10, 10))),
        secular_matrix(cycle(6)),
    ]


class TestOraclesOnNativeValues:
    @pytest.mark.parametrize("oracle", [bareiss_det, cofactor_det])
    def test_each_wraps_one_scalar(self, oracle):
        for m in six_by_six():
            wrapped = []

            def counting(value, wrap=m.native_ring.wrap):
                wrapped.append(value)
                return wrap(value)

            counted = Matrix(m.native_rows, m.native_ring._replace(wrap=counting))
            assert oracle(counted) == oracle(m)
            assert len(wrapped) == 1

    def test_independent_of_the_kernel(self, monkeypatch):
        # matrices built from native rows hold no kernel form, their ring can
        # neither build one nor decode one, and the module functions that
        # clear and pack one fail too
        def boom(*args):
            raise AssertionError("an oracle used the condensation kernel")

        cases, natives = [], six_by_six()
        for m in natives:
            ring = m.native_ring._replace(encode=boom, decode=boom)
            for oracle in (bareiss_det, cofactor_det):
                ops = OpCount()
                cases.append((oracle, Matrix(m.native_rows, ring), oracle(m, ops), ops))
        for name in ("_cleared_rows", "pack_polynomial"):
            monkeypatch.setattr(ring_module, name, boom)
        for oracle, m, value, ops in cases:
            counted = OpCount()
            assert repr(oracle(m, counted)) == repr(value)
            assert counted == ops
        # the patches are live: the kernel's elimination raises under them,
        # on the patched rings, and, where the kernel form is cleared or
        # packed (rationals, polynomials), on the rings as they are
        for _, m, _, _ in cases:
            with pytest.raises(AssertionError, match="condensation kernel"):
                elimination_det(m)
        for m in natives[1], natives[3]:
            with pytest.raises(AssertionError, match="condensation kernel"):
                elimination_det(m)


entry = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(int_matrix)


@given(m=st.one_of(square(2), square(3), square(4), square(5)))
def test_oracles_agree(m):
    assert bareiss_det(m) == cofactor_det(m)


class TestJacobiCheck:
    def test_golden_corner_identity(self):
        # det[A'] = -410 and det(A) * det(interior) = (-82) * 5
        a = int_matrix(CLEAN4)
        assert cofactor_det(a.interior()) == ExactInteger(5)
        assert jacobi_check(a)

    def test_identity_matrix(self):
        assert jacobi_check(identity(3))

    def test_random_sweep(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.choice([4, 5])
            m = int_matrix(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            )
            assert jacobi_check(m)

    def test_singular_matrices(self):
        rng = random.Random(14)
        for _ in range(5):
            n = rng.choice([4, 5])
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
            rows.append(list(rows[0]))  # duplicate row forces det(A) = 0
            m = int_matrix(rows)
            assert cofactor_det(m) == ExactInteger(0)
            assert jacobi_check(m)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            jacobi_check(int_matrix([[1, 2], [3, 4]]))


class TestCountRatio:
    def test_n5_matches_closed_forms(self):
        r = count_ratio(5, trials=20, seed=42)
        assert r.condensation_ops == 74.0
        assert r.cofactor_ops == 205.0
        assert r.ratio == pytest.approx(74 / 205)
        assert r.ratio <= 0.6

    def test_n3_value(self):
        r = count_ratio(3, trials=5, seed=1)
        assert r.condensation_ops == 11.0  # 10 mults + 1 div
        assert r.cofactor_ops == 9.0

    def test_deterministic(self):
        a = count_ratio(4, trials=3, seed=7)
        b = count_ratio(4, trials=3, seed=7)
        assert a == b

    def test_ratio_decreases_with_n(self):
        ratios = [count_ratio(n, trials=2, seed=3).ratio for n in range(3, 7)]
        assert ratios == sorted(ratios, reverse=True)

    def test_closed_form_equals_counted_run(self):
        # the closed form count_ratio reports against the recurrence, and
        # both against a counted run
        for n in range(1, 13):
            assert cofactor_mults(n) == reference_mults(n)
        rng = random.Random(8)
        for n in range(2, 9):
            m = int_matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            ops = OpCount()
            cofactor_det(m, ops)
            assert ops.muldiv == ops.mults == cofactor_mults(n) == reference_mults(n)
        assert cofactor_mults(5) == reference_mults(5) == 205
        assert cofactor_mults(10) == reference_mults(10) == 6235300

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_ratio(2, trials=1, seed=0)
        with pytest.raises(ValueError):
            count_ratio(5, trials=0, seed=0)
