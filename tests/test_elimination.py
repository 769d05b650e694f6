"""``elimination_det``, the fallback of every ring, against ``bareiss_det``.

The fallback is ``bareiss_det``'s loop, ``oracle._bareiss``, run on the
kernel's rows (integers, cleared rationals, packed polynomials, floats)
where ``bareiss_det`` runs it on native values, and the CLI and
``secular_polynomial`` print its result and op counts under the name
"bareiss", so both must agree exactly: the ``repr`` of the value, which
tells -0.0 from 0.0 and shows a nan that ``==`` would not match, and the
``OpCount``, early singular returns included.  On integer and real matrices
both run the loop on the same rows, so the comparison checks the clearing,
packing and decoding of rationals and polynomials.
"""

import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactdet.cli import main
from exactdet.condense import OpCount
from exactdet.huckel import PiSystem, secular_matrix
from exactdet.matrix import Matrix, int_matrix, parse_matrix
from exactdet.oracle import bareiss_det, elimination_det
from exactdet.ring import ApproxReal, ExactInteger, ExactRational, Polynomial, integer_quotient

from test_cli import SCALAR_MAKERS, profiled_calls
from test_sweep_digest import SEED, sweep_cases

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

NAPHTHALENE = PiSystem.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (4, 6), (6, 7), (7, 8), (8, 9), (9, 5)],
)


def cycle(n):
    return PiSystem.from_edges(n, [(k, (k + 1) % n) for k in range(n)])


def assert_same_as_bareiss(m):
    want_ops, got_ops = OpCount(), OpCount()
    want = bareiss_det(m, want_ops)
    got = elimination_det(m, got_ops)
    assert repr(got) == repr(want)
    assert got_ops == want_ops


def test_seeded_sweep_cases():
    cases = 0
    for m in sweep_cases(random.Random(SEED)):
        assert_same_as_bareiss(m)
        cases += 1
    assert cases == 25 * 7 + 40 + 40 + 30 + 8


@pytest.mark.parametrize(
    "system",
    [PiSystem.chain(n) for n in range(3, 21)] + [cycle(n) for n in range(3, 13)] + [NAPHTHALENE],
)
def test_huckel_systems(system):
    assert_same_as_bareiss(secular_matrix(system))


def test_zero_column_stops_with_partial_counts():
    # column 2 is zero, so step 2 finds no pivot after two charged steps
    m = int_matrix([[1, 2, 0, 4], [3, 1, 0, 2], [2, 5, 0, 1], [1, 1, 0, 3]])
    ops = OpCount()
    assert elimination_det(m, ops) == ExactInteger(0)
    assert ops == OpCount(mults=2 * (9 + 4), divs=4, adds=9 + 4)
    assert_same_as_bareiss(m)


def test_pivot_swaps_flip_the_sign():
    assert_same_as_bareiss(int_matrix([[0, 1, 2], [0, 3, 1], [4, 1, 1]]))
    assert elimination_det(int_matrix([[0, 1], [1, 0]])) == ExactInteger(-1)


def test_integer_rows_check_each_quotient_as_it_is_formed():
    # on integer rows (native integers in bareiss_det, and the kernel's
    # cleared rationals and packed polynomials in elimination_det) each
    # entry's quotient by the previous pivot is checked as it is formed, so
    # a step calls integer_quotient for no entry; pivots, values and counts
    # stay bareiss_det's
    rng = random.Random("fused-elimination")
    integers = [
        int_matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]) for n in range(2, 10)
    ]
    integers.append(int_matrix([[0, 1, 2], [0, 3, 1], [4, 1, 1]]))
    kernels = integers + [
        Matrix([[ExactRational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)] for _ in range(6)])
    ]
    kernels += [secular_matrix(s) for s in (PiSystem.chain(8), cycle(8), NAPHTHALENE)]
    cases = [(bareiss_det, m) for m in integers] + [(elimination_det, m) for m in kernels]
    for det, m in cases:
        assert profiled_calls({integer_quotient.__code__}, lambda: det(m))[1] == 0
        assert_same_as_bareiss(m)


def test_a_fallback_builds_only_its_result():
    # a parsed rational file holds only its cleared integer rows; the result
    # is decoded once and wrapped once, so it is the one scalar built
    m = parse_matrix((FIXTURES / "rational_falls_back4.txt").read_text())
    assert profiled_calls(SCALAR_MAKERS, lambda: elimination_det(m)) == (ExactRational(-5, 21), 1)


def test_refuses_non_square():
    with pytest.raises(ValueError):
        elimination_det(int_matrix([[1, 2, 3], [4, 5, 6]]))


# entries with many zeros, so pivot searches, swaps and zero columns occur
small = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
integers = small.map(ExactInteger)
rationals = st.builds(ExactRational, small, st.integers(1, 6))
int_polys = st.lists(small, max_size=3).map(Polynomial)
rational_polys = st.lists(st.builds(Fraction, small, st.integers(1, 6)), max_size=3).map(Polynomial)
# dense Q[x] entries with large coefficients, so the packing width is tight
big = st.integers(-(10**12), 10**12).filter(bool)
dense_polys = st.lists(st.builds(Fraction, big, st.integers(1, 10**6)), min_size=3, max_size=3).map(
    Polynomial
)


def matrices(entry, max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(Matrix)
    )


# 1e-10 is zero by the real zero rule and 1e-7 is not, and 1e200 overflows
# to inf and then nan
real_values = st.sampled_from([0.0, -0.0, 1e-7, 1e-10, 0.5, -3.0, 1e200])
real_matrices = matrices(real_values.map(ApproxReal))


@given(m=st.one_of(matrices(integers), matrices(rationals), matrices(int_polys), matrices(rational_polys)))
def test_matches_bareiss_on_sparse_exact_matrices(m):
    assert_same_as_bareiss(m)


@given(m=real_matrices)
def test_matches_bareiss_on_real_matrices(m):
    assert_same_as_bareiss(m)


def test_real_pivots_follow_the_zero_rule():
    # a 1e-10 pivot is zero: both swap and pivot on 1e-8 below it, and a
    # column holding only such entries is singular, before any operation
    m = Matrix([[ApproxReal(v) for v in r] for r in [[1e-10, 1.0], [1e-8, 3.0]]])
    ops = OpCount()
    assert elimination_det(m, ops).value == -(1e-8 * 1.0 - 1e-10 * 3.0)
    assert ops == OpCount(mults=2, divs=0, adds=1)
    assert_same_as_bareiss(m)
    m = Matrix([[ApproxReal(v) for v in r] for r in [[1e-10, 1.0], [-1e-11, 3.0]]])
    ops = OpCount()
    assert repr(elimination_det(m, ops)) == "ApproxReal(0.0, tolerance=1e-09)"
    assert ops == OpCount()
    assert_same_as_bareiss(m)


@given(m=matrices(dense_polys, max_n=4))
def test_matches_bareiss_on_dense_rational_polynomials(m):
    assert_same_as_bareiss(m)


@given(m=st.one_of(matrices(integers, 2), matrices(rationals, 2), matrices(rational_polys, 2)))
def test_matches_bareiss_at_n_1_and_2(m):
    assert_same_as_bareiss(m)


@pytest.mark.parametrize(
    "name",
    ["falls_back4.txt", "rational_falls_back4.txt", "real_falls_back4.txt", "over_budget5.txt", "sparse10.txt"],
)
def test_cli_fallback_prints_what_bareiss_prints(name, capsys):
    path = str(FIXTURES / name)
    assert main(["det", path, "--count-ops"]) == 0
    auto = capsys.readouterr()
    assert main(["det", path, "--method", "bareiss", "--count-ops"]) == 0
    oracle = capsys.readouterr()
    assert auto.out == oracle.out
    assert auto.err == "method: bareiss (condensation fallback)\n"
    assert oracle.err == ""


def test_cli_over_budget_condense_exits_4(capsys):
    # over_budget5 condenses only after a fourth attempt, past the budget
    assert main(["det", str(FIXTURES / "over_budget5.txt"), "--method", "condense"]) == 4
    err = capsys.readouterr().err
    assert err == (
        "error: condensation gave up: the work W charged to failed attempts"
        " exceeds 2C, C being a clean run's muldiv\n"
    )


def test_cli_sparse_condense_exits_4(capsys):
    # no rotation clears sparse10 and 36 of its 100 entries are zero, so
    # condensation gives up before any additive repair
    assert main(["det", str(FIXTURES / "sparse10.txt"), "--method", "condense"]) == 4
    err = capsys.readouterr().err
    assert err == (
        "error: condensation gave up: no rotation clears the interior, n >= 10"
        " and at least n^2/3 entries are zero: additive repair is not tried\n"
    )
