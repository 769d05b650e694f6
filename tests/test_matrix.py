import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exactdet.condense import (
    FallbackRequired,
    MitigationLog,
    condensation_det,
    replay_log,
)
from exactdet import matrix as matrix_module
from exactdet.matrix import (
    IndexOutOfRange,
    Matrix,
    ParseError,
    TooSmall,
    adjugate,
    format_matrix,
    int_matrix,
    parse_matrix,
)
from exactdet.oracle import bareiss_det, cofactor_det, elimination_det
from exactdet.ring import (
    INTEGERS,
    ApproxReal,
    ExactInteger,
    ExactRational,
    Polynomial,
    parse_scalar,
)

# 4x4 with a zero-free interior; its condensation path is fully clean.
CLEAN4 = [[4, 2, 0, -3], [1, 1, 2, 2], [0, -1, 3, -1], [1, 2, 5, 1]]
# 4x4 whose first condensation attempt hits a zero divisor mid-run.
RESTART4 = [[0, 1, 0, 4], [-1, 3, 6, -3], [5, 1, 2, 0], [-2, 1, -1, 1]]


def identity(n):
    return int_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])


class TestConstruction:
    def test_shape_and_indexing(self):
        m = int_matrix(CLEAN4)
        assert (m.n_rows, m.n_cols) == (4, 4)
        assert m[2, 1] == ExactInteger(-1)

    def test_indexing_wraps_one_entry(self):
        wrapped = []

        def counting(x):
            wrapped.append(x)
            return ExactInteger(x)

        m = Matrix([[5 * i + j for j in range(5)] for i in range(5)], INTEGERS._replace(wrap=counting))
        assert m[3, 2] == ExactInteger(17)
        assert wrapped == [17]

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            int_matrix([[1, 2], [3]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Matrix([])

    def test_rejects_mixed_rings(self):
        with pytest.raises(TypeError):
            Matrix([[ExactInteger(1), ExactRational(1, 2)]])

    def test_repr_and_hash(self):
        m = int_matrix([[1, 2], [3, 4]])
        assert repr(m) == "<Matrix 2x2 [1 2; 3 4]>"
        twin = Matrix([[ExactInteger(1), ExactInteger(2)], [ExactInteger(3), ExactInteger(4)]])
        assert twin == m and hash(twin) == hash(m)


class TestZeroSet:
    def test_zeros_follow_the_native_zero_test_and_are_read_once(self, monkeypatch):
        from test_condense import counted_zero_tests

        cases = {
            "integer": (int_matrix([[0, 1, 2], [3, 0, -1], [0, 0, 5]]), {(0, 0), (1, 1), (2, 0), (2, 1)}),
            "rational": (
                Matrix([[ExactRational(0), ExactRational(1, 2)], [ExactRational(-3, 4), ExactRational(0, 5)]]),
                {(0, 0), (1, 1)},
            ),
            # by the real zero rule, below 1e-9: 1e-10 is zero, and 2e-9 is not
            "real": (
                Matrix(
                    [
                        [ApproxReal(1e-10), ApproxReal(0.0), ApproxReal(1.0)],
                        [ApproxReal(5e-10), ApproxReal(2e-9), ApproxReal(-1e-12)],
                    ]
                ),
                {(0, 0), (0, 1), (1, 0), (1, 2)},
            ),
            "polynomial": (
                Matrix([[Polynomial(), Polynomial([0, 1])], [Polynomial([0, 0]), Polynomial([Fraction(1, 2)])]]),
                {(0, 0), (1, 0)},
            ),
        }
        for m, zeros in cases.values():
            ring = m.native_ring
            values = ring.unwrap(m.rows())
            native = {(i, j) for i, r in enumerate(values) for j, x in enumerate(r) if ring.is_zero(x)}
            assert native == zeros
        tested = counted_zero_tests(monkeypatch)
        for m, zeros in cases.values():
            before = len(tested)
            assert m.zeros == zeros
            assert isinstance(m.zeros, frozenset)
            assert len(tested) - before == m.n_rows * m.n_cols
        assert not Polynomial()
        assert Polynomial([0, 1])


class TestConnectedMinor:
    def test_upper_left_2x2(self):
        m = int_matrix(CLEAN4)
        assert m.connected_minor(0, 0, 2) == int_matrix([[4, 2], [1, 1]])

    def test_full_size_is_identity_case(self):
        m = int_matrix(CLEAN4)
        assert m.connected_minor(0, 0, 4) == m

    def test_anchored_block(self):
        m = int_matrix([[2, 1, -1, -3], [1, -2, 3, 0], [3, 1, 2, -1], [0, -2, 3, 1]])
        assert m.connected_minor(0, 0, 2) == int_matrix([[2, 1], [1, -2]])

    def test_out_of_range(self):
        m = int_matrix(CLEAN4)
        with pytest.raises(IndexOutOfRange):
            m.connected_minor(2, 2, 3)

    def test_size_and_column_bounds(self):
        m = int_matrix([[1, 2], [3, 4]])
        with pytest.raises(IndexOutOfRange) as info:
            m.connected_minor(0, 0, 0)
        assert str(info.value) == "minor size must be >= 1"
        with pytest.raises(IndexOutOfRange) as info:
            m.connected_minor(0, 1, 2)
        assert str(info.value) == "cols [1, 3) out of range"

    def test_composition(self):
        rng = random.Random(7)
        m = int_matrix([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
        outer = m.connected_minor(1, 2, 4)
        assert outer.connected_minor(1, 1, 2) == m.connected_minor(2, 3, 2)


class TestInterior:
    def test_clean4(self):
        assert int_matrix(CLEAN4).interior() == int_matrix([[1, 2], [-1, 3]])

    def test_3x3_stage(self):
        m = int_matrix([[2, 4, 6], [-1, 5, -8], [1, -11, 8]])
        assert m.interior() == int_matrix([[5]])

    def test_identity(self):
        assert identity(3).interior() == int_matrix([[1]])

    def test_too_small(self):
        with pytest.raises(TooSmall):
            int_matrix([[1, 2], [3, 4]]).interior()

    def test_interior_of_full_minor(self):
        m = int_matrix(CLEAN4)
        assert m.connected_minor(0, 0, 4).interior() == m.interior()


class TestDeleteRowCol:
    def test_2x2(self):
        m = int_matrix([[1, 2], [3, 4]])
        assert m.delete_row_col(0, 0) == int_matrix([[4]])

    def test_clean4_corner(self):
        # read off by hand from CLEAN4, checked against a slicing oracle
        rows = [r[1:] for k, r in enumerate(CLEAN4) if k != 0]
        assert rows == [[1, 2, 2], [-1, 3, -1], [2, 5, 1]]
        assert int_matrix(CLEAN4).delete_row_col(0, 0) == int_matrix(rows)

    def test_identity(self):
        assert identity(3).delete_row_col(1, 1) == identity(2)

    def test_too_small_and_out_of_range(self):
        with pytest.raises(TooSmall):
            int_matrix([[5]]).delete_row_col(0, 0)
        m = int_matrix([[1, 2], [3, 4]])
        for (i, j), message in [((2, 0), "row 2 outside 0..1"), ((0, -1), "column -1 outside 0..1")]:
            with pytest.raises(IndexOutOfRange) as info:
                m.delete_row_col(i, j)
            assert str(info.value) == message


class TestAdjugate:
    def test_2x2_formula(self):
        m = int_matrix([[1, 2], [3, 4]])
        assert adjugate(m, cofactor_det) == int_matrix([[4, -3], [-2, 1]])

    def test_identity(self):
        assert adjugate(identity(3), cofactor_det) == identity(3)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            adjugate(int_matrix([[5]]), cofactor_det)

    def test_corner_identity_value(self):
        adj = adjugate(int_matrix(CLEAN4), cofactor_det)
        corner = adj[0, 0] * adj[3, 3] - adj[0, 3] * adj[3, 0]
        assert corner == ExactInteger(-410)


def apply(m, *op):
    """``m`` after the single elementary operation ``op``."""
    return replay_log(m, MitigationLog([op]))


class TestRowColOps:
    def test_rotation_moves_first_row_to_bottom(self):
        m = int_matrix(RESTART4)
        b = apply(apply(apply(m, "swap_rows", 0, 1), "swap_rows", 1, 2), "swap_rows", 2, 3)
        assert b == int_matrix(
            [[-1, 3, 6, -3], [5, 1, 2, 0], [-2, 1, -1, 1], [0, 1, 0, 4]]
        )

    def test_swap_is_involution(self):
        m = int_matrix(CLEAN4)
        assert apply(apply(m, "swap_rows", 1, 3), "swap_rows", 1, 3) == m
        assert apply(apply(m, "swap_cols", 0, 2), "swap_cols", 0, 2) == m

    def test_single_row_matrix_rejects_swap(self):
        with pytest.raises(IndexOutOfRange):
            apply(int_matrix([[1, 2]]), "swap_rows", 0, 1)
        with pytest.raises(IndexOutOfRange):
            apply(int_matrix(CLEAN4), "swap_rows", 2, 2)

    def test_add_zero_row_is_identity(self):
        m = int_matrix(CLEAN4)
        assert apply(m, "add_scaled_row", 0, 1, ExactInteger(0)) == m

    def test_add_row_example(self):
        m = int_matrix([[1, 0], [0, 1]])
        out = apply(m, "add_scaled_row", 0, 1, ExactInteger(1))
        assert out == int_matrix([[1, 0], [1, 1]])
        assert cofactor_det(out) == ExactInteger(1)


entry = st.integers(min_value=-9, max_value=9)


def square(n):
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(int_matrix)


@given(m=square(4), src=st.integers(0, 3), dst=st.integers(0, 3), c=entry)
def test_det_invariant_under_add_scaled_row(m, src, dst, c):
    if src == dst:
        dst = (dst + 1) % 4
    out = apply(m, "add_scaled_row", src, dst, ExactInteger(c))
    assert cofactor_det(out) == cofactor_det(m)


@given(m=square(4), i=st.integers(0, 3), j=st.integers(0, 3))
def test_det_negated_under_swap(m, i, j):
    if i == j:
        j = (j + 1) % 4
    assert cofactor_det(apply(m, "swap_rows", i, j)) == -cofactor_det(m)
    assert cofactor_det(apply(m, "swap_cols", i, j)) == -cofactor_det(m)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_det_invariance_seeded(n):
    rng = random.Random(n * 31)
    for _ in range(5):
        m = int_matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        d = cofactor_det(m)
        i, j = 0, n - 1
        assert cofactor_det(apply(m, "swap_rows", i, j)) == -d
        c = ExactInteger(rng.randint(-3, 3))
        assert cofactor_det(apply(m, "add_scaled_row", i, j, c)) == d


class TestTextFormat:
    def test_headerless(self):
        m = parse_matrix("1 2\n3 4\n5 6\n")
        assert m == int_matrix([[1, 2], [3, 4], [5, 6]])

    def test_header_and_comments(self):
        text = "# comment\n2 3\n1 2 3\n4 5 6  # trailing\n"
        m = parse_matrix(text)
        assert (m.n_rows, m.n_cols) == (2, 3)

    def test_header_reflows_tokens(self):
        m = parse_matrix("2 2\n1 2 3 4\n")
        assert m == int_matrix([[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "text,rows", [("1 2\n3 4\n", [[1, 2], [3, 4]]), ("2 1\n5 7\n", [[2, 1], [5, 7]])]
    )
    def test_square_reading_beats_header(self, text, rows):
        assert parse_matrix(text) == int_matrix(rows)

    def test_header_kept_when_lines_are_not_square(self):
        assert parse_matrix("2 2\n1 2\n3 4\n") == int_matrix([[1, 2], [3, 4]])
        assert parse_matrix("1 1\n5\n") == int_matrix([[5]])

    def test_rational_promotion(self):
        m = parse_matrix("1/2 3\n4 5\n")
        assert all(isinstance(e, ExactRational) for r in m.rows() for e in r)
        assert m[0, 1] == ExactRational(3)

    def test_real_inference(self):
        m = parse_matrix("1.5 0\n2 -3e0\n")
        assert all(isinstance(e, ApproxReal) for r in m.rows() for e in r)

    def test_mixing_rational_and_real_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("1/2 2.5\n1 1\n")

    def test_ragged_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("1 2\n3\n")

    def test_bad_token_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("1 2\n3 oops\n")

    @pytest.mark.parametrize(
        "token", ["1_000", "+5", "-0", "٣", "0x10", "inf", "7" * 5000, "-" + "3" * 5000]
    )
    @pytest.mark.parametrize("layout", ["1 2 3\n4 {} 6\n7 8 9\n", "3 3\n1 2 3 4 {}\n6 7 8 9\n"])
    def test_integer_tokens_read_as_parse_scalar_reads_them(self, token, layout):
        # the token is on line 2 in both layouts, at entry (1, 1)
        text = layout.format(token)
        try:
            value = parse_scalar(token)
        except ValueError as e:
            with pytest.raises(ParseError) as err:
                parse_matrix(text)
            assert str(err.value) == f"line 2: {e}"
            assert err.value.line == 2
            return
        expected = int_matrix([[1, 2, 3], [4, 0, 6], [7, 8, 9]]).rows()
        rows = [list(r) for r in expected]
        rows[1][1] = value
        assert parse_matrix(text) == Matrix(rows)

    @pytest.mark.parametrize(
        "ring, token",
        [
            ("rational", t)
            for t in ["1_000/3", "+5/-7", "٣/4", "1/0", "1/2/3", "1.5/2", "7" * 5000 + "/3",
                      "/3", "5", "-0", "nan", "0x10", "nan/2"]
        ]
        + [
            ("real", t)
            for t in ["-0.0", "1e400", "inf", "nan", "0x10", "1_0.5", "-2.5E-3", "7", "-0",
                      "9" * 400, "7" * 5000, "+12"]
        ],
    )
    @pytest.mark.parametrize("header", [False, True])
    def test_rational_and_real_tokens_read_as_parse_scalar_reads_them(self, ring, token, header):
        # the token sits at entry (1, 1), on line 2 in both layouts; the
        # reference reads every token with parse_scalar and promotes an
        # integer to the file's ring
        first = ["1/2", "2", "3"] if ring == "rational" else ["0.5", "2.0", "3.0"]
        rest = ["4", token, "6", "7", "8", "9"]
        if header:
            text = f"3 3\n{' '.join(first + rest[:2])}\n{' '.join(rest[2:])}\n"
        else:
            text = "\n".join(" ".join(r) for r in [first, rest[:3], rest[3:]]) + "\n"

        def reference(t):
            s = parse_scalar(t)
            if isinstance(s, ExactInteger):
                return ExactRational(s.value) if ring == "rational" else ApproxReal(float(s.value))
            return s

        try:
            entries = [reference(t) for t in first + rest]
        except (ValueError, OverflowError) as e:
            message = str(e) if isinstance(e, ValueError) else "integer token too large for a real"
            with pytest.raises(ParseError) as err:
                parse_matrix(text)
            assert str(err.value) == f"line 2: {message}"
            assert err.value.line == 2
            return
        expected = Matrix([entries[:3], entries[3:6], entries[6:]])
        m = parse_matrix(text)
        assert m == expected
        assert [type(e) for r in m.rows() for e in r] == [type(e) for e in entries]
        if ring == "real":
            signs = [[math.copysign(1.0, e.value) for e in r] for r in m.rows()]
            assert signs == [[math.copysign(1.0, e.value) for e in r] for r in expected.rows()]

    @pytest.mark.parametrize(
        "ring, text",
        [
            ("integer", "7" * 5000 + " 2\n3 4\n"),
            ("rational", "7" * 5000 + "/3 1\n3 1\n"),
            ("integer", "1_0 2\n3 4\n"),
        ],
        ids=["long-integer", "long-rational", "underscore"],
    )
    def test_a_reread_promotes_native_values(self, monkeypatch, ring, text):
        # a file read again token by token promotes each value to the file's
        # ring; it infers no ring from a matrix of scalars
        def scalar(t):
            s = parse_scalar(t)
            return ExactRational(s.value) if ring == "rational" else s

        try:
            expected = Matrix([list(map(scalar, line.split())) for line in text.splitlines()])
        except ValueError as e:
            expected = e

        def no_inference(rows):
            raise AssertionError("the parser built a matrix of scalars")

        monkeypatch.setattr(matrix_module, "native_ring", no_inference)
        if isinstance(expected, ValueError):
            with pytest.raises(ParseError) as err:
                parse_matrix(text)
            assert str(err.value) == f"line 1: {expected}"
            return
        m = parse_matrix(text)
        assert m == expected
        assert m.native_ring is expected.native_ring
        assert [type(x) for r in m.native_rows for x in r] == [
            type(x) for r in expected.native_rows for x in r
        ]

    @pytest.mark.parametrize(
        "text",
        ["1.0 2.0\n3.0 1e400\n", "1.0 2.0\n3.0 -" + "9" * 400 + "\n"],
        ids=["1e400", "400-digit-integer"],
    )
    def test_real_no_double_holds_names_line(self, text):
        with pytest.raises(ParseError, match="line 2: "):
            parse_matrix(text)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("# nothing here\n")

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2], [3, 4]],
            [[7]],
            CLEAN4,
            [[3, 4]],
            [[3], [4]],
        ],
    )
    def test_round_trip_integers(self, rows):
        m = int_matrix(rows)
        assert parse_matrix(format_matrix(m)) == m

    def test_round_trip_rationals(self):
        m = Matrix([[ExactRational(1, 3), ExactRational(2)],
                    [ExactRational(-5, 7), ExactRational(0)]])
        assert parse_matrix(format_matrix(m)) == m

    def test_round_trip_reals(self):
        m = Matrix([[ApproxReal(1.25), ApproxReal(-3.5e-3)],
                    [ApproxReal(0.0), ApproxReal(7.0)]])
        assert parse_matrix(format_matrix(m)) == m


def _rational_token(draw_num, draw_den, plus, slash):
    num = f"+{draw_num}" if plus and draw_num >= 0 else str(draw_num)
    return f"{num}/{draw_den}" if slash else num


@st.composite
def rational_texts(draw):
    """A rational matrix file and the tokens of its n x n entries, row by
    row: unreduced tokens (6/4), negative denominators (1/-3, -3/-6), +
    signs, zero numerators and integer tokens, in either layout, with
    comments and blank lines."""
    n = draw(st.integers(1, 5))
    tokens = []
    for _ in range(n * n):
        num = draw(st.sampled_from([0, 0, 1, -1, 2, -3, 6, 12, -18, 35, 10**25]))
        den = draw(st.sampled_from([1, -1, 2, -3, 4, 6, -6, 9, 10, 3 * 10**20]))
        tokens.append(_rational_token(num, den, draw(st.booleans()), draw(st.booleans())))
    tokens[draw(st.integers(0, n * n - 1))] = draw(st.sampled_from(["1/2", "0/7", "-3/-6"]))
    comment = lambda: draw(st.sampled_from(["", "  # note", " # 1_0 ١٢ 3/0"]))
    if draw(st.booleans()):
        # the n m header, then the entries in chunks of any size
        lines, rest = [f"{n} {n}{comment()}"], list(tokens)
        while rest:
            k = draw(st.integers(1, len(rest)))
            lines.append(" ".join(rest[:k]) + comment())
            rest = rest[k:]
    else:
        lines = [" ".join(tokens[i * n : (i + 1) * n]) + comment() for i in range(n)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# a comment line")
    lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines) + "\n", n, tokens


@given(rational_texts())
def test_a_rational_file_reads_as_parse_scalar_reads_it(case):
    text, n, tokens = case

    def scalar(t):
        s = parse_scalar(t)
        return ExactRational(s.value) if isinstance(s, ExactInteger) else s

    ref = Matrix([[scalar(t) for t in tokens[i * n : (i + 1) * n]] for i in range(n)])
    m = parse_matrix(text)
    # the kernel form is the parse's own; the reference clears its Fractions
    assert m.kernel == ref.kernel
    assert m.native_rows == ref.native_rows
    assert m.zeros == ref.zeros
    rows, scales, _ = m.kernel
    for native, cleared, scale in zip(m.native_rows, rows, scales):
        assert scale == math.lcm(*(x.denominator for x in native))
        assert list(cleared) == [x * scale for x in native]
    try:
        det, _ = condensation_det(m)
    except FallbackRequired:
        det = elimination_det(m)
    assert det == bareiss_det(ref)
