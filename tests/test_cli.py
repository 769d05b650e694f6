import argparse
import decimal
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from exactdet import cli, condense
from exactdet import ring as ring_module
from exactdet.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CLEAN4 = str(FIXTURES / "clean4.txt")
RESTART4 = str(FIXTURES / "restart4.txt")
RATIONAL_RESTART4 = str(FIXTURES / "rational_restart4.txt")
REAL_RESTART4 = str(FIXTURES / "real_restart4.txt")
ROTATE5 = str(FIXTURES / "rotate5.txt")
ALLYL = str(FIXTURES / "allyl.edges")


GOLDEN_CLEAN4 = """\
-82
stage 0 (4 x 4)
4 2 0 -3
1 1 2 2
0 -1 3 -1
1 2 5 1
stage 1 (3 x 3)
2 4 6
-1 5 -8
1 -11 8
stage 2 (pre-division)
14 -62
6 -48
stage 2 (2 x 2)
14 -31
-6 -16
stage 3 (pre-division)
-410
stage 3 (1 x 1)
-82
sign: +1
mults: 28
divs: 5
adds: 14
"""

GOLDEN_RESTART4 = """\
-163
stage 0 (4 x 4)
-1 3 6 -3
5 1 2 0
-2 1 -1 1
0 1 0 4
stage 1 (3 x 3)
-16 0 6
7 -3 2
-2 1 -4
stage 2 (pre-division)
48 18
1 10
stage 2 (2 x 2)
48 9
1 -10
stage 3 (pre-division)
-489
stage 3 (1 x 1)
163
restart: zero divisor at stage 3, minor (0, 0)
swap_rows 0 1
swap_rows 1 2
swap_rows 2 3
sign: -1
mults: 56
divs: 9
adds: 28
"""

# condenses at once under the rotation ("rot", 2, 1): (2 + 1) * 4 swaps,
# an even number, as every rotation of a 5 x 5 matrix has
GOLDEN_ROTATE5 = """\
-149
stage 0 (5 x 5)
3 0 1 1 0
4 -4 -1 -2 -4
1 -4 1 -4 -3
0 1 -4 1 -1
3 2 -1 4 -2
stage 1 (4 x 4)
-12 4 -1 -4
-12 -8 6 -10
1 15 -15 7
-3 7 -15 2
stage 2 (pre-division)
144 16 34
-172 30 -108
52 -120 75
stage 2 (3 x 3)
-36 -16 -17
43 30 27
52 30 75
stage 3 (pre-division)
-392 78
-270 1440
stage 3 (2 x 2)
49 13
-18 -96
stage 4 (pre-division)
-4470
stage 4 (1 x 1)
-149
swap_rows 0 1
swap_rows 1 2
swap_rows 2 3
swap_rows 3 4
swap_rows 0 1
swap_rows 1 2
swap_rows 2 3
swap_rows 3 4
swap_cols 0 1
swap_cols 1 2
swap_cols 2 3
swap_cols 3 4
sign: +1
mults: 60
divs: 14
adds: 30
"""

# needs a rotation up front, then restarts once under it
GOLDEN_RATIONAL_RESTART4 = """\
486/35
stage 0 (4 x 4)
0/1 0/1 1/1 4/1
6/7 -1/1 -3/8 -3/2
0/1 1/1 -3/5 -3/5
4/1 6/1 -3/4 0/1
stage 1 (3 x 3)
0/1 1/1 0/1
6/7 39/40 -27/40
-4/1 57/20 -9/20
stage 2 (pre-division)
-6/7 -27/40
222/35 297/200
stage 2 (2 x 2)
6/7 9/5
222/35 -99/40
stage 3 (pre-division)
-9477/700
stage 3 (1 x 1)
-486/35
restart: zero divisor at stage 3, minor (0, 0)
swap_rows 0 1
swap_rows 1 2
swap_rows 2 3
swap_cols 0 1
swap_cols 1 2
swap_cols 2 3
swap_cols 0 1
swap_cols 1 2
swap_cols 2 3
sign: -1
mults: 56
divs: 9
adds: 28
"""

# RESTART4 in real tokens: its zero divisor also sets the division warning
GOLDEN_REAL_RESTART4 = """\
-163.0
stage 0 (4 x 4)
-1.0 3.0 6.0 -3.0
5.0 1.0 2.0 0.0
-2.0 1.0 -1.0 1.0
0.0 1.0 0.0 4.0
stage 1 (3 x 3)
-16.0 0.0 6.0
7.0 -3.0 2.0
-2.0 1.0 -4.0
stage 2 (pre-division)
48.0 18.0
1.0 10.0
stage 2 (2 x 2)
48.0 9.0
1.0 -10.0
stage 3 (pre-division)
-489.0
stage 3 (1 x 1)
163.0
restart: zero divisor at stage 3, minor (0, 0)
swap_rows 0 1
swap_rows 1 2
swap_rows 2 3
sign: -1
mults: 56
divs: 9
adds: 28
"""

# chain 8's full matrix defeats every rotation, but its bipartite half
# yI - B^T B (4 x 4) has no interior zero and condenses as it is
GOLDEN_CHAIN8 = """\
polynomial: x^8 - 7*x^6 + 15*x^4 - 10*x^2 + 1
coefficients: 1 0 -10 0 15 0 -7 0 1
method: condensation
symbolic: (alpha-E)^8 - 7*(alpha-E)^6*beta^2 + 15*(alpha-E)^4*beta^4 - 10*(alpha-E)^2*beta^6 + beta^8
energy levels:
-1.9396926207859084
-1.766044443118978
-1.5
-1.1736481776669303
-0.8263518223330697
-0.5
-0.233955556881022
-0.06030737921409157
"""

# chains of 3-16 and 30 atoms, cycles of 3-12 (1-based edges) and naphthalene
HUCKEL_MOLECULES = {
    **{f"chain{n}": (n, None) for n in (*range(3, 17), 30)},
    **{f"cycle{n}": (n, [(k, k % n + 1) for k in range(1, n + 1)]) for n in range(3, 13)},
    "naphthalene": (10, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
                         (5, 7), (7, 8), (8, 9), (9, 10), (10, 6)]),
}
# stdout, stderr and exit code of ``huckel --show-poly`` for each molecule
HUCKEL_GOLDEN = json.loads((FIXTURES / "huckel_show_poly.json").read_text())


def decimal_text(v):
    """Decimal digits of an int, past the interpreter's int-to-str limit."""
    return str(decimal.Decimal(v))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDet:
    def test_condense_golden(self, capsys):
        code, out, _ = run(capsys, "det", CLEAN4, "--method", "condense")
        assert code == 0
        assert out == "-82\n"

    def test_auto_with_trace_shows_sign_and_swaps(self, capsys):
        code, out, _ = run(capsys, "det", RESTART4, "--method", "auto", "--trace")
        assert code == 0
        assert out.startswith("-163\n")
        assert out.count("swap_rows") == 3
        assert "sign: -1" in out

    def test_one_by_one(self, capsys, tmp_path):
        f = tmp_path / "one.txt"
        f.write_text("7\n")
        code, out, _ = run(capsys, "det", str(f))
        assert code == 0
        assert out == "7\n"

    @pytest.mark.parametrize(
        "path,expected", [(CLEAN4, "-82\n"), (RESTART4, "-163\n")]
    )
    def test_methods_agree_on_stdout(self, capsys, path, expected):
        outputs = set()
        for method in ("condense", "cofactor", "bareiss"):
            _, out, _ = run(capsys, "det", path, "--method", method)
            outputs.add(out)
        assert outputs == {expected}

    def test_rational_output_reparses(self, capsys, tmp_path):
        f = tmp_path / "q.txt"
        f.write_text("1/2 1/3\n1/4 1/5\n")
        code, out, _ = run(capsys, "det", str(f))
        assert code == 0
        assert out == "1/60\n"

    def test_count_ops(self, capsys):
        code, out, _ = run(capsys, "det", CLEAN4, "--method", "condense", "--count-ops")
        assert code == 0
        assert "mults: 28\n" in out
        assert "divs: 5\n" in out
        assert "adds: 14\n" in out

    def test_golden_trace_and_counts_clean4(self, capsys):
        code, out, err = run(capsys, "det", CLEAN4, "--trace", "--count-ops")
        assert (code, err) == (0, "")
        assert out == GOLDEN_CLEAN4

    def test_golden_trace_and_counts_restart4(self, capsys):
        # the counts include the attempt aborted at stage 3
        code, out, err = run(capsys, "det", RESTART4, "--trace", "--count-ops")
        assert (code, err) == (0, "")
        assert out == GOLDEN_RESTART4

    def test_golden_trace_and_counts_rotate5(self, capsys):
        code, out, err = run(capsys, "det", ROTATE5, "--trace", "--count-ops")
        assert (code, err) == (0, "")
        assert out == GOLDEN_ROTATE5
        swaps = [line for line in out.splitlines() if line.startswith("swap_")]
        assert len(swaps) == (2 + 1) * 4

    def test_golden_trace_and_counts_rational_restart4(self, capsys):
        code, out, err = run(capsys, "det", RATIONAL_RESTART4, "--trace", "--count-ops")
        assert (code, err) == (0, "")
        assert out == GOLDEN_RATIONAL_RESTART4

    def test_golden_trace_and_counts_real_restart4(self, capsys):
        code, out, err = run(capsys, "det", REAL_RESTART4, "--trace", "--count-ops")
        assert (code, err) == (
            0, "warning: a division used a divisor close to the zero tolerance\n"
        )
        assert out == GOLDEN_REAL_RESTART4

    @pytest.mark.parametrize(
        "entry,first,swaps,err",
        [
            ("1e-10", "51.9999999989", ["swap_rows 0 1", "swap_rows 1 2"], ""),
            ("1e-8", "52.00000146032835", [], "warning: a division used a divisor close to the zero tolerance\n"),
        ],
        ids=["1e-10", "1e-8"],
    )
    def test_real_zero_rule(self, capsys, tmp_path, entry, first, swaps, err):
        # the reals have one zero rule, below 1e-9: a 1e-10 interior entry
        # is zero and rotated out before the run, and 1e-8 is not, but is
        # near enough to zero to warn
        f = tmp_path / "real.txt"
        f.write_text(f"1.0 2.0 3.0\n4.0 {entry} 6.0\n7.0 8.0 10.0\n")
        code, out, error = run(capsys, "det", str(f), "--trace")
        lines = out.splitlines()
        assert (code, error) == (0, err)
        assert (lines[0], lines[-1]) == (first, "sign: +1")
        assert [line for line in lines if line.startswith("swap")] == swaps

    @pytest.mark.parametrize("text,expected", [("1 2\n3 4\n", "-2\n"), ("2 1\n5 7\n", "9\n")])
    def test_square_reading_beats_header(self, capsys, tmp_path, text, expected):
        f = tmp_path / "two.txt"
        f.write_text(text)
        assert run(capsys, "det", str(f)) == (0, expected, "")

    def test_parse_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 2\n3 oops\n")
        code, _, err = run(capsys, "det", str(f))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("method", ["auto", "condense", "bareiss", "cofactor"])
    @pytest.mark.parametrize(
        "text,line",
        [
            ("1e400 2.0 3.0\n4.0 5.0 6.0\n7.0 8.0 1e400\n", 1),
            ("1e400 1.0\n1e400 3.0\n", 1),
            ("1.0 2.0\n3.0 -" + "9" * 400 + "\n", 2),
        ],
        ids=["3x3-1e400", "2x2-1e400", "400-digit-integer"],
    )
    def test_real_beyond_double_exit_2(self, capsys, tmp_path, method, text, line):
        # a real entry no double can hold must not reach the arithmetic,
        # which printed inf or nan with exit 0
        f = tmp_path / "huge.txt"
        f.write_text(text)
        code, out, err = run(capsys, "det", str(f), "--method", method)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {f}: line {line}: ")

    @pytest.mark.parametrize("method", ["auto", "condense", "bareiss", "cofactor"])
    @pytest.mark.parametrize(
        "text",
        ["1e200 1.0\n1.0 1e200\n", "1e200 1e200\n1e200 1e200\n"],
        ids=["inf", "nan"],
    )
    def test_non_finite_real_result_exit_6(self, capsys, tmp_path, method, text):
        # finite entries whose determinant no double holds printed inf or nan
        # with exit 0
        f = tmp_path / "overflow.txt"
        f.write_text(text)
        code, out, err = run(capsys, "det", str(f), "--method", method)
        assert (code, out) == (6, "")
        assert err == f"error: {f}: the determinant is not finite as a double\n"

    def test_integers_beyond_str_digit_limit(self, capsys, tmp_path):
        # 3000-digit entries give a 6000-digit determinant, past the
        # interpreter's default int/str conversion limit of 4300 digits
        rng = random.Random(11)
        rows = [[rng.randrange(10**2999, 10**3000) for _ in range(2)] for _ in range(2)]
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        f = tmp_path / "long.txt"
        f.write_text("\n".join(" ".join(map(decimal_text, r)) for r in rows) + "\n")
        for method in ("auto", "bareiss", "cofactor"):
            assert run(capsys, "det", str(f), "--method", method) == (
                0, decimal_text(det) + "\n", ""
            )

    def test_integer_token_beyond_str_digit_limit(self, capsys, tmp_path):
        f = tmp_path / "long.txt"
        f.write_text("2 0\n0 " + "9" * 5000 + "\n")
        code, out, err = run(capsys, "det", str(f))
        assert (code, out, err) == (0, "1" + "9" * 4999 + "8\n", "")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("1_0_0_0 2\n3 4\n", 1, "bad integer token '1_0_0_0'"),
            ("١٢ 2\n3 4\n", 1, "bad integer token '١٢'"),
            ("1 2\n3 4_0\n", 2, "bad integer token '4_0'"),
            ("1_0.5 2.0\n3.0 4.0\n", 1, "bad real token '1_0.5'"),
            ("1.5 2.0\n3.0 ٤.0\n", 2, "bad real token '٤.0'"),
            ("1/2 2\n3 1_0/3\n", 2, "bad rational token '1_0/3'"),
            ("1/2 2\n3 1/٣\n", 2, "bad rational token '1/٣'"),
            ("1/2 1_0\n3 4\n", 1, "bad integer token '1_0'"),
            ("2 2\n1/2 2 3 ٤\n", 2, "bad integer token '٤'"),
        ],
    )
    @pytest.mark.parametrize("long", [False, True], ids=["short", "past-4300-digits"])
    def test_token_rule_does_not_depend_on_length(
        self, capsys, tmp_path, text, line, message, long
    ):
        # every token is ASCII with no "_": int() and float() accept both
        # "_" and non-ASCII digits, which printed 3994 for "1_0_0_0 2" over
        # "3 4", while the same forms past 4300 digits exited 2
        if long:
            bad = message.split("'")[1]
            longer = bad[0] + "0" * 5000 + bad[1:]
            text, message = text.replace(bad, longer), message.replace(bad, longer)
        f = tmp_path / "token.txt"
        f.write_text(text, encoding="utf-8")
        for method in ("auto", "bareiss"):
            code, out, err = run(capsys, "det", str(f), "--method", method)
            assert (code, out) == (2, "")
            assert err == f"error: {f}: line {line}: {message}\n"

    @pytest.mark.parametrize(
        "text, expected",
        [("1/2 2 # café\n3 4\n", "-4/1\n"), ("1 2  # ١٢\n3 4_9\n", None)],
    )
    def test_token_rule_reads_tokens_only(self, capsys, tmp_path, text, expected):
        # a comment may hold any text; a token may not
        f = tmp_path / "comment.txt"
        f.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "det", str(f))
        if expected is None:
            assert (code, out) == (2, "") and "line 2: bad integer token '4_9'" in err
        else:
            assert (code, out, err) == (0, expected, "")

    def test_undecodable_file_exit_2(self, capsys, tmp_path):
        # a Latin-1 byte is no UTF-8; it printed a UnicodeDecodeError
        # traceback and exited 1
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"1 2\n3 \xe9\n")
        assert run(capsys, "det", str(f)) == (
            2,
            "",
            f"error: {f}: 'utf-8' codec can't decode byte 0xe9 in position 6: "
            "invalid continuation byte\n",
        )

    def test_byte_order_mark_accepted(self, capsys, tmp_path):
        f = tmp_path / "bom.txt"
        f.write_bytes(b"\xef\xbb\xbf1 2\n3 4\n")
        assert run(capsys, "det", str(f)) == (0, "-2\n", "")

    def test_missing_file_exit_2(self, capsys):
        code, out, err = run(capsys, "det", "no-such-file.txt")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: 'no-such-file.txt'\n"

    def test_method_help_states_the_fallback_and_the_cofactor_cost(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["det", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert exc.value.code == 0
        assert "auto (the default) falls back to elimination where condense exits 4" in help_text
        assert "cofactor makes about 1.7 n! multiplications" in help_text

    @pytest.mark.parametrize("method", ["bareiss", "cofactor"])
    def test_oracle_methods_have_no_trace(self, capsys, method):
        assert run(capsys, "det", CLEAN4, "--trace", "--method", method) == (
            0,
            "-82\n",
            f"trace: not available for method {method}\n",
        )

    @pytest.mark.parametrize("method", ["auto", "condense", "bareiss", "cofactor"])
    def test_integer_token_in_a_real_file_keeps_no_sign(self, capsys, tmp_path, method):
        # "-0" is an integer token, promoted by float(int(t)) to +0.0; read
        # as float("-0") it would be -0.0, and the determinant would print -0.0
        f = tmp_path / "minus_zero.txt"
        f.write_text("-0 0.0\n0.0 1.0\n")
        assert run(capsys, "det", str(f), "--method", method) == (0, "0.0\n", "")

    def test_non_square_exit_3(self, capsys, tmp_path):
        f = tmp_path / "rect.txt"
        f.write_text("1 2 3\n4 5 6\n")
        code, _, err = run(capsys, "det", str(f))
        assert code == 3
        assert "not square" in err

    def test_two_token_first_line_is_a_row(self, capsys, tmp_path):
        # "1.0 2.0" fails int(), so it is read as a row, not an "n m" header
        f = tmp_path / "rect.txt"
        f.write_text("1.0 2.0\n3.0 4.0\n5.0 6.0\n")
        assert run(capsys, "det", str(f)) == (3, "", f"error: {f}: matrix is 3x2, not square\n")

    def test_strict_condense_fallback_exit_4(self, capsys, tmp_path):
        f = tmp_path / "zero.txt"
        f.write_text("0 0 0 0\n" * 4)
        code, _, err = run(capsys, "det", str(f), "--method", "condense")
        assert code == 4
        assert "gave up" in err

    def test_auto_falls_back_on_zero_matrix(self, capsys, tmp_path):
        f = tmp_path / "zero.txt"
        f.write_text("0 0 0 0\n" * 4)
        code, out, err = run(capsys, "det", str(f), "--method", "auto")
        assert code == 0
        assert out == "0\n"
        assert "bareiss" in err


# each file rotates, restarts and then condenses through additive repair
HOT_PATH_FILES = {
    "integer": (
        "1 2 1 -1 2 3\n1 2 1 0 0 -1\n3 -1 1 1 2 -1\n"
        "1 3 3 2 -1 0\n3 -1 -1 0 2 0\n1 3 2 3 3 3\n",
        "493",
    ),
    "rational": (
        "0 0 1 1 1\n1 1 -1 3/2 2/3\n1/3 1/2 0 3/2 -1/3\n0 3/2 1 -1/2 2\n2/3 3 1 1 -1/2\n",
        "101/24",
    ),
    "real": (
        "0.5 1.0 0.5 -0.5 1.0 1.5\n0.5 1.0 0.5 0.0 0.0 -0.5\n1.5 -0.5 0.5 0.5 1.0 -0.5\n"
        "0.5 1.5 1.5 1.0 -0.5 0.0\n1.5 -0.5 -0.5 0.0 1.0 0.0\n0.5 1.5 1.0 1.5 1.5 1.5\n",
        "7.703125",
    ),
}


def profiled_calls(codes, call):
    """``call()`` and the number of calls it made to Python functions whose
    code is in ``codes``, counted under a profiler hook."""
    made = []

    def counting(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            made.append(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(counting)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, len(made)


# every number scalar is made by an __init__ or by _Number._result
# (ApproxReal._result calls __init__); the rings hold bound methods, so the
# calls are counted by their code, not by patching the classes
SCALAR_MAKERS = {
    ring_module._Number._result.__func__.__code__,
    ring_module.ExactInteger.__init__.__code__,
    ring_module.ExactRational.__init__.__code__,
    ring_module.ApproxReal.__init__.__code__,
}


def scalars_built(capsys, *argv):
    """Run the CLI with ``argv``; return its (code, out) and the number of
    number scalars it built."""
    (code, out, _), made = profiled_calls(SCALAR_MAKERS, lambda: run(capsys, *argv))
    return (code, out), made


class TestNoWrapperOnTheHotPath:
    @pytest.mark.parametrize("ring", sorted(HOT_PATH_FILES))
    def test_det_wraps_only_the_result(self, capsys, monkeypatch, tmp_path, ring):
        # the repair logs its factors as ints: only the determinant is
        # wrapped, and the factors when the logs' operations are read after
        text, det = HOT_PATH_FILES[ring]
        path = tmp_path / f"{ring}.txt"
        path.write_text(text)
        logs = []
        mitigate = condense.mitigate_interior_zeros

        def logging_mitigation(a, exclude=()):
            out = mitigate(a, exclude=exclude)
            logs.append(out[1])
            return out

        monkeypatch.setattr(condense, "mitigate_interior_zeros", logging_mitigation)
        result, made = scalars_built(capsys, "det", str(path))
        monkeypatch.undo()
        assert result == (0, det + "\n")
        plans = [log.plan for log in logs]
        assert plans[0][0] == "rot" and plans[0] != ("rot", 0, 0) and plans[-1][0] == "add"
        factors = [op[3] for log in logs for op in log.operations if op[0].startswith("add")]
        assert factors
        assert made == 1

    @pytest.mark.parametrize("ring", sorted(HOT_PATH_FILES))
    def test_a_trace_is_printed_from_native_values(self, capsys, tmp_path, ring):
        # the trace prints every stage, the pre-division matrices and the
        # repair factors without building a scalar of its own
        text, det = HOT_PATH_FILES[ring]
        path = tmp_path / f"{ring}.txt"
        path.write_text(text)
        (code, out), untraced = scalars_built(capsys, "det", str(path))
        (traced_code, traced_out), traced = scalars_built(capsys, "det", str(path), "--trace")
        assert (code, traced_code) == (0, 0)
        assert traced_out.startswith(out) and "add_scaled_" in traced_out
        assert traced == untraced

    def test_a_singular_fallback_builds_only_its_zero(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("0 0 0 0\n" * 4)
        assert scalars_built(capsys, "det", str(path)) == ((0, "0\n"), 1)

    def test_format_scalar_still_refuses_a_native_value(self):
        with pytest.raises(TypeError):
            ring_module.format_scalar(5)


def rational_text(n, seed, nonzero):
    """A seeded n x n rational file of tokens p/q, |p| and q at most 9; with
    ``nonzero`` no numerator is 0."""
    rng = random.Random(seed)

    def numerator():
        return rng.choice((-1, 1)) * rng.randint(1, 9) if nonzero else rng.randint(-9, 9)

    rows = ([f"{numerator()}/{rng.randint(1, 9)}" for _ in range(n)] for _ in range(n))
    return "\n".join(" ".join(r) for r in rows) + "\n"


# (n, seed, nonzero): the plan the file condenses under, its determinant and
# the sha256 of its --trace and --method bareiss stdout, recorded when each
# entry was still parsed into a Fraction
FRACTION_FILES = {
    (8, 1, False): (
        ("rot", 3, 0),
        "3541633446195803407/34843029258240",
        "91a96d127f755715632827cfad124f6d57891102b023c059216bd93be6bd28cd",
        "8f97b43f12100acb548fac382c1845d8cf53f63a310e7760609cecbd500ad695",
    ),
    (12, 1, True): (
        ("rot", 0, 0),
        "5281430224371033931371931554656891/6969915949548109824000000",
        "aadcfc8de5d1a498274ea2de60c5d4c1fd8d67c92e69b5cd7dc19819aa85deca",
        "91d5b32e305ce0901345f828d63bf10ce29b86dff977e017786249579810420f",
    ),
}


class TestNoFractionPerEntry:
    def test_a_rational_det_builds_no_fraction_per_entry(self, capsys, monkeypatch, tmp_path):
        # the file is read straight into cleared integer rows, and the only
        # Fraction is the determinant's, whatever n is
        built, plans = [], []

        class CountingFraction(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return Fraction(*args)

        mitigate = condense.mitigate_interior_zeros

        def logging_mitigation(a, exclude=()):
            out = mitigate(a, exclude=exclude)
            plans.append(out[1].plan)
            return out

        counts = []
        for (n, seed, nonzero), (plan, det, _, _) in FRACTION_FILES.items():
            path = tmp_path / f"q{n}.txt"
            path.write_text(rational_text(n, seed, nonzero))
            built.clear()
            plans.clear()
            with monkeypatch.context() as m:
                # the rational ring decodes, and the scalars are built, there
                m.setattr(ring_module, "Fraction", CountingFraction)
                m.setattr(condense, "mitigate_interior_zeros", logging_mitigation)
                assert run(capsys, "det", str(path)) == (0, det + "\n", "")
            assert plans == [plan]
            counts.append(len(built))
        assert counts == [1, 1]

    @pytest.mark.parametrize("key", sorted(FRACTION_FILES))
    def test_trace_and_bareiss_print_the_same_bytes(self, capsys, tmp_path, key):
        _, _, trace_digest, bareiss_digest = FRACTION_FILES[key]
        path = tmp_path / "q.txt"
        path.write_text(rational_text(*key))
        runs = ((["--trace"], trace_digest), (["--method", "bareiss"], bareiss_digest))
        for flags, digest in runs:
            code, out, err = run(capsys, "det", str(path), *flags)
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBench:
    def test_table_shape_and_values(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "5..5", "--trials", "20", "--seed", "42")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2  # header + one size row
        row = lines[1].split()
        assert row[0] == "5"
        assert float(row[2]) == 74.0
        assert float(row[3]) == 205.0
        assert float(row[4]) <= 0.6

    def test_draws_are_judged_by_plan_without_building_swaps(self, capsys, monkeypatch):
        # a mitigation-free draw is told by its plan, ("rot", 0, 0), and no
        # restart; building a rotation's swap list only to see it empty cost
        # 41 _rotation_swaps calls here
        def no_swaps(*args):
            raise AssertionError("count_ratio built a rotation's swaps")

        monkeypatch.setattr(condense, "_rotation_swaps", no_swaps)
        code, out, _ = run(capsys, "bench", "--sizes", "5..5", "--trials", "20", "--seed", "42")
        assert code == 0
        assert out.strip().splitlines()[1].split()[2:] == ["74.0", "205.0", "0.3610", "22"]

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run(capsys, "bench", "--sizes", "3..5", "--trials", "4", "--seed", "9")
        _, second, _ = run(capsys, "bench", "--sizes", "3..5", "--trials", "4", "--seed", "9")
        assert first == second

    def test_ratio_monotone_over_sizes(self, capsys):
        _, out, _ = run(capsys, "bench", "--sizes", "3..6", "--trials", "2", "--seed", "5")
        ratios = [float(line.split()[4]) for line in out.strip().splitlines()[1:]]
        assert ratios == sorted(ratios, reverse=True)

    def test_n10_takes_the_cofactor_count_from_its_closed_form(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "bench", "--sizes", "10..10", "--trials", "2")
        assert time.perf_counter() - start < 2
        assert code == 0
        assert out.splitlines()[1].split() == "10  2  774.0  6235300.0  0.0001  95".split()

    def test_zero_trials_exit_2(self, capsys):
        assert run(capsys, "bench", "--trials", "0") == (2, "", "error: trials must be >= 1\n")

    def test_invalid_range_exit_2(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "2..5")
        assert code == 2
        assert "sizes" in err
        code, _, _ = run(capsys, "bench", "--sizes", "5..11")
        assert code == 2

    def test_malformed_range_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "abc"])
        assert exc.value.code == 2


class TestHuckel:
    def test_chain3_golden(self, capsys):
        code, out, err = run(
            capsys, "huckel", "--chain", "3", "--alpha", "-1.0", "--beta", "-0.5",
            "--show-poly",
        )
        assert code == 0
        assert "polynomial: x^3 - 2*x" in out
        assert "coefficients: 0 -2 0 1" in out
        assert "symbolic: (alpha-E)^3 - 2*(alpha-E)*beta^2" in out
        levels = [float(v) for v in out.strip().splitlines()[-3:]]
        assert levels[0] == pytest.approx(-1.0 - 0.5 * 2**0.5, abs=1e-10)
        assert levels[1] == pytest.approx(-1.0, abs=1e-10)
        assert levels[2] == pytest.approx(-1.0 + 0.5 * 2**0.5, abs=1e-10)
        assert err == ""  # physical signs: no warning

    def test_chain8_fallback_golden(self, capsys):
        code, out, err = run(
            capsys, "huckel", "--chain", "8", "--alpha", "-1.0", "--beta", "-0.5",
            "--show-poly",
        )
        assert (code, err) == (0, "")
        assert out == GOLDEN_CHAIN8

    @pytest.mark.parametrize("label", sorted(HUCKEL_GOLDEN))
    def test_show_poly_golden(self, capsys, tmp_path, label):
        # recorded before polynomials were packed as ints for condensation
        n, edges = HUCKEL_MOLECULES[label]
        if edges is None:
            source = ["--chain", str(n)]
        else:
            f = tmp_path / f"{label}.edges"
            f.write_text(f"atoms {n}\n" + "".join(f"edge {i} {j}\n" for i, j in edges))
            source = ["--edges", str(f)]
        argv = ["huckel", *source, "--alpha", "-1.0", "--beta", "-0.5", "--show-poly"]
        golden = HUCKEL_GOLDEN[label]
        assert run(capsys, *argv) == (golden["exit"], golden["stdout"], golden["stderr"])

    def test_chain1(self, capsys):
        code, out, _ = run(capsys, "huckel", "--chain", "1", "--alpha", "-2.5", "--beta", "-1.0")
        assert code == 0
        assert out.strip().splitlines()[-1] == "-2.5"

    def test_chain2_unphysical_signs_warn(self, capsys):
        code, out, err = run(capsys, "huckel", "--chain", "2", "--alpha", "0", "--beta", "1")
        assert code == 0
        levels = [float(v) for v in out.strip().splitlines()[-2:]]
        assert levels == pytest.approx([-1.0, 1.0], abs=1e-10)
        assert "warning" in err

    def test_edges_file(self, capsys):
        code, out, _ = run(capsys, "huckel", "--edges", ALLYL, "--alpha", "-1.0", "--beta", "-0.5")
        assert code == 0
        assert "polynomial: x^3 - 2*x" in out

    def test_beta_zero_exit_2(self, capsys):
        code, _, err = run(capsys, "huckel", "--chain", "2", "--alpha", "-1", "--beta", "0")
        assert code == 2
        assert "beta" in err

    def test_infinite_tol_exit_2(self, capsys):
        # --tol no longer affects the levels, but is still validated
        code, out, err = run(
            capsys, "huckel", "--chain", "3", "--alpha", "-1.0", "--beta", "-0.5",
            "--tol", "inf",
        )
        assert (code, out) == (2, "")
        assert "tol must be finite" in err

    @pytest.mark.parametrize(
        "option,value",
        [
            ("alpha", "nan"),
            ("alpha", "inf"),
            ("beta", "nan"),
            ("beta", "-inf"),
            ("tol", "nan"),
            ("tol", "inf"),
        ],
    )
    def test_non_finite_number_exit_2(self, capsys, option, value):
        values = {"alpha": "-1.0", "beta": "-0.5", "tol": "1e-10", option: value}
        argv = [f"--{k}={v}" for k, v in values.items()]
        code, out, err = run(capsys, "huckel", "--chain", "3", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {option} must be finite\n"

    def test_bad_edge_file_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.edges"
        f.write_text("atoms 2\nedge 1 9\n")
        code, _, err = run(capsys, "huckel", "--edges", str(f), "--alpha", "-1", "--beta", "-1")
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("atoms 3\nedge 1 2\nedge 2 2\n", "line 3: self-loop on atom 2"),
            ("atoms 3\nedge 1 2\natoms 1\n", "line 3: repeated atoms line"),
            # edge-file numbers keep the matrix token rule: int() read the
            # Arabic-Indic digit and the "_" and printed allyl and 10 atoms
            ("atoms 3\nedge 1 2\nedge \u0662 3\n", "line 3: bad edge indices ['\u0662', '3']"),
            ("atoms 1_0\n", "line 1: bad atom count '1_0'"),
            # errors of the whole file name no line
            ("atoms 0\n", "a pi system needs at least one atom"),
            ("# no atoms\n", "missing atoms line"),
        ],
    )
    def test_edge_file_errors_name_line_and_atom(self, capsys, tmp_path, text, message):
        f = tmp_path / "loop.edges"
        f.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "huckel", "--edges", str(f), "--alpha", "-1", "--beta", "-1")
        assert (code, out) == (2, "")
        assert err == f"error: {f}: {message}\n"

    def test_zero_chain_exit_2(self, capsys):
        code, out, err = run(capsys, "huckel", "--chain", "0", "--alpha", "-1.0", "--beta", "-0.5")
        assert (code, out, err) == (2, "", "error: chain length must be >= 1\n")

    def test_missing_edge_file_exit_2(self, capsys, tmp_path):
        f = tmp_path / "missing.edges"
        code, out, err = run(capsys, "huckel", "--edges", str(f), "--alpha", "-1.0", "--beta", "-0.5")
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{f}'\n"

    def test_undecodable_edge_file_exit_2(self, capsys, tmp_path):
        f = tmp_path / "latin1.edges"
        f.write_bytes(b"# \xe9thyl\natoms 2\nedge 1 2\n")
        assert run(capsys, "huckel", "--edges", str(f), "--alpha", "-1", "--beta", "-1") == (
            2,
            "",
            f"error: {f}: 'utf-8' codec can't decode byte 0xe9 in position 2: "
            "invalid continuation byte\n",
        )

    def test_edge_file_with_byte_order_mark(self, capsys, tmp_path):
        f = tmp_path / "bom.edges"
        f.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(ALLYL).read_bytes())
        levels = ["--alpha", "-1.0", "--beta", "-0.5"]
        expected = run(capsys, "huckel", "--edges", ALLYL, *levels)
        assert expected[0] == 0
        assert run(capsys, "huckel", "--edges", str(f), *levels) == expected

    def test_non_finite_level_exit_6(self, capsys):
        # finite alpha and beta whose levels overflow printed inf with exit 0
        code, out, err = run(
            capsys, "huckel", "--chain", "3", "--alpha", "1e308", "--beta=-1e308"
        )
        assert code == 6
        assert out.startswith("polynomial: x^3 - 2*x\n")
        assert "energy levels:" not in out
        assert err.endswith("error: an energy level is not finite as a double\n")

    def test_chain_and_edges_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["huckel", "--chain", "2", "--edges", "x", "--alpha", "-1", "--beta", "-1"])
        assert exc.value.code == 2

    def test_tol_no_longer_changes_the_levels(self, capsys):
        # --tol 1e-15 once exited 5 ("roots did not settle in 1000 sweeps")
        argv = ["huckel", "--chain", "3", "--alpha", "-1.0", "--beta", "-0.5"]
        default = run(capsys, *argv)
        assert default[0] == 0
        for tol in ("1e-15", "1e-300", "0.5"):
            assert run(capsys, *argv, "--tol", tol) == default

    @pytest.mark.parametrize("tol", ["0", "-1e-10"])
    def test_non_positive_tol_exit_2(self, capsys, tol):
        code, out, err = run(
            capsys, "huckel", "--chain", "3", "--alpha", "-1.0", "--beta", "-0.5", f"--tol={tol}"
        )
        assert (code, out, err) == (2, "", "error: tol must be positive\n")

    @pytest.mark.parametrize(
        "atoms, edges, levels",
        [
            # two ethylenes: x = -1 and 1, each twice
            (4, [(1, 2), (3, 4)], ["-1.5", "-1.5", "-0.5", "-0.5"]),
            # two allyls: x = -sqrt(2), 0 and sqrt(2), each twice
            (
                6,
                [(1, 2), (2, 3), (4, 5), (5, 6)],
                ["-1.7071067811865475"] * 2 + ["-1.0"] * 2 + ["-0.2928932188134524"] * 2,
            ),
            # four unbonded atoms: x = 0 four times
            (4, [], ["-1.0"] * 4),
        ],
        ids=["two-ethylenes", "two-allyls", "four-atoms"],
    )
    def test_disconnected_pi_systems(self, capsys, tmp_path, atoms, edges, levels):
        # Durand-Kerner printed 2 of the ethylenes' 4 levels, 4 of the allyls' 6
        # and four different values for the unbonded atoms, all with exit 0
        f = tmp_path / "parts.edges"
        f.write_text(f"atoms {atoms}\n" + "".join(f"edge {i} {j}\n" for i, j in edges))
        code, out, err = run(capsys, "huckel", "--edges", str(f), "--alpha", "-1.0", "--beta", "-0.5")
        assert (code, err) == (0, "")
        assert out.split("energy levels:\n")[1].split() == levels


class TestClosedStdout:
    """A reader that has gone ends the CLI with 141, the status a shell
    reports for a producer stopped by SIGPIPE, and an empty stderr."""

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["det", CLEAN4],
            ["det", CLEAN4, "--trace"],
            ["huckel", "--chain", "8", "--alpha", "-1.0", "--beta", "-0.5"],
        ],
        ids=["det", "det-trace", "huckel"],
    )
    def test_exit_141_without_traceback(self, argv, buffered):
        src = str(pathlib.Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        if buffered:
            env.pop("PYTHONUNBUFFERED", None)
        else:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "exactdet", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run(capsys, "det", CLEAN4) == (0, "-82\n", "")
    assert run(capsys, "det", RESTART4) == (0, "-163\n", "")
    assert built.count("exactdet") == 1


def outcome(capsys, call, argv):
    """Exit code (a SystemExit's too), stdout and stderr of ``call(argv)``."""
    try:
        code = call(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def full_parse(argv):
    """The reference path: the top-level parse of all of argv, then the command."""
    args = cli.build_parser().parse_args(argv)
    return getattr(cli, f"cmd_{args.command}")(args)


LEVELS = ["--alpha", "-1.0", "--beta", "-0.5"]


def argv_id(argv):
    """A test id that names the fixture files, not where the checkout is."""
    names = {CLEAN4: "CLEAN4", ALLYL: "ALLYL"}
    return " ".join(names.get(a, a) for a in argv) or "no-args"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--he"],
        ["det", "-h"],
        ["bench", "-h"],
        ["huckel", "-h"],
        ["Det", CLEAN4],
        ["nope"],
        ["--", "det", CLEAN4],
        ["det", "--", CLEAN4],
        ["det", CLEAN4, "--"],
        ["det", CLEAN4, "extra"],
        ["det", CLEAN4, "extra", "--x"],
        ["det", CLEAN4, "--method=cofactor"],
        ["det", CLEAN4, "--method", "nope"],
        ["det", CLEAN4, "--method"],
        ["det", CLEAN4, "--tr"],
        ["det", CLEAN4, "-1"],
        ["huckel", "--chain", "3", *LEVELS, "-1"],
        ["huckel", "--chain", "3", "--alpha=-1", "--beta=-0.5"],
        ["huckel", "--al", "-1", "--be", "-1", "--ch", "3"],
        ["huckel", "--chain", "3", "--edges", ALLYL, *LEVELS],
        ["huckel", "--chain", "3", "--alpha", "-1.0"],
        ["huckel", "--chain", "x", *LEVELS],
        ["huckel", "--chain", "3", "--alpha", "nan", "--beta", "-0.5"],
        ["bench", "--sizes", "bad"],
        ["bench", "--trials", "0"],
        ["bench", "extra"],
    ],
    ids=argv_id,
)
def test_command_parse_matches_the_full_parse(capsys, argv):
    # main hands argv[1:] straight to the command's subparser; exit code,
    # stdout and stderr are those of the top-level parse it skips
    expected = outcome(capsys, full_parse, list(argv))
    assert outcome(capsys, main, list(argv)) == expected


def test_argv_defaults_to_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["exactdet", "det", CLEAN4, "extra"])
    code, out, err = outcome(capsys, lambda argv: main(), None)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "exactdet: error: unrecognized arguments: extra"
    monkeypatch.setattr(sys, "argv", ["exactdet", "det", CLEAN4])
    assert outcome(capsys, lambda argv: main(), None) == (0, "-82\n", "")


class TestReader:
    """Both file commands read their input the same way: UTF-8 with an
    optional byte-order mark, lines broken at \\n, \\r\\n or a lone \\r."""

    COMMANDS = {
        "det": (["det"], b"1 2\n3 4\n", b"1 2\n3 \xe9\n", 6),
        "huckel": (["huckel", *LEVELS, "--edges"], b"atoms 3\nedge 1 2\nedge 2 3\n",
                   b"# \xe9thyl\natoms 2\nedge 1 2\n", 2),
    }

    def read(self, capsys, command, path):
        return run(capsys, *self.COMMANDS[command][0], str(path))

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize(
        "bom, newline", [(b"", b"\r\n"), (b"", b"\r"), (b"\xef\xbb\xbf", b"\r\n")],
        ids=["crlf", "cr", "bom-crlf"],
    )
    def test_line_breaks(self, capsys, tmp_path, command, bom, newline):
        text = self.COMMANDS[command][1]
        lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
        lf.write_bytes(text)
        other.write_bytes(bom + text.replace(b"\n", newline))
        expected = self.read(capsys, command, lf)
        assert (expected[0], expected[2]) == (0, "")
        assert self.read(capsys, command, other) == expected

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_undecodable_byte_after_a_byte_order_mark(self, capsys, tmp_path, command):
        # the position counts from the first byte after the mark
        _, _, text, position = self.COMMANDS[command]
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"\xef\xbb\xbf" + text)
        assert self.read(capsys, command, f) == (
            2,
            "",
            f"error: {f}: 'utf-8' codec can't decode byte 0xe9 in position {position}: "
            "invalid continuation byte\n",
        )

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_directory(self, capsys, tmp_path, command):
        assert self.read(capsys, command, tmp_path) == (
            2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        )
