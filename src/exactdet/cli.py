"""Command-line front end.

Subcommands:

* ``det <file>``    -- determinant of a matrix file, with method selection,
  trace dump and operation counting;
* ``bench``         -- condensation vs. cofactor operation-count table over
  seeded random integer matrices;
* ``huckel``        -- pi-system energy levels from a chain length or an
  edge file.

Input files are read as UTF-8, with an optional byte-order mark.

Exit codes: 0 success, 2 parse/argument error (an undecodable input file
too), 3 non-square matrix, 4 condensation gave up under --method condense,
6 a real determinant or a Hückel energy level is not finite as a double
(inf or nan), 141 the reader of stdout has gone, the status a shell reports
for a producer stopped by SIGPIPE.  Code 5, once a root-finding failure, is
no longer used: the energy levels are exact up to their final rounding.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .condense import FallbackRequired, OpCount, condensation_det, render_trace
from .huckel import PiSystem, energy_levels, secular_polynomial, symbolic_form
from .matrix import ParseError, parse_matrix
from .oracle import bareiss_det, cofactor_det, count_ratio, elimination_det
from .ring import ApproxReal, _frac_str, format_scalar

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_SQUARE = 3
EXIT_FALLBACK = 4
EXIT_NOT_FINITE = 6
EXIT_BROKEN_PIPE = 141


def _sizes(text: str):
    a, sep, b = text.partition("..")
    if not sep:
        b = a
    try:
        lo, hi = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size range {text!r}")
    return lo, hi


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged.

    ``parser.commands`` maps each command name to its subparser.
    """
    parser = argparse.ArgumentParser(
        prog="exactdet",
        description="Exact determinants by condensation, with oracles and a Hückel solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_det = sub.add_parser("det", help="determinant of a matrix file")
    p_det.add_argument("file", help="matrix file (see README for the format)")
    p_det.add_argument(
        "--method",
        choices=["condense", "cofactor", "bareiss", "auto"],
        default="auto",
        help="auto (the default) falls back to elimination where condense exits 4; "
        "cofactor makes about 1.7 n! multiplications: seconds at n=10, minutes from n=12",
    )
    p_det.add_argument("--trace", action="store_true", help="print the condensation trace")
    p_det.add_argument("--count-ops", action="store_true", help="print operation tallies")

    p_bench = sub.add_parser("bench", help="operation-count comparison table")
    p_bench.add_argument("--sizes", type=_sizes, default=(3, 6), metavar="A..B")
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)

    p_h = sub.add_parser("huckel", help="pi-system energy levels")
    group = p_h.add_mutually_exclusive_group(required=True)
    group.add_argument("--chain", type=int, metavar="N", help="linear chain of N atoms")
    group.add_argument("--edges", metavar="FILE", help="edge file (atoms/edge lines)")
    p_h.add_argument("--alpha", type=float, required=True)
    p_h.add_argument("--beta", type=float, required=True)
    p_h.add_argument("--show-poly", action="store_true", help="print the symbolic form")
    p_h.add_argument(
        "--tol",
        type=float,
        default=1e-10,
        help="still accepted, and must be finite and positive, but no longer affects "
        "the levels: each is alpha - beta*x at the double nearest the exact root x",
    )
    parser.commands = sub.choices
    return parser


def _read(path, parse):
    """``parse`` of the file's UTF-8 text (BOM allowed); None once an error is printed.

    The bytes are decoded once, with no newline translation: both parsers
    split lines with ``str.splitlines``, which breaks at ``\\r\\n`` and at a
    lone ``\\r`` as universal newlines do.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            return parse(fh.read().decode("utf-8-sig"))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
    except (ParseError, UnicodeDecodeError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
    return None


def cmd_det(args) -> int:
    matrix = _read(args.file, parse_matrix)  # looked up per call: a rebinding sees every parse
    if matrix is None:
        return EXIT_PARSE
    if not matrix.is_square:
        print(
            f"error: {args.file}: matrix is {matrix.n_rows}x{matrix.n_cols}, not square",
            file=sys.stderr,
        )
        return EXIT_NOT_SQUARE

    trace = None
    ops = OpCount()
    if args.method in ("condense", "auto"):
        try:
            det, trace = condensation_det(matrix)
            ops = trace.ops
        except FallbackRequired as e:
            if args.method == "condense":
                print(f"error: condensation gave up: {e}", file=sys.stderr)
                return EXIT_FALLBACK
            det = elimination_det(matrix, ops)
            print("method: bareiss (condensation fallback)", file=sys.stderr)
    elif args.method == "cofactor":
        det = cofactor_det(matrix, ops)
    else:
        det = bareiss_det(matrix, ops)

    if isinstance(det, ApproxReal) and not math.isfinite(det.value):
        print(f"error: {args.file}: the determinant is not finite as a double", file=sys.stderr)
        return EXIT_NOT_FINITE
    print(format_scalar(det))
    if trace is not None and trace.division_warning:
        print("warning: a division used a divisor close to the zero tolerance", file=sys.stderr)
    if args.trace:
        if trace is not None:
            print(render_trace(trace), end="")
        else:
            print(f"trace: not available for method {args.method}", file=sys.stderr)
    if args.count_ops:
        print(f"mults: {ops.mults}")
        print(f"divs: {ops.divs}")
        print(f"adds: {ops.adds}")
    return EXIT_OK


def cmd_bench(args) -> int:
    lo, hi = args.sizes
    if not (3 <= lo <= hi <= 10):
        print(f"error: sizes must lie in 3..10, got {lo}..{hi}", file=sys.stderr)
        return EXIT_PARSE
    if args.trials < 1:
        print("error: trials must be >= 1", file=sys.stderr)
        return EXIT_PARSE
    header = (
        f"{'n':>3} {'trials':>7} {'condense_ops':>13} "
        f"{'cofactor_ops':>13} {'ratio':>8} {'regen':>6}"
    )
    print(header)
    for n in range(lo, hi + 1):
        r = count_ratio(n, args.trials, args.seed)
        print(
            f"{r.n:>3} {r.trials:>7} {r.condensation_ops:>13.1f} "
            f"{r.cofactor_ops:>13.1f} {r.ratio:>8.4f} {r.regenerated:>6}"
        )
    return EXIT_OK


def cmd_huckel(args) -> int:
    for name in ("alpha", "beta", "tol"):
        if not math.isfinite(getattr(args, name)):
            print(f"error: {name} must be finite", file=sys.stderr)
            return EXIT_PARSE
    if args.beta == 0.0:
        print("error: beta must be nonzero", file=sys.stderr)
        return EXIT_PARSE
    if args.tol <= 0:
        print("error: tol must be positive", file=sys.stderr)
        return EXIT_PARSE
    if args.chain is not None:
        if args.chain < 1:
            print("error: chain length must be >= 1", file=sys.stderr)
            return EXIT_PARSE
        system = PiSystem.chain(args.chain)
    else:
        system = _read(args.edges, PiSystem.from_text)
        if system is None:
            return EXIT_PARSE

    if args.alpha >= 0 or args.beta >= 0:
        print(
            "warning: alpha and beta are physically negative; proceeding anyway",
            file=sys.stderr,
        )
    sp = secular_polynomial(system)
    print(f"polynomial: {sp.coeffs}")
    coeff_list = list(sp.coeffs.coeffs)
    print("coefficients:", " ".join(_frac_str(c) for c in coeff_list))
    print(f"method: {sp.method}")
    if args.show_poly:
        print(f"symbolic: {symbolic_form(sp)}")
    levels = energy_levels(sp, args.alpha, args.beta)
    if not all(map(math.isfinite, levels)):
        print("error: an energy level is not finite as a double", file=sys.stderr)
        return EXIT_NOT_FINITE
    print("energy levels:")
    for e in levels:
        print(repr(e))
    return EXIT_OK


def main(argv=None) -> int:
    """Run the command argv names; argv defaults to ``sys.argv[1:]``.

    When argv[0] names a command, that command's subparser reads the rest
    and any leftover argument is reported as ``parse_args`` reports it.  The
    top-level pass it skips would only re-classify every argument (each
    negative number through the option-prefix search as well) before
    handing all of them to the same subparser.  Any other argv, empty, a
    help flag, an unknown command or a leading ``--``, takes the full parse.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    subparser = parser.commands.get(argv[0]) if argv else None
    if subparser is None:
        args = parser.parse_args(argv)
    else:
        args, extras = subparser.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    command = {"det": cmd_det, "bench": cmd_bench, "huckel": cmd_huckel}[args.command]
    try:
        status = command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
