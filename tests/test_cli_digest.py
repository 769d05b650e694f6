"""The bytes of every output a refactor must keep, as digests.

``cli_digest.json`` maps each argv below to the sha256 of its stdout, stderr
and exit code, as ``test_cli_golden.outcome`` reads them in process.  The
inputs are made here, seeded, and written to a scratch directory the argvs
run from, so no path reaches the output:

* ``huckel --chain N`` for N = 1..30, and the cycles of 3..30 atoms as
  ``atoms``/``edge`` files, each plain and with ``--show-poly``;
* one ``det`` draw per ring kind and n = 3..12: small and +-10^6 integers,
  p/q rationals, reals at scale 1 and 1e-3, sparse and Hückel-like integer
  matrices, under every ``--method`` (cofactor up to n = 8), each plain,
  with ``--count-ops`` and with ``--trace``.

Every argv is well formed, so no argparse message, whose text differs
between Python versions, is pinned.  A byte-identical change leaves every
digest as it is; a change that moves output lists, in CHANGES.md, every
argv the failure prints.  ``python tests/test_cli_digest.py`` records the
file again from the code on the path.
"""

import hashlib
import json
import os
import pathlib
import random
import sys
import tempfile

from test_cli_golden import outcome

DIGEST = pathlib.Path(__file__).parent / "fixtures" / "cli_digest.json"
HUCKEL = "--alpha -6.6 --beta -2.7"
METHODS = ("auto", "condense", "bareiss", "cofactor")
FLAGS = ((), ("--count-ops",), ("--trace",))


def _integers(lo, hi):
    return lambda rng, n: [[str(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


def _rationals(rng, n):
    return [[f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(n)] for _ in range(n)]


def _reals(scale):
    return lambda rng, n: [[repr(rng.uniform(-scale, scale)) for _ in range(n)] for _ in range(n)]


def _sparse(rng, n):
    return [[str(rng.choice((0, 0, 0, 1, -1, 2))) for _ in range(n)] for _ in range(n)]


def _huckel_like(rng, n):
    """A chain's adjacency with one extra bond and small integer diagonal."""
    rows = [[0] * n for _ in range(n)]
    bonds = [(i, i + 1) for i in range(n - 1)] + [tuple(rng.sample(range(n), 2))]
    for i, j in bonds:
        rows[i][j] = rows[j][i] = 1
    for i in range(n):
        rows[i][i] = rng.choice((0, 0, 1, -1, 2))
    return [list(map(str, r)) for r in rows]


KINDS = {
    "int_small": _integers(-9, 9),
    "int_big": _integers(-10**6, 10**6),
    "rational": _rationals,
    "real_1": _reals(1.0),
    "real_1e-3": _reals(1e-3),
    "sparse": _sparse,
    "huckel_like": _huckel_like,
}


def inputs():
    """The name and text of every input file, seeded by its name."""
    for n in range(3, 31):
        edges = "".join(f"edge {i + 1} {(i + 1) % n + 1}\n" for i in range(n))
        yield f"cycle{n:02d}.edges", f"atoms {n}\n{edges}"
    for kind, draw in KINDS.items():
        for n in range(3, 13):
            name = f"{kind}_{n:02d}.txt"
            rows = draw(random.Random(name), n)
            yield name, "".join(" ".join(r) + "\n" for r in rows)


def cases():
    for show in ((), ("--show-poly",)):
        for n in range(1, 31):
            yield " ".join(["huckel", "--chain", str(n), HUCKEL, *show])
        for n in range(3, 31):
            yield " ".join(["huckel", "--edges", f"cycle{n:02d}.edges", HUCKEL, *show])
    for kind in KINDS:
        for n in range(3, 13):
            for method in METHODS:
                if method == "cofactor" and n > 8:
                    continue
                for flags in FLAGS:
                    yield " ".join(["det", f"{kind}_{n:02d}.txt", "--method", method, *flags])


def digests() -> dict:
    """Each case's sha256, run in a fresh directory holding ``inputs()``."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, text in inputs():
            pathlib.Path(work, name).write_text(text)
        os.chdir(work)
        try:
            return {argv: _sha256(outcome(argv)) for argv in cases()}
        finally:
            os.chdir(cwd)


def _sha256(out) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_every_output_is_unchanged():
    expected, got = json.loads(DIGEST.read_text()), digests()
    assert sorted(got) == sorted(expected)
    moved = [argv for argv in got if got[argv] != expected[argv]]
    assert not moved, "outputs moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    recorded = digests()
    DIGEST.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded)} cases in {DIGEST}", file=sys.stderr)
