"""The ``det`` command's bytes on every matrix fixture.

``cli_golden.json`` holds stdout, stderr and exit code of
``exactdet det <fixture> --method <m> [--trace] [--count-ops]`` for every
``tests/fixtures/*.txt``, each method and each flag combination (cofactor
skips ``sparse10.txt``, whose n! cost is minutes), run from the fixtures
directory so that no path but the fixture's name reaches the output.  A
refactor must leave every case unchanged.  ``python tests/test_cli_golden.py``
records the file again from the code on the path.
"""

import json
import os
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from exactdet.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
FLAGS = ((), ("--trace",), ("--count-ops",), ("--trace", "--count-ops"))


def cases():
    for path in sorted(FIXTURES.glob("*.txt")):
        for method in ("auto", "condense", "bareiss", "cofactor"):
            if method == "cofactor" and path.name == "sparse10.txt":
                continue
            for flags in FLAGS:
                yield " ".join(["det", path.name, "--method", method, *flags])


def outcome(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv.split())
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_every_case_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(cases())


@pytest.mark.parametrize("argv", list(cases()))
def test_det_output_is_unchanged(monkeypatch, argv):
    monkeypatch.chdir(FIXTURES)
    assert outcome(argv) == json.loads(GOLDEN.read_text())[argv]


if __name__ == "__main__":
    os.chdir(FIXTURES)
    golden = {argv: outcome(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1, ensure_ascii=False) + "\n")
    print(f"recorded {len(golden)} cases in {GOLDEN}", file=sys.stderr)
