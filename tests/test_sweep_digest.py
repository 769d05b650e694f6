"""Byte-for-byte guard for refactors of the condensation engine.

A seeded sweep over all four rings and the Hückel chains 3-10 goes through
``condensation_det``.  For each case the determinant, the rendered trace,
the mitigation log, the restarts, the op counts and the division warning
(or the ``FallbackRequired`` message) are hashed together, so a change to any
output of any case changes the digest.  ``EXPECTED`` was last re-recorded
when sparse inputs of 10 or more rows that no rotation clears stopped
trying additive repair: of all 293 cases, only chain 10's fallback message
changed, and no case moved between condensation and ``FallbackRequired``.
"""

import hashlib
import random

from exactdet.condense import (
    FallbackRequired,
    condensation_det,
    render_trace,
    replay_log,
)
from exactdet.huckel import PiSystem, secular_matrix
from exactdet.matrix import Matrix, int_matrix
from exactdet.ring import ApproxReal, ExactRational, Polynomial

SEED = 2026
# 0.0 is an interior zero; 1e-7 is nonzero but trips the division warning
REALS = (0.0, 1e-7, 1.0, -1.0, 0.5, 2.5, -3.0)
EXPECTED = "e6f034481135322896cc70e16b0cc2d4e6f759f5e4f963433af13becbf820c62"


def square(n, entry):
    return Matrix([[entry() for _ in range(n)] for _ in range(n)])


def sweep_cases(rng):
    for n in range(1, 8):
        for _ in range(25):
            yield int_matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
    for n in range(2, 6):
        for _ in range(10):
            yield square(n, lambda: ExactRational(rng.randint(-4, 4), rng.randint(1, 3)))
            yield square(n, lambda: ApproxReal(rng.choice(REALS)))
    for n in range(2, 5):
        for _ in range(10):
            yield square(
                n, lambda: Polynomial([rng.randint(-2, 2) for _ in range(rng.randint(0, 2))])
            )
    for k in range(3, 11):
        yield secular_matrix(PiSystem.chain(k))


def case_record(m) -> str:
    try:
        det, trace = condensation_det(m)
    except FallbackRequired as e:
        return f"fallback: {e}"
    return "\n".join([
        repr(det),
        render_trace(trace),
        repr(trace.mitigation),
        repr(trace.restarts),
        repr(trace.ops),
        repr(trace.division_warning),
    ])


def sweep_digest() -> str:
    h = hashlib.sha256()
    for m in sweep_cases(random.Random(SEED)):
        h.update(case_record(m).encode())
        h.update(b"\0")
    return h.hexdigest()


def test_seeded_sweep_digest():
    assert sweep_digest() == EXPECTED


def test_seeded_sweep_replay_agrees():
    condensed = with_ops = with_additions = 0
    for m in sweep_cases(random.Random(SEED)):
        try:
            _, trace = condensation_det(m)
        except FallbackRequired:
            continue
        ops = trace.mitigation.operations
        assert replay_log(m, trace.mitigation) == trace.stages[0]
        condensed += 1
        with_ops += bool(ops)
        with_additions += any(op[0].startswith("add") for op in ops)
    # the sweep reaches every kind of log: empty, swaps only, and additions
    assert (condensed, with_ops, with_additions) == (264, 104, 38)
