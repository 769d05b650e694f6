"""Spans around the calls into each exactdet module, and the per-layer
numbers derived from them.

The program is not changed: ``Tracer.install`` rebinds the module-level
names the library calls through (``cli.condensation_det``,
``condense.mitigate_interior_zeros``, ...) to wrappers defined here, and
``uninstall`` restores them.  A name that a later version of the program no
longer has is skipped, and the layers behind it then report 0.

A span is ``[name, start_ns, end_ns, parent, request, outcome]``, kept in
memory; ``write_spans`` writes them out at the end of the run, and
``self_ns`` derives each layer's self time from them.  A wrapper
only records a span and keeps references to the call's arguments and
result; everything derived from them (op counts, trace sizes, sampled
operand pairs) is computed in ``end_request``, outside the timed call.
"""

from __future__ import annotations

import json
import random
import time
from collections import defaultdict

import exactdet.cli as cli
import exactdet.condense as condense
import exactdet.huckel as huckel
from exactdet.condense import OpCount, condense_step, replay_log
from exactdet.matrix import Matrix
from exactdet.ring import ExactInteger, ExactRational, Polynomial

from workloads import plan_order

# (module, attribute, span name)
PATCH_POINTS = [
    (cli, "parse_matrix", "matrix.parse_matrix"),
    (cli, "condensation_det", "condense.condensation_det"),
    (huckel, "condensation_det", "condense.condensation_det"),
    (condense, "mitigate_interior_zeros", "condense.mitigate_interior_zeros"),
    (cli, "bareiss_det", "oracle.bareiss_det"),
    (huckel, "bareiss_det", "oracle.bareiss_det"),
    (cli, "secular_polynomial", "huckel.secular_polynomial"),
    (huckel, "secular_polynomial", "huckel.secular_polynomial"),
    (huckel, "durand_kerner", "huckel.durand_kerner"),
    (cli, "energy_levels", "huckel.energy_levels"),
]

PAIRS_PER_TRACE = 16
TIMING_FLOOR_NS = 20_000_000

COUNT_KEYS = (
    "ring.ops_mults", "ring.ops_divs", "ring.ops_adds", "matrix.trace_entries",
    "mitigate.plans_scanned", "mitigate.restarts", "huckel.noconvergence",
)


def _entry_bits(v) -> int:
    if isinstance(v, ExactInteger):
        return abs(v.value).bit_length()
    if isinstance(v, ExactRational):
        return max(abs(v.value.numerator).bit_length(), v.value.denominator.bit_length())
    if isinstance(v, Polynomial):
        return max(
            (max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in v.coeffs),
            default=0,
        )
    return 0


def _plans_walked(n, exclude, plan) -> int:
    """Position of ``plan`` in the documented order; for a failed scan, the
    position where it stopped (the first add plan not excluded, else the end)."""
    order = list(plan_order(n))
    if plan is not None:
        return order.index(plan) + 1
    excluded = set(exclude)
    return next(
        (k + 1 for k, p in enumerate(order) if p[0] == "add" and p not in excluded),
        len(order),
    )


class Tracer:
    def __init__(self, seed: int):
        self.spans = []
        self._stack = []
        self._calls = []  # (span index, args, kwargs, result) of the open request
        self._saved = []
        self.request = None
        self.rng = random.Random(seed)
        self.counts = defaultdict(int)
        self.durations = defaultdict(list)
        self.first_scan_ns = []
        self.condense_ns = {"ok": [], "fallback": []}
        self.max_bits = 0
        self.max_degree = 0
        self.mul_pairs = []
        self.div_pairs = []
        self.replays = {}  # request -> (input matrix, mitigation log, determinant)
        self.parsed = {}  # request -> parsed input matrix

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self._calls

        def wrapper(*args, **kwargs):
            if name == "oracle.bareiss_det" and len(args) < 2 and kwargs.get("ops") is None:
                kwargs["ops"] = OpCount()  # so the tally can be read back
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), None, stack[-1] if stack else None, self.request, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                spans[idx][2] = time.perf_counter_ns()
                spans[idx][5] = type(e).__name__
                stack.pop()
                calls.append((idx, args, kwargs, None))
                raise
            spans[idx][2] = time.perf_counter_ns()
            stack.pop()
            calls.append((idx, args, kwargs, result))
            return result

        return wrapper

    def install(self):
        for module, attr, name in PATCH_POINTS:
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def begin_request(self, request: str) -> int:
        self.request = request
        idx = len(self.spans)
        self.spans.append(["cli.main", time.perf_counter_ns(), None, None, request, None])
        self._stack.append(idx)
        return idx

    def end_request(self, idx: int, outcome) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[5] = outcome
        self.durations["cli.main"].append(span[2] - span[1])
        self._stack.pop()
        scans = defaultdict(list)  # condensation span -> its mitigation spans
        for sidx, args, kwargs, result in self._calls:
            span = self.spans[sidx]
            name, dur = span[0], span[2] - span[1]
            self.durations[name].append(dur)
            if name == "condense.condensation_det":
                self._condensation(span, args, result, dur)
            elif name == "condense.mitigate_interior_zeros":
                # ``exclude`` may have grown since the call, but only a scan
                # that succeeded is followed by a restart, and its position
                # comes from the accepted plan alone.
                a = args[0]
                exclude = kwargs.get("exclude", args[1] if len(args) > 1 else ())
                plan = result[1].plan if result is not None else None
                self.counts["mitigate.plans_scanned"] += _plans_walked(a.n_rows, exclude, plan)
                scans[span[3]].append(dur)
            elif name == "oracle.bareiss_det":
                ops = kwargs.get("ops", args[1] if len(args) > 1 else None)
                self._add_ops(ops)
            elif name == "matrix.parse_matrix" and result is not None:
                self.parsed.setdefault(self.request, result)
            elif name == "huckel.energy_levels" and span[5] == "NoConvergence":
                self.counts["huckel.noconvergence"] += 1
        for durs in scans.values():
            self.first_scan_ns.append(durs[0])
            self.counts["mitigate.restarts"] += len(durs) - 1
        self._calls.clear()
        self.request = None

    def _add_ops(self, ops):
        if ops is not None:
            self.counts["ring.ops_mults"] += ops.mults
            self.counts["ring.ops_divs"] += ops.divs
            self.counts["ring.ops_adds"] += ops.adds

    def _condensation(self, span, args, result, dur):
        self.counts["condense.calls"] += 1
        if result is None:
            if span[5] == "FallbackRequired":
                self.counts["condense.fallbacks"] += 1
                self.condense_ns["fallback"].append(dur)
            return
        self.condense_ns["ok"].append(dur)
        value, trace = result
        self._add_ops(trace.ops)
        mats = trace.stages + trace.starred
        self.counts["matrix.trace_entries"] += sum(m.n_rows * m.n_cols for m in mats)
        for m in mats:
            for row in m.rows():
                for v in row:
                    b = _entry_bits(v)
                    if b > self.max_bits:
                        self.max_bits = b
                    if isinstance(v, Polynomial) and v.degree > self.max_degree:
                        self.max_degree = v.degree
        stages, rng = trace.stages, self.rng
        if len(stages) >= 2:
            for _ in range(PAIRS_PER_TRACE):
                s = stages[rng.randrange(len(stages) - 1)]
                i, j = rng.randrange(s.n_rows - 1), rng.randrange(s.n_cols - 1)
                self.mul_pairs.append((s[i, j], s[i + 1, j + 1]))
        if len(stages) >= 3:
            for _ in range(PAIRS_PER_TRACE):
                k = rng.randrange(2, len(stages))
                star = trace.starred[k - 2]
                i, j = rng.randrange(star.n_rows), rng.randrange(star.n_cols)
                self.div_pairs.append((star[i, j], stages[k - 2][i + 1, j + 1]))
        self.replays.setdefault(self.request, (args[0], trace.mitigation, value))

    def pass_counts(self) -> dict:
        """Exact counts accumulated since the last call, then reset."""
        out = {k: self.counts[k] for k in COUNT_KEYS}
        for k in COUNT_KEYS:
            self.counts[k] = 0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, outcome in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "request": request, "outcome": outcome,
                }) + "\n")

    # -- derived numbers -------------------------------------------------

    def self_ns(self) -> dict:
        """Total self time per span name: duration minus child-covered time."""
        child = defaultdict(int)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = defaultdict(int)
        for idx, (name, start, end, _, _, _) in enumerate(self.spans):
            total[name] += end - start - child[idx]
        return dict(total)

    def micro(self) -> dict:
        """Layer timings measured directly on the workload's own operands."""
        out = {
            "ring.mul_ns": _ns_per_call(lambda a, b: a * b, self.mul_pairs),
            "ring.exact_div_ns": _ns_per_call(lambda a, b: a.exact_div(b), self.div_pairs),
        }
        mats = list(self.parsed.values())
        out["matrix.construct_us"] = (
            _ns_per_call(lambda rows, _: Matrix(rows), [(m.rows(), None) for m in mats]) / 1e3
        )
        total_ns = total_ops = 0
        for a, log, value in self.replays.values():
            ops = OpCount()
            t0 = time.perf_counter_ns()
            stages = [replay_log(a, log)]
            for k in range(1, a.n_rows):
                divisor = stages[k - 2].interior() if k >= 2 else None
                stages.append(condense_step(stages[k - 1], divisor, ops))
            total_ns += time.perf_counter_ns() - t0
            total_ops += ops.mults + ops.divs + ops.adds
            det = stages[-1][0, 0]
            if (det if log.sign > 0 else -det) != value:
                raise RuntimeError("stage replay disagrees with condensation_det")
        out["condense.stages_ms"] = total_ns / len(self.replays) / 1e6 if self.replays else 0.0
        out["condense.ns_per_op"] = total_ns / total_ops if total_ops else 0.0
        return out


def _ns_per_call(fn, pairs) -> float:
    """Mean ns per call over ``pairs``, repeating the sweep for at least 20 ms."""
    if not pairs:
        return 0.0
    reps = 0
    start = time.perf_counter_ns()
    while True:
        for a, b in pairs:
            fn(a, b)
        reps += 1
        elapsed = time.perf_counter_ns() - start
        if elapsed >= TIMING_FLOOR_NS:
            return elapsed / (reps * len(pairs))
