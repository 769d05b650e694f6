"""One fresh process per measured run: a single closed-loop client.

    python3 perfbench/worker.py imports
        Import the CLI only; print the import time and peak RSS.
    python3 perfbench/worker.py JOB.json
        Send the job's requests one after another as in-process calls of
        ``exactdet.cli.main(argv)``, pass after pass, and print timings,
        outcomes, peak RSS and (for a traced job) per-layer numbers as one
        JSON line.

The checkout's ``src`` must be on PYTHONPATH; ``run.py`` arranges that.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time


def _peak_rss_mb() -> float:
    """Peak resident memory of this process.

    VmHWM belongs to the process's own address space.  ``ru_maxrss`` is the
    fallback only: Linux carries the spawning parent's peak across exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Reference speed: the calibration kernel takes 1 ms.  The host's speed
# drifts by tens of percent over seconds to minutes, and a pure-Python kernel
# run next to the requests slows down with it, so times are reported scaled
# to this reference speed; the raw wall-clock figures are reported as well.
CAL_REF_NS = 1_000_000
CAL_INTERVAL_NS = 50_000_000


def _kernel() -> int:
    """Fraction-free elimination on a fixed 20 x 20 integer matrix; needs no exactdet."""
    n, seed, rows = 20, 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            seed = (seed * 1103515245 + 12345) % 2147483648
            row.append(seed % 2001 - 1000)
        rows.append(row)
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[k][k] * rows[i][j] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return rows[-1][-1]


def calibrate() -> float:
    """Current slowdown against the reference speed (median of 5 kernel runs)."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        _kernel()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / CAL_REF_NS


def imports_only() -> dict:
    t0 = time.perf_counter()
    import exactdet.cli  # noqa: F401

    return {"import_s": time.perf_counter() - t0, "rss_mb": _peak_rss_mb()}


class Client:
    """Closed loop: the next request is sent only when the previous returned."""

    def __init__(self, requests, main):
        self.requests = requests
        self.main = main
        self.latencies = []  # wall ns, every request of every pass
        self.scaled = []  # the same at the reference speed
        self.slowdowns = []
        self.pass_ns = []  # (wall ns, scaled ns, traced) inside the requests of a pass
        self.outcomes = {r["label"]: {} for r in requests}
        self._pending = []  # requests still waiting for the next calibration
        self._slowdown = calibrate()
        self._calibrated_at = time.perf_counter_ns()

    def _recalibrate(self):
        slowdown = calibrate()
        factor = (self._slowdown + slowdown) / 2
        for i in self._pending:
            self.scaled[i] = self.latencies[i] / factor
        self._pending.clear()
        self.slowdowns.append(slowdown)
        self._slowdown = slowdown
        self._calibrated_at = time.perf_counter_ns()

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(argv)
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a crash is a failed request, not a harness error
                error = type(e).__name__
        return code, error, out.getvalue(), err.getvalue()

    def run_pass(self, tracer=None):
        first = len(self.latencies)
        for req in self.requests:
            if tracer is not None:
                span = tracer.begin_request(req["label"])
            t0 = time.perf_counter_ns()
            code, error, out, err = self.call(req["argv"])
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.end_request(span, error or code)
            self._pending.append(len(self.latencies))
            self.latencies.append(t1 - t0)
            self.scaled.append(None)
            key = json.dumps([code, error, out, err])
            seen = self.outcomes[req["label"]]
            seen[key] = seen.get(key, 0) + 1
            if time.perf_counter_ns() - self._calibrated_at >= CAL_INTERVAL_NS:
                self._recalibrate()
        self._recalibrate()
        # pass time counts the requests only; calibration and the tracer's
        # bookkeeping between requests stay outside
        self.pass_ns.append(
            (sum(self.latencies[first:]), sum(self.scaled[first:]), tracer is not None)
        )


def run_job(job: dict) -> dict:
    import exactdet.cli as cli

    client = Client(job["requests"], cli.main)
    deadline_ns = job["seconds"] * 1e9
    cap_ns = job["max_seconds"] * 1e9
    start = time.perf_counter_ns()
    result = {}
    if not job["trace"]:
        while True:
            client.run_pass()
            elapsed = time.perf_counter_ns() - start
            if elapsed >= cap_ns or (
                elapsed >= deadline_ns and len(client.latencies) >= job["min_samples"]
            ):
                break
    else:
        result["per_layer"] = traced_passes(client, job, start, deadline_ns, cap_ns)
    result.update(
        latencies_ns=client.latencies,
        scaled_ns=client.scaled,
        slowdowns=client.slowdowns,
        pass_ns=client.pass_ns,
        outcomes={k: [[*json.loads(o), n] for o, n in v.items()] for k, v in client.outcomes.items()},
        peak_rss_mb=_peak_rss_mb(),
    )
    return result


def traced_passes(client, job, start, deadline_ns, cap_ns) -> dict:
    """Alternate untraced and traced passes; derive the per-layer numbers."""
    from tracing import Tracer

    tracer = Tracer(job["seed"])
    counts = []
    while True:
        client.run_pass()
        tracer.install()
        try:
            client.run_pass(tracer)
        finally:
            tracer.uninstall()
        counts.append(tracer.pass_counts())
        elapsed = time.perf_counter_ns() - start
        if elapsed >= deadline_ns or elapsed >= cap_ns:
            break
    if any(c != counts[0] for c in counts):
        raise RuntimeError(f"exact counts differ between traced passes: {counts}")
    tracer.write_spans(job["spans_path"])

    n_req = len(client.requests)
    untraced = [ns for _, ns, traced in client.pass_ns if not traced]
    traced = [ns for _, ns, traced in client.pass_ns if traced]
    passes = len(traced)
    durs = tracer.durations
    selfs = tracer.self_ns()

    def mean_ms(values):
        return statistics.fmean(values) / 1e6 if values else 0.0

    calls = tracer.counts["condense.calls"]
    # share of request time spent in condensation, on workloads that reach huckel
    share = (
        sum(durs["condense.condensation_det"]) / sum(durs["cli.main"])
        if durs["huckel.secular_polynomial"] else 0.0
    )
    metrics = {**counts[0], **tracer.micro()}
    metrics.update({
        "ring.max_entry_bits": tracer.max_bits,
        "ring.max_degree": tracer.max_degree,
        "matrix.parse_ms": mean_ms(durs["matrix.parse_matrix"]),
        "mitigate.first_scan_ms": mean_ms(tracer.first_scan_ns),
        "mitigate.fallback_rate": tracer.counts["condense.fallbacks"] / calls if calls else 0.0,
        "mitigate.wasted_ms": mean_ms(tracer.condense_ns["fallback"]),
        "mitigate.success_ms": mean_ms(tracer.condense_ns["ok"]),
        "oracle.bareiss_ms": mean_ms(durs["oracle.bareiss_det"]),
        "huckel.poly_ms": mean_ms(durs["huckel.secular_polynomial"]),
        "huckel.roots_ms": mean_ms(durs["huckel.durand_kerner"]),
        "huckel.levels_ms": mean_ms(durs["huckel.energy_levels"]),
        "huckel.condensation_share": share,
        "cli.overhead_ms": selfs.get("cli.main", 0) / (passes * n_req) / 1e6,
        "trace.overhead": (statistics.median(traced) - statistics.median(untraced)) / n_req / 1e6,
    })
    metrics["self_ms_per_pass"] = {k: v / passes / 1e6 for k, v in sorted(selfs.items())}
    return metrics


def main(argv) -> int:
    if argv == ["imports"]:
        print(json.dumps(imports_only()))
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    print(json.dumps(run_job(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
