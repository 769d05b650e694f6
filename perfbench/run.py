"""Seeded end-to-end benchmark of the exactdet CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the package under ``src``.
Each run:

1. checks the exact-count gate (paper op counts, golden fixtures, repeatable
   op counts) before any timing is read;
2. sets up several times (inputs from the seed, input files, imports in a
   fresh interpreter, reference answers by a second route) and reports the
   median as ``setup_s``;
3. starts one fresh worker process, a single closed-loop client that calls
   ``exactdet.cli.main(argv)`` in-process, pass after pass, for at least S
   seconds and until the workload's tail percentile has 10 samples beyond it;
4. checks every answer against its reference and prints each metric by name
   with its unit, then one JSON line: end-to-end metrics with ``--trace 0``,
   per-layer metrics from a traced run with ``--trace 1``.

The host's speed drifts by tens of percent within a minute, so the worker
times a fixed pure-Python kernel every 50 ms and end-to-end times are
reported at a reference speed (see ``worker.calibrate``); the wall-clock
figures are printed next to them.  Per-layer times are wall clock.

A request fails on a non-zero exit, a raised exception, or an answer that
disagrees with its reference.  Failures count against ``success_rate``;
``correct`` is false when a failure is not one of the workload's registered
known defects (see workloads.json).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"

SETUP_REPEATS = 3
RUN_CAP_S = 120  # hard stop for the measured loop
RUN_LIMIT_S = 175  # the whole run, set-up included, ends within 180 s

CLEAN4 = "4 2 0 -3\n1 1 2 2\n0 -1 3 -1\n1 2 5 1\n"
RESTART4 = "0 1 0 4\n-1 3 6 -3\n5 1 2 0\n-2 1 -1 1\n"

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "rss_imports_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "ring.mul_ns": "ns", "ring.exact_div_ns": "ns",
    "ring.ops_mults": "count", "ring.ops_divs": "count", "ring.ops_adds": "count",
    "ring.max_entry_bits": "bits", "ring.max_degree": "count",
    "matrix.parse_ms": "ms", "matrix.construct_us": "us", "matrix.trace_entries": "count",
    "condense.stages_ms": "ms", "condense.ns_per_op": "ns",
    "mitigate.first_scan_ms": "ms", "mitigate.plans_scanned": "count",
    "mitigate.restarts": "count", "mitigate.fallback_rate": "ratio",
    "mitigate.wasted_ms": "ms", "mitigate.success_ms": "ms",
    "oracle.bareiss_ms": "ms",
    "huckel.poly_ms": "ms", "huckel.roots_ms": "ms", "huckel.levels_ms": "ms",
    "huckel.condensation_share": "ratio", "huckel.noconvergence": "count",
    "cli.overhead_ms": "ms", "cli.process_ms": "ms",
    "trace.overhead": "ms",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def _child(args, timeout) -> dict:
    """Run a worker process to completion and return its last JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Gate


def gate(requests) -> list:
    """Exact counts and golden answers; raises BenchError on any mismatch."""
    from exactdet.cli import main as cli_main
    from exactdet.oracle import count_ratio

    notes = []
    r = count_ratio(5, 20, 42)
    if (r.condensation_ops, r.cofactor_ops) != (74.0, 205.0):
        raise BenchError(f"count_ratio(5, 20, 42) gave {r.condensation_ops} / {r.cofactor_ops}, not 74.0 / 205.0")
    notes.append(f"count_ratio(5, 20, 42): 74.0 / 205.0 ops, {r.regenerated} draws regenerated (README example shows 3)")

    WORKDIR.mkdir(parents=True, exist_ok=True)
    for name, text, want in (("clean4", CLEAN4, "-82"), ("restart4", RESTART4, "-163")):
        path = WORKDIR / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["det", str(path)])
        if code != 0 or out.getvalue().split() != [want]:
            raise BenchError(f"{name.upper()} gave exit {code}, output {out.getvalue()!r}, not {want}")
    notes.append("CLEAN4 -> -82, RESTART4 -> -163")

    det = [q for q in requests if q["argv"][0] == "det"]
    if det:
        smallest = min(det, key=lambda q: q["path"].stat().st_size)
        counts = set()
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                cli_main([*smallest["argv"], "--count-ops"])
            counts.add(" ".join(out.getvalue().splitlines()[1:]))
        if len(counts) != 1:
            raise BenchError(f"op counts differ between two runs on {smallest['label']}: {counts}")
        notes.append(f"op counts repeat on {smallest['label']}: {counts.pop()}")
    return notes


# ---------------------------------------------------------------------------
# Set-up


def setup(name, spec, seed):
    """Inputs, files, imports in a fresh interpreter, and references.

    Returns the requests, the imports-only child's report, and the wall and
    reference-speed set-up times in seconds.
    """
    import workloads
    from worker import calibrate

    before = calibrate()
    t0 = time.perf_counter()
    wdir = WORKDIR / name
    shutil.rmtree(wdir, ignore_errors=True)
    requests = workloads.build(name, spec, seed, wdir)
    imports = _child(["imports"], timeout=60)
    wall = time.perf_counter() - t0
    return requests, imports, wall, wall / ((before + calibrate()) / 2)


# ---------------------------------------------------------------------------
# Checking and metrics


def check_outcomes(spec, requests, outcomes):
    """(attempted, failed, breakdown by kind, unexpected failures)."""
    import workloads

    known = {(d["label"], d["kind"]) for d in spec["known_defects"]}
    attempted = failed = 0
    breakdown, unexpected = {}, {}
    for req in requests:
        label = req["label"]
        for code, error, out, _err, n in outcomes[label]:
            attempted += n
            kind = workloads.check(req["ref"], code, out, error)
            if kind is None:
                continue
            failed += n
            breakdown[kind] = breakdown.get(kind, 0) + n
            if not any(label.startswith(k) and kind == want for k, want in known):
                unexpected[f"{label}:{kind}"] = n
    return attempted, failed, breakdown, unexpected


def latency_metrics(latencies_ns, pass_ns, n_req, percentile):
    """Throughput over the passes, median latency, and the tail: the
    nearest-rank ``percentile`` with the number of samples beyond it."""
    ordered = sorted(ns / 1e6 for ns in latencies_ns)
    rank = math.ceil(percentile / 100 * len(ordered))
    return {
        "throughput_rps": n_req * len(pass_ns) / (sum(pass_ns) / 1e9),
        "latency_p50_ms": statistics.median(ordered),
        "latency_tail_ms": ordered[rank - 1],
    }, len(ordered) - rank


def min_samples(percentile) -> int:
    return math.ceil(10 / (1 - percentile / 100))


def process_ms(requests) -> float:
    """Median wall time of three ``python -m exactdet`` runs of the cheapest request."""
    req = min(requests, key=lambda q: q["path"].stat().st_size)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "exactdet", *req["argv"]], cwd=ROOT, env=_env(),
            capture_output=True, timeout=60,
        )
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "exactdet" / "__init__.py").is_file():
        print(f"error: no exactdet package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    specs = workloads.load_spec()
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(specs)}", file=sys.stderr)
        return 2
    spec = specs[args.workload]
    run_start = time.perf_counter()
    try:
        setups = [setup(args.workload, spec, args.seed) for _ in range(SETUP_REPEATS)]
        requests, imports = setups[-1][:2]
        notes = gate(requests)
        pct = spec["tail_percentile"]
        job = {
            "requests": [{"label": q["label"], "argv": q["argv"]} for q in requests],
            "seconds": args.seconds,
            "min_samples": min_samples(pct),
            "max_seconds": RUN_CAP_S,
            "trace": bool(args.trace),
            "seed": args.seed,
            "spans_path": str(WORKDIR / f"spans_{args.workload}.jsonl"),
        }
        job_path = WORKDIR / f"job_{args.workload}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        remaining = RUN_LIMIT_S - (time.perf_counter() - run_start)
        result = _child([str(job_path)], timeout=remaining)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    attempted, failed, breakdown, unexpected = check_outcomes(spec, requests, result["outcomes"])
    n_req = len(requests)
    untraced = [(wall, scaled) for wall, scaled, traced in result["pass_ns"] if not traced]
    n_samples = len(result["latencies_ns"])

    for note in notes:
        print(f"gate: {note}")
    print(f"workload {args.workload}: seed {args.seed}, {n_req} requests per pass, "
          f"{len(untraced)} untraced passes, {n_samples} samples")
    print(f"  error_rate {failed / attempted:.6f} ratio ({failed} of {attempted}); by kind: {breakdown or 'none'}")
    slow = result["slowdowns"]
    print(f"  host slowdown against the reference speed: median {statistics.median(slow):.3f}, "
          f"range {min(slow):.3f}-{max(slow):.3f} over {len(slow)} calibrations")
    if args.trace:
        metrics = dict(result["per_layer"])
        metrics["cli.process_ms"] = process_ms(requests)
        for layer, ms in metrics.pop("self_ms_per_pass").items():
            print(f"  self time {layer:<36} {ms:12.3f} ms per pass (wall clock)")
        units = PER_LAYER_UNITS
    else:
        metrics, beyond = latency_metrics(
            result["scaled_ns"], [p[1] for p in untraced], n_req, pct)
        wall, _ = latency_metrics(
            result["latencies_ns"], [p[0] for p in untraced], n_req, pct)
        metrics.update({
            "success_rate": 1 - failed / attempted,
            "peak_rss_mb": result["peak_rss_mb"],
            "rss_imports_mb": imports["rss_mb"],
            "setup_s": statistics.median(s[3] for s in setups),
        })
        wall["setup_s"] = statistics.median(s[2] for s in setups)
        units = END_TO_END_UNITS
        print(f"  latency_tail_ms is p{pct} over {n_samples} samples, {beyond} beyond it")
        print(f"  peak_rss_mb {result['peak_rss_mb']:.1f} MB next to rss_imports_mb {imports['rss_mb']:.1f} MB "
              "(an interpreter that only imported the CLI)")
        print("  wall clock: " + ", ".join(f"{k} {v:.6f}" for k, v in wall.items()))
        print("  times below are at the reference speed")
    if unexpected:
        print(f"  UNEXPECTED failures (not registered known defects): {unexpected}")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:16.6f} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
