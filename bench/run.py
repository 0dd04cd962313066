"""genairy benchmark: speed of answers that are right, checked against an oracle.

    python3 bench/run.py --workload quad-table --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` by worker processes (bench/child.py), never by this one.  The
workloads are in bench/workloads.py, the oracle in bench/oracle.py.
Load is one closed-loop client in one process, single-threaded.

--trace 0 (end-to-end metrics)
    setup_s          median over 11 fresh processes of: import genairy and
                     make the workload's first call (lazy builds included)
    peak_rss_mb      median peak RSS of those processes after 2 more requests
    goodput_pts_s    points within tol of the oracle per wall-clock second
    latency_p50_ms   median request latency
    latency_p90_ms   90th-percentile request latency
    ok_ratio         share of attempted points within tol (1 - fail_ratio)
    honest_ratio     share of returned points whose error is within their
                     own error_estimate (1 - dishonest_ratio)

--trace 1 (per-layer metrics)
    The first N requests of the stream run twice from a cold start, once
    plain and once with the span tracer of bench/spans.py installed; N is
    fixed per workload and --seconds, so counts repeat exactly for one
    seed.  Layer metrics come from the traced run, plus the scores of
    that run and the tracing overhead in goodput.  Spans are written to
    bench/out/.

Every time-based metric is scaled by the machine-speed factors of
bench/speed.py, measured in the same process: each request latency by
the kernel samples around it, run-wide times by the busy-time weighted
mean of those.  The measured values are printed too, on lines starting
with "measured".

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``failed`` counts points whose request crashed or gave
unparsable output; refused or inaccurate points are not failures of the
run but lower ok_ratio.  ``correct`` is false when anything failed or
the oracle could not vouch for its own values.  Oracle values are
cached per workload and seed in bench/.cache/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import speed
import workloads
from oracle import Oracle, OracleError
from score import score
from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 11
# requests per second of --seconds in each pass of the traced run, so
# that one pass takes a third to a half of --seconds at the seed commit
TRACE_RATE = {"quad-table": 3.0, "auto-mixed": 60.0, "riccati-chain": 150.0}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "goodput_pts_s": "pts/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "honest_ratio": "ratio",
}
PER_LAYER = {
    **LAYER_METRICS,
    "series.accept_ratio": "ratio",
    "score.fail_ratio": "ratio",
    "score.dishonest_ratio": "ratio",
    "trace.overhead_goodput_pts_s": "pts/s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def _child(cfg: dict, timeout: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(cfg)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {cfg['mode']} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _score(args, run: dict, oracle: Oracle):
    """Tally of a worker's records, its speed factor, scaled goodput and scaled latencies (s)."""
    reqs = list(itertools.islice(workloads.stream(args.workload, args.seed), len(run["records"])))
    tally = score(args.workload, reqs, run["records"], oracle)
    factors = speed.local_factors(run["starts"], run["calibration"], run["calibration_at"])
    latencies = [f * lat for f, lat in zip(factors, run["latencies"])]
    factor = math.fsum(latencies) / math.fsum(run["latencies"])
    return tally, factor, tally.ok / (run["elapsed"] * factor), latencies


def _end_to_end(args, oracle: Oracle):
    setups = [
        _child({"mode": "setup", "workload": args.workload, "seed": args.seed}, 60)
        for _ in range(SETUP_RUNS)
    ]
    run = _child(
        {"mode": "timed", "workload": args.workload, "seed": args.seed, "seconds": args.seconds},
        args.seconds + 90,
    )
    tally, factor, goodput, scaled = _score(args, run, oracle)
    latencies = [1e3 * lat for lat in scaled]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1] if len(latencies) > 1 else latencies[0]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * speed.factor(s["calibration"]) for s in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in setups),
        "goodput_pts_s": goodput,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90,
        "ok_ratio": 1.0 - tally.fail_ratio,
        "honest_ratio": 1.0 - tally.dishonest_ratio,
    }
    measured = {
        "speed_factor": factor,
        "goodput_pts_s": goodput * factor,
        "latency_p50_ms": 1e3 * statistics.median(run["latencies"]),
        "latency_p90_ms": 1e3 * statistics.quantiles(run["latencies"], n=10, method="inclusive")[-1]
        if len(run["latencies"]) > 1
        else 1e3 * run["latencies"][0],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    return tally, metrics, END_TO_END, measured


def _per_layer(args, oracle: Oracle):
    count = max(1, round(TRACE_RATE[args.workload] * args.seconds))
    cfg = {
        "mode": "fixed",
        "workload": args.workload,
        "seed": args.seed,
        "count": count,
        "limit_s": 2.0 * args.seconds,
        "trace": False,
    }
    plain = _child(cfg, 2.0 * args.seconds + 60)
    spans_path = BENCH / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
    traced = _child({**cfg, "trace": True, "spans_path": str(spans_path)}, 2.0 * args.seconds + 60)
    _, _, plain_goodput, _ = _score(args, plain, oracle)
    tally, factor, traced_goodput, _ = _score(args, traced, oracle)
    attempts = traced["series_attempts_in_cli"]
    layers = {
        name: value * factor if LAYER_METRICS[name] in ("s", "ms") else value
        for name, value in traced["layers"].items()
    }
    metrics = {
        **layers,
        "series.accept_ratio": tally.methods["series"] / attempts if attempts else 0.0,
        "score.fail_ratio": tally.fail_ratio,
        "score.dishonest_ratio": tally.dishonest_ratio,
        "trace.overhead_goodput_pts_s": plain_goodput - traced_goodput,
        "trace.overhead_ratio": (plain_goodput - traced_goodput) / plain_goodput if plain_goodput else 0.0,
    }
    return tally, metrics, PER_LAYER, {"speed_factor": factor}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through Python on SIGTERM, so subprocess.run kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "genairy" / "__init__.py").is_file():
        print(f"error: no genairy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    oracle = Oracle(BENCH / ".cache" / f"oracle-{args.workload}-{args.seed}.json")
    measure = _per_layer if args.trace else _end_to_end
    try:
        tally, metrics, units, measured = measure(args, oracle)
        correct = tally.failed == 0
    except (OracleError, BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        oracle.save()
    for problem in tally.problems[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    for name, value in measured.items():
        print(f"measured {name:31s} {value:>16.6g} {units.get(name, '')}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
