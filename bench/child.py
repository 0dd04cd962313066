"""Worker process of the benchmark; the only process that imports genairy.

    python3 bench/child.py '{"mode": ..., "workload": ..., "seed": ...}'

Modes
    setup   time the import of genairy plus the first request of the
            workload, sample the calibration kernel, then run a few more
            requests and report peak RSS
    timed   warm up (one request per order, from a separate stream),
            then run the workload stream closed-loop for ``seconds``,
            sampling the calibration kernel of speed.py every PERIOD_S
    fixed   run the first ``count`` requests of the stream from a cold
            start, with the tracer installed when ``trace`` is true

The result is one JSON object on the last line of stdout, with one
record, start offset and latency per request, in stream order, and the
kernel samples with their offsets; run.py regenerates the requests from
the seed.  A record holds the raw output (CLI exit
code and stdout, or the Riccati residuals), which run.py scores against
the oracle.  Records hold only strings and numbers, and everything
loaded before the loop is frozen out of the garbage collector, so
collections during the loop scan what the library allocates rather
than the benchmark's own bookkeeping.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RSS_REQUESTS = 2
SETUP_SAMPLES = 10


def _load():
    sys.path.insert(0, str(SRC))
    import genairy

    if Path(genairy.__file__).resolve().parent != (SRC / "genairy").resolve():
        raise ImportError(f"genairy imported from {genairy.__file__}, not from {SRC}")
    from genairy import cli, diffpoly, series
    from genairy.common import ConvergenceError, DomainError

    refusals = (ConvergenceError, DomainError)

    def run_cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return {"rc": rc, "out": out.getvalue()}

    def run_riccati(req):
        n, x = req["n"], req["x"]
        try:
            tm = series.taylor_model(n)
            ujet = tuple(series.eval_derivative_series(tm, x, k).value for k in range(n + 1))
            yjet = diffpoly.log_derivative_jet(ujet)
            poly = diffpoly.f_n(n)
            # scaled as in `genairy verify`: the term-size sum blows up near
            # zeros of u while the computation itself stays exact
            cond = diffpoly.evaluate(poly, [abs(v) for v in yjet])
            closure = abs(diffpoly.evaluate(poly, yjet) - x) / (1.0 + abs(x) + cond)
            cjet = diffpoly.exp_jet(req["p_jet"])
            cole_hopf = diffpoly.verify_cole_hopf(n, cjet) / (1.0 + abs(cjet[n] / cjet[0]))
            ric = series.riccati_solution(n, x)
        except refusals as exc:
            return {"refused": f"{type(exc).__name__}: {exc}"}
        return {
            "closure": closure,
            "cole_hopf": cole_hopf,
            "y": ric.value,
            "y_err": ric.error_estimate,
        }

    def execute(workload, req):
        try:
            if workload == "riccati-chain":
                return run_riccati(req)
            return run_cli(workloads.argv(workload, req))
        except Exception:  # the request crashed: record it, keep measuring
            return {"crash": traceback.format_exc(limit=4)}

    return execute


def _setup(cfg):
    reqs = workloads.stream(cfg["workload"], cfg["seed"])
    first = next(reqs)
    t0 = time.perf_counter()
    execute = _load()
    execute(cfg["workload"], first)
    setup_s = time.perf_counter() - t0
    calibration = [speed.sample() for _ in range(SETUP_SAMPLES)]
    for _ in range(RSS_REQUESTS):
        execute(cfg["workload"], next(reqs))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s, "calibration": calibration, "peak_rss_mb": rss_kb / 1024.0}


def _loop(execute, workload, seed, seconds, count, tracer=None):
    reqs = workloads.stream(workload, seed)
    records = []
    latencies = []
    calibration = []
    calibration_at = []
    starts = []
    kernel_s = 0.0
    gc.collect()
    gc.freeze()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    next_kernel = start
    while len(records) < count and clock() < deadline:
        if clock() >= next_kernel:
            k0 = clock()
            calibration.append(speed.sample())
            calibration_at.append(k0 - start)
            next_kernel = clock()
            kernel_s += next_kernel - k0
            next_kernel += speed.PERIOD_S
        req = next(reqs)
        t0 = clock()
        starts.append(t0 - start)
        if tracer is None:
            rec = execute(workload, req)
        else:
            rec = tracer.run_request(len(records), execute, workload, req)
        latencies.append(clock() - t0)
        records.append(rec)
    elapsed = clock() - start - kernel_s
    return {
        "records": records,
        "latencies": latencies,
        "starts": starts,
        "elapsed": elapsed,
        "calibration": calibration,
        "calibration_at": calibration_at,
    }


def _timed(cfg):
    workload = cfg["workload"]
    execute = _load()
    for req in workloads.warmup(workload, cfg["seed"]):
        execute(workload, req)
    return _loop(execute, workload, cfg["seed"], cfg["seconds"], float("inf"))


def _fixed(cfg):
    workload = cfg["workload"]
    execute = _load()
    tracer = None
    if cfg["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    out = _loop(execute, workload, cfg["seed"], cfg["limit_s"], cfg["count"], tracer)
    if tracer is not None:
        tracer.write(Path(cfg["spans_path"]))
        out["layers"] = tracer.layer_metrics()
        out["series_attempts_in_cli"] = tracer.under("series.eval", "cli.main")
    return out


def main() -> int:
    cfg = json.loads(sys.argv[1])
    mode = {"setup": _setup, "timed": _timed, "fixed": _fixed}[cfg["mode"]]
    print(json.dumps(mode(cfg)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
