"""Scoring of raw request results against the oracle.

A point counts as ok when it came back and its error against the oracle
is within the requested tol (for riccati-chain: when the closure and
Cole-Hopf residuals are within the thresholds `genairy verify` uses).
A refusal (exit 3, ConvergenceError, PoleError) is a point that did not
come back.  A crash (traceback, an exit code other than 0 or 3, or
output that does not parse or does not echo its input) counts as a
failed operation.  A returned point is dishonest when its error against
the oracle exceeds its own error_estimate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import workloads
from oracle import Oracle, error_of

__all__ = ["Tally", "score"]

CSV_HEADER = "n,x,method,value,error_estimate"
METHODS = ("series", "quadrature", "asymptotic")


@dataclass
class Tally:
    attempted: int = 0
    ok: int = 0
    returned: int = 0
    dishonest: int = 0
    failed: int = 0
    methods: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    @property
    def fail_ratio(self) -> float:
        return (self.attempted - self.ok) / self.attempted if self.attempted else 0.0

    @property
    def dishonest_ratio(self) -> float:
        return self.dishonest / self.returned if self.returned else 0.0


def _parse_row(line: str, n: int, x: float):
    fields = line.split(",")
    if len(fields) != 5:
        return None
    try:
        rn, rx, value, est = int(fields[0]), float(fields[1]), float(fields[3]), float(fields[4])
    except ValueError:
        return None
    if rn != n or rx != x or fields[2] not in METHODS:
        return None
    return fields[2], value, est


def _returned(tally: Tally, err: float, est: float, ok: bool) -> None:
    tally.returned += 1
    tally.ok += ok
    tally.dishonest += not err <= est


def _score_cli(tally: Tally, workload: str, req: dict, rec: dict, oracle: Oracle) -> None:
    n = req["n"]
    xs = workloads.grid(req) if workload == "quad-table" else [req["x"]]
    tally.attempted += len(xs)
    if "crash" in rec or rec["rc"] not in (0, 3):
        tally.failed += len(xs)
        tally.problems.append(rec.get("crash") or f"exit {rec['rc']} on {req}")
        return
    lines = rec["out"].splitlines()
    if workload == "quad-table":
        if not lines or lines[0] != CSV_HEADER:
            tally.failed += len(xs)
            tally.problems.append(f"no CSV header for {req}")
            return
        lines = lines[1:]
    if len(lines) > len(xs) or (rec["rc"] == 0 and len(lines) != len(xs)):
        tally.failed += len(xs)
        tally.problems.append(f"{len(lines)} rows for {len(xs)} points: {req}")
        return
    # rows missing after exit 3 are refused points: attempted, never ok
    for line, x in zip(lines, xs):
        row = _parse_row(line, n, x)
        if row is None or (workload == "quad-table" and row[0] != "quadrature"):
            tally.failed += 1
            tally.problems.append(f"bad row {line!r} for n={n}, x={x!r}")
            continue
        method, value, est = row
        tally.methods[method] += 1
        err = error_of(value, oracle.u(n, x))
        _returned(tally, err, est, err <= workloads.TOL[workload])  # False for NaN


def _score_riccati(tally: Tally, req: dict, rec: dict, oracle: Oracle) -> None:
    tally.attempted += 1
    if "crash" in rec:
        tally.failed += 1
        tally.problems.append(rec["crash"])
        return
    if "refused" in rec:
        return
    ok = rec["closure"] <= workloads.CLOSURE_TOL and rec["cole_hopf"] <= workloads.COLE_HOPF_TOL
    err = error_of(rec["y"], oracle.y(req["n"], req["x"]))
    _returned(tally, err, rec["y_err"], ok)


def score(workload: str, requests: list, records: list, oracle: Oracle) -> Tally:
    """Tally of the records a worker returned for ``requests``."""
    tally = Tally()
    for req, rec in zip(requests, records, strict=True):
        if workload == "riccati-chain":
            _score_riccati(tally, req, rec, oracle)
        else:
            _score_cli(tally, workload, req, rec, oracle)
    return tally
