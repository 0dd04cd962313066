"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload for one second with and without tracing, and checks
that every metric BENCHMARK.json names is printed with its unit, that a
deliberately corrupted answer counts against ok_ratio, and that the
benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402
from score import score  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == declared
    for name, unit in declared.items():
        assert math.isfinite(out["metrics"][name]["value"])
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in proc.stdout.splitlines())
    if trace:
        idle = {"riccati-chain": "quadrature.", "quad-table": "diffpoly."}.get(workload)
        for name, m in out["metrics"].items():
            if idle and name.startswith(idle):
                assert m["value"] == 0, name


def _corrupt(workload: str, rec: dict) -> dict:
    if workload == "riccati-chain":
        return {**rec, "closure": 1.0}
    lines = rec["out"].splitlines()
    row = 1 if workload == "quad-table" else 0
    fields = lines[row].split(",")
    fields[3] = repr(float(fields[3]) + 1e-3)
    lines[row] = ",".join(fields)
    return {**rec, "out": "\n".join(lines) + "\n"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_value_counts_as_failed_point(workload):
    raw = run._child({"mode": "timed", "workload": workload, "seed": 3, "seconds": 0.5}, 120)
    records = raw["records"]
    reqs = list(itertools.islice(workloads.stream(workload, 3), len(records)))
    oracle = Oracle()
    before = score(workload, reqs, records, oracle)
    for i, (req, rec) in enumerate(zip(reqs, records)):
        one = score(workload, [req], [rec], oracle)
        if one.ok == one.attempted:
            corrupted = records[:i] + [_corrupt(workload, rec)] + records[i + 1 :]
            break
    else:
        pytest.fail("no fully correct request to corrupt")
    after = score(workload, reqs, corrupted, oracle)
    assert after.attempted == before.attempted
    assert after.ok == before.ok - 1
    assert after.fail_ratio == pytest.approx(before.fail_ratio + 1 / before.attempted)
    assert after.failed == before.failed == 0


def test_oracle_matches_mpmath_airy():
    import mpmath as mp

    oracle = Oracle()
    with mp.workdps(40):
        for x in (-17.25, -1.5, 0.0, 2.0, 9.5):
            hi, lo = oracle.u(2, x)
            ai = mp.airyai(x)
            assert abs(mp.mpf(hi) + lo - ai) <= 1e-28 * abs(ai)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".cache", "out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
