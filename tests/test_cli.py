import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import genairy
from genairy import eval_series, sign_for, solution, taylor_model, v_contour
from genairy.cli import CSV_HEADER, _record, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_eval_single_record(capsys):
    rc, out, err = run(capsys, "eval", "--n", "2", "--x", "1.0", "--method", "series")
    assert rc == 0
    n, x, method, value, estimate = out.strip().split(",")
    assert (n, x, method) == ("2", "1.0", "series")
    ref = eval_series(taylor_model(2), 1.0)
    assert float(value) == ref.value
    assert float(estimate) == ref.error_estimate


def test_eval_deterministic(capsys):
    first = run(capsys, "eval", "--n", "4", "--x", "-2.5")
    second = run(capsys, "eval", "--n", "4", "--x", "-2.5")
    assert first == second


def test_method_column_reports_what_ran(capsys):
    rc, out, _ = run(capsys, "eval", "--n", "2", "--x", "1.0", "--method", "quad")
    assert rc == 0
    assert out.split(",")[2] == "quadrature"


@pytest.mark.parametrize("x", ["-25.0", "-20.5", "25.0"])
@pytest.mark.parametrize("n", [2, 4])
def test_auto_far_out_meets_tol(capsys, oracle, n, x):
    rc, out, err = run(capsys, "eval", "--n", str(n), f"--x={x}")
    assert rc == 0
    assert err == ""
    _, _, method, value, estimate = out.strip().split(",")
    assert method == "quadrature"
    assert oracle(n, float(x), float(value)) <= float(estimate) <= 1e-8


@pytest.mark.parametrize("method", ["auto", "series", "quad", "asympt"])
@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_non_finite_x_is_a_domain_error(capsys, method, x):
    rc, out, err = run(capsys, "eval", "--n", "2", f"--x={x}", "--method", method)
    assert rc == 2
    assert out == ""
    assert "x must be finite" in err


@pytest.mark.parametrize("method", ["auto", "quad"])
@pytest.mark.parametrize("x", ["1e308", "-1e308"])
@pytest.mark.parametrize("n", [2, 4])
def test_huge_x_is_honest_or_refused(capsys, n, x, method):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "eval", "--n", str(n), f"--x={x}", "--method", method)
    if sign_for(n) * float(x) < 0.0:
        # oscillatory side: the real segment to the saddle is far too long
        assert (rc, out) == (3, "")
        assert "error:" in err
        return
    # decaying side: v is far below 1e-300 here
    assert (rc, err) == (0, "")
    _, _, method_ran, value, estimate = out.strip().split(",")
    assert method_ran == "quadrature"
    assert abs(float(value)) <= float(estimate) <= 1e-8


def test_quad_table_meets_tol(capsys, oracle):
    rc, out, _ = run(
        capsys, "table", "--n", "6", "--x-min", "0", "--x-max", "2", "--steps", "8",
        "--method", "quad", "--tol", "1e-10",
    )
    assert rc == 0
    for line in out.strip().splitlines()[1:]:
        _, x, _, value, estimate = line.split(",")
        assert oracle(6, float(x), float(value)) <= float(estimate) <= 1e-10


@pytest.mark.parametrize("x", ["-2.5e-05", "-1E+2", "-.5e1"])
def test_negative_exponent_form_is_a_value(capsys, x):
    rc, out, _ = run(capsys, "eval", "--n", "2", "--x", x)
    assert rc == 0
    assert float(out.split(",")[1]) == float(x)
    rc, out, _ = run(capsys, "table", "--n", "2", "--x-min", x, "--x-max", "1.0", "--steps", "1")
    assert rc == 0
    assert float(out.splitlines()[1].split(",")[1]) == float(x)


def test_exit_code_domain_error(capsys):
    rc, out, err = run(capsys, "eval", "--n", "3", "--x", "1.0")
    assert rc == 2
    assert out == ""
    assert "odd order unsupported" in err


def test_exit_code_nonconvergence(capsys):
    rc, out, err = run(capsys, "eval", "--n", "2", "--x", "40.0", "--method", "series")
    assert rc == 3
    assert "error:" in err


def test_exit_code_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--n", "2"])  # missing --x
    assert exc.value.code == 2


def test_table_csv_header_and_grid(capsys):
    rc, out, _ = run(
        capsys, "table", "--n", "2", "--x-min", "-1.0", "--x-max", "1.0",
        "--steps", "4", "--method", "series",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    xs = [line.split(",")[1] for line in lines[1:]]
    assert xs == ["-1.0", "-0.5", "0.0", "0.5", "1.0"]


def test_table_row_matches_eval_bit_for_bit(capsys):
    rc, table_out, _ = run(
        capsys, "table", "--n", "2", "--x-min", "-10.0", "--x-max", "2.0",
        "--steps", "120", "--method", "series",
    )
    assert rc == 0
    row_at_zero = next(
        line for line in table_out.splitlines()[1:] if line.split(",")[1] == "0.0"
    )
    rc, eval_out, _ = run(capsys, "eval", "--n", "2", "--x", "0.0", "--method", "series")
    assert rc == 0
    assert eval_out.strip() == row_at_zero


def test_table_monotone_x_column(capsys):
    rc, out, _ = run(
        capsys, "table", "--n", "2", "--x-min", "-10.0", "--x-max", "2.0",
        "--steps", "120", "--method", "series",
    )
    xs = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_table_json_matches_csv_values(capsys):
    args = ("--n", "2", "--x-min", "-1.0", "--x-max", "1.0", "--steps", "2")
    rc, csv_out, _ = run(capsys, "table", *args, "--format", "csv")
    rc2, json_out, _ = run(capsys, "table", *args, "--format", "json")
    assert rc == rc2 == 0
    rows = json.loads(json_out)
    csv_rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
    assert len(rows) == len(csv_rows)
    for rec, parts in zip(rows, csv_rows):
        assert rec["n"] == int(parts[0])
        assert rec["x"] == float(parts[1])
        assert rec["method"] == parts[2]
        assert rec["value"] == float(parts[3])
        assert rec["error_estimate"] == float(parts[4])


def test_table_partial_output_before_failure(capsys):
    rc, out, err = run(
        capsys, "table", "--n", "2", "--x-min", "0.0", "--x-max", "40.0",
        "--steps", "4", "--method", "series",
    )
    assert rc == 3
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) >= 2  # rows up to the refusal were flushed
    assert "error:" in err


def test_table_degenerate_grid(capsys):
    rc, out, _ = run(
        capsys, "table", "--n", "2", "--x-min", "1.0", "--x-max", "1.0", "--steps", "0"
    )
    assert rc == 0
    assert len(out.strip().splitlines()) == 2
    rc, _, err = run(
        capsys, "table", "--n", "2", "--x-min", "1.0", "--x-max", "2.0", "--steps", "0"
    )
    assert rc == 2


def test_fn_poly_text_golden(capsys):
    rc, out, _ = run(capsys, "fn-poly", "--n", "4")
    assert rc == 0
    assert out.strip() == "y''' + 4*y*y'' + 3*y'^2 + 6*y^2*y' + y^4"


def test_fn_poly_json_golden(capsys):
    rc, out, _ = run(capsys, "fn-poly", "--n", "2", "--format", "json")
    assert rc == 0
    assert json.loads(out) == [
        {"exponents": [0, 1], "coeff": 1},
        {"exponents": [2], "coeff": 1},
    ]


def test_fn_poly_bad_index(capsys):
    rc, _, err = run(capsys, "fn-poly", "--n", "0")
    assert rc == 2


def test_verify_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--n", "2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "category,max_residual,threshold,status"
    names = [line.split(",")[0] for line in lines[1:-1]]
    assert names == ["cole_hopf", "ode_residual", "series_vs_quad", "riccati_closure"]
    assert all(line.endswith("PASS") for line in lines[1:])
    assert lines[-1] == "overall,PASS"


def test_verify_failure_exit_code(capsys):
    # an impossible tolerance must flip the status and the exit code
    rc, out, _ = run(capsys, "verify", "--n", "2", "--tol", "1e-30")
    assert rc == 1
    assert "FAIL" in out
    assert out.strip().splitlines()[-1] == "overall,FAIL"


def test_asympt_compare_m1_pos(capsys):
    rc, out, _ = run(capsys, "asympt-compare", "--m", "1", "--side", "pos")
    assert rc == 0
    assert "REPORT-ONLY" not in out
    assert "check,first_point_dev<=0.01,PASS" in out
    assert "check,dev_monotone_decreasing,PASS" in out
    assert out.strip().endswith("overall,PASS")


def test_asympt_compare_m1_neg(capsys):
    rc, out, _ = run(capsys, "asympt-compare", "--m", "1", "--side", "neg")
    assert rc == 0
    assert "check,amplitude_dev<=0.05,PASS" in out


def test_asympt_compare_m2_report_only(capsys):
    rc, out, _ = run(capsys, "asympt-compare", "--m", "2", "--side", "neg")
    assert rc == 0  # no exit-code consequence for m >= 2
    assert out.startswith("REPORT-ONLY")
    assert "growing" in out.splitlines()[0]
    assert "overall" not in out  # reported, not judged


def test_asympt_compare_custom_points(capsys):
    rc, out, _ = run(
        capsys, "asympt-compare", "--m", "1", "--side", "pos", "--x-list", "6,8"
    )
    assert rc == 0
    assert len([l for l in out.splitlines() if l[:1].isdigit()]) == 2
    rc, _, err = run(
        capsys, "asympt-compare", "--m", "1", "--side", "pos", "--x-list", "-3"
    )
    assert rc == 2


@pytest.mark.parametrize("side", ["pos", "neg"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_asympt_compare_reference_matches_oracle(capsys, oracle, m, side):
    rc, out, _ = run(capsys, "asympt-compare", "--m", str(m), "--side", side)
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines() if line[:1] in "-0123456789"]
    assert len(rows) == 4
    for x, _, reference, ref_method, _ in rows:
        assert ref_method == "quadrature"
        assert oracle(2 * m, float(x), float(reference)) <= 1e-10


def test_asympt_compare_bad_x_list(capsys):
    rc, out, err = run(
        capsys, "asympt-compare", "--m", "1", "--side", "pos", "--x-list", "6,abc"
    )
    assert (rc, out) == (2, "")
    assert "bad x-list" in err


@pytest.mark.parametrize("x", ["1e308", "-1e308", "-1e200", "1e-300"])
def test_asympt_overflow_is_refused(capsys, x):
    rc, out, err = run(capsys, "eval", "--n", "2", f"--x={x}", "--method", "asympt")
    assert (rc, out) == (3, "")
    assert "error:" in err


def test_asympt_without_phase_digits_is_refused(capsys):
    rc, out, err = run(capsys, "eval", "--n", "2", "--x", "-1e12", "--method", "asympt")
    assert (rc, out) == (3, "")
    assert "no correct digits" in err


def test_verify_tol_does_not_leak_into_eval(capsys):
    assert run(capsys, "verify", "--n", "2", "--steps", "2")[0] == 0
    # at x = 10 the series meets tol 1e-6 but not the eval default 1e-8
    rc, out, _ = run(capsys, "eval", "--n", "2", "--x", "10.0")
    assert rc == 0
    assert out == _record(2, 10.0, solution(2, 10.0, tol=1e-8)) + "\n"
    assert out.split(",")[2] == "quadrature"


def test_repeated_table_matches_fresh_process(capsys):
    argv = ("table", "--n", "6", "--x-min", "-12", "--x-max", "12", "--steps", "24")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    src = str(Path(genairy.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "genairy", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert first == second == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert first[0] == 0


def test_usage_error_after_good_call(capsys):
    assert run(capsys, "eval", "--n", "2", "--x", "1.0")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--n", "2"])
    assert exc.value.code == 2


def test_repr_round_trip_of_csv_fields():
    # the CSV writer prints floats with repr; parsing must reproduce the
    # exact binary64, across magnitudes
    rng = np.random.default_rng(20260814)
    exponents = rng.uniform(-300.0, 300.0, size=1000)
    values = rng.standard_normal(1000) * 10.0**exponents
    for v in values:
        v = float(v)
        assert float(f"{v!r}") == v


def test_csv_round_trip_through_cli(capsys):
    rc, out, _ = run(
        capsys, "table", "--n", "2", "--x-min", "-12.0", "--x-max", "12.0", "--steps", "24"
    )
    assert rc == 0
    tm = taylor_model(2)
    methods = set()
    for line in out.strip().splitlines()[1:]:
        _, x, method, value, estimate = line.split(",")
        methods.add(method)
        if method == "series":
            res = eval_series(tm, float(x))
        else:
            res = v_contour(2, 1, float(x), 1e-8)  # the CLI's engine at its default tol
        assert float(value) == res.value
        assert float(estimate) == res.error_estimate
    assert methods == {"series", "quadrature"}
