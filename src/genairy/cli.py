"""Command line front end.

Subcommands
-----------
eval            one point, one record
table           a grid of points, CSV or JSON
fn-poly         the n-th differential polynomial of the chain
verify          self-checks (identity, residual, cross-method, closure)
asympt-compare  asymptotic form against a contour-quadrature reference

eval, table and asympt-compare print values of
:func:`genairy.dispatch.solution`, the library's one evaluation policy;
``--method`` picks one of its methods.  asympt-compare sets the
asymptotic form (``method="asympt"``) against the contour quadrature at
tol 1e-10 (``method="quad"``).  The paper's head+lump quadrature
(:func:`genairy.quadrature.v_pm`) is the independent cross-check in
verify.  This module only parses arguments and formats output.

The argument parser is built once per process, on the first call of
:func:`main`, and reused by every later call; parsing never changes it,
so each call sees only its own arguments and its subcommand's defaults.

Data goes to stdout and is byte-deterministic for a given command line;
errors go to stderr.  Floats are printed with repr, which round-trips
binary64 exactly.

Exit codes: 0 success, 1 verification failure, 2 bad usage or domain,
3 non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import diffpoly, quadrature, series
from .common import ConvergenceError, DomainError
from .dispatch import METHODS, solution

__all__ = ["main"]

CSV_HEADER = "n,x,method,value,error_estimate"

_NEGATIVE_EXPONENT_FORM = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][-+]?\d+")

_POS_GRID = (6.0, 8.0, 10.0, 12.0)
_NEG_GRID = (-4.0, -6.0, -8.0, -10.0)


def _record(n: int, x: float, res) -> str:
    return f"{n},{x!r},{res.method},{res.value!r},{res.error_estimate!r}"


def cmd_eval(args) -> int:
    res = solution(args.n, args.x, method=args.method, tol=args.tol)
    print(_record(args.n, args.x, res))
    return 0


def _grid(x_min: float, x_max: float, steps: int) -> list[float]:
    if steps < 0:
        raise DomainError(f"steps must be non-negative, got {steps}")
    if steps == 0:
        if x_min != x_max:
            raise DomainError("steps=0 needs x-min == x-max")
        return [x_min]
    if not x_min < x_max:
        raise DomainError(f"need x-min < x-max, got {x_min!r} >= {x_max!r}")
    # exact at representable endpoints and at round interior points
    return [(x_min * (steps - i) + x_max * i) / steps for i in range(steps + 1)]


def cmd_table(args) -> int:
    xs = _grid(args.x_min, args.x_max, args.steps)
    if args.format == "csv":
        print(CSV_HEADER)
        for x in xs:
            res = solution(args.n, x, method=args.method, tol=args.tol)
            print(_record(args.n, x, res))
            sys.stdout.flush()
    else:
        rows = []
        for x in xs:
            res = solution(args.n, x, method=args.method, tol=args.tol)
            rows.append(
                {
                    "n": args.n,
                    "x": x,
                    "method": res.method,
                    "value": res.value,
                    "error_estimate": res.error_estimate,
                }
            )
        print(json.dumps(rows, indent=2))
    return 0


def cmd_fn_poly(args) -> int:
    poly = diffpoly.f_n(args.n)
    if args.format == "text":
        print(diffpoly.render(poly))
    else:
        print(json.dumps(diffpoly.to_json_terms(poly)))
    return 0


def _verify_lines(args):
    n = args.n
    tm = series.taylor_model(n)
    sigma = series.sign_for(n)
    xs = _grid(args.x_min, args.x_max, args.steps)
    poly = diffpoly.f_n(n)
    rng = np.random.default_rng(0)

    # (a) chain identity on 100 random smooth u = exp(polynomial)
    worst = 0.0
    for _ in range(100):
        coeffs = rng.uniform(-1.0, 1.0, size=6)
        x0 = rng.uniform(-2.0, 2.0)
        pjet = tuple(
            sum(
                coeffs[d] * math.factorial(d) / math.factorial(d - k) * x0 ** (d - k)
                for d in range(k, 6)
            )
            for k in range(n + 1)
        )
        ujet = diffpoly.exp_jet(pjet)
        ref = ujet[n] / ujet[0]
        worst = max(worst, diffpoly.verify_cole_hopf(n, ujet) / (1.0 + abs(ref)))
    yield "cole_hopf", worst, 1e-10

    # (b) ODE residual of the series solution
    worst = 0.0
    for x in xs:
        u = series.eval_series(tm, x).value
        un = series.eval_derivative_series(tm, x, n).value
        worst = max(worst, abs(un - x * u) / (1.0 + abs(x * u)))
    yield "ode_residual", worst, 1e-9

    # (c) two independent evaluations of the same function
    worst = 0.0
    for x in xs:
        u = series.eval_series(tm, x).value
        q = quadrature.v_pm(n, sigma, x).value
        worst = max(worst, abs(u - q))
    yield "series_vs_quad", worst, args.tol

    # (d) f_n on the jet of u'/u returns x, away from zeros of u; the
    # residual is scaled by the term-size sum of the evaluation, which
    # blows up near zeros of u while the computation itself stays exact
    uvals = {x: series.eval_series(tm, x).value for x in xs}
    floor = 1e-2 * max(abs(v) for v in uvals.values())
    worst = 0.0
    for x in xs:
        if abs(uvals[x]) < floor:
            continue
        ujet = tuple(series.eval_derivative_series(tm, x, n_deriv).value for n_deriv in range(n + 1))
        yjet = diffpoly.log_derivative_jet(ujet)
        cond = diffpoly.evaluate(poly, [abs(v) for v in yjet])
        resid = abs(diffpoly.evaluate(poly, yjet) - x)
        worst = max(worst, resid / (1.0 + abs(x) + cond))
    yield "riccati_closure", worst, args.tol


def cmd_verify(args) -> int:
    print("category,max_residual,threshold,status")
    ok = True
    for name, worst, threshold in _verify_lines(args):
        passed = worst <= threshold
        ok = ok and passed
        print(f"{name},{worst!r},{threshold!r},{'PASS' if passed else 'FAIL'}")
        sys.stdout.flush()
    print(f"overall,{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_asympt_compare(args) -> int:
    m = args.m
    n = 2 * m
    if args.x_list is not None:
        try:
            xs = [float(tok) for tok in args.x_list.split(",") if tok.strip()]
        except ValueError as exc:
            raise DomainError(f"bad x-list {args.x_list!r}: {exc}") from None
        if not xs:
            raise DomainError("empty x-list")
        bad = [x for x in xs if (x <= 0.0 if args.side == "pos" else x >= 0.0)]
        if bad:
            raise DomainError(f"x values on the wrong side for {args.side}: {bad}")
    else:
        xs = list(_POS_GRID if args.side == "pos" else _NEG_GRID)

    if m >= 2:
        if args.side == "neg":
            print(
                "REPORT-ONLY: for m >= 2 the oscillatory-side sum has "
                "exponentially growing terms; deviations below are reported, "
                "not asserted"
            )
        else:
            print(
                "REPORT-ONLY: the decaying-side form is anchored only at m = 1; "
                "deviations below are reported, not asserted"
            )

    rows = []
    for x in xs:
        a = solution(n, x, method="asympt")
        ref = solution(n, x, method="quad", tol=1e-10)
        rows.append((x, a.value, ref))
    print("x,asymptotic,reference,ref_method,deviation")
    if args.side == "pos":
        devs = [abs(a - r.value) / max(abs(r.value), 1e-300) for x, a, r in rows]
    else:
        scale = max(abs(r.value) for _, _, r in rows)
        devs = [abs(a - r.value) / max(scale, 1e-300) for x, a, r in rows]
    for (x, a, r), dev in zip(rows, devs):
        print(f"{x!r},{a!r},{r.value!r},{r.method},{dev!r}")

    if m >= 2:
        return 0
    if args.side == "pos":
        checks = [
            ("first_point_dev<=0.01", devs[0] <= 0.01),
            ("dev_monotone_decreasing", all(b < a for a, b in zip(devs, devs[1:]))),
        ]
    else:
        checks = [("amplitude_dev<=0.05", max(devs) <= 0.05)]
    ok = True
    for label, passed in checks:
        ok = ok and passed
        print(f"check,{label},{'PASS' if passed else 'FAIL'}")
    print(f"overall,{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genairy",
        description="Solutions of u^(n) = x u for even n, three ways, "
        "plus the differential polynomials of u'/u.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_method=True):
        p.add_argument("--n", type=int, required=True, help="equation order (even)")
        if with_method:
            p.add_argument(
                "--method",
                choices=METHODS,
                default="auto",
            )
        p.add_argument(
            "--tol",
            type=float,
            default=1e-8,
            help="absolute tolerance budget (default 1e-8)",
        )

    p = sub.add_parser("eval", help="evaluate at one point")
    add_common(p)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("table", help="evaluate on a uniform grid")
    add_common(p)
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help="grid has steps+1 points")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("fn-poly", help="print the n-th chain polynomial")
    p.add_argument("--n", type=int, required=True, help="chain index (any n >= 1)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_fn_poly)

    p = sub.add_parser("verify", help="run the built-in consistency checks")
    add_common(p, with_method=False)
    p.add_argument("--x-min", type=float, default=-5.0)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--steps", type=int, default=20)
    p.set_defaults(func=cmd_verify, tol=1e-6)

    p = sub.add_parser(
        "asympt-compare",
        help="compare the asymptotic form against a reference evaluation",
    )
    p.add_argument("--m", type=int, required=True, help="half the equation order")
    p.add_argument("--side", choices=("pos", "neg"), required=True)
    p.add_argument(
        "--x-list",
        default=None,
        help="comma-separated points (default 6,8,10,12 or -4,-6,-8,-10)",
    )
    p.set_defaults(func=cmd_asympt_compare)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a negative number in exponent form ("-1e-05") as an
    # option name; glue it to the option in front ("--x=-1e-05"), since
    # every "--" option of this tool takes a value
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and _NEGATIVE_EXPONENT_FORM.fullmatch(argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stdout.flush()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        sys.stdout.flush()
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
