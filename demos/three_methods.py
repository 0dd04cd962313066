"""Evaluate the decaying solution of u^(n) = x u three ways and watch
where each method lives and dies."""

from genairy import (
    ConvergenceError,
    asympt_pos,
    eval_series,
    sign_for,
    taylor_model,
    v_pm,
)

# n = 2 is the classical Airy function Ai, which makes it easy to eyeball
# the numbers against any table you trust.
n = 2
tm = taylor_model(n)
sigma = sign_for(n)

print(f"n = {n}: series vs quadrature on a moderate grid")
print(f"{'x':>6} {'series':>24} {'quadrature':>24} {'diff':>10}")
for x in (-4.0, -2.0, 0.0, 1.0, 3.0, 5.0):
    s = eval_series(tm, x)
    q = v_pm(n, sigma, x)
    print(f"{x:>6} {s.value:>24.16e} {q.value:>24.16e} "
          f"{abs(s.value - q.value):>10.2e}")

# Same picture for a genuinely higher order.
n = 6
tm = taylor_model(n)
sigma = sign_for(n)
print()
print(f"n = {n}: same comparison")
for x in (-4.0, -1.0, 0.0, 2.0, 4.0):
    s = eval_series(tm, x)
    q = v_pm(n, sigma, x)
    print(f"{x:>6} {s.value:>24.16e} {q.value:>24.16e} "
          f"{abs(s.value - q.value):>10.2e}")

# The series carries an error estimate that includes the cancellation
# floor; watch it climb with |x| until the evaluator refuses.
n = 2
tm = taylor_model(n)
print()
print("series error estimate growth, n = 2")
for x in (2.0, 6.0, 10.0, 14.0, 40.0):
    try:
        res = eval_series(tm, x)
    except ConvergenceError as exc:
        print(f"  x = {x:>5}: refused ({exc})")
        continue
    print(f"  x = {x:>5}: value {res.value:.6e}, estimate {res.error_estimate:.2e}")

# Far out on the decaying side the asymptotic form takes over; one term
# is already at the percent level by x = 6 and improving.
print()
print("decaying side, n = 2: quadrature vs one-term asymptotic")
for x in (6.0, 9.0, 12.0):
    q = v_pm(2, 1, x, abs_tol=1e-12)
    a = asympt_pos(1, x)
    print(f"  x = {x:>4}: quad {q.value:.10e}, asympt {a.value:.10e}, "
          f"rel dev {abs(a.value - q.value) / abs(q.value):.4f}")
