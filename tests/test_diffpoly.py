import math

import numpy as np
import pytest

from genairy import (
    DiffPolynomial,
    DomainError,
    Jet,
    PoleError,
    apply_lift,
    evaluate,
    exp_jet,
    f_n,
    f_one,
    log_derivative_jet,
    monomial_weight,
    render,
    to_json_terms,
    verify_cole_hopf,
)

GOLDEN_TEXT = {
    1: "y",
    2: "y' + y^2",
    3: "y'' + 3*y*y' + y^3",
    4: "y''' + 4*y*y'' + 3*y'^2 + 6*y^2*y' + y^4",
}

# number of integer partitions of n
PARTITIONS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}


@pytest.mark.parametrize("n,text", sorted(GOLDEN_TEXT.items()))
def test_golden_renderings(n, text):
    assert render(f_n(n)) == text


def test_chain_recurrence_consistency():
    p = f_one()
    for n in range(1, 9):
        assert p == f_n(n)
        p = apply_lift(p)


@pytest.mark.parametrize("n,count", sorted(PARTITIONS.items()))
def test_term_counts_are_partition_numbers(n, count):
    assert len(f_n(n)) == count


@pytest.mark.parametrize("n", range(1, 9))
def test_isobaric_weight(n):
    # every monomial of f_n has weight n, with y^(i) carrying weight i+1
    for exps in f_n(n).terms:
        assert monomial_weight(exps) == n


@pytest.mark.parametrize("n", range(1, 9))
def test_collapse_matches_moment_recursion(n):
    # u = exp(x^2/2) has y-jet (x0, 1, 0, 0, ...) and the ratios
    # R_n = u^(n)/u obey R_{n+1} = x R_n + n R_{n-1}; f_n must reproduce
    # R_n when evaluated on that jet
    x0 = 1.0
    jet = [0.0] * n
    jet[0] = x0
    if n > 1:
        jet[1] = 1.0
    a, b = 1.0, x0  # R_0, R_1
    for k in range(1, n):
        a, b = b, x0 * b + k * a
    assert evaluate(f_n(n), jet) == pytest.approx(b, rel=1e-12)


def test_json_terms_golden():
    assert to_json_terms(f_n(2)) == [
        {"exponents": [0, 1], "coeff": 1},
        {"exponents": [2], "coeff": 1},
    ]
    # term order is graded: degree ascending, earlier-variable powers first
    names = [tuple(t["exponents"]) for t in to_json_terms(f_n(4))]
    assert names == [(0, 0, 0, 1), (1, 0, 1), (0, 2), (2, 1), (4,)]


def test_term_order_is_kept():
    # computed once per instance, and independent of the insertion order
    p = f_n(6)
    order = p.sorted_terms()
    assert p.sorted_terms() is order
    assert DiffPolynomial(dict(reversed(order))).sorted_terms() == order


def test_render_higher_derivative_notation():
    # primes through the third derivative, then y^{(k)}
    assert render(f_n(5)).startswith("y^{(4)}")


def test_evaluate_accepts_jet_and_sequence():
    poly = f_n(3)
    vals = (0.5, -1.25, 2.0)
    assert evaluate(poly, Jet(values=vals, x0=0.0)) == evaluate(poly, list(vals))
    # y'' + 3 y y' + y^3 at (0.5, -1.25, 2.0)
    assert evaluate(poly, vals) == pytest.approx(2.0 + 3 * 0.5 * -1.25 + 0.125)


def test_evaluate_short_jet_rejected():
    with pytest.raises(DomainError):
        evaluate(f_n(4), (1.0, 2.0))


def test_bad_chain_index_rejected():
    assert f_n(2) is f_n(2)  # cached, and the cache must not answer for 2.0
    for bad in (0, -3, 2.0):
        with pytest.raises(DomainError):
            f_n(bad)


def test_log_derivative_jet_example():
    # u-jet (1, 0, 1, 0) gives y-jet (0, 1, 0)
    assert log_derivative_jet((1.0, 0.0, 1.0, 0.0)) == (0.0, 1.0, 0.0)


def test_log_derivative_jet_analytic():
    # u = exp(x^2/2) at x0: y = u'/u = x0, y' = 1, y'' = 0
    x0 = 0.7
    e = math.exp(x0 * x0 / 2.0)
    ujet = (e, x0 * e, (1 + x0 * x0) * e, (3 * x0 + x0**3) * e)
    y = log_derivative_jet(ujet)
    np.testing.assert_allclose(y, (x0, 1.0, 0.0), atol=1e-14)


def test_log_derivative_jet_pole():
    with pytest.raises(PoleError):
        log_derivative_jet((0.0, 1.0, 0.0))


def test_exp_jet_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pjet = tuple(rng.uniform(-1.5, 1.5, size=7))
        ujet = exp_jet(pjet)
        # y = u'/u recovers p', p'', ...
        np.testing.assert_allclose(log_derivative_jet(ujet), pjet[1:], atol=1e-12)


def test_exp_jet_analytic():
    # u = exp(x^2) at x0 = 0.5: u' = 2x u, u'' = (2 + 4x^2) u
    x0 = 0.5
    ujet = exp_jet((x0 * x0, 2 * x0, 2.0, 0.0))
    e = math.exp(x0 * x0)
    np.testing.assert_allclose(ujet, (e, 2 * x0 * e, (2 + 4 * x0 * x0) * e, (12 * x0 + 8 * x0**3) * e), rtol=1e-14)


@pytest.mark.parametrize("n", range(2, 9))
def test_cole_hopf_on_random_smooth_u(n):
    rng = np.random.default_rng(11)
    for _ in range(40):
        coeffs = rng.uniform(-1.0, 1.0, size=6)
        x0 = rng.uniform(-2.0, 2.0)
        pjet = tuple(
            sum(
                coeffs[d] * math.factorial(d) / math.factorial(d - k) * x0 ** (d - k)
                for d in range(k, 6)
            )
            for k in range(n + 1)
        )
        ujet = exp_jet(pjet)
        ref = ujet[n] / ujet[0]
        assert verify_cole_hopf(n, ujet) <= 1e-10 * (1.0 + abs(ref))


def test_verify_cole_hopf_needs_full_jet():
    with pytest.raises(DomainError):
        verify_cole_hopf(4, (1.0, 1.0, 1.0))


def test_polynomial_normalization():
    p = DiffPolynomial({(1, 0, 0): 2, (0, 1): 0})
    assert p.terms == {(1,): 2}
    assert p.max_derivative_index() == 0
