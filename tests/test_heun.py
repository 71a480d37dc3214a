"""Frobenius series, polynomial reduction, and the ODE-residual oracle.

The k=1 termination example below is exact in floating point: with
(c1, c2, c3, c4) = (0, 1, 4, 1) the recurrence gives a_1 = 1 and a_2 = 0,
so the regular solution is u(xi) = 1 + xi.
"""

import decimal
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgconfine import heun
from kgconfine.errors import DomainError, SingularParameter, TruncationFailure

# Keeps 1 + c1 clear of the singular lattice while exploring the range used
# by the eigenfunction mapping.
safe_c1 = st.floats(min_value=-0.8, max_value=5.0)
coeff = st.floats(min_value=-5.0, max_value=5.0)


def hp_strategy():
    return st.builds(heun.HeunParams, c1=safe_c1, c2=coeff, c3=coeff, c4=coeff)


EXACT_POLY = heun.HeunParams(c1=0.0, c2=1.0, c3=4.0, c4=1.0)


def test_singular_c1_rejected():
    for c1 in (-1.0, -2.0, -3.0):
        with pytest.raises(SingularParameter):
            heun.HeunParams(c1=c1, c2=0.0, c3=0.0, c4=0.0)
    with pytest.raises(SingularParameter):
        heun.HeunParams(c1=-2.0 + 1e-12, c2=0.0, c3=0.0, c4=0.0)
    # Away from the lattice is fine, including non-integer negatives.
    heun.HeunParams(c1=-1.5, c2=0.0, c3=0.0, c4=0.0)


def test_nonfinite_params_rejected():
    with pytest.raises(DomainError):
        heun.HeunParams(c1=math.nan, c2=0.0, c3=0.0, c4=0.0)


@given(hp=hp_strategy())
def test_first_coefficients(hp):
    sol = heun.series_coefficients(hp, 6)
    assert sol.coeffs[0] == 1.0
    expected_a1 = (hp.c4 + hp.c2 * (1.0 + hp.c1)) / (2.0 * (1.0 + hp.c1))
    assert math.isclose(sol.coeffs[1], expected_a1, rel_tol=1e-13, abs_tol=1e-15)


def test_series_coefficients_needs_two_terms():
    with pytest.raises(DomainError):
        heun.series_coefficients(EXACT_POLY, 1)


@given(hp=hp_strategy(), y=st.floats(min_value=-10.0, max_value=10.0))
# a_5 ~ -5.2e-6 comes out of cancelling terms of order 1e-2 here.
@example(hp=heun.HeunParams(c1=1.607421875, c2=0.23046875, c3=5.0, c4=1.609375), y=3.0)
def test_terms_are_coefficients_times_powers(hp, y):
    base = heun._coefficients(hp, 8)
    terms = heun._coefficients(hp, 8, y)
    powers = np.abs(y) ** np.arange(9)
    # t_k = a_k y^k up to rounding, which is relative to the summed
    # magnitudes of the terms behind a_k, not to a_k itself: the recurrence
    # run on absolute values bounds both (1e-300 absorbs subnormal rounding).
    mag = np.zeros(9)
    mag[0], mag[1] = 1.0, abs(hp.K / (1.0 + hp.c1))
    for k in range(1, 8):
        mag[k + 1] = (abs(hp.c2 * k + hp.K) * mag[k] + abs(2.0 * k + hp.c1 - hp.c3) * mag[k - 1]) / (
            abs((k + 1.0) * (k + 1.0 + hp.c1))
        )
    assert np.all(np.abs(terms - base * y ** np.arange(9)) <= 1e-13 * powers * mag + 1e-300)


@given(hp=hp_strategy(), y=st.floats(min_value=-10.0, max_value=10.0).filter(lambda y: y != 0.0))
def test_adaptive_series_runs_the_one_recurrence(hp, y):
    # The adaptive cut only picks how many coefficients to keep: they are
    # the fixed-length coefficients bit for bit.  (At y = 0 it keeps two,
    # fewer than series_coefficients accepts.)
    coeffs = heun.adaptive_series(hp, y, tol=1e-12).coeffs
    assert np.array_equal(coeffs, heun.series_coefficients(hp, coeffs.size - 1).coeffs)


def test_exact_termination_detected():
    sol = heun.series_coefficients(EXACT_POLY, 8)
    assert sol.terminated_polynomially
    assert sol.coeffs[1] == 1.0
    assert np.all(sol.coeffs[2:] == 0.0)


def test_exact_polynomial_equals_direct_evaluation():
    for y in (0.3, 1.0, 2.7, 10.0):
        ev = heun.evaluate(EXACT_POLY, y, tol=1e-12)
        assert math.isclose(ev.value, 1.0 + y, rel_tol=1e-14)


def test_exact_polynomial_residual_tiny():
    sol = heun.series_coefficients(EXACT_POLY, 8)
    for y in (0.1, 0.5, 1.0):
        assert heun.ode_residual(EXACT_POLY, sol, y) <= 1e-12


@given(hp=hp_strategy())
def test_evaluate_at_origin_is_one(hp):
    assert heun.evaluate(hp, 0.0, tol=1e-12).value == 1.0


@given(hp=hp_strategy(), y=st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60)
def test_adaptive_residual_bound(hp, y):
    # Calibrated: a 100-set ensemble peaked at 5.9e-9; assert with headroom.
    sol = heun.adaptive_series(hp, y, tol=1e-12)
    assert heun.ode_residual(hp, sol, y) < 1e-7


def test_corrupted_coefficient_blows_residual():
    sol = heun.adaptive_series(EXACT_POLY, 0.5, tol=1e-12)
    bad = np.array(sol.coeffs, dtype=float, copy=True)
    if bad.size < 3:
        bad = np.append(bad, np.zeros(3 - bad.size))
    bad[2] += 0.1
    corrupted = heun.SeriesSolution(coeffs=bad, terminated_polynomially=False)
    assert heun.ode_residual(EXACT_POLY, corrupted, 0.5) > 1e-3


def test_residual_rejects_a_constant_series_and_non_finite_y():
    with pytest.raises(DomainError, match="at least two coefficients"):
        heun.ode_residual(EXACT_POLY, heun.truncated_polynomial(EXACT_POLY, 0), 1.0)
    with pytest.raises(DomainError, match="y must be finite"):
        heun.ode_residual(EXACT_POLY, heun.truncated_polynomial(EXACT_POLY, 1), math.nan)


def test_residual_at_origin_uses_limiting_row():
    sol = heun.series_coefficients(EXACT_POLY, 6)
    assert heun.ode_residual(EXACT_POLY, sol, 0.0) <= 1e-15


def test_evaluate_error_estimate_and_terms():
    hp = heun.HeunParams(c1=1.0, c2=0.5, c3=2.0, c4=1.5)
    ev = heun.evaluate(hp, 0.7, tol=1e-12)
    assert ev.n_terms >= 3
    assert ev.error_estimate >= 0.0
    # Tightening the tolerance must not move the value by more than the
    # reported estimate's scale.
    tight = heun.evaluate(hp, 0.7, tol=1e-15)
    assert abs(ev.value - tight.value) <= max(10.0 * ev.error_estimate, 1e-12)


def _reference_value(hp, y):
    # The same recurrence at 80 significant digits, summed far past the point
    # where its terms fall below double-precision rounding of the sum.
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        c1, c2, c3, Y = (decimal.Decimal(v) for v in (hp.c1, hp.c2, hp.c3, y))
        K = (decimal.Decimal(hp.c4) + c2 * (1 + c1)) / 2
        prev, cur = decimal.Decimal(1), K / (1 + c1) * Y
        total = prev + cur
        for k in range(1, 3000):
            prev, cur = cur, ((c2 * k + K) * Y * cur + (2 * k + c1 - c3) * Y * Y * prev) / (
                (k + 1) * (k + 1 + c1)
            )
            total += cur
        return total


@pytest.mark.parametrize("y", [3.0, 6.0, 9.0, 12.0, 20.0])
def test_evaluate_error_estimate_bounds_the_error(y):
    # Cancellation among terms far larger than the sum costs much more than
    # the first neglected term: at y = 20 the value even has the wrong sign.
    hp = heun.HeunParams(c1=0.3, c2=-1.2, c3=4.4, c4=0.7)
    ev = heun.evaluate(hp, y, tol=1e-14)
    assert abs(decimal.Decimal(ev.value) - _reference_value(hp, y)) <= ev.error_estimate


def test_evaluate_rejects_bad_tol():
    with pytest.raises(DomainError):
        heun.evaluate(EXACT_POLY, 0.5, tol=0.0)
    with pytest.raises(DomainError):
        heun.evaluate(EXACT_POLY, 0.5, tol=-1e-9)
    # y = 0 has its own exit, which checks tol all the same.
    with pytest.raises(DomainError, match="tol must be positive"):
        heun.evaluate(EXACT_POLY, 0.0, tol=-1.0)


def test_evaluate_rejects_non_finite_y():
    with pytest.raises(DomainError, match="y must be finite"):
        heun.evaluate(EXACT_POLY, math.inf)


def test_evaluate_on_grid_of_no_points_or_only_zeros():
    assert heun.evaluate_on_grid(EXACT_POLY, np.array([])).shape == (0,)
    assert np.array_equal(heun.evaluate_on_grid(EXACT_POLY, np.zeros(3)), np.ones(3))


def test_evaluate_on_grid_matches_pointwise():
    hp = heun.HeunParams(c1=0.3, c2=-1.2, c3=4.4, c4=0.7)
    ys = np.linspace(0.0, 2.0, 17)
    grid_vals = heun.evaluate_on_grid(hp, ys, tol=1e-13)
    for y, v in zip(ys, grid_vals):
        assert math.isclose(v, heun.evaluate(hp, float(y), tol=1e-13).value,
                            rel_tol=1e-9, abs_tol=1e-12)


def test_evaluate_on_grid_keeps_terms_whose_coefficients_underflow():
    # At y = 12, 251 of the 594 coefficients a_k are subnormal or zero while
    # their terms a_k y^k reach 4e62; a grid must still agree with the
    # pointwise values within their error bounds, on both sides of 0.
    hp = heun.HeunParams(c1=0.3, c2=-1.2, c3=4.4, c4=0.7)
    ys = np.linspace(-12.0, 12.0, 9)
    grid_vals = heun.evaluate_on_grid(hp, ys, tol=1e-14)
    for y, v in zip(ys.tolist(), grid_vals.tolist()):
        ev = heun.evaluate(hp, y, tol=1e-14)
        assert abs(v - ev.value) <= ev.error_estimate


def test_overflow_reports_truncation_failure():
    hp = heun.HeunParams(c1=1.0, c2=4.0, c3=3.0, c4=1.0)
    with pytest.raises(TruncationFailure) as err:
        heun.evaluate(hp, 50.0, tol=1e-12)
    assert err.value.n_terms > 0
    assert hasattr(err.value, "partial_sum")


def test_adaptive_cap_reports_the_partial_sum(monkeypatch):
    # Uncapped, this series settles after 217 terms.
    hp = heun.HeunParams(c1=0.3, c2=-1.2, c3=4.4, c4=0.7)
    assert heun.evaluate(hp, 6.0, 1e-14).n_terms == 217
    monkeypatch.setattr(heun, "N_MAX", 40)
    with pytest.raises(TruncationFailure) as err:
        heun.evaluate(hp, 6.0, 1e-14)
    assert str(err.value) == "series did not settle within 40 terms for y=6.0"
    assert err.value.n_terms == 40
    partials = list(itertools.accumulate(heun._coefficients(hp, 40, 6.0).tolist()))
    assert err.value.partial_sum == partials[-1]


@pytest.mark.parametrize("c", [(0.3, -1.2, 4.4, 0.7), (1.0, 0.5, 2.0, 1.5), (-0.5, 3.0, -2.0, 4.0)])
@pytest.mark.parametrize("y", [-0.7, 0.3, 2.7, 6.0])
@pytest.mark.parametrize("tol", [1e-6, 1e-14])
def test_adaptive_stop_rule(c, y, tol):
    # The sum stops at the first n >= 2 ending three quiet terms in a row,
    # |t_k| < tol * max(|s_k|, 1e-300) with s_k the in-order partial sum.
    hp = heun.HeunParams(*c)
    ev = heun.evaluate(hp, y, tol)
    n = ev.n_terms - 1
    t = heun._coefficients(hp, n + 1, y).tolist()
    partials = list(itertools.accumulate(t[: n + 1]))
    quiet = [k >= 2 and abs(t[k]) < tol * max(abs(partials[k]), 1e-300) for k in range(n + 1)]
    assert all(quiet[n - 2:])
    assert not any(all(quiet[k - 2: k + 1]) for k in range(2, n))
    assert ev.value == partials[n]
    gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
    assert ev.error_estimate == abs(t[n + 1]) + gamma * float(np.sum(np.abs(t[: n + 1])))


def test_polynomial_degree_examples():
    assert heun.polynomial_degree(heun.HeunParams(1.0, 0.0, 3.0, 0.0)) == 0
    assert heun.polynomial_degree(heun.HeunParams(1.0, 0.0, 9.0, 0.0)) == 3
    assert heun.polynomial_degree(heun.HeunParams(1.0, 0.0, 4.0, 0.0)) is None
    assert heun.polynomial_degree(heun.HeunParams(1.0, 0.0, 1.0, 0.0)) is None


@given(hp=hp_strategy(), c2=coeff, c4=coeff)
def test_polynomial_degree_ignores_c2_c4(hp, c2, c4):
    other = heun.HeunParams(c1=hp.c1, c2=c2, c3=hp.c3, c4=c4)
    assert heun.polynomial_degree(hp) == heun.polynomial_degree(other)


def test_truncated_polynomial_caps_degree():
    hp = heun.HeunParams(c1=1.0, c2=2.0, c3=9.0, c4=1.0)
    sol = heun.truncated_polynomial(hp, 3)
    assert sol.coeffs.shape == (4,)
    assert sol.coeffs[0] == 1.0
    full = heun._coefficients(hp, 3)
    assert np.array_equal(sol.coeffs, full)
    with pytest.raises(DomainError):
        heun.truncated_polynomial(hp, -1)


def test_truncated_polynomial_honest_termination_flag():
    # Exact case: the cut coincides with genuine termination.
    assert heun.truncated_polynomial(EXACT_POLY, 1).terminated_polynomially
    # Degree 0 of the same series: a_1 = 1 is not zero, so it does not terminate.
    assert heun.truncated_polynomial(EXACT_POLY, 0).terminated_polynomially is False
    # Generic case: the tail does not vanish, the flag must say so.
    generic = heun.HeunParams(c1=1.0, c2=2.0, c3=9.0, c4=1.0)
    assert not heun.truncated_polynomial(generic, 3).terminated_polynomially


def test_evaluate_series_matches_horner():
    sol = heun.truncated_polynomial(EXACT_POLY, 1)
    ys = np.array([0.0, 0.5, 2.0])
    assert np.allclose(heun.evaluate_series(sol, ys), 1.0 + ys, rtol=1e-15)
    assert heun.evaluate_series(sol, 3.0) == pytest.approx(4.0, rel=1e-15)
