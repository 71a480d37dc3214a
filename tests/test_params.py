"""Parameter validation and the dimensionless reduction."""

import math

import pytest
from hypothesis import given, strategies as st

from kgconfine.errors import DomainError
from kgconfine.params import PhysicalParams, _reduction, sigma_constants

positive = st.floats(min_value=1e-3, max_value=1e3)


def test_rejects_nonpositive_a2():
    with pytest.raises(DomainError):
        PhysicalParams(a1=0.0, a2=0.0, a3=1.0, mass=1.0)
    with pytest.raises(DomainError):
        PhysicalParams(a1=0.0, a2=-1.0, a3=1.0, mass=1.0)


def test_rejects_negative_a3_and_mass():
    with pytest.raises(DomainError):
        PhysicalParams(a1=0.0, a2=1.0, a3=-0.1, mass=1.0)
    with pytest.raises(DomainError):
        PhysicalParams(a1=0.0, a2=1.0, a3=1.0, mass=-1.0)


def test_rejects_nonfinite_and_bad_hbar_c():
    with pytest.raises(DomainError):
        PhysicalParams(a1=math.nan, a2=1.0, a3=1.0, mass=1.0)
    with pytest.raises(DomainError):
        PhysicalParams(a1=0.0, a2=math.inf, a3=1.0, mass=1.0)
    with pytest.raises(DomainError):
        PhysicalParams(a1=0.0, a2=1.0, a3=1.0, mass=1.0, hbar_c=0.0)


def test_rejects_a3_mass_and_a1_whose_reduction_overflows():
    # sqrt(1 + 4 (Q a3)^2) is inf past Q a3 ~ 6.7e153; a Python float power
    # in the reduction would raise OverflowError instead of a DomainError.
    for a3, hbar_c in ((7e153, 1.0), (1e200, 1.0), (1.0, 1e-300), (0.0, 1e-320)):
        with pytest.raises(DomainError, match="past the float range"):
            PhysicalParams(a1=0.0, a2=1.0, a3=a3, mass=1.0, hbar_c=hbar_c)
    p = PhysicalParams(a1=0.0, a2=1.0, a3=6e153, mass=1.0)
    assert math.isfinite(_reduction(p).root)
    # Likewise (m c^2 + a1)^2 past |m c^2 + a1| ~ 1.3e154, and A3^2 = 4 (Q/a2)
    # (m c^2 + a1)^2, which a small a2 puts past the float range first.
    for a1, a2, mass in ((0.0, 1.0, 1e200), (-1e200, 1.0, 0.5), (1.4e154, 1.0, 0.0),
                         (0.0, 1e-10, 1e150), (0.0, 1e-320, 1.0)):
        with pytest.raises(DomainError, match="past the float range"):
            PhysicalParams(a1=a1, a2=a2, a3=1.0, mass=mass)
    r = _reduction(PhysicalParams(a1=0.0, a2=1e10, a3=1.0, mass=1.3e154), 1.0)
    assert math.isfinite(r.eps1) and math.isfinite(r.A3**2)


def test_a1_may_be_negative():
    p = PhysicalParams(a1=-3.0, a2=1.0, a3=1.0, mass=1.0)
    assert p.a1 == -3.0


def test_q_is_inverse_hbar_c():
    assert PhysicalParams(a1=0, a2=1, a3=1, mass=1, hbar_c=4.0).Q == 0.25


def test_dimensionless_reduction_q1():
    p = PhysicalParams(a1=0.0, a2=1.0, a3=1.0, mass=0.0)
    sigma1, sigma2 = sigma_constants(p.Q * p.a3)
    assert sigma1 == 2.0
    assert math.isclose(sigma2, 3.0 + math.sqrt(5.0), rel_tol=1e-15)
    r = _reduction(p)
    assert r.A2 == -1.0
    assert math.isclose(r.p, 0.5 + 0.5 * math.sqrt(5.0), rel_tol=1e-15)


@given(q=st.floats(min_value=1e-3, max_value=1e3))
def test_sigma2_identity(q):
    # sigma2 - 2 - 1/q = sqrt(1+4q^2)/q > 0
    _, sigma2 = sigma_constants(q)
    lhs = sigma2 - 2.0 - 1.0 / q
    rhs = math.sqrt(1.0 + 4.0 * q * q) / q
    assert lhs > 0.0
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


@given(q=st.floats(min_value=1e-3, max_value=1e3))
def test_p_from_A2(q):
    # p = 1/2 + sqrt(1 - 4*A2)/2 with A2 = -q^2 collapses to a q-only form.
    r = _reduction(PhysicalParams(a1=0.2, a2=2.0, a3=q, mass=1.0))
    assert math.isclose(r.p, 0.5 + 0.5 * math.sqrt(1.0 + 4.0 * q * q), rel_tol=1e-12)
    assert math.isclose(r.A2, -(q * q), rel_tol=1e-12)


@given(a3=positive, hbar_c=positive)
def test_reduction_scale_consistency(a3, hbar_c):
    # A2 = -q^2 with q = a3/hbar_c, whatever the scales.
    r = _reduction(PhysicalParams(a1=0.0, a2=1.0, a3=a3, mass=1.0, hbar_c=hbar_c))
    assert math.isclose(math.sqrt(-r.A2) * hbar_c / a3, 1.0, rel_tol=1e-12)


def test_A1_equals_q_times_A3():
    p = PhysicalParams(a1=0.1, a2=0.1, a3=0.1, mass=0.5)
    r = _reduction(p)
    assert math.isclose(r.A1, p.Q * p.a3 * r.A3, rel_tol=1e-14)
