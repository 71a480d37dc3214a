"""Parameter validation and the dimensionless reduction."""

import math

import pytest
from hypothesis import given, strategies as st

from kgconfine.errors import DegenerateReduction, DomainError
from kgconfine.params import (
    PhysicalParams,
    scaled_coordinate,
    to_dimensionless,
)

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


def test_a1_may_be_negative():
    p = PhysicalParams(a1=-3.0, a2=1.0, a3=1.0, mass=1.0)
    assert p.a1 == -3.0


def test_q_is_inverse_hbar_c():
    assert PhysicalParams(a1=0, a2=1, a3=1, mass=1, hbar_c=4.0).Q == 0.25


def test_dimensionless_reduction_q1():
    p = PhysicalParams(a1=0.0, a2=1.0, a3=1.0, mass=0.0)
    d = to_dimensionless(p)
    assert d.q == 1.0
    assert d.eps == 1.0
    assert d.sigma1 == 2.0
    assert math.isclose(d.sigma2, 3.0 + math.sqrt(5.0), rel_tol=1e-15)
    assert d.A2 == -1.0
    assert math.isclose(d.p, 0.5 + 0.5 * math.sqrt(5.0), rel_tol=1e-15)


def test_a3_zero_raises_degenerate_reduction():
    with pytest.raises(DegenerateReduction):
        to_dimensionless(PhysicalParams(a1=0.0, a2=1.0, a3=0.0, mass=1.0))


@given(q=st.floats(min_value=1e-3, max_value=1e3))
def test_sigma2_identity(q):
    # sigma2 - 2 - 1/q = sqrt(1+4q^2)/q > 0
    p = PhysicalParams(a1=0.0, a2=1.0, a3=q, mass=0.5)
    d = to_dimensionless(p)
    lhs = d.sigma2 - 2.0 - 1.0 / q
    rhs = math.sqrt(1.0 + 4.0 * q * q) / q
    assert lhs > 0.0
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


@given(q=st.floats(min_value=1e-3, max_value=1e3))
def test_p_from_A2(q):
    # p = 1/2 + sqrt(1 - 4*A2)/2 with A2 = -q^2 collapses to a q-only form.
    d = to_dimensionless(PhysicalParams(a1=0.2, a2=2.0, a3=q, mass=1.0))
    assert math.isclose(d.p, 0.5 + 0.5 * math.sqrt(1.0 + 4.0 * q * q), rel_tol=1e-12)
    assert math.isclose(d.A2, -(q * q), rel_tol=1e-12)


@given(a3=positive, hbar_c=positive)
def test_reduction_scale_consistency(a3, hbar_c):
    # q * hbar_c / a3 = 1 by definition, whatever the scales.
    d = to_dimensionless(PhysicalParams(a1=0.0, a2=1.0, a3=a3, mass=1.0, hbar_c=hbar_c))
    assert math.isclose(d.q * hbar_c / a3, 1.0, rel_tol=1e-12)


def test_A1_equals_q_times_A3():
    d = to_dimensionless(PhysicalParams(a1=0.1, a2=0.1, a3=0.1, mass=0.5))
    assert math.isclose(d.A1, d.q * d.A3, rel_tol=1e-14)


def test_scaled_coordinate_examples():
    p1 = PhysicalParams(a1=0.0, a2=1.0, a3=1.0, mass=1.0)
    assert scaled_coordinate(0.0, p1) == 0.0
    assert math.isclose(scaled_coordinate(-2.0, p1), 2.0, rel_tol=1e-15)
    p4 = PhysicalParams(a1=0.0, a2=4.0, a3=1.0, mass=1.0)
    assert math.isclose(scaled_coordinate(1.0, p4), 2.0, rel_tol=1e-15)
    with pytest.raises(DomainError):
        scaled_coordinate(math.inf, p1)
