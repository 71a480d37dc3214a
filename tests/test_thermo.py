"""Partition function (direct and Euler-MacLaurin) and thermal functions.

Frozen first-run regression constants:
    Z_direct(mbar=1, q=1, tol=1e-12) = 3.8243420863368374
    Z_em(mbar=1, q=1, order=2)       = 3.8243292994287197
    Z_em(mbar=1, q=1, order=1)       = 3.8246636133081386
"""

import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgconfine import cli, thermo
from kgconfine.errors import ConfigError, DomainError, TruncationFailure

Z_DIRECT_11 = 3.8243420863368374
Z_EM_11_O2 = 3.8243292994287197
Z_EM_11_O1 = 3.8246636133081386

q_strategy = st.floats(min_value=0.05, max_value=20.0)
mbar_strategy = st.floats(min_value=0.05, max_value=50.0)


def test_sigma_constants_examples():
    s1, s2 = thermo.sigma_constants(1.0)
    assert s1 == 2.0
    assert math.isclose(s2, 3.0 + math.sqrt(5.0), rel_tol=1e-15)
    s1, s2 = thermo.sigma_constants(0.5)
    assert s1 == 4.0
    assert math.isclose(s2, 4.0 + 2.0 * math.sqrt(2.0), rel_tol=1e-15)


def test_sigma_constants_large_q_limit():
    s1, s2 = thermo.sigma_constants(1e8)
    assert s1 == pytest.approx(0.0, abs=1e-7)
    assert s2 == pytest.approx(4.0, rel=1e-7)


def test_sigma_constants_rejects_nonpositive():
    # Past q ~ 6.7e153 sqrt(1 + 4q^2) overflows, below q ~ 1.1e-308 2/q does.
    for bad in (0.0, -1.0, math.inf, math.nan, 7e153, 1e200, 1e-308, 5e-324):
        with pytest.raises(DomainError):
            thermo.sigma_constants(bad)
    for edge in (6e153, 1.2e-308):
        assert all(map(math.isfinite, thermo.sigma_constants(edge)))


def test_closed_integral_examples():
    assert math.isclose(thermo.closed_integral(1.0, 1.0, 0.0), 2.0, rel_tol=1e-15)
    assert math.isclose(thermo.closed_integral(2.0, 1.0, 1.0),
                        1.5 * math.exp(-2.0), rel_tol=1e-14)
    assert math.isclose(thermo.closed_integral(1.0, 2.0, 4.0),
                        3.0 * math.exp(-2.0), rel_tol=1e-14)


def test_closed_integral_domain():
    with pytest.raises(DomainError):
        thermo.closed_integral(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        thermo.closed_integral(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        thermo.closed_integral(1.0, 1.0, -0.5)
    # Non-finite inputs: 0 * inf would give NaN, and beta2 = inf a plain 0.
    for args in ((1.0, 1.0, math.inf), (math.inf, 1.0, 1.0), (1.0, 1.0, math.nan),
                 (1.0, math.inf, 1.0), (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0)):
        with pytest.raises(DomainError):
            thermo.closed_integral(*args)


def test_closed_integral_at_the_ends_of_the_float_range():
    # A value below the float range is 0.0 and one past it a DomainError,
    # not the OverflowError, ZeroDivisionError or inf of a factor of the
    # formula (beta1**2, 2/(beta1**2 beta2)) that leaves the range.  A value
    # in range whose factor beta1**2 overflows comes from its logarithm.
    assert thermo.closed_integral(1e200, 2.0, 6.0) == 0.0
    for args in ((1e-200, 2.0, 6.0), (1.0, 1e-320, 1.0)):
        with pytest.raises(DomainError, match="past the float range"):
            thermo.closed_integral(*args)
    assert math.isclose(thermo.closed_integral(1e155, 1e-300, 0.0), 2e-10, rel_tol=1e-12)
    # beta1*sqrt(beta3) itself overflows: exp(-inf) is 0, whatever the prefactor.
    assert thermo.closed_integral(1e200, 1.0, 1e300) == 0.0


TINY_Q = 1e-200


@pytest.mark.parametrize("mbar", [1e157, 1e159, 1e161, 3e161, 1e162, 1e170])
def test_tails_keep_their_digits_where_b_squared_is_subnormal(mbar):
    # b = 1/mbar, and b*b is subnormal past mbar ~ 6.7e153 and 0 past ~1e162,
    # while Z ~ q mbar^2 is far inside the float range.  The direct sum's
    # tail prefactor 2/(b^2 sigma1) and closed_integral's 2/(beta1^2 beta2)
    # lost up to 12% there, and from 1e162 the direct sum raised.  At q =
    # 1e-200 every level weight has a derivative below ~1e-57, so the
    # Euler-MacLaurin sum through B2, with 50-digit arithmetic, is Z to ~1e-170.
    s1, s2 = thermo.sigma_constants(TINY_Q)
    with mp.workdps(50):
        b, S1, e0 = 1 / mp.mpf(mbar), mp.mpf(s1), mp.sqrt(s2)
        integral = 2 / (b * b * S1) * (1 + b * e0)  # from level 0, times e^{b E_0}
        z_ref = integral + mp.mpf(1) / 2 + b * S1 / (24 * e0)
        closed_ref = integral * mp.exp(-b * e0)
    z = thermo.partition_direct(mbar, TINY_Q, 1e-12).Z
    assert abs(z / z_ref - 1) < 1e-15
    # closed_integral divides by beta1 one factor at a time, so its product
    # stays in the float range there and takes no logarithm.
    assert abs(thermo.closed_integral(1.0 / mbar, s1, s2) / closed_ref - 1) < 1e-12


def test_closed_integral_against_quadrature():
    quad = pytest.importorskip("scipy.integrate").quad
    for b1 in (0.5, 1.0, 2.0):
        for b2 in (0.5, 1.0, 3.0):
            for b3 in (0.0, 1.0, 4.0):
                numeric, err = quad(
                    lambda n: math.exp(-b1 * math.sqrt(b2 * n + b3)),
                    0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200,
                )
                exact = thermo.closed_integral(b1, b2, b3)
                assert math.isclose(numeric, exact, rel_tol=1e-10)


def test_partition_direct_frozen_value():
    point = thermo.partition_direct(1.0, 1.0, 1e-12)
    assert math.isclose(point.Z, Z_DIRECT_11, rel_tol=1e-12)
    assert point.terms and point.terms > 0
    assert point.method == "direct"


def test_partition_direct_ground_state_dominance():
    z = thermo.partition_direct(0.01, 1.0, 1e-12).Z
    assert z >= 1.0
    assert z - 1.0 < 1e-12


def test_partition_direct_monotone_in_mbar():
    assert (thermo.partition_direct(2.0, 1.0).Z
            > thermo.partition_direct(1.0, 1.0).Z)


@given(mbar=st.floats(min_value=0.05, max_value=10.0),
       q=st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=30, deadline=None)
def test_partition_direct_at_least_one(mbar, q):
    # Term budget comfortably covers this box; huge q*mbar**2 would not fit.
    assert thermo.partition_direct(mbar, q, 1e-10).Z >= 1.0


def test_partition_direct_tolerance_is_honest():
    for mbar in (5.0, 50.0):
        loose = thermo.partition_direct(mbar, 1.0, 1e-6)
        tight = thermo.partition_direct(mbar, 1.0, 1e-14)
        assert abs(loose.Z - tight.Z) / tight.Z < 1e-5
        assert 0.0 < loose.tail_bound < 1e-6 * loose.Z
        assert abs(loose.Z - tight.Z) <= loose.tail_bound
    # At mbar = 50 both sums stop on the Euler-MacLaurin tail after a short head.
    assert loose.terms < 100 and tight.terms < 100


def test_partition_direct_tol_floor():
    # Z is one float64, so no tol below 2^-53 can be met: it is refused, and
    # at the floor itself the head stays short.
    with pytest.raises(DomainError, match=r"at least 2\*\*-53"):
        thermo.partition_direct(1.0, 1.0, 1e-17)
    assert thermo.partition_direct(1.0, 1.0, 2.0**-53).terms <= 224


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("mbar", [0.5, 5.0, 50.0])
def test_partition_direct_matches_plain_sum(mbar, q):
    # Enough levels for the omitted tail to fall below 1e-17 of the sum.
    s1, s2 = thermo.sigma_constants(q)
    n_max = int(((45.0 * mbar + math.sqrt(s2)) ** 2 - s2) / s1)
    n = np.arange(0, n_max, dtype=float)
    reference = float(np.sum(np.exp(-(np.sqrt(s1 * n + s2) - math.sqrt(s2)) / mbar)))
    assert math.isclose(thermo.partition_direct(mbar, q, 1e-14).Z, reference, rel_tol=1e-12)


@pytest.mark.parametrize("mbar", [1e3, 1e5])
def test_partition_direct_converges_at_high_mbar(mbar):
    # The order-2 closed form's dropped B6 term is below 1e-15 relative here.
    for q in (0.5, 1.0, 1.5):
        point = thermo.partition_direct(mbar, q, 1e-12)
        assert point.terms < 1000
        assert math.isclose(point.Z, thermo.partition_em(mbar, q).Z, rel_tol=1e-12)


@pytest.mark.parametrize("tol, heads", [(1e-10, {32}), (1e-14, {32, 96})])
def test_direct_head_budget(tol, heads):
    # Heads run 32, 96, 224, ... levels.  Over q in [0.05, 20] and mbar in
    # [0.01, 1e5] every point stops after the first or second chunk, on an
    # Euler-MacLaurin tail whose bound is within tol.
    cols = thermo.sweep("direct", np.geomspace(0.01, 1e5, 301), np.geomspace(0.05, 20.0, 9),
                        tol=tol)
    assert cols.failures == {}
    assert set(cols.terms.tolist()) <= heads
    assert np.all(cols.tail_bound <= tol * cols.Z_direct)


@pytest.mark.parametrize("mbar", [0.3, 0.5, 20.0, 100.0])
def test_thermal_functions_direct_heat_capacity_matches_moments(mbar):
    # The kernel's C sits on moment sums that end in the Euler-MacLaurin
    # tail, taken after the first chunk of 32 levels even at mbar = 0.3 and
    # 0.5, where the summand still falls by e^-0.40 and e^-0.24 per level at
    # level 32; it must match the fluctuation identity from the brute-force
    # moment sums, which share no code with the kernel.
    q = 1.0
    _, m1, m2 = thermo.excitation_moments(mbar, q, 1e-12)
    c_fluct = (m2 - m1 * m1) / (mbar * mbar)
    point = thermo.thermal_functions("direct", mbar, q)
    assert point.terms == thermo.DIRECT_EM_MIN_N
    assert math.isclose(point.C, c_fluct, rel_tol=1e-5)


# ----------------------------------------------- scalar reference loop
# The direct sum as it was written before the batched kernel: one point, a
# numpy chunk per round, the tail tests in scalar math.  It is kept here as
# the reference the kernel's Z must reproduce, and, through a five-point
# finite-difference stencil in ln mbar, as an independent check of the
# kernel's U and C.

# Step (in ln mbar) of the stencil, and the tolerance of the sums under it.
FD_STEP = 1e-4
FD_TOL = 1e-14
# Where Z rounds to about 1, each ln Z of the stencil carries an absolute
# rounding error of about 2**-52, which the stencil amplifies by at most
# 18/(12 h) in L' and 64/(12 h^2) in L''.  This is the reference's own
# error floor: U = mbar L' is compared within FD_FLOOR_U * mbar, and
# C = L' + L'' within FD_FLOOR_C.
FD_FLOOR_U = 18 * 2.0**-52 / (12 * FD_STEP)
FD_FLOOR_C = FD_FLOOR_U + 64 * 2.0**-52 / (12 * FD_STEP**2)


def _ref_tail_integral(b, s1, s2, n):
    u = math.sqrt(s1 * n + s2)
    return (2.0 / (b * b * s1)) * math.exp(-b * (u - math.sqrt(s2))) * (1.0 + b * u)


def _ref_summand_derivative(m, b, s1, x, fx):
    r = b * s1 / (2.0 * math.sqrt(x))
    t = s1 / (4.0 * x)
    acc = 0.0
    weight = 1
    for k in range(m):
        acc += weight * r ** (m - k) * t**k
        weight = weight * (m + k) * (m - 1 - k) // (k + 1)
    return (-1) ** m * fx * acc


def _ref_em_tail(b, s1, s2, n):
    x = s1 * n + s2
    fx = math.exp(-b * (math.sqrt(x) - math.sqrt(s2)))
    tail = _ref_tail_integral(b, s1, s2, n) + 0.5 * fx
    correction = [
        thermo.BERNOULLI[i] / math.factorial(2 * i)
        * _ref_summand_derivative(2 * i - 1, b, s1, x, fx)
        for i in (1, 2, 3, 4)
    ]
    return tail - sum(correction[:3]), abs(correction[3])


def _ref_partition_direct(mbar, q, tol):
    # Returns (Z, terms); raises TruncationFailure past DIRECT_N_MAX.
    s1, s2 = thermo.sigma_constants(q)
    b = 1.0 / mbar
    e0 = math.sqrt(s2)
    total = 0.0
    n_done = 0
    chunk = thermo.DIRECT_EM_MIN_N
    while n_done <= thermo.DIRECT_N_MAX:
        hi = min(n_done + chunk, thermo.DIRECT_N_MAX + 1)
        n = np.arange(n_done, hi, dtype=float)
        total += float(np.sum(np.exp(-b * (np.sqrt(s1 * n + s2) - e0))))
        n_done = hi
        tail, bound = _ref_em_tail(b, s1, s2, n_done)
        if bound < tol * (total + tail):
            return total + tail, n_done
        chunk = min(chunk * 2, 1 << 20)
    raise TruncationFailure("reference sum did not converge", total, thermo.DIRECT_N_MAX)


def _ref_thermal_direct(mbar, q, tol):
    # (U, C) from the five-point ln-mbar stencil over the reference loop.
    t = math.log(mbar)
    h = FD_STEP
    fd_tol = min(tol, FD_TOL)
    L = [math.log(_ref_partition_direct(math.exp(t + j * h), q, fd_tol)[0])
         for j in (-2, -1, 0, 1, 2)]
    lp = (8.0 * (L[3] - L[1]) - (L[4] - L[0])) / (12.0 * h)
    lpp = (-L[4] + 16.0 * L[3] - 30.0 * L[2] + 16.0 * L[1] - L[0]) / (12.0 * h * h)
    return mbar * lp, lp + lpp


REFERENCE_MBAR = np.geomspace(0.01, 1e5, 40)


@pytest.mark.parametrize("tol", [1e-10, 1e-14])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_kernel_matches_reference_loop(q, tol):
    # Z: the kernel evaluates the tail with np.exp and array powers where the
    # loop used math.exp and float powers, so the Z-only sums, which stop
    # where the loop does, may differ in the last ulps (1e-14 relative
    # allowed).  The moment sums may run on past that level; both they and
    # the loop are within tol of the true Z.  U and C come from the moment
    # sums, and the stencil over the loop checks them to 1e-10 and 1e-6
    # relative, or to its own rounding floor where Z is about 1.
    both = thermo.sweep("both", REFERENCE_MBAR, q, tol=tol)
    cols = thermo.sweep("direct", REFERENCE_MBAR, q, tol=tol)
    for i, mbar in enumerate(REFERENCE_MBAR.tolist()):
        z_ref, terms_ref = _ref_partition_direct(mbar, q, tol)
        point = thermo.partition_direct(mbar, q, tol)
        assert point.terms == terms_ref == both.terms[i]
        assert math.isclose(point.Z, z_ref, rel_tol=1e-14)
        assert math.isclose(both.Z_direct[i], z_ref, rel_tol=1e-14)
        assert math.isclose(cols.Z_direct[i], z_ref, rel_tol=2 * tol)
        u_ref, c_ref = _ref_thermal_direct(mbar, q, tol)
        direct = thermo.thermal_functions("direct", mbar, q, tol=tol)
        for u, c in ((direct.U, direct.C), (cols.U[i], cols.C[i])):
            assert math.isclose(u, u_ref, rel_tol=1e-10, abs_tol=FD_FLOOR_U * mbar)
            assert math.isclose(c, c_ref, rel_tol=1e-6, abs_tol=FD_FLOOR_C)


def test_one_kernel_call_per_cli_sweep(monkeypatch, tmp_path):
    # A CLI sweep runs every (q, mbar) point as one row of a single kernel
    # call, and a point whose sum overflows costs that one row.
    calls = []
    kernel = thermo._direct_sums

    def counting(b, which, ladder, tol, moments):
        calls.append((b.size, moments))
        return kernel(b, which, ladder, tol, moments)

    monkeypatch.setattr(thermo, "_direct_sums", counting)
    for method, moments in (("direct", 3), ("both", 1)):
        calls.clear()
        assert cli.main(["thermo", "--method", method, "--q", "0.5,1,1.5", "--steps", "7",
                         "--out", str(tmp_path / "t.csv")]) == 0
        assert calls == [(21, moments)]
    calls.clear()
    cols = thermo.sweep("direct", [0.01, 1e149, 1e300], 1.0)
    assert calls == [(3, 3)]
    assert list(cols.failures) == [2] and cols.Z_direct[0] == 1.0
    assert "not finite" in str(cols.failures[2])
    assert math.isinf(cols.Z_direct[2]) and math.isnan(cols.C[2])


def test_rounds_over_several_blocks_match_one_block(monkeypatch):
    # With _BLOCK = 96 a 32-level round runs 3 rows per block, and a longer
    # one a row at a time.  The grid's heads are 32 and 96 levels, and its
    # blocks split a q or hold two; the columns must not depend on how the
    # rows are blocked.
    mbar, q = np.geomspace(0.05, 50.0, 7), [0.3, 1.0, 4.0]

    def bits(method):
        cols = thermo.sweep(method, mbar, q, tol=1e-14)
        names = ("Z_direct", "F", "U", "C", "terms", "tail_bound")
        return [getattr(cols, name).tobytes() for name in names] + [repr(cols.failures)]

    assert set(thermo.sweep("direct", mbar, q, tol=1e-14).terms.tolist()) == {32, 96}
    one_block = {method: bits(method) for method in ("direct", "both")}
    monkeypatch.setattr(thermo, "_BLOCK", 96)
    for method, want in one_block.items():
        assert bits(method) == want, method


# ----------------------------------------------- moment sums at 30 digits
# Points (mbar, q) whose moment sums, at tol = 1e-12, stop on the
# Euler-MacLaurin tail: (1.0, 1.0) and (0.2357, 5.0) after a 96-level head,
# the others after 32 levels.  At (0.05, 1.0) and (0.3, 0.5) the tail is a
# tiny fraction of the sum; at (0.5, 1.0) the summand still falls by e^-0.24
# per level at level 32, where the tail is taken.  At (5e-5, 1e4) and
# (5e-9, 1e8) E_1 - E_0 is 1e-4 and 1e-8 of E_0, so forming it as a
# difference of the two would lose 4 and 8 digits.
MOMENT_POINTS = ((0.05, 1.0), (0.3, 0.5), (1.0, 1.0), (3.0, 0.05), (50.0, 0.4),
                 (300.0, 1.6), (0.2357, 5.0), (0.5, 1.0), (5e-5, 1e4), (5e-9, 1e8))


@functools.cache
def _mp_moments(mbar, q):
    """M_k = sum_n y_n^k exp(-y_n), y_n = (E_n - E_0)/(eps mbar), k = 0, 1, 2.

    At 35 digits, from the paper's ladder (E_n/eps)^2 = sigma2 + sigma1 n:
    an exact head up to a level n >= 64 where b*sigma1/(2E) <= 1/16, then
    mpmath's quadrature and numerical derivatives for the Euler-MacLaurin
    tail through B10, whose next term is below 1e-30 of the sum there.
    """
    with mp.workdps(35):
        q = mp.mpf(q)
        b = 1 / mp.mpf(mbar)
        s1 = 2 / q
        s2 = 2 + (1 + mp.sqrt(1 + 4 * q * q)) / q
        e0 = mp.sqrt(s2)

        def y(n):
            return b * (mp.sqrt(s1 * n + s2) - e0)

        sums = [mp.mpf(0)] * 3
        n = 0
        while n < 64 or b * s1 / (2 * mp.sqrt(s1 * n + s2)) > mp.mpf(1) / 16:
            yn = y(n)
            sums = [s + yn**k * mp.exp(-yn) for k, s in enumerate(sums)]
            n += 1
            if yn > 100 and mp.exp(-yn) < mp.mpf(10) ** -60:
                return sums
        for k in range(3):
            def f(x, k=k):
                return y(x) ** k * mp.exp(-y(x))

            d = list(mp.diffs(f, n, 11))
            sums[k] += mp.quad(f, [n, mp.inf]) + d[0] / 2 - mp.fsum(
                mp.bernoulli(2 * j) / mp.factorial(2 * j) * d[2 * j - 1] for j in range(1, 6))
        return sums


def _kernel(mbar, q, tol):
    # (M_k, bounds on their errors, converged) from one kernel row; the
    # kernel holds M_k/(k+1)!.
    sums, terms, bounds = thermo._direct_sums(
        np.array([1.0 / mbar]), np.zeros(1, dtype=np.intp), thermo._Ladder(q), tol, 3)
    scale = np.array([1.0, 2.0, 6.0])
    return sums[:, 0] * scale, bounds[:, 0] * scale, terms[0] > 0


@pytest.mark.parametrize("mbar,q,tol", [
    *(pytest.param(mbar, q, 1e-12, id=f"{mbar}-{q}") for mbar, q in MOMENT_POINTS),
    *(pytest.param(mbar, q, 1e-10, id=f"{mbar}-{q}-1e-10") for mbar, q in MOMENT_POINTS),
])
def test_moments_match_30_digit_sums(mbar, q, tol):
    # Every sum keeps its tail, so at 1e-10, the CLI default, as at 1e-12
    # the moments and U and C hold far more digits than tol asks for.
    sums, _, converged = _kernel(mbar, q, tol)
    assert converged
    exact = _mp_moments(mbar, q)
    for k in range(3):
        assert math.isclose(sums[k], exact[k], rel_tol=1e-13)
    u, c = mbar * exact[1] / exact[0], exact[2] / exact[0] - (exact[1] / exact[0]) ** 2
    point = thermo.thermal_functions("direct", mbar, q, tol=tol)
    assert math.isclose(point.Z, exact[0], rel_tol=1e-13)
    assert math.isclose(point.U, u, rel_tol=1e-13)
    assert math.isclose(point.C, c, rel_tol=1e-13)


@pytest.mark.parametrize("tol", [1e-3, 1e-8])
def test_moment_bounds_cover_their_errors(tol):
    # Each moment's bound covers its truncation error; 1e-14 of the sum
    # allows for rounding, which reaches 6e-16 of it here.  The check has
    # teeth where a bound lies far above that allowance: for k >= 1 at
    # (1.0, 1.0) (its k = 0 bound is at the rounding level).  At (0.3, 0.5)
    # the kept tail leaves no more than rounding, however loose the tol.
    margin = {}
    for mbar, q in MOMENT_POINTS:
        sums, bounds, converged = _kernel(mbar, q, tol)
        assert converged
        exact = _mp_moments(mbar, q)
        for k in range(3):
            error = abs(mp.mpf(sums[k]) - exact[k])
            allowance = 1e-14 * sums[k]
            assert 0.0 <= bounds[k] <= tol * sums[k]
            assert error <= bounds[k] + allowance
            margin[mbar, q, k] = bounds[k] / allowance
            if (mbar, q) == (0.3, 0.5):
                assert error <= allowance
    assert all(margin[1.0, 1.0, k] > 10.0 for k in (1, 2))


# Rows (mbar, q) of one Euler-MacLaurin tail call from level EM_TAIL_N.  The
# summand's step b*sigma1/(2E_N) is at most 0.09 on the first four rows and
# 0.17 on the last.
EM_TAIL_N = 64
EM_TAIL_ROWS = ((2.0, 0.4), (1.0, 1.0), (20.0, 1.0), (300.0, 1.6), (0.5, 1.0))


def test_em_tails_match_30_digit_truncation():
    # The tails' corrections use the summands' n-derivatives of orders 1, 3
    # and 5, and the k = 0 bound that of order 7; mpmath's numerical
    # derivatives of the same summands g_k = y^k exp(-y)/(k+1)! check all four.
    qs = (0.4, 1.0, 1.6)
    ladder = thermo._Ladder(*qs)
    s1, s2 = ladder.s1, ladder.s2
    which = np.array([qs.index(q) for _, q in EM_TAIL_ROWS])
    b = np.array([1.0 / mbar for mbar, _ in EM_TAIL_ROWS])
    n = EM_TAIL_N
    tails, bounds = thermo._em_tails(n, b, which, ladder, 3)
    with mp.workdps(30):
        for row, i in enumerate(which.tolist()):
            beta, c1, c2 = mp.mpf(b[row]), mp.mpf(s1[i]), mp.mpf(s2[i])

            def y(x):
                return beta * (mp.sqrt(c1 * x + c2) - mp.sqrt(c2))

            for k in range(3):
                def g(x, k=k):
                    return y(x) ** k * mp.exp(-y(x)) / mp.factorial(k + 1)

                d = list(mp.diffs(g, n, 7))
                want = mp.quad(g, [n, mp.inf]) + d[0] / 2 - mp.fsum(
                    mp.bernoulli(2 * j) / mp.factorial(2 * j) * d[2 * j - 1] for j in (1, 2, 3))
                assert abs(tails[k, row] - want) <= 1e-13 * want
                if k == 0:
                    omitted = abs(mp.bernoulli(8) / mp.factorial(8) * d[7])
                    assert abs(bounds[0, row] - omitted) <= 1e-10 * omitted


def test_sweep_columns_match_point_calls():
    grid = np.geomspace(0.3, 300.0, 12)
    for q in (0.5, 1.5):
        both = thermo.sweep("both", grid, q, tol=1e-10)
        em = thermo.sweep("em", grid, q)
        assert both.failures == em.failures == {}
        for i, mbar in enumerate(grid.tolist()):
            direct = thermo.partition_direct(mbar, q, 1e-10)
            assert (both.Z_direct[i], both.terms[i]) == (direct.Z, direct.terms)
            point = thermo.thermal_functions("em", mbar, q)
            for cols in (both, em):
                for got, want in zip((cols.Z_em[i], cols.F[i], cols.U[i], cols.C[i]),
                                     (point.Z, point.F, point.U, point.C)):
                    assert math.isclose(got, want, rel_tol=1e-15)


@pytest.mark.parametrize("call, thermal, direct", [
    (lambda: thermo.partition_direct(2.0, 1.0), False, True),
    (lambda: thermo.partition_em(2.0, 1.0), False, False),
    (lambda: thermo.thermal_functions("direct", 2.0, 1.0), True, True),
    (lambda: thermo.thermal_functions("em", 2.0, 1.0), True, False),
])
def test_point_results_fill_their_own_fields(call, thermal, direct):
    # Each one-point call sets exactly the fields its route computes.
    point = call()
    assert point.mbar == 2.0 and type(point.Z) is float
    assert point.method == ("direct" if direct else "em")
    for value in (point.F, point.U, point.C):
        assert type(value) is float if thermal else value is None
    if direct:
        assert type(point.terms) is int and type(point.tail_bound) is float
    else:
        assert point.terms is None and point.tail_bound is None


def test_q_array_sweep_matches_per_q_calls():
    # One call over an array of q gives, q-major, the very bits of one call
    # per q, whatever the other rows of the kernel are.
    grid = np.geomspace(0.05, 1e4, 37)
    qs = [0.3, 1.0, 0.77, 5.0]
    for method in ("both", "em", "direct"):
        cols = thermo.sweep(method, grid, qs, tol=1e-10)
        for j, q in enumerate(qs):
            one = thermo.sweep(method, grid, q, tol=1e-10)
            part = slice(j * grid.size, (j + 1) * grid.size)
            for name in ("Z_direct", "Z_em", "F", "U", "C", "terms", "tail_bound"):
                got, want = getattr(cols, name), getattr(one, name)
                assert (got is None) == (want is None)
                if got is not None:
                    np.testing.assert_array_equal(got[part], want)
            assert ({i - part.start: repr(e) for i, e in cols.failures.items()
                     if part.start <= i < part.stop}
                    == {i: repr(e) for i, e in one.failures.items()})


def test_sweep_rejects_bad_input():
    for grid in ([], [[1.0, 2.0]], [1.0, 0.0], [1.0, math.inf], [math.nan], [1e-310, 1.0]):
        with pytest.raises(DomainError):
            thermo.sweep("em", grid, 1.0)
    with pytest.raises(DomainError):
        thermo.sweep("direct", [1.0], 1.0, tol=0.0)
    with pytest.raises(ConfigError):
        thermo.sweep("moments", [1.0], 1.0)
    for q in ([], [[1.0]], [1.0, 0.0], [math.nan]):
        with pytest.raises(DomainError):
            thermo.sweep("direct", [1.0], q)


def test_overflowing_temperature_is_a_domain_error():
    # Past mbar ~ 1e154 the partition function ~ q*mbar^2 overflows a float:
    # every scalar route raises DomainError instead of returning inf/NaN or
    # letting an untyped error or a numpy warning through.
    calls = (
        lambda: thermo.partition_direct(1e300, 1.0, 1e-10),
        lambda: thermo.thermal_functions("direct", 1e300, 1.0),
        lambda: thermo.partition_em(1e300, 1.0),
        lambda: thermo.thermal_functions("em", 1e300, 1.0),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError, match="not finite at mbar=1e\\+300"):
                call()


def test_sweep_reports_non_finite_points_as_errors():
    grid = np.array([1e150, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        direct = thermo.sweep("direct", grid, 1.0, tol=1e-10)
        both = thermo.sweep("both", grid, 1.0, tol=1e-10)
        em = thermo.sweep("em", grid, 1.0)
    # mbar = 1e150 still fits both routes (Z ~ 1e300); only mbar = 1e300
    # overflows.
    for cols in (direct, both, em):
        assert 0 not in cols.failures
        assert all(math.isfinite(c[0]) for c in (cols.F, cols.U, cols.C))
        assert math.isclose(cols.C[0], 2.0, rel_tol=1e-4)
    for cols in (direct, both, em):
        assert isinstance(cols.failures[1], DomainError)
        assert "not finite" in str(cols.failures[1])


def test_em_route_is_finite_up_to_the_overflow_of_z():
    # U and C come from Z'/Z and Z''/Z, so no intermediate overflows before
    # Z ~ q*mbar^2 itself does (past mbar ~ 1e154).
    grid = np.geomspace(1e30, 1e150, 25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = thermo.sweep("em", grid, 1.0)
        point = thermo.thermal_functions("em", 1e150, 1.0)
    assert cols.failures == {}
    assert np.allclose(cols.U, 2.0 * grid, rtol=1e-12)
    assert np.allclose(cols.C, 2.0, rtol=1e-12)
    assert (point.Z, point.U, point.C) == (cols.Z_em[-1], cols.U[-1], cols.C[-1])
    assert thermo.partition_em(1e110, 1.0).Z == pytest.approx(1e220, rel=1e-12)


def test_em_route_overflows_where_the_direct_route_does():
    # For q = 2/sigma1 < 1 a bare mbar^2 overflows before Z ~ q*mbar^2 does;
    # the closed form must stay finite on every point where the direct sum is.
    # At q = 1e-200 a product that forms mbar^2 first overflows from mbar ~
    # 1.3e154, while Z stays finite up to mbar ~ 1e254.
    cases = [(q, np.geomspace(1e153, 2e154, 40)) for q in (0.25, 0.5, 0.9, 2.0)]
    cases.append((TINY_Q, np.geomspace(1e153, 1e255, 60)))
    for q, grid in cases:
        em = thermo.sweep("em", grid, q)
        direct = thermo.sweep("direct", grid, q, tol=1e-10)
        assert em.failures.keys() == direct.failures.keys()
    z = thermo.partition_em(1.5e154, 0.5).Z
    assert z == pytest.approx(thermo.partition_direct(1.5e154, 0.5).Z, rel=1e-12)
    for mbar in (2.7e154, 1e160, 1e253):
        ref = thermo.thermal_functions("direct", mbar, TINY_Q)
        for order in (1, 2):
            point = thermo.thermal_functions("em", mbar, TINY_Q, order)
            assert abs(point.Z / ref.Z - 1) <= 1e-15
            assert abs(point.U / ref.U - 1) <= 1e-15
            assert point.C == 2.0


@pytest.mark.parametrize("mbar", [1e-120, 6e-309])
@pytest.mark.parametrize("q", [1e-6, 1.0, 1e12])
def test_direct_route_at_vanishing_temperature(mbar, q):
    # Every excited weight underflows to 0 while b*v and z^k/k! overflow:
    # the first chunk gives Z = 1 and U = C = 0, with no 0*inf on the way.
    # The brute-force reference gives the same (Z, <v>, <v^2>), with no
    # overflow of b^(k+1) in its tail bounds.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = thermo.thermal_functions("direct", mbar, q)
        moments = thermo.excitation_moments(mbar, q)
    assert (point.Z, point.U, point.C, point.terms) == (1.0, 0.0, 0.0, 32)
    assert moments == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("q", [1e-6, 1.0, 1e12])
def test_direct_sweep_from_the_smallest_mbar(q):
    # From the smallest mbar whose reciprocal is finite up to overflow, the
    # cold rows stop at their first chunk and only the rows whose Z
    # overflows fail.
    grid = np.geomspace(5.6e-309, 1e300, 40)
    cols = thermo.sweep("direct", grid, q)
    cold = grid < 1e-100
    assert (cols.Z_direct[cold] == 1.0).all() and (cols.terms[cold] == 32).all()
    for i, err in cols.failures.items():
        assert "not finite" in str(err) and grid[i] > 1e140


def test_cold_point_whose_levels_round_onto_the_ground_state():
    # Above q ~ 2e22 every sqrt(sigma1*n + sigma2) up to n = 1e7 rounds to
    # E_0, so E_n - E_0 formed by subtraction is 0 and no sum ends.  Formed
    # as sigma1*n/(E_n + E_0) it is 5e-31 n here, and b*v_1 = 5e9: Z = 1.
    point = thermo.thermal_functions("direct", 1e-40, 1e30)
    assert (point.Z, point.U, point.C, point.terms) == (1.0, 0.0, 0.0, 32)
    assert thermo.excitation_moments(1e-40, 1e30) == (1.0, 0.0, 0.0)


# The corners of the domain: q from just above the level-energy overflow to
# just below the sigma overflow, mbar from the smallest finite 1/mbar up to
# 1e300, and a denser block around the paper's range.
DOMAIN_CORNERS = ((np.geomspace(1.2e-301, 6e153, 60), np.geomspace(5.6e-309, 1e300, 400)),
                  (np.geomspace(1e-4, 1e4, 20), np.geomspace(1e-3, 1e6, 100)))


def test_direct_sums_end_within_224_levels_at_the_tol_floor():
    # The direct sum has no level cap: at the smallest tol it accepts, every
    # row of the domain stops within 32 + 64 + 128 levels, and the only
    # failures are the overflows of Z ~ q*mbar^2 (or of the terms forming
    # it) at huge mbar.
    for q, mbar in DOMAIN_CORNERS:
        cols = thermo.sweep("direct", mbar, q, tol=2.0**-53)
        assert 32 <= cols.terms.min() and cols.terms.max() <= 224
        for i, err in cols.failures.items():
            assert isinstance(err, DomainError) and "not finite" in str(err)
            assert mbar[i % mbar.size] > 1e75


def _q_entry_points(q, mbar, em_mbar):
    # Every route that takes q, each at an mbar where it computes: the
    # closed form at em_mbar, the others at mbar.
    return {
        "sweep, q first": lambda: thermo.sweep("direct", [mbar], q),
        "sweep, q later": lambda: thermo.sweep("direct", [mbar], [1.0, q]),
        "thermal_functions": lambda: thermo.thermal_functions("direct", mbar, q),
        "partition_direct": lambda: thermo.partition_direct(mbar, q),
        "partition_em": lambda: thermo.partition_em(em_mbar, q),
        "partition_summand": lambda: thermo.partition_summand(mbar, q),
        "excitation_moments": lambda: thermo.excitation_moments(mbar, q),
    }


@pytest.mark.parametrize("q", [2e-307, 1e-301, 7e153])
def test_q_whose_level_energies_overflow_is_rejected(q):
    # Below q ~ 1.1e-301 sigma1 and sigma2 are finite, but sigma1*n + sigma2
    # overflows below the level cap; past q ~ 6.7e153 sigma2 itself does.  No
    # route may sum such levels as if their weight were 0: one domain rule
    # refuses q at every entry point.
    if q < 1.0:
        assert all(map(math.isfinite, thermo.sigma_constants(q)))
    with pytest.raises(ConfigError, match="invalid q"):
        cli.parse_q_list(repr(q))
    for name, call in _q_entry_points(q, 1e160, 1e160).items():
        with pytest.raises(DomainError, match="past the float range"):
            call()
            pytest.fail(f"{name} accepted q={q!r}")


# q just inside the domain, an mbar far below its first gap E_1 - E_0 (the
# direct routes see the ground state alone) and one where the closed form holds.
@pytest.mark.parametrize("q,mbar,em_mbar", [(1.2e-301, 1.0, 1e160), (6e153, 1e-160, 1.0)])
def test_q_just_inside_the_level_range_is_accepted(q, mbar, em_mbar):
    assert cli.parse_q_list(repr(q)) == (q,)
    results = {name: call() for name, call in _q_entry_points(q, mbar, em_mbar).items()}
    for name in ("sweep, q first", "sweep, q later"):
        assert not results[name].failures and results[name].Z_direct[-1] == 1.0
    point = results["thermal_functions"]
    assert (point.Z, point.U, point.C) == (1.0, 0.0, 0.0) and results["partition_direct"].Z == 1.0
    assert 0.0 < results["partition_em"].Z < math.inf
    assert results["excitation_moments"] == (1.0, 0.0, 0.0)


def test_sweep_builds_each_q_ladder_once(monkeypatch):
    # A sweep checks each q and builds its level constants in one pass: the
    # first q is not built again for the grid check or for each route.
    calls = []
    build = thermo.sigma_constants

    def counting(q):
        calls.append(q)
        return build(q)

    monkeypatch.setattr(thermo, "sigma_constants", counting)
    thermo.sweep("both", np.geomspace(0.1, 10.0, 5), [0.5, 1.0])
    assert calls == [0.5, 1.0]


def test_partition_direct_domain():
    # 1/mbar overflows below mbar ~ 5.6e-309.
    for bad in ((0.0, 1.0, 1e-9), (1.0, 0.0, 1e-9), (1.0, 1.0, 0.0), (1e-310, 1.0, 1e-9)):
        with pytest.raises(DomainError):
            thermo.partition_direct(*bad)


def test_partition_em_frozen_values():
    assert math.isclose(thermo.partition_em(1.0, 1.0, 2).Z,
                        Z_EM_11_O2, rel_tol=1e-13)
    assert math.isclose(thermo.partition_em(1.0, 1.0, 1).Z,
                        Z_EM_11_O1, rel_tol=1e-13)


def test_partition_em_matches_printed_truncation():
    # Re-evaluate the four-term closed form directly.
    for mbar, q in ((1.0, 1.0), (3.0, 0.5), (10.0, 1.5)):
        s1, s2 = thermo.sigma_constants(q)
        root = math.sqrt(s2)
        expected = (
            0.5
            + (2.0 * mbar**2 / s1) * (1.0 + root / mbar)
            + s1 / (24.0 * mbar * root)
            - (s1**3 / (5760.0 * mbar * s2**2.5))
            * (3.0 + 3.0 * root / mbar + s2 / mbar**2)
        )
        assert math.isclose(thermo.partition_em(mbar, q).Z, expected, rel_tol=1e-14)


def test_order_2_constant_stays_finite_at_tiny_q():
    # sigma1^3 and sigma2^2.5 both overflow below q ~ 3.6e-103: the order-2
    # constant was inf/inf = NaN there, and every mbar raised.  It is tiny
    # against Z ~ q mbar^2, so both orders and the direct sum agree.
    mbar, q = 1e60, 1e-103
    z2 = thermo.partition_em(mbar, q, 2).Z
    assert math.isclose(z2, thermo.partition_em(mbar, q, 1).Z, rel_tol=1e-15)
    assert math.isclose(z2, thermo.partition_direct(mbar, q).Z, rel_tol=1e-15)
    assert math.isclose(z2, 1.0000000044721357e17, rel_tol=1e-15)


def test_partition_em_large_mbar_leading_term():
    q = 1.0
    s1, _ = thermo.sigma_constants(q)
    z = thermo.partition_em(1e4, q).Z
    assert z / (2.0 * 1e8 / s1) == pytest.approx(1.0, rel=1e-3)


def test_partition_em_domain():
    with pytest.raises(DomainError):
        thermo.partition_em(0.0, 1.0)
    with pytest.raises(DomainError):
        thermo.partition_em(1.0, -2.0)
    # Below its validity range the closed form is negative (Z = -113 here).
    with pytest.raises(DomainError, match="non-positive at mbar=0.01"):
        thermo.partition_em(0.01, 1.0)


def test_partition_em_at_least_half_on_validated_domain():
    for q in (0.5, 1.0, 1.5):
        for mbar in np.geomspace(0.25, 50.0, 40):
            assert thermo.partition_em(float(mbar), q).Z >= 0.5


def test_em_config_validation():
    # The Euler-MacLaurin order is 1 or 2 wherever it is taken, even on the
    # direct route, which does not use it.
    calls = (
        lambda: thermo.partition_em(1.0, 1.0, 3),
        lambda: thermo.thermal_functions("em", 1.0, 1.0, order=3),
        lambda: thermo.thermal_functions("direct", 1.0, 1.0, order=3),
        lambda: thermo.sweep("em", [1.0], 1.0, order=3),
        lambda: thermo.euler_maclaurin_sum(lambda n: 0.0, 0.0, 3, {1: 0.0, 3: 0.0, 5: 0.0}),
    )
    for call in calls:
        with pytest.raises(ConfigError):
            call()


def test_thermal_functions_rejects_unknown_method():
    with pytest.raises(ConfigError, match="'moments'"):
        thermo.thermal_functions("moments", 1.0, 1.0)


def test_euler_maclaurin_geometric_series():
    # f(n) = e^{-n}: exact sum 1/(1-1/e); the order-2 truncation must land
    # within the next (B_6) correction's scale, and beat order 1.
    exact = 1.0 / (1.0 - math.exp(-1.0))
    f = math.exp
    derivs = {1: -1.0, 3: -1.0}
    em2 = thermo.euler_maclaurin_sum(lambda n: f(-n), 1.0, 2, derivs)
    em1 = thermo.euler_maclaurin_sum(lambda n: f(-n), 1.0, 1, derivs)
    assert abs(em2 - exact) < 5e-5
    assert abs(em2 - exact) < abs(em1 - exact)


def test_euler_maclaurin_zero_function():
    assert thermo.euler_maclaurin_sum(lambda n: 0.0, 0.0, 2,
                                      {1: 0.0, 3: 0.0}) == 0.0


def test_euler_maclaurin_rejects_a_non_finite_integral():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="integral must be finite"):
            thermo.euler_maclaurin_sum(lambda n: 0.0, bad, 2, {1: 0.0, 3: 0.0})


def test_euler_maclaurin_missing_derivative():
    with pytest.raises(ConfigError):
        thermo.euler_maclaurin_sum(lambda n: math.exp(-n), 1.0,
                                   2, {1: -1.0})
    with pytest.raises(ConfigError):
        thermo.euler_maclaurin_sum(lambda n: math.exp(-n), 1.0,
                                   1, None)
    # A non-finite derivative would give a NaN or infinite sum.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            thermo.euler_maclaurin_sum(lambda n: math.exp(-n), 1.0, 1, {1: bad})


def test_partition_summand_derivatives_match_finite_differences():
    f, derivs, _ = thermo.partition_summand(1.5, 0.8)
    h = 1e-5
    fd1 = (8.0 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12.0 * h)
    assert math.isclose(derivs[1], fd1, rel_tol=1e-8)
    h = 1e-3
    fd3 = (f(2 * h) - 2.0 * f(h) + 2.0 * f(-h) - f(-2 * h)) / (2.0 * h**3)
    assert math.isclose(derivs[3], fd3, rel_tol=1e-5)


def test_partition_em_equals_generic_path():
    for mbar, q in ((0.5, 0.5), (1.0, 1.0), (4.0, 1.5), (20.0, 1.0)):
        f, derivs, integral = thermo.partition_summand(mbar, q)
        generic = thermo.euler_maclaurin_sum(f, integral, 2, derivs)
        _, s2 = thermo.sigma_constants(q)
        shifted = generic * math.exp(math.sqrt(s2) / mbar)
        assert math.isclose(shifted, thermo.partition_em(mbar, q).Z, rel_tol=1e-12)


def test_thermal_functions_em_analytic_vs_fd_lnz():
    # Analytic U must match a central difference of ln Z_em to 1e-6 relative.
    for q in (0.5, 1.0, 1.5):
        for mbar in (0.5, 2.0, 10.0, 50.0):
            point = thermo.thermal_functions("em", mbar, q)
            h = 1e-5 * mbar
            lp = math.log(thermo.partition_em(mbar + h, q).Z)
            lm = math.log(thermo.partition_em(mbar - h, q).Z)
            u_fd = mbar * mbar * (lp - lm) / (2.0 * h)
            assert math.isclose(point.U, u_fd, rel_tol=1e-6)


def test_thermal_functions_direct_matches_em_at_moderate_mbar():
    for q in (0.5, 1.0, 1.5):
        for mbar in (1.0, 3.0, 10.0):
            em = thermo.thermal_functions("em", mbar, q)
            direct = thermo.thermal_functions("direct", mbar, q)
            assert math.isclose(em.F, direct.F, rel_tol=1e-3, abs_tol=1e-6)
            assert math.isclose(em.U, direct.U, rel_tol=1e-3)
            assert math.isclose(em.C, direct.C, rel_tol=1e-2)


def test_thermal_functions_free_energy_zero_when_z_is_one():
    point = thermo.thermal_functions("direct", 0.01, 1.0)
    assert abs(point.F) < 1e-12


def test_thermal_functions_direct_heat_capacity_positive():
    for q in (0.5, 1.0, 1.5):
        for mbar in np.geomspace(0.1, 50.0, 25):
            point = thermo.thermal_functions("direct", float(mbar), q)
            assert point.C > -1e-8


def test_thermal_functions_em_heat_capacity_positive_on_validated_domain():
    # The EM truncation is a high-temperature form; below mbar ~ 0.2 it goes
    # unphysical (calibrated), so the invariant is asserted from 0.25 up.
    for q in (0.5, 1.0, 1.5):
        for mbar in np.geomspace(0.25, 50.0, 25):
            point = thermo.thermal_functions("em", float(mbar), q)
            assert point.C > -1e-8


def test_convergence_bracket():
    # Direct sum sits between the order-1 and order-2 EM values, or within
    # 1% of both (measured: always inside the bracket on this sweep).
    for q in (0.5, 1.0, 1.5):
        for mbar in np.linspace(1.0, 10.0, 10):
            direct = thermo.partition_direct(float(mbar), q, 1e-12).Z
            em1 = thermo.partition_em(float(mbar), q, 1).Z
            em2 = thermo.partition_em(float(mbar), q, 2).Z
            lo, hi = min(em1, em2), max(em1, em2)
            inside = lo <= direct <= hi
            close = (abs(direct - em1) / direct < 1e-2
                     and abs(direct - em2) / direct < 1e-2)
            assert inside or close


def test_thermodynamic_identity_same_source():
    # U = F + T*S with S = -dF/dT, everything from one Z source.
    for source in ("em", "direct"):
        for q, mbar in ((0.5, 0.8), (1.0, 2.0), (1.5, 7.0)):
            point = thermo.thermal_functions(source, mbar, q)
            h = 1e-4 * mbar
            f_plus = thermo.thermal_functions(source, mbar + h, q).F
            f_minus = thermo.thermal_functions(source, mbar - h, q).F
            entropy = -(f_plus - f_minus) / (2.0 * h)
            assert math.isclose(point.U, point.F + mbar * entropy, rel_tol=1e-6)


def test_excitation_moments_against_brute_force():
    q, mbar = 1.0, 2.0
    s1, s2 = thermo.sigma_constants(q)
    n = np.arange(0, 200_000, dtype=float)
    v = np.sqrt(s1 * n + s2) - math.sqrt(s2)
    w = np.exp(-v / mbar)
    z_ref = float(np.sum(w))
    m1_ref = float(np.sum(v * w)) / z_ref
    m2_ref = float(np.sum(v * v * w)) / z_ref
    z, m1, m2 = thermo.excitation_moments(mbar, q, 1e-12)
    assert math.isclose(z, z_ref, rel_tol=1e-12)
    assert math.isclose(m1, m1_ref, rel_tol=1e-12)
    assert math.isclose(m2, m2_ref, rel_tol=1e-12)


def test_excitation_moments_stops_at_its_level_cap(monkeypatch):
    # At mbar = 1e4 the moment sums need over 1e9 levels: with the cap lowered
    # to 5000 the loop ends there and reports what it summed.
    monkeypatch.setattr(thermo, "DIRECT_N_MAX", 5000)
    with pytest.raises(TruncationFailure) as err:
        thermo.excitation_moments(1e4, 1.0)
    assert err.value.n_terms == 5000
    assert err.value.partial_sum > 0.0


def test_excitation_moments_where_b_cubed_underflows():
    # b = 1e-150, so b^3 underflows to 0 once the tail bounds run, while
    # (2/sigma1)/b^3 = 1e150 is in range: the loop must agree with the kernel.
    mbar, q = 1e150, 1e-300
    z, m1, m2 = thermo.excitation_moments(mbar, q)
    point = thermo.thermal_functions("direct", mbar, q)
    assert math.isclose(z, point.Z, rel_tol=1e-10)
    assert math.isclose(m1, point.U, rel_tol=1e-10)
    assert math.isclose((m2 - m1 * m1) / (mbar * mbar), point.C, rel_tol=1e-10)


def test_fluctuation_identity_spot_check():
    for q, mbar in ((0.5, 0.5), (1.0, 2.0), (1.5, 5.0)):
        z, m1, m2 = thermo.excitation_moments(mbar, q, 1e-12)
        c_fluct = (m2 - m1 * m1) / (mbar * mbar)
        c_fd = thermo.thermal_functions("direct", mbar, q).C
        assert math.isclose(c_fluct, c_fd, rel_tol=1e-4)
