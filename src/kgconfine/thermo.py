"""Partition function and thermal functions of the bound-state spectrum.

Everything here lives in the dimensionless plane (mbar, q): mbar = k_B*T/eps
is the reduced temperature and the levels are E_n/eps = sqrt(sigma1*n +
sigma2).  The partition function is referenced to the ground state,

    Z(mbar) = sum_n exp(-(E_n - E_0)/(eps*mbar)),

so the direct sum starts at 1 and the internal energy U is the mean
excitation energy <E - E_0>.  Two evaluation routes are kept deliberately
separate.  The direct route sums an exact head of levels and stops either when
a rigorous integral bound on the rest falls below tol*Z, or, once the summand
is smooth on unit spacing, by adding the Euler-MacLaurin tail from the first
unsummed level through the B6 correction; the summand is completely monotone,
so the remainder of that tail lies between 0 and the first omitted (B8) term,
and the tail is accepted only when that term is below tol*Z.  Its cost
therefore does not grow with mbar.  The closed-form route is the
Euler-MacLaurin truncation from n = 0

    Z(mbar) = 1/2 + (2 mbar^2/sigma1) (1 + sqrt(sigma2)/mbar)
              + sigma1/(24 mbar sqrt(sigma2))
              - (sigma1^3/(5760 mbar sigma2^{5/2}))
                * (3 + 3 sqrt(sigma2)/mbar + sigma2/mbar^2),

whose last term is dropped at order 1.  Reported units: energies per eps,
heat capacity per k_B.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, DomainError, TruncationFailure

# Bernoulli numbers B_{2i} entering the correction terms.
BERNOULLI = {1: 1.0 / 6.0, 2: -1.0 / 30.0, 3: 1.0 / 42.0, 4: -1.0 / 30.0}

# Cap on the levels the direct sum adds exactly (its head).
DIRECT_N_MAX = 10_000_000
# The direct sum may switch to the Euler-MacLaurin tail at level N only when
# N >= DIRECT_EM_MIN_N and the summand changes by a small factor per level,
# b*sigma1/(2*E_N) <= DIRECT_EM_MAX_STEP; both keep the B8 remainder term tiny.
DIRECT_EM_MIN_N = 32
DIRECT_EM_MAX_STEP = 0.125
# Step (in ln mbar) and tolerance for the finite-difference derivatives used
# by the direct-source thermal functions.
FD_STEP = 1e-4
FD_TOL = 1e-14


class Source(enum.Enum):
    DIRECT = "direct"
    EM = "em"


@dataclass(frozen=True)
class EMConfig:
    """Euler-MacLaurin truncation order and derivative policy."""

    order: int = 2
    derivative_mode: str = "analytic"  # or "finite_difference"

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ConfigError(f"order must be 1 or 2, got {self.order!r}")
        if self.derivative_mode not in ("analytic", "finite_difference"):
            raise ConfigError(
                f"derivative_mode must be 'analytic' or 'finite_difference', "
                f"got {self.derivative_mode!r}"
            )


@dataclass(frozen=True)
class ThermoPoint:
    """One point of a thermal sweep; F and U are in units of eps, C of k_B."""

    mbar: float
    Z: float
    method: str
    F: float | None = None
    U: float | None = None
    C: float | None = None
    terms: int | None = None  # levels summed exactly by the direct route
    tail_bound: float | None = None  # absolute bound on the direct route's error


@dataclass(frozen=True)
class HighTemperatureLimits:
    Z_coefficient: float  # Z ~ Z_coefficient * mbar^2
    U_slope: float        # U/eps ~ U_slope * mbar
    C_limit: float        # C/k_B -> C_limit


def sigma_constants(q: float) -> tuple[float, float]:
    """(sigma1, sigma2) with sigma1 = 2/q, sigma2 = 2 + (1 + sqrt(1+4q^2))/q."""
    if not (q > 0.0) or not math.isfinite(q):
        raise DomainError(f"q must be positive and finite, got {q!r}")
    root = math.sqrt(1.0 + 4.0 * q * q)
    return 2.0 / q, 2.0 + (1.0 + root) / q


def _check_point(mbar: float, q: float, tol: float) -> None:
    if not (mbar > 0.0) or not math.isfinite(mbar):
        raise DomainError(f"mbar must be positive and finite, got {mbar!r}")
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    sigma_constants(q)  # validates q


def closed_integral(beta1: float, beta2: float, beta3: float) -> float:
    """Exact value of the tail integral of the level-sum integrand:

    integral_0^inf exp(-beta1*sqrt(beta2*n + beta3)) dn
        = (2/(beta1^2 beta2)) * exp(-beta1*sqrt(beta3)) * (1 + beta1*sqrt(beta3)).
    """
    if not (beta1 > 0.0 and beta2 > 0.0):
        raise DomainError(
            f"beta1 and beta2 must be positive, got {beta1!r}, {beta2!r}"
        )
    if beta3 < 0.0:
        raise DomainError(f"beta3 must be non-negative, got {beta3!r}")
    root = math.sqrt(beta3)
    return (2.0 / (beta1**2 * beta2)) * math.exp(-beta1 * root) * (1.0 + beta1 * root)


def _tail_integral(b: float, s1: float, s2: float, n: float) -> float:
    # integral_n^inf exp(-b*(sqrt(s1*x+s2)-sqrt(s2))) dx, the closed_integral
    # algebra written relative to the ground state so it cannot overflow.
    u = math.sqrt(s1 * n + s2)
    return (2.0 / (b * b * s1)) * math.exp(-b * (u - math.sqrt(s2))) * (1.0 + b * u)


def _summand_derivative(m: int, b: float, s1: float, x: float, fx: float) -> float:
    """m-th derivative in n of f(n) = c*exp(-b*sqrt(s1*n + s2)) where
    s1*n + s2 = x and f(n) = fx:

        f^(m) = (-1)^m s1^m f * sum_{k<m} (m-1+k)!/(k!(m-1-k)!)
                * b^(m-k) / (2^(m+k) x^((m+k)/2)).

    With r = b*s1/(2 sqrt(x)) and t = s1/(4x) the k-th term of s1^m * sum
    is weight_k * r^(m-k) * t^k.  Every term is positive, so the sum loses
    no digits to cancellation.
    """
    r = b * s1 / (2.0 * math.sqrt(x))
    t = s1 / (4.0 * x)
    acc = 0.0
    weight = 1
    for k in range(m):
        acc += weight * r ** (m - k) * t**k
        weight = weight * (m + k) * (m - 1 - k) // (k + 1)
    return (-1) ** m * fx * acc


def _em_tail(b: float, s1: float, s2: float, n: int) -> tuple[float, float]:
    # Euler-MacLaurin value of sum_{k >= n} of the ground-state-referenced
    # summand through the B6 correction, and the first omitted (B8) term,
    # which bounds the remainder because the summand is completely monotone.
    x = s1 * n + s2
    fx = math.exp(-b * (math.sqrt(x) - math.sqrt(s2)))
    tail = _tail_integral(b, s1, s2, n) + 0.5 * fx
    correction = [
        BERNOULLI[i] / math.factorial(2 * i) * _summand_derivative(2 * i - 1, b, s1, x, fx)
        for i in (1, 2, 3, 4)
    ]
    return tail - sum(correction[:3]), abs(correction[3])


def partition_direct(mbar: float, q: float, tol: float = 1e-12) -> ThermoPoint:
    """Ground-state-referenced partition function: exact head + bounded tail.

    Levels are summed exactly in growing chunks (the first holds 32 levels).
    After each chunk, with N levels summed, the sum stops at the first test
    that passes:

    * the integral bound on the unsummed levels is below ``tol`` times the
      partial sum: Z is the exact partial sum;
    * the summand is smooth on unit spacing (N >= 32 and
      b*sigma1/(2*E_N) <= 1/8, b = 1/mbar) and the first omitted
      Euler-MacLaurin term |B8/8! f^(7)(N)| is below ``tol`` times Z: Z is
      the partial sum plus the Euler-MacLaurin tail from level N through the
      B6 correction.  The summand is completely monotone in n, so the tail's
      remainder lies between 0 and that omitted term.

    The cost therefore stops growing with mbar.  The returned point records
    ``terms``, the levels summed exactly, and ``tail_bound``, the absolute
    bound that stopped the sum.  A head that would exceed DIRECT_N_MAX levels
    raises TruncationFailure.
    """
    _check_point(mbar, q, tol)
    s1, s2 = sigma_constants(q)
    b = 1.0 / mbar
    e0 = math.sqrt(s2)
    total = 0.0
    n_done = 0
    chunk = DIRECT_EM_MIN_N  # so every Euler-MacLaurin check has N >= DIRECT_EM_MIN_N
    while n_done <= DIRECT_N_MAX:
        hi = min(n_done + chunk, DIRECT_N_MAX + 1)
        n = np.arange(n_done, hi, dtype=float)
        total += float(np.sum(np.exp(-b * (np.sqrt(s1 * n + s2) - e0))))
        n_done = hi
        # The summand decreases in n, so the unsummed levels add up to less
        # than the integral from n_done - 1.
        bound = _tail_integral(b, s1, s2, n_done - 1)
        if bound < tol * total:
            return ThermoPoint(
                mbar=mbar, Z=total, method=Source.DIRECT.value,
                terms=n_done, tail_bound=bound,
            )
        if b * s1 <= 2.0 * DIRECT_EM_MAX_STEP * math.sqrt(s1 * n_done + s2):
            tail, bound = _em_tail(b, s1, s2, n_done)
            if bound < tol * (total + tail):
                return ThermoPoint(
                    mbar=mbar, Z=total + tail, method=Source.DIRECT.value,
                    terms=n_done, tail_bound=bound,
                )
        chunk = min(chunk * 2, 1 << 20)
    raise TruncationFailure(
        f"direct sum did not converge within {DIRECT_N_MAX} terms "
        f"(mbar={mbar!r}, q={q!r})",
        total,
        DIRECT_N_MAX,
    )


def partition_summand(
    mbar: float, q: float
) -> tuple[Callable[[float], float], dict[int, float], float]:
    """Summand f(n) = exp(-sqrt(sigma1*n+sigma2)/mbar) with its exact data.

    Returns (f, derivatives at 0 for odd orders 1 and 3, integral of f over
    [0, inf)).  Feed these to ``euler_maclaurin_sum`` for the generic route to
    the partition function (multiply the result by exp(sqrt(sigma2)/mbar) to
    reference it to the ground state).
    """
    _check_point(mbar, q, 1.0)
    s1, s2 = sigma_constants(q)
    b = 1.0 / mbar

    def f(n: float) -> float:
        return math.exp(-b * math.sqrt(s1 * n + s2))

    f0 = f(0.0)
    derivs = {m: _summand_derivative(m, b, s1, s2, f0) for m in (1, 3)}
    return f, derivs, closed_integral(b, s1, s2)


def euler_maclaurin_sum(
    f: Callable[[float], float],
    integral: float,
    cfg: EMConfig = EMConfig(),
    derivatives: Mapping[int, float] | None = None,
) -> float:
    """Euler-MacLaurin value of sum_{n>=0} f(n) truncated at cfg.order.

        sum f(n) = f(0)/2 + integral - sum_{i<=order} B_{2i}/(2i)! * f^(2i-1)(0)

    In analytic mode the odd derivatives at 0 must be supplied via
    ``derivatives``; in finite_difference mode they are estimated with central
    stencils (step 1e-5 for f', 1e-3 for f''', where the cube in the
    denominator makes smaller steps round off).
    """
    if not math.isfinite(integral):
        raise DomainError(f"integral must be finite, got {integral!r}")
    needed = [2 * i - 1 for i in range(1, cfg.order + 1)]
    derivs: dict[int, float] = {}
    if cfg.derivative_mode == "analytic":
        if derivatives is None:
            raise ConfigError("analytic mode requires a derivatives mapping")
        for order in needed:
            if order not in derivatives:
                raise ConfigError(f"missing derivative of order {order}")
            derivs[order] = float(derivatives[order])
    else:
        if 1 in needed:
            h = 1e-5
            derivs[1] = (8.0 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12.0 * h)
        if 3 in needed:
            h = 1e-3
            derivs[3] = (f(2 * h) - 2.0 * f(h) + 2.0 * f(-h) - f(-2 * h)) / (2.0 * h**3)

    total = 0.5 * f(0.0) + integral
    for i in range(1, cfg.order + 1):
        order = 2 * i - 1
        total -= BERNOULLI[i] / math.factorial(2 * i) * derivs[order]
    return total


def _em_z_and_derivatives(mbar: float, q: float, order: int) -> tuple[float, float, float]:
    # Closed-form Z(mbar) of the truncation plus its first two mbar
    # derivatives, used for the analytic thermal functions.
    s1, s2 = sigma_constants(q)
    root = math.sqrt(s2)
    z = 0.5 + (2.0 / s1) * (mbar**2 + root * mbar) + (s1 / (24.0 * root)) / mbar
    zp = (2.0 / s1) * (2.0 * mbar + root) - (s1 / (24.0 * root)) / mbar**2
    zpp = 4.0 / s1 + (s1 / (12.0 * root)) / mbar**3
    if order >= 2:
        k = s1**3 / (5760.0 * s2**2.5)
        z -= k * (3.0 / mbar + 3.0 * root / mbar**2 + s2 / mbar**3)
        zp += k * (3.0 / mbar**2 + 6.0 * root / mbar**3 + 3.0 * s2 / mbar**4)
        zpp -= k * (6.0 / mbar**3 + 18.0 * root / mbar**4 + 12.0 * s2 / mbar**5)
    return z, zp, zpp


def partition_em(mbar: float, q: float, cfg: EMConfig = EMConfig()) -> ThermoPoint:
    """Euler-MacLaurin partition function at the configured order."""
    _check_point(mbar, q, 1.0)
    z, _, _ = _em_z_and_derivatives(mbar, q, cfg.order)
    return ThermoPoint(mbar=mbar, Z=z, method=Source.EM.value)


def _log_z_direct(mbar: float, q: float, tol: float) -> float:
    return math.log(partition_direct(mbar, q, tol).Z)


def thermal_functions(
    source: Source | str,
    mbar: float,
    q: float,
    cfg: EMConfig = EMConfig(),
    tol: float = 1e-12,
) -> ThermoPoint:
    """Free energy, internal energy, and heat capacity at one sweep point.

    With t = ln mbar and L(t) = ln Z:  F/eps = -mbar * L,  U/eps = mbar * L',
    and C/k_B = dU/dT = L' + L''  (equivalently k_B beta^2 (-dU/dbeta), which
    is positive since U falls with beta).  The EM source differentiates the
    closed form exactly; the direct source uses Richardson-extrapolated
    central differences in ln mbar with step FD_STEP.
    """
    source = Source(source)
    _check_point(mbar, q, tol)
    if source is Source.EM:
        z, zp, zpp = _em_z_and_derivatives(mbar, q, cfg.order)
        if z <= 0.0:
            raise DomainError(
                f"EM truncation is non-positive at mbar={mbar!r}, q={q!r}; "
                "outside its validity range"
            )
        u = mbar**2 * zp / z
        c = 2.0 * mbar * zp / z + mbar**2 * (zpp * z - zp * zp) / (z * z)
        return ThermoPoint(
            mbar=mbar, Z=z, method=Source.EM.value,
            F=-mbar * math.log(z), U=u, C=c,
        )

    point = partition_direct(mbar, q, tol)
    t = math.log(mbar)
    h = FD_STEP
    fd_tol = min(tol, FD_TOL)
    L = [_log_z_direct(math.exp(t + j * h), q, fd_tol) for j in (-2, -1, 0, 1, 2)]
    lp = (8.0 * (L[3] - L[1]) - (L[4] - L[0])) / (12.0 * h)
    lpp = (-L[4] + 16.0 * L[3] - 30.0 * L[2] + 16.0 * L[1] - L[0]) / (12.0 * h * h)
    return ThermoPoint(
        mbar=mbar, Z=point.Z, method=Source.DIRECT.value,
        F=-mbar * math.log(point.Z), U=mbar * lp, C=lp + lpp,
        terms=point.terms, tail_bound=point.tail_bound,
    )


def high_temperature_limits(q: float) -> HighTemperatureLimits:
    """Leading large-mbar behavior: Z ~ q*mbar^2, U ~ 2*mbar, C -> 2."""
    s1, _ = sigma_constants(q)
    return HighTemperatureLimits(Z_coefficient=2.0 / s1, U_slope=2.0, C_limit=2.0)


def _exp_moment_tail(b: float, z: float, m: int) -> float:
    # integral_z^inf v^m exp(-b v) dv for integer m >= 0, via the finite sum
    # (m!/b^{m+1}) e^{-bz} sum_{j<=m} (bz)^j/j!.
    acc = 0.0
    term = 1.0
    for j in range(m + 1):
        if j > 0:
            term *= b * z / j
        acc += term
    return math.factorial(m) / b ** (m + 1) * math.exp(-b * z) * acc


def excitation_moments(
    mbar: float, q: float, tol: float = 1e-12
) -> tuple[float, float, float]:
    """(Z, <v>, <v^2>) for the excitation energy v = (E - E_0)/eps.

    Moments are Boltzmann-weighted sums over the spectrum with rigorous
    integral tail bounds; the heat capacity follows from the fluctuation
    identity C/k_B = (<v^2> - <v>^2)/mbar^2.
    """
    _check_point(mbar, q, tol)
    s1, s2 = sigma_constants(q)
    b = 1.0 / mbar
    e0 = math.sqrt(s2)
    sums = np.zeros(3)
    n_done = 0
    chunk = 4096
    while n_done <= DIRECT_N_MAX:
        hi = min(n_done + chunk, DIRECT_N_MAX + 1)
        n = np.arange(n_done, hi, dtype=float)
        v = np.sqrt(s1 * n + s2) - e0
        w = np.exp(-b * v)
        sums += (float(np.sum(w)), float(np.sum(v * w)), float(np.sum(v * v * w)))
        n_done = hi
        v0 = math.sqrt(s1 * (n_done - 1) + s2) - e0
        # The integrand bounds below require v^k (v+e0) e^{-bv} to be
        # decreasing; keep summing until safely past its mode.
        if b * v0 > 4.0:
            ok = True
            for k in range(3):
                # sum_{n>=n_done} v^k w <= (2/s1) * int_{v0}^inf v^k (v+e0) e^{-bv} dv
                bound = (2.0 / s1) * (
                    _exp_moment_tail(b, v0, k + 1) + e0 * _exp_moment_tail(b, v0, k)
                )
                ref = sums[k] if sums[k] > 0.0 else 1.0
                if bound >= tol * ref:
                    ok = False
                    break
            if ok:
                return float(sums[0]), float(sums[1] / sums[0]), float(sums[2] / sums[0])
        chunk = min(chunk * 2, 1 << 20)
    raise TruncationFailure(
        f"moment sums did not converge within {DIRECT_N_MAX} terms "
        f"(mbar={mbar!r}, q={q!r})",
        float(sums[0]),
        DIRECT_N_MAX,
    )
