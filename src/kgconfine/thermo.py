"""Partition function and thermal functions of the bound-state spectrum.

Everything here lives in the dimensionless plane (mbar, q): mbar = k_B*T/eps
is the reduced temperature and the levels are E_n/eps = sqrt(sigma1*n +
sigma2).  The partition function is referenced to the ground state,

    Z(mbar) = sum_n exp(-(E_n - E_0)/(eps*mbar)),

so the direct sum starts at 1 and the internal energy U is the mean
excitation energy <E - E_0>.  Two evaluation routes are kept deliberately
separate.  The direct route sums an exact head of levels plus a tail with a
rigorous bound (see ``partition_direct``), so its cost does not grow with
mbar.  One kernel evaluates it for a whole vector of temperatures at once;
``sweep`` runs a grid of one q through it, and ``partition_direct`` and
``thermal_functions`` are one-point calls into the same code.  The
closed-form route is the Euler-MacLaurin truncation from n = 0

    Z(mbar) = 1/2 + (2 mbar^2/sigma1) (1 + sqrt(sigma2)/mbar)
              + sigma1/(24 mbar sqrt(sigma2))
              - (sigma1^3/(5760 mbar sigma2^{5/2}))
                * (3 + 3 sqrt(sigma2)/mbar + sigma2/mbar^2),

whose last term is dropped at order 1.  Reported units: energies per eps,
heat capacity per k_B.  A value that overflows (Z ~ q*mbar^2 does past mbar
~ 1e154) is a DomainError, not an inf or NaN.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, DomainError, KGConfineError, TruncationFailure
from .params import sigma_constants

# Bernoulli numbers B_{2i} entering the correction terms.
BERNOULLI = {1: 1.0 / 6.0, 2: -1.0 / 30.0, 3: 1.0 / 42.0, 4: -1.0 / 30.0}

# Cap on the levels the direct sum adds exactly (its head).
DIRECT_N_MAX = 10_000_000
# Elements of one exp(-b*v) block of the direct-sum kernel (rows = inverse
# temperatures, columns = levels); bounds its scratch memory whatever the
# grid size.  A chunk of more levels than this runs one row at a time.
_BLOCK = 1 << 16
# The direct sum may switch to the Euler-MacLaurin tail at level N only when
# N >= DIRECT_EM_MIN_N and the summand changes by a small factor per level,
# b*sigma1/(2*E_N) <= DIRECT_EM_MAX_STEP; both keep the B8 remainder term tiny.
DIRECT_EM_MIN_N = 32
DIRECT_EM_MAX_STEP = 0.125
# Step (in ln mbar) and tolerance for the finite-difference derivatives used
# by the direct-source thermal functions.
FD_STEP = 1e-4
FD_TOL = 1e-14
# Offsets, in units of FD_STEP, of the five-point ln-mbar stencil.
_STENCIL = (-2, -1, 0, 1, 2)


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
class SweepColumns:
    """Thermal functions of one q over an mbar grid, one entry per point.

    Columns a sweep does not compute are None.  A point that failed holds
    NaN or the overflowed value in the columns it could not compute, and its
    error in ``errors`` (None for a point computed in full).
    """

    Z_direct: np.ndarray | None = None
    Z_em: np.ndarray | None = None
    F: np.ndarray | None = None
    U: np.ndarray | None = None
    C: np.ndarray | None = None
    terms: np.ndarray | None = None
    tail_bound: np.ndarray | None = None
    errors: tuple[KGConfineError | None, ...] = ()


@dataclass(frozen=True)
class HighTemperatureLimits:
    Z_coefficient: float  # Z ~ Z_coefficient * mbar^2
    U_slope: float        # U/eps ~ U_slope * mbar
    C_limit: float        # C/k_B -> C_limit


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


def _tail_integral(b, s1: float, s2: float, n: float):
    # integral_n^inf exp(-b*(sqrt(s1*x+s2)-sqrt(s2))) dx, the closed_integral
    # algebra written relative to the ground state so it cannot overflow; b
    # may be an array.
    u = math.sqrt(s1 * n + s2)
    return (2.0 / (b * b * s1)) * np.exp(-b * (u - math.sqrt(s2))) * (1.0 + b * u)


def _summand_derivative(m: int, r, t: float, fx):
    """m-th derivative in n of f(n) = c*exp(-b*sqrt(s1*n + s2)) at the level
    where s1*n + s2 = x and f(n) = fx, given r = b*s1/(2 sqrt(x)) and
    t = s1/(4x):

        f^(m) = (-1)^m s1^m f * sum_{k<m} (m-1+k)!/(k!(m-1-k)!)
                * b^(m-k) / (2^(m+k) x^((m+k)/2)),

    and the k-th term of s1^m * sum is weight_k * t^k * r^(m-k), a
    polynomial in r evaluated by Horner's rule.  Every coefficient and r are
    positive, so the sum loses no digits to cancellation.  r and fx may be
    arrays (one entry per inverse temperature b).
    """
    acc = 0.0
    weight = 1
    for k in range(m):
        acc = acc * r + weight * t**k
        weight = weight * (m + k) * (m - 1 - k) // (k + 1)
    return (-1) ** m * fx * (acc * r)


def _em_tail(b: np.ndarray, s1: float, s2: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Euler-MacLaurin value of sum_{k >= n} of the ground-state-referenced
    # summand through the B6 correction, and the first omitted (B8) term,
    # which bounds the remainder because the summand is completely monotone.
    x = s1 * n + s2
    fx = np.exp(-b * (math.sqrt(x) - math.sqrt(s2)))
    r = b * s1 / (2.0 * math.sqrt(x))
    t = s1 / (4.0 * x)
    tail = _tail_integral(b, s1, s2, n) + 0.5 * fx
    correction = [
        BERNOULLI[i] / math.factorial(2 * i) * _summand_derivative(2 * i - 1, r, t, fx)
        for i in (1, 2, 3, 4)
    ]
    return tail - sum(correction[:3]), np.abs(correction[3])


@np.errstate(all="ignore")  # overflow at huge mbar is caught as a non-finite Z
def _direct_sums(
    b: np.ndarray, tol: float, s1: float, s2: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The direct-sum kernel: sum_n exp(-b*(E_n - E_0)/eps) for every b.

    Every row follows the chunk schedule of 32, 64, 128, ... levels, so each
    round computes the levels' excitation energies once and sums
    exp(-b*v) over the rows still active, in blocks of at most _BLOCK
    elements.  After the round a row stops at the first of the two tests in
    ``partition_direct`` that it passes.  Returns (Z, terms, tail_bound,
    converged); a row that ran past DIRECT_N_MAX levels holds its partial
    sum in Z and has converged False.
    """
    e0 = math.sqrt(s2)
    z = np.zeros(b.size)
    terms = np.zeros(b.size, dtype=np.int64)
    bound = np.zeros(b.size)
    live = np.arange(b.size)
    n_done = 0
    chunk = DIRECT_EM_MIN_N  # so every Euler-MacLaurin check has N >= DIRECT_EM_MIN_N
    while live.size and n_done <= DIRECT_N_MAX:
        hi = min(n_done + chunk, DIRECT_N_MAX + 1)
        v = np.sqrt(s1 * np.arange(n_done, hi, dtype=float) + s2) - e0
        step = max(1, _BLOCK // v.size)
        for i in range(0, live.size, step):
            rows = live[i:i + step]
            z[rows] += np.sum(np.exp(-b[rows, None] * v), axis=1)
        n_done = hi
        bl, total = b[live], z[live]
        # The summand decreases in n, so the unsummed levels add up to less
        # than the integral from n_done - 1.
        row_bound = _tail_integral(bl, s1, s2, n_done - 1)
        stop = row_bound < tol * total
        smooth = ~stop & (bl * s1 <= 2.0 * DIRECT_EM_MAX_STEP * math.sqrt(s1 * n_done + s2))
        if smooth.any():
            em = np.flatnonzero(smooth)
            tail, em_bound = _em_tail(bl[em], s1, s2, n_done)
            accept = em_bound < tol * (total[em] + tail)
            em = em[accept]
            total[em] += tail[accept]
            row_bound[em] = em_bound[accept]
            stop[em] = True
        done = live[stop]
        z[done] = total[stop]
        terms[done] = n_done
        bound[done] = row_bound[stop]
        live = live[~stop]
        chunk = min(chunk * 2, 1 << 20)
    return z, terms, bound, terms > 0


def _truncation_failure(mbar: float, q: float, partial_sum: float) -> TruncationFailure:
    return TruncationFailure(
        f"direct sum did not converge within {DIRECT_N_MAX} terms "
        f"(mbar={mbar!r}, q={q!r})",
        partial_sum,
        DIRECT_N_MAX,
    )


def _not_finite(mbar: float, q: float) -> DomainError:
    return DomainError(
        f"thermal functions are not finite at mbar={mbar!r}, q={q!r} "
        "(floating-point overflow)"
    )


def _flag_not_finite(errors: list, mbar: np.ndarray, q: float, *columns: np.ndarray) -> None:
    # A point that has not failed otherwise but holds an infinite or NaN value.
    finite = np.logical_and.reduce([np.isfinite(c) for c in columns])
    for i in np.flatnonzero(~finite):
        if errors[i] is None:
            errors[i] = _not_finite(float(mbar[i]), q)


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
    raises TruncationFailure, and a Z that overflows raises DomainError.  This
    is a one-point call into the columns that ``sweep`` computes over a grid.
    """
    _check_point(mbar, q, tol)
    cols = _direct_columns(np.array([float(mbar)]), q, tol, derivatives=False)
    if cols.errors[0] is not None:
        raise cols.errors[0]
    return ThermoPoint(
        mbar=mbar, Z=float(cols.Z_direct[0]), method=Source.DIRECT.value,
        terms=int(cols.terms[0]), tail_bound=float(cols.tail_bound[0]),
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
    r = b * s1 / (2.0 * math.sqrt(s2))
    derivs = {m: _summand_derivative(m, r, s1 / (4.0 * s2), f0) for m in (1, 3)}
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


def _em_z_and_derivatives(
    mbar: np.ndarray, q: float, order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Closed-form Z(mbar) of the truncation plus its first two mbar
    # derivatives, used for the analytic thermal functions.  On arrays, a
    # power of mbar past the float range becomes inf instead of raising.
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
    """Euler-MacLaurin partition function at the configured order.

    A one-point call into the columns that ``sweep`` computes: a point where
    the closed form is non-positive (below its validity range) or not finite
    raises DomainError.
    """
    _check_point(mbar, q, 1.0)
    cols = _em_columns(np.array([float(mbar)]), q, cfg.order)
    if cols.errors[0] is not None:
        raise cols.errors[0]
    return ThermoPoint(mbar=mbar, Z=float(cols.Z_em[0]), method=Source.EM.value)


@np.errstate(all="ignore")  # overflow at huge mbar is caught as a non-finite value
def _em_columns(mbar: np.ndarray, q: float, order: int) -> SweepColumns:
    # The closed form and its exact derivatives at every mbar; a point where
    # the truncation is non-positive has left its validity range.
    z, zp, zpp = _em_z_and_derivatives(mbar, q, order)
    valid = z > 0.0
    errors = [None] * mbar.size
    for i in np.flatnonzero(~valid):
        errors[i] = DomainError(
            f"EM truncation is non-positive at mbar={float(mbar[i])!r}, q={q!r}; "
            "outside its validity range"
        )
    z = np.where(valid, z, np.nan)
    # U and C from u1 = mbar*Z'/Z and u2 = mbar^2*Z''/Z, both ~2 at high
    # mbar; the division comes before the factor that would overflow, so
    # both stay finite wherever Z is.
    u1 = zp / z * mbar
    u2 = mbar * zpp / z * mbar
    F = -mbar * np.log(z)
    U = mbar * u1
    C = u1 * (2.0 - u1) + u2
    _flag_not_finite(errors, mbar, q, z, F, U, C)
    return SweepColumns(Z_em=z, F=F, U=U, C=C, errors=tuple(errors))


@np.errstate(all="ignore")  # overflow at huge mbar is caught as a non-finite value
def _direct_columns(mbar: np.ndarray, q: float, tol: float, derivatives: bool) -> SweepColumns:
    # Direct-sum Z at every mbar and, with ``derivatives``, F, U and C from
    # the five-point ln-mbar stencil, summed at min(tol, FD_TOL).  The
    # stencil is batched only for points whose centre converged, so a
    # failing point costs one sum, not six.
    s1, s2 = sigma_constants(q)
    z, terms, bound, converged = _direct_sums(1.0 / mbar, tol, s1, s2)
    errors = [None] * mbar.size
    for i in np.flatnonzero(~converged):
        errors[i] = _truncation_failure(float(mbar[i]), q, float(z[i]))
    z = np.where(converged, z, np.nan)
    if not derivatives:
        _flag_not_finite(errors, mbar, q, z)
        return SweepColumns(Z_direct=z, terms=terms, tail_bound=bound, errors=tuple(errors))

    centre = np.flatnonzero(converged)
    h = FD_STEP
    # The stencil's temperatures come from math.exp/math.log, as in the scalar
    # reference loop of tests/test_thermo.py: numpy's vectorised exp can
    # differ in the last bit, and C amplifies an ulp of ln Z about 1e8-fold.
    stencil = np.array(
        [[math.exp(math.log(m) + j * h) for j in _STENCIL] for m in mbar[centre].tolist()]
    ).reshape(-1, len(_STENCIL))
    zs, _, _, ok = _direct_sums(1.0 / stencil.ravel(), min(tol, FD_TOL), s1, s2)
    zs, ok = zs.reshape(stencil.shape), ok.reshape(stencil.shape)
    for k in np.flatnonzero(~ok.all(axis=1)):
        j = int(np.argmin(ok[k]))  # the first stencil sum that failed
        errors[centre[k]] = _truncation_failure(float(stencil[k, j]), q, float(zs[k, j]))
    L = np.log(np.where(ok, zs, np.nan)).T
    lp = np.full(mbar.size, np.nan)
    lpp = np.full(mbar.size, np.nan)
    lp[centre] = (8.0 * (L[3] - L[1]) - (L[4] - L[0])) / (12.0 * h)
    lpp[centre] = (-L[4] + 16.0 * L[3] - 30.0 * L[2] + 16.0 * L[1] - L[0]) / (12.0 * h * h)
    F, U, C = -mbar * np.log(z), mbar * lp, lp + lpp
    _flag_not_finite(errors, mbar, q, z, F, U, C)
    return SweepColumns(
        Z_direct=z, F=F, U=U, C=C,
        terms=terms, tail_bound=bound, errors=tuple(errors),
    )


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
    central differences in ln mbar with step FD_STEP.  This is a one-point
    call into the same columns that ``sweep`` computes over a grid.
    """
    source = Source(source)
    _check_point(mbar, q, tol)
    grid = np.array([float(mbar)])
    if source is Source.EM:
        cols = _em_columns(grid, q, cfg.order)
        z = cols.Z_em
    else:
        cols = _direct_columns(grid, q, tol, derivatives=True)
        z = cols.Z_direct
    if cols.errors[0] is not None:
        raise cols.errors[0]
    return ThermoPoint(
        mbar=mbar, Z=float(z[0]), method=source.value,
        F=float(cols.F[0]), U=float(cols.U[0]), C=float(cols.C[0]),
        terms=None if cols.terms is None else int(cols.terms[0]),
        tail_bound=None if cols.tail_bound is None else float(cols.tail_bound[0]),
    )


def sweep(
    method: str,
    mbar: np.ndarray,
    q: float,
    cfg: EMConfig = EMConfig(),
    tol: float = 1e-12,
) -> SweepColumns:
    """Thermal sweep of one q over a whole mbar grid, in one batched pass.

    ``method`` picks the columns:

    * ``"direct"``: direct-sum Z with finite-difference F, U and C, as
      ``thermal_functions("direct")`` gives them point by point;
    * ``"em"``: the Euler-MacLaurin closed form's Z, F, U and C;
    * ``"both"``: the direct-sum Z (no stencil) next to the closed form's
      Z, F, U and C.

    A point that fails keeps NaN in the columns it could not compute and its
    error in ``errors``; under ``"both"`` the direct sum's error wins.
    """
    mbar = np.asarray(mbar, dtype=float)
    if mbar.ndim != 1 or mbar.size == 0:
        raise DomainError(f"mbar must be a non-empty 1-d grid, got shape {mbar.shape}")
    for extreme in (mbar.min(), mbar.max()):
        _check_point(float(extreme), q, tol)
    if method == "direct":
        return _direct_columns(mbar, q, tol, derivatives=True)
    if method == "em":
        return _em_columns(mbar, q, cfg.order)
    if method != "both":
        raise ConfigError(f"method must be 'direct', 'em' or 'both', got {method!r}")
    direct = _direct_columns(mbar, q, tol, derivatives=False)
    em = _em_columns(mbar, q, cfg.order)
    return SweepColumns(
        Z_direct=direct.Z_direct, Z_em=em.Z_em, F=em.F, U=em.U, C=em.C,
        terms=direct.terms, tail_bound=direct.tail_bound,
        errors=tuple(d if d is not None else e for d, e in zip(direct.errors, em.errors)),
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
    identity C/k_B = (<v^2> - <v>^2)/mbar^2.  This brute-force sum does not
    share the direct-sum kernel on purpose: it is the independent reference
    that the finite-difference heat capacity of ``thermal_functions`` is
    checked against (acceptance criterion 7), so its cost still grows as
    q*mbar^2.
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
