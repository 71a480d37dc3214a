"""Frobenius-series solver for the biconfluent Heun equation.

The equation solved here, with parameters c1..c4 and K = [c4 + c2(1+c1)]/2, is

    xi u'' + (1 + c1 - c2*xi - 2*xi^2) u' + [(c3 - c1 - 2)*xi - K] u = 0.

The solution regular at the origin is normalized to u(0) = 1 and expanded as
u(xi) = sum_k a_k xi^k.  Inserting the series and collecting xi^k gives the
three-term recurrence

    (k+1)(k+1+c1) a_{k+1} = (c2*k + K) a_k + (2k + c1 - c3) a_{k-1},

with a_{-1} = 0 and a_0 = 1; the k = 0 row reduces to (1+c1) a_1 = K a_0.
The recurrence degenerates when 1 + c1 hits a non-positive integer, which is
rejected up front as SingularParameter.

``_terms`` is the one implementation of the recurrence, yielding the terms
t_k = a_k y^k.  The adaptive routes sum them in one pass, and a grid reuses
the terms summed at its largest |y|.

When c3 - c1 - 2 = 2n for a non-negative integer n, the a_{n-1} coupling in
the a_{n+2} row vanishes, so the series *can* terminate as a degree-n
polynomial; actual termination additionally needs a_{n+1} = 0, which pins c4.
``polynomial_degree`` reports the first (necessary) condition only, while
``SeriesSolution.terminated_polynomially`` reports what the computed
coefficients actually did.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError, SingularParameter, TruncationFailure

# Hard cap on adaptively generated terms.
N_MAX = 10_000
# The adaptive rule stops after this many consecutive sub-threshold terms.
_CONSECUTIVE = 3
# |c3 - c1 - 2 - 2n| below this counts as meeting the termination condition.
DEGREE_TOL = 1e-9
# Margin keeping 1 + c1 away from 0, -1, -2, ...
_SINGULAR_TOL = 1e-9
# Unit roundoff of IEEE double precision.
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class HeunParams:
    """Parameter quadruple of the biconfluent Heun equation."""

    c1: float
    c2: float
    c3: float
    c4: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        shifted = 1.0 + self.c1
        if shifted <= 0.5:
            nearest = round(shifted)
            if nearest <= 0 and abs(shifted - nearest) < _SINGULAR_TOL:
                raise SingularParameter(
                    f"1 + c1 = {shifted!r} is a non-positive integer; "
                    "series denominators vanish"
                )

    @property
    def K(self) -> float:
        """Constant term [c4 + c2*(1 + c1)]/2 of the equation."""
        return 0.5 * (self.c4 + self.c2 * (1.0 + self.c1))


@dataclass(frozen=True, eq=False)
class SeriesSolution:
    """Truncated power-series solution u(xi) = sum_k coeffs[k] * xi^k."""

    coeffs: np.ndarray
    terminated_polynomially: bool


class Evaluation(NamedTuple):
    """Series value with a bound on its truncation and rounding error."""

    value: float
    error_estimate: float
    n_terms: int


def _terms(hp: HeunParams, y: float) -> Iterator[float]:
    """Terms t_k = a_k y^k for k = 0, 1, 2, ...; at y = 1 the coefficients a_k.

    Multiplying the a_{k+1} row by y^{k+1} gives the recurrence for the terms
    themselves, which stays in floating range even where the bare power y^k
    would overflow.
    """
    # The recurrence runs on Python floats, which round exactly as float64
    # array elements do and cost less per step.
    yield 1.0
    K, c1, c2, c3 = hp.K, hp.c1, hp.c2, hp.c3
    prev, cur = 1.0, K / (1.0 + c1) * y
    yield cur
    for k in itertools.count(1):
        prev, cur = cur, ((c2 * k + K) * y * cur + (2.0 * k + c1 - c3) * y * y * prev) / (
            (k + 1.0) * (k + 1.0 + c1))
        yield cur


def _coefficients(hp: HeunParams, n_terms: int, y: float = 1.0) -> np.ndarray:
    """The first n_terms + 1 terms t_0..t_{n_terms} of ``_terms``."""
    return np.fromiter(itertools.islice(_terms(hp, y), n_terms + 1), float, n_terms + 1)


def _detect_termination(coeffs: np.ndarray) -> bool:
    # Exact zeros only: two consecutive zero coefficients force all later ones
    # to zero through the recurrence, so a zero tail of length >= 2 is proof.
    if coeffs.size < 3:
        return False
    nz = np.nonzero(coeffs)[0]
    last = int(nz[-1]) if nz.size else 0
    return coeffs.size - 1 - last >= 2


def series_coefficients(hp: HeunParams, n_terms: int) -> SeriesSolution:
    """Generate a fixed number of series coefficients.

    Polynomial termination is reported from the computed coefficients: it is
    claimed only when at least two trailing coefficients are exactly zero, and
    zeros regenerate themselves through the recurrence.
    """
    if n_terms < 2:
        raise DomainError(f"n_terms must be >= 2, got {n_terms!r}")
    coeffs = _coefficients(hp, n_terms)
    coeffs.setflags(write=False)
    return SeriesSolution(coeffs, _detect_termination(coeffs))


def truncated_polynomial(hp: HeunParams, degree: int) -> SeriesSolution:
    """Degree-capped truncation a_0..a_degree of the regular solution.

    When c3 - c1 - 2 = 2n the xi-coefficient of the equation supports a
    degree-n polynomial, but the computed a_{n+1} is generically nonzero (no
    condition on c4 is imposed here), so the full series regrows at large xi.
    The degree-n cut keeps the decaying, bound-state part; callers needing
    the honest full series use the adaptive path instead.
    """
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree!r}")
    probe = _coefficients(hp, degree + 2)
    coeffs = probe[: degree + 1].copy()
    coeffs.setflags(write=False)
    return SeriesSolution(coeffs, _detect_termination(probe))


def evaluate_series(sol: SeriesSolution, ys):
    """Horner-evaluate a stored series at scalar or array ``ys``.

    A series with no coefficients is 0, and one with only a_0 is a_0, at
    every y, a non-finite one included.
    """
    return _polyval(sol.coeffs, ys)


def _adaptive_core(hp: HeunParams, y: float, tol: float) -> tuple[float, float, np.ndarray]:
    """Adaptive truncation at ``y``: (partial sum, error bound, terms t_0..t_n).

    One pass over ``_terms`` adds each term to a running sum, in order, and
    from k = 2 on stops at the first overflow of the sum or at the third
    consecutive term below tol * |partial sum|.  The bound is the first
    neglected term |t_{n+1}| plus the recursive-summation bound
    gamma_n * sum |t_k| (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 4.2).  At y = 0 the terms are 1 and 0.
    """
    if tol <= 0.0 or not math.isfinite(tol):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    if y == 0.0:
        return 1.0, 0.0, np.array([1.0, 0.0])
    terms = _terms(hp, y)
    summed, partial, quiet = [], 0.0, 0
    for n, t in enumerate(terms):
        summed.append(t)
        partial += t
        if n >= 2:
            if not math.isfinite(partial):
                raise TruncationFailure(f"series overflowed at term {n} for y={y!r}", partial, n)
            quiet = quiet + 1 if abs(t) < tol * max(abs(partial), 1e-300) else 0
            if quiet == _CONSECUTIVE:
                break
        if n == N_MAX:
            raise TruncationFailure(
                f"series did not settle within {N_MAX} terms for y={y!r}", partial, N_MAX
            )
    summed = np.array(summed)
    gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    return partial, abs(next(terms)) + gamma * float(np.sum(np.abs(summed))), summed


def adaptive_series(hp: HeunParams, y: float, tol: float) -> SeriesSolution:
    """Coefficients truncated by the adaptive rule at the point ``y``.

    Terms are generated until |a_k y^k| < tol * |partial sum| holds for three
    consecutive k (the partial sums of an entire function settle fast once
    the factorial decay of the coefficients takes over).  Failure to settle
    within N_MAX terms raises TruncationFailure.
    """
    n = _adaptive_core(hp, y, tol)[2].size - 1
    coeffs = _coefficients(hp, n)
    coeffs.setflags(write=False)
    return SeriesSolution(coeffs, _detect_termination(coeffs))


def evaluate(hp: HeunParams, y: float, tol: float = 1e-12) -> Evaluation:
    """Evaluate the regular solution at ``y``.

    Returns the truncated-series value, a bound on its error (the first
    neglected term plus the rounding bound of summing the terms), and the
    number of terms summed.  u(0) = 1 exactly by normalization.
    """
    if y == 0.0:
        if tol <= 0.0 or not math.isfinite(tol):
            raise DomainError(f"tol must be positive and finite, got {tol!r}")
        return Evaluation(1.0, 0.0, 1)
    partial, bound, terms = _adaptive_core(hp, y, tol)
    return Evaluation(partial, bound, terms.size)


def evaluate_on_grid(hp: HeunParams, ys: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Evaluate the regular solution on a grid of points.

    One truncation, chosen adaptively at the largest |y| (y_ref), serves the
    whole grid: term magnitudes are monotone in |y|, so the cut is valid at
    every smaller point.  The terms t_k = a_k y_ref^k summed there are
    Horner-evaluated at y / y_ref, where |y / y_ref| <= 1, so coefficients a_k that underflow
    while their terms do not (as at large |y|) lose nothing.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        return np.empty(0)
    y_ref = float(np.max(np.abs(ys)))
    if y_ref == 0.0:
        return np.ones_like(ys)
    return _polyval(_adaptive_core(hp, y_ref, tol)[2], ys / y_ref)


def _polyval(coeffs: np.ndarray, y):
    # Horner evaluation, scalar or vectorized, updating one array in place
    # from the leading coefficient down.  The ufuncs are bound locally and
    # take the output positionally: keyword dispatch cost ~10% of the loop.
    y = np.asarray(y, dtype=float)
    result = np.full_like(y, coeffs[-1] if len(coeffs) else 0.0)
    multiply, add = np.multiply, np.add
    for a in coeffs[-2::-1].tolist():
        multiply(result, y, result)
        add(result, a, result)
    return float(result) if result.ndim == 0 else result


def ode_residual(hp: HeunParams, sol: SeriesSolution, y: float) -> float:
    """Absolute residual of the equation at ``y`` for a truncated series.

    At y = 0 the equation collapses to its limiting row
    (1 + c1) u'(0) - K u(0) = 0, which is what gets evaluated there.
    """
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    c = sol.coeffs
    if c.size < 2:
        raise DomainError("series must hold at least two coefficients")
    K = hp.K
    if y == 0.0:
        return abs((1.0 + hp.c1) * c[1] - K * c[0])
    k = np.arange(c.size)
    d1 = c[1:] * k[1:]          # coefficients of u'
    d2 = d1[1:] * k[1:-1]       # coefficients of u'' shifted by one power
    u = _polyval(c, y)
    up = _polyval(d1, y) if d1.size else 0.0
    upp = _polyval(d2, y) if d2.size else 0.0
    return abs(
        y * upp
        + (1.0 + hp.c1 - hp.c2 * y - 2.0 * y * y) * up
        + ((hp.c3 - hp.c1 - 2.0) * y - K) * u
    )


def polynomial_degree(hp: HeunParams) -> int | None:
    """Degree n satisfying c3 - c1 - 2 = 2n, if one exists.

    Returns the non-negative integer n for which |c3 - c1 - 2 - 2n| <= 1e-9,
    else None.  This is the necessary condition for polynomial truncation;
    whether the series actually terminates also depends on c4.
    """
    half = 0.5 * (hp.c3 - hp.c1 - 2.0)
    n = round(half)
    if n < 0:
        return None
    if abs(half - n) <= 0.5 * DEGREE_TOL:
        return int(n)
    return None
