"""Partition function and thermal functions of the bound-state spectrum.

Everything here lives in the dimensionless plane (mbar, q): mbar = k_B*T/eps
is the reduced temperature and the levels are E_n/eps = sqrt(sigma1*n +
sigma2), formed for every route by one private ladder per set of q
(``_Ladder``).  The partition function is referenced to the ground state,

    Z(mbar) = sum_n exp(-(E_n - E_0)/(eps*mbar)),

so the direct sum starts at 1 and the internal energy U is the mean
excitation energy <E - E_0>.  Two evaluation routes are kept deliberately
separate.  The direct route sums an exact head of levels plus an
Euler-MacLaurin tail with a rigorous bound (see ``partition_direct``): it
has one stop rule, the tail's remainder bound at most tol times the sum,
and always keeps the tail, so its cost does not grow with mbar.  With
y = (E - E_0)/(k_B T) it sums the moments M_k = sum_n y_n^k exp(-y_n):
Z = M_0, U/eps = mbar M_1/M_0 and C/k_B = M_2/M_0 - (M_1/M_0)^2, each
moment with its own bounded tail.  One kernel evaluates it for every
(q, mbar) point of a sweep at once; ``sweep`` runs a whole grid of one or
more q through it, and ``partition_direct`` (Z alone) and
``thermal_functions`` are one-point calls into the same code.
The closed-form route is the Euler-MacLaurin truncation from n = 0

    Z(mbar) = 1/2 + (2 mbar^2/sigma1) (1 + sqrt(sigma2)/mbar)
              + sigma1/(24 mbar sqrt(sigma2))
              - (sigma1^3/(5760 mbar sigma2^{5/2}))
                * (3 + 3 sqrt(sigma2)/mbar + sigma2/mbar^2),

whose last term is dropped at order 1.  At large mbar Z ~ q*mbar^2,
U ~ 2*mbar and C -> 2.  Reported units: energies per eps, heat capacity per
k_B.  A value that overflows (Z does past mbar ~ 1e154) is a DomainError,
not an inf or NaN.  Inputs rejected with DomainError: mbar that is not
positive and finite or whose reciprocal overflows (mbar below ~5.6e-309);
q that is not positive and finite, whose level constants sigma1, sigma2
are not finite (q above ~6.7e153), or for which sigma1*n + sigma2 overflows
at a level n <= DIRECT_N_MAX + 1 (q below ~1.1e-301), the domain rule that
building the ladder applies; and tol that is not finite or is below 2^-53,
a precision that no float64 Z can honour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, KGConfineError, TruncationFailure
from .params import sigma_constants

# Bernoulli numbers B_{2i} entering the correction terms.
BERNOULLI = {1: 1.0 / 6.0, 2: -1.0 / 30.0, 3: 1.0 / 42.0, 4: -1.0 / 30.0}

# Cap on the levels ``excitation_moments`` adds; ``_Ladder`` keeps energies finite up to it.
DIRECT_N_MAX = 10_000_000
# Elements of one exp(-b*v) block of the direct-sum kernel (rows = inverse
# temperatures, columns = levels); bounds its scratch memory whatever the
# grid size, and holds many rows of a direct sum's longest chunk (128 levels).
_BLOCK = 1 << 16
# The first level at which the direct sum tests its tails: the length of its
# first chunk.
DIRECT_EM_MIN_N = 32


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
    # Bound on the direct route's truncation error only, not on the float64 rounding
    # of its head (~terms 2^-53 Z), so below tol ~ 1e-14 not on the total error.
    tail_bound: float | None = None


@dataclass(frozen=True)
class SweepColumns:
    """Thermal functions of a sweep, one entry per (q, mbar) point, q-major.

    Columns a sweep does not compute are None.  A point that failed holds
    NaN or the overflowed value in the columns it could not compute, and
    ``failures`` maps its index to its error: only failed points have one.
    """

    Z_direct: np.ndarray | None = None
    Z_em: np.ndarray | None = None
    F: np.ndarray | None = None
    U: np.ndarray | None = None
    C: np.ndarray | None = None
    terms: np.ndarray | None = None
    tail_bound: np.ndarray | None = None
    failures: dict[int, KGConfineError] = field(default_factory=dict)


def _check_order(order: int) -> None:
    if order not in (1, 2):
        raise ConfigError(f"order must be 1 or 2, got {order!r}")


def _check_point(tol: float, *mbars: float) -> None:
    # Each mbar in turn, then tol; building a ladder checks q.
    for mbar in mbars:
        if not (mbar > 0.0) or not math.isfinite(mbar):
            raise DomainError(f"mbar must be positive and finite, got {mbar!r}")
        if not math.isfinite(1.0 / mbar):  # below mbar ~ 5.6e-309
            raise DomainError(f"1/mbar overflows at mbar={mbar!r}")
    _check_tol(tol)


def _check_tol(tol: float) -> None:
    # Z is one float64, rounded to within 2^-53 of itself: no smaller tol can be met.
    if not 2.0**-53 <= tol < math.inf:
        raise DomainError(f"tol must be finite and at least 2**-53 (~1.1e-16), got {tol!r}")


def closed_integral(beta1: float, beta2: float, beta3: float) -> float:
    """Exact value of the tail integral of the level-sum integrand:

    integral_0^inf exp(-beta1*sqrt(beta2*n + beta3)) dn
        = (2/(beta1^2 beta2)) * exp(-beta1*sqrt(beta3)) * (1 + beta1*sqrt(beta3)).

    beta1 and beta2 must be positive and beta3 non-negative, all finite;
    anything else raises ``DomainError``.  A value below the float range is
    0.0, and one past it raises ``DomainError``.
    """
    # Chained comparisons, so that NaN fails them too.
    if not (0.0 < beta1 < math.inf and 0.0 < beta2 < math.inf):
        raise DomainError(
            f"beta1 and beta2 must be positive and finite, got {beta1!r}, {beta2!r}"
        )
    if not 0.0 <= beta3 < math.inf:
        raise DomainError(f"beta3 must be non-negative and finite, got {beta3!r}")
    x = beta1 * math.sqrt(beta3)
    value = (2.0 / beta2) / beta1 / beta1 * math.exp(-x) * (1.0 + x)
    if 0.0 < value < math.inf:
        return value
    # A factor left the float range: take the value from its logarithm.
    if x == math.inf:
        return 0.0
    try:
        return math.exp(math.log(2.0) - 2.0 * math.log(beta1) - math.log(beta2)
                        + math.log1p(x) - x)
    except OverflowError:
        raise DomainError(f"closed integral at ({beta1!r}, {beta2!r}, {beta3!r}) is "
                          "past the float range") from None


# C(1/2, j) for j = 1..7, the Taylor coefficients of sqrt(1 + e); all are
# dyadic, so the recurrence C(1/2, j) = C(1/2, j-1) (3/2 - j)/j forms them exactly.
_HALF_BINOMIALS = np.cumprod([(1.5 - j) / j for j in range(1, 8)])
# Entry (m, j) indexes row m - j of a series padded with a zero row 8, which
# it picks above the diagonal: the Toeplitz matrix of a truncated product.
_PRODUCT = np.array([[m - j if j <= m else 8 for j in range(8)] for m in range(8)])
# Per-call constants of the kernel, as columns: the orders j = 1..7, the
# moments k = 0..2, 1/(k+1)! and the bound's prefactor of each moment.
_ORDERS = np.arange(1, 8)[:, None]
_K = np.arange(3)[:, None]
_INV_FACTORIAL = 1.0 / np.array([1.0, 2.0, 6.0])[:, None]
_BOUND_PREFACTOR = np.where(_K == 0, 1.0, 2.0) / (_K + 1) * abs(BERNOULLI[4]) / 8


class _Ladder:
    """The closed-form levels E_n/eps = sqrt(s1 n + s2) of each q in ``qs``
    (entry i of each array belongs to qs[i]), the only place ``thermo``
    forms them.  Building it applies the module docstring's domain rule for
    q to each q in turn, so no level energy that a sum forms is inf."""

    def __init__(self, *qs: float):
        constants = []
        for q in qs:
            s1, s2 = sigma_constants(q)
            if not math.isfinite(s1 * (DIRECT_N_MAX + 1) + s2):  # q below ~1.1e-301
                raise DomainError(f"q={q!r} puts the energy of level {DIRECT_N_MAX + 1} "
                                  "past the float range")
            constants.append((s1, s2))
        self.qs = qs
        self.s1, self.s2 = np.array(constants).T
        self.e0 = np.sqrt(self.s2)  # E_0

    def gaps(self, qs, levels: np.ndarray) -> np.ndarray:
        # E_n - E_0 as s1 n/(E_n + E_0), without the cancellation, at each of
        # ``levels``: a row per q index in the array qs, one 1-d row for an int.
        x = self.s1[qs, None] * levels
        return x / (np.sqrt(x + self.s2[qs, None]) + self.e0[qs, None])

    def tail(self, n: int, b: np.ndarray, which: np.ndarray, moments: int):
        """(z, e^{-z}, integrals, dy) at level n for rows of inverse
        temperature b on the q numbered ``which``: z = b (E_n - E_0),
        integrals[k] = integral_n^inf g_k dn for k < moments (g_k of
        ``_em_tails``), and dy[j - 1] = b sqrt(x) C(1/2, j) (s1/x)^j with
        x = s1 n + s2, the Taylor coefficients of b E(n + e) = b sqrt(x + s1 e)
        in e for orders j = 1..7, shape (7, rows).

        With the closed form's Jacobian dn = (2E/sigma1) dE, the integral is
        pref * [Gamma(k+2, z) + b E_0 Gamma(k+1, z)]/(k+1)!, pref =
        2/(b^2 sigma1), and for integer m Gamma(m+1, z) = m! e^{-z} e_m(z) with
        e_m(z) = sum_{j<=m} z^j/j!, so it is pref * e^{-z} (e_{k+1} +
        b E_0 e_k/(k+1)), a sum of positive terms; the k = 0 one is written
        pref * e^{-z} (1 + b E(n)).
        """
        x = self.s1 * n + self.s2
        root = np.sqrt(x)
        z = b * (self.s1 * n / (root + self.e0))[which]  # b (E_n - E_0), as in ``gaps``
        fx = np.exp(-z)
        pref = (2.0 / self.s1[which]) / b / b
        be0 = b * self.e0[which]
        integrals = [pref * fx * (1.0 + b * root[which])]
        e_prev, e, term = 1.0, 1.0 + z, z
        for k in range(1, moments):
            term = term * z / (k + 1)
            e_prev, e = e, e + term
            integrals.append(pref * fx * (e + be0 * e_prev / (k + 1)))
        dy = b * (root * _HALF_BINOMIALS[:, None] * (self.s1 / x) ** _ORDERS).take(which, axis=1)
        return z, fx, integrals, dy


def _exp_series(c: np.ndarray) -> np.ndarray:
    """Taylor coefficients E_0..E_7 of exp(sum_{j=1..7} c_j e^j) at e = 0, for
    every column of c (row j - 1 holds c_j); shape (8, columns).

    E = exp(C) obeys E' = C' E, whose coefficient of e^(j-1) is the
    recurrence j E_j = sum_{i<=j} i c_i E_{j-i} with E_0 = 1 (Griewank and
    Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13).
    """
    ic = _ORDERS * c
    E = np.empty((8, c.shape[1]))
    E[0] = 1.0
    for j in range(1, 8):
        np.einsum("ir,ir->r", ic[:j], E[j - 1::-1], out=E[j])
        E[j] /= j
    return E


def _em_tails(n: int, b: np.ndarray, which: np.ndarray, ladder: _Ladder, moments: int):
    """Euler-MacLaurin value of sum_{n' >= n} g_k(n'), g_k = y^k e^{-y}/(k+1)!,
    y = b v, through the B6 correction, for every row and k < moments, and a
    bound on its remainder: (tails, bounds), each of shape (moments, rows).

    At level n, y(n + e) = z + sum_j dy_j e^j with z = b v(n) and dy_j from
    ``ladder.tail``, so e^{-y(n+e)} = e^{-z} sum_m E_m e^m, E from
    ``_exp_series`` at c_j = -dy_j.  The dy_j alternate in sign from dy_1 > 0,
    so each term of E_m's recurrence has the sign (-1)^m and none cancels.  The
    series of g_k is e^{-z} (Y^k E)/(k+1)!, Y = z + sum_j dy_j e^j, and
    g_k^(m)(n) is m! times its coefficient of e^m: the correction B_{2i}/(2i)!
    g_k^(2i-1)(n) is B_{2i}/(2i) times the coefficient of order 2i - 1.  The
    remainder after the B6 correction obeys |R| <= 2|B8|/8! integral_n^inf
    |g_k^(8)| (DLMF 2.10.1, with |B8(x - floor x)| <= |B8|).

    * k = 0: g_0 is completely monotone in n, so R lies between 0 and the
      first omitted term B8/8! g_0^(7)(n) = (B8/8) e^{-z} E_7: its size.
    * k >= 1: g_k is not completely monotone.  As a function of complex
      beta, f = exp(-beta v) has f^(8)(n; beta) = f P(beta), with P a
      polynomial of degrees 1..8 whose coefficients are positive.  On the
      circle |beta - b| = rho < b, |exp(-beta v)| <= exp(-(b - rho) v) and
      |P(beta)| <= P(b + rho) <= ((b + rho)/(b - rho))^8 P(b - rho), so
      Cauchy's estimate gives
      |(v^k f)^(8)(n; b)| <= k! rho^-k ((b + rho)/(b - rho))^8 f^(8)(n; b - rho),
      and, f(.; b - rho) being completely monotone, integral_n^inf
      f^(8)(n'; b - rho) dn' = |f^(7)(n; b - rho)| = 7! e^{-(1 - theta) z} |E'_7|
      with rho = theta b and E' the series at dy scaled by 1 - theta.  As
      g_k = b^k v^k f/(k+1)!, the bound on the moment's remainder is
      2|B8|/8 (1/(k+1)) theta^-k ((1 + theta)/(1 - theta))^8
      e^{-(1 - theta) z} |E'_7|.  It holds for every theta in (0, 1);
      theta = k/(12 + z) keeps it near its smallest.

    The integral terms integral_n^inf g_k dn come from ``ladder.tail``.
    Where e^{-z} underflows to 0 the tail and its bound are 0, though z^k,
    e_k(z) and the series may overflow there.
    """
    z, fx, integrals, dy = ladder.tail(n, b, which, moments)
    # theta_0 = 0 gives the tail's own series, theta_k (k >= 1) the series of
    # the k-th bound: one recurrence serves them all.
    k = _K[:moments]
    theta = k / (12.0 + z)
    E = _exp_series((dy[:, None] * (theta - 1.0)).reshape(7, -1)).reshape(8, moments, -1)
    series = np.empty((moments, 8, z.size))  # Y^k E
    series[0] = E[:, 0]
    if moments > 1:
        Y = np.concatenate([z[None], dy, np.zeros((1, z.size))])[_PRODUCT]
        for i in range(1, moments):
            np.einsum("mjr,jr->mr", Y, series[i - 1], out=series[i])
    inv = _INV_FACTORIAL[:moments]
    corrections = sum(BERNOULLI[i] / (2 * i) * series[:, 2 * i - 1] for i in (1, 2, 3))
    # Scaled term by term, as (integral + f/2) - corrections: another grouping
    # moves the last bits of the tails and of every direct sum built on them.
    tails = np.array(integrals) + 0.5 * (fx * series[:, 0]) * inv - fx * corrections * inv
    # k = 0: the omitted term, half the Cauchy estimate's value at theta = 0.
    bounds = (_BOUND_PREFACTOR[:moments] * theta**-k
              * ((1.0 + theta) / (1.0 - theta)) ** 8
              * np.exp(-(1.0 - theta) * z) * np.abs(E[7]))
    if not fx.all():  # e^{-z} underflows somewhere: see the docstring's last paragraph
        tails[:, fx == 0.0] = bounds[:, fx == 0.0] = 0.0
    return tails, bounds


def _add_levels(sums: np.ndarray, b: np.ndarray, which: np.ndarray, live: np.ndarray,
                ladder: _Ladder, lo: int, hi: int) -> None:
    # Add levels lo..hi-1 to the moment sums of every live row, in blocks of
    # live rows with at most _BLOCK exp(-b*v) elements.  ``which`` is
    # non-decreasing, so a block's rows of one q are consecutive: the block
    # takes the gaps of each of its q once, and its row r reads gap row at[r].
    levels = np.arange(lo, hi, dtype=float)
    step = _BLOCK // levels.size
    for i in range(0, live.size, step):
        block = live[i:i + step]
        wb = which[block]
        new = np.concatenate(([True], wb[1:] != wb[:-1]))  # first row of each q
        qs, at = wb[new], np.cumsum(new) - 1
        y = ladder.gaps(qs, levels)[at]
        y *= b[block, None]
        np.minimum(y, 1e300, out=y)  # e^{-y} is 0 here anyway; w *= y stays 0, not 0*inf
        w = np.negative(y)
        np.exp(w, out=w)
        add = np.empty((sums.shape[0], block.size))
        add[0] = np.sum(w, axis=1)
        for k in range(1, sums.shape[0]):
            w *= y
            add[k] = np.sum(w, axis=1) / math.factorial(k + 1)
        sums[:, block] += add


@np.errstate(all="ignore")  # overflow at huge mbar is caught as a non-finite Z
def _direct_sums(
    b: np.ndarray, which: np.ndarray, ladder: _Ladder, tol: float, moments: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The direct-sum kernel: M_k = sum_n (b v_n)^k exp(-b v_n) for k < moments
    and every row, with v_n = (E_n - E_0)/eps.

    Row i has inverse temperature b[i] and the levels of the q numbered
    which[i] in ``ladder``, their only source; ``which`` is
    non-decreasing.  M_0 is Z, and M_1/M_0 = <b v>, M_2/M_0 = <(b v)^2> give
    U and C.  The kernel keeps M_k/(k+1)!, which tends to Z from below at
    high temperature, so no moment overflows before Z does.  Every row
    follows the chunk schedule of 32, 64, 128, ... levels.  After each round
    with N levels summed, one ``_em_tails`` call gives every live row each
    moment's Euler-MacLaurin tail from level N through the B6 correction and
    the bound on its remainder.  The row stops once every moment's bound is
    at most ``tol`` times its partial sum plus tail, and each moment is then
    that sum: the tail is always kept.  The bounds hold at every N, so the
    test runs after every chunk.  At every tol that ``_check_tol`` accepts,
    every row stops within 224 levels (32 + 64 + 128): the loop has no cap.

    Returns (sums, terms, bounds): sums[k] is M_k/(k+1)! and bounds[k] the
    absolute bound that stopped it, both of shape (moments, rows), and
    terms the levels each row summed exactly.
    """
    sums = np.zeros((moments, b.size))
    bounds = np.zeros((moments, b.size))
    terms = np.zeros(b.size, dtype=np.int64)
    live = np.arange(b.size)
    n_done = 0
    chunk = DIRECT_EM_MIN_N  # so every Euler-MacLaurin check has N >= DIRECT_EM_MIN_N
    while live.size:
        _add_levels(sums, b, which, live, ladder, n_done, n_done + chunk)
        n_done += chunk
        every = live.size == b.size  # then no copies
        bl, ql, partial = (b, which, sums) if every else (b[live], which[live], sums[:, live])
        tail, bound = _em_tails(n_done, bl, ql, ladder, moments)
        total = partial + tail
        stop = (bound <= tol * total).all(axis=0)
        done = live[stop]
        sums[:, done] = total[:, stop]
        terms[done] = n_done
        bounds[:, done] = bound[:, stop]
        live = live[~stop]
        chunk *= 2
    return sums, terms, bounds


class _Rows(NamedTuple):
    """Sweep points in q-major order: point i is (mbar[i], ladder.qs[which[i]])."""

    mbar: np.ndarray
    which: np.ndarray  # non-decreasing index into ladder.qs
    ladder: _Ladder


def _flag_not_finite(failures: dict, rows: _Rows, *columns: np.ndarray) -> None:
    # A point that has not failed otherwise but holds an infinite or NaN value.
    finite = np.logical_and.reduce([np.isfinite(c) for c in columns])
    for i in np.flatnonzero(~finite).tolist():
        if i not in failures:
            failures[i] = DomainError(
                f"thermal functions are not finite at mbar={float(rows.mbar[i])!r}, "
                f"q={rows.ladder.qs[rows.which[i]]!r} (floating-point overflow)"
            )


def partition_direct(mbar: float, q: float, tol: float = 1e-12) -> ThermoPoint:
    """Ground-state-referenced partition function: exact head + bounded tail.

    Levels are summed exactly in growing chunks (the first holds 32 levels).
    After each chunk, with N levels summed, the Euler-MacLaurin tail from
    level N through the B6 correction is formed, and the sum stops as soon
    as the tail's remainder bound is at most ``tol`` times the partial sum
    plus tail: Z is that sum.  The summand is completely monotone in n, so
    at every N the tail's remainder lies between 0 and the first omitted
    term |B8/8! f^(7)(N)|, which is that bound.

    The cost therefore stops growing with mbar.  The returned point records
    ``terms``, the levels summed exactly, and ``tail_bound``, the absolute
    bound that stopped the sum.  That bounds the truncation error only: the
    float64 rounding of the head, about N 2^-53 Z, is not included, so below
    tol ~ 1e-14 it is not a bound on the total error.  A tol below 2^-53 or
    an overflowing Z raises DomainError; otherwise the head ends within 224
    levels.  This is a one-point call into the columns ``sweep`` computes.
    """
    return _one_point("direct", mbar, q, thermal=False, tol=tol)


def partition_summand(
    mbar: float, q: float
) -> tuple[Callable[[float], float], dict[int, float], float]:
    """Summand f(n) = exp(-sqrt(sigma1*n+sigma2)/mbar) with its exact data.

    Returns (f, derivatives at 0 for odd orders 1 and 3, integral of f over
    [0, inf)).  Feed these to ``euler_maclaurin_sum`` for the generic route to
    the partition function (multiply the result by exp(sqrt(sigma2)/mbar) to
    reference it to the ground state).
    """
    _check_point(1.0, mbar)
    ladder = _Ladder(q)
    s1, s2 = float(ladder.s1[0]), float(ladder.s2[0])
    b = 1.0 / mbar

    def f(n: float) -> float:
        return math.exp(-b * math.sqrt(s1 * n + s2))

    # f^(m)(0) = m! f(0) E_m, E_m the Taylor coefficients of f(e)/f(0) from
    # the recurrence of the Euler-MacLaurin tails, from level 0 for this row.
    # Where f(0) underflows to 0 the derivatives are 0, as in ``_em_tails``,
    # though E_m may overflow there.
    E = _exp_series(-ladder.tail(0, np.array([b]), np.zeros(1, dtype=np.intp), 1)[3])
    f0 = f(0.0)
    derivs = {m: f0 * math.factorial(m) * float(E[m, 0]) if f0 else 0.0 for m in (1, 3)}
    return f, derivs, closed_integral(b, s1, s2)


def euler_maclaurin_sum(
    f: Callable[[float], float],
    integral: float,
    order: int = 2,
    derivatives: Mapping[int, float] | None = None,
) -> float:
    """Euler-MacLaurin value of sum_{n>=0} f(n) truncated at ``order`` (1 or 2).

        sum f(n) = f(0)/2 + integral - sum_{i<=order} B_{2i}/(2i)! * f^(2i-1)(0)

    The odd derivatives at 0 must be supplied via ``derivatives``
    (``partition_summand`` gives them exactly for the level sum).  A
    non-finite integral or derivative raises ``DomainError``.
    """
    _check_order(order)
    if not math.isfinite(integral):
        raise DomainError(f"integral must be finite, got {integral!r}")
    if derivatives is None:
        raise ConfigError("euler_maclaurin_sum requires a derivatives mapping")
    odd = [2 * i - 1 for i in range(1, order + 1)]
    for m in odd:
        if m not in derivatives:
            raise ConfigError(f"missing derivative of order {m}")
        if not math.isfinite(derivatives[m]):
            raise DomainError(f"derivative of order {m} must be finite, got {derivatives[m]!r}")

    total = 0.5 * f(0.0) + integral
    for i, m in enumerate(odd, start=1):
        total -= BERNOULLI[i] / math.factorial(2 * i) * float(derivatives[m])
    return total


def partition_em(mbar: float, q: float, order: int = 2) -> ThermoPoint:
    """Euler-MacLaurin partition function at ``order`` 1 or 2.

    A one-point call into the columns that ``sweep`` computes: a point where
    the closed form is non-positive (below its validity range) or not finite
    raises DomainError.
    """
    return _one_point("em", mbar, q, thermal=False, order=order)


@np.errstate(all="ignore")  # overflow at huge mbar is caught as a non-finite value
def _em_columns(rows: _Rows, order: int) -> SweepColumns:
    # The closed form Z(mbar) of the truncation and its first two exact mbar
    # derivatives at every point; a power of mbar past the float range
    # becomes inf instead of raising.
    ladder, mbar = rows.ladder, rows.mbar
    s1, s2, root = (c[rows.which] for c in (ladder.s1, ladder.s2, ladder.e0))
    z = 0.5 + (2.0 / s1) * mbar * (mbar + root) + (s1 / (24.0 * root)) / mbar
    zp = (2.0 / s1) * (2.0 * mbar + root) - (s1 / (24.0 * root)) / mbar**2
    zpp = 4.0 / s1 + (s1 / (12.0 * root)) / mbar**3
    if order >= 2:
        k = (s1 / s2) ** 2 * (s1 / root) / 5760.0
        z -= k * (3.0 / mbar + 3.0 * root / mbar**2 + s2 / mbar**3)
        zp += k * (3.0 / mbar**2 + 6.0 * root / mbar**3 + 3.0 * s2 / mbar**4)
        zpp -= k * (6.0 / mbar**3 + 18.0 * root / mbar**4 + 12.0 * s2 / mbar**5)
    # A point where the truncation is non-positive has left its validity range.
    valid = z > 0.0
    failures = {i: DomainError(
        f"EM truncation is non-positive at mbar={float(mbar[i])!r}, "
        f"q={rows.ladder.qs[rows.which[i]]!r}; outside its validity range"
    ) for i in np.flatnonzero(~valid).tolist()}
    z = np.where(valid, z, np.nan)
    # U and C from u1 = mbar*Z'/Z and u2 = mbar^2*Z''/Z, both ~2 at high
    # mbar; the division comes before the factor that would overflow, so
    # both stay finite wherever Z is.
    u1 = zp / z * mbar
    u2 = mbar * zpp / z * mbar
    F = -mbar * np.log(z)
    U = mbar * u1
    C = u1 * (2.0 - u1) + u2
    _flag_not_finite(failures, rows, z, F, U, C)
    return SweepColumns(Z_em=z, F=F, U=U, C=C, failures=failures)


@np.errstate(all="ignore")  # overflow at huge mbar is caught as a non-finite value
def _direct_columns(rows: _Rows, tol: float, moments: int) -> SweepColumns:
    # Direct-sum Z at every point from one kernel call; with moments = 3 also
    # F, U = mbar*M1/M0 and C = M2/M0 - (M1/M0)^2 from the same sums.
    mbar = rows.mbar
    sums, terms, bounds = _direct_sums(1.0 / mbar, rows.which, rows.ladder, tol, moments)
    z, failures = sums[0], {}
    if moments == 1:
        _flag_not_finite(failures, rows, z)
        return SweepColumns(Z_direct=z, terms=terms, tail_bound=bounds[0], failures=failures)
    m1, m2 = sums[1] / z * 2.0, sums[2] / z * 6.0  # <y> and <y^2>
    F, U, C = -mbar * np.log(z), mbar * m1, m2 - m1 * m1
    _flag_not_finite(failures, rows, z, F, U, C)
    return SweepColumns(
        Z_direct=z, F=F, U=U, C=C, terms=terms, tail_bound=bounds[0], failures=failures,
    )


def thermal_functions(
    method: str,
    mbar: float,
    q: float,
    order: int = 2,
    tol: float = 1e-12,
) -> ThermoPoint:
    """Free energy, internal energy, and heat capacity at one sweep point.

    With t = ln mbar and L(t) = ln Z:  F/eps = -mbar * L,  U/eps = mbar * L',
    and C/k_B = dU/dT = L' + L''  (equivalently k_B beta^2 (-dU/dbeta), which
    is positive since U falls with beta).  ``method`` is ``"direct"`` or
    ``"em"``.  The em route differentiates the closed form of Euler-MacLaurin
    ``order`` exactly.  The direct route needs no derivative: with
    y = (E - E_0)/(k_B T), L' = <y> and L' + L'' = <y^2> - <y>^2, so
    U = mbar <y> and C = <y^2> - <y>^2 come from the moment sums
    M_k = sum_n y_n^k exp(-y_n), k = 0, 1, 2, that the direct-sum kernel
    adds in one pass, each with its own bounded tail.  This is a one-point
    call into the same columns that ``sweep`` computes over a grid.
    """
    return _one_point(method, mbar, q, thermal=True, order=order, tol=tol)


def _one_point(
    method: str, mbar: float, q: float, thermal: bool, order: int = 2, tol: float = 1e-12
) -> ThermoPoint:
    # The columns that ``sweep`` computes, at the single point (mbar, q), as a
    # ThermoPoint; a failed point raises its error.  Without ``thermal`` F, U
    # and C stay None and the direct route sums Z alone.
    _check_order(order)
    _check_point(tol, mbar)
    rows = _Rows(np.array([float(mbar)]), np.zeros(1, dtype=np.intp), _Ladder(q))
    if method == "em":
        cols = _em_columns(rows, order)
        z = cols.Z_em
    elif method == "direct":
        cols = _direct_columns(rows, tol, moments=3 if thermal else 1)
        z = cols.Z_direct
    else:
        raise ConfigError(f"method must be 'direct' or 'em', got {method!r}")
    if cols.failures:
        raise cols.failures[0]
    F, U, C = (float(c[0]) for c in (cols.F, cols.U, cols.C)) if thermal else (None,) * 3
    return ThermoPoint(
        mbar=mbar, Z=float(z[0]), method=method, F=F, U=U, C=C,
        terms=None if cols.terms is None else int(cols.terms[0]),
        tail_bound=None if cols.tail_bound is None else float(cols.tail_bound[0]),
    )


def sweep(
    method: str,
    mbar: np.ndarray,
    q,
    order: int = 2,
    tol: float = 1e-12,
) -> SweepColumns:
    """Thermal sweep over an mbar grid for one q or a 1-d array of q.

    The columns hold one entry per (q, mbar) point, q-major: the whole grid
    for the first q, then for the next.  ``method`` picks them:

    * ``"direct"``: direct-sum Z, F, U and C, as
      ``thermal_functions("direct")`` gives them point by point;
    * ``"em"``: the Euler-MacLaurin closed form's Z, F, U and C at ``order``;
    * ``"both"``: the direct-sum Z next to the closed form's Z, F, U and C.

    Every point of a direct sweep is one row of a single kernel call.  A
    point that fails keeps NaN in the columns it could not compute and its
    error in ``failures``; under ``"both"`` the direct sum's error wins.
    """
    _check_order(order)
    mbar = np.asarray(mbar, dtype=float)
    if mbar.ndim != 1 or mbar.size == 0:
        raise DomainError(f"mbar must be a non-empty 1-d grid, got shape {mbar.shape}")
    q_grid = np.asarray(q, dtype=float)
    if q_grid.ndim > 1 or q_grid.size == 0:
        raise DomainError(f"q must be a number or a non-empty 1-d array, got shape {q_grid.shape}")
    qs = tuple(q_grid.reshape(-1).tolist())
    # The grid's extremes, tol and then each q in turn: the first error is the sweep's.
    _check_point(tol, float(mbar.min()), float(mbar.max()))
    rows = _Rows(np.tile(mbar, len(qs)), np.repeat(np.arange(len(qs)), mbar.size), _Ladder(*qs))
    if method == "direct":
        return _direct_columns(rows, tol, moments=3)
    if method == "em":
        return _em_columns(rows, order)
    if method != "both":
        raise ConfigError(f"method must be 'direct', 'em' or 'both', got {method!r}")
    direct = _direct_columns(rows, tol, moments=1)
    em = _em_columns(rows, order)
    return SweepColumns(
        Z_direct=direct.Z_direct, Z_em=em.Z_em, F=em.F, U=em.U, C=em.C,
        terms=direct.terms, tail_bound=direct.tail_bound,
        failures={**em.failures, **direct.failures},
    )


def _exp_moment_tail(scale: float, b: float, z: float, m: int) -> float:
    # scale times integral_z^inf v^m exp(-b v) dv for integer m >= 0, via the
    # finite sum (scale m!/b^{m+1}) e^{-bz} sum_{j<=m} (bz)^j/j!; 0 where
    # e^{-bz} underflows, though the sum may overflow there.  The prefactor
    # divides by b once per power, as b^{m+1} may leave the float range
    # where scale/b^{m+1} does not.
    w = math.exp(-b * z)
    if w == 0.0:
        return 0.0
    acc = term = 1.0
    for j in range(1, m + 1):
        term *= b * z / j
        acc += term
    pref = scale * math.factorial(m)
    for _ in range(m + 1):
        pref /= b
    return pref * w * acc


@np.errstate(over="ignore")  # b*v overflows only where its weight exp(-b*v) is 0
def excitation_moments(
    mbar: float, q: float, tol: float = 1e-12
) -> tuple[float, float, float]:
    """(Z, <v>, <v^2>) for the excitation energy v = (E - E_0)/eps.

    Moments are Boltzmann-weighted sums over the spectrum with rigorous
    integral tail bounds; the heat capacity follows from the fluctuation
    identity C/k_B = (<v^2> - <v>^2)/mbar^2.  This brute-force sum does not
    share the direct-sum kernel on purpose: it adds every level up to the
    integral bound, with no Euler-MacLaurin tail and in chunks of its own,
    so it is an independent reference for the kernel's moment sums behind
    ``thermal_functions("direct")`` (acceptance criterion 7).  Its cost
    therefore still grows as q*mbar^2.
    """
    _check_point(tol, mbar)
    ladder = _Ladder(q)
    s1, e0 = float(ladder.s1[0]), float(ladder.e0[0])
    b = 1.0 / mbar
    sums = np.zeros(3)
    n_done = 0
    chunk = 4096
    while n_done <= DIRECT_N_MAX:
        hi = min(n_done + chunk, DIRECT_N_MAX + 1)
        v = ladder.gaps(0, np.arange(n_done, hi, dtype=float))  # E_n - E_0
        w = np.exp(-b * v)
        sums += (float(np.sum(w)), float(np.sum(v * w)), float(np.sum(v * v * w)))
        n_done = hi
        v0 = float(v[-1])
        # The integrand bounds below require v^k (v+e0) e^{-bv} to be
        # decreasing; keep summing until safely past its mode.
        if b * v0 > 4.0:
            for k in range(3):
                # sum_{n>=n_done} v^k w <= (2/s1) * int_{v0}^inf v^k (v+e0) e^{-bv} dv
                bound = (_exp_moment_tail(2.0 / s1, b, v0, k + 1)
                         + e0 * _exp_moment_tail(2.0 / s1, b, v0, k))
                ref = sums[k] if sums[k] > 0.0 else 1.0
                if bound >= tol * ref:
                    break
            else:  # every moment's bound is below tol
                return float(sums[0]), float(sums[1] / sums[0]), float(sums[2] / sums[0])
        chunk = min(chunk * 2, 1 << 20)
    raise TruncationFailure(
        f"moment sums did not converge within {DIRECT_N_MAX} terms "
        f"(mbar={mbar!r}, q={q!r})",
        float(sums[0]),
        DIRECT_N_MAX,
    )
