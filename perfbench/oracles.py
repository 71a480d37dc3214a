"""Independent high-precision references for the benchmark's output checks.

Nothing here imports kgconfine.  The level ladder is rebuilt from the
paper's closed-form spectrum,

    (E_n/eps)^2 = 2 + (2n + 1 + sqrt(1 + 4 q^2)) / q,

so the slope 2/q and the ground level are derived here rather than taken
from the package's sigma constants.

Thermodynamics: the Boltzmann moments S_k = sum_n v_n^k exp(-v_n/mbar), with
v_n = (E_n - E_0)/eps, are summed exactly at 30 digits up to a level N where
the summand varies slowly on unit spacing; the rest is the Euler-MacLaurin
tail from N, whose integral is closed-form (incomplete gamma functions of
integer order) and whose odd derivatives come from exact Taylor-series
arithmetic.  Z = S_0, U = S_1/S_0 and C = (S_2/S_0 - U^2)/mbar^2.

Profiles: the biconfluent-Heun recurrence and the polynomial evaluation run
in 60-digit decimal arithmetic (the C-accelerated ``decimal`` module is ~10x
faster than mpmath for the many Horner steps); only the well-conditioned
prefactor y^p exp((A3 y - y^2)/2) is formed in double precision.
"""

from __future__ import annotations

import decimal

import mpmath as mp
import numpy as np

THERMO_DPS = 30
PROFILE_DIGITS = 60

# The exact head runs to at least HEAD_MIN levels (the square-root branch
# point sits about one level below n = 0, and the Euler-MacLaurin terms from
# N shrink like (2j)!/(2 pi (N + 1))^(2j)) and until the summand's logarithmic
# slope b*slope/(2E) is at most SMOOTH.
HEAD_MIN = 32
SMOOTH = 0.125
# Euler-MacLaurin correction terms kept at most (Taylor order 2*EM_TERMS).
EM_TERMS = 16


class OracleError(RuntimeError):
    """A reference computation did not reach its own accuracy target."""


def _series_exp(g: list) -> list:
    # Taylor coefficients of exp(g(t)) from those of g: w' = g' w.
    w = [mp.exp(g[0])]
    for m in range(1, len(g)):
        w.append(mp.fsum(i * g[i] * w[m - i] for i in range(1, m + 1)) / m)
    return w


def _series_mul(x: list, y: list) -> list:
    return [mp.fsum(x[i] * y[m - i] for i in range(m + 1)) for m in range(len(x))]


def _upper_gamma(m: int, x):
    # Gamma(m + 1, x) for integer m >= 0: m! e^{-x} sum_{j<=m} x^j / j!.
    term, acc = mp.mpf(1), mp.mpf(1)
    for j in range(1, m + 1):
        term *= x / j
        acc += term
    return mp.factorial(m) * mp.exp(-x) * acc


def tail_integral(k: int, b, slope, e0, big_e):
    """integral_N^inf v^k exp(-b v) dn with v = E(n) - e0, E(N) = big_e.

    dn = (2E/slope) dE, so the integral is
    (2/slope) [Gamma(k+2, b v_N)/b^(k+2) + e0 Gamma(k+1, b v_N)/b^(k+1)].
    """
    v = big_e - e0
    return (2 / slope) * (
        _upper_gamma(k + 1, b * v) / b ** (k + 2) + e0 * _upper_gamma(k, b * v) / b ** (k + 1)
    )


def thermo_reference(mbar: float, q: float) -> tuple[float, float, float]:
    """Reference (Z, U, C) at one sweep point, ground-state referenced."""
    with mp.workdps(THERMO_DPS):
        q = mp.mpf(q)
        b = 1 / mp.mpf(mbar)
        slope = 2 / q
        e0 = mp.sqrt(2 + (1 + mp.sqrt(1 + 4 * q * q)) / q)
        negligible = mp.mpf(10) ** (-(THERMO_DPS + 10))
        sums = [mp.mpf(0)] * 3
        n = 0
        while True:
            e = mp.sqrt(e0 * e0 + slope * n)
            v = e - e0
            w = mp.exp(-b * v)
            if n >= HEAD_MIN and b * slope / (2 * e) <= SMOOTH:
                sums = [s + t for s, t in zip(sums, _em_tail(b, slope, e0, e))]
                break
            sums = [sums[0] + w, sums[1] + v * w, sums[2] + v * v * w]
            n += 1
            if v * b > 8 and w < negligible:
                # Far past every moment's mode the summands fall by at least
                # exp(-b*slope/(2E)) per level; what is left is below the
                # working precision.
                break
        z = sums[0]
        u = sums[1] / z
        c = (sums[2] / z - u * u) * b * b
        return float(z), float(u), float(c)


def _em_tail(b, slope, e0, big_e) -> list:
    # Euler-MacLaurin sum_{n >= N} f_k(n) for k = 0, 1, 2:
    #   integral + f(N)/2 - sum_j B_2j/(2j) * c_{2j-1},
    # with c_m the Taylor coefficients of f_k(N + t).
    order = 2 * EM_TERMS
    x = slope / (big_e * big_e)
    coeff, e_series = mp.mpf(1), [big_e]
    for j in range(1, order + 1):
        coeff *= (mp.mpf(1) / 2 - (j - 1)) / j
        e_series.append(big_e * coeff * x**j)
    v_series = [e_series[0] - e0] + e_series[1:]
    w_series = _series_exp([-b * c for c in v_series])
    vw_series = _series_mul(v_series, w_series)
    series = [w_series, vw_series, _series_mul(v_series, vw_series)]
    tails = []
    for k, f in enumerate(series):
        total = tail_integral(k, b, slope, e0, big_e) + f[0] / 2
        target = abs(total) * mp.mpf(10) ** (-(THERMO_DPS - 5))
        for j in range(1, EM_TERMS + 1):
            term = mp.bernoulli(2 * j) / (2 * j) * f[2 * j - 1]
            total -= term
            if abs(term) < target:
                break
        else:
            raise OracleError(f"Euler-MacLaurin tail did not settle (k={k})")
        tails.append(total)
    return tails


def em_closed_form(mbar: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Order-2 Euler-MacLaurin Z as documented in kgconfine.thermo's docstring.

    Written out here from the documented formula, in double precision; it
    checks the EM column's implementation, not the approximation.
    """
    root = np.sqrt(1.0 + 4.0 * q * q)
    s1 = 2.0 / q
    s2 = 2.0 + (1.0 + root) / q
    r2 = np.sqrt(s2)
    return (
        0.5
        + (2.0 * mbar**2 / s1) * (1.0 + r2 / mbar)
        + s1 / (24.0 * mbar * r2)
        - (s1**3 / (5760.0 * mbar * s2**2.5)) * (3.0 + 3.0 * r2 / mbar + s2 / mbar**2)
    )


def profile_reference(
    n: int, a1: float, a2: float, a3: float, mass: float, hbar_c: float, ys: np.ndarray
) -> np.ndarray:
    """Unnormalized level-n profile psi(y) at the points ``ys``.

    psi = y^p exp((A3 y - y^2)/2) u_n(y), with u_n the degree-n truncation of
    the regular biconfluent-Heun series: (k+1)(k+1+c1) a_{k+1} =
    (c2 k + K) a_k + (2k + c1 - c3) a_{k-1}, a_0 = 1, K = (c4 + c2(1+c1))/2.
    At the closed-form energy the parameters are exact: c1 = sqrt(1 + 4q^2),
    p = (1 + c1)/2, c2 = -A3 = 2 sqrt(Q/a2) (m + a1), c3 = 2n + 2p + 1 and
    c4 = -2 A1 = 2 q c2.
    """
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=PROFILE_DIGITS)):
        big_q = 1 / D(hbar_c)
        q = big_q * D(a3)
        c1 = (1 + 4 * q * q).sqrt()
        p = (1 + c1) / 2
        c2 = 2 * (big_q / D(a2)).sqrt() * (D(mass) + D(a1))
        c3 = 2 * n + 2 * p + 1
        big_k = (2 * q * c2 + c2 * (1 + c1)) / 2
        coeffs = [D(1)]
        if n >= 1:
            coeffs.append(big_k / (1 + c1))
        for k in range(1, n):
            coeffs.append(
                ((c2 * k + big_k) * coeffs[k] + (2 * k + c1 - c3) * coeffs[k - 1])
                / ((k + 1) * (k + 1 + c1))
            )
        coeffs.reverse()
        u = np.empty(len(ys))
        for i, y in enumerate(ys):
            yd = D(float(y))
            acc = D(0)
            for a in coeffs:
                acc = acc * yd + a
            u[i] = float(acc)
    a3_coef = -float(c2)
    ys = np.asarray(ys, dtype=float)
    with np.errstate(divide="ignore"):
        log_pref = float(p) * np.log(ys) + 0.5 * (a3_coef * ys - ys * ys)
    return np.where(ys > 0.0, np.exp(log_pref), 0.0) * u
