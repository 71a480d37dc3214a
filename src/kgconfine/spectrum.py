"""Bound-state energies, level densities, and eigenfunction profiles.

The closed-form spectrum of the scalar-coupled model is

    E_n^2 = 2 a2 a3 + (a2/Q) * (2n + 1 + sqrt(1 + 4 Q^2 a3^2)),   Q = 1/(hbar c),

independent of both the rest energy and the offset a1 (their contributions
cancel between eps1 and A3^2/4).  Both signs of the square root are physical
branches; ``energy`` returns the positive one, and for this pure scalar
coupling the negative branch is exactly its negation.  Eigenfunctions are
assembled in the scaled coordinate y as

    psi(y) = y^p * exp((A3*y - y^2)/2) * u(y)

with u the regular biconfluent-Heun series whose parameters come from
matching the reduced equation onto the canonical form: c1 = 2p - 1,
c2 = -A3, c3 = eps1(E) + A3^2/4 + 1, c4 = -2*A1.  At E = E_n this gives
c3 - c1 - 2 = 2n, the necessary polynomial-termination condition.

The closed-form energies satisfy only that necessary condition; the series
coefficient a_{n+1} stays nonzero (a c4 constraint would also be needed), so
the untruncated series mixes in the exponentially growing companion solution
and the product psi regrows at large y.  Bound-state profiles therefore
sample the degree-n truncation of the series, which is what carries the
decaying tail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import heun
from .errors import DomainError
from .params import PhysicalParams, _Reduction, _reduction

# psi must drop below this fraction of its peak for a grid to count as
# covering the full decay (and for normalized samples to claim it).
DECAY_FRACTION = 1e-8

# auto_grid refuses a level whose rounding estimate reaches this: its double
# precision profile is off by orders of magnitude more than DECAY_FRACTION
# of its peak.
ROUNDING_LIMIT = 1e3 * DECAY_FRACTION

# auto_grid's grids have at least this many points: half its 2001-point
# probe, so their spacing is at most y_max/1000.
MIN_GRID_POINTS = 1001

# The indices of auto_grid's 2001-point probe; probe i sits at y = i*end/2000.
_STEPS = np.arange(2001.0)
_STEPS.setflags(write=False)

# The rounding estimate's nodes y_j = j*end/64, j = 1..64, as fractions
# x_j = j/64 of end; the rows log x, x and x^2 give log w(y_j) in one product.
_NODES = np.arange(1.0, 65.0) / 64.0
_NODE_BASIS = np.stack((np.log(_NODES), _NODES, _NODES * _NODES))
_NODE_BASIS.setflags(write=False)


@dataclass(frozen=True, eq=False)
class WavefunctionSample:
    """Eigenfunction profile sampled on a y-grid.

    ``normalized`` is set only when normalization was requested, the grid
    reaches far enough into the tail (|psi| below DECAY_FRACTION of the peak
    at the last point) for the quadrature to be trustworthy, and the level's
    rounding estimate ``rounding`` (see ``auto_grid``) is below
    DECAY_FRACTION.
    """

    n: int
    grid: np.ndarray
    values: np.ndarray
    normalized: bool
    rounding: float


def _check_n(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise DomainError(f"quantum number must be a non-negative integer, got {n!r}")
    return int(n)


def energy(n: int, params: PhysicalParams) -> float:
    """Closed-form positive-branch eigenvalue of level ``n``; the negative
    branch is its negation.  Raises ``DomainError`` where E_n^2 overflows."""
    n = _check_n(n)
    root = _reduction(params).root
    # a2 > 0, a3 >= 0, Q > 0 and root >= 1 make every term non-negative.
    e_sq = 2.0 * params.a2 * params.a3 + (params.a2 / params.Q) * (2.0 * n + 1.0 + root)
    if not math.isfinite(e_sq):
        raise DomainError(f"energy of level {n} is not finite: E^2 = {e_sq!r} "
                          "(floating-point overflow)")
    return math.sqrt(e_sq)


def quantization_residual(energy_value: float, n: int, params: PhysicalParams) -> float:
    """How far an energy is from satisfying the termination condition.

    Returns eps1(E) + A3^2/4 - 2p - 2n, which vanishes exactly at the
    closed-form eigenvalues.  Useful as an independent check of the spectrum:
    it is built from the wave-equation coefficients, not from the solved-for
    energy formula.
    """
    n = _check_n(n)
    if not math.isfinite(energy_value):
        raise DomainError(f"energy must be finite, got {energy_value!r}")
    r = _reduction(params, energy_value)
    return r.eps1 + r.Q_a2 * r.shift**2 - 2.0 * r.p - 2.0 * n  # Q_a2*shift^2 = A3^2/4


def level_density_paper(energy_value: float, params: PhysicalParams) -> float:
    """Level density in its published form, rho(E) = (Q/a2) * sqrt(E).

    Kept verbatim for figure comparison even though differentiating the
    spectrum gives dn/dE = Q*E/a2 instead; see level_density_consistent.
    """
    if not (energy_value > 0.0):
        raise DomainError(f"energy must be positive, got {energy_value!r}")
    return _reduction(params).Q_a2 * math.sqrt(energy_value)


def level_density_consistent(energy_value: float, params: PhysicalParams) -> float:
    """Level density dn/dE = Q*E/a2 implied by the closed-form spectrum.

    Valid above the band bottom.  No domain checks are applied: the product
    is finite for every energy ``energy`` returns, but overflows to inf for
    an argument near the float limit.
    """
    return _reduction(params).Q_a2 * energy_value


def _heun_params(r: _Reduction) -> heun.HeunParams:
    # Coefficient matching, from the reduction at the level's energy.
    return heun.HeunParams(
        c1=2.0 * r.p - 1.0,
        c2=-r.A3,
        c3=r.eps1 + 0.25 * r.A3**2 + 1.0,
        c4=-2.0 * r.A1,
    )


def heun_parameters(n: int, params: PhysicalParams) -> heun.HeunParams:
    """Heun parameters of the level-n eigenfunction via coefficient matching."""
    return _heun_params(_reduction(params, energy(n, params)))


@dataclass(eq=False)
class _Level:
    """One level's constants: the reduction at E_n, the degree-n cut, its
    rounding estimate, and the last grid ``auto_grid`` returned for it with
    psi on that grid and the peak of |psi|, held apart from the caller's
    copy so that editing the returned grid cannot reach them."""

    reduction: _Reduction
    series: heun.SeriesSolution
    rounding: float
    handoff: tuple[np.ndarray, np.ndarray, float] | None = None


@functools.lru_cache(maxsize=1)
def _truncation(n: int, params: PhysicalParams) -> _Level:
    # One entry: auto_grid's probes and the wavefunction call after them
    # share the level's constants and the probe's profile, and nothing is
    # kept from one (n, params) to the next.  Coefficients that overflow
    # make psi non-finite on every grid, so no Horner pass runs on them.
    r = _reduction(params, energy(n, params))
    series = heun.truncated_polynomial(_heun_params(r), n)
    if not np.isfinite(series.coeffs).all():
        raise DomainError(f"level-{n} profile is not finite in double precision: "
                          f"its degree-{n} series coefficients overflow")
    return _Level(r, series, _rounding(r, series.coeffs))


def _first_end(r: _Reduction) -> float:
    """End of auto_grid's first probe: past the outer classical turning
    point of y^2 - A3*y = eps1."""
    disc = r.A3 * r.A3 + 4.0 * r.eps1
    y_turn = 0.5 * (r.A3 + math.sqrt(disc)) if disc > 0.0 else 0.0
    return max(2.0, 1.5 * y_turn + 2.0)


@functools.lru_cache(maxsize=1)
def _node_powers(rows: int) -> np.ndarray:
    # (j/64)^k for k < rows, one row per k.  Callers ask for a power of two
    # and at least 256 rows, so every level up to n = 255 shares one table.
    powers = _NODES ** np.arange(float(rows))[:, None]
    powers.setflags(write=False)
    return powers


def _rounding(r: _Reduction, coeffs: np.ndarray) -> float:
    """Rounding estimate of a level's profile relative to its peak.

    rho = 2^-53 * max_j S(y_j) w(y_j) / max_j |u(y_j) w(y_j)| over the nodes
    y_j = j*end/64, j = 1..64, with end the first probe's end, S(y) =
    sum |a_k| y^k, u(y) = sum a_k y^k and w(y) = y^p e^{(A3 y - y^2)/2}
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 5).  Both
    sums come from one matrix product of the terms a_k end^k.  The terms and
    the weights are each formed from their logarithms and scaled by their
    largest magnitude, a factor that cancels in rho, so neither overflows or
    underflows as a whole.
    """
    end = _first_end(r)
    size = coeffs.size
    with np.errstate(divide="ignore", invalid="ignore"):
        # Row 0 is |a_k| end^k and row 1 a_k end^k, over the largest term.
        pair = np.empty((2, size))
        log_terms = np.log(np.abs(coeffs, out=pair[0]), out=pair[0])
        log_terms += np.arange(float(size)) * math.log(end)
        log_terms -= log_terms.max()
        np.exp(log_terms, out=pair[0])
        np.copysign(pair[0], coeffs, out=pair[1])
        sums = pair @ _node_powers(1 << max(8, size.bit_length()))[:size]
        # log w(y_j) less the constant p*log(end).
        log_w = np.array((r.p, 0.5 * r.A3 * end, -0.5 * end * end)) @ _NODE_BASIS
        log_w -= log_w.max()
        sums *= np.exp(log_w, out=log_w)
        big = np.abs(sums, out=sums).max(axis=1)
        return heun._UNIT_ROUNDOFF * float(big[0] / big[1])


def _profile(n: int, level: _Level, grid: np.ndarray) -> np.ndarray:
    """psi of level n on a grid that is already checked; a fresh array."""
    # Horner runs outside the errstate block: inside it, the profiles
    # benchmark ran ~8% slower on a 2-vCPU VM.  The finiteness check below
    # also catches a non-finite Horner value u.
    values = heun.evaluate_series(level.series, grid)
    # p and A3 do not depend on the energy, so they are the bits of _reduction(params).
    r = level.reduction
    # y^p with p >= 1 vanishes at y = 0; elsewhere it is exp(p*log y).
    k = int(grid[0] == 0.0)
    y = grid[k:]
    with np.errstate(over="ignore", invalid="ignore"):
        values[k:] *= np.exp(r.p * np.log(y) + 0.5 * (r.A3 * y - y**2))
    values[:k] = 0.0
    if not np.all(np.isfinite(values)):
        raise DomainError(f"level-{n} profile is not finite in double precision on this grid")
    return values


def wavefunction(
    n: int, params: PhysicalParams, grid: np.ndarray, normalize: bool = False
) -> WavefunctionSample:
    """Sample the level-n eigenfunction on a non-negative, increasing y-grid.

    The Heun factor is the degree-n truncation of the series (see module
    docstring); normalization uses trapezoid quadrature of psi^2 over the
    doubled symmetric domain (the profile is even in y), i.e. 2 * trapz(psi^2).
    A sample that overflows double precision, a profile that underflows to
    zero on the grid when normalized, or a level whose series coefficients
    overflow (before any evaluation) raises DomainError.

    On the grid ``auto_grid(n, params)`` just returned (equal by value; no
    other level or potential called in between), psi and its peak are the
    ones its last probe already computed there, bit for bit what a fresh
    evaluation gives, and the grid is not checked again: it is valid by
    construction.  That grid's last sample is below the decay threshold, so
    ``normalize=True`` sets ``normalized`` unless the level's rounding
    estimate is at least DECAY_FRACTION.  Any other grid, an edited copy of
    that one included, is checked and evaluated anew.  The rounding estimate
    never makes this call raise: a caller's grid may lie where the sum is
    accurate.
    """
    n = _check_n(n)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("grid must be a 1-d array with at least two points")
    level = _truncation(n, params)
    handoff = level.handoff
    if handoff is not None and np.array_equal(grid, handoff[0]):
        # auto_grid's lattice is valid by construction, and the probe's
        # peak lies before the cut.
        values, peak = handoff[1].copy(), handoff[2]
    else:
        if not np.all(np.isfinite(grid)):
            raise DomainError("grid must be finite")
        if grid[0] < 0.0 or np.any(np.diff(grid) <= 0.0):
            raise DomainError("grid must be non-negative and strictly increasing")
        values = _profile(n, level, grid)
        peak = float(np.max(np.abs(values)))
    decayed = peak > 0.0 and abs(values[-1]) < DECAY_FRACTION * peak
    if normalize:
        # Scaling by a power of two that brings the peak into [1/2, 1) is
        # exact, so psi^2 cannot overflow and the quotient keeps its bits.
        # In place: one more temporary per profile raised the profiles
        # benchmark's peak RSS by ~7 MB.
        np.ldexp(values, -math.frexp(peak)[1], out=values)
        norm_sq = 2.0 * np.trapezoid(values**2, grid)
        if norm_sq <= 0.0:
            raise DomainError(f"level-{n} profile underflows to zero on this grid")
        values = values / math.sqrt(norm_sq)
    values.setflags(write=False)
    return WavefunctionSample(
        n=n, grid=grid, values=values,
        normalized=bool(normalize and decayed and level.rounding < DECAY_FRACTION),
        rounding=level.rounding,
    )


def _lattice(end: float) -> np.ndarray:
    # Bit for bit np.linspace(0, end, 2001), which forms i*step, adds the
    # start 0.0 and sets the last point to end, at ~6 us less per probe.
    lattice = _STEPS * (end / 2000)
    lattice[-1] = end
    return lattice


def auto_grid(n: int, params: PhysicalParams) -> np.ndarray:
    """Pick a y-grid [0, y_max] that covers the decaying part of level n.

    The search probes the lattice y_i = i*end/2000, i = 0..2000 (bit for bit
    ``linspace(0, end, 2001)``), and widens ``end`` by 1.6
    until |psi| on the probe drops below DECAY_FRACTION of its peak after
    the peak.  The grid returned is the probe itself, cut just after its
    last point where |psi| is still at least DECAY_FRACTION of the peak:
    spacing end/2000, at least MIN_GRID_POINTS points, its last sample the
    first one below the threshold.  A probe that decays before
    MIN_GRID_POINTS points overshot (a heavy or tightly bound level whose
    peak may fall between its points), so the search probes again on [0,
    that first point below threshold].  So the profile on the grid rises,
    oscillates through its n nodes, and decays below the normalization
    threshold at the last point; node zeros inside the oscillatory region
    do not fool the scan because it keys on the *last* above-threshold
    point, not the first dip.  After 12 probes without such a cut the grid
    is ``linspace(0, end, 2001)``.

    Before the first probe, a level whose rounding estimate (``_rounding``)
    is at least ROUNDING_LIMIT raises DomainError: its double-precision
    profile would be wrong by far more than DECAY_FRACTION of its peak.  An
    infinite estimate refuses nothing.  A level whose series coefficients
    overflow raises DomainError, here and in ``wavefunction``, before any
    evaluation.
    """
    n = _check_n(n)
    level = _truncation(n, params)
    if ROUNDING_LIMIT <= level.rounding < math.inf:
        raise DomainError(
            f"level-{n} profile is lost to rounding in double precision: "
            f"rounding estimate {level.rounding:.2e} >= {ROUNDING_LIMIT:.0e} of its peak"
        )
    end = _first_end(level.reduction)

    for _ in range(12):
        probe = _lattice(end)
        values = _profile(n, level, probe)
        mag = np.abs(values)
        peak = float(np.max(mag))
        above = np.nonzero(mag >= DECAY_FRACTION * peak)[0]
        last = int(above[-1])
        if last == mag.size - 1:
            end *= 1.6
        elif last + 2 < MIN_GRID_POINTS:
            end = float(probe[last + 1])
        else:
            # probe and values stay private to the cache, so wavefunction
            # on an unedited copy of this grid reuses the probe's profile.
            cut = slice(0, last + 2)
            level.handoff = (probe[cut], values[cut], peak)
            return probe[cut].copy()
    return _lattice(end)
