"""Potential parameters and their dimensionless reduction.

The model is a one-dimensional Klein-Gordon particle with a scalar potential

    V_S(x) = a1 + a2*|x| + a3/|x|

added to the mass term and no vector coupling.  All module math works with
the inverse length Q = 1/(hbar*c) and the scaled coordinate y = sqrt(Q*a2)*|x|.
The reduction's formulas live here only: ``spectrum`` takes its wave-equation
coefficients from ``_reduction``, and ``thermo`` builds its level ladder on
``sigma_constants``, called once per q.  Their symbols:

    q       = a3/(hbar*c), the single coupling the spectrum depends on
    eps     = sqrt(a2*a3), the natural energy unit
    sigma1  = 2/q
    sigma2  = 2 + (1 + sqrt(1 + 4 q^2))/q, so E_n = eps*sqrt(sigma1*n + sigma2)
    A1..A3  = coefficients of the scaled wave equation
              psi'' + (eps1 + A1/y + A2/y^2 + A3*y - y^2) psi = 0
    p       = 1/2 + sqrt(1 - 4*A2)/2, the power in the y -> 0 behavior y^p
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError


@dataclass(frozen=True)
class PhysicalParams:
    """Potential coefficients plus rest energy, all in one energy unit.

    ``mass`` is the rest energy m*c^2.  a2 must be positive (the linear term
    provides confinement) and a3 must be non-negative; a1 is an energy offset.
    The reduction's squares must be finite: 1 + 4 (Q a3)^2, (m c^2 + a1)^2
    and A3^2 = 4 (Q/a2) (m c^2 + a1)^2 (the reduction squares with float
    powers, which raise OverflowError where a product would give inf).
    """

    a1: float
    a2: float
    a3: float
    mass: float
    hbar_c: float = 1.0

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "mass", "hbar_c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.a2 <= 0.0:
            raise DomainError(f"a2 must be positive, got {self.a2!r}")
        if self.hbar_c <= 0.0:
            raise DomainError(f"hbar_c must be positive, got {self.hbar_c!r}")
        if self.a3 < 0.0:
            # eps = sqrt(a2*a3) must be real; the bound-state analysis assumes
            # a repulsive 1/|x| core.
            raise DomainError(f"a3 must be non-negative, got {self.a3!r}")
        if self.mass < 0.0:
            raise DomainError(f"mass must be non-negative, got {self.mass!r}")
        q = self.Q * self.a3
        if not math.isfinite(1.0 + 4.0 * q * q):  # past q ~ 6.7e153 sqrt(1 + 4q^2) is inf
            raise DomainError(f"q = Q*a3 = {q!r} (a3={self.a3!r}, hbar_c={self.hbar_c!r}) "
                              "puts sqrt(1 + 4 q^2) past the float range")
        shift = self.mass + self.a1
        a3_coef = 2.0 * math.sqrt(self.Q / self.a2) * shift  # |A3|
        if not (math.isfinite(shift * shift) and math.isfinite(a3_coef * a3_coef)):
            raise DomainError(f"mass + a1 = {shift!r} puts (m c^2 + a1)^2 or "
                              "A3^2 = 4 (Q/a2) (m c^2 + a1)^2 past the float range")

    @property
    def Q(self) -> float:
        """Inverse length scale 1/(hbar*c)."""
        return 1.0 / self.hbar_c


class _Reduction(NamedTuple):
    Q_a2: float  # Q/a2
    shift: float  # m c^2 + a1, the effective mass offset entering A1 and A3
    A1: float
    A2: float
    A3: float
    root: float  # sqrt(1 + 4 q^2)
    p: float
    eps1: float | None  # eps1(E) at the energy asked for, else None


def _reduction(params: PhysicalParams, energy: float | None = None) -> _Reduction:
    """The scaled wave equation's coefficients, valid for every a3 >= 0.

    A1..A3 and p are defined in the module docstring; with an ``energy`` E also
    eps1(E) = (Q/a2)*(E^2 - (m c^2 + a1)^2 - 2 a2 a3).
    """
    Q = params.Q
    Q_a2 = Q / params.a2
    shift = params.mass + params.a1
    sq = math.sqrt(Q_a2)
    root = math.sqrt(1.0 + 4.0 * (Q * params.a3) ** 2)
    eps1 = None
    if energy is not None:
        eps1 = Q_a2 * (energy**2 - shift**2 - 2.0 * params.a2 * params.a3)
    return _Reduction(
        Q_a2=Q_a2,
        shift=shift,
        A1=-2.0 * Q * params.a3 * shift * sq,
        A2=-((Q * params.a3) ** 2),
        A3=-2.0 * sq * shift,
        root=root,
        p=0.5 + 0.5 * root,
        eps1=eps1,
    )


def sigma_constants(q: float) -> tuple[float, float]:
    """(sigma1, sigma2) with sigma1 = 2/q, sigma2 = 2 + (1 + sqrt(1+4q^2))/q.

    Raises DomainError unless q is positive and finite and both constants
    are finite.
    """
    if not (q > 0.0) or not math.isfinite(q):
        raise DomainError(f"q must be positive and finite, got {q!r}")
    root = math.sqrt(1.0 + 4.0 * q * q)
    s1, s2 = 2.0 / q, 2.0 + (1.0 + root) / q
    if not (math.isfinite(s1) and math.isfinite(s2)):
        # sqrt(1 + 4q^2) overflows past q ~ 6.7e153, 2/q below q ~ 1.1e-308.
        raise DomainError(f"q={q!r} puts the level constants past the float range "
                          f"(sigma1={s1!r}, sigma2={s2!r})")
    return s1, s2
