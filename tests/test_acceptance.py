"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Every criterion is asserted at its stated tolerance; measured extremes are
recorded in the printed line so regressions are visible even when green.
Criterion 6 is asserted honestly at mbar = 50 for all three q values even
though the q = 0.5 margins sit just above the 0.05 band (see README).
"""

import math

import numpy as np
import pytest

from conftest import record_acceptance
from kgconfine import heun, spectrum, thermo
from kgconfine.params import PhysicalParams

Q_TRIPLE = (0.5, 1.0, 1.5)


def _line(ok: bool, criterion: int, detail: str) -> bool:
    record_acceptance(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


def _params(a2: float, a3: float) -> PhysicalParams:
    return PhysicalParams(a1=0.1, a2=a2, a3=a3, mass=0.5, hbar_c=1.0)


def test_criterion_1_heun_ode_residual_ensemble():
    rng = np.random.default_rng(20250815)
    worst = 0.0
    count = 0
    while count < 100:
        c = rng.uniform(-5.0, 5.0, size=4)
        # keep 1 + c1 clear of the non-positive integers (singular recurrence)
        if min(abs(1.0 + c[0] + k) for k in range(0, 6)) < 0.15:
            continue
        try:
            hp = heun.HeunParams(*c)
        except Exception:
            continue
        count += 1
        for y in (0.1, 0.5, 1.0):
            sol = heun.adaptive_series(hp, y, tol=1e-12)
            worst = max(worst, heun.ode_residual(hp, sol, y))
    ok = worst < 1e-6
    assert _line(ok, 1, f"ODE residual over 100 random sets x 3 points: "
                        f"max {worst:.3e} (bound 1e-6)")


def test_criterion_2_quantization_consistency():
    worst = 0.0
    for a2 in (0.1, 1.0, 2.5):
        for a3 in (0.05, 0.5, 2.0):
            params = _params(a2, a3)
            for n in range(51):
                e = spectrum.energy(n, params)
                worst = max(worst, abs(spectrum.quantization_residual(e, n, params)))
    ok = worst < 1e-9
    assert _line(ok, 2, f"termination-condition residual, n=0..50 over 3x3 "
                        f"(a2,a3) grid: max {worst:.3e} (bound 1e-9)")


def test_criterion_3_energy_spacing_and_offset_invariance():
    worst = 0.0
    invariant = True
    for a2 in (0.1, 1.0, 2.5):
        for a3 in (0.05, 0.5, 2.0):
            params = _params(a2, a3)
            spacing = 2.0 * a2 / params.Q
            for n in range(0, 40):
                e0 = spectrum.energy(n, params)
                e1 = spectrum.energy(n + 1, params)
                worst = max(worst, abs((e1 * e1 - e0 * e0) - spacing) / spacing)
            for a1 in (-5.0, 0.0, 3.0):
                shifted = PhysicalParams(a1=a1, a2=a2, a3=a3, mass=0.5)
                if spectrum.energy(7, shifted) != spectrum.energy(7, params):
                    invariant = False
    ok = worst <= 1e-12 and invariant
    assert _line(ok, 3, f"E^2 spacing vs 2*a2/Q: max rel err {worst:.3e} "
                        f"(bound 1e-12); a1-shift invariance exact: {invariant}")


def test_criterion_4_closed_integral_vs_quadrature():
    quad = pytest.importorskip("scipy.integrate").quad
    worst = 0.0
    for b1 in (0.5, 1.0, 2.0):
        for b2 in (0.5, 1.0, 3.0):
            for b3 in (0.0, 1.0, 4.0):
                numeric, _ = quad(
                    lambda n: math.exp(-b1 * math.sqrt(b2 * n + b3)),
                    0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200,
                )
                exact = thermo.closed_integral(b1, b2, b3)
                worst = max(worst, abs(numeric - exact) / exact)
    ok = worst <= 1e-10
    assert _line(ok, 4, f"closed integral vs adaptive quadrature on 27-point "
                        f"grid: max rel err {worst:.3e} (bound 1e-10)")


def test_criterion_5_em_vs_direct_sum():
    worst, where = 0.0, (None, None)
    for q in Q_TRIPLE:
        for mbar in np.linspace(1.0, 10.0, 50):
            z_direct = thermo.partition_direct(float(mbar), q, 1e-12).Z
            z_em = thermo.partition_em(float(mbar), q).Z
            rel = abs(z_em - z_direct) / z_direct
            if rel > worst:
                worst, where = rel, (q, float(mbar))
    # stated bound 1e-2; frozen first-run maximum 5.896e-5 kept as regression
    ok = worst <= 1e-2 and worst <= 6.0e-5
    assert _line(ok, 5, f"|Z_em - Z_direct|/Z_direct over q={Q_TRIPLE}, "
                        f"mbar in [1,10]: max {worst:.6e} at q={where[0]}, "
                        f"mbar={where[1]:g} (bounds 1e-2, frozen 6.0e-5)")


def test_criterion_6_high_temperature_limits():
    mbar = 50.0
    margins = {}
    for q in Q_TRIPLE:
        point = thermo.thermal_functions("direct", mbar, q)
        s1, _ = thermo.sigma_constants(q)
        margins[q] = (
            abs(point.Z * s1 / (2.0 * mbar * mbar) - 1.0),
            abs(point.U / mbar - 2.0),
            abs(point.C - 2.0),
        )
    ok = all(m < 0.05 for triple in margins.values() for m in triple)
    detail = "; ".join(
        f"q={q}: |Z*s1/(2m^2)-1|={z:.4f}, |U/m-2|={u:.4f}, |C-2|={c:.4f}"
        for q, (z, u, c) in margins.items()
    )
    assert _line(ok, 6, f"high-T limits at mbar=50 (band 0.05): {detail}")


def test_criterion_7_fluctuation_identity():
    # Both sides take C = (m2 - m1^2) / mbar^2 from Boltzmann moments: the
    # reference from the brute-force excitation_moments loop, the other
    # from the batched kernel behind thermal_functions("direct").
    worst = 0.0
    for q in Q_TRIPLE:
        for mbar in np.linspace(0.5, 5.0, 10):
            mbar = float(mbar)
            _, m1, m2 = thermo.excitation_moments(mbar, q, 1e-12)
            c_loop = (m2 - m1 * m1) / (mbar * mbar)
            c_kernel = thermo.thermal_functions("direct", mbar, q).C
            worst = max(worst, abs(c_loop - c_kernel) / c_loop)
    ok = worst <= 1e-4
    assert _line(ok, 7, f"brute-force excitation_moments C vs batched-kernel C: max rel "
                        f"diff {worst:.3e} (bound 1e-4)")


def test_criterion_8_thermodynamic_identity():
    worst = 0.0
    for source in ("direct", "em"):
        for q in Q_TRIPLE:
            for mbar in (0.8, 2.0, 7.0):
                point = thermo.thermal_functions(source, mbar, q)
                h = 1e-4 * mbar
                f_plus = thermo.thermal_functions(source, mbar + h, q).F
                f_minus = thermo.thermal_functions(source, mbar - h, q).F
                entropy = -(f_plus - f_minus) / (2.0 * h)
                rhs = point.F + mbar * entropy
                worst = max(worst, abs(point.U - rhs) / abs(point.U))
    ok = worst <= 1e-6
    assert _line(ok, 8, f"U = F + T*S (same-source Z, both sources): max rel "
                        f"err {worst:.3e} (bound 1e-6)")


def test_criterion_9_figure_reproduction(tmp_path):
    from kgconfine import cli

    wf_out = tmp_path / "wf.csv"
    assert cli.main(["wavefunction", "--n", "0", "--out", str(wf_out)]) == 0
    body = (tmp_path / "wf_n0.csv").read_text(encoding="utf-8")
    lines = body.rstrip("\n").split("\n")[1:]
    psi = np.array([float(line.split(",")[1]) for line in lines])
    peak = float(np.max(np.abs(psi)))
    nodeless = not np.any(np.diff(np.sign(psi[np.abs(psi) > 1e-9 * peak])))
    decays = abs(psi[-1]) < 1e-6 * peak

    sweep_args = [
        "thermo", "--method", "direct", "--q", "0.5,1.0,1.5",
        "--mbar-min", "0.5", "--mbar-max", "50", "--steps", "25",
    ]
    out_a, out_b = tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"
    assert cli.main(sweep_args + ["--out", str(out_a)]) == 0
    rows = [line.split(",") for line in
            out_a.read_text(encoding="utf-8").rstrip("\n").split("\n")[1:]]
    monotone_u = True
    c_below_two = True
    saturates = True
    for q in ("0.5", "1", "1.5"):
        u = [float(r[5]) for r in rows if r[1] == q]
        c = [float(r[6]) for r in rows if r[1] == q]
        monotone_u &= all(b > a for a, b in zip(u, u[1:]))
        c_below_two &= max(c) < 2.0
        saturates &= c[-1] > 1.9 and c[-1] > c[len(c) // 2]

    assert cli.main(sweep_args + ["--out", str(out_b)]) == 0
    deterministic = out_a.read_bytes() == out_b.read_bytes()

    wf2 = tmp_path / "wf2.csv"
    assert cli.main(["wavefunction", "--n", "0", "--out", str(wf2)]) == 0
    deterministic &= (tmp_path / "wf_n0.csv").read_bytes() == \
        (tmp_path / "wf2_n0.csv").read_bytes()

    ok = nodeless and decays and monotone_u and c_below_two and saturates \
        and deterministic
    assert _line(ok, 9, f"figures: n=0 nodeless={nodeless}, decays={decays}, "
                        f"U monotone={monotone_u}, C<2={c_below_two}, "
                        f"C saturates from below={saturates}, "
                        f"byte-identical reruns={deterministic}")


def test_criterion_10_em_generic_path():
    # (a) f(n) = e^{-n}: the order-2 truncation error must sit at the scale
    # of the first dropped (Bernoulli B6) correction, |f^(5)(0)|/(42*720).
    exact = 1.0 / (1.0 - math.exp(-1.0))
    em2 = thermo.euler_maclaurin_sum(lambda n: math.exp(-n), 1.0, 2, {1: -1.0, 3: -1.0})
    geo_err = abs(em2 - exact)
    remainder_scale = 1.0 / (42.0 * 720.0)

    # (b) specialized partition_em vs the generic path (ground-state shifted)
    worst = 0.0
    for mbar, q in ((0.5, 0.5), (1.0, 1.0), (4.0, 1.5), (20.0, 1.0)):
        f, derivs, integral = thermo.partition_summand(mbar, q)
        generic = thermo.euler_maclaurin_sum(f, integral, 2, derivs)
        _, s2 = thermo.sigma_constants(q)
        shifted = generic * math.exp(math.sqrt(s2) / mbar)
        z = thermo.partition_em(mbar, q).Z
        worst = max(worst, abs(shifted - z) / z)
    ok = geo_err < 1.5 * remainder_scale and worst <= 1e-12
    assert _line(ok, 10, f"geometric-series EM error {geo_err:.3e} "
                         f"(B6 scale {remainder_scale:.3e}); specialized vs "
                         f"generic path: max rel diff {worst:.3e} (bound 1e-12)")
