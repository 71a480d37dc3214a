"""Which kgconfine functions the traced run wraps, and the per-layer figures.

Layers are the package modules that do work: ``cli``, ``thermo``,
``spectrum`` and ``heun``.  ``params`` and ``errors`` only validate inputs
and define error types, so they get no figures.  Every figure is for one
pass of the workload's inputs; layers a workload does not reach read 0.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from tracing import Span, covered


def _source_name(args, kwargs) -> str:
    source = kwargs.get("source", args[0] if args else None)
    em = str(getattr(source, "value", source)) == "em"
    return "thermo.em" if em else "thermo.thermal_functions"


def _terms(args, kwargs, out) -> dict:
    # ThermoPoint.terms on success, TruncationFailure.n_terms on failure.
    return {"terms": getattr(out, "terms", None) or getattr(out, "n_terms", 0)}


def _coeffs(args, kwargs, out) -> dict:
    return {"coeffs": len(getattr(out, "coeffs", ()))}


def _horner(args, kwargs, out) -> dict:
    sol, ys = args[0], args[1]
    return {"horner": len(sol.coeffs) * int(np.size(ys))}


def _grid_points(args, kwargs, out) -> dict:
    return {"points": int(np.size(args[1]))}


def _table(args, kwargs, out) -> dict:
    if isinstance(out, BaseException):
        return {}
    path, rows = args[0], args[2]
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


def install(tracer) -> None:
    from kgconfine import cli, heun, spectrum, thermo

    tracer.install(cli, [
        # The benchmark calls main only for sweeps, and main dispatches
        # through a private table, so main is the sweep's boundary.
        ("main", "cli.sweep", None),
        ("write_table", "cli.write_table", _table),
    ])
    tracer.install(thermo, [
        ("partition_direct", "thermo.partition_direct", _terms),
        ("excitation_moments", "thermo.excitation_moments", None),
        ("thermal_functions", _source_name, None),
        ("partition_em", "thermo.em", None),
    ])
    tracer.install(spectrum, [
        ("auto_grid", "spectrum.auto_grid", None),
        ("wavefunction", "spectrum.wavefunction", None),
    ])
    tracer.install(heun, [
        ("series_coefficients", "heun.series_coefficients", _coeffs),
        ("truncated_polynomial", "heun.truncated_polynomial", _coeffs),
        ("adaptive_series", "heun.adaptive_series", _coeffs),
        ("evaluate_series", "heun.evaluate_series", _horner),
        ("evaluate_on_grid", "heun.evaluate_on_grid", _grid_points),
        ("evaluate", "heun.evaluate", None),
        ("ode_residual", "heun.ode_residual", None),
        ("polynomial_degree", "heun.polynomial_degree", None),
    ])


# name -> (unit, better); the order here is the order of the report.
PER_LAYER = {
    "thermo.partition_direct.calls": ("count", "lower"),
    "thermo.partition_direct.wall_s": ("s", "lower"),
    "thermo.partition_direct.cpu_s": ("s", "lower"),
    "thermo.direct_terms": ("count", "lower"),
    "thermo.direct_sums_per_point": ("count", "lower"),
    "thermo.failures": ("count", "lower"),
    "thermo.thermal_functions.wall_s": ("s", "lower"),
    "thermo.em.calls": ("count", "lower"),
    "thermo.em.wall_s": ("s", "lower"),
    "thermo.Z_rel_err_max": ("rel", "lower"),
    "thermo.U_rel_err_max": ("rel", "lower"),
    "thermo.C_rel_err_max": ("rel", "lower"),
    "cli.sweep.wall_s": ("s", "lower"),
    "cli.sweep.self_s": ("s", "lower"),
    "cli.sweep.wait_s": ("s", "lower"),
    "cli.write_table.wall_s": ("s", "lower"),
    "cli.write_table.rows": ("count", "lower"),
    "cli.write_table.bytes": ("bytes", "lower"),
    "heun.calls": ("count", "lower"),
    "heun.wall_s": ("s", "lower"),
    "heun.coeffs": ("count", "lower"),
    "heun.horner_point_terms": ("count", "lower"),
    "spectrum.wavefunction.calls": ("count", "lower"),
    "spectrum.wavefunction.self_s": ("s", "lower"),
    "spectrum.auto_grid.wall_s": ("s", "lower"),
    "spectrum.auto_grid.probes_per_profile": ("count", "lower"),
    "spectrum.psi_err_max": ("rel", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

DIRECT_SUMS = ("thermo.partition_direct", "thermo.excitation_moments")


def metrics(spans: list[Span], passes: int, overhead_s: float, errors: dict) -> dict:
    """Every PER_LAYER figure, for one pass, from the spans of ``passes`` passes."""
    by_id = {s.id: s for s in spans}
    named = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        children[s.parent].append(s)

    def layer(s: Span | None) -> str | None:
        return s.name.split(".")[0] if s else None

    def total(name: str, key=lambda s: s.wall_s) -> float:
        return sum(key(s) for s in named[name])

    def self_time(s: Span) -> float:
        return s.wall_s - covered((s.start, s.end), [(c.start, c.end) for c in children[s.id]])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # A sweep point is a thermo span opened directly under the sweep.
    points = [s for s in spans if layer(s) == "thermo" and layer(by_id.get(s.parent)) != "thermo"]
    direct_points = [s for s in points if s.error is None
                     and s.name in DIRECT_SUMS + ("thermo.thermal_functions",)]
    direct_sums = sum((p.name in DIRECT_SUMS) + sum(c.name in DIRECT_SUMS for c in children[p.id])
                      for p in direct_points)
    sweeps = named["cli.sweep"]
    heun_spans = [s for s in spans if layer(s) == "heun"]
    horner = total("heun.evaluate_series", lambda s: s.attrs["horner"]) + sum(
        s.attrs["points"] * c.attrs.get("coeffs", 0)
        for s in named["heun.evaluate_on_grid"] for c in children[s.id]
    )
    probes = sum(by_id[s.parent].name == "spectrum.auto_grid"
                 for s in named["spectrum.wavefunction"] if s.parent in by_id)

    per_pass = {
        "thermo.partition_direct.calls": len(named["thermo.partition_direct"]),
        "thermo.partition_direct.wall_s": total("thermo.partition_direct"),
        "thermo.partition_direct.cpu_s": total("thermo.partition_direct", lambda s: s.cpu_s),
        "thermo.direct_terms": total("thermo.partition_direct", lambda s: s.attrs["terms"]),
        "thermo.failures": sum(s.error is not None for s in points),
        "thermo.thermal_functions.wall_s": total("thermo.thermal_functions"),
        "thermo.em.calls": len(named["thermo.em"]),
        "thermo.em.wall_s": total("thermo.em"),
        "cli.sweep.wall_s": sum(s.wall_s for s in sweeps),
        "cli.sweep.self_s": sum(self_time(s) for s in sweeps),
        # Pool-thread time inside the sweep's point spans spent off the CPU:
        # waiting for the interpreter lock or for a core.
        "cli.sweep.wait_s": sum(c.wall_s - c.cpu_s for s in sweeps for c in children[s.id]
                                if c.thread != s.thread),
        "cli.write_table.wall_s": total("cli.write_table"),
        "cli.write_table.rows": total("cli.write_table", lambda s: s.attrs.get("rows", 0)),
        "cli.write_table.bytes": total("cli.write_table", lambda s: s.attrs.get("bytes", 0)),
        "heun.calls": len(heun_spans),
        "heun.wall_s": sum(s.wall_s for s in heun_spans if layer(by_id.get(s.parent)) != "heun"),
        "heun.coeffs": sum(s.attrs.get("coeffs", 0) for s in heun_spans),
        "heun.horner_point_terms": horner,
        "spectrum.wavefunction.calls": len(named["spectrum.wavefunction"]),
        "spectrum.wavefunction.self_s": sum(self_time(s) for s in named["spectrum.wavefunction"]),
        "spectrum.auto_grid.wall_s": total("spectrum.auto_grid"),
    }
    out = {name: value / passes for name, value in per_pass.items()}
    out["thermo.direct_sums_per_point"] = ratio(direct_sums, len(direct_points))
    out["spectrum.auto_grid.probes_per_profile"] = ratio(probes, len(named["spectrum.auto_grid"]))
    for name in ("Z_rel_err_max", "U_rel_err_max", "C_rel_err_max"):
        out[f"thermo.{name}"] = errors.get(name, 0.0)
    out["spectrum.psi_err_max"] = errors.get("psi_err_max", 0.0)
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in PER_LAYER}
