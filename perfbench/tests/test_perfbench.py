"""Tests of the benchmark itself: its references, its metric names and its trace.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from kgconfine import cli, spectrum, thermo  # noqa: E402
from kgconfine.params import PhysicalParams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PAPER = PhysicalParams(*run.PAPER_POTENTIAL)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("mbar", [0.5, 2.0, 10.0])
def test_tail_integral_from_level_zero_is_closed_integral(mbar, q):
    s1, s2 = thermo.sigma_constants(q)
    e0 = math.sqrt(s2)
    # closed_integral integrates exp(-E/mbar); the oracle's summand is
    # referenced to the ground level.
    expected = thermo.closed_integral(1.0 / mbar, s1, s2) * math.exp(e0 / mbar)
    got = float(oracles.tail_integral(0, 1.0 / mbar, s1, e0, e0))
    assert got == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("mbar", [0.3, 2.0, 20.0])
def test_thermo_reference_agrees_with_converged_package_sums(mbar, q):
    z, u, c = oracles.thermo_reference(mbar, q)
    assert thermo.partition_direct(mbar, q, tol=1e-14).Z == pytest.approx(z, rel=1e-13)
    _, v1, v2 = thermo.excitation_moments(mbar, q, tol=1e-14)
    assert v1 == pytest.approx(u, rel=1e-12)
    assert (v2 - v1 * v1) / mbar**2 == pytest.approx(c, rel=1e-9)


@pytest.mark.parametrize("n", [0, 3, 10])
def test_profile_reference_agrees_with_wavefunction_at_low_n(n):
    grid = spectrum.auto_grid(n, PAPER)
    got = spectrum.wavefunction(n, PAPER, grid).values
    ref = oracles.profile_reference(n, *run.PAPER_POTENTIAL, 1.0, grid)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_em_closed_form_matches_partition_em():
    mbar, q = np.geomspace(0.1, 50.0, 7), np.full(7, 0.8)
    expected = [thermo.partition_em(m, 0.8).Z for m in mbar]
    assert np.allclose(oracles.em_closed_form(mbar, q), expected, rtol=1e-13, atol=0.0)


def test_benchmark_spec_names_are_valid():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0.0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"])
               for m in SPEC["per_layer"])
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.PER_LAYER.items()
    ]


def small_workload(name, seed):
    # The real workloads' shapes, small enough for a unit test, keeping one
    # term-ceiling failure (q = 0.5 at mbar = 300) and the paper set's
    # profile breakdown (from n = 75).
    if name == "thermo_hot":
        return run.Sweep(name, "thermo", (0.5,), 1.0, 300.0, 2, seed)
    if name == "sweep_dense":
        return run.Sweep(name, "compare", (0.5, 1.5), 0.1, 2.0, 4, seed)
    workload = run.Profiles(seed, n_max=80)
    workload.potentials = workload.potentials[:1]
    return workload


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_reported_for_every_workload(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "make_workload", small_workload)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["failed"] > 0) == (name != "sweep_dense")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif name == "profiles":
        assert values["thermo.partition_direct.calls"] == 0
        assert values["heun.calls"] > 0 and values["spectrum.psi_err_max"] > run.PSI_TOL
    else:
        assert values["heun.calls"] == 0 and values["spectrum.wavefunction.calls"] == 0
        assert values["thermo.partition_direct.calls"] > 0
        assert values["thermo.direct_sums_per_point"] == (6 if name == "thermo_hot" else 1)
        assert values["thermo.failures"] == (1 if name == "thermo_hot" else 0)


def test_missing_package_source_fails_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "profiles", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_tracer_catches_calls_made_inside_the_package(tmp_path):
    original = thermo.partition_direct
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        spectrum.wavefunction(3, PAPER, spectrum.auto_grid(3, PAPER))
        thermo.thermal_functions("direct", 2.0, 1.0)
        cli.main(["compare", "--q", "1.0", "--mbar-min", "1", "--mbar-max", "2",
                  "--steps", "4", "--out", str(tmp_path / "c.csv")])
    finally:
        tracer.uninstall()
    assert thermo.partition_direct is original
    by_id = {s.id: s for s in tracer.spans}
    edges = {(by_id[s.parent].name if s.parent else None, s.name) for s in tracer.spans}
    assert ("thermo.thermal_functions", "thermo.partition_direct") in edges
    assert ("spectrum.auto_grid", "spectrum.wavefunction") in edges
    assert ("spectrum.wavefunction", "heun.evaluate_series") in edges
    sweep = next(s for s in tracer.spans if s.name == "cli.sweep")
    points = [s for s in tracer.spans if s.parent == sweep.id and s.name.startswith("thermo.")]
    assert len(points) == 8  # a direct sum and an EM evaluation per point
    assert all(s.thread != sweep.thread for s in points)


def test_covered_measures_the_union_of_parts():
    assert tracing.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert tracing.covered((0.0, 1.0), []) == 0.0
