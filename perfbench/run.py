#!/usr/bin/env python3
"""kgconfine benchmark: three seeded, oracle-checked workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload thermo_hot --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each exists):
  thermo_hot   ``kgconfine thermo --method direct`` over mbar in [1, 300]
  sweep_dense  ``kgconfine compare`` over a dense grid of mbar in [0.1, 2]
  profiles     ``spectrum.auto_grid`` + ``spectrum.wavefunction(normalize=True)``
               for n = 0..150 on the paper's potential and seeded ones

After one untimed warm-up pass, ``--trace 0`` measures set-up time,
throughput (from the fastest timed pass) and peak memory untraced for
``--seconds``.  ``--trace 1`` spends
half of ``--seconds`` untraced and half with every layer's public functions
wrapped (perfbench/tracing.py, perfbench/layers.py), and reports per-layer
figures for one pass.  Either way every output is checked: exit
codes against blank rows, reruns byte for byte, and values against the
independent references in perfbench/oracles.py.  Items that disagree with a
reference beyond the stated tolerance are counted as failed; ``correct`` is
false only when the program's outputs are inconsistent with themselves
(wrong shape, exit code or warning count that does not match the failures,
reruns that differ).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Relative tolerances of the direct-route columns against the references.
# Z: the direct sum stops once its tail bound is below tol * Z, and the run
# uses the CLI default tol = 1e-10; the factor 2 leaves room for rounding.
Z_TOL = 2e-10
# U and C come from five log Z values, each good to 1e-14, differenced with
# step h = 1e-4 in ln mbar: roughly 1e-14/h for U and 1e-14/h^2 for C.
U_TOL = 1e-8
C_TOL = 1e-5
# Profiles: error relative to the peak.  1e-8 is the decay fraction below
# which the package itself calls a profile's tail negligible, so a larger
# error makes its normalized claim meaningless.
PSI_TOL = 1e-8
# 2 * trapezoid(psi^2) of a normalized profile must be 1 to this accuracy.
NORM_TOL = 1e-9
TOLERANCES = {"Z_rel_err_max": Z_TOL, "F_err_max": Z_TOL, "U_rel_err_max": U_TOL,
              "C_rel_err_max": C_TOL, "psi_err_max": PSI_TOL}
# Profiles are compared with the reference at every PSI_STRIDE-th grid point
# (plus the last point and the peak), up to one common scale factor.
PSI_STRIDE = 20
# Points of sweep_dense checked against the thermo reference per run.
DENSE_CHECKS = 100

WORKLOADS = ("thermo_hot", "sweep_dense", "profiles")
SETUP_REPEATS = 11
MIN_PASSES = 2
PAPER_POTENTIAL = (0.1, 0.1, 0.1, 0.5)
SEEDED_POTENTIALS = 7


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    value: float


@dataclass
class Outcome:
    """Per-run check results, filled in by the workload's ``check``."""

    items: int  # distinct items per pass
    failed: int = 0  # distinct items that failed
    raised: int = 0  # of which raised (a blank row, for sweeps)
    checked: int = 0  # distinct items compared with a reference
    errors: dict = field(default_factory=dict)  # metric name -> worst error
    problems: list = field(default_factory=list)  # inconsistencies -> correct = false

    def worst(self, name: str, value: float) -> None:
        self.errors[name] = max(self.errors.get(name, 0.0), float(value))


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> tuple[float, ...]:
    # One value per equal-width stratum keeps the total cost of a sweep
    # (which grows with q) nearly the same from seed to seed.
    width = (hi - lo) / k
    return tuple(round(lo + width * (i + rng.random()), 6) for i in range(k))


class Sweep:
    """A thermal sweep run as one ``kgconfine.cli.main`` invocation per pass."""

    def __init__(self, name, command, q, mbar_min, mbar_max, steps, seed):
        self.name = name
        self.command = command
        self.q = q
        self.mbar = np.geomspace(mbar_min, mbar_max, steps)
        self.span = (mbar_min, mbar_max, steps)
        self.rng = random.Random(seed)
        self.path = OUT_DIR / f"{name}.csv"

    def argv(self, out) -> list[str]:
        lo, hi, steps = self.span
        return [self.command, "--method", "direct" if self.command == "thermo" else "both",
                "--q", ",".join(repr(q) for q in self.q), "--mbar-min", repr(lo),
                "--mbar-max", repr(hi), "--steps", str(steps), "--out", str(out)]

    @property
    def items(self) -> int:
        return len(self.q) * self.mbar.size

    def describe(self) -> str:
        lo, hi, steps = self.span
        return f"q={list(self.q)} mbar=[{lo}, {hi}] x {steps} log steps"

    def setup_body(self) -> str:
        return (f"parser = cli.build_parser()\n"
                f"cli.resolve_config(parser, parser.parse_args({self.argv('unused.csv')!r}))")

    def run_pass(self, cli, spectrum) -> dict:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(self.argv(self.path))
        wall = time.perf_counter() - t0
        return {"wall": wall, "rc": rc, "stderr": err.getvalue(), "table": self.path.read_bytes()}

    def same(self, first: dict, later: dict) -> bool:
        return later["table"] == first["table"] and later["rc"] == first["rc"]

    def check(self, first: dict, oracles) -> Outcome:
        res = Outcome(items=self.items)
        lines = first["table"].decode("utf-8").split("\n")
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:] if line]
        need = ["mbar", "q", "Z_direct", "F", "U", "C"]
        if self.command == "compare":
            need += ["Z_em", "rel_diff", "terms_direct"]
        missing = [c for c in need if c not in header]
        if missing or len(rows) != self.items:
            res.problems.append(f"table shape: missing {missing}, {len(rows)} rows")
            return res
        col = {name: header.index(name) for name in need}
        tasks = [(q, float(m)) for q in self.q for m in self.mbar]
        blank = []
        for i, (row, (q, mbar)) in enumerate(zip(rows, tasks)):
            if (abs(float(row[col["mbar"]]) - mbar) > 1e-11 * mbar
                    or abs(float(row[col["q"]]) - q) > 1e-11 * q):
                res.problems.append(f"row {i} is not (q={q}, mbar={mbar})")
                return res
            if any(row[col[c]] == "" for c in need):
                blank.append(i)
        res.raised = len(blank)
        self._check_status(first, len(blank), res)
        blank_set = set(blank)
        good = [i for i in range(len(rows)) if i not in blank_set]
        cells = {c: np.array([float(rows[i][col[c]]) for i in good]) for c in need}
        bad = np.zeros(len(good), dtype=bool)
        if self.command == "thermo":
            picks = range(len(good))
        else:
            exact = np.array([tasks[i] for i in good])
            bad |= self._check_em(cells, exact[:, 1], exact[:, 0], oracles, res)
            picks = sorted(self.rng.sample(range(len(good)), min(DENSE_CHECKS, len(good))))
        for j in picks:
            q, mbar = tasks[good[j]]
            z, u, c = oracles.thermo_reference(mbar, q)
            errs = {"Z_rel_err_max": abs(cells["Z_direct"][j] - z) / z}
            if self.command == "thermo":
                errs["U_rel_err_max"] = abs(cells["U"][j] - u) / u
                errs["C_rel_err_max"] = abs(cells["C"][j] - c) / c
                # |dF|/mbar is the relative error of Z that F implies.
                errs["F_err_max"] = abs(cells["F"][j] + mbar * math.log(z)) / mbar
            for name, value in errs.items():
                res.worst(name, value)
            bad[j] |= any(not value <= TOLERANCES[name] for name, value in errs.items())
        res.checked = len(picks)
        res.failed = len(blank) + int(bad.sum())
        return res

    def _check_status(self, first: dict, blanks: int, res: Outcome) -> None:
        # The CLI promises exit status 1 exactly when some point failed, and
        # warns with the count.
        if first["rc"] != (1 if blanks else 0):
            res.problems.append(f"exit code {first['rc']} with {blanks} blank rows")
        summary = f"{blanks} of {self.items} sweep points failed"
        if blanks and summary not in first["stderr"]:
            res.problems.append(f"stderr lacks '{summary}'")

    def _check_em(self, cells: dict, mbar, q, oracles, res: Outcome) -> np.ndarray:
        """Rows whose EM columns miss the documented closed form (Z_em, and
        F = -mbar ln Z_em); rel_diff and terms_direct must follow from the
        other cells."""
        z_em = oracles.em_closed_form(mbar, q)
        f_em = -mbar * np.log(z_em)
        bad = ((np.abs(cells["Z_em"] - z_em) > 1e-11 * np.abs(z_em))
               | (np.abs(cells["F"] - f_em) > 1e-11 * (np.abs(f_em) + mbar)))
        # rel_diff is recomputed from the 12-digit cells.
        rel = np.abs(cells["Z_direct"] - cells["Z_em"]) / cells["Z_direct"]
        if np.any(np.abs(cells["rel_diff"] - rel) > 1e-11 + 1e-10 * rel):
            res.problems.append("rel_diff does not match the Z columns")
        if np.any(cells["terms_direct"] < 1):
            res.problems.append("terms_direct below 1")
        return bad


class Profiles:
    """Normalized eigenfunction profiles, one library call pair per item."""

    def __init__(self, seed, n_max=150):
        self.n_max = n_max
        rng = random.Random(seed)
        # Latin hypercube over (a1, a2, a3, mass): each coordinate takes one
        # value from each of SEEDED_POTENTIALS equal strata, so the mix of
        # cheap and expensive, early- and late-failing potentials varies
        # little from seed to seed.
        columns = []
        for lo, hi in ((-0.5, 0.5), (0.05, 2.0), (0.05, 2.0), (0.0, 2.0)):
            column = list(_stratified(rng, lo, hi, SEEDED_POTENTIALS))
            rng.shuffle(column)
            columns.append(column)
        self.potentials = [PAPER_POTENTIAL] + list(zip(*columns))
        self.params = None

    @property
    def items(self) -> int:
        return len(self.potentials) * (self.n_max + 1)

    def describe(self) -> str:
        return f"(a1, a2, a3, mass) = {self.potentials}, n = 0..{self.n_max}"

    def setup_body(self) -> str:
        return f"[params.PhysicalParams(*p) for p in {self.potentials!r}]"

    def run_pass(self, cli, spectrum) -> dict:
        if self.params is None:
            from kgconfine.params import PhysicalParams

            self.params = [PhysicalParams(*p) for p in self.potentials]
        results, latencies = [], []
        start = time.perf_counter()
        for params in self.params:
            for n in range(self.n_max + 1):
                t0 = time.perf_counter()
                try:
                    grid = spectrum.auto_grid(n, params)
                    sample = spectrum.wavefunction(n, params, grid, normalize=True)
                except Exception as exc:  # a failed item, counted and reported
                    results.append(f"{type(exc).__name__}: {exc}")
                else:
                    results.append(sample)
                latencies.append(time.perf_counter() - t0)
        return {"wall": time.perf_counter() - start, "results": results,
                "latencies": latencies}

    def same(self, first: dict, later: dict) -> bool:
        return all(
            a == b if isinstance(a, str) else
            not isinstance(b, str) and a.normalized == b.normalized
            and np.array_equal(a.grid, b.grid) and np.array_equal(a.values, b.values)
            for a, b in zip(first["results"], later["results"])
        )

    def check(self, first: dict, oracles) -> Outcome:
        res = Outcome(items=self.items)
        first = first["results"]
        items = [(p, n) for p in self.potentials for n in range(self.n_max + 1)]
        for (pot, n), sample in zip(items, first):
            if isinstance(sample, str):
                res.failed += 1
                res.raised += 1
                continue
            grid, values = sample.grid, sample.values
            h = np.diff(grid)
            norm = 2.0 * math.fsum(h * 0.5 * (values[1:] ** 2 + values[:-1] ** 2))
            if abs(norm - 1.0) > NORM_TOL:
                res.problems.append(f"profile {pot} n={n} has 2*trapz(psi^2) = {norm!r}")
            picks = np.unique(np.r_[np.arange(0, grid.size, PSI_STRIDE), grid.size - 1,
                                    np.argmax(np.abs(values))])
            ref = oracles.profile_reference(n, *pot, 1.0, grid[picks])
            got = values[picks]
            scale = np.dot(got, ref) / np.dot(ref, ref)
            err = float(np.max(np.abs(got - scale * ref)) / np.max(np.abs(scale * ref)))
            res.worst("psi_err_max", err)
            res.checked += 1
            res.failed += not err <= PSI_TOL
        return res


def make_workload(name: str, seed: int):
    rng = random.Random(seed)
    if name == "thermo_hot":
        return Sweep(name, "thermo", _stratified(rng, 0.4, 1.6, 6), 1.0, 300.0, 30, seed)
    if name == "sweep_dense":
        return Sweep(name, "compare", _stratified(rng, 0.4, 1.6, 5), 0.1, 2.0, 3000, seed)
    return Profiles(seed)


# numpy is imported before the clock starts: it is two thirds of the
# interpreter's set-up, outside this repository's control, and the part that
# varies most from run to run.
SETUP_CODE = """\
import sys, time
import numpy
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
from kgconfine import cli, params
{body}
print(repr(time.perf_counter() - t0))
"""


def measure_setup(workload) -> float:
    """Median time, in fresh interpreters, to import kgconfine and resolve the run's input."""
    code = SETUP_CODE.format(src=str(SRC), body=workload.setup_body())
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_passes(workload, cli, spectrum, seconds: float, min_passes: int,
               first: dict) -> list[dict]:
    """Repeat the workload's pass for ``seconds``, at least ``min_passes`` times.

    Each pass is compared with ``first`` at once and keeps only its timings,
    so memory does not grow with the number of passes.
    """
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        result = workload.run_pass(cli, spectrum)
        passes.append({"wall": result["wall"], "latencies": result.get("latencies"),
                       "same": workload.same(first, result)})
        del result  # so the next pass does not run with two sets of outputs alive
    return passes


def environment(args) -> dict:
    import mpmath

    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        # kgconfine.cli sizes its sweep pool as min(8, os.cpu_count()).
        "sweep_workers": min(8, os.cpu_count() or 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kgconfine" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'kgconfine'}; "
              "run from the root of a kgconfine checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    OUT_DIR.mkdir(exist_ok=True)

    workload = make_workload(args.workload, args.seed)
    from kgconfine import cli, spectrum

    if not args.trace:
        setup_s = measure_setup(workload)
    # The first pass fills caches and finishes lazy set-up; it is checked but
    # not timed, and every later pass must reproduce it.
    warmup = workload.run_pass(cli, spectrum)
    if args.trace:
        import layers
        import tracing

        plain = run_passes(workload, cli, spectrum, args.seconds / 2, 1, warmup)
        tracer = tracing.Tracer()
        layers.install(tracer)
        try:
            runs = run_passes(workload, cli, spectrum, args.seconds / 2, 1, warmup)
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl")
        passes = [warmup] + plain + runs
    else:
        runs = run_passes(workload, cli, spectrum, args.seconds, MIN_PASSES, warmup)
        passes = [warmup] + runs
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import oracles

    outcome = workload.check(passes[0], oracles)
    if not all(p.get("same", True) for p in passes):
        outcome.problems.append("reruns with the same inputs differ")
    # Every pass repeats the same items and must reproduce the warm-up, so
    # the counts are those of one pass: the same for a seed on every run.
    attempted, failed = outcome.items, outcome.failed
    extra = [Metric("failed_frac", "ratio", outcome.failed / outcome.items)]

    if args.trace:
        overhead = (statistics.mean(p["wall"] for p in runs)
                    - statistics.mean(p["wall"] for p in plain))
        figures = layers.metrics(tracer.spans, len(runs), overhead, outcome.errors)
        metrics = [Metric(name, layers.PER_LAYER[name][0], value)
                   for name, value in figures.items()]
    else:
        # Every pass does the same work, so the fastest pass sets the rate.
        # The host's speed drifts by up to 20% for seconds at a time, and only
        # ever downwards from its unloaded speed; a pass that ran in a slow
        # stretch measures the neighbours, not the program.
        pass_s = min(p["wall"] for p in runs)
        metrics = [
            Metric("setup_s", "s", setup_s),
            Metric("items_per_s", "1/s", (outcome.items - outcome.failed) / pass_s),
            Metric("peak_rss_mb", "MB", peak_rss_mb),
        ]
        if isinstance(workload, Profiles):
            latencies = [t * 1e3 for p in runs for t in p["latencies"]]
            extra += [Metric("item_p50_ms", "ms", float(np.percentile(latencies, 50))),
                      Metric("item_p99_ms", "ms", float(np.percentile(latencies, 99)))]
        extra += [Metric(name, "rel", value) for name, value in sorted(outcome.errors.items())]

    print("perfbench env " + json.dumps(environment(args)))
    print(f"perfbench inputs {workload.describe()}")
    print(f"perfbench {len(runs)} passes x {outcome.items} items; {outcome.failed} items "
          f"failed per pass ({outcome.raised} raised); {outcome.checked} of {outcome.items} "
          f"compared with a reference; tolerances {TOLERANCES}")
    untraced = plain if args.trace else runs
    print(f"perfbench pass walls (s): warm-up {warmup['wall']:.4f}; untraced "
          + " ".join(f"{p['wall']:.4f}" for p in untraced)
          + ("; traced " + " ".join(f"{p['wall']:.4f}" for p in runs) if args.trace else ""))
    for problem in outcome.problems:
        print(f"perfbench problem: {problem}")
    for m in metrics + extra:
        print(f"  {m.name:<40} {m.value:<14.6g} {m.unit}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
