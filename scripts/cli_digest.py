"""Print one digest line per run over a fixed matrix of runs.

Each run is ``python -m kgconfine ARGS`` or a small library script
``python -c CODE`` in a fresh temporary directory.  Its line gives the exit
code and the sha256 (first 16 hex digits) of every table it wrote, of its
stdout and of its stderr, with the temporary directory's path replaced by
``{tmp}``.  Two source trees give the same lines exactly when they behave
byte for byte the same on the matrix:

    python3 scripts/cli_digest.py > new.txt
    python3 scripts/cli_digest.py --src /path/to/other/checkout/src > old.txt
    diff old.txt new.txt

or in one command, which runs each entry of the matrix on both trees and
prints only the entries whose lines differ (the name, then the other tree's
line and this one's, each without the name) and a count of them; it exits 1
when any line differs:

    python3 scripts/cli_digest.py --against /path/to/other/checkout/src

The matrix covers all five commands in csv and json, direct/em/both sweeps
(including the failing mbar = 0.01..1e300 sweep, where the closed form is
non-positive at 0.01 and Z overflows at 1e300, the mbar = 1e150..1e300 sweeps, a
compare over mbar = 1e30..1e160 that fails in both of its q blocks, and the
q = 0.5 em sweep over mbar = 1e153..1.9e154, where Z nears the float limit,
and a 5 q x 3,000 mbar compare at the benchmark's sweep_dense scale),
wavefunctions whose raw squares (``--a3 200``) or samples (``--a3 500``)
overflow double precision, one whose degree-10 series coefficients overflow
(``--mass 1e50 --a2 1e-10``, a typed error with no numpy warning on stderr),
potentials whose E_0^2 overflows (``--a2 1e300 --a3 1e10``: ``density``
in csv and json and ``spectrum``, each a level warning, exit 1 and no
table), ``--config`` files, usage errors (among them a
``--tol 1e-300`` sweep, below the 2**-53 floor of tol), a negative
flag value in exponent form (``--a1 -1e-3``, whose table must equal that of
``--a1=-0.001``) and the ``--help`` text of the program and of every command.
The library scripts print the bits of four ensembles: auto_grid plus the
normalized profile for n = 0..150 on 24 potentials, the same profiles on one
fixed grid per potential (so a change to ``auto_grid`` alone moves only the
first), ``thermo.sweep`` columns over 9 q x 301 mbar x 5 tol for every
method, and ``heun.evaluate`` and ``heun.adaptive_series`` over 400 random
parameter sets x 9 points x 3 tol (value, error estimate, term count and
coefficients), and ``heun.evaluate_on_grid`` on one grid of +-y
points per parameter set of the same ensemble x 3 tol.  ``lib-heads`` shows
its stdout in the line instead of a hash: for the direct and both sweeps of
the ``lib-sweep`` ensemble at each tol, the row count, the max and mean
exact head (``terms``) and the max of ``tail_bound / Z_direct``, so a change
to the direct sum's stop rule shows its cost and its accuracy in the diff.
``lib-grids`` shows its stdout too: over the auto_grid ensemble, the count of
profiles, the min, median and max point count of ``auto_grid``'s grids and
how many normalized samples come back with ``normalized=False``.
``lib-failures`` shows its stdout too: the (index, error type) of every
failed point, in row order, of two ``both`` sweeps that mix the direct sum's
and the closed form's failures.  ``lib-large-q`` shows its stdout too: at
q = 1e4, 1e8 and 1e30, where E_1 - E_0 is a small fraction of E_0, the max
exact head and the failure count of a direct sweep over mbar = 1e-40..1e6 at
two tol.  ``lib-summand`` shows its stdout too: ``thermo.partition_summand``'s
f(0), odd derivatives and integral, and their order-2 ``euler_maclaurin_sum``,
at two points where f(0) underflows to 0 and at one ordinary point.
A last script writes ``cli.write_table`` tables in csv and json from
column views of the four cell types, with edge values no command emits
(ints past 64 bits, nan, +-inf, -0.0 and 5e-324 next to str keys and empty
columns), with and without blank rows; a view with a missing column and
one with a short column print their errors instead.
Since every run has a fresh directory, two runs check that an existing table
is rewritten: ``lib-overwrite`` writes a 40-step ``thermo`` table and then
a 3-step one to the same ``--out`` and hashes the final file, whose hash must
equal that of the 3-step table ``thermo-steps-3`` writes to a new file; and
``thermo-dev-null`` sends a table to ``--out /dev/null``, which cannot be
truncated.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWEEP = ["--q", "0.5,1.0,1.5", "--mbar-min", "0.1", "--mbar-max", "10", "--steps", "40"]
# The closed form is non-positive at mbar = 0.01 and Z overflows at 1e300.
FAILING = ["--q", "1.0", "--mbar-min", "0.01", "--mbar-max", "1e300", "--steps", "3"]
HUGE = ["--q", "1", "--mbar-min", "1e150", "--mbar-max", "1e300", "--steps", "4"]
# Crosses mbar ~ 1e77, where the closed form's C used to overflow.
LARGE = ["--q", "0.5,1", "--mbar-min", "1e30", "--mbar-max", "1e160", "--steps", "27"]
# For q < 1, mbar^2 overflows here before Z ~ q*mbar^2 does.
OVERFLOW_WINDOW = ["--q", "0.5", "--mbar-min", "1e153", "--mbar-max", "1.9e154", "--steps", "12"]
# The benchmark's sweep_dense scale: a 15,000-row compare table.
DENSE = ["--q", "0.5,0.7,1.0,1.2,1.5", "--mbar-min", "0.1", "--mbar-max", "2", "--steps", "3000"]

# (name, argv, config-file text or None); "{tmp}" is the run's directory.
RUNS: list[tuple[str, list[str], str | None]] = []
for fmt in ("csv", "json"):
    out = ["--format", fmt, "--out", f"{{tmp}}/out.{fmt}"]
    RUNS += [
        (f"spectrum-{fmt}", ["spectrum", *out], None),
        (f"wavefunction-{fmt}", ["wavefunction", "--n", "0,3", *out], None),
        # The raw level-0 profile peaks near 9e175 here, so its square overflows.
        (f"wavefunction-overflow-{fmt}", ["wavefunction", "--a3", "200", "--n", "0", *out], None),
        # Here the samples themselves overflow: a warning and exit 1, no table.
        (f"wavefunction-psi-overflow-{fmt}",
         ["wavefunction", "--a3", "500", "--n", "0", *out], None),
        (f"density-{fmt}", ["density", "--n", "0..5", *out], None),
        # E_0^2 overflows for these valid parameters: a level warning, exit 1, no table.
        (f"density-energy-overflow-{fmt}",
         ["density", "--a2", "1e300", "--a3", "1e10", "--n", "0", *out], None),
        (f"thermo-{fmt}", ["thermo", *out], None),
        (f"compare-{fmt}", ["compare", *out], None),
        (f"thermo-direct-{fmt}", ["thermo", "--method", "direct", *SWEEP, *out], None),
        (f"thermo-both-{fmt}", ["thermo", "--method", "both", *SWEEP, *out], None),
        (f"thermo-failing-{fmt}", ["thermo", "--method", "direct", *FAILING, *out], None),
        (f"compare-failing-{fmt}", ["compare", *FAILING, *out], None),
    ]
    for method in ("direct", "em", "both"):
        RUNS.append((f"huge-{method}-{fmt}", ["thermo", "--method", method, *HUGE, *out], None))
        RUNS.append((f"large-{method}-{fmt}", ["thermo", "--method", method, *LARGE, *out], None))
    # Blank rows in both q blocks next to the int terms_direct column.
    RUNS.append((f"compare-large-{fmt}", ["compare", *LARGE, *out], None))

RUNS += [
    ("spectrum-potential", ["spectrum", "--a1", "0", "--a2", "1", "--a3", "0", "--mass", "0",
                            "--hbar-c", "2", "--n", "0..3,7", "--out", "{tmp}/s.csv"], None),
    ("thermo-linear-order1", ["thermo", "--scale", "linear", "--em-order", "1", "--q", "2",
                              "--mbar-min", "1", "--mbar-max", "20", "--steps", "7",
                              "--out", "{tmp}/t.csv"], None),
    ("thermo-tol", ["thermo", "--method", "direct", "--tol", "1e-6", *SWEEP,
                    "--out", "{tmp}/t.csv"], None),
    ("em-overflow-window", ["thermo", "--method", "em", *OVERFLOW_WINDOW,
                            "--out", "{tmp}/t.csv"], None),
    ("spectrum-energy-overflow", ["spectrum", "--a2", "1e300", "--a3", "1e10", "--n", "0",
                                  "--out", "{tmp}/s.csv"], None),
    ("default-name", ["density", "--n", "0", "--format", "json"], None),
    ("io-failure", ["spectrum", "--out", "{tmp}/missing/s.csv"], None),
    ("wavefunction-tol", ["wavefunction", "--n", "2", "--tol", "1e-8", "--mass", "1",
                          "--out", "{tmp}/w.json", "--format", "json"], None),
    # The level's series coefficients overflow: a warning and exit 1, no table.
    ("wavefunction-non-finite", ["wavefunction", "--mass", "1e50", "--a2", "1e-10", "--n", "10",
                                 "--out", "{tmp}/w.csv"], None),
    ("config-all", ["thermo", "--config", "{tmp}/run.cfg"],
     "# every key\na1 = 0.2\na2: 0.3\na3 = 0.0\nmass = 1\nHBAR-C = 1.5\nq = 0.7,1.1\n"
     "n = 0..2\nmbar_min = 0.5\nmbar-max = 5\nsteps = 9\nscale = linear\nmethod = direct\n"
     "em_order = 1\ntol = 1e-9\nformat = json\nout = {tmp}/cfg.json\n"),
    ("config-flag-wins", ["spectrum", "--config", "{tmp}/run.cfg", "--a2", "2.0", "--n", "0",
                          "--format", "csv"],
     "a2 = 4.0\na3 = 0.0\nformat = json\nout = {tmp}/c.csv\n"),
    ("config-compare", ["compare", "--config", "{tmp}/run.cfg"],
     "q = 1\nmbar-min = 1\nmbar-max = 3\nsteps = 3\nout = {tmp}/c.csv\n"),
    ("compare-dense-csv", ["compare", *DENSE, "--out", "{tmp}/c.csv"], None),
    # The fresh table that lib-overwrite's final file must equal.
    ("thermo-steps-3", ["thermo", "--steps", "3", "--out", "{tmp}/t.csv"], None),
    # A table sent where it cannot be truncated: no file, exit 0.
    ("thermo-dev-null", ["thermo", "--steps", "3", "--out", "/dev/null"], None),
    # A negative value in exponent form, which argparse alone reads as an
    # option, and the same value joined to its flag: the same table.
    ("spectrum-a1-exponent", ["spectrum", "--a1", "-1e-3", "--out", "{tmp}/s.csv"], None),
    ("spectrum-a1-joined", ["spectrum", "--a1=-0.001", "--out", "{tmp}/s.csv"], None),
]

USAGE_ERRORS = [
    ["spectrum", "--n", "2..x"],
    ["spectrum", "--a2", "0"],
    ["spectrum", "--a2", "nan"],
    ["spectrum", "--a1", "x"],
    ["spectrum", "--hbar-c", "inf"],
    ["thermo", "--steps", "1"],
    ["thermo", "--steps", "2.5"],
    ["thermo", "--mbar-min", "0"],
    ["thermo", "--mbar-min", "5", "--mbar-max", "2"],
    ["thermo", "--em-order", "3"],
    ["thermo", "--em-order", "two"],
    ["thermo", "--tol", "-1e-9"],
    ["thermo", "--tol", "nan"],
    ["thermo", "--scale", "cubic"],
    ["thermo", "--format", "xml"],
    ["thermo", "--method", "all"],
    ["compare", "--method", "em"],
    ["wavefunction", "--q", "0"],
    ["density", "--bogus", "1"],
    [],
    ["thermo", "--config", "{tmp}/absent.cfg"],
    ["density", "--a1", "-1e200", "--n", "0..2"],
    # A tol below 2**-53, which no float64 Z can honour.
    ["thermo", "--method", "direct", "--q", "1.0", "--mbar-min", "0.01", "--mbar-max", "1e5",
     "--steps", "3", "--tol", "1e-300"],
]
for i, argv in enumerate(USAGE_ERRORS):
    RUNS.append((f"usage-{i}", argv, None))

BAD_CONFIGS = [
    ("thermo", "scale = foo\n"),
    ("thermo", "steps = 1\n"),
    ("thermo", "tol = nan\n"),
    ("spectrum", "n = 2..x\n"),
    ("compare", "method = em\n"),
    ("thermo", "colour = blue\n"),
    ("thermo", "justaword\n"),
    ("thermo", "a2 =\n"),
    ("thermo", "config = other.cfg\n"),
]
for i, (command, text) in enumerate(BAD_CONFIGS):
    RUNS.append((f"bad-config-{i}", [command, "--config", "{tmp}/run.cfg"], text))

RUNS += [
    ("help", ["--help"], None),
    ("help-spectrum", ["spectrum", "--help"], None),
    ("help-thermo", ["thermo", "--help"], None),
    ("help-compare", ["compare", "--help"], None),
    ("help-density", ["density", "--help"], None),
    ("help-wavefunction", ["wavefunction", "-h"], None),
]

# The 24 potentials of the profile runs, each sampled for n = 0..150.
PROFILE_ENSEMBLE = """
import hashlib, numpy as np
from kgconfine import spectrum
from kgconfine.errors import KGConfineError
from kgconfine.params import PhysicalParams
rng = np.random.default_rng(11)
potentials = [(0.1, 0.1, 0.1, 0.5)] + [
    (rng.uniform(-0.5, 0.5), rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0), rng.uniform(0.0, 2.0))
    for _ in range(23)]
"""

# (name, code) run as ``python -c CODE``; each prints the bits it computed.
LIBRARY: list[tuple[str, str]] = [
    ("lib-profiles", PROFILE_ENSEMBLE + """
for a1, a2, a3, mass in potentials:
    phys = PhysicalParams(a1=a1, a2=a2, a3=a3, mass=mass)
    h = hashlib.sha256()
    for n in range(151):
        try:
            grid = spectrum.auto_grid(n, phys)
            s = spectrum.wavefunction(n, phys, grid, normalize=True)
            h.update(grid.tobytes() + s.values.tobytes() + bytes([s.normalized]))
        except KGConfineError as exc:
            h.update(repr(exc).encode())
    print(repr((a1, a2, a3, mass)), h.hexdigest())
"""),
    # The size of auto_grid's grids and the count of profiles it leaves
    # unnormalized, so a change to the grid's contract shows as numbers.
    ("lib-grids", PROFILE_ENSEMBLE + """
sizes, unnormalized, raised = [], 0, 0
for a1, a2, a3, mass in potentials:
    phys = PhysicalParams(a1=a1, a2=a2, a3=a3, mass=mass)
    for n in range(151):
        try:
            grid = spectrum.auto_grid(n, phys)
            s = spectrum.wavefunction(n, phys, grid, normalize=True)
        except KGConfineError:
            raised += 1
            continue
        sizes.append(grid.size)
        unnormalized += not s.normalized
print(f"{len(sizes)} profiles, {raised} raised; grid points min {min(sizes)}, "
      f"median {np.median(sizes):g}, max {max(sizes)}; normalized=False {unnormalized}")
"""),
    # The same potentials and levels on fixed grids, so the profile kernel's
    # bits are checked apart from auto_grid: odd-numbered potentials use a
    # grid that starts off zero.
    ("lib-profiles-fixed-grid", PROFILE_ENSEMBLE + """
for i, (a1, a2, a3, mass) in enumerate(potentials):
    phys = PhysicalParams(a1=a1, a2=a2, a3=a3, mass=mass)
    grid = np.linspace(0.25 * (i % 2), 40.0, 2001)
    h = hashlib.sha256()
    for n in range(151):
        try:
            s = spectrum.wavefunction(n, phys, grid, normalize=True)
            h.update(s.values.tobytes() + bytes([s.normalized]))
        except KGConfineError as exc:
            h.update(repr(exc).encode())
    print(repr((a1, a2, a3, mass)), h.hexdigest())
"""),
    ("lib-sweep", """
import hashlib, numpy as np
from kgconfine import thermo
q = np.linspace(0.25, 2.25, 9)
mbar = np.geomspace(0.01, 1e6, 301)
for method in ("direct", "em", "both"):
    for tol in (1e-6, 1e-9, 1e-12, 1e-15, 2**-53):
        cols = thermo.sweep(method, mbar, q, tol=tol)
        for name in ("Z_direct", "Z_em", "F", "U", "C", "terms", "tail_bound"):
            col = getattr(cols, name)
            data = b"None" if col is None else col.tobytes()
            print(method, tol, name, hashlib.sha256(data).hexdigest())
        # The failure map as a tuple with None for each point computed in full.
        errors = tuple(map(cols.failures.get, range(q.size * mbar.size)))
        print(method, tol, "errors", hashlib.sha256(repr(errors).encode()).hexdigest())
"""),
    # (index, error type) of each failed point in row order, for two both
    # sweeps whose direct and closed-form failures interleave: the closed
    # form's at mbar = 0.01 and the overflow at 1e300 over two q blocks, and
    # the overflow past mbar ~ 1e154.
    ("lib-failures", """
import numpy as np
from kgconfine import thermo
for q, mbar, tol in (([1.0, 1.5], np.geomspace(0.01, 1e300, 3), 1e-10),
                     ([0.5, 1.0], np.geomspace(1e30, 1e160, 27), 1e-10)):
    failures = thermo.sweep("both", mbar, q, tol=tol).failures
    print(f"both q={q} mbar={mbar[0]:g}..{mbar[-1]:g} tol={tol:g}:",
          [(i, type(failures[i]).__name__) for i in sorted(failures)])
"""),
    # A 40-step thermo table, then a 3-step one to the same --out: the file
    # is rewritten in place, and its hash is that of the 3-step table alone.
    ("lib-overwrite", """
from kgconfine import cli
for steps in ("40", "3"):
    print(cli.main(["thermo", "--steps", steps, "--out", "t.csv"]))
"""),
    ("lib-heads", """
import numpy as np
from kgconfine import thermo
q = np.linspace(0.25, 2.25, 9)
mbar = np.geomspace(0.01, 1e6, 301)
for method in ("direct", "both"):
    for tol in (1e-6, 1e-9, 1e-12, 1e-15, 2**-53):
        cols = thermo.sweep(method, mbar, q, tol=tol)
        terms, ratio = cols.terms, np.nanmax(cols.tail_bound / cols.Z_direct)
        print(f"{method} {tol}: {terms.size} rows, max {terms.max()}, mean {terms.mean():.2f}, "
              f"max tail_bound/Z {ratio:.1e}")
"""),
    ("lib-large-q", """
import numpy as np
from kgconfine import thermo
mbar = np.geomspace(1e-40, 1e6, 47)
for q in (1e4, 1e8, 1e30):
    for tol in (1e-10, 2**-53):
        cols = thermo.sweep("direct", mbar, q, tol=tol)
        print(f"q={q:g} tol={tol:.3g}: max head {cols.terms.max()}, "
              f"{len(cols.failures)} of {mbar.size} failed")
"""),
    # Where f(0) = e^{-E_0/mbar} underflows (q = 1e-280, 1.2e-301) and at
    # one ordinary point: the generic route's data and its order-2 sum.
    ("lib-summand", """
from kgconfine import thermo
from kgconfine.errors import DomainError
for mbar, q in ((1.0, 1e-280), (1.0, 1.2e-301), (1.5, 0.8)):
    f, derivs, integral = thermo.partition_summand(mbar, q)
    try:
        total = repr(thermo.euler_maclaurin_sum(f, integral, 2, derivs))
    except DomainError as exc:
        total = f"DomainError: {exc}"
    print(f"mbar={mbar} q={q}: f(0) {f(0.0)!r}, derivs {derivs}, integral {integral!r}, "
          f"sum {total}")
"""),
    ("lib-heun", """
import hashlib, numpy as np
from kgconfine import heun
from kgconfine.errors import KGConfineError, TruncationFailure
rng = np.random.default_rng(9)
for _ in range(400):
    c = rng.uniform(-5.0, 5.0, 4).tolist()
    try:
        hp = heun.HeunParams(*c)
    except KGConfineError as exc:
        print(repr(exc))
        continue
    for y in (0.0, 0.05, 0.3, 1.0, 2.7, 6.0, 15.0, 40.0, -0.7):
        for tol in (1e-6, 1e-12, 1e-15):
            try:
                ev = heun.evaluate(hp, y, tol)
                coeffs = heun.adaptive_series(hp, y, tol).coeffs
                print(repr(ev.value), repr(ev.error_estimate), ev.n_terms,
                      hashlib.sha256(coeffs.tobytes()).hexdigest())
            except TruncationFailure as exc:
                print(str(exc), repr(exc.partial_sum), exc.n_terms)
"""),
    ("lib-heun-grid", """
import hashlib, numpy as np
from kgconfine import heun
from kgconfine.errors import KGConfineError, TruncationFailure
rng = np.random.default_rng(9)
ys = np.array([-15.0, -6.0, -2.7, -1.0, -0.3, 0.0, 0.05, 0.3, 1.0, 2.7, 6.0, 15.0])
for _ in range(400):
    c = rng.uniform(-5.0, 5.0, 4).tolist()
    try:
        hp = heun.HeunParams(*c)
    except KGConfineError as exc:
        print(repr(exc))
        continue
    for tol in (1e-6, 1e-12, 1e-15):
        try:
            print(hashlib.sha256(heun.evaluate_on_grid(hp, ys, tol).tobytes()).hexdigest())
        except TruncationFailure as exc:
            print(str(exc), repr(exc.partial_sum), exc.n_terms)
"""),
    # Column views of the four cell types at their edge values, written
    # with no blank row (one format per table) and with blank rows (their
    # own formats), and two views that do not fit the header, which are
    # refused in either format before any file is written.
    ("lib-cells", """
import math
from kgconfine import cli
keys = [cli._cell(x) for x in (1e-05, 0.5, 2.0, 1e300, 5e-324, math.nan, -0.0, 3.0)]
floats = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1 + 0.2, 1e300, 1.5]
ints = [2**100, -2**63 - 1, 2**64 + 1, 7, 0, -1, 2**63, 12]
columns = [keys, floats, ints, [None] * 8]
blank = {1: (keys[1], None, None, None), 5: (keys[5], None, None, None),
         6: ("7", -math.inf, 2**70, None)}
header = ("k", "f", "i", "n")
for name, view in (("plain", cli._Columns(columns, {})), ("blank", cli._Columns(columns, blank))):
    for fmt in ("csv", "json"):
        cli.write_table(f"{name}.{fmt}", header, view, fmt)
for name, bad in (("missing", columns[:3]), ("short", [keys, floats[:-1], ints, [None] * 8])):
    for fmt in ("csv", "json"):
        try:
            cli.write_table(f"{name}.{fmt}", header, cli._Columns(bad, {}), fmt)
        except ValueError as exc:
            print(exc)
"""),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# Runs whose line shows their stdout, one "; "-separated entry per line of it.
SHOWN = {"lib-heads", "lib-grids", "lib-failures", "lib-large-q", "lib-summand"}


def digest(src: Path, name: str, python_args: list[str], config: str | None) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            Path(tmp, "run.cfg").write_text(config.replace("{tmp}", tmp), encoding="utf-8")
        before = set(os.listdir(tmp))
        env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80", NO_COLOR="1")
        proc = subprocess.run(
            [sys.executable, "-B", *(a.replace("{tmp}", tmp) for a in python_args)],
            cwd=tmp, env=env, capture_output=True,
        )
        tables = " ".join(
            f"{f}:{_sha(Path(tmp, f).read_bytes())}"
            for f in sorted(set(os.listdir(tmp)) - before)
        )
        stdout, stderr = (s.replace(tmp.encode(), b"{tmp}") for s in (proc.stdout, proc.stderr))
    shown = (f"[{'; '.join(stdout.decode().splitlines())}]" if name in SHOWN
             else _sha(stdout))
    return (f"{name} rc={proc.returncode} tables=[{tables}] "
            f"stdout={shown} stderr={_sha(stderr)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree whose kgconfine package runs (default: this checkout's)")
    ap.add_argument("--against", type=Path, metavar="OTHER_SRC",
                    help="also run the matrix on this source tree; print only the lines "
                         "that differ and their count, and exit 1 if any does")
    args = ap.parse_args()
    src = args.src.resolve()
    jobs = [(name, ["-m", "kgconfine", *argv], config) for name, argv, config in RUNS]
    jobs += [(name, ["-c", code], None) for name, code in LIBRARY]
    if args.against is None:
        for job in jobs:
            print(digest(src, *job), flush=True)
        return 0
    other = args.against.resolve()
    differ = 0
    for name, python_args, config in jobs:
        theirs, ours = (digest(tree, name, python_args, config) for tree in (other, src))
        if theirs != ours:
            differ += 1
            print(f"{name}\n  {other}: {theirs[len(name) + 1:]}\n"
                  f"  {src}: {ours[len(name) + 1:]}", flush=True)
    print(f"{differ} of {len(jobs)} lines differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
