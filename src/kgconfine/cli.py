"""Command-line interface.

Subcommands: spectrum, wavefunction, thermo, compare, density.  Option
precedence is flags > config file > built-in defaults; the config file is a
flat key-value document (``key = value`` lines, ``#`` comments) mirroring the
flag names.  Output tables are CSV or JSON with 12 significant digits, LF
line endings, and UTF-8 encoding; identical configurations produce
byte-identical files.  Exit status is 0 only when every requested point was
computed, 2 for usage errors, 1 when some points failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import spectrum as spec_mod
from . import thermo
from .errors import ConfigError, KGConfineError
from .params import PhysicalParams

PROG = "kgconfine"

# Built-in defaults; the potential coefficients are the benchmark set used
# throughout the produced figures.
_COMMON_DEFAULTS = {
    "a1": "0.1",
    "a2": "0.1",
    "a3": "0.1",
    "mass": "0.5",
    "hbar_c": "1.0",
    "q": "0.5,1.0,1.5",
    "mbar_min": "0.1",
    "mbar_max": "10.0",
    "steps": "200",
    "scale": "log",
    "em_order": "2",
    "tol": "1e-10",
    "format": "csv",
}
_N_DEFAULTS = {"spectrum": "0..10", "density": "0..10", "wavefunction": "0,5,10"}
_METHOD_DEFAULTS = {"thermo": "em", "compare": "both"}

_CHOICES = {
    "scale": ("log", "linear"),
    "method": ("direct", "em", "both"),
    "format": ("csv", "json"),
}

COMMANDS = {
    "spectrum": "tabulate eigenvalues (both branches) and their residuals",
    "wavefunction": "sample eigenfunction profiles, one output file per n",
    "thermo": "sweep thermal functions over the reduced temperature",
    "compare": "direct vs Euler-MacLaurin partition function over a sweep",
    "density": "level densities evaluated at the eigenvalues",
}

# Column order of thermal sweep tables.
SWEEP_HEADER = ("mbar", "q", "Z_direct", "Z_em", "F", "U", "C", "rel_diff")

_WAVEFUNCTION_POINTS = 2001


@dataclass(frozen=True)
class SweepSpec:
    mbar_min: float
    mbar_max: float
    steps: int
    scale: str

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.mbar_min, self.mbar_max, self.steps)
        return np.linspace(self.mbar_min, self.mbar_max, self.steps)


@dataclass(frozen=True)
class RunConfig:
    command: str
    physical: PhysicalParams
    sweep: SweepSpec
    q_list: tuple[float, ...]
    n_list: tuple[int, ...]
    method: str
    em_order: int
    output_format: str
    output_path: str
    tol: float


def _warn(message: str) -> None:
    text = f"{PROG}: warning: {message}"
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        text = f"\033[33m{text}\033[0m"
    print(text, file=sys.stderr)


def parse_n_list(text: str) -> tuple[int, ...]:
    """Parse quantum-number lists like ``0..3``, ``0,5,10`` or ``0..2,7``."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ConfigError(f"empty entry in n list {text!r}")
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ConfigError(f"malformed range {part!r} in n list") from None
            if lo < 0 or hi < lo:
                raise ConfigError(f"invalid range {part!r} in n list")
            values.extend(range(lo, hi + 1))
        else:
            try:
                n = int(part)
            except ValueError:
                raise ConfigError(f"malformed entry {part!r} in n list") from None
            if n < 0:
                raise ConfigError(f"negative quantum number {n} in n list")
            values.append(n)
    return tuple(values)


def parse_q_list(text: str) -> tuple[float, ...]:
    values: list[float] = []
    for part in text.split(","):
        part = part.strip()
        try:
            value = float(part)
        except ValueError:
            raise ConfigError(f"malformed entry {part!r} in q list") from None
        if not (value > 0.0) or not math.isfinite(value):
            raise ConfigError(f"q values must be positive, got {part!r}")
        values.append(value)
    if not values:
        raise ConfigError("q list is empty")
    return tuple(values)


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    known = set(_COMMON_DEFAULTS) | {"n", "method", "out"}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, value = line.partition(sep)
                break
        else:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Bound-state spectrum, eigenfunctions and thermodynamics of a "
            "1-d Klein-Gordon particle in the scalar potential "
            "a1 + a2|x| + a3/|x|."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, description in COMMANDS.items():
        p = sub.add_parser(name, help=description)
        for flag in ("a1", "a2", "a3", "mass"):
            p.add_argument(f"--{flag}", default=None, metavar="E")
        p.add_argument("--hbar-c", dest="hbar_c", default=None, metavar="E*L")
        p.add_argument("--q", default=None, metavar="LIST",
                       help="comma-separated dimensionless couplings")
        p.add_argument("--n", default=None, metavar="LIST",
                       help="quantum numbers, e.g. 0..3 or 0,5,10")
        p.add_argument("--mbar-min", dest="mbar_min", default=None, metavar="X")
        p.add_argument("--mbar-max", dest="mbar_max", default=None, metavar="X")
        p.add_argument("--steps", default=None, metavar="N")
        p.add_argument("--scale", default=None, choices=_CHOICES["scale"])
        p.add_argument("--method", default=None, choices=_CHOICES["method"])
        p.add_argument("--em-order", dest="em_order", default=None, metavar="{1,2}")
        p.add_argument("--tol", default=None, metavar="X")
        p.add_argument("--format", default=None, choices=_CHOICES["format"])
        p.add_argument("--out", default=None, metavar="PATH")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat key = value file mirroring the flag names")
    return parser


def _convert(parser, key: str, text: str, kind: str):
    try:
        if kind == "float":
            value = float(text)
            if not math.isfinite(value):
                raise ValueError
            return value
        if kind == "int":
            return int(text)
        if kind in _CHOICES:
            if text not in _CHOICES[kind]:
                raise ValueError
            return text
        raise KeyError(kind)
    except ValueError:
        parser.error(f"invalid value for --{key.replace('_', '-')}: {text!r}")


def resolve_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    command = args.command
    file_values: dict[str, str] = {}
    if args.config is not None:
        try:
            file_values = _read_config_file(args.config)
        except ConfigError as exc:
            parser.error(str(exc))

    def pick(key: str, default: str | None) -> str | None:
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in file_values:
            return file_values[key]
        return default

    try:
        physical = PhysicalParams(**{
            key: _convert(parser, key, pick(key, _COMMON_DEFAULTS[key]), "float")
            for key in ("a1", "a2", "a3", "mass", "hbar_c")
        })
    except KGConfineError as exc:
        parser.error(str(exc))

    try:
        q_list = parse_q_list(pick("q", _COMMON_DEFAULTS["q"]))
        n_list = parse_n_list(pick("n", _N_DEFAULTS.get(command, "0..10")))
    except ConfigError as exc:
        parser.error(str(exc))

    sweep = SweepSpec(
        mbar_min=_convert(parser, "mbar_min", pick("mbar_min", _COMMON_DEFAULTS["mbar_min"]), "float"),
        mbar_max=_convert(parser, "mbar_max", pick("mbar_max", _COMMON_DEFAULTS["mbar_max"]), "float"),
        steps=_convert(parser, "steps", pick("steps", _COMMON_DEFAULTS["steps"]), "int"),
        scale=_convert(parser, "scale", pick("scale", _COMMON_DEFAULTS["scale"]), "scale"),
    )
    if not (sweep.mbar_min > 0.0 and sweep.mbar_max > sweep.mbar_min):
        parser.error(
            f"need 0 < mbar-min < mbar-max, got {sweep.mbar_min!r}, {sweep.mbar_max!r}"
        )
    if sweep.steps < 2:
        parser.error(f"--steps must be >= 2, got {sweep.steps}")

    method = _convert(parser, "method", pick("method", _METHOD_DEFAULTS.get(command, "em")), "method")
    if command == "compare" and method != "both":
        parser.error("compare requires --method both")

    em_order = _convert(parser, "em_order", pick("em_order", _COMMON_DEFAULTS["em_order"]), "int")
    if em_order not in (1, 2):
        parser.error(f"--em-order must be 1 or 2, got {em_order}")

    tol = _convert(parser, "tol", pick("tol", _COMMON_DEFAULTS["tol"]), "float")
    if tol <= 0.0:
        parser.error(f"--tol must be positive, got {tol!r}")

    output_format = _convert(parser, "format", pick("format", _COMMON_DEFAULTS["format"]), "format")
    out = pick("out", None) or f"{command}.{output_format}"

    return RunConfig(
        command=command,
        physical=physical,
        sweep=sweep,
        q_list=q_list,
        n_list=n_list,
        method=method,
        em_order=em_order,
        output_format=output_format,
        output_path=out,
        tol=tol,
    )


def _fmt12(value) -> str:
    return format(float(value), ".12g")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return _fmt12(value)


def _json_value(value):
    if value is None:
        return None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    return float(_fmt12(value))


def write_table(path: str, header: tuple[str, ...], rows: list[tuple], fmt: str) -> None:
    """Write ``rows`` as CSV or as a JSON list of records.

    Each row is a tuple of cell values in ``header`` order; None is an empty
    cell (JSON null), integers stay integers, and every other value is
    rounded to 12 significant digits.
    """
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(map(_cell, row)) for row in rows)
    else:
        records = [dict(zip(header, map(_json_value, row))) for row in rows]
        lines = [json.dumps(records, indent=2)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def run_spectrum(cfg: RunConfig) -> int:
    header = ("n", "energy_pos", "energy_neg", "residual")
    rows = []
    for n in cfg.n_list:
        pos = spec_mod.energy(n, cfg.physical, spec_mod.Branch.POSITIVE)
        neg = spec_mod.energy(n, cfg.physical, spec_mod.Branch.NEGATIVE)
        rows.append((n, pos.energy, neg.energy,
                     spec_mod.quantization_residual(pos.energy, n, cfg.physical)))
    write_table(cfg.output_path, header, rows, cfg.output_format)
    print(f"wrote {cfg.output_path} ({len(rows)} rows)")
    return 0


def run_density(cfg: RunConfig) -> int:
    header = ("n", "energy", "rho_consistent", "rho_paper")
    rows = []
    for n in cfg.n_list:
        e = spec_mod.energy(n, cfg.physical).energy
        rows.append((n, e, spec_mod.level_density_consistent(e, cfg.physical),
                     spec_mod.level_density_paper(e, cfg.physical)))
    write_table(cfg.output_path, header, rows, cfg.output_format)
    print(f"wrote {cfg.output_path} ({len(rows)} rows)")
    return 0


def run_wavefunction(cfg: RunConfig) -> int:
    failures = []
    root, ext = os.path.splitext(cfg.output_path)
    for n in cfg.n_list:
        path = f"{root}_n{n}{ext}"
        try:
            grid = spec_mod.auto_grid(n, cfg.physical, points=_WAVEFUNCTION_POINTS, tol=cfg.tol)
            sample = spec_mod.wavefunction(n, cfg.physical, grid, normalize=True, tol=cfg.tol)
        except KGConfineError as exc:
            failures.append(f"n={n}: {exc}")
            continue
        rows = list(zip(sample.grid.tolist(), sample.values.tolist()))
        write_table(path, ("y", "psi"), rows, cfg.output_format)
        print(f"wrote {path} ({len(rows)} rows, normalized={sample.normalized})")
    for message in failures:
        _warn(message)
    if failures:
        _warn(f"{len(failures)} of {len(cfg.n_list)} profiles failed")
        return 1
    return 0


def run_sweep(cfg: RunConfig) -> int:
    """The thermo and compare commands; compare adds the terms_direct column."""
    include_terms = cfg.command == "compare"
    em_cfg = thermo.EMConfig(order=cfg.em_order)
    grid = cfg.sweep.grid()
    mbars = grid.tolist()
    header = SWEEP_HEADER + (("terms_direct",) if include_terms else ())
    blank = (None,) * (len(header) - 2)
    rows: list[tuple] = []
    errors: list[str] = []
    for q in cfg.q_list:
        cols = thermo.sweep(cfg.method, grid, q, em_cfg, cfg.tol)
        rel = None
        if cols.Z_direct is not None and cols.Z_em is not None:
            with np.errstate(invalid="ignore"):  # inf - inf on a failed point
                rel = np.abs(cols.Z_direct - cols.Z_em) / cols.Z_direct
        columns = (cols.Z_direct, cols.Z_em, cols.F, cols.U, cols.C, rel)
        columns += (cols.terms,) if include_terms else ()
        values = [itertools.repeat(None) if c is None else c.tolist() for c in columns]
        for mbar, err, *point in zip(mbars, cols.errors, *values):
            if err is None:
                rows.append((mbar, q, *point))
            else:
                rows.append((mbar, q) + blank)
                errors.append(f"mbar={mbar!r} q={q!r}: {err}")

    write_table(cfg.output_path, header, rows, cfg.output_format)
    print(f"wrote {cfg.output_path} ({len(rows)} rows)")

    if include_terms:
        rel_at = header.index("rel_diff")
        best = max((row for row in rows if row[rel_at] is not None),
                   key=lambda row: row[rel_at], default=None)
        if best is not None:
            print(
                f"max rel_diff {_fmt12(best[rel_at])} "
                f"at mbar={_fmt12(best[0])} q={_fmt12(best[1])}"
            )

    for message in errors:
        _warn(message)
    if errors:
        _warn(f"{len(errors)} of {len(rows)} sweep points failed")
        return 1
    return 0


_RUNNERS = {
    "spectrum": run_spectrum,
    "wavefunction": run_wavefunction,
    "thermo": run_sweep,
    "compare": run_sweep,
    "density": run_density,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = resolve_config(parser, args)
    try:
        return _RUNNERS[cfg.command](cfg)
    except KGConfineError as exc:
        _warn(str(exc))
        return 1
    except OSError as exc:
        _warn(f"i/o failure on {getattr(exc, 'filename', cfg.output_path)}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
