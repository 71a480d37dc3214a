"""Command-line interface.

Commands: spectrum, wavefunction, thermo, compare, density.  One parser
reads the command and the one option set that every command takes; options
may come before or after the command.  Option precedence is flags > config
file > built-in defaults; the config file is a flat key-value document
(``key = value`` lines, ``#`` comments) mirroring the flag names.  Output
tables are CSV or JSON with 12 significant digits, LF line endings, and
UTF-8 encoding; identical configurations produce byte-identical files.  Exit
status is 0 only when every requested point was computed, 2 for usage
errors, 1 when some points failed.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

# thermo is imported here although only the sweeps run it: deferring it
# would just move its import into their first run, so the spectrum-type
# commands pay for it too.  spectrum (which imports heun) and json are
# imported by the functions that use them, so a CSV sweep never loads them.
from . import thermo
from .errors import ConfigError, DomainError, KGConfineError
from .params import PhysicalParams

PROG = "kgconfine"

COMMANDS = {
    "spectrum": "tabulate eigenvalues (both branches) and their residuals",
    "wavefunction": "sample eigenfunction profiles, one output file per n",
    "thermo": "sweep thermal functions over the reduced temperature",
    "compare": "direct vs Euler-MacLaurin partition function over a sweep",
    "density": "level densities evaluated at the eigenvalues",
}

# Column order of thermal sweep tables.
SWEEP_HEADER = ("mbar", "q", "Z_direct", "Z_em", "F", "U", "C", "rel_diff")


def _warn(message: str) -> None:
    text = f"{PROG}: warning: {message}"
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        text = f"\033[33m{text}\033[0m"
    print(text, file=sys.stderr)


def _report_failures(messages: list[str], total: int, noun: str) -> int:
    # Warn each failure, then how many of the total failed; the exit status.
    if not messages:
        return 0
    for message in messages:
        _warn(message)
    _warn(f"{len(messages)} of {total} {noun} failed")
    return 1


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
        try:
            thermo._Ladder(value)  # the levels' domain rule for q
        except DomainError as exc:
            raise ConfigError(f"invalid q {part!r}: {exc}") from None
        values.append(value)
    return tuple(values)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


class _Option(NamedTuple):
    convert: Callable[[str], object] | tuple[str, ...]  # a tuple lists the allowed words
    default: str | dict[str, str]  # a dict holds one default per command
    metavar: str | None = None
    help: str | None = None


# Every option under its config-file key; the flag is --key with "-" for
# "_".  A flag, a config-file value and the built-in default all go through
# the option's converter.  The default potential is the benchmark set used
# throughout the produced figures.
_OPTIONS = {
    "a1": _Option(_finite, "0.1", "E"),
    "a2": _Option(_finite, "0.1", "E"),
    "a3": _Option(_finite, "0.1", "E"),
    "mass": _Option(_finite, "0.5", "E"),
    "hbar_c": _Option(_finite, "1.0", "E*L"),
    "q": _Option(parse_q_list, "0.5,1.0,1.5", "LIST", "comma-separated dimensionless couplings"),
    "n": _Option(parse_n_list, dict.fromkeys(COMMANDS, "0..10") | {"wavefunction": "0,5,10"},
                 "LIST", "quantum numbers, e.g. 0..3 or 0,5,10"),
    "mbar_min": _Option(_finite, "0.1", "X"),
    "mbar_max": _Option(_finite, "10.0", "X"),
    "steps": _Option(int, "200", "N"),
    "scale": _Option(("log", "linear"), "log"),
    "method": _Option(("direct", "em", "both"), dict.fromkeys(COMMANDS, "em") | {"compare": "both"}),
    "em_order": _Option(int, "2", "{1,2}"),
    "tol": _Option(_finite, "1e-10", "X"),
    "format": _Option(("csv", "json"), "csv"),
    "out": _Option(str, "", "PATH"),  # empty: <command>.<format>
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _takes_value(token: str) -> bool:
    # Every long flag but --help (or the "--" that ends the options) takes a
    # value; argparse also accepts a flag's unique prefix.
    return token.startswith("--") and "=" not in token and not "--help".startswith(token)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative number that follows a value flag joined to it.

    argparse reads a token that starts with "-" as an option unless it
    matches its negative-number pattern, which has no exponent form, so
    ``--a1 -1e-3`` would leave --a1 without a value.  ``--a1=-1e-3`` is read
    as it stands, so that is the form such a value is given in.
    """
    out: list[str] = []
    for token in argv:
        if out and token.startswith("-") and _takes_value(out[-1]) and _is_float(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # The key ends at the first separator, so a value may hold either.
        cut = min((i for i in map(line.find, "=:") if i >= 0), default=None)
        if cut is None:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = line[:cut], line[cut + 1:]
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description=(
            "Bound-state spectrum, eigenfunctions and thermodynamics of a\n"
            "1-d Klein-Gordon particle in the scalar potential a1 + a2|x| + a3/|x|."
        ),
        epilog="commands:\n" + "".join(f"  {name:<14}{text}\n" for name, text in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    for key, opt in _OPTIONS.items():
        choices = opt.convert if isinstance(opt.convert, tuple) else None
        parser.add_argument(_flag(key), choices=choices, metavar=opt.metavar, help=opt.help)
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value file mirroring the flag names")
    return parser


def resolve_config(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> argparse.Namespace:
    """The run's settings: ``command``, each ``_OPTIONS`` key's converted value
    under the key (an empty ``out`` becomes ``<command>.<format>``), ``physical``
    and ``grid`` (the mbar sweep; None for commands that do not sweep)."""
    command = args.command
    file_values: dict[str, str] = {}
    if args.config is not None:
        try:
            file_values = _read_config_file(args.config)
        except ConfigError as exc:
            parser.error(str(exc))

    # Flag, else config file, else built-in default.
    cfg = argparse.Namespace(command=command)
    for key, opt in _OPTIONS.items():
        text = getattr(args, key)
        if text is None:
            default = opt.default if isinstance(opt.default, str) else opt.default[command]
            text = file_values.get(key, default)
        try:
            if isinstance(opt.convert, tuple):
                if text not in opt.convert:
                    raise ValueError(text)
                setattr(cfg, key, text)
            else:
                setattr(cfg, key, opt.convert(text))
        except ConfigError as exc:
            parser.error(str(exc))
        except ValueError:
            parser.error(f"invalid value for {_flag(key)}: {text!r}")

    try:
        cfg.physical = PhysicalParams(cfg.a1, cfg.a2, cfg.a3, cfg.mass, cfg.hbar_c)
    except KGConfineError as exc:
        parser.error(str(exc))
    lo, hi, steps = cfg.mbar_min, cfg.mbar_max, cfg.steps
    if not (lo > 0.0 and hi > lo):
        parser.error(f"need 0 < mbar-min < mbar-max, got {lo!r}, {hi!r}")
    if not math.isfinite(1.0 / lo):  # below ~5.6e-309, as thermo rejects it
        parser.error(f"1/mbar-min overflows at {lo!r}")
    if steps < 2:
        parser.error(f"--steps must be >= 2, got {steps}")
    if command == "compare" and cfg.method != "both":
        parser.error("compare requires --method both")
    if cfg.em_order not in (1, 2):
        parser.error(f"--em-order must be 1 or 2, got {cfg.em_order}")
    try:
        thermo._check_tol(cfg.tol)  # the direct sum's rule for tol
    except DomainError as exc:
        parser.error(f"invalid --tol: {exc}")

    cfg.out = cfg.out or f"{command}.{cfg.format}"
    cfg.grid = None
    if command in ("thermo", "compare"):
        cfg.grid = (np.geomspace if cfg.scale == "log" else np.linspace)(lo, hi, steps)
    return cfg


# The one cell rule, as the % field of each type of cell a table holds: a
# float is rounded to 12 significant digits, an int stays exact, a str is
# text this rule has already produced (a sweep's key cells), and None is an
# empty cell ("%.0s" prints its str cut to no characters).
_FIELDS = {float: "%.12g", int: "%s", str: "%s", type(None): "%.0s"}


def _cell(value) -> str:
    return _FIELDS[type(value)] % (value,)


def _json_cell(value):
    return value if value is None or isinstance(value, int) else float(_cell(value))


@functools.cache
def _csv_format(signature: tuple[type, ...]) -> str:
    # The one-% format of a CSV row whose cells have these types.
    return ",".join(_FIELDS[kind] for kind in signature)


class _Columns:
    # A table's rows as a view over its columns: row i is the i-th cell of
    # every column, or blank[i] in full (a failed sweep point's row).  Each
    # column is a list of cells of one type, that of its first cell, as
    # ndarray.tolist() gives; len() is the number of rows, at least one.
    def __init__(self, columns: list[list], blank: dict[int, tuple]):
        self.columns, self.blank = columns, blank

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        rows = zip(*self.columns)
        return (self.blank.get(i, row) for i, row in enumerate(rows)) if self.blank else rows


def write_table(path: str, header: tuple[str, ...], rows: _Columns, fmt: str) -> None:
    """Write the ``_Columns`` view ``rows`` as CSV or as a JSON list of records.

    The view holds one list per ``header`` column; ``len(rows)`` is the
    number of data rows.  ``_cell`` gives every cell's text (JSON writes a
    str cell as the number it spells, and keeps its ints and floats as
    numbers).  CSV rows are written with ``%`` formats built from the same
    rule: one for the table from its column types, and one per blank row
    from its cells' types.  A view whose column count differs from the
    header's, or whose columns differ in length, raises ``ValueError``
    before the file is opened, in either format.  An existing file is
    rewritten in place and cut to the new length, so a write that fails
    partway leaves a mix of old and new text, not a truncated file.
    """
    if len(rows.columns) != len(header):
        raise ValueError(f"the view has {len(rows.columns)} columns; "
                         f"the header has {len(header)}")
    for j, column in enumerate(rows.columns):
        if len(column) != len(rows):
            raise ValueError(f"column {j} has {len(column)} cells; column 0 has {len(rows)}")
    if fmt == "csv":
        form = _csv_format(tuple(type(column[0]) for column in rows.columns))
        lines = [",".join(header)]
        lines += map(form.__mod__, zip(*rows.columns))
        for i, row in rows.blank.items():
            lines[i + 1] = _csv_format(tuple(map(type, row))) % row
    else:
        import json

        records = [dict(zip(header, map(_json_cell, row))) for row in rows]
        lines = [json.dumps(records, indent=2)]
    text = "\n".join(lines + [""])  # one copy of the text, final newline included
    # No O_TRUNC: truncating on open frees the file's blocks only to allocate them again.
    with open(path, "w", encoding="utf-8", newline="",
              opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        cut = os.fstat(fh.fileno()).st_size > len(text)  # len(text) <= its UTF-8 length
        fh.write(text)
        if cut:  # only a longer old file; a pipe or a device cannot be truncated
            fh.truncate()


def run_levels(cfg: argparse.Namespace) -> int:
    from . import spectrum as spec_mod

    p = cfg.physical
    header, row = {
        "spectrum": (("n", "energy_pos", "energy_neg", "residual"),
                     lambda n, e: (n, e, -e, spec_mod.quantization_residual(e, n, p))),
        "density": (("n", "energy", "rho_consistent", "rho_paper"),
                    lambda n, e: (n, e, spec_mod.level_density_consistent(e, p),
                                  spec_mod.level_density_paper(e, p))),
    }[cfg.command]
    cells = [row(n, spec_mod.energy(n, p)) for n in cfg.n]
    rows = _Columns([list(column) for column in zip(*cells)], {})
    write_table(cfg.out, header, rows, cfg.format)
    print(f"wrote {cfg.out} ({len(rows)} rows)")
    return 0


def run_wavefunction(cfg: argparse.Namespace) -> int:
    from . import spectrum as spec_mod

    failures = []
    # A device or a FIFO (it exists, but is no file and no directory) takes
    # every profile as given; any other path gets one file per n.
    shared = os.path.exists(cfg.out) and not (os.path.isfile(cfg.out) or os.path.isdir(cfg.out))
    root, ext = os.path.splitext(cfg.out)
    for n in cfg.n:
        path = cfg.out if shared else f"{root}_n{n}{ext}"
        try:
            grid = spec_mod.auto_grid(n, cfg.physical)
            sample = spec_mod.wavefunction(n, cfg.physical, grid, normalize=True)
        except KGConfineError as exc:
            failures.append(f"n={n}: {exc}")
            continue
        rows = _Columns([sample.grid.tolist(), sample.values.tolist()], {})
        write_table(path, ("y", "psi"), rows, cfg.format)
        print(f"wrote {path} ({len(rows)} rows, normalized={sample.normalized}, "
              f"rounding={sample.rounding:.1e})")
    return _report_failures(failures, len(cfg.n), "profiles")


def _sweep_rows(cfg: argparse.Namespace,
                include_terms: bool) -> tuple[_Columns, list[str], int | None]:
    # The table rows of a sweep as a view over its columns, a message per
    # failed point, and, with include_terms, the index of the first row with
    # the largest rel_diff among the points computed (None when every point
    # failed).  The view holds the columns as lists; the sweep's arrays are
    # dropped on return, before the table is written.
    # One sweep over every q; its columns are q-major, like the table.
    cols = thermo.sweep(cfg.method, cfg.grid, cfg.q, cfg.em_order, cfg.tol)
    rel = None
    if cols.Z_direct is not None and cols.Z_em is not None:
        with np.errstate(invalid="ignore"):  # inf - inf on a failed point
            rel = np.abs(cols.Z_direct - cols.Z_em) / cols.Z_direct
    arrays = (cols.Z_direct, cols.Z_em, cols.F, cols.U, cols.C, rel)
    arrays += (cols.terms,) if include_terms else ()
    mbars = cfg.grid.tolist()
    size = len(mbars) * len(cfg.q)
    # The key cells as text: each mbar formatted once per sweep, each q once.
    mbar_cells = list(map(_FIELDS[float].__mod__, mbars))
    q_cells = map(_FIELDS[float].__mod__, cfg.q)
    columns = [mbar_cells * len(cfg.q),
               list(itertools.chain.from_iterable([cell] * len(mbars) for cell in q_cells))]
    columns += [[None] * size if a is None else a.tolist() for a in arrays]
    # A failed point keeps its mbar and q and blanks every other cell.
    failed = sorted(cols.failures)  # row order, whatever order the sweep found them in
    blank = (None,) * (len(columns) - 2)
    view = _Columns(columns, {i: (columns[0][i], columns[1][i]) + blank for i in failed})
    errors = [f"mbar={mbars[i % len(mbars)]!r} q={cfg.q[i // len(mbars)]!r}: {cols.failures[i]}"
              for i in failed]
    best = None
    if include_terms:
        # Failed rows are skipped by index: their rel may be inf, not NaN.
        live = np.delete(np.arange(size), failed)
        if live.size:
            best = int(live[np.argmax(rel[live])])  # argmax keeps the first of ties
    return view, errors, best


def run_sweep(cfg: argparse.Namespace) -> int:
    """The thermo and compare commands; compare adds the terms_direct column."""
    include_terms = cfg.command == "compare"
    header = SWEEP_HEADER + (("terms_direct",) if include_terms else ())
    rows, errors, best = _sweep_rows(cfg, include_terms)
    write_table(cfg.out, header, rows, cfg.format)
    print(f"wrote {cfg.out} ({len(rows)} rows)")

    if best is not None:
        mbar, q, rel = (rows.columns[header.index(key)][best] for key in ("mbar", "q", "rel_diff"))
        print(f"max rel_diff {_cell(rel)} at mbar={mbar} q={q}")

    return _report_failures(errors, len(rows), "sweep points")


_RUNNERS = {
    "spectrum": run_levels,
    "wavefunction": run_wavefunction,
    "thermo": run_sweep,
    "compare": run_sweep,
    "density": run_levels,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    cfg = resolve_config(parser, args)
    try:
        return _RUNNERS[cfg.command](cfg)
    except KGConfineError as exc:
        _warn(str(exc))
        return 1
    except OSError as exc:
        # A failed write or close carries no file name, only a failed open does.
        _warn(f"i/o failure on {exc.filename or cfg.out}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
