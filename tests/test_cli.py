"""Command-line front end: parsing, config precedence, file formats."""

import argparse
import ast
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kgconfine import cli, thermo
from kgconfine.errors import ConfigError, DomainError
from kgconfine.params import PhysicalParams


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()
    assert raw.endswith("\n") and "\r" not in raw
    lines = raw.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------- parsing


def test_parse_n_list_forms():
    assert cli.parse_n_list("0..3") == (0, 1, 2, 3)
    assert cli.parse_n_list("0,5,10") == (0, 5, 10)
    assert cli.parse_n_list("0..2,7") == (0, 1, 2, 7)
    assert cli.parse_n_list(" 1 , 2 ") == (1, 2)


@pytest.mark.parametrize("bad", ["x", "3..1", "-2", "1,,2", "0..a", "1.5"])
def test_parse_n_list_rejects(bad):
    with pytest.raises(ConfigError):
        cli.parse_n_list(bad)


def test_parse_q_list_forms():
    assert cli.parse_q_list("0.5,1.0,1.5") == (0.5, 1.0, 1.5)
    assert cli.parse_q_list(" 2 ") == (2.0,)


@pytest.mark.parametrize("bad", ["abc", "0", "-1", "", "inf", "1,", "1e200", "1e-310", "2e-307"])
def test_parse_q_list_rejects(bad):
    with pytest.raises(ConfigError):
        cli.parse_q_list(bad)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_every_command_takes_one_option_set():
    # One parser: help, the command, every option in _OPTIONS order, --config.
    parser = cli.build_parser()
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    help_action, command, *options = parser._actions
    assert isinstance(help_action, argparse._HelpAction)
    assert (command.dest, command.option_strings) == ("command", [])
    assert list(command.choices) == list(cli.COMMANDS)
    expected = [
        (cli._flag(key), opt.convert if isinstance(opt.convert, tuple) else None, opt.metavar)
        for key, opt in cli._OPTIONS.items()
    ] + [("--config", None, "PATH")]
    assert [(a.option_strings[0], a.choices, a.metavar) for a in options] == expected
    # Unset flags stay None, so a config-file value can fill them.
    assert all(a.default is None for a in options)


def test_options_may_come_before_the_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    options = ["--q", "1", "--mbar-min", "0.5", "--steps", "5", "--method", "direct"]
    assert cli.main([*options, "thermo", "--out", "before.csv"]) == 0
    assert cli.main(["thermo", *options, "--out", "after.csv"]) == 0
    assert (tmp_path / "before.csv").read_bytes() == (tmp_path / "after.csv").read_bytes()


def test_help_names_every_command_and_flag(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    for word in [*cli.COMMANDS, *map(cli._flag, cli._OPTIONS), "--config"]:
        assert word in text
    for name, description in cli.COMMANDS.items():
        assert f"{name}  " in text and description in text


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_per_command_defaults(command):
    parser = cli.build_parser()
    cfg = cli.resolve_config(parser, parser.parse_args([command]))
    assert cfg.n == ((0, 5, 10) if command == "wavefunction" else tuple(range(11)))
    assert cfg.method == ("both" if command == "compare" else "em")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_resolved_options_keep_their_keys(command, tmp_path):
    # Each option is read under its _OPTIONS key, converted: here from a flag
    # (n, tol, mbar_max), from the config file (q, em_order, format) or from
    # its built-in default (the rest).
    config = tmp_path / "run.cfg"
    config.write_text("q = 0.7,1.1\nem-order = 1\nformat = json\n", encoding="utf-8")
    parser = cli.build_parser()
    argv = [command, "--config", str(config), "--n", "0..2", "--tol", "1e-8", "--mbar-max", "5"]
    cfg = cli.resolve_config(parser, parser.parse_args(argv))
    expected = {
        "a1": 0.1, "a2": 0.1, "a3": 0.1, "mass": 0.5, "hbar_c": 1.0,
        "q": (0.7, 1.1), "n": (0, 1, 2), "mbar_min": 0.1, "mbar_max": 5.0, "steps": 200,
        "scale": "log", "method": "both" if command == "compare" else "em", "em_order": 1,
        "tol": 1e-8, "format": "json", "out": f"{command}.json",
    }
    assert list(expected) == list(cli._OPTIONS)
    resolved = {key: getattr(cfg, key) for key in cli._OPTIONS}
    assert resolved == expected
    assert {k: type(v) for k, v in resolved.items()} == {k: type(v) for k, v in expected.items()}
    assert [type(q) for q in cfg.q] == [float, float] and [type(n) for n in cfg.n] == [int] * 3
    assert cfg.command == command
    assert cfg.physical == PhysicalParams(a1=0.1, a2=0.1, a3=0.1, mass=0.5)
    if command in ("thermo", "compare"):
        np.testing.assert_array_equal(cfg.grid, np.geomspace(0.1, 5.0, 200))
    else:
        assert cfg.grid is None
    # A given --out is kept as it is.
    cfg = cli.resolve_config(parser, parser.parse_args([*argv, "--out", "x.csv"]))
    assert cfg.out == "x.csv"


# ----------------------------------------------------------- config files


def test_read_config_file_formats(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "a2 = 1.0\n"
        "mbar-min: 0.5   # trailing comment\n"
        "\n"
        "METHOD = direct\n"
        "out: runs/q=0.5.csv\n",
        encoding="utf-8",
    )
    values = cli._read_config_file(str(cfg))
    assert values == {"a2": "1.0", "mbar_min": "0.5", "method": "direct",
                      "out": "runs/q=0.5.csv"}


def test_read_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("colour = blue\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown option"):
        cli._read_config_file(str(cfg))


def test_read_config_file_rejects_bare_word(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("justaword\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="expected"):
        cli._read_config_file(str(cfg))


def test_read_config_file_rejects_empty_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a2 =\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="empty value for 'a2'"):
        cli._read_config_file(str(cfg))


@pytest.mark.parametrize("tty, no_color, coloured", [
    (True, None, True), (True, "1", False), (False, None, False),
])
def test_warn_colours_only_a_tty_without_no_color(tty, no_color, coloured, monkeypatch):
    class Stream(io.StringIO):
        def isatty(self):
            return tty

    stream = Stream()
    monkeypatch.setattr(sys, "stderr", stream)
    monkeypatch.delenv("NO_COLOR", raising=False)
    if no_color is not None:
        monkeypatch.setenv("NO_COLOR", no_color)
    cli._warn("x")
    text = "kgconfine: warning: x"
    assert stream.getvalue() == (f"\033[33m{text}\033[0m\n" if coloured else f"{text}\n")


def test_read_config_file_missing(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        cli._read_config_file(str(tmp_path / "absent.cfg"))


def test_non_utf8_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"q = 1\xff\n")
    with pytest.raises(SystemExit) as err:
        cli.main(["thermo", "--config", str(cfg)])
    assert err.value.code == 2
    assert f"cannot read config file {cfg}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a2 = 4.0\na3 = 0.0\n", encoding="utf-8")
    out = tmp_path / "spec.csv"
    rc = cli.main([
        "spectrum", "--config", str(cfg), "--a2", "2.0",
        "--n", "0", "--out", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(out)
    # a2=2 (flag), a3=0 (file): E_0 = sqrt(2*a2) = 2.
    assert math.isclose(float(rows[0]["energy_pos"]), 2.0, rel_tol=1e-12)


# ------------------------------------------------------------ subcommands


def test_spectrum_linear_potential_energies(tmp_path):
    out = tmp_path / "spec.csv"
    rc = cli.main([
        "spectrum", "--a1", "0", "--a2", "1", "--a3", "0", "--mass", "0",
        "--n", "0..3", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["n", "energy_pos", "energy_neg", "residual"]
    expected = [math.sqrt(2.0), 2.0, math.sqrt(6.0), math.sqrt(8.0)]
    for row, e in zip(rows, expected):
        # cells carry 12 significant digits, so compare at that resolution
        assert math.isclose(float(row["energy_pos"]), e, rel_tol=1e-11)
        assert math.isclose(float(row["energy_neg"]), -e, rel_tol=1e-11)
        assert abs(float(row["residual"])) < 1e-12


def test_density_columns_and_values(tmp_path):
    out = tmp_path / "dens.csv"
    rc = cli.main(["density", "--n", "0..2", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["n", "energy", "rho_consistent", "rho_paper"]
    for row in rows:
        e = float(row["energy"])
        # defaults: a2 = 0.1, hbar_c = 1 -> Q/a2 = 10
        assert math.isclose(float(row["rho_consistent"]), 10.0 * e, rel_tol=1e-11)
        assert math.isclose(float(row["rho_paper"]), 10.0 * math.sqrt(e), rel_tol=1e-11)


def test_wavefunction_per_n_files(tmp_path, capsys):
    out = tmp_path / "wf.csv"
    rc = cli.main(["wavefunction", "--n", "0,1", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "normalized=True" in captured
    for n in (0, 1):
        path = tmp_path / f"wf_n{n}.csv"
        assert path.exists()
        header, rows = read_csv(path)
        assert header == ["y", "psi"]
        psi = np.array([float(r["psi"]) for r in rows])
        y = np.array([float(r["y"]) for r in rows])
        assert psi[0] == 0.0  # vanishes at the origin
        signs = np.sign(psi[np.abs(psi) > 1e-9 * np.max(np.abs(psi))])
        crossings = int(np.count_nonzero(np.diff(signs)))
        # Truncated profiles carry at most n interior nodes (often fewer:
        # the cut series is not the exact orthogonal eigenfunction).
        assert crossings <= n
        # decaying tail: last sample tiny relative to the peak
        assert abs(psi[-1]) < 1e-6 * np.max(np.abs(psi))
        assert y[0] == 0.0 and np.all(np.diff(y) > 0)


def test_wavefunction_refuses_a_level_lost_to_rounding(tmp_path, capsys):
    # n = 150 of the default potential is refused before it is probed; n = 0
    # is written, and its line reports its rounding estimate, 2^-53.
    out = tmp_path / "wf.csv"
    rc = cli.main(["wavefunction", "--n", "0,150", "--out", str(out)])
    assert rc == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wf_n0.csv"]
    captured = capsys.readouterr()
    assert captured.out == (f"wrote {tmp_path / 'wf_n0.csv'} (1944 rows, normalized=True, "
                            "rounding=1.1e-16)\n")
    err = captured.err.splitlines()
    assert err[0].startswith("kgconfine: warning: n=150: level-150 profile is lost to rounding")
    assert err[1] == "kgconfine: warning: 1 of 2 profiles failed"


def test_wavefunction_writes_every_profile_to_a_device(monkeypatch, capsys):
    # A path that exists but is neither a file nor a directory takes every
    # profile as given, with no per-n name beside it.
    paths = []
    monkeypatch.setattr(cli, "write_table", lambda path, *args: paths.append(path))
    assert cli.main(["wavefunction", "--n", "0,1", "--out", os.devnull]) == 0
    assert paths == [os.devnull] * 2
    assert capsys.readouterr().out.count(f"wrote {os.devnull} ") == 2


def test_wavefunction_overflow_fails_loudly(tmp_path, capsys):
    # The level-0 profile overflows at a3 = 500: no table, a warning, exit 1.
    out = tmp_path / "wf.csv"
    rc = cli.main(["wavefunction", "--a3", "500", "--n", "0", "--out", str(out)])
    assert rc == 1
    assert not (tmp_path / "wf_n0.csv").exists()
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("kgconfine: warning: n=0: ")
    assert err[1] == "kgconfine: warning: 1 of 1 profiles failed"


ENERGY_OVERFLOW = "energy of level 0 is not finite: E^2 = inf (floating-point overflow)"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["density", "spectrum", "wavefunction"])
def test_energy_overflow_fails_loudly(command, fmt, tmp_path, capsys):
    # E_0^2 overflows for these valid parameters: every level command exits
    # 1 with one warning naming the level and writes no table.
    rc = cli.main([command, "--a2", "1e300", "--a3", "1e10", "--n", "0", "--format", fmt,
                   "--out", str(tmp_path / f"t.{fmt}")])
    assert rc == 1
    assert list(tmp_path.iterdir()) == []
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = [f"kgconfine: warning: {ENERGY_OVERFLOW}"]
    if command == "wavefunction":
        expected = [f"kgconfine: warning: n=0: {ENERGY_OVERFLOW}",
                    "kgconfine: warning: 1 of 1 profiles failed"]
    assert captured.err.splitlines() == expected


def test_thermo_em_sweep_columns(tmp_path):
    out = tmp_path / "thermo.csv"
    rc = cli.main([
        "thermo", "--q", "1.0", "--mbar-min", "1", "--mbar-max", "10",
        "--steps", "5", "--scale", "linear", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == list(cli.SWEEP_HEADER)
    assert [float(r["mbar"]) for r in rows] == [1.0, 3.25, 5.5, 7.75, 10.0]
    for row in rows:
        assert row["Z_direct"] == "" and row["rel_diff"] == ""  # em only
        assert float(row["Z_em"]) > 0.5
        assert float(row["C"]) > 0.0


def test_thermo_direct_sweep(tmp_path):
    out = tmp_path / "thermo.csv"
    rc = cli.main([
        "thermo", "--method", "direct", "--q", "1.0",
        "--mbar-min", "1", "--mbar-max", "5", "--steps", "3", "--out", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(out)
    for row in rows:
        assert row["Z_em"] == ""
        assert float(row["Z_direct"]) >= 1.0
        assert 0.0 < float(row["C"]) < 2.0


def test_compare_reports_max_rel_diff(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    rc = cli.main([
        "compare", "--q", "1.0", "--mbar-min", "1", "--mbar-max", "10",
        "--steps", "4", "--out", str(out),
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "max rel_diff" in captured
    header, rows = read_csv(out)
    assert header == list(cli.SWEEP_HEADER) + ["terms_direct"]
    for row in rows:
        assert float(row["rel_diff"]) < 1e-2
        assert int(row["terms_direct"]) > 0


@pytest.mark.parametrize("errors, expected", [
    # Rows 0 and 2 tie for the largest rel_diff; row 1 failed with an
    # overflowed Z_em, so its rel is inf, but a failed row is no candidate.
    ({1: DomainError("Z_em overflow")}, ["max rel_diff 0.5 at mbar=1 q=1"]),
    # Every row failed: no summary line.
    (dict.fromkeys(range(3), DomainError("a")), []),
])
def test_compare_max_rel_diff_line(errors, expected, tmp_path, capsys, monkeypatch):
    def sweep(method, mbar, q, order, tol):
        z = np.full(3, 2.0)
        return thermo.SweepColumns(Z_direct=z, Z_em=np.array([1.0, np.inf, 1.0]), F=z, U=z, C=z,
                                   terms=np.ones(3, dtype=int), failures=errors)

    monkeypatch.setattr(thermo, "sweep", sweep)
    out = tmp_path / "cmp.csv"
    rc = cli.main(["compare", "--q", "1", "--mbar-min", "1", "--mbar-max", "4", "--steps", "3",
                   "--scale", "linear", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().out.splitlines()[1:] == expected


def test_q_sweep_ordering(tmp_path):
    out = tmp_path / "thermo.csv"
    rc = cli.main([
        "thermo", "--q", "0.5,1.0", "--mbar-min", "1", "--mbar-max", "2",
        "--steps", "2", "--out", str(out),
    ])
    assert rc == 0
    _, rows = read_csv(out)
    assert [(r["q"], r["mbar"]) for r in rows] == [
        ("0.5", "1"), ("0.5", "2"), ("1", "1"), ("1", "2"),
    ]


# ----------------------------------------------------------- file formats


def test_csv_cells_use_12_significant_digits(tmp_path):
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--n", "0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    from kgconfine import spectrum as spec_mod
    from kgconfine.params import PhysicalParams

    e = spec_mod.energy(0, PhysicalParams(a1=0.1, a2=0.1, a3=0.1, mass=0.5))
    assert rows[0]["energy_pos"] == format(e, ".12g")


def test_write_table_cell_rule(tmp_path):
    # None is an empty cell (JSON null), a str is text already formatted
    # (JSON: the number it spells), an int stays exact, and a float is
    # rounded to 12 significant digits.
    header = ("key", "int", "none", "one", "sum", "big")
    view = cli._Columns([["1e-05"], [7], [None], [1.0], [0.1 + 0.2], [1e150]], {})
    cli.write_table(str(tmp_path / "t.csv"), header, view, "csv")
    cli.write_table(str(tmp_path / "t.json"), header, view, "json")
    assert (tmp_path / "t.csv").read_bytes() == (
        b"key,int,none,one,sum,big\n1e-05,7,,1,0.3,1e+150\n")
    assert (tmp_path / "t.json").read_bytes() == (
        b'[\n  {\n    "key": 1e-05,\n    "int": 7,\n    "none": null,\n    "one": 1.0,\n'
        b'    "sum": 0.3,\n    "big": 1e+150\n  }\n]\n'
    )


def test_cell_text_literals():
    # The rule's text for each of the four types of cell, spelled out: an
    # int is exact, a float is rounded to 12 digits, a str is kept, and
    # None is empty.  No other type has a rule.
    cases = [
        (7, "7"), (2**100, "1267650600228229401496703205376"),
        (-2**63 - 1, "-9223372036854775809"), (-0.0, "-0"), (math.nan, "nan"),
        (math.inf, "inf"), (-math.inf, "-inf"), (5e-324, "4.94065645841e-324"),
        (0.1 + 0.2, "0.3"), (1e150, "1e+150"), (None, ""), ("1e-05", "1e-05"),
    ]
    assert [cli._cell(value) for value, _ in cases] == [text for _, text in cases]
    assert set(cli._FIELDS) == {float, int, str, type(None)}


def test_text_cells_are_verbatim_on_every_csv_path(tmp_path):
    # The table's format and a blank row's own format both write a str cell
    # as it is.
    out = tmp_path / "t.csv"
    cli.write_table(str(out), ("k", "v"), cli._Columns([["0.5", "2"], [1.5, 2.0]], {}), "csv")
    assert out.read_bytes() == b"k,v\n0.5,1.5\n2,2\n"
    view = cli._Columns([["0.5", "0.5", "2"], [1.5, 0.0, 2.0]], {1: ("0.5", None), 2: ("2", "x")})
    cli.write_table(str(out), ("k", "v"), view, "csv")
    assert out.read_bytes() == b"k,v\n0.5,1.5\n0.5,\n2,x\n"


def _rule_text(header, rows, fmt):
    # A table's text from the cell rule alone: CSV lines are the _cell texts
    # of each row joined by commas, and JSON is the list of _json_cell
    # records.
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(map(cli._cell, row)) for row in rows]
    else:
        lines = [json.dumps([dict(zip(header, map(cli._json_cell, row))) for row in rows],
                            indent=2)]
    return "\n".join(lines) + "\n"


# Cells of each of the four types a table holds: the float edge cases, ints
# past 64 bits, None, and text as the key cells carry it (a float's _cell).
_CELL_KINDS = (
    st.floats(allow_subnormal=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, -1e-300]),
    st.integers(-2**100, 2**100) | st.sampled_from([2**63, -2**63 - 1, 2**64 + 1]),
    st.none(),
    st.floats().map(cli._cell),
)


@st.composite
def _tables(draw):
    # A header and a view over one column per header entry, each column of
    # one cell type, with some rows blank in full, each blank row's cells of
    # any of the four types.
    width, size = draw(st.integers(1, 9)), draw(st.integers(1, 20))
    kinds = draw(st.lists(st.sampled_from(_CELL_KINDS), min_size=width, max_size=width))
    columns = [draw(st.lists(kind, min_size=size, max_size=size)) for kind in kinds]
    blank_row = st.tuples(*[st.one_of(_CELL_KINDS)] * width)
    blank = draw(st.dictionaries(st.integers(0, size - 1), blank_row, max_size=size))
    return tuple(f"h{i}" for i in range(width)), cli._Columns(columns, blank)


@given(table=_tables())
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_csv_rows_agree_with_cell_rule(tmp_path, table):
    header, rows = table
    for fmt in ("csv", "json"):
        out = tmp_path / f"t.{fmt}"
        cli.write_table(str(out), header, rows, fmt)
        assert out.read_text(encoding="utf-8") == _rule_text(header, rows, fmt)


# Views that do not fit the header ("k", "v"): a column short or long of
# the other, a column missing, one too many.
_MALFORMED = {
    "short": ([["1", "2", "3"], [1.0, 2.0]], r"^column 1 has 2 cells; column 0 has 3$"),
    "long": ([["1", "2", "3"], [1.0, 2.0, 3.0, 4.0]], r"^column 1 has 4 cells; column 0 has 3$"),
    "missing": ([["1", "2", "3"]], r"^the view has 1 columns; the header has 2$"),
    "extra": ([["1"], [1.0], [2.0]], r"^the view has 3 columns; the header has 2$"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("ragged", list(_MALFORMED))
def test_write_table_rejects_ragged_rows(tmp_path, fmt, ragged):
    # A view that does not fit its header is refused, and no file is
    # written in either format.
    columns, message = _MALFORMED[ragged]
    out = tmp_path / f"t.{fmt}"
    with pytest.raises(ValueError, match=message):
        cli.write_table(str(out), ("k", "v"), cli._Columns(columns, {}), fmt)
    assert not out.exists()


def test_json_records(tmp_path):
    out = tmp_path / "spec.json"
    rc = cli.main(["spectrum", "--n", "0..2", "--format", "json", "--out", str(out)])
    assert rc == 0
    with open(out, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    assert [r["n"] for r in records] == [0, 1, 2]
    for rec in records:
        assert set(rec) == {"n", "energy_pos", "energy_neg", "residual"}
        assert isinstance(rec["energy_pos"], float)


def test_json_nulls_for_missing_columns(tmp_path):
    out = tmp_path / "thermo.json"
    rc = cli.main([
        "thermo", "--q", "1.0", "--mbar-min", "1", "--mbar-max", "2",
        "--steps", "2", "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    with open(out, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    assert all(rec["Z_direct"] is None for rec in records)


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["spectrum", "--n", "0", "--format", "json"])
    assert rc == 0
    assert (tmp_path / "spectrum.json").exists()


_LAZY_MODULES = ("kgconfine.spectrum", "kgconfine.heun", "json")
_SPECTRUM = ["kgconfine.spectrum", "kgconfine.heun"]

# Run one command in a fresh interpreter; print which of the lazily
# imported modules are loaded after importing cli and after the run.
_IMPORT_PROBE = """
import sys
from kgconfine import cli
before = [m for m in {lazy!r} if m in sys.modules]
rc = cli.main({argv!r})
print(repr((before, rc, [m for m in {lazy!r} if m in sys.modules])))
"""


@pytest.mark.parametrize("argv, loads", [
    (["thermo", "--steps", "3"], []),
    (["compare", "--steps", "3"], []),
    (["thermo", "--steps", "3", "--format", "json"], ["json"]),
    (["spectrum", "--n", "0..2"], _SPECTRUM),
    (["density", "--n", "0..2"], _SPECTRUM),
    (["wavefunction", "--n", "0"], _SPECTRUM),
], ids=["thermo", "compare", "thermo-json", "spectrum", "density", "wavefunction"])
def test_commands_import_only_what_they_run(argv, loads, tmp_path):
    # A CSV sweep starts without spectrum, heun or json; every other
    # command still imports what it needs.
    code = _IMPORT_PROBE.format(lazy=_LAZY_MODULES, argv=argv + ["--out", "t.csv"])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    before, rc, after = ast.literal_eval(done.stdout.splitlines()[-1])
    assert (before, rc, after) == ([], 0, loads)


def test_reruns_are_byte_identical(tmp_path):
    args = ["thermo", "--q", "1.0,1.5", "--mbar-min", "0.5", "--mbar-max", "8",
            "--steps", "6"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# ------------------------------------------------------------- bad inputs


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "2..x"],
    ["spectrum", "--a2", "0"],
    ["spectrum", "--a2", "nan"],
    ["thermo", "--steps", "1"],
    ["thermo", "--mbar-min", "0"],
    ["thermo", "--mbar-min", "5", "--mbar-max", "2"],
    ["thermo", "--em-order", "3"],
    ["thermo", "--tol", "-1e-9"],
    ["compare", "--method", "em"],
    ["wavefunction", "--q", "0"],
    # A config-file value goes through the same checks as the flag; the
    # entry after --config is the file's text.
    ["thermo", "--config", "scale = foo"],
    ["thermo", "--config", "steps = 1"],
    ["thermo", "--config", "tol = nan"],
    ["spectrum", "--config", "n = 2..x"],
    ["compare", "--config", "method = em"],
    ["thermo", "--q", "1e200"],  # its level constants overflow
    ["thermo", "--q", "2e-307"],  # its energy overflows below the level cap
    ["thermo", "--mbar-min", "1e-310", "--mbar-max", "10"],  # 1/mbar-min overflows
    ["spectrum", "--a3", "1e200", "--n", "0..2"],  # sqrt(1 + 4 (Q a3)^2) overflows
    ["density", "--a3", "1e200", "--n", "0..2"],
    ["wavefunction", "--a3", "1e200", "--n", "0"],
    ["spectrum", "--a3", "1", "--hbar-c", "1e-320"],  # Q = 1/hbar_c overflows
    ["spectrum", "--mass", "1e200", "--n", "0..2"],  # (m c^2 + a1)^2 overflows
    ["density", "--a1", "-1e200", "--n", "0..2"],
    ["wavefunction", "--mass", "1e150", "--a2", "1e-10", "--n", "0"],  # A3^2 overflows
    ["thermo", "--tol", "1e-17"],  # below the float64 Z's own rounding
])
def test_usage_errors_exit_2(argv, tmp_path, capsys):
    message = USAGE_MESSAGES.get(tuple(argv), "")
    if "--config" in argv:
        at = argv.index("--config") + 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(argv[at] + "\n", encoding="utf-8")
        argv = argv[:at] + [str(cfg)] + argv[at + 1:]
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


# The check a usage error must reach, where a negative value in exponent form
# could stop it earlier, as an argparse error.
USAGE_MESSAGES = {
    ("thermo", "--tol", "-1e-9"): "at least 2**-53",
    ("thermo", "--tol", "1e-17"): "at least 2**-53",
    ("density", "--a1", "-1e200", "--n", "0..2"): "past the float range",
}


def test_negative_value_in_exponent_form(tmp_path):
    # argparse alone reads "-1e-3" as an option; the value is the number,
    # before the command or after it.
    tables = []
    for argv in (["spectrum", "--a1", "-1e-3"], ["--a1", "-1e-3", "spectrum"],
                 ["spectrum", "--a1=-0.001"]):
        out = tmp_path / f"{len(tables)}.csv"
        assert cli.main([*argv, "--n", "0..3", "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1] == tables[2]


def test_dash_token_that_is_no_number_stays_unjoined():
    # A value that starts with "-" but is no number is left to argparse.
    argv = ["--out", "-x.csv", "--a1", "-1e-3"]
    assert cli._join_negative_values(argv) == ["--out", "-x.csv", "--a1=-1e-3"]


def test_runtime_failure_exits_1(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "spec.csv"
    rc = cli.main(["spectrum", "--n", "0", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "i/o failure on" in err
    assert str(out) in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_failure_names_the_output_path(capsys):
    # Opening /dev/full succeeds and the write fails, with no file name on
    # the error.
    rc = cli.main(["thermo", "--steps", "3", "--out", "/dev/full"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "i/o failure on /dev/full: [Errno 28]" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_shorter_table_replaces_a_longer_file(tmp_path, fmt):
    # The table is rewritten in place: what is left past its end is cut.
    header = ("k", "v")
    out, fresh = tmp_path / f"t.{fmt}", tmp_path / f"fresh.{fmt}"

    def rows(size):
        return cli._Columns([["0.5"] * size, [1.5] * size], {})

    out.write_bytes(b"x" * 10_000)
    cli.write_table(str(out), header, rows(50), fmt)
    cli.write_table(str(out), header, rows(2), fmt)
    cli.write_table(str(fresh), header, rows(2), fmt)
    assert out.read_bytes() == fresh.read_bytes()
    cli.write_table(str(out), header, rows(3), fmt)  # and a longer one over a shorter
    cli.write_table(str(fresh), header, rows(3), fmt)
    assert out.read_bytes() == fresh.read_bytes()


def test_tables_go_to_dev_null_and_pipes(tmp_path):
    # Neither /dev/null nor a pipe can be truncated; writing to them must not try.
    if os.path.exists("/dev/null"):
        assert cli.main(["thermo", "--steps", "3", "--out", "/dev/null"]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "kgconfine", "thermo", "--method", "direct", "--steps", "3",
         "--out", "/dev/stdout"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == ",".join(cli.SWEEP_HEADER)
    assert len(lines) == 1 + 9 + 1  # header, 3 mbar x 3 q, and the "wrote" line
    assert lines[-1] == "wrote /dev/stdout (9 rows)"


def test_sweep_point_failure_exits_1(tmp_path, capsys):
    # Past mbar ~ 1e154 Z overflows at every point: the sweep still writes
    # an (empty-valued) table and reports failure.
    out = tmp_path / "thermo.csv"
    rc = cli.main([
        "thermo", "--method", "direct", "--q", "1.0",
        "--mbar-min", "1e200", "--mbar-max", "1e300", "--steps", "2", "--out", str(out),
    ])
    assert rc == 1
    _, rows = read_csv(out)
    assert len(rows) == 2
    assert all(row[c] == "" for row in rows for c in cli.SWEEP_HEADER[2:])
    err = capsys.readouterr().err
    assert "not finite" in err


# The closed form is non-positive at mbar = 0.01, and Z overflows at 1e300
# on both routes; mbar = 1e149 passes both.
FAILING_SWEEP = ["--q", "1.0", "--mbar-min", "0.01", "--mbar-max", "1e300", "--steps", "3"]
OVERFLOW = ("kgconfine: warning: mbar=1e+300 q=1.0: thermal functions are not finite at "
            "mbar=1e+300, q=1.0 (floating-point overflow)")


def test_sweep_failures_stay_on_their_rows(tmp_path, capsys):
    # The direct sums at mbar = 0.01 and 1e149 are finite, while Z overflows
    # at 1e300: only its row is blank.
    out = tmp_path / "thermo.csv"
    rc = cli.main(["thermo", "--method", "direct"] + FAILING_SWEEP + ["--out", str(out)])
    assert rc == 1
    _, rows = read_csv(out)
    assert float(rows[0]["Z_direct"]) == 1.0
    assert all(row[c] != "" for row in rows[:2] for c in ("F", "U", "C"))
    assert all(rows[2][c] == "" for c in cli.SWEEP_HEADER[2:])
    err = capsys.readouterr().err.splitlines()
    assert err == [OVERFLOW, "kgconfine: warning: 1 of 3 sweep points failed"]


def test_compare_reports_the_direct_error_first(tmp_path, capsys, monkeypatch):
    # Row 0 passes the direct sum but fails the closed form's validity
    # check; at row 2 both routes overflow, and the failure a compare sweep
    # keeps there is the direct sum's own error.
    out = tmp_path / "cmp.csv"
    rc = cli.main(["compare"] + FAILING_SWEEP + ["--out", str(out)])
    assert rc == 1
    _, rows = read_csv(out)
    assert [all(row[c] == "" for c in cli.SWEEP_HEADER[2:]) for row in rows] == [
        True, False, True]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert err[0].startswith("kgconfine: warning: mbar=0.01 q=1.0: EM truncation is non-positive")
    assert err[1:] == [OVERFLOW, "kgconfine: warning: 2 of 3 sweep points failed"]
    routes = {}
    for name in ("_direct_columns", "_em_columns"):
        def spy(*args, run=getattr(thermo, name), name=name, **kwargs):
            routes[name] = run(*args, **kwargs)
            return routes[name]
        monkeypatch.setattr(thermo, name, spy)
    failures = thermo.sweep("both", [0.01, 1e149, 1e300], 1.0).failures
    direct, em = (routes[name].failures for name in ("_direct_columns", "_em_columns"))
    assert list(direct) == [2] and sorted(em) == [0, 2]
    assert failures[2] is direct[2] and failures[0] is em[0]


def test_non_finite_sweep_points_fail(tmp_path, capsys):
    # Above mbar ~ 1e154 the direct sum's Z overflows: those rows are blank
    # and named in warnings, while the finite row at mbar = 1e150 is kept
    # (U = 2 mbar and C = 2 to every printed digit there).
    out = tmp_path / "thermo.csv"
    rc = cli.main(["thermo", "--method", "direct", "--q", "1", "--mbar-min", "1e150",
                   "--mbar-max", "1e300", "--steps", "4", "--out", str(out)])
    assert rc == 1
    _, rows = read_csv(out)
    assert [rows[0][c] for c in cli.SWEEP_HEADER] == [
        "1e+150", "1", "1e+300", "", "-6.90775527898e+152", "2e+150", "2", ""]
    assert all(row[c] == "" for row in rows[1:] for c in cli.SWEEP_HEADER[2:])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4
    for line, mbar in zip(err, ("1e+200", "1e+250", "1e+300")):
        assert line == (f"kgconfine: warning: mbar={mbar} q=1.0: thermal functions are "
                        f"not finite at mbar={mbar}, q=1.0 (floating-point overflow)")
    assert err[3] == "kgconfine: warning: 3 of 4 sweep points failed"


# (argv, exit status): sweeps of every method with no failed point and
# with failed points (the closed form fails at 4 of the 5 mbar of each q
# block of the low grid; the direct sum at 1 of 3 points of FAILING_SWEEP),
# one profile table and both level tables.
LOW_GRID = ["--q", "0.5,1", "--mbar-min", "1e-3", "--mbar-max", "0.1", "--steps", "5"]
OK_GRID = ["--q", "0.5,1.5", "--mbar-min", "0.1", "--mbar-max", "10", "--steps", "7"]
_VIEW_RUNS = [
    pytest.param(["thermo", "--method", "direct"] + OK_GRID, 0, id="direct"),
    pytest.param(["thermo", "--method", "em"] + OK_GRID, 0, id="em"),
    pytest.param(["thermo", "--method", "both"] + OK_GRID, 0, id="both"),
    pytest.param(["compare"] + OK_GRID, 0, id="compare"),
    pytest.param(["thermo", "--method", "direct"] + FAILING_SWEEP, 1, id="direct-failing"),
    pytest.param(["thermo", "--method", "em"] + LOW_GRID, 1, id="em-failing"),
    pytest.param(["thermo", "--method", "both"] + LOW_GRID, 1, id="both-failing"),
    pytest.param(["compare"] + LOW_GRID, 1, id="compare-failing"),
    pytest.param(["wavefunction", "--n", "0,3"], 0, id="wavefunction"),
    pytest.param(["spectrum", "--n", "0..5,9"], 0, id="spectrum"),
    pytest.param(["density", "--n", "0..5,9"], 0, id="density"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, status", _VIEW_RUNS)
def test_column_view_writes_the_bytes_of_its_row_tuples(argv, status, fmt, tmp_path,
                                                         monkeypatch, capsys):
    # A command's table, written from its column view, equals the text the
    # cell rule gives its row tuples, byte for byte.
    calls = []
    write_table = cli.write_table

    def spy(path, header, rows, fmt):
        write_table(path, header, rows, fmt)
        calls.append((path, header, rows))

    monkeypatch.setattr(cli, "write_table", spy)
    assert cli.main(argv + ["--format", fmt, "--out", str(tmp_path / f"t.{fmt}")]) == status
    assert calls
    for path, header, rows in calls:
        assert isinstance(rows, cli._Columns)
        tuples = list(rows)
        assert len(tuples) == len(rows)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            assert fh.read() == _rule_text(header, tuples, fmt)
    assert status == 0 or any(rows.blank for _, _, rows in calls)


@pytest.mark.parametrize("command", ["thermo", "compare"])
def test_sweep_failures_in_several_q_blocks(command, tmp_path, capsys):
    # Above mbar ~ 1e154 the sums overflow at both q, so failed points fall
    # in each q block: rows stay in (q, mbar) order, the failed ones are
    # blank, and their warnings come q-major.
    q_list, grid = (0.5, 1.0), np.geomspace(1e30, 1e160, 27).tolist()
    out = tmp_path / "t.csv"
    method = "direct" if command == "thermo" else "both"
    rc = cli.main([command, "--method", method, "--q", "0.5,1", "--mbar-min", "1e30",
                   "--mbar-max", "1e160", "--steps", "27", "--out", str(out)])
    assert rc == 1
    header, rows = read_csv(out)
    points = [(q, mbar) for q in q_list for mbar in grid]
    assert [(r["q"], r["mbar"]) for r in rows] == [(cli._cell(q), cli._cell(m)) for q, m in points]
    failures = thermo.sweep(method, np.array(grid), q_list, 2, 1e-10).failures
    failed = [i in failures for i in range(len(points))]
    assert any(failed[:len(grid)]) and any(failed[len(grid):])
    assert [all(r[c] == "" for c in header[2:]) for r in rows] == failed
    expected = [f"kgconfine: warning: mbar={m!r} q={q!r}: {failures[i]}"
                for i, (q, m) in enumerate(points) if i in failures]
    expected.append(f"kgconfine: warning: {sum(failed)} of {len(rows)} sweep points failed")
    assert capsys.readouterr().err.splitlines() == expected


def test_mixed_failures_warn_in_row_order(tmp_path, capsys):
    # The closed form fails at mbar = 0.01 in each q block, and Z overflows
    # at mbar = 1e300 on both routes, where the direct sum's error is kept:
    # the closed form finds its failures in the order (0.01, 1e300) of its
    # two checks, not in row order, and the warnings still come in row order.
    rc = cli.main(["compare", "--q", "1,1.5", "--mbar-min", "0.01", "--mbar-max", "1e300",
                   "--steps", "3", "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    em = "EM truncation is non-positive at mbar={m!r}, q={q!r}; outside its validity range"
    direct = "thermal functions are not finite at mbar={m!r}, q={q!r} (floating-point overflow)"
    points = [(q, m) for q in (1.0, 1.5) for m in (0.01, 1e300)]
    expected = [f"kgconfine: warning: mbar={m!r} q={q!r}: "
                + (em if m == 0.01 else direct).format(m=m, q=q) for q, m in points]
    expected.append("kgconfine: warning: 4 of 6 sweep points failed")
    assert capsys.readouterr().err.splitlines() == expected
