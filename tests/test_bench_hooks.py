"""The benchmark's tracer wraps package functions by name; each must exist."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _CheckingTracer:
    def __init__(self):
        self.hooks = []

    def install(self, module, hooks):
        for attr, _name, _attrs in hooks:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
            self.hooks.append(attr)


def test_every_traced_hook_names_a_callable(monkeypatch):
    # A pruned name would make `perfbench/run.py --trace 1` raise in install.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    tracer = _CheckingTracer()
    layers.install(tracer)
    assert tracer.hooks


def test_write_table_rows_argument_counts_the_lines_written(tmp_path, monkeypatch):
    # layers._table reports len() of write_table's third positional argument
    # as cli.write_table.rows; it must equal the data lines of the table.
    from kgconfine import cli

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    calls = []
    write_table = cli.write_table

    def spy(*args, **kwargs):
        out = write_table(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(cli, "write_table", spy)
    path = tmp_path / "c.csv"
    assert cli.main(["compare", "--q", "0.5,1", "--mbar-min", "0.1", "--mbar-max", "2",
                     "--steps", "7", "--out", str(path)]) == 0
    [(args, kwargs, out)] = calls
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(args[2]) == len(lines) - 1 == 14
    assert layers._table(args, kwargs, out)["rows"] == 14


@pytest.mark.parametrize("argv, lines", [
    pytest.param(["thermo", "--method", "direct", "--q", "0.5,1,1.5", "--mbar-min", "1",
                  "--mbar-max", "300", "--steps", "5"], 15, id="thermo"),
    # The closed form fails at 4 of the 5 mbar of each q block: 8 blank rows.
    pytest.param(["compare", "--q", "0.5,1", "--mbar-min", "1e-3", "--mbar-max", "0.1",
                  "--steps", "5"], 10, id="failed-points"),
])
def test_write_table_rows_argument_counts_the_lines_of_every_sweep(argv, lines, tmp_path,
                                                                   monkeypatch):
    from kgconfine import cli

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    calls = []
    write_table = cli.write_table

    def spy(*args, **kwargs):
        out = write_table(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(cli, "write_table", spy)
    path = tmp_path / "t.csv"
    cli.main(argv + ["--out", str(path)])
    [(args, kwargs, out)] = calls
    assert len(path.read_text(encoding="utf-8").splitlines()) - 1 == lines
    assert len(args[2]) == lines
    assert layers._table(args, kwargs, out)["rows"] == lines
