"""scripts/bench_record.py on canned result lines from a fake runner."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_SPEC = importlib.util.spec_from_file_location("bench_record", _SCRIPTS / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

DECLARATION = {
    "command": ["false"],
    "workloads": [{"name": "a", "why": "canned"}, {"name": "b", "why": "canned"}],
    "end_to_end": [{"name": "items_per_s", "better": "higher"}],
}
ENV = {"workload": "a", "seed": 3, "nproc": 2}


def _result(trace, correct=True):
    metrics = ({"heun.calls": {"value": 7.0, "unit": "count"}} if trace
               else {"items_per_s": {"value": 100.0, "unit": "1/s"}})
    return {"correct": correct, "attempted": 180, "failed": 2, "metrics": metrics}


@pytest.fixture
def root(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARATION))
    return tmp_path


def _fake(calls, odd=None):
    # ``odd`` maps (workload, trace) to an int exit code or to keyword
    # arguments that spoil that run's result line.
    def run(root, workload, seed, seconds, trace):
        calls.append((root, workload, seed, seconds, trace))
        spoil = (odd or {}).get((workload, trace), {})
        if isinstance(spoil, int):
            return spoil, "", "boom"
        line = json.dumps(_result(trace, **spoil))
        return 0, f"perfbench env {json.dumps(ENV)}\nperfbench text\n{line}\n", ""

    return run


def _main(root, calls, odd=None, extra=()):
    argv = [str(root / "BENCH_9.json"), "--root", str(root), "--seed", "3",
            "--seconds", "4", *extra]
    return bench_record.main(argv, runner=_fake(calls, odd))


def test_records_every_workload_untraced_and_traced(root, capsys):
    calls = []
    assert _main(root, calls) == 0
    assert calls == [(root, w, 3, 4.0, t) for w in ("a", "b") for t in (0, 1)]
    record = json.loads((root / "BENCH_9.json").read_text())
    assert record == {"seed": 3, "seconds": 4.0, "workloads": {
        w: {"untraced": {**_result(0), "env": ENV}, "traced": {**_result(1), "env": ENV}}
        for w in ("a", "b")
    }}
    assert capsys.readouterr().out.splitlines() == [
        f"{w} {mode}: failed 2 of 180" for w in ("a", "b") for mode in ("untraced", "traced")
    ]


def test_workload_option_picks_the_runs(root):
    calls = []
    assert _main(root, calls, extra=("--workload", "b")) == 0
    assert [(w, t) for _, w, _, _, t in calls] == [("b", 0), ("b", 1)]
    assert list(json.loads((root / "BENCH_9.json").read_text())["workloads"]) == ["b"]


def test_an_incorrect_run_is_recorded_and_exits_1(root, capsys):
    calls = []
    assert _main(root, calls, {("b", 1): {"correct": False}}) == 1
    record = json.loads((root / "BENCH_9.json").read_text())
    assert record["workloads"]["b"]["traced"]["correct"] is False
    assert capsys.readouterr().err == "b traced run is not correct\n"


def test_a_run_that_exits_non_zero_writes_nothing(root, capsys):
    calls = []
    assert _main(root, calls, {("a", 1): 2}) == 1
    assert len(calls) == 2
    assert not (root / "BENCH_9.json").exists()
    assert "a traced run exited 2" in capsys.readouterr().err


def test_the_runner_passes_the_trace_flag(tmp_path):
    # run_benchmark's argv, seen through a command that prints its arguments.
    (tmp_path / "echo.py").write_text("import sys, json; print(json.dumps(sys.argv[1:]))")
    run = bench_record.run_benchmark([sys.executable, "echo.py"])
    for trace in (0, 1):
        code, out, _ = run(tmp_path, "w", 5, 2.5, trace)
        assert code == 0
        assert json.loads(out) == ["--workload", "w", "--seed", "5", "--seconds", "2.5",
                                   "--trace", str(trace)]
    assert json.loads(run(tmp_path, "w", 5, 2.5)[1])[-2:] == ["--trace", "0"]
