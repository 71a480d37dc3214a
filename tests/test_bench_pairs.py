"""scripts/bench_pairs.py on canned result lines from a fake runner."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# Five pairs of one workload; items_per_s is better higher, setup_s lower.
ITEMS = {"parent": [100.0, 110.0, 120.0, 130.0, 140.0],
         "change": [105.0, 108.0, 125.0, 150.0, 160.0]}
SETUP = {"parent": [1.0, 1.1, 1.2, 1.3, 1.4],
         "change": [0.9, 1.2, 1.1, 1.0, 1.5]}
DECLARATION = {
    "command": ["false"],
    "workloads": [{"name": "w", "why": "canned"}],
    "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25},
                   {"name": "items_per_s", "better": "higher", "bound": 0.25}],
}
ENV = {"workload": "w", "seed": 7, "nproc": 2}
LAYERS = {"heun.calls": {"value": 7.0, "unit": "count"}}


def _result(items, setup, correct=True, attempted=180, failed=0):
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {"setup_s": {"value": setup, "unit": "s"},
                    "items_per_s": {"value": items, "unit": "1/s"}},
    }


def _traced(correct=True):
    return {"correct": correct, "attempted": 180, "failed": 0, "metrics": LAYERS}


@pytest.fixture
def trees(tmp_path):
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(DECLARATION))
    return tmp_path / "parent", tmp_path / "change"


def _fake(calls, odd=None, traced=None):
    # The k-th untraced run of a tree in a workload returns its k-th canned
    # values and is logged in ``calls``; a traced run returns per-layer
    # figures and is logged in ``traced``.  ``odd`` maps (tree, k), or
    # (tree, "traced"), to keyword arguments that spoil that run's result
    # line, or to an int exit code.
    traced = [] if traced is None else traced

    def run(root, workload, seed, seconds, trace):
        tree = root.name
        k = "traced" if trace else sum(1 for t, a in calls if t == tree and a[0] == workload)
        (traced if trace else calls).append((tree, (workload, seed, seconds)))
        spoil = (odd or {}).get((tree, k), {})
        if isinstance(spoil, int):
            return spoil, "", "boom"
        result = _traced(**spoil) if trace else _result(ITEMS[tree][k], SETUP[tree][k], **spoil)
        return 0, f"perfbench env {json.dumps(ENV)}\nperfbench text\n{json.dumps(result)}\n", ""

    return run


def _main(trees, calls, odd=None, traced=None, extra=()):
    argv = [str(trees[0]), str(trees[1]), "--pairs", "5", "--seed", "7", "--seconds", "3",
            *extra]
    return bench_pairs.main(argv, runner=_fake(calls, odd, traced))


def test_quartiles_interpolate_linearly():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_compare_counts_wins_in_the_better_direction():
    items = bench_pairs.compare(ITEMS["parent"], ITEMS["change"], "higher", 0.25)
    assert items["parent"] == (120.0, 110.0, 130.0)
    assert items["change"] == (125.0, 108.0, 150.0)
    assert items["rel"] == pytest.approx(5.0 / 120.0)
    assert (items["wins"], items["pairs"], items["beyond_iqr"]) == (4, 5, False)
    setup = bench_pairs.compare(SETUP["parent"], SETUP["change"], "lower", 0.25)
    assert setup["parent"] == pytest.approx((1.2, 1.1, 1.3))
    assert setup["change"] == pytest.approx((1.1, 1.0, 1.2))
    assert (setup["wins"], setup["beyond_iqr"]) == (3, False)
    # The same samples the other way round: every pair lost is now won, ties neither.
    assert bench_pairs.compare(SETUP["parent"], SETUP["change"], "higher", 0.25)["wins"] == 2
    assert bench_pairs.compare([1.0, 2.0], [1.0, 2.0], "lower", 0.25)["wins"] == 0
    assert bench_pairs.compare([10.0, 11.0, 12.0], [20.0, 21.0, 22.0], "lower",
                               0.25)["beyond_iqr"]


def _verdict(parent, change, better):
    return bench_pairs.compare(parent, change, better, 0.25)["verdict"]


def test_a_median_worse_by_more_than_the_bound_is_past_it():
    assert _verdict([100.0, 100.0, 101.0], [74.0, 74.0, 75.0], "higher") == "past the bound"
    assert _verdict([1.0, 1.0, 1.01], [1.26, 1.26, 1.3], "lower") == "past the bound"
    # However wide the parent's spread: the median is past the bound.
    assert _verdict([60.0, 100.0, 140.0], [10.0, 20.0, 30.0], "higher") == "past the bound"


def test_a_median_worse_by_less_than_the_bound_is_within():
    assert _verdict([100.0, 100.0, 101.0], [76.0, 76.0, 77.0], "higher") == "within"
    assert _verdict([1.0, 1.0, 1.01], [1.24, 1.24, 1.3], "lower") == "within"
    assert _verdict(ITEMS["parent"], ITEMS["change"], "higher") == "within"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # IQR 80..120 over a median of 100: 0.4 > 0.25.
    parent = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert _verdict(parent, [90.0, 95.0, 100.0, 105.0, 110.0], "higher") == "unresolved"
    assert _verdict(parent, [95.0, 100.0, 110.0, 115.0, 120.0], "lower") == "unresolved"
    # ... unless every change run beats every parent run.
    assert _verdict(parent, [141.0, 150.0, 160.0, 170.0, 180.0], "higher") == "within"
    assert _verdict(parent, [10.0, 20.0, 30.0, 40.0, 59.0], "lower") == "within"


def test_pairs_alternate_and_report_every_metric(trees, capsys):
    calls = []
    assert _main(trees, calls) == 0
    order = [tree for tree, _ in calls]
    assert order == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    assert {args for _, args in calls} == {("w", 7, 3.0)}
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "w: 5 pairs, failed 0 of 180 (parent), 0 of 180 (change)"
    assert lines[1:3] == [
        bench_pairs.format_line(
            "w", "setup_s", bench_pairs.compare(SETUP["parent"], SETUP["change"], "lower", 0.25)),
        bench_pairs.format_line(
            "w", "items_per_s",
            bench_pairs.compare(ITEMS["parent"], ITEMS["change"], "higher", 0.25)),
    ]
    assert lines[2] == ("w items_per_s: parent 120 [110, 130] -> change 125 [108, 150], "
                        "+4.2%, change better in 4/5, gap within the parent's IQR; "
                        "bound 25%: within")


def test_the_last_line_records_every_run_with_its_env(trees, capsys):
    calls, traced = [], []
    assert _main(trees, calls, traced=traced) == 0
    # One traced run per tree, after the workload's pairs.
    assert traced == [("parent", ("w", 7, 3.0)), ("change", ("w", 7, 3.0))]
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    runs = {tree: {"untraced": [{**_result(i, s), "env": ENV}
                                for i, s in zip(ITEMS[tree], SETUP[tree])],
                   "traced": {**_traced(), "env": ENV}}
            for tree in ("parent", "change")}
    summary = {"setup_s": bench_pairs.compare(SETUP["parent"], SETUP["change"], "lower", 0.25),
               "items_per_s": bench_pairs.compare(ITEMS["parent"], ITEMS["change"], "higher",
                                                  0.25)}
    # JSON turns the summary's tuples into lists.
    assert record == {"seed": 7, "seconds": 3.0, "pairs": 5, "workloads": {
        "w": {**runs, "summary": json.loads(json.dumps(summary))}}}
    assert record["workloads"]["w"]["summary"]["items_per_s"]["verdict"] == "within"


def test_workload_option_picks_the_runs(trees, capsys):
    (trees[1] / "BENCHMARK.json").write_text(json.dumps(
        {**DECLARATION, "workloads": [{"name": "w"}, {"name": "v"}]}))
    calls, traced = [], []
    assert _main(trees, calls, traced=traced) == 0
    assert [args[0] for _, args in calls] == ["w"] * 10 + ["v"] * 10
    assert [args[0] for _, args in traced] == ["w", "w", "v", "v"]
    assert list(json.loads(capsys.readouterr().out.splitlines()[-1])["workloads"]) == ["w", "v"]
    calls, traced = [], []
    assert _main(trees, calls, traced=traced, extra=("--workload", "v")) == 0
    assert {args[0] for _, args in calls + traced} == {"v"}
    assert list(json.loads(capsys.readouterr().out.splitlines()[-1])["workloads"]) == ["v"]


@pytest.mark.parametrize("odd", [
    pytest.param({("change", 2): {"correct": False}}, id="not-correct"),
    pytest.param({("change", 0): {"failed": 3}}, id="failed-differs"),
    pytest.param({("parent", 4): {"attempted": 179}}, id="attempted-differs"),
])
def test_inconsistent_runs_exit_1_after_the_report(trees, capsys, odd):
    calls = []
    assert _main(trees, calls, odd) == 1
    assert len(calls) == 10
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 4
    assert captured.err


def test_an_incorrect_traced_run_exits_1_after_the_record(trees, capsys):
    calls = []
    assert _main(trees, calls, {("change", "traced"): {"correct": False}}) == 1
    captured = capsys.readouterr()
    record = json.loads(captured.out.splitlines()[-1])
    assert record["workloads"]["w"]["change"]["traced"]["correct"] is False
    assert captured.err == "w traced: change run is not correct\n"


SUMMARY_0_3 = "w: 5 pairs, failed 0 of 180 (parent), 3 of 180 (change)"


def test_a_stable_difference_between_trees_exits_0(trees, capsys):
    # A change that alters its failed count on purpose is consistent: each
    # tree is checked against its own first run, and both counts are shown.
    calls = []
    assert _main(trees, calls, {("change", k): {"failed": 3} for k in range(5)}) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == SUMMARY_0_3
    assert captured.err == ""


def test_counts_that_vary_within_one_tree_exit_1(trees, capsys):
    calls = []
    odd = {("change", k): {"failed": 3 if k < 4 else 4} for k in range(5)}
    assert _main(trees, calls, odd) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == SUMMARY_0_3
    assert captured.err == "w pair 5: change run failed 4 of 180, its first run 3 of 180\n"


def test_a_run_that_exits_non_zero_stops_the_pairs(trees, capsys):
    calls = []
    assert _main(trees, calls, {("parent", 1): 2}) == 1
    assert [tree for tree, _ in calls] == ["parent", "change", "change", "parent"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "w pair 2: parent run exited 2" in captured.err and "boom" in captured.err


def test_a_traced_run_that_exits_non_zero_prints_no_record(trees, capsys):
    calls, traced = [], []
    assert _main(trees, calls, {("change", "traced"): 2}, traced) == 1
    assert len(calls) == 10 and [tree for tree, _ in traced] == ["parent", "change"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "w traced: change run exited 2" in captured.err and "boom" in captured.err


def test_the_runner_passes_the_trace_flag(tmp_path):
    # run_benchmark's argv, seen through a command that prints its arguments.
    (tmp_path / "echo.py").write_text("import sys, json; print(json.dumps(sys.argv[1:]))")
    run = bench_pairs.run_benchmark([sys.executable, "echo.py"])
    for trace in (0, 1):
        code, out, _ = run(tmp_path, "w", 5, 2.5, trace)
        assert code == 0
        assert json.loads(out) == ["--workload", "w", "--seed", "5", "--seconds", "2.5",
                                   "--trace", str(trace)]
