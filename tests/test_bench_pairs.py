"""scripts/bench_pairs.py on canned result lines from a fake runner."""

import importlib.util
import json
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
    "end_to_end": [{"name": "setup_s", "better": "lower"},
                   {"name": "items_per_s", "better": "higher"}],
}


def _result(items, setup, correct=True, attempted=180, failed=0):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {"setup_s": {"value": setup, "unit": "s"},
                    "items_per_s": {"value": items, "unit": "1/s"}},
    })


@pytest.fixture
def trees(tmp_path):
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(DECLARATION))
    return tmp_path / "parent", tmp_path / "change"


def _fake(calls, odd=None):
    # The k-th run of a tree returns its k-th canned values; ``odd`` maps
    # (tree, k) to keyword arguments that spoil that run's result line, or
    # to an int exit code.
    def run(root, workload, seed, seconds):
        tree = root.name
        k = sum(1 for t, _ in calls if t == tree)
        calls.append((tree, (workload, seed, seconds)))
        spoil = (odd or {}).get((tree, k), {})
        if isinstance(spoil, int):
            return spoil, "", "boom"
        line = _result(ITEMS[tree][k], SETUP[tree][k], **spoil)
        return 0, f"perfbench some text\n{line}\n", ""

    return run


def _main(trees, calls, odd=None):
    argv = [str(trees[0]), str(trees[1]), "--pairs", "5", "--seed", "7", "--seconds", "3"]
    return bench_pairs.main(argv, runner=_fake(calls, odd))


def test_quartiles_interpolate_linearly():
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_compare_counts_wins_in_the_better_direction():
    items = bench_pairs.compare(ITEMS["parent"], ITEMS["change"], "higher")
    assert items["parent"] == (120.0, 110.0, 130.0)
    assert items["change"] == (125.0, 108.0, 150.0)
    assert items["rel"] == pytest.approx(5.0 / 120.0)
    assert (items["wins"], items["pairs"], items["beyond_iqr"]) == (4, 5, False)
    setup = bench_pairs.compare(SETUP["parent"], SETUP["change"], "lower")
    assert setup["parent"] == pytest.approx((1.2, 1.1, 1.3))
    assert setup["change"] == pytest.approx((1.1, 1.0, 1.2))
    assert (setup["wins"], setup["beyond_iqr"]) == (3, False)
    # The same samples the other way round: every pair lost is now won, ties neither.
    assert bench_pairs.compare(SETUP["parent"], SETUP["change"], "higher")["wins"] == 2
    assert bench_pairs.compare([1.0, 2.0], [1.0, 2.0], "lower")["wins"] == 0
    assert bench_pairs.compare([10.0, 11.0, 12.0], [20.0, 21.0, 22.0], "lower")["beyond_iqr"]


def test_pairs_alternate_and_report_every_metric(trees, capsys):
    calls = []
    assert _main(trees, calls) == 0
    order = [tree for tree, _ in calls]
    assert order == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    assert {args for _, args in calls} == {("w", 7, 3.0)}
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "w: 5 pairs, failed 0 of 180 (parent), 0 of 180 (change)"
    assert lines[1:] == [
        bench_pairs.format_line(
            "w", "setup_s", bench_pairs.compare(SETUP["parent"], SETUP["change"], "lower")),
        bench_pairs.format_line(
            "w", "items_per_s", bench_pairs.compare(ITEMS["parent"], ITEMS["change"], "higher")),
    ]
    assert lines[2] == ("w items_per_s: parent 120 [110, 130] -> change 125 [108, 150], "
                        "+4.2%, change better in 4/5, gap within the parent's IQR")


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
    assert len(captured.out.splitlines()) == 3
    assert captured.err


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
