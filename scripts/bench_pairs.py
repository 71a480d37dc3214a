#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT \\
        [--workload W ...] [--pairs 10] [--seed 1] [--seconds 20]

Each run is the ``command`` of CHANGE_ROOT/BENCHMARK.json (``python3
perfbench/run.py``) plus ``--workload W --seed S --seconds T --trace 0``,
started with the checkout as its working directory.  Every pair runs both trees once,
the parent first in odd pairs and the change first in even ones, so a slow
stretch of the host falls on both alike.  The last line of a run's stdout is
its result JSON.  The workloads default to every one that BENCHMARK.json
declares, and the metrics, with the direction that is better, are its
``end_to_end`` entries.

For each workload a first line gives each tree's ``failed`` and
``attempted`` counts in its first run, and then one line per metric gives
the parent's and the change's median [lower quartile, upper quartile]
(quartiles by linear interpolation, as numpy's default percentile), the
relative change of the median, the pairs in which the change was better, and
whether the gap between the medians exceeds the parent's interquartile
range.  This only reports: it applies no bound, and the two trees may fail
different counts, as a change that mends or adds failures does.  The exit
status is 1 when a run exits non-zero (the remaining runs are skipped),
reports ``correct: false``, or reports an ``attempted`` or ``failed`` count
that differs from its own tree's first run of the workload; else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

# (checkout root, workload, seed, seconds[, trace]) -> (exit code, stdout, stderr)
Runner = Callable[..., tuple[int, str, str]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile) by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Summary of one metric over paired runs; ``better`` is "lower" or "higher"."""
    p_lo, p_med, p_hi = quartiles(parent)
    c_lo, c_med, c_hi = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    return {
        "parent": (p_med, p_lo, p_hi),
        "change": (c_med, c_lo, c_hi),
        "rel": (c_med - p_med) / p_med if p_med else float("nan"),
        "wins": sum(sign * (c - p) > 0.0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "beyond_iqr": abs(c_med - p_med) > p_hi - p_lo,
    }


def _spread(med: float, lo: float, hi: float) -> str:
    return f"{med:.6g} [{lo:.6g}, {hi:.6g}]"


def format_line(workload: str, name: str, s: dict) -> str:
    gap = "beyond" if s["beyond_iqr"] else "within"
    return (f"{workload} {name}: parent {_spread(*s['parent'])} -> change "
            f"{_spread(*s['change'])}, {s['rel']:+.1%}, change better in "
            f"{s['wins']}/{s['pairs']}, gap {gap} the parent's IQR")


def run_benchmark(command: list[str]) -> Runner:
    def run(root: Path, workload: str, seed: int, seconds: float,
            trace: int = 0) -> tuple[int, str, str]:
        argv = command + ["--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    return run


def main(argv: list[str] | None = None, runner: Runner | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_ROOT")
    parser.add_argument("change", type=Path, metavar="CHANGE_ROOT")
    parser.add_argument("--workload", action="append", dest="workloads", metavar="W")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    runner = runner or run_benchmark(bench["command"])
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    trees = {"parent": args.parent, "change": args.change}

    status = 0
    for workload in workloads:
        values = {tree: {m["name"]: [] for m in bench["end_to_end"]} for tree in trees}
        counts = {}  # tree -> (attempted, failed) of its first run
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for tree in order:
                code, out, err = runner(trees[tree], workload, args.seed, args.seconds)
                if code != 0:
                    print(f"{workload} pair {pair + 1}: {tree} run exited {code}\n{err}",
                          file=sys.stderr)
                    return 1
                result = json.loads(out.strip().splitlines()[-1])
                run_counts = (result["attempted"], result["failed"])
                first = counts.setdefault(tree, run_counts)
                if not result["correct"]:
                    print(f"{workload} pair {pair + 1}: {tree} run is not correct",
                          file=sys.stderr)
                    status = 1
                if run_counts != first:
                    print(f"{workload} pair {pair + 1}: {tree} run failed {run_counts[1]} of "
                          f"{run_counts[0]}, its first run {first[1]} of {first[0]}",
                          file=sys.stderr)
                    status = 1
                for name, series in values[tree].items():
                    series.append(result["metrics"][name]["value"])
        failed = ", ".join(f"{counts[t][1]} of {counts[t][0]} ({t})" for t in trees)
        print(f"{workload}: {args.pairs} pairs, failed {failed}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            summary = compare(values["parent"][name], values["change"][name], metric["better"])
            print(format_line(workload, name, summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
