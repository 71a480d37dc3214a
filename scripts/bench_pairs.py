#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs, compare and record them.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT \\
        [--workload W ...] [--pairs 10] [--seed 1] [--seconds 20]

Each run is the ``command`` of CHANGE_ROOT/BENCHMARK.json (``python3
perfbench/run.py``) plus ``--workload W --seed S --seconds T --trace 0``,
started with the checkout as its working directory.  Every pair runs both trees once,
the parent first in odd pairs and the change first in even ones, so a slow
stretch of the host falls on both alike; then each tree runs once with
``--trace 1`` for the per-layer figures.  The last line of a run's stdout is
its result JSON.  The workloads default to every one that BENCHMARK.json
declares, and the metrics are its ``end_to_end`` entries.

For each workload a first line gives each tree's ``failed`` and
``attempted`` counts in its first run (the trees may differ, as with a
change that mends failures), and then one line per metric gives the
parent's and the change's median [lower quartile, upper quartile]
(quartiles by linear interpolation, as numpy's default percentile), the
relative change of the median, the pairs in which the change was better,
whether the gap between the medians exceeds the parent's interquartile
range, and a verdict at the metric's ``bound``: *past the bound* when the
change's median is worse than the parent's by more than the bound; else
*unresolved* when the parent's IQR is wider than the bound times its
median, unless every change run beats every parent run; else *within*.

The last stdout line is a compact JSON record: ``seed``, ``seconds``,
``pairs`` and, per workload, each tree's ``untraced`` results in run order
and its ``traced`` one, each with the run's ``perfbench env`` line under
``env``, and the ``summary`` of every metric.  A ``BENCH_<pr>.json`` is
that line through ``python3 -m json.tool --indent 1``; ``bench_pairs.py . .``
records one tree.  The exit status is 1, with no record, when a run exits
non-zero (the remaining runs are skipped); 1, after the record, when a run
reports ``correct: false`` or an untraced run other ``attempted`` or
``failed`` counts than its tree's first run of the workload; else 0.  The
verdict does not set it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

# (checkout root, workload, seed, seconds, trace) -> (exit code, stdout, stderr)
Runner = Callable[[Path, str, int, float, int], tuple[int, str, str]]

ENV_PREFIX = "perfbench env "


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile) by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summary of one metric over paired runs; ``better`` is "lower" or "higher"."""
    p_lo, p_med, p_hi = quartiles(parent)
    c_lo, c_med, c_hi = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    if sign * (c_med - p_med) < -bound * abs(p_med):
        verdict = "past the bound"
    elif (p_hi - p_lo > bound * abs(p_med)
          and not min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "within"
    return {
        "parent": (p_med, p_lo, p_hi),
        "change": (c_med, c_lo, c_hi),
        "rel": (c_med - p_med) / p_med if p_med else float("nan"),
        "wins": sum(sign * (c - p) > 0.0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "beyond_iqr": abs(c_med - p_med) > p_hi - p_lo,
        "bound": bound,
        "verdict": verdict,
    }


def _spread(med: float, lo: float, hi: float) -> str:
    return f"{med:.6g} [{lo:.6g}, {hi:.6g}]"


def format_line(workload: str, name: str, s: dict) -> str:
    gap = "beyond" if s["beyond_iqr"] else "within"
    return (f"{workload} {name}: parent {_spread(*s['parent'])} -> change "
            f"{_spread(*s['change'])}, {s['rel']:+.1%}, change better in "
            f"{s['wins']}/{s['pairs']}, gap {gap} the parent's IQR; "
            f"bound {s['bound']:.0%}: {s['verdict']}")


def parse_result(stdout: str) -> dict:
    """The run's result line, with its ``perfbench env`` line under ``env``."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(ENV_PREFIX):
            result["env"] = json.loads(line[len(ENV_PREFIX):])
    return result


def run_benchmark(command: list[str]) -> Runner:
    def run(root: Path, workload: str, seed: int, seconds: float,
            trace: int) -> tuple[int, str, str]:
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
    record = {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
              "workloads": {}}
    for workload in workloads:
        schedule = [(tree, 0, f"pair {pair + 1}") for pair in range(args.pairs)
                    for tree in (("parent", "change") if pair % 2 == 0
                                 else ("change", "parent"))]
        schedule += [(tree, 1, "traced") for tree in trees]
        runs = {tree: {"untraced": []} for tree in trees}
        for tree, trace, label in schedule:
            code, out, err = runner(trees[tree], workload, args.seed, args.seconds, trace)
            if code != 0:
                print(f"{workload} {label}: {tree} run exited {code}\n{err}", file=sys.stderr)
                return 1
            result = parse_result(out)
            if not result["correct"]:
                print(f"{workload} {label}: {tree} run is not correct", file=sys.stderr)
                status = 1
            if trace:
                runs[tree]["traced"] = result
                continue
            untraced = runs[tree]["untraced"]
            untraced.append(result)
            first = untraced[0]
            if (result["attempted"], result["failed"]) != (first["attempted"], first["failed"]):
                print(f"{workload} {label}: {tree} run failed {result['failed']} of "
                      f"{result['attempted']}, its first run {first['failed']} of "
                      f"{first['attempted']}", file=sys.stderr)
                status = 1
        firsts = {t: runs[t]["untraced"][0] for t in trees}
        failed = ", ".join(f"{r['failed']} of {r['attempted']} ({t})" for t, r in firsts.items())
        print(f"{workload}: {args.pairs} pairs, failed {failed}")
        summary = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {t: [r["metrics"][name]["value"] for r in runs[t]["untraced"]] for t in trees}
            summary[name] = compare(values["parent"], values["change"], metric["better"],
                                    metric["bound"])
            print(format_line(workload, name, summary[name]))
        record["workloads"][workload] = {**runs, "summary": summary}
    print(json.dumps(record, separators=(",", ":")))
    return status


if __name__ == "__main__":
    sys.exit(main())
