#!/usr/bin/env python3
"""Record one checkout's benchmark results, untraced and traced, in a JSON file.

    python3 scripts/bench_record.py BENCH_<pr>.json [--root .] \\
        [--workload W ...] [--seed 1] [--seconds 20]

For every workload that ROOT/BENCHMARK.json declares (or each ``--workload``)
this runs its ``command`` (``python3 perfbench/run.py``) twice, with the
checkout as its working directory, through ``bench_pairs.run_benchmark``:
once with ``--trace 0``, whose result line holds the end-to-end metrics, and
once with ``--trace 1``, whose result line holds the per-layer figures.
The file maps each workload to ``{"untraced": ..., "traced": ...}``, each
the run's last stdout line (``correct``, ``attempted``, ``failed`` and
``metrics``) with the run's ``perfbench env`` line (seed, CPU count,
Python and numpy versions) under ``env``, next to the seed and seconds.
A later change can diff its own record against the latest committed one.

The exit status is 1, and no file is written, when a run exits non-zero;
it is 1, with the file written, when a run reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import Runner, run_benchmark  # noqa: E402

ENV_PREFIX = "perfbench env "


def parse_result(stdout: str) -> dict:
    """The run's result line, with its ``perfbench env`` line under ``env``."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(ENV_PREFIX):
            result["env"] = json.loads(line[len(ENV_PREFIX):])
    return result


def main(argv: list[str] | None = None, runner: Runner | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, metavar="PATH")
    parser.add_argument("--root", type=Path, default=Path("."))
    parser.add_argument("--workload", action="append", dest="workloads", metavar="W")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    bench = json.loads((args.root / "BENCHMARK.json").read_text())
    runner = runner or run_benchmark(bench["command"])
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    status = 0
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in workloads:
        runs = {}
        for mode, trace in (("untraced", 0), ("traced", 1)):
            code, out, err = runner(args.root, workload, args.seed, args.seconds, trace)
            if code != 0:
                print(f"{workload} {mode} run exited {code}\n{err}", file=sys.stderr)
                return 1
            runs[mode] = result = parse_result(out)
            if not result["correct"]:
                print(f"{workload} {mode} run is not correct", file=sys.stderr)
                status = 1
            print(f"{workload} {mode}: failed {result['failed']} of {result['attempted']}")
        record["workloads"][workload] = runs
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
