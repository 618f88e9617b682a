#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics across runs.

    python3 servebench/steadiness.py [--workloads interactive,saturated,streaming]
                                     [--runs 10] [--sets 2] [--seconds 20]
                                     [--pause 0] [--first-seed 1]

Run from the root of a checkout. For each workload it makes `sets` sets
of `runs` untraced runs (one fresh process each, seeds counting on from
`first-seed` across sets, sets spaced `pause` seconds apart), then prints per metric
and set the median, the first and third quartiles
(statistics.quantiles(n=4)), the spread (q3 - q1) / median, and the gap
between the first and the last set's medians as a share of the first.
The bounds in BENCHMARK.json are set from these figures.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: answers failed the checks")
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="interactive,saturated,streaming")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--pause", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    seed = args.first_seed - 1
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            if s > 0 and args.pause > 0:
                time.sleep(args.pause)
            runs = []
            for _ in range(args.runs):
                seed += 1
                runs.append(run_once(workload, seed, args.seconds))
            sets.append(runs)
        shares = {
            r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"== {workload}: {args.sets} x {args.runs} runs of {args.seconds} s, "
              f"failed share {sorted(shares)}")
        for name in sets[0][0]["metrics"]:
            medians = []
            cells = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                medians.append(q2)
                cells.append(f"{q2:10.4g} [{q1:.4g}, {q3:.4g}] spread {(q3 - q1) / q2:6.1%}")
            gap = (medians[-1] - medians[0]) / medians[0]
            unit = sets[0][0]["metrics"][name]["unit"]
            print(f"  {name:15s} {unit:4s} " + " | ".join(cells) + f" | gap {gap:+.1%}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
