#!/usr/bin/env python3
"""Steadiness tooling for the perfbench benchmark.

Repeat each workload with distinct seeds and print, per metric, the median,
the quartiles and the spread (interquartile distance as a share of the
median) beside the metric's bound from BENCHMARK.json:

    python3 perfbench/steady.py --runs 10 --seed-base 100 --out set1.json
    python3 perfbench/steady.py --runs 5 --workloads online_knn --seed-base 7

Compare two saved sets: every metric's second median must not be worse than
the first by more than its bound:

    python3 perfbench/steady.py --compare set1.json set2.json

A spread above a third of the bound is flagged "WIDE"; a set whose spreads
exceed the bound (setup_s aside), or a comparison that fails, exits 1.
Statistics follow Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit("run failed: %s" % " ".join(command))
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit("incorrect run: %s seed %d: %s" %
                         (workload, seed, done.stdout))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def measure(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    steady = True
    for workload in workloads:
        runs = [run_once(workload, args.seed_base + i, seconds, args.trace)
                for i in range(args.runs)]
        results[workload] = {name: [r[name] for r in runs] for name in runs[0]}
        print("%s (%d runs, seeds %d..%d, trace %d)" %
              (workload, args.runs, args.seed_base,
               args.seed_base + args.runs - 1, args.trace))
        for name, values in results[workload].items():
            median, q1, q3, spread = summarize(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound / 3:
                    flag = "WIDE"
                if spread > bound and name != "setup_s":
                    flag = "OVER BOUND"
                    steady = False
            print("  %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
                  "%6.3f bound %-6s %s" %
                  (name, median, q1, q3, spread,
                   "-" if bound is None else "%g" % bound, flag))
            print("    runs: " + " ".join("%.4g" % v for v in values))
        sys.stdout.flush()
        if args.out:
            with open(args.out, "w") as f:
                json.dump(results, f, indent=1)
    return steady


def compare(first_path, second_path, spec):
    directions = {m["name"]: (m["better"], m["bound"])
                  for m in spec["end_to_end"]}
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    ok = True
    for workload in first:
        for name, values in first[workload].items():
            if name not in directions or name not in second.get(workload, {}):
                continue
            better, bound = directions[name]
            a = statistics.median(values)
            b = statistics.median(second[workload][name])
            change = (b - a) / abs(a) if a else 0.0
            worse = change > bound if better == "lower" else -change > bound
            ok = ok and not worse
            print("%-18s %-16s first %-12.6g second %-12.6g change %+7.3f "
                  "bound %g %s" % (workload, name, a, b, change, bound,
                                   "WORSE" if worse else "ok"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        ok = compare(args.compare[0], args.compare[1], spec)
    else:
        if args.runs < 2:
            parser.error("--runs must be at least 2 for quartiles")
        ok = measure(args, spec)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
