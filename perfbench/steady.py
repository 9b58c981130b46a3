#!/usr/bin/env python3
"""Steadiness check of the benchmark: spreads, exact repeats, zero counters.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--out FILE]

Runs run.py once per workload and seed (untraced), then for each
end-to-end metric reports the spread (Q3 - Q1) / median of its values
over the seeds, with the quartiles of statistics.quantiles(n=4), against
the metric's bound in BENCHMARK.json: a spread above a third of the
bound is marked "wide", above the bound "FAIL" (setup_s has no spread
limit; only its medians are compared between two sets of runs).

It also runs the first seed of each workload a second time and checks
that the plan digest and the deterministic quantities (ratio,
modelled_gbps, nx.engine_cycles, per-route request counts) repeat
exactly, and that every run reports zero fallbacks, zero busy rejects
and no failed request. Exit code 0 when every check holds.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartile_spread(values):
    """(Q3 - Q1) / median, the quartiles as statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_run(stdout):
    """The JSON result and the lines the exact-repeat check compares."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(l for l in lines if l.startswith("workload "))
    determ = next(l for l in lines if l.startswith("deterministic: "))
    counters = next(l for l in lines if l.startswith("counters: "))
    fields = dict(kv.split("=") for kv in counters.split()[1:])
    return {
        "result": result,
        "digest": re.sub(r"\s+seconds \S+", "", digest),
        "deterministic": determ,
        "fallbacks": int(fields["session.fallbacks"]),
        "busy_rejects": int(fields["job_server.busy_rejects"]),
    }


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, proc.returncode))
    return parse_run(proc.stdout)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write every run's values here (JSON)")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    record = {}
    for w in args.workloads.split(","):
        runs = {s: run_once(w, s, args.seconds) for s in seeds}
        again = run_once(w, seeds[0], args.seconds)
        first = runs[seeds[0]]
        for key in ("digest", "deterministic"):
            if again[key] != first[key]:
                ok = False
                print("%s: %s differs between two runs of seed %d:\n  %s\n"
                      "  %s" % (w, key, seeds[0], first[key], again[key]))
        for s, r in list(runs.items()) + [("repeat", again)]:
            res = r["result"]
            if (not res["correct"] or res["failed"] or r["fallbacks"] or
                    r["busy_rejects"]):
                ok = False
                print("%s seed %s: correct=%s failed=%d fallbacks=%d "
                      "busy_rejects=%d" % (w, s, res["correct"],
                                           res["failed"], r["fallbacks"],
                                           r["busy_rejects"]))
        record[w] = {str(s): r["result"]["metrics"] for s, r in runs.items()}
        print("%s (%d seeds, %d s each)" % (w, len(seeds), args.seconds))
        print("  %-18s %14s %14s %8s %8s  %s" %
              ("metric", "median", "min..max", "spread", "bound", ""))
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"]
                    for r in runs.values()]
            spread = quartile_spread(vals) if len(vals) >= 2 else 0.0
            mark = ""
            if name != "setup_s":
                if spread > bound:
                    mark, ok = "FAIL", False
                elif spread > bound / 3:
                    mark = "wide"
            print("  %-18s %14.6g %6.4g..%-6.4g %8.4f %8.3f  %s" %
                  (name, statistics.median(vals), min(vals), max(vals),
                   spread, bound, mark))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
