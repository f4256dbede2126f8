#!/usr/bin/env python3
"""Measure how steady the benchmark is on this machine.

    python3 perfbench/steady.py

Run from the repository root. It makes two separate sets of runs of every
workload in BENCHMARK.json, ten runs each with seeds 1-10 and 11-20,
alternating the workload order, each run measuring for the file's
`run_seconds`. For each set it prints every end-to-end metric's median,
quartiles and spread, (Q3 - Q1) / median, next to the metric's bound. Then it
prints how far the second set's median moved from the first's, in the
metric's worse direction, and whether the share of failed operations is the
same in both sets. Last it makes one traced run per workload and prints the
tracing overhead: the traced run's `trace.cell_s` minus the plain runs'
median `cell_s`. The full report goes to .bench_build/perfbench/.
"""
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SET_SEEDS = [range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1)]
TRACED_SEED = 1


def run(workload, seed, seconds, trace):
    t0 = time.time()
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit("steady: %s seed %d failed (exit %d)" % (workload, seed, p.returncode))
    lines = p.stdout.splitlines()
    facts = json.loads(lines[-2]).get("run", {}) if len(lines) > 1 else {}
    return json.loads(lines[-1]), facts, wall


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for k, seeds in enumerate(SET_SEEDS):
        results = {w: [] for w in workloads}
        facts_of = {w: [] for w in workloads}
        for i, seed in enumerate(seeds):
            for w in (workloads if i % 2 == 0 else workloads[::-1]):
                r, facts, wall = run(w, seed, seconds, 0)
                results[w].append(r)
                facts_of[w].append(facts)
                print("set %d  %-16s seed %-3d %5.1f s  attempted %-5d failed %d  steal %.2f s  "
                      "gc %.2f s" % (k + 1, w, seed, wall, r["attempted"], r["failed"],
                                     facts.get("steal_s", 0), facts.get("gc_s", 0)), flush=True)
        report = {}
        print("\nset %d\n%-16s %-22s %12s %12s %12s %8s %6s" %
              (k + 1, "workload", "metric", "median", "q1", "q3", "spread", "bound"))
        for w in workloads:
            rs = results[w]
            report[w] = {"failed_share": sorted({r["failed"] / r["attempted"] for r in rs}),
                         "runs": facts_of[w], "metrics": {}}
            for name, m in metrics.items():
                vals = [r["metrics"][name]["value"] for r in rs]
                med, q1, q3, spread = summary(vals)
                bound = m["bound"]
                flag = "" if spread <= bound / 3 else \
                    ("  > bound/3" if spread <= bound else "  > BOUND")
                print("%-16s %-22s %12.5g %12.5g %12.5g %8.4f %6s%s" %
                      (w, name, med, q1, q3, spread, bound, flag))
                report[w]["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                              "spread": spread, "values": vals}
            print("%-16s failed share %s" % (w, report[w]["failed_share"]))
        sets.append(report)
        print(flush=True)

    first, second = sets
    print("%-16s %-22s %12s %12s %8s %6s" %
          ("workload", "metric", "median 1", "median 2", "worse by", "bound"))
    for w in workloads:
        for name, m in metrics.items():
            a = first[w]["metrics"][name]["median"]
            b = second[w]["metrics"][name]["median"]
            worse = ((b - a) if m["better"] == "lower" else (a - b)) / a if a else 0.0
            print("%-16s %-22s %12.5g %12.5g %+8.4f %6s%s" %
                  (w, name, a, b, worse, m["bound"], "  > BOUND" if worse > m["bound"] else ""))
        same = first[w]["failed_share"] == second[w]["failed_share"]
        print("%-16s failed share %s in both sets" % (w, "the same" if same else "NOT the same"))

    overhead = {}
    for w in workloads:
        r, _, _ = run(w, TRACED_SEED, seconds, 1)
        traced = r["metrics"]["trace.cell_s"]["value"]
        plain = statistics.median(first[w]["metrics"]["cell_s"]["values"] +
                                  second[w]["metrics"]["cell_s"]["values"])
        overhead[w] = {"traced_cell_s": traced, "plain_cell_s": plain}
        print("%-16s traced seed %d: cell_s %.3f vs plain median %.3f, overhead %+.3f s (%+.1f%%)"
              % (w, TRACED_SEED, traced, plain, traced - plain, 100 * (traced - plain) / plain))

    out = os.path.join(ROOT, ".bench_build", "perfbench", "steady-%d.json" % int(time.time()))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"sets": sets, "tracing_overhead": overhead}, f, indent=1)
    print("\nwrote %s" % os.path.relpath(out, ROOT))


if __name__ == "__main__":
    main()
