#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports, per workload and
end-to-end metric, the median and the quartile spread (Q3 - Q1 over the
median, quartiles as statistics.quantiles(values, n=4) gives them) next
to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds N]

Run from the repository root. Every `metric` line of each run's report is
kept in .bench_trace/spread.jsonl with the run's result line, and the
summary covers them all; the metrics listed in BENCHMARK.json are starred.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")
    secs = a.seconds or bench["run_seconds"]
    log = os.path.join(".bench_trace", "spread.jsonl")
    os.makedirs(".bench_trace", exist_ok=True)
    runs = []
    with open(log, "w") as out:
        for w in names:
            for seed in seeds(a.seeds):
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(secs), "--trace", "0"]
                p = subprocess.run(cmd, capture_output=True, text=True)
                lines = p.stdout.strip().splitlines()
                last = lines[-1] if lines else "{}"
                report = {l.split()[1]: float(l.split()[2]) for l in lines
                          if l.startswith("metric ")}
                rec = {"workload": w, "seed": seed, "code": p.returncode,
                       "result": json.loads(last) if last.startswith("{") else None,
                       "report": report}
                runs.append(rec)
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print(w, seed, p.returncode, last[:160], file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in names:
        rs = [r for r in runs if r["workload"] == w and r["result"]]
        bad = [r for r in rs if not r["result"]["correct"]]
        print(f"{w}: {len(rs)} runs, {len(bad)} incorrect")
        for m in rs[0]["report"] if rs else []:
            if any(m not in r["report"] for r in rs):
                continue
            vals = [r["report"][m] for r in rs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            b = bounds.get(m)
            flag = "" if b is None or spread < b / 3 else "  <-- above bound/3"
            mark = "*" if m in rs[0]["result"]["metrics"] else " "
            print(f" {mark}{m:24} median {med:14.6g}  spread {spread:7.4f}  bound {b}{flag}")


if __name__ == "__main__":
    main()
