#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload check --seeds 1-10 --seconds 20

Runs the benchmark once per seed (untraced, one run at a time) and prints,
for each end-to-end metric, the median of the runs and the spread: the
distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median. A metric
fails when its spread exceeds its bound in BENCHMARK.json and is flagged
when the spread exceeds a third of the bound. Exits 1 on any failure or
failed run.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="a range such as 1-10")
    ap.add_argument("--seconds", type=int, required=True)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in metrics}
    ok = True
    for seed in seeds(a.seeds):
        cmd = ["python3", "perfbench/run.py", "--workload", a.workload, "--seed", str(seed),
               "--seconds", str(a.seconds), "--trace", "0"]
        p = subprocess.run(cmd, capture_output=True, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
        result = json.loads(last) if last.startswith("{") else {}
        if p.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {p.returncode})\n{p.stderr}", file=sys.stderr)
            ok = False
            continue
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    print(f"\n{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, m in metrics.items():
        v = values[name]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        bound = m["bound"]
        verdict = "ok"
        if spread > bound:
            verdict, ok = "FAIL", False
        elif spread > bound / 3:
            verdict = "over 1/3 bound"
        print(f"{name:<14} {statistics.median(v):>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {bound:>6} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
