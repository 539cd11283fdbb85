#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ops-mixed --seeds 1-10 [--trace 0]

Run from the repository root. For every metric it prints the median of the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. Exits nonzero if a run fails or a
spread (other than setup_s's) exceeds its bound.
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
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log", help="append every run's last line to this file")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        res = json.loads(lines[-1])
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **res}) + "\n")
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    bad = False
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound:
            flag, bad = "  OVER BOUND", True
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of the bound"
        print(f"{name:28s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
