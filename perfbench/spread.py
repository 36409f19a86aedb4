"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1, as a share of the median) against
the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload fs-meta --runs 10 [--first-seed 1]

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.exit("seed %d failed (%d): %s" % (seed, out.returncode, out.stderr[-2000:]))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: incorrect result %s" % (seed, result))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("WITHIN BOUND" if spread <= bound else "OVER BOUND")
        print("%-24s median %-14.6g spread %6.3f  bound %-5s %s" % (name, med, spread, bound, flag))
        print("    " + " ".join("%.6g" % v for v in vs))


if __name__ == "__main__":
    main()
