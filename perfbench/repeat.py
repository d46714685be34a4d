#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/repeat.py --workload ingest-mpi-wal --seeds 1-10
    python3 perfbench/repeat.py --workload embedded-deadlock50 --seeds 1-10 \\
        --checkout ../parent --checkout .

Each run is the `command` of BENCHMARK.json, executed from a checkout
with `--workload <w> --seed <n> --seconds <run_seconds> --trace <0|1>`.
With several checkouts (a parent and a change), every seed runs once in
each, the order alternating from seed to seed. Per checkout it prints
each metric's median, quartiles, spread (interquartile range over
median, as `statistics.quantiles(values, n=4)` gives them) and the
value of every seed in order; with two checkouts it also counts, per
metric, the seeds on which the second checkout did better.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(checkout, bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    p = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{checkout} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{checkout} seed {seed}: incorrect run\n{p.stderr[-2000:]}")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--checkout", action="append")
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    checkouts = [os.path.abspath(c) for c in (args.checkout or [os.path.join(HERE, "..")])]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    values = {c: {} for c in checkouts}
    for i, seed in enumerate(seeds(args.seeds)):
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for c in order:
            for name, m in run(c, bench, args.workload, seed, args.trace).items():
                values[c].setdefault(name, []).append(m["value"])
    for c in checkouts:
        print(f"== {c} ({args.workload}, seeds {args.seeds}, {bench['run_seconds']}s)")
        for name, vs in values[c].items():
            if len(vs) < 2:
                print(f"  {name:36} {vs}")
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            print(f"  {name:36} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  spread {spread:7.4f}")
            print("      " + " ".join(f"{v:.6g}" for v in vs))
    if len(checkouts) == 2:
        a, b = checkouts
        print(f"== seeds on which {b} beat {a}")
        for name in values[a]:
            sign = -1 if better.get(name) == "lower" else 1
            wins = sum(sign * (y - x) > 0 for x, y in zip(values[a][name], values[b][name]))
            print(f"  {name:36} {wins}/{len(values[a][name])}")


if __name__ == "__main__":
    main()
