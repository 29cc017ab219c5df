#!/usr/bin/env python3
"""Steadiness check for the mpnj benchmark.

    python3 mpnjbench/steady.py run --runs 10 --out A.json [--workload W ...]
    python3 mpnjbench/steady.py compare A.json B.json

`run` runs run.py once per seed (1..runs, or --first-seed onwards) on each
workload with BENCHMARK.json's run_seconds, and records every end-to-end
value.  For each metric it reports the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median, against a third of the metric's bound.  `compare` checks
that the second set's medians are no worse than the first's by more than
each metric's bound.  Exits non-zero when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def cmd_run(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(res.stdout.strip().splitlines()[-1])
            if res.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        out["workloads"][w] = {}
        for name, vals in values.items():
            s = summarize(vals)
            out["workloads"][w][name] = s
            limit = bounds[name]["bound"] / 3
            flag = "" if s["spread"] < limit else "  WIDE"
            if flag:
                ok = False
            print(f"{w:<11} {name:<17} median {s['median']:<14.6g} spread "
                  f"{s['spread']:.4f} (< {limit:.4f}){flag}", flush=True)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.first) as f:
        a = json.load(f)["workloads"]
    with open(args.second) as f:
        b = json.load(f)["workloads"]
    ok = True
    for w in a:
        for name, sa in a[w].items():
            m = metrics[name]
            ma, mb = sa["median"], b[w][name]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "" if worse <= m["bound"] else "  WORSE"
            ok = ok and not flag
            print(f"{w:<11} {name:<17} {ma:<14.6g} -> {mb:<14.6g} worse by "
                  f"{worse:+.4f} (bound {m['bound']}){flag}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--workload", action="append")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
