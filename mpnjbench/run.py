#!/usr/bin/env python3
"""The mpnj benchmark: build, run one workload, print its metrics.

    python3 mpnjbench/run.py --workload kv_open --seed 1 --seconds 20 --trace 0
    python3 mpnjbench/run.py --selftest
    python3 mpnjbench/run.py --record-sim

Builds the runtime and the benchmark from the checkout's sources into
.bench_build/mpnjbench, runs the named workload with the reference rate
and simulator pins in mpnjbench/pins.json, and prints one line per metric
followed by the JSON result line.  --trace 0 reports the end-to-end
metrics; --trace 1 the per-layer metrics, including the rung ladder (run
in child processes that alternate MPNJ_METRICS=0 and the default, for the
metrics-on/off ratios), and writes a Chrome trace-event file under
.bench_build/mpnjbench/traces.
Exits non-zero, without a result line, if the build fails, and non-zero
after the result line if any output check failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "mpnjbench"
WORKLOADS = ("kv_open", "par_gc", "sim_replay")
# Budget of one run after the build: every run must end within 180 s.
DEADLINE_S = 170
# The rung ladder: batches per rung in one child, and children per side
# (metrics off, metrics on).
RUNG_REPS = 5
RUNG_CHILDREN = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"mpnjbench: no runtime sources under {ROOT / 'src'}")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log(f"mpnjbench: build failed: {' '.join(cmd)}")
            return False
    return True


def pin_args():
    """The values kept as data (pins.json), as mpnjbench arguments."""
    with open(HERE / "pins.json") as f:
        pins = json.load(f)
    args = ["--ref-rate", str(pins["kv_ref_rate"])]
    for app, value in sorted(pins["sim_expect"].items()):
        args += ["--sim-expect", f"{app}={value}"]
    return args


def run_binary(cmd, deadline, env=None):
    """Runs a benchmark binary, echoes its output, returns (code, result)."""
    left = deadline - time.monotonic()
    if left <= 0:
        log("mpnjbench: out of time")
        return 1, None
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=left, env=env)
    except subprocess.TimeoutExpired:
        log(f"mpnjbench: timed out: {' '.join(cmd[:3])}")
        return 1, None
    lines = res.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            pass
    for line in lines:
        print(line)
    return res.returncode, result


def rung_ladder(deadline, trace_path):
    """Interleaved metrics-off / metrics-on rung children; median per rung."""
    on, off = {}, {}
    for i in range(RUNG_CHILDREN):
        for side, env_value in (("off", "0"), ("on", "1")):
            env = dict(os.environ, MPNJ_METRICS=env_value)
            cmd = [str(BUILD / "mpnjbench"), "--rungs", str(RUNG_REPS)]
            if side == "on" and i == 0:
                cmd += ["--trace-out", str(trace_path)]
            code, result = run_binary(cmd, deadline, env)
            if code != 0 or result is None:
                return None
            for name, m in result["metrics"].items():
                (on if side == "on" else off).setdefault(name, []).append(m)
    layer = {}
    for name, samples in on.items():
        value = statistics.median(m["value"] for m in samples)
        layer[name] = {"value": value, "unit": samples[0]["unit"]}
    for name, samples in on.items():
        base = statistics.median(m["value"] for m in off[name])
        rung = name.rsplit("_", 1)[0]
        layer[f"metrics.{rung}_on_off"] = {
            "value": layer[name]["value"] / base if base > 0 else 0.0,
            "unit": "ratio"}
    return layer


def merge_traces(main_path, rung_path, out_path):
    with open(main_path) as f:
        trace = json.load(f)
    with open(rung_path) as f:
        rungs = json.load(f)["traceEvents"]
    end = max((e["ts"] + e["dur"] for e in trace["traceEvents"]), default=0)
    for e in rungs:
        e["pid"] = 2
        e["ts"] += end
    trace["traceEvents"] += rungs
    trace["traceEvents"] += [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "workloads"}},
        {"name": "process_name", "ph": "M", "pid": 2,
         "args": {"name": "rung ladder"}},
    ]
    with open(out_path, "w") as f:
        json.dump(trace, f)
    os.remove(main_path)
    os.remove(rung_path)


def selftest():
    trace = BUILD / "selftest-trace.json"
    res = subprocess.run([str(BUILD / "mpnjbench_selftest"), str(trace)])
    if res.returncode != 0:
        return 1
    with open(trace) as f:
        events = json.load(f)["traceEvents"]
    ok = len(events) == 2 and all(
        e["ph"] == "X" and e["dur"] >= 0 and "ts" in e for e in events)
    print(("ok  " if ok else "FAIL") + " trace: the file parses as "
          "trace-event JSON")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-sim", action="store_true")
    args = ap.parse_args()

    if not build():
        return 1
    # The budget starts after the build: the first run in a checkout builds.
    deadline = time.monotonic() + DEADLINE_S
    if args.selftest:
        return selftest()
    if args.record_sim:
        return subprocess.run([str(BUILD / "mpnjbench"),
                               "--record-sim"]).returncode
    if args.workload is None:
        ap.error("--workload is required")

    cmd = [str(BUILD / "mpnjbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + pin_args()

    if args.trace == 0:
        code, result = run_binary(cmd, deadline)
        if result is None:
            return code or 1
        print(json.dumps(result), flush=True)
        return code

    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    main_trace = traces / f"{stem}.workloads.json"
    rung_trace = traces / f"{stem}.rungs.json"
    rungs = rung_ladder(deadline, rung_trace)
    if rungs is None:
        return 1
    code, result = run_binary(cmd + ["--trace-out", str(main_trace)],
                              deadline)
    if result is None:
        return code or 1
    for name, m in rungs.items():
        print(f"metric {name:<36} {m['value']:14.6g} {m['unit']:<6} "
              f"n={RUNG_CHILDREN}")
    result["metrics"].update(rungs)
    out_trace = traces / f"{stem}.json"
    merge_traces(main_trace, rung_trace, out_trace)
    print(f"trace: {out_trace.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
