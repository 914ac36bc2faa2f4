#!/usr/bin/env python3
"""The repo benchmark. Run from the root of a checkout.

One run (what BENCHMARK.json's "command" names):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the runner and bin/sgr.exe from source, then runs one workload and
prints, as its last stdout line, {"correct", "attempted", "failed",
"metrics"}. See perfbench/README.md for the workloads and metrics.

Steadiness (repeat each workload on consecutive seeds, print each
end-to-end metric's spread next to its bound):

    python3 perfbench/run.py --steadiness RUNS [--workload NAME ...] [--seconds S]

Traced counts (two traced runs on one seed; the counts must repeat):

    python3 perfbench/run.py --check-trace [--seed N]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MAIN = "_build/default/perfbench/main.exe"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the runner and the server binary; False when that fails."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "perfbench/main.exe", "bin/sgr.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    if r.returncode != 0:
        log("perfbench: build failed")
    return r.returncode == 0


def run_once(workload, seed, seconds, trace):
    """One run of the built runner: (result dict or None, host line,
    samples dict or None)."""
    args = [MAIN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    r = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("host ")), "")
    samples = next((json.loads(l[8:]) for l in lines if l.startswith("samples ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None, host, samples
    if r.returncode != 0:
        result["correct"] = False
    return result, host, samples


def load_config():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def steadiness(cfg, workloads, runs, seconds, first_seed):
    """Repeat each workload on consecutive seeds; True if all are steady."""
    names = [m["name"] for m in cfg["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    ok = True
    for w in workloads:
        values = {n: [] for n in names}
        levels = {}
        for seed in range(first_seed, first_seed + runs):
            result, host, samples = run_once(w, seed, seconds, 0)
            for k, v in (samples or {}).items():
                if k.endswith("_ms"):
                    levels.setdefault(k, []).append(v)
            if result is None or not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: FAILED {result}")
                ok = False
                continue
            if sorted(result["metrics"]) != sorted(names):
                print(f"{w} seed {seed}: metric names differ from BENCHMARK.json")
                ok = False
            for n in names:
                values[n].append(result["metrics"][n]["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{n}={values[n][-1]:.6g}" for n in names)
                  + f"  [{host}]", flush=True)
        print(f"\n{w}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for n in names:
            if len(values[n]) < 2:
                continue
            med, q1, q3, s = spread(values[n])
            b = bounds[n]
            verdict = "steady" if s < b / 3 else ("within bound" if s <= b else "NOISY")
            if s > b:
                ok = False
            print(f"  {n:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.4f} {b:>6}  {verdict}")
        # Every percentile level, for choosing a workload's tail level.
        for k, v in levels.items():
            if len(v) >= 2:
                med, q1, q3, s = spread(v)
                print(f"  ({k:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>8.4f})")
        print(flush=True)
    return ok


def check_trace(cfg, seed):
    """Two traced runs on one seed: every per-layer metric present, and
    the counts equal: every per-layer metric in unit "count" is a
    deterministic function of the inputs."""
    runs = []
    for _ in range(2):
        result, _, _ = run_once(cfg["workloads"][0]["name"], seed, cfg["run_seconds"], 1)
        if result is None or not result["correct"]:
            print(f"traced run FAILED: {result}")
            return False
        runs.append(result["metrics"])
    expected = sorted(m["name"] for m in cfg["per_layer"])
    ok = sorted(runs[0]) == expected
    for name in expected:
        a, b = (r[name]["value"] for r in runs)
        exact = runs[0][name]["unit"] == "count"
        mark = ("same" if a == b else "DIFFERENT") if exact else ""
        ok = ok and (a == b or not exact)
        print(f"  {name:<32} {a:>14.6g} {b:>14.6g} {runs[0][name]['unit']:<6} {mark}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=["0", "1"])
    p.add_argument("--steadiness", type=int, metavar="RUNS")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--check-trace", action="store_true")
    a = p.parse_args()
    if a.steadiness is None and not a.check_trace:
        if not (a.workload and len(a.workload) == 1 and a.seed is not None and a.seconds
                and a.trace is not None):
            p.error("one run needs --workload, --seed, --seconds and --trace")
        if not build():
            sys.exit(2)
        args = ["--workload", a.workload[0], "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", a.trace]
        os.execv(MAIN, [MAIN] + args)
    cfg = load_config()
    if not build():
        sys.exit(2)
    if a.check_trace:
        ok = check_trace(cfg, a.seed if a.seed is not None else 1)
    else:
        workloads = a.workload or [w["name"] for w in cfg["workloads"]]
        ok = steadiness(cfg, workloads, a.steadiness, a.seconds or cfg["run_seconds"], a.first_seed)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
