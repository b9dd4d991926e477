#!/usr/bin/env python3
"""Steadiness and determinism check for the benchmark in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10                 # every workload
    python3 perfbench/steady.py --workload scan-large --seeds 1-5
    python3 perfbench/steady.py --determinism --seeds 7      # same seed twice

Spread mode runs each workload once per seed (untraced) and prints, for
every end-to-end metric, the quartiles of its values and their spread
(q3 - q1) / median against the metric's bound.

Determinism mode runs each workload twice per seed, untraced and traced.
Sim-clock metrics and every per-layer count must repeat exactly; any
drift is a failure, not noise. Exits non-zero on any failure.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Quantities derived from the simulator or counted, never timed: the
# end-to-end ones by name, the per-layer ones by unit.
EXACT_NAMES = {"sim_speedup_geomean", "ok_pct"}
EXACT_UNITS = {"count", "bytes", "ratio", "ppm", "sim_s"}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread_mode(spec, workloads, seeds):
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            out = run(spec, w, seed, 0)
            for name in values:
                values[name].append(out["metrics"][name]["value"])
        print(f"== {w} ({len(seeds)} seeds)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= m["bound"] / 3 else "WIDE" if spread <= m["bound"] else "FAIL"
            if verdict == "FAIL" and m["name"] != "setup_s":
                ok = False
            print(f"  {m['name']:22} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.4f}  bound {m['bound']:.3f}  {verdict}")
    return ok


def determinism_mode(spec, workloads, seeds):
    ok = True
    for w in workloads:
        for seed in seeds:
            for trace in (0, 1):
                a, b = run(spec, w, seed, trace), run(spec, w, seed, trace)
                for name, m in a["metrics"].items():
                    exact = name in EXACT_NAMES or m["unit"] in EXACT_UNITS
                    if exact and m["value"] != b["metrics"][name]["value"]:
                        ok = False
                        print(f"DRIFT {w} seed {seed} trace {trace}: {name} "
                              f"{m['value']} vs {b['metrics'][name]['value']}")
            print(f"== {w} seed {seed}: checked")
    return ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9")
    ap.add_argument("--determinism", action="store_true")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    if not args.determinism and len(seeds) < 2:
        sys.exit("spread mode needs at least two seeds")
    check = determinism_mode if args.determinism else spread_mode
    sys.exit(0 if check(spec, workloads, seeds) else 1)


if __name__ == "__main__":
    main()
