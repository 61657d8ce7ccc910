#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10                      # every workload
    python3 perfbench/sweep.py --workloads bump_verify --seeds 1-5
    python3 perfbench/sweep.py --seeds 1-10 --trajectory "label"  # also append an entry

For every workload and end-to-end metric it prints the median, the first and
third quartile (`statistics.quantiles(values, n=4)`) and the spread, the
distance between the quartiles as a share of the median, next to a third of
the metric's bound in BENCHMARK.json.  Runs are sequential, one process at a
time.  With --trajectory the summary, plus one traced run per workload at the
first seed, is appended to perfbench/trajectory.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    env = next(json.loads(line[len("# env "):]) for line in proc.stdout.splitlines()
               if line.startswith("# env "))
    return {"result": result, "env": env}


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trajectory", metavar="LABEL")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, env, ok = {}, None, True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in _seeds(args.seeds):
            out = run_once(workload, seed, args.seconds, 0)
            env = out["env"]
            res = out["result"]
            ok = ok and res["correct"]
            print(f"{workload} seed={seed} correct={res['correct']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        summary[workload] = {"end_to_end": {}}
        for name, vals in values.items():
            s = summarise(vals)
            summary[workload]["end_to_end"][name] = s
            steady = s["spread"] < bounds[name] / 3
            ok = ok and steady
            print(f"  {workload} {name}: median {s['median']:.5g} q1 {s['q1']:.5g} "
                  f"q3 {s['q3']:.5g} spread {s['spread']:.4f} (bound/3 {bounds[name] / 3:.4f})"
                  f"{'' if steady else '  NOT STEADY'}", flush=True)
    if args.trajectory:
        seed = _seeds(args.seeds)[0]
        for workload in summary:
            traced = run_once(workload, seed, args.seconds, 1)["result"]
            summary[workload]["per_layer_seed"] = seed
            summary[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        path = HERE / "trajectory.json"
        entries = json.loads(path.read_text()) if path.exists() else []
        entries.append({"label": args.trajectory,
                        "date": time.strftime("%Y-%m-%d", time.gmtime()),
                        "seeds": args.seeds, "run_seconds": args.seconds,
                        "env": env, "workloads": summary})
        path.write_text(json.dumps(entries, indent=1) + "\n")
    print("all runs correct and steady" if ok else "SOME RUNS FAILED OR SPREAD TOO WIDE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
