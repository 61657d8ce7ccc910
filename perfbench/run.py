#!/usr/bin/env python3
"""stopline benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bump_verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With `--trace 0` the workload's plain pass repeats for `--seconds` (at
least three times) and the end-to-end metrics are reported; with
`--trace 1` a plain pass and a traced pass alternate and the per-layer
metrics are reported.  Every pass is checked for correctness.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` (correctness checks) and `metrics`.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("put_solve", "bump_verify", "branching_ks")
SETUP_PROBES = 7
MIN_PASSES = 3
MAX_MEASURE_S = 120.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "pde.busy_s": "s", "pde.picard_steps": "count", "pde.inner_iterations": "count",
    "pde.us_per_inner_iteration": "us",
    "simulator.busy_s": "s", "simulator.forests": "count", "simulator.particles": "count",
    "simulator.path_samples": "count", "simulator.proposals": "count",
    "simulator.us_per_particle": "us", "simulator.stream_us": "us",
    "simulator.useful_particle_frac": "fraction",
    "stopping.busy_s": "s", "stopping.stops": "count", "stopping.forced_stops": "count",
    "stopping.abandoned": "count", "stopping.stops_at_birth": "count",
    "reward.busy_s": "s", "reward.zero_frac": "fraction",
    "verify.self_s": "s",
    "rep.count": "count", "rep.p50_ms": "ms", "rep.p99_ms": "ms",
    "trace.self_s": "s", "trace.accounted_frac": "fraction", "trace.overhead_frac": "fraction",
}


class MissingProgram(RuntimeError):
    pass


def pin_threads() -> None:
    """Give native thread pools one thread; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def prepare() -> None:
    """Pin native thread pools to one thread; import stopline from this checkout."""
    pin_threads()
    src = ROOT / "src"
    if not (src / "stopline" / "__init__.py").is_file():
        raise MissingProgram(f"no stopline package under {src}")
    sys.path.insert(0, str(src))
    import stopline

    if Path(stopline.__file__).resolve().parent != (src / "stopline").resolve():
        raise MissingProgram(f"stopline was imported from {stopline.__file__}, not {src}")


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stopline").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return {
        "commit": _commit(),
        "source_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_times(workload: str, seed: int, scale: str) -> tuple:
    """Times from interpreter start to a built workload, in fresh processes.

    Returns the measured times and the same times in reference seconds.
    """
    from reference import in_reference_s

    measured, reference = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), scale],
            capture_output=True, text=True, timeout=30,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        measured.append(probe["built"] - start)
        reference.append(in_reference_s(measured[-1], probe["bursts"]))
    return measured, reference


class DigestStore:
    """Digest of each (source, workload, sizes, seed) seen in this checkout, across runs."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def agrees(self, key: str, value: str) -> bool:
        seen = self.known.setdefault(key, value)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
        return seen == value


def measure(wl, seconds: float, trace: bool) -> dict:
    """Repeat the workload's pass for `seconds` and collect what each pass gave.

    Untraced, reference bursts are sampled during every pass.  Traced, each
    plain pass is followed by a traced pass, and nothing is sampled.
    """
    import tracing
    from reference import SpeedProbe, in_reference_s
    from workloads import digest

    m = {"pass_s": [], "reference_pass_s": [], "solve_s": [], "mc_s": [], "digests": [],
         "traced_s": [], "traced_digests": [], "layers": []}
    probe = SpeedProbe()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        passes = len(m["pass_s"])
        if passes >= (1 if trace else MIN_PASSES) and elapsed >= seconds:
            break
        # never start a pass that would overrun the time cap
        if passes and elapsed + m["pass_s"][-1] + sum(m["traced_s"][-1:]) > MAX_MEASURE_S:
            break
        gc.collect()
        if trace:
            t0 = time.perf_counter()
            res = wl.run()
            m["pass_s"].append(time.perf_counter() - t0)
        else:
            with probe.sampling():
                t0 = time.perf_counter()
                res = wl.run()
                m["pass_s"].append(time.perf_counter() - t0)
                bursts = list(probe.bursts)
            m["reference_pass_s"].append(in_reference_s(m["pass_s"][-1], bursts))
        m["solve_s"].append(res.solve_s)
        m["mc_s"].append(res.mc_s)
        m["digests"].append(digest(res.values))
        m.setdefault("values", res.values)
        if trace:
            gc.collect()
            tracer, counts = tracing.Tracer(), tracing.Counts()
            t0 = time.perf_counter()
            traced = wl.run_traced(tracer, counts)
            m["traced_s"].append(time.perf_counter() - t0)
            m["layers"].append(tracing.layer_metrics(tracer, counts, m["traced_s"][-1]))
            m["traced_digests"].append(digest(traced.values))
            if m["traced_digests"][-1] != m["digests"][0]:
                m.setdefault("traced_values", traced.values)
    if trace:
        m["stream_us"] = tracing.stream_us(counts)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl.name}-{wl.seed}.json")
    return m


def run(args, env: dict) -> dict:
    import workloads

    wl = workloads.build(ROOT, args.workload, args.seed, args.scale)
    # fill lazy imports and caches before timing
    workloads.build(ROOT, args.workload, args.seed, "tiny").run()
    m = measure(wl, args.seconds, bool(args.trace))
    median = statistics.median
    extra = {"passes": len(m["pass_s"]), "pass_s": m["pass_s"], "digest": m["digests"][0]}
    if wl.requested_reps:
        extra["reps_per_s"] = wl.requested_reps / median(m["mc_s"])
    if any(m["solve_s"]):
        extra["solve_s"] = median(m["solve_s"])

    checks = {k: bool(v) for k, v in wl.checks(m["values"]).items()}
    OUT.mkdir(exist_ok=True)
    store = DigestStore(OUT / "digests.json")
    checks["determinism.passes_identical"] = len(set(m["digests"])) == 1
    sizes = json.dumps(workloads.SIZES[args.scale], sort_keys=True)
    checks["determinism.same_seed_runs_identical"] = store.agrees(
        f"{env['source_sha256']}|{args.workload}|{sizes}|{args.seed}", m["digests"][0])

    if args.trace:
        checks["trace.reproduces_estimators"] = set(m["traced_digests"]) == {m["digests"][0]}
        differs = m.get("traced_values", {})
        for key in sorted(k for k in differs if k in m["values"]):
            if workloads.digest({key: m["values"][key]}) != workloads.digest({key: differs[key]}):
                print(f"# traced pass differs from the estimator at {key}", file=sys.stderr)
        # counts repeat exactly across passes; times are medians over the traced passes
        metrics = {k: v if isinstance(v, int) else median(layer[k] for layer in m["layers"])
                   for k, v in m["layers"][0].items()}
        metrics["simulator.stream_us"] = m["stream_us"]
        # each traced pass against the plain pass just before it, so slow host
        # phases longer than a pair cancel
        metrics["trace.overhead_frac"] = median(
            t / p for t, p in zip(m["traced_s"], m["pass_s"])) - 1
        extra["traced_pass_s"] = m["traced_s"]
    else:
        setup, setup_ref = setup_times(args.workload, args.seed, args.scale)
        metrics = {
            "wall_s": median(m["reference_pass_s"]),
            "setup_s": median(setup_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        extra.update(measured_wall_s=median(m["pass_s"]), measured_setup_s=median(setup),
                     reference_pass_s=m["reference_pass_s"], setup_probe_s=setup,
                     reference_setup_s=setup_ref)
    extra["checks_failed_frac"] = sum(not ok for ok in checks.values()) / len(checks)
    return {"metrics": metrics, "extra": extra, "checks": checks}


def report(args, env: dict, out: dict) -> dict:
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    checks, extra = out["checks"], out["extra"]
    failed = sum(not ok for ok in checks.values())
    print(f"# stopline benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} scale={args.scale}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, ok in checks.items():
        print(f"# check {name}: {'pass' if ok else 'FAIL'}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"solve_s = {extra['solve_s']:.6g} s" if "solve_s" in extra
          else "solve_s: not applicable (no solve in this workload)")
    print(f"reps_per_s = {extra['reps_per_s']:.6g} 1/s" if "reps_per_s" in extra
          else "reps_per_s: not applicable (no Monte Carlo in this workload)")
    print(f"checks_failed_frac = {extra['checks_failed_frac']:.6g} fraction "
          f"({failed} of {len(checks)} failed)")
    if "measured_wall_s" in extra:
        print(f"# wall_s and setup_s are in reference seconds; as measured they are "
              f"{extra['measured_wall_s']:.6g} s and {extra['measured_setup_s']:.6g} s")
    print(f"# passes {extra['passes']}, digest {extra['digest']}")
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                            "scale": args.scale, "seconds": args.seconds,
                            "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                            "env": env, "checks": checks, "extra": extra, **result}) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny sizes are for the self-test only")
    args = parser.parse_args(argv)
    try:
        prepare()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment()
    result = report(args, env, run(args, env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
