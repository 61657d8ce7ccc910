"""Batch front-end: parse a run config, dispatch a command, persist results.

One JSON config drives every command; scalar fields can be overridden on
the command line with --set dotted.key=value.  Result files are
deterministic for a fixed config and seed; wall-clock metadata lives in a
sidecar so results stay diffable.

Exit codes: 0 success, 1 assumption or validation failure, 2 usage error,
3 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .labels import parse_label
from .model import ModelError, ModelSpec, check_assumptions, moment_report
from .pde import SolverError, SolverSettings, ValueGrid, solve_generation_system, solve_scalar
from .reward import McEstimate, estimate_from_samples, mc_value, reward_of_outcome
from .simulator import SimulationError, replication_seed, simulate_forest, write_forest_csv, write_paths_csv
from .stopping import StoppingError, evaluate_line, rule_from_json
from .verify import VerifyError, branching_property_test, cross_validate, dpp_consistency

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


def _apply_override(config: dict, dotted: str, raw: str) -> None:
    keys = dotted.split(".")
    node = config
    for k in keys[:-1]:
        if k not in node or not isinstance(node[k], dict):
            node[k] = {}
        node = node[k]
    try:
        node[keys[-1]] = json.loads(raw)
    except json.JSONDecodeError:
        node[keys[-1]] = raw


def load_config(path: str, overrides: Sequence[str] = ()) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    with open(p) as f:
        config = json.load(f)
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not key=value")
        key, _, raw = ov.partition("=")
        _apply_override(config, key, raw)
    if "model" not in config:
        raise ConfigError("config needs a 'model' section")
    if isinstance(config["model"], str):
        model_path = Path(config["model"])
        if not model_path.is_absolute():
            model_path = p.parent / model_path
        if not model_path.exists():
            raise ConfigError(f"model file {model_path} does not exist")
        with open(model_path) as f:
            config["model"] = json.load(f)
    mc = config.get("mc", {})
    if "seed" not in mc:
        raise ConfigError("config must pin mc.seed; wall-clock seeding is not supported")
    return config


def _spec(config: dict) -> ModelSpec:
    return ModelSpec.from_json(config["model"])


def _solver_settings(config: dict) -> SolverSettings:
    s = config.get("solver", {})
    try:
        return SolverSettings(
            x_lo=float(s["x_lo"]),
            x_hi=float(s["x_hi"]),
            n_cells=int(s["n_cells"]),
            tol_fp=float(s.get("tol_fp", 1e-8)),
            k_max=int(s.get("k_max", 64)),
            max_picard=int(s.get("max_picard", 200)),
            bc_lo=s.get("bc_lo", "obstacle"),
            bc_hi=s.get("bc_hi", "obstacle"),
            bc_lo_value=float(s.get("bc_lo_value", 0.0)),
            bc_hi_value=float(s.get("bc_hi_value", 0.0)),
        )
    except KeyError as exc:
        raise ConfigError(f"solver section is missing {exc}") from exc


def _out_dir(config: dict) -> Path:
    out = Path(config.get("outputs", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_sidecar(out: Path, command: str) -> None:
    meta = {
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "host": platform.node(),
        "python": platform.python_version(),
    }
    with open(out / f"{command}.meta.json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("STOPLINE_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _solve_grid(spec: ModelSpec, config: dict) -> ValueGrid:
    settings = _solver_settings(config)
    if spec.reward_depth == 0:
        return solve_scalar(spec, settings)
    return solve_generation_system(spec, settings)


def cmd_check(config: dict, args) -> int:
    spec = _spec(config)
    grid_pts = np.asarray(config.get("check_grid", np.linspace(-5, 5, 41).tolist()), dtype=float)
    report = moment_report(spec)
    audit = check_assumptions(spec, grid_pts)
    out = _out_dir(config)
    payload = {"moment_report": report.to_json(), "assumptions": audit.to_json()}
    with open(out / "check.json", "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    _write_sidecar(out, "check")
    print(f"M = {report.M:.6g}, M_bar = {report.M_bar:.6g} "
          f"(argmax l = {report.M_bar_argmax}, interior: {report.M_bar_interior})")
    print(f"value bound = {report.value_bound:.6g}, gamma threshold = {report.gamma_threshold:.6g}, "
          f"unique below bound: {report.unique_below_bound}")
    for w in audit.warnings:
        print(f"warning: {w}")
    for v in audit.hard_violations:
        print(f"violation: {v}")
    return EXIT_OK if audit.ok else EXIT_VALIDATION


def cmd_solve(config: dict, args) -> int:
    spec = _spec(config)
    grid = _solve_grid(spec, config)
    out = _out_dir(config)
    grid.write_csv(str(out / "grid.csv"))
    with open(out / "solver_log.json", "w") as f:
        json.dump(grid.log_json(), f, indent=2, sort_keys=True)
        f.write("\n")
    _write_sidecar(out, "solve")
    for w in grid.warnings:
        print(f"warning: {w}")
    print(f"solved {grid.depth + 1} level(s) on [{grid.x_lo}, {grid.x_hi}] "
          f"with {grid.n_cells} cells -> {out / 'grid.csv'}")
    return EXIT_OK


def cmd_simulate(config: dict, args) -> int:
    spec = _spec(config)
    mc = config.get("mc", {})
    sim = config.get("simulate", {})
    horizon = float(sim.get("horizon", mc.get("t_cut", 1.0)))
    dt = float(mc.get("dt", 0.01))
    seed = int(mc["seed"])
    start = config.get("start", {"label": "∅", "x": [0.0] * spec.dimension})
    label = parse_label(start.get("label", "∅"))
    x0 = np.asarray(start["x"], dtype=float)
    record = simulate_forest(spec, [(label, x0)], horizon=horizon, dt=dt, seed=seed)
    out = _out_dir(config)
    write_forest_csv(record, str(out / "forest.csv"))
    write_paths_csv(record, str(out / "paths.csv"))
    _write_sidecar(out, "simulate")
    print(f"simulated {len(record.particles)} particles to horizon {horizon} "
          f"-> {out / 'forest.csv'}")
    return EXIT_OK


def _mc_value_parallel(spec, rule, start, reps, dt, seed, n_threads) -> McEstimate:
    """Split replications across threads; merge in fixed chunk order."""
    if n_threads <= 1 or reps < 4 * n_threads:
        return mc_value(spec, rule, start, reps, dt, seed)
    chunks = []
    base = reps // n_threads
    extras = reps % n_threads
    offset = 0
    for i in range(n_threads):
        size = base + (1 if i < extras else 0)
        if size:
            chunks.append((offset, size))
            offset += size

    def run(chunk):
        lo, size = chunk
        vals = np.empty(size)
        for j in range(size):
            rec = simulate_forest(spec, [start], horizon=rule.t_cut, dt=dt,
                                  seed=replication_seed(seed, lo + j))
            vals[j] = reward_of_outcome(spec, evaluate_line(rec, rule))
        return vals

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        results = list(pool.map(run, chunks))
    return estimate_from_samples(np.concatenate(results), seed, rule.t_cut, rule.cut_policy)


def cmd_value(config: dict, args) -> int:
    spec = _spec(config)
    mc = config.get("mc", {})
    rule_obj = config.get("rule")
    if rule_obj is None:
        raise ConfigError("config needs a 'rule' section for the value command")
    grid = None
    # a contact_set rule may also sit among the parts of a min_of rule
    if "contact_set" in json.dumps(rule_obj):
        grid = _solve_grid(spec, config)
    rule = rule_from_json(rule_obj, grid)
    start_obj = config.get("start", {"label": "∅", "x": [0.0] * spec.dimension})
    start = (parse_label(start_obj.get("label", "∅")),
             np.asarray(start_obj["x"], dtype=float))
    est = _mc_value_parallel(spec, rule, start, int(mc.get("reps", 1000)),
                             float(mc.get("dt", 0.01)), int(mc["seed"]), _threads(args))
    out = _out_dir(config)
    est.write_json(str(out / "value.json"))
    _write_sidecar(out, "value")
    print(f"mean = {est.mean:.6g} +- {est.stderr:.2g} ({est.reps} reps) -> {out / 'value.json'}")
    return EXIT_OK


def cmd_verify(config: dict, args) -> int:
    spec = _spec(config)
    mc = config.get("mc", {})
    ver = config.get("verify", {})
    grid = _solve_grid(spec, config)
    points = [float(x) for x in config.get("points", ver.get("points", [0.0]))]
    reps = int(mc.get("reps", 1000))
    dt = float(mc.get("dt", 0.01))
    seed = int(mc["seed"])
    epsilon = float(ver.get("epsilon", 1e-3))
    t_cut = float(mc.get("t_cut", 1.0))
    cut_policy = mc.get("cut_policy", "force_stop")
    sweep_times = [float(t) for t in ver.get("sweep_times", [t_cut / 4, t_cut / 2])]
    report = cross_validate(spec, grid, points, reps, dt, seed, epsilon,
                            t_cut, cut_policy, sweep_times)
    theta_spec = ver.get("dpp_theta", {"kind": "first_branch"})
    for point in points:
        theta = rule_from_json({**theta_spec, "t_cut": t_cut, "cut_policy": cut_policy}, grid)
        report.dpp.append(dpp_consistency(spec, grid, theta, point, reps, dt, seed, epsilon))
    if ver.get("branching", False) and spec.alpha_bar > 0:
        report.branching = branching_property_test(
            spec, points[0], reps, dt, seed,
            branch_window=float(ver.get("branch_window", 2.0)),
            functional_horizon=float(ver.get("functional_horizon", 0.5)),
        )
    out = _out_dir(config)
    report.write_json(str(out / "verify.json"))
    _write_sidecar(out, "verify")
    for p in report.points:
        print(f"x = {p.x:+.4g}: v_pde = {p.v_pde:.6g}, mc = {p.estimate.mean:.6g} "
              f"+- {p.estimate.stderr:.2g}, z = {p.z:+.2f} "
              f"[{'pass' if p.passed else 'FAIL'}]")
    for p in report.dpp:
        print(f"dpp at x = {p.x:+.4g}: z = {p.z:+.2f} [{'pass' if p.passed else 'FAIL'}]")
    if report.branching is not None:
        b = report.branching
        print(f"branching: ks = {b.ks_stat:.4g}, p = {b.p_value:.4g}, n = {b.n_samples}")
    print(f"report -> {out / 'verify.json'}; all passed: {report.all_passed()}")
    return EXIT_OK if report.all_passed() else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stopline",
        description="Branching diffusion stopping lines: simulate, solve, cross-validate.",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: STOPLINE_THREADS or all cores)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("config", help="path to the run config JSON")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a scalar config field")
    return parser


COMMANDS = {
    "check": cmd_check,
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "value": cmd_value,
    "verify": cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = load_config(args.config, args.overrides)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](config, args)
    except (ConfigError, ModelError, StoppingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SimulationError, VerifyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
