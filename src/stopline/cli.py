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
import dataclasses
import json
import platform
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .labels import Label, parse_label
from .model import ModelError, ModelSpec, check_assumptions, check_fields, moment_report
from .pde import SolverError, SolverSettings, solve_scalar
from .reward import RewardError, mc_value
from .simulator import SimulationError, simulate_forest, write_forest_csv, write_paths_csv
from .stopping import StoppingError, StoppingRule, rule_from_json
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


def _section(config: dict, name: str, default: Optional[dict] = None,
             fields: Optional[Sequence[str]] = None) -> dict:
    """A config section; one that is not a JSON object, or that has a key
    outside `fields` when they are given, is a usage error."""
    section = config.get(name, {} if default is None else default)
    check_fields(section, section if fields is None else fields, f"{name} section", ConfigError)
    return section


def _load_model_file(config: dict, base: Path) -> None:
    """Replace a model given as a file path, relative to `base`, by its contents."""
    if not isinstance(config.get("model"), str):
        return
    model_path = Path(config["model"])
    if not model_path.is_absolute():
        model_path = base / model_path
    if not model_path.exists():
        raise ConfigError(f"model file {model_path} does not exist")
    with open(model_path) as f:
        config["model"] = json.load(f)


def load_config(path: str, overrides: Sequence[str] = ()) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    with open(p) as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    # load a model file first, so that --set model.<field> edits its contents
    _load_model_file(config, p.parent)
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r} is not key=value")
        key, _, raw = ov.partition("=")
        _apply_override(config, key, raw)
    check_fields(config, ("model", "solver", "mc", "rule", "start", "points", "verify",
                          "simulate", "check_grid", "outputs"), "config", ConfigError)
    if "model" not in config:
        raise ConfigError("config needs a 'model' section")
    _load_model_file(config, p.parent)  # a model path set by --set
    if "seed" not in _section(config, "mc"):
        raise ConfigError("config must pin mc.seed; wall-clock seeding is not supported")
    out = config.get("outputs", "out")
    if not isinstance(out, str):
        raise ConfigError(f"outputs must be a directory path, not {out!r}")
    # refuse before any work: the directory is made only when results are written
    nearest = next(d for d in (Path(out), *Path(out).parents) if d.exists())
    if not nearest.is_dir():
        raise ConfigError(f"outputs {out!r} cannot be a directory: {nearest} is a file")
    return config


def _spec(config: dict) -> ModelSpec:
    return ModelSpec.from_json(config["model"])


def _whole(value, name: str) -> int:
    """A count or seed; a fraction is refused rather than truncated by int()."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} = {value!r} is not a whole number")
    return int(value)


def _solver_settings(config: dict) -> SolverSettings:
    s = _section(config, "solver", fields=[f.name for f in dataclasses.fields(SolverSettings)])
    try:
        return SolverSettings(
            x_lo=float(s["x_lo"]),
            x_hi=float(s["x_hi"]),
            n_cells=_whole(s["n_cells"], "n_cells"),
            **{k: float(s[k]) for k in ("tol_fp", "bc_lo_value", "bc_hi_value") if k in s},
        )
    except KeyError as exc:
        raise ConfigError(f"solver section is missing {exc}") from exc
    except (TypeError, ValueError, SolverError) as exc:
        # settings the solver refuses are a config mistake, not non-convergence
        raise ConfigError(f"solver section: {exc}") from exc


class _McSettings(NamedTuple):
    reps: int
    dt: float
    seed: int
    t_cut: float
    cut_policy: str


def _mc(config: dict) -> _McSettings:
    mc = _section(config, "mc", fields=_McSettings._fields)
    try:
        return _McSettings(
            reps=_whole(mc.get("reps", 1000), "reps"),
            dt=float(mc.get("dt", 0.01)),
            seed=_whole(mc["seed"], "seed"),
            t_cut=float(mc.get("t_cut", 1.0)),
            cut_policy=mc.get("cut_policy", "force_stop"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"mc section: {exc}") from exc


def _start(config: dict, spec: ModelSpec) -> Tuple[Label, np.ndarray]:
    start = _section(config, "start", {"label": "∅", "x": [0.0] * spec.dimension},
                     fields=("label", "x"))
    try:
        return parse_label(start.get("label", "∅")), np.asarray(start["x"], dtype=float)
    except KeyError as exc:
        raise ConfigError(f"start section is missing {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"start section: {exc}") from exc


def _rule(obj, spec: ModelSpec, grid=None) -> StoppingRule:
    """A rule from its config form, checked against the model it stops."""
    rule = rule_from_json(obj, grid)
    _check_rule_dimension(rule, spec.dimension)
    return rule


def _check_rule_dimension(rule: StoppingRule, dimension: int) -> None:
    for part in rule.parts:
        _check_rule_dimension(part, dimension)
    if rule.kind == "exit_ball" and len(rule.center) != dimension:
        raise StoppingError(f"exit_ball center has {len(rule.center)} coordinate(s), "
                            f"the model has dimension {dimension}")


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


def cmd_check(config: dict) -> int:
    spec = _spec(config)
    try:
        grid_pts = np.array([float(x) for x in config.get("check_grid", np.linspace(-5, 5, 41))])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"check_grid: {exc}") from exc
    if not len(grid_pts):
        raise ConfigError("check_grid must list at least one point")
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


def cmd_solve(config: dict) -> int:
    spec = _spec(config)
    grid = solve_scalar(spec, _solver_settings(config))
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


def cmd_simulate(config: dict) -> int:
    spec = _spec(config)
    mc = _mc(config)
    sim = _section(config, "simulate", fields=("horizon",))
    try:
        horizon = float(sim.get("horizon", mc.t_cut))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"simulate section: {exc}") from exc
    record = simulate_forest(spec, [_start(config, spec)], horizon=horizon, dt=mc.dt,
                             seed=mc.seed)
    out = _out_dir(config)
    write_forest_csv(record, str(out / "forest.csv"))
    write_paths_csv(record, str(out / "paths.csv"))
    _write_sidecar(out, "simulate")
    print(f"simulated {len(record.particles)} particles to horizon {horizon} "
          f"-> {out / 'forest.csv'}")
    return EXIT_OK


def cmd_value(config: dict) -> int:
    spec = _spec(config)
    mc = _mc(config)
    rule_obj = config.get("rule")
    if rule_obj is None:
        raise ConfigError("config needs a 'rule' section for the value command")
    grid = None
    # a contact_set rule may also sit among the parts of a min_of rule
    if "contact_set" in json.dumps(rule_obj):
        grid = solve_scalar(spec, _solver_settings(config))
    rule = _rule(rule_obj, spec, grid)
    est = mc_value(spec, rule, _start(config, spec), mc.reps, mc.dt, mc.seed)
    out = _out_dir(config)
    est.write_json(str(out / "value.json"))
    _write_sidecar(out, "value")
    print(f"mean = {est.mean:.6g} +- {est.stderr:.2g} ({est.reps} reps) -> {out / 'value.json'}")
    return EXIT_OK


def cmd_verify(config: dict) -> int:
    spec = _spec(config)
    mc = _mc(config)
    ver = _section(config, "verify", fields=("epsilon", "sweep_times", "branch_window",
                                             "functional_horizon", "dpp_theta", "branching"))
    theta_spec = _section(ver, "dpp_theta", {"kind": "first_branch"})
    try:
        points = [float(x) for x in config.get("points", [0.0])]
        epsilon = float(ver.get("epsilon", 1e-3))
        sweep_times = [float(t) for t in ver.get("sweep_times", [mc.t_cut / 4, mc.t_cut / 2])]
        branch_window = float(ver.get("branch_window", 2.0))
        functional_horizon = float(ver.get("functional_horizon", 0.5))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"verify settings: {exc}") from exc
    grid = solve_scalar(spec, _solver_settings(config))
    theta = _rule({**theta_spec, "t_cut": mc.t_cut, "cut_policy": mc.cut_policy}, spec, grid)
    report = cross_validate(spec, grid, points, mc.reps, mc.dt, mc.seed, epsilon,
                            mc.t_cut, mc.cut_policy, sweep_times)
    for point in points:
        report.dpp.append(dpp_consistency(spec, grid, theta, point, mc.reps, mc.dt, mc.seed,
                                          epsilon))
    if ver.get("branching", False) and spec.alpha_bar > 0:
        report.branching = branching_property_test(
            spec, points[0], mc.reps, mc.dt, mc.seed,
            branch_window=branch_window,
            functional_horizon=functional_horizon,
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](config)
    except (ConfigError, ModelError, RewardError, StoppingError) as exc:
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
