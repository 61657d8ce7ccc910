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
import inspect
import json
import platform
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .labels import MOTHER, Label, parse_label
from .model import (ModelError, ModelSpec, check_assumptions, finite, finites, moment_report,
                    of_type, read_fields, text, whole, write_json)
from .pde import SolverError, SolverSettings, solve_scalar
from .reward import RewardError, mc_value
from .simulator import SimulationError, simulate_forest, write_forest_csv, write_paths_csv
from .stopping import StoppingError, rule_from_json
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


def _record(cls, where: str, **read):
    """The reader of a config section into `cls`, through the field table of
    its parameters: each is read as a finite number unless `read` names its
    reader, and one with a default may be left out."""
    params = inspect.signature(cls).parameters
    table = {f: read.get(f, finite) for f in params}
    optional = [f for f, param in params.items() if param.default is not param.empty]
    return lambda obj: cls(**read_fields(obj, table, optional, where, ConfigError))


class _Mc(NamedTuple):
    seed: int  # required: wall-clock seeding is not supported
    reps: int = 1000
    dt: float = 0.01
    t_cut: float = 1.0
    cut_policy: str = "force_stop"


class _Start(NamedTuple):
    x: tuple
    label: Label = MOTHER


class _Simulate(NamedTuple):
    horizon: Optional[float] = None  # mc.t_cut


class _Verify(NamedTuple):
    epsilon: float = 1e-3
    sweep_times: Optional[tuple] = None  # t_cut / 4 and t_cut / 2
    branch_window: float = 2.0
    functional_horizon: float = 0.5
    dpp_theta: dict = {"kind": "first_branch"}
    branching: bool = False


class Config(NamedTuple):
    """A run config as read; `rule` stays JSON, as a contact rule needs a grid."""

    model: ModelSpec
    mc: _Mc
    solver: Optional[SolverSettings] = None
    rule: Optional[dict] = None
    start: Optional[_Start] = None  # the root at the origin
    points: tuple = (0.0,)
    verify: _Verify = _Verify()
    simulate: _Simulate = _Simulate()
    check_grid: tuple = tuple(np.linspace(-5.0, 5.0, 41))
    outputs: str = "out"


_read_config = _record(
    Config, "config",
    model=ModelSpec.from_json,
    mc=_record(_Mc, "mc section", seed=whole, reps=whole, cut_policy=text),
    solver=_record(SolverSettings, "solver section", n_cells=whole),
    rule=of_type(dict),
    start=_record(_Start, "start section", x=finites, label=lambda s: parse_label(text(s))),
    points=finites, check_grid=finites, outputs=text,
    verify=_record(_Verify, "verify section", sweep_times=finites, dpp_theta=of_type(dict),
                   branching=of_type(bool)),
    simulate=_record(_Simulate, "simulate section"),
)


def _load_model_file(config: dict, base: Path) -> None:
    """Replace a model given as a file path, relative to `base`, by its contents."""
    if isinstance(config.get("model"), str):
        with open(base / config["model"]) as f:
            config["model"] = json.load(f)


def load_config(path: str, overrides: Sequence[str] = ()) -> Config:
    """Read a run config; every field but the rule's is read here."""
    p = Path(path)
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
    _load_model_file(config, p.parent)  # a model path set by --set
    config = _read_config(config)
    # refuse before any work: the directory is made only when results are written
    out = Path(config.outputs)
    nearest = next(d for d in (out, *out.parents) if d.exists())
    if not nearest.is_dir():
        raise ConfigError(f"outputs {config.outputs!r} cannot be a directory: {nearest} is a file")
    return config


def _solver(config: Config) -> SolverSettings:
    if config.solver is None:
        raise ConfigError("config needs a 'solver' section for a solve")
    return config.solver


def _start(config: Config) -> Tuple[Label, np.ndarray]:
    dimension = config.model.dimension
    start = config.start or _Start((0.0,) * dimension)
    if len(start.x) != dimension:
        raise ConfigError(f"start.x has {len(start.x)} coordinate(s), "
                          f"the model has dimension {dimension}")
    return start.label, np.asarray(start.x, dtype=float)


def _out_dir(config: Config) -> Path:
    out = Path(config.outputs)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_sidecar(out: Path, command: str) -> None:
    write_json(out / f"{command}.meta.json", {
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "host": platform.node(),
        "python": platform.python_version(),
    })


def cmd_check(config: Config) -> int:
    if not config.check_grid:
        raise ConfigError("check_grid must list at least one point")
    report = moment_report(config.model)
    audit = check_assumptions(config.model, np.array(config.check_grid))
    out = _out_dir(config)
    write_json(out / "check.json",
               {"moment_report": report.to_json(), "assumptions": audit.to_json()})
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


def cmd_solve(config: Config) -> int:
    grid = solve_scalar(config.model, _solver(config))
    out = _out_dir(config)
    grid.write_csv(str(out / "grid.csv"))
    write_json(out / "solver_log.json", grid.log_json())
    _write_sidecar(out, "solve")
    for w in grid.warnings:
        print(f"warning: {w}")
    print(f"solved {grid.depth + 1} level(s) on [{grid.x_lo}, {grid.x_hi}] "
          f"with {grid.n_cells} cells -> {out / 'grid.csv'}")
    return EXIT_OK


def cmd_simulate(config: Config) -> int:
    mc = config.mc
    horizon = mc.t_cut if config.simulate.horizon is None else config.simulate.horizon
    record = simulate_forest(config.model, [_start(config)], horizon=horizon, dt=mc.dt,
                             seed=mc.seed)
    out = _out_dir(config)
    write_forest_csv(record, str(out / "forest.csv"))
    write_paths_csv(record, str(out / "paths.csv"))
    _write_sidecar(out, "simulate")
    print(f"simulated {len(record.particles)} particles to horizon {horizon} "
          f"-> {out / 'forest.csv'}")
    return EXIT_OK


def cmd_value(config: Config) -> int:
    spec, mc = config.model, config.mc
    if config.rule is None:
        raise ConfigError("config needs a 'rule' section for the value command")
    start = _start(config)
    rule = rule_from_json(config.rule, spec.dimension, lambda: solve_scalar(spec, _solver(config)))
    est = mc_value(spec, rule, start, mc.reps, mc.dt, mc.seed)
    out = _out_dir(config)
    est.write_json(str(out / "value.json"))
    _write_sidecar(out, "value")
    print(f"mean = {est.mean:.6g} +- {est.stderr:.2g} ({est.reps} reps) -> {out / 'value.json'}")
    return EXIT_OK


def cmd_verify(config: Config) -> int:
    spec, mc, ver, points = config.model, config.mc, config.verify, config.points
    if not points:
        raise ConfigError("points must list at least one point")
    if ver.branching and not spec.alpha_bar > 0:
        raise ConfigError("verify.branching needs a model that branches, and alpha_bar is "
                          f"{spec.alpha_bar:g}")
    taken = sorted({"t_cut", "cut_policy"} & set(ver.dpp_theta))
    if taken:
        raise ConfigError(f"verify.dpp_theta has field(s) {', '.join(taken)}, "
                          "which it takes from mc")
    solver = _solver(config)
    outside = [x for x in points if not solver.x_lo <= x <= solver.x_hi]
    if outside:
        raise ConfigError(f"point {outside[0]} lies outside the solver domain "
                          f"[{solver.x_lo}, {solver.x_hi}]")
    sweep_times = (mc.t_cut / 4, mc.t_cut / 2) if ver.sweep_times is None else ver.sweep_times
    grid = solve_scalar(spec, solver)
    theta = rule_from_json({**ver.dpp_theta, "t_cut": mc.t_cut, "cut_policy": mc.cut_policy},
                           spec.dimension, lambda: grid)
    report = cross_validate(spec, grid, points, mc.reps, mc.dt, mc.seed, ver.epsilon,
                            mc.t_cut, mc.cut_policy, sweep_times)
    for point in points:
        report.dpp.append(dpp_consistency(spec, grid, theta, point, mc.reps, mc.dt, mc.seed,
                                          ver.epsilon))
    if ver.branching:
        report.branching = branching_property_test(
            spec, points[0], mc.reps, mc.dt, mc.seed,
            branch_window=ver.branch_window,
            functional_horizon=ver.functional_horizon,
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
    except (ConfigError, ModelError, SolverError, json.JSONDecodeError, OSError) as exc:
        # no solve runs here: settings the solver refuses are a config mistake
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
