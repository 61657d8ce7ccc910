import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stopline
from stopline import cli, pde
from stopline.cli import main
from stopline.labels import parse_label
from stopline.model import ModelSpec
from stopline.reward import mc_value
from stopline.stopping import rule_from_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# SHA-256 of the result files of the five commands on each shipped config, as
# `test_every_command_runs_on_every_shipped_config` runs them
SHIPPED_RESULT_DIGESTS = {
    "branching.json": "118673d7b8b0a402",
    "bump.json": "72d74b87ca518556",
    "poisson_check.json": "52ea1e290ccdee18",
    "put.json": "830605a7096a3535",
    "yule.json": "4e630a9b0d317cb0",
}


def run_cli(args):
    return main([str(a) for a in args])


def copy_config(tmp_path, name, **mutations):
    with open(CONFIGS / name) as f:
        config = json.load(f)
    for dotted, value in mutations.items():
        node = config
        keys = dotted.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    path = tmp_path / name
    config["outputs"] = str(tmp_path / "out")
    with open(path, "w") as f:
        json.dump(config, f)
    return path


def test_check_poisson_config_passes(tmp_path, capsys):
    cfg = copy_config(tmp_path, "poisson_check.json")
    assert run_cli(["check", cfg]) == 0
    out = json.loads((tmp_path / "out" / "check.json").read_text())
    assert out["assumptions"]["ok"]
    assert out["moment_report"]["M"] == pytest.approx(0.5)


def test_check_flags_alpha_violation(tmp_path):
    cfg = copy_config(tmp_path, "poisson_check.json", **{"model.alpha_bar": 0.2})
    assert run_cli(["check", cfg]) == 1


def test_check_gamma_warning_is_not_failure(tmp_path, capsys):
    cfg = copy_config(tmp_path, "poisson_check.json", **{"model.gamma": 0.01})
    assert run_cli(["check", cfg]) == 0
    assert "warning" in capsys.readouterr().out


def test_check_reports_the_contraction_factor_on_the_solver_grid(tmp_path, capsys):
    cfg = copy_config(tmp_path, "bump.json")
    assert run_cli(["check", cfg]) == 0
    assert run_cli(["solve", cfg]) == 0
    out = capsys.readouterr().out
    check = json.loads((tmp_path / "out" / "check.json").read_text())
    log = json.loads((tmp_path / "out" / "solver_log.json").read_text())
    level = log["levels"][0]
    assert check["contraction"] == level["contraction"] == pytest.approx(0.4)
    assert 0 < level["error_bound"] < log["settings"]["tol_fp"]
    assert "contraction factor on the solver grid = 0.4" in out
    assert f"contraction factor 0.4, error bound {level['error_bound']:.3g}" in out
    assert "warning" not in out.split("solved")[1]
    del check["contraction"]
    config = json.loads(cfg.read_text())
    del config["solver"]
    cfg.write_text(json.dumps(config))
    assert run_cli(["check", cfg]) == 0
    no_solver = json.loads((tmp_path / "out" / "check.json").read_text())
    assert no_solver.pop("contraction") is None
    assert no_solver == check


def test_step_ratio_above_the_contraction_factor_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pde, "contraction", lambda *args: 0.1)
    assert run_cli(["solve", copy_config(tmp_path, "bump.json")]) == 3
    assert capsys.readouterr().err.startswith("solver error: Picard step ratio")


def test_verify_reads_g_between_contact_nodes(tmp_path, capsys):
    # at 0.3, inside branching's contact region but off the 200-cell nodes,
    # the grid's interpolant lies below g, which every contact line scores
    cfg = copy_config(tmp_path, "branching.json")
    assert run_cli(["verify", cfg, "--set", "points=[0.3]", "--set", "solver.n_cells=200",
                    "--set", "mc.reps=40", "--set", "verify.branching=false"]) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    (point,), (dpp,) = report["points"], report["dpp"]
    assert point["gap"] == dpp["gap"] == 0.0 and point["estimate"]["stderr"] == 0.0


def test_missing_config_is_usage_error(tmp_path):
    assert run_cli(["check", tmp_path / "nope.json"]) == 2


def test_config_without_seed_rejected(tmp_path):
    cfg = copy_config(tmp_path, "poisson_check.json")
    with open(cfg) as f:
        obj = json.load(f)
    del obj["mc"]["seed"]
    with open(cfg, "w") as f:
        json.dump(obj, f)
    assert run_cli(["check", cfg]) == 2


def test_solve_constant_reward_grid(tmp_path):
    cfg = copy_config(tmp_path, "poisson_check.json", **{"model.gamma": 1.0})
    assert run_cli(["solve", cfg]) == 0
    with open(tmp_path / "out" / "grid.csv") as f:
        rows = list(csv.DictReader(f))
    vs = np.array([float(r["v"]) for r in rows])
    assert np.max(np.abs(vs - 1.0)) <= 1e-8
    log = json.loads((tmp_path / "out" / "solver_log.json").read_text())
    assert log["levels"][0]["contact_count"] == len(rows)


def test_simulate_writes_forest_and_paths(tmp_path):
    cfg = copy_config(tmp_path, "yule.json", **{"mc.reps": 10})
    assert run_cli(["simulate", cfg]) == 0
    with open(tmp_path / "out" / "forest.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["label"] == "∅"
    assert (tmp_path / "out" / "paths.csv").exists()
    assert (tmp_path / "out" / "simulate.meta.json").exists()


def test_value_trivial_root(tmp_path):
    cfg = copy_config(tmp_path, "bump.json",
                      **{"rule": {"kind": "trivial_root"},
                         "mc.reps": 25})
    assert run_cli(["value", cfg]) == 0
    est = json.loads((tmp_path / "out" / "value.json").read_text())
    assert est["mean"] == pytest.approx(0.8 * np.exp(-1.2**2), rel=1e-9)
    assert est["stderr"] == 0.0


def test_value_equals_api_estimate(tmp_path):
    cfg = copy_config(tmp_path, "bump.json", **{"mc.reps": 64})
    assert run_cli(["value", cfg]) == 0
    est = json.loads((tmp_path / "out" / "value.json").read_text())
    config = json.loads(cfg.read_text())
    mc = config["mc"]
    rule = rule_from_json(config["rule"], 1, mc["t_cut"], mc["cut_policy"])
    assert rule.kind == "fixed_time"
    start = (parse_label(config["start"]["label"]), np.asarray(config["start"]["x"], dtype=float))
    api = mc_value(ModelSpec.from_json(config["model"]), rule, start, 64, mc["dt"], mc["seed"])
    assert est["mean"] == api.mean
    assert est["stderr"] == api.stderr


@pytest.mark.parametrize("override, t_cut, cut_policy, mean", [
    ("mc.cut_policy=force_stop", 1.0, "force_stop", 0.18061310037115233),
    ("mc.t_cut=0.5", 0.5, "abandon", 0.973318856852148),
])
def test_value_cuts_its_lines_at_mc(tmp_path, override, t_cut, cut_policy, mean):
    cfg = copy_config(tmp_path, "poisson_check.json")
    assert run_cli(["value", cfg, "--set", override]) == 0
    est = json.loads((tmp_path / "out" / "value.json").read_text())
    assert (est["t_cut"], est["cut_policy"], est["mean"]) == (t_cut, cut_policy, mean)


def test_override_flag_changes_scalar(tmp_path):
    cfg = copy_config(tmp_path, "yule.json", **{"mc.reps": 5})
    assert run_cli(["simulate", cfg, "--set", "simulate.horizon=0.5"]) == 0
    with open(tmp_path / "out" / "forest.csv") as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        assert float(r["birth_time"]) <= 0.5


@pytest.mark.parametrize("command, override", [
    ("value", "mc.reps=1"),
    ("solve", "solver.n_cells=abc"),
    ("value", "mc.reps=abc"),
    ("value", "start.label=a.b"),
    ("value", 'model.drift={"kind":"constant"}'),
    ("value", "rule.t=abc"),
    ("verify", "points=[abc]"),
    ("value", "mc.reps=4.9"),
    ("value", "mc.seed=1.5"),
    ("solve", "solver.n_cells=400.7"),
    ("solve", "solver.k_max=64.5"),
    ("solve", "solver.max_picard=3.2"),
    ("value", "mc=3"),
    ("value", "outputs=3"),
    ("check", "check_grid=abc"),
    ("check", "check_grid=3"),
    ("check", "check_grid=[]"),
    ("verify", "points=[]"),
    ("verify", "verify.dpp_theta=3"),
    ("solve", "solver.omega=1.5"),
    ("solve", "solver.bc_hi=value"),
    ("solve", "solver.n_cells=2"),
    ("solve", "solver.x_hi=-9"),
    ("solve", "solver.tol_fp=0"),
    ("value", "start.label=3"),
    # a misspelt field is refused in every section, not read as its default
    ("value", "mc.cut_polcy=abandon"),
    ("verify", "verify.epsilom=0.001"),
    ("simulate", "simulate.horizn=1.0"),
    ("value", "start.lable=root"),
    ("value", 'model.reward.levels=[{"kind":"bump","a":0.8,"widht":3.0}]'),
    ("value", "rule.cut_polcy=force_stop"),
    # the cut is mc's alone: a rule that gives its own is refused, not obeyed
    ("value", "rule.t_cut=6.0"),
    ("value", 'strat={"x":[0.5]}'),
    ("verify", "verify.points=[0.5]"),
    # both legs would silently truncate a count above K_MAX to K_MAX
    ("solve", 'model.offspring={"kind":"deterministic","k0":100}'),
    ("value", 'model.offspring={"kind":"deterministic","k0":100}'),
    ("simulate", 'model.offspring={"kind":"deterministic","k0":100}'),
    # an exit_ball center must have the model's dimension, not be broadcast
    ("value", 'rule={"kind":"exit_ball","center":[0,0],"radius":1.0}'),
    ("value", 'rule={"kind":"min_of","parts":[{"kind":"never"},'
              '{"kind":"exit_ball","center":[],"radius":1.0}]}'),
    ("verify", 'verify.dpp_theta={"kind":"exit_ball","center":[0,0],"radius":1.0}'),
    # a NaN rule field would pass a "<= 0" test; a NaN contact epsilon never fires
    ("value", 'rule={"kind":"contact_set","epsilon":NaN}'),
    ("value", "mc.t_cut=NaN"),
    ("value", "rule.t=NaN"),
    # a NaN radius never fires, and a negative one stops every lineage at birth
    ("value", 'rule={"kind":"exit_ball","center":[0.0],"radius":NaN,"cap_t":NaN}'),
    ("value", 'rule={"kind":"exit_ball","center":[0.0],"radius":-1}'),
    # every number is read as finite, and every count as whole, before any work
    ("value", 'start={"x":[NaN]}'),
    ("value", 'model.diffusion={"kind":"constant","value":Infinity}'),
    ("value", 'rule={"kind":"exit_ball","center":[NaN],"radius":1.0}'),
    ("solve", "solver.x_lo=NaN"),
    ("solve", "solver.bc_hi_value=NaN"),
    ("solve", 'model.reward.levels=[{"kind":"bump","a":NaN}]'),
    ("solve", "model.gamma=NaN"),
    ("solve", "model.alpha_bar=NaN"),
    ("solve", "model.k_g=NaN"),
    ("value", 'model.offspring={"kind":"deterministic","k0":2.5}'),
    ("value", "model.dimension=1.5"),
    ("check", "check_grid=[NaN]"),
    ("check", 'model.offspring={"kind":"binary","p0":NaN,"p2":0.5}'),
    ("verify", "verify.epsilon=Infinity"),
    ("value", "mc.dt=NaN"),
    # a step that no line cut at mc.t_cut can take
    ("value", "mc.dt=10"),
    ("simulate", "simulate.horizon=NaN"),
    # a negative rate is a malformed model, not a solve that fails to converge
    ("solve", "model.branch_rate.value=-1"),
    ("check", 'model.branch_rate={"kind":"logistic","cap":-1}'),
    # a fixed_time rule below every birth time never fires
    ("value", "rule.t=-1"),
    # dpp_theta is cut at mc's t_cut under its cut_policy: a cut of its own is refused
    ("verify", 'verify.dpp_theta={"kind":"fixed_time","t":0.5,"t_cut":1,"cut_policy":"abandon"}'),
    ("verify", 'verify.dpp_theta={"kind":"fixed_time","t":0.5,"t_cut":6.0}'),
    ("verify", 'verify.dpp_theta={"kind":"first_branch","cut_policy":"force_stop"}'),
    # the solver is one-dimensional: a model it cannot take is a usage error
    ("solve", "model.dimension=2"),
    ("verify", "model.dimension=2"),
    # a start or a point that the model or the solver cannot take
    ("simulate", 'start={"x":[0.0,0.0]}'),
    ("value", 'start={"x":[0.0,0.0]}'),
    ("value", 'start={"x":[]}'),
    ("verify", "points=[99.0]"),
    ("verify", "points=[0.0,-8.5]"),
    # mc's cut is read, and refused, for every command
    ("check", "mc.cut_policy=bogus"),
    ("simulate", "mc.t_cut=-1"),
    ("verify", "mc.t_cut=0"),
])
def test_invalid_config_field_is_usage_error(tmp_path, capsys, command, override):
    cfg = copy_config(tmp_path, "bump.json")
    assert run_cli([command, cfg, "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("override", ["mc.t_cut=0", "mc.cut_policy=bogus"])
@pytest.mark.parametrize("command", ["check", "solve", "simulate", "value", "verify"])
def test_bad_cut_is_blamed_on_its_own_field(tmp_path, capsys, command, override):
    # not on mc.dt, which must lie below t_cut, nor on a rule built with the cut
    cfg = copy_config(tmp_path, "bump.json")
    assert run_cli([command, cfg, "--set", override]) == 2
    field = override.partition("=")[0].split(".")[1]
    assert capsys.readouterr().err.startswith(f"error: mc section: {field}: ")


@pytest.mark.parametrize("command, override", [
    ("simulate", "simulate.horizon=-1"),
    # more steps than MAX_STEPS would reach numpy, which refuses the arrays
    ("value", "mc.dt=1e-300"),
])
def test_unusable_simulation_time_is_validation_failure(tmp_path, capsys, command, override):
    cfg = copy_config(tmp_path, "bump.json", **{"mc.reps": 20})
    assert run_cli([command, cfg, "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("k0", [10, 64])
def test_check_accepts_deterministic_offspring_up_to_k_max(tmp_path, capsys, k0):
    # the audit sums a bounded pmf up to K_MAX, where the solver and the simulator stop
    cfg = copy_config(tmp_path, "bump.json",
                      **{"model.offspring": {"kind": "deterministic", "k0": k0}})
    assert run_cli(["check", cfg]) == 0
    captured = capsys.readouterr()
    assert "violation" not in captured.out and captured.err == ""
    check = json.loads((tmp_path / "out" / "check.json").read_text())
    assert check["assumptions"]["hard_violations"] == []


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_every_command_runs_on_every_shipped_config(tmp_path, name):
    cfg = copy_config(tmp_path, name)
    small = ["--set", "mc.reps=40", "--set", "simulate.horizon=0.5",
             "--set", "solver.n_cells=200"]
    for command in ("check", "solve", "simulate", "value", "verify"):
        assert run_cli([command, cfg, *small]) == 0, command
    # the result files, sidecars excluded, are pinned: a change that moves
    # any of them must re-pin its config's digest
    digest = hashlib.sha256()
    for path in sorted((tmp_path / "out").iterdir()):
        if not path.name.endswith(".meta.json"):
            named = f"{path.name}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\n"
            digest.update(named.encode())
    assert digest.hexdigest()[:16] == SHIPPED_RESULT_DIGESTS[name]


def test_override_edits_model_loaded_from_file(tmp_path):
    # --set model.<field> must edit the model a path names, not replace the path
    inline = copy_config(tmp_path, "bump.json", **{"mc.reps": 50})
    config = json.loads(inline.read_text())
    (tmp_path / "model.json").write_text(json.dumps(config["model"]))
    config["model"] = "model.json"
    config["outputs"] = str(tmp_path / "out_path")
    by_path = tmp_path / "by_path.json"
    by_path.write_text(json.dumps(config))
    for cfg in (inline, by_path):
        assert run_cli(["value", cfg, "--set", "model.gamma=2.0"]) == 0
    value = (tmp_path / "out" / "value.json").read_bytes()
    assert (tmp_path / "out_path" / "value.json").read_bytes() == value
    assert run_cli(["value", inline]) == 0
    assert (tmp_path / "out" / "value.json").read_bytes() != value


def test_outputs_naming_a_file_is_usage_error(tmp_path, capsys):
    cfg = copy_config(tmp_path, "bump.json")
    taken = tmp_path / "taken"
    taken.write_text("")
    for outputs in (taken, taken / "sub"):
        assert run_cli(["check", cfg, "--set", f"outputs={outputs}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert taken.read_text() == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_every_shipped_config_solves(tmp_path, name):
    cfg = copy_config(tmp_path, name, **{"solver.n_cells": 200})
    assert run_cli(["solve", cfg]) == 0


def test_solve_numerical_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(pde, "MAX_PICARD", 1)
    cfg = copy_config(tmp_path, "bump.json", **{"solver.n_cells": 400})
    assert run_cli(["solve", cfg]) == 3


# numpy's overflow warnings would reach stderr ahead of the one error line
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("override", ["model.drift.value=1e308", "model.diffusion.value=1e200"])
def test_a_stencil_that_overflows_is_a_solver_error(tmp_path, capsys, override):
    cfg = copy_config(tmp_path, "bump.json")
    assert run_cli(["solve", cfg, "--set", override]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver error: ") and err.count("\n") == 1


def test_determinism_byte_identical_outputs(tmp_path):
    cfg = copy_config(tmp_path, "bump.json",
                      **{"mc.reps": 50, "solver.n_cells": 400})
    assert run_cli(["solve", cfg]) == 0
    grid1 = (tmp_path / "out" / "grid.csv").read_bytes()
    log1 = (tmp_path / "out" / "solver_log.json").read_bytes()
    assert run_cli(["value", cfg]) == 0
    val1 = (tmp_path / "out" / "value.json").read_bytes()
    shutil.rmtree(tmp_path / "out")
    assert run_cli(["solve", cfg]) == 0
    assert run_cli(["value", cfg]) == 0
    assert (tmp_path / "out" / "grid.csv").read_bytes() == grid1
    assert (tmp_path / "out" / "solver_log.json").read_bytes() == log1
    assert (tmp_path / "out" / "value.json").read_bytes() == val1


def test_verify_small_run(tmp_path):
    cfg = copy_config(tmp_path, "bump.json",
                      **{"mc.reps": 400, "solver.n_cells": 800,
                         "points": [0.0], "verify.sweep_times": [0.5]})
    code = run_cli(["verify", cfg])
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert code == 0
    assert report["all_passed"]
    assert report["points"][0]["v_pde"] == pytest.approx(0.8, abs=1e-6)


def test_verify_runs_the_branching_test_when_asked(tmp_path):
    cfg = copy_config(tmp_path, "bump.json",
                      **{"mc.reps": 300, "solver.n_cells": 200, "points": [0.0],
                         "verify.sweep_times": [0.5], "verify.branching": True})
    assert run_cli(["verify", cfg]) == 0
    branching = json.loads((tmp_path / "out" / "verify.json").read_text())["branching"]
    assert branching["n_samples"] > 0 and not branching["insufficient"]


def test_branching_test_on_a_model_that_cannot_branch_is_usage_error(tmp_path, capsys):
    cfg = copy_config(tmp_path, "put.json", **{"mc.reps": 50, "verify.branching": True})
    assert run_cli(["verify", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "verify.branching" in err and "alpha_bar" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cut_policy", ["contact_set", "abandonn"])
def test_value_decides_to_solve_from_the_rule_kind(tmp_path, capsys, cut_policy):
    # no solver section: a rule with no contact part needs no solve, whatever the cut's text
    cfg = copy_config(tmp_path, "yule.json", **{"mc.cut_policy": cut_policy})
    config = json.loads(cfg.read_text())
    del config["solver"]
    cfg.write_text(json.dumps(config))
    assert run_cli(["value", cfg]) == 2
    assert capsys.readouterr().err == (f"error: mc section: cut_policy: {cut_policy!r} is "
                                       "neither 'abandon' nor 'force_stop'\n")


def test_value_refuses_a_malformed_part_before_asking_for_a_solve(tmp_path, capsys):
    # no solver section: the part read before the contact part is what is refused
    contact = {"kind": "contact_set", "epsilon": 0.0002}
    cfg = copy_config(tmp_path, "yule.json", rule={"kind": "min_of", "parts": [
        {"kind": "never", "cut_polcy": "abandon"}, contact]})
    config = json.loads(cfg.read_text())
    del config["solver"]
    cfg.write_text(json.dumps(config))
    assert run_cli(["value", cfg]) == 2
    err = capsys.readouterr().err
    assert err == "error: rule never has unknown field(s): cut_polcy\n"


CONTACT = 'rule={"kind":"contact_set","epsilon":0.0002}'


@pytest.mark.parametrize("command, overrides", [
    ("verify", ["points=[99.0]"]),
    ("value", [CONTACT, 'start={"x":[0.0,0.0]}']),
    ("verify", ['verify.dpp_theta={"kind":"fixed_time","tt":0.5}']),
    ("verify", ["mc.t_cut=0"]),
    ("value", ['rule={"kind":"contact_set","epsilon":0}']),
    # verify's Monte Carlo settings are read before the solve, not after it
    ("verify", ["verify.epsilon=0"]),
    ("verify", ["verify.epsilon=-0.001"]),
    ("verify", ["mc.dt=0"]),
    ("verify", ["mc.dt=-0.005"]),
    ("verify", ["mc.dt=6.0"]),
    ("verify", ["mc.reps=1"]),
    # and so are value's, for a contact rule that would be solved for
    ("value", [CONTACT, "mc.dt=0"]),
    ("value", [CONTACT, "mc.dt=10"]),
    ("value", [CONTACT, "mc.reps=1"]),
    # and so are the sweep's times and the branching test's settings
    ("verify", ["verify.sweep_times=[-1]"]),
    ("verify", ["verify.branching=true", "verify.branch_window=-1"]),
    ("verify", ["verify.branching=true", "verify.functional_horizon=-1"]),
    # a positive one that the branching test cannot draw in MAX_STEPS steps of mc.dt
    ("verify", ["verify.branching=true", "verify.branch_window=1e300"]),
    ("verify", ["verify.branching=true", "verify.functional_horizon=1e6"]),
])
def test_config_mistake_is_refused_before_the_solve(tmp_path, capsys, monkeypatch, command,
                                                    overrides):
    def solve(*args):
        raise AssertionError("solved before the config was refused")
    monkeypatch.setattr(cli, "solve_scalar", solve)
    cfg = copy_config(tmp_path, "bump.json")
    assert run_cli([command, cfg, *(arg for o in overrides for arg in ("--set", o))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_value_with_contact_rule_solves_grid(tmp_path):
    cfg = copy_config(tmp_path, "bump.json",
                      **{"rule": {"kind": "contact_set", "epsilon": 0.0002},
                         "mc.reps": 200, "solver.n_cells": 800,
                         "start": {"label": "∅", "x": [0.0]}})
    assert run_cli(["value", cfg]) == 0
    est = json.loads((tmp_path / "out" / "value.json").read_text())
    assert est["mean"] == pytest.approx(0.8)


def test_value_min_of_with_contact_part_solves_grid(tmp_path):
    contact = {"kind": "contact_set", "epsilon": 0.0002}
    fixed = {"kind": "fixed_time", "t": 0.5}
    cfg = copy_config(tmp_path, "bump.json",
                      **{"rule": {"kind": "min_of", "parts": [contact, fixed]},
                         "mc.reps": 20, "solver.n_cells": 200})
    assert run_cli(["value", cfg]) == 0


def test_no_writes_outside_output_dir(tmp_path, monkeypatch):
    cfg = copy_config(tmp_path, "yule.json", **{"mc.reps": 5})
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    before = set(workdir.iterdir())
    assert run_cli(["simulate", cfg]) == 0
    assert set(workdir.iterdir()) == before


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about a second of start-up and only the KS test uses
    # it; scipy.linalg is needed only once a solve starts
    src = str(Path(stopline.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, stopline, stopline.cli; "
            "print('scipy.stats' in sys.modules, 'scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False False"


# --- property: no config value escapes the exit codes ----------------------

def _leaves(node, prefix=()):
    """The dotted paths of a config's scalar and list fields, lists whole."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
# every field but outputs, which each example points at its own directory
FIELDS = [(name, path) for name, config in SHIPPED.items() for path in _leaves(config)
          if path != ("outputs",)]
BAD_VALUES = [math.nan, math.inf, -math.inf, 0, -1, "abc", True, None]


def _non_finite(path: Path):
    """(where, value) of each non-finite number a result file holds."""
    if path.suffix == ".json":
        found = []

        def walk(node, where):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, where + (key,))
            elif isinstance(node, list):
                for value in node:
                    walk(value, where)
            elif isinstance(node, float) and not math.isfinite(node):
                found.append((where, node))
        walk(json.loads(path.read_text()), ())
        return found
    with open(path) as f:
        rows = list(csv.DictReader(f))
    found = []
    for row in rows:
        for col, cell in row.items():
            try:
                x = float(cell)
            except ValueError:
                continue  # a label or a kind
            if not math.isfinite(x):
                found.append(((col, row.get("end_kind")), x))
    return found


# Non-finite numbers that a result file holds by its documented convention:
# a KS test with too few samples reports NaN and is marked insufficient; the
# uniqueness threshold is inf when the value bound is at most 1 (k_g = 1) or
# overflows, as that bound may; a particle alive at the horizon ends at inf.
def _documented(where, x, report):
    if where in (("branching", "ks_stat"), ("branching", "p_value")):
        return math.isnan(x) and report["branching"]["insufficient"]
    if where in (("moment_report", "gamma_threshold"), ("moment_report", "value_bound"),
                 ("moment_report", "C")):
        return x == math.inf
    return where == ("end_time", "alive_at_horizon") and x == math.inf


@settings(max_examples=200, deadline=None, derandomize=True)
@given(field=st.sampled_from(FIELDS),
       bad=st.sampled_from(BAD_VALUES + ["shorter", "longer"]),
       command=st.sampled_from(["check", "solve", "simulate", "value", "verify"]),
       reps=st.sampled_from([2, 16]), n_cells=st.sampled_from([40, 100]),
       horizon=st.sampled_from([0.25, 1.0]))
def test_any_bad_field_value_ends_in_an_exit_code(field, bad, command, reps, n_cells, horizon):
    name, path = field
    config = json.loads(json.dumps(SHIPPED[name]))
    config["mc"]["reps"], config["solver"]["n_cells"] = reps, n_cells
    config["simulate"] = {"horizon": horizon}
    node = config
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    if bad in ("shorter", "longer"):
        if not isinstance(old, list):
            bad = [old]  # a list where one value belongs
        else:
            bad = old[:-1] if bad == "shorter" else old + old[-1:]
    node[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        config["outputs"] = str(out)
        cfg = Path(tmp) / name
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, str(cfg)])
        # a refusal is one line; a failed check or verify reports on stdout
        assert code in (0, 1, 2, 3) and err.getvalue().count("\n") <= 1, err.getvalue()
        if code != 0:
            return
        for result in out.iterdir():
            if result.name.endswith(".meta.json"):
                continue
            report = json.loads(result.read_text()) if result.suffix == ".json" else None
            for where, x in _non_finite(result):
                assert _documented(where, x, report), (result.name, where, x)
