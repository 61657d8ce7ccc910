import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from stopline.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
                      **{"rule": {"kind": "trivial_root", "t_cut": 6.0},
                         "mc.reps": 25})
    assert run_cli(["--threads", "1", "value", cfg]) == 0
    est = json.loads((tmp_path / "out" / "value.json").read_text())
    assert est["mean"] == pytest.approx(0.8 * np.exp(-1.2**2), rel=1e-9)
    assert est["stderr"] == 0.0


def test_value_threads_do_not_change_result(tmp_path):
    base = copy_config(tmp_path, "bump.json", **{"mc.reps": 64})
    assert run_cli(["--threads", "1", "value", base]) == 0
    one = (tmp_path / "out" / "value.json").read_text()
    assert run_cli(["--threads", "4", "value", base]) == 0
    four = (tmp_path / "out" / "value.json").read_text()
    assert one == four


def test_override_flag_changes_scalar(tmp_path):
    cfg = copy_config(tmp_path, "yule.json", **{"mc.reps": 5})
    assert run_cli(["simulate", cfg, "--set", "simulate.horizon=0.5"]) == 0
    with open(tmp_path / "out" / "forest.csv") as f:
        rows = list(csv.DictReader(f))
    for r in rows:
        assert float(r["birth_time"]) <= 0.5


def test_solve_numerical_failure_exit_code(tmp_path):
    cfg = copy_config(tmp_path, "bump.json",
                      **{"solver.max_picard": 1, "solver.n_cells": 400})
    assert run_cli(["solve", cfg]) == 3


def test_determinism_byte_identical_outputs(tmp_path):
    cfg = copy_config(tmp_path, "bump.json",
                      **{"mc.reps": 50, "solver.n_cells": 400})
    assert run_cli(["solve", cfg]) == 0
    grid1 = (tmp_path / "out" / "grid.csv").read_bytes()
    log1 = (tmp_path / "out" / "solver_log.json").read_bytes()
    assert run_cli(["--threads", "2", "value", cfg]) == 0
    val1 = (tmp_path / "out" / "value.json").read_bytes()
    shutil.rmtree(tmp_path / "out")
    assert run_cli(["solve", cfg]) == 0
    assert run_cli(["--threads", "2", "value", cfg]) == 0
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


def test_value_with_contact_rule_solves_grid(tmp_path):
    cfg = copy_config(tmp_path, "bump.json",
                      **{"rule": {"kind": "contact_set", "epsilon": 0.0002,
                                  "t_cut": 6.0, "cut_policy": "force_stop"},
                         "mc.reps": 200, "solver.n_cells": 800,
                         "start": {"label": "∅", "x": [0.0]}})
    assert run_cli(["--threads", "1", "value", cfg]) == 0
    est = json.loads((tmp_path / "out" / "value.json").read_text())
    assert est["mean"] == pytest.approx(0.8)


def test_value_min_of_with_contact_part_solves_grid(tmp_path):
    contact = {"kind": "contact_set", "epsilon": 0.0002, "t_cut": 6.0,
               "cut_policy": "force_stop"}
    fixed = {"kind": "fixed_time", "t": 0.5, "t_cut": 6.0, "cut_policy": "force_stop"}
    cfg = copy_config(tmp_path, "bump.json",
                      **{"rule": {"kind": "min_of", "t_cut": 6.0, "parts": [contact, fixed]},
                         "mc.reps": 20, "solver.n_cells": 200})
    assert run_cli(["--threads", "1", "value", cfg]) == 0


def test_no_writes_outside_output_dir(tmp_path, monkeypatch):
    cfg = copy_config(tmp_path, "yule.json", **{"mc.reps": 5})
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    before = set(workdir.iterdir())
    assert run_cli(["simulate", cfg]) == 0
    assert set(workdir.iterdir()) == before
