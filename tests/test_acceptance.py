"""Acceptance suite: one test per shipped criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with pytest -s; the
test outcome itself mirrors it).  Statistical criteria run at fixed seeds
with |z| <= 3 or KS p >= 0.01 thresholds.
"""
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from stopline.cli import main as cli_main
from stopline.labels import MOTHER
from stopline.model import RewardFunction, moment_report, value_bound
from stopline.pde import SolverSettings, contact_boundary, solve_scalar
from stopline.reward import mc_value
from stopline.simulator import empirical_moment_bound_check, population_count, replication_seed, simulate_forests
from stopline.stopping import first_branch_rule, fixed_time_rule, trivial_root_rule
from stopline.verify import branching_property_test, cross_validate, dpp_consistency, subtree_reward_samples

from conftest import make_spec, put_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(num, desc, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {tag}: {desc} {detail}")
    assert passed, f"criterion {num}: {desc} {detail}"


@pytest.fixture(scope="module")
def bump_model():
    spec = make_spec(diffusion=("constant", 1.5), alpha=0.25,
                     offspring=("deterministic", 2), gamma=1.0,
                     rewards=(RewardFunction("bump", a=0.8, center=0.0, width=1.0),))
    grid = solve_scalar(spec, SolverSettings(x_lo=-8, x_hi=8, n_cells=1600))
    return spec, grid


def test_criterion_01_yule_mean():
    spec = make_spec(alpha=1.0, offspring=("deterministic", 2))
    reps = 10_000
    start = time.monotonic()
    records = simulate_forests(spec, [(MOTHER, [0.0])], horizon=1.0, dt=0.25,
                               seeds=[replication_seed(424242, r) for r in range(reps)])
    counts = np.array([population_count(rec, 1.0) for rec in records], dtype=float)
    elapsed = time.monotonic() - start
    se = counts.std(ddof=1) / math.sqrt(reps)
    gap = abs(counts.mean() - math.e)
    report(1, "Yule population mean matches e at t=1",
           gap <= 3 * se and elapsed < 60.0,
           f"(mean={counts.mean():.4f}, e={math.e:.4f}, 3se={3*se:.4f}, {elapsed:.1f}s)")


def test_criterion_02_exponential_moment_bound():
    spec = make_spec(alpha=0.3, offspring=("poisson", 0.5), gamma=5.0)
    mean, bound, ok = empirical_moment_bound_check(spec, K=2.0, t=1.0,
                                                   reps=10_000, seed=20240)
    report(2, "exponential moment of total births stays under its cap",
           ok and mean < bound,
           f"(mean={mean:.4f}, bound={bound})")


def test_criterion_03_classical_put_oracle(put_spec):
    v_far, xstar = put_oracle(np.array([4.0]))
    settings = SolverSettings(x_lo=1e-3, x_hi=4.0, n_cells=2000,
                              bc_hi_value=float(v_far[0]))
    grid = solve_scalar(put_spec, settings)
    vtrue, xstar = put_oracle(grid.xs)
    h = grid.xs[1] - grid.xs[0]
    mask = np.abs(grid.xs - xstar) > 5 * h
    rel = np.abs(grid.values[0] - vtrue) / np.maximum(vtrue, 1e-12)
    cb = contact_boundary(grid)
    report(3, "non-branching geometric model matches the put closed form",
           np.max(rel[mask]) < 0.01 and abs(cb - xstar) <= 2 * h,
           f"(max rel err={np.max(rel[mask]):.2%}, boundary off by {abs(cb-xstar)/h:.2f} cells)")


def test_criterion_04_alpha_invariance_single_offspring():
    rewards = (RewardFunction("bump", a=0.8, center=0.0, width=1.0),)
    tol_fp = 1e-8
    sols = []
    for a in (0.0, 0.5, 2.0):
        spec = make_spec(diffusion=("constant", 1.0), alpha=a,
                         alpha_bar=max(a, 1e-12),
                         offspring=("deterministic", 1), gamma=1.0, rewards=rewards)
        grid = solve_scalar(spec, SolverSettings(x_lo=-6, x_hi=6, n_cells=600,
                                                 tol_fp=tol_fp))
        sols.append(grid.values[0])
    worst = max(float(np.max(np.abs(s - sols[0]))) for s in sols[1:])
    report(4, "solutions are branch-rate invariant under single offspring",
           worst <= 10 * tol_fp, f"(max deviation={worst:.2e})")


def test_criterion_05_constant_obstacle():
    worst = 0.0
    all_contact = True
    for offspring in (("deterministic", 2), ("binary", (0.5, 0.5)), ("poisson", 0.5)):
        spec = make_spec(diffusion=("constant", 1.0), alpha=0.5, alpha_bar=0.5,
                         offspring=offspring, gamma=1.0,
                         rewards=(RewardFunction("constant", c=1.0),))
        grid = solve_scalar(spec, SolverSettings(x_lo=-3, x_hi=3, n_cells=150))
        worst = max(worst, float(np.max(np.abs(grid.values[0] - 1.0))))
        all_contact = all_contact and grid.stats[0].contact_count == len(grid.xs)
    report(5, "constant unit obstacle solves to the constant one",
           worst <= 1e-8 and all_contact, f"(max |v-1|={worst:.2e})")


def test_criterion_06_generation_collapse(bump_spec):
    g = bump_spec.reward_levels[0]
    spec_deep = make_spec(diffusion=("constant", 1.5), alpha=0.25,
                          offspring=("deterministic", 2), gamma=1.0,
                          rewards=(g, g, g, g))
    settings = SolverSettings(x_lo=-8, x_hi=8, n_cells=800,
                              tol_fp=1e-10)
    multi = solve_scalar(spec_deep, settings)
    scalar = solve_scalar(bump_spec, settings)
    worst = max(float(np.max(np.abs(multi.values[n] - scalar.values[0])))
                for n in range(multi.depth + 1))
    report(6, "equal per-generation rewards collapse to the scalar solve",
           worst <= 1e-8, f"(max level deviation={worst:.2e})")


def test_criterion_07_fixed_point_contraction():
    spec = make_spec(diffusion=("constant", 1.0), alpha=1e-12, alpha_bar=1e-12,
                     offspring=("binary", (0.5, 0.5)), gamma=5.0, k_g=2.0,
                     rewards=(RewardFunction("bump", a=2.0, center=0.0, width=1.0),))
    rep = moment_report(spec, C=0.0)
    grid = solve_scalar(spec, SolverSettings(x_lo=-6, x_hi=6, n_cells=600))
    stats = grid.stats[0]
    # monotone decrease up to the linear-solver tolerance
    monotone = all(s <= 1e-8 for s in stats.step_signed_max)
    ratios_ok = all(r < 1.0 for r in stats.step_ratios)
    report(7, "outer iteration contracts under the uniqueness condition",
           rep.unique_below_bound and monotone and ratios_ok
           and stats.picard_iterations <= 100 and not grid.warnings,
           f"(gamma={spec.gamma} > threshold={rep.gamma_threshold:.4f}, "
           f"iters={stats.picard_iterations}, "
           f"bound={value_bound(spec):.4f})")


def test_criterion_08_dpp_consistency(bump_model):
    spec, grid = bump_model
    reps, dt, eps = 10_000, 0.0025, 2e-4
    points = (0.8, 1.2, 2.0)
    all_ok = True
    details = []
    for theta_name, theta in (
        ("first_branch", first_branch_rule(t_cut=6.0, cut_policy="force_stop")),
        ("fixed_time(0.1)", fixed_time_rule(0.1, t_cut=0.3, cut_policy="force_stop")),
    ):
        for i, x in enumerate(points):
            chk = dpp_consistency(spec, grid, theta, x, reps, dt,
                                  seed=5150 + i, epsilon=eps)
            all_ok = all_ok and abs(chk.z) <= 3.0
            details.append(f"{theta_name}@{x}: z={chk.z:+.2f}")
    zero = dpp_consistency(spec, grid,
                           fixed_time_rule(0.0, t_cut=0.3, cut_policy="force_stop"),
                           1.2, reps=30, dt=dt, seed=3, epsilon=eps)
    exact = abs(zero.estimate.mean - grid.value_at_point(0, 1.2)) <= 1e-9
    report(8, "dynamic programming identity holds across intermediate rules",
           all_ok and exact, "(" + "; ".join(details) + ")")


def test_criterion_09_first_contact_optimality(bump_model):
    spec, grid = bump_model
    points = [-1.2, 0.0, 0.8, 1.2, 2.0]
    report_obj = cross_validate(spec, grid, points, reps=10_000, dt=0.0025,
                                seed=7071, epsilon=2e-4, t_cut=6.0,
                                cut_policy="force_stop", sweep_times=())
    zs = [p.z for p in report_obj.points]
    ok = all(abs(z) <= 3.0 for z in zs)
    # sweep at lighter replication: suboptimal rules must never beat the grid
    sweep_ok = True
    margins = []
    for t in (0.25, 0.5, 1.0):
        rule = fixed_time_rule(t, t_cut=t + 0.5, cut_policy="force_stop")
        for x in points:
            est = mc_value(spec, rule, (MOTHER, [x]), reps=2000, dt=0.005,
                           seed=881, rng_salt=f"sw{t}")
            margin = grid.value_at_point(0, x) - est.mean
            margins.append(margin)
            sweep_ok = sweep_ok and margin >= -3 * max(est.stderr, 1e-12)
    for x in points:
        est = mc_value(spec, trivial_root_rule(t_cut=0.5), (MOTHER, [x]),
                       reps=100, dt=0.005, seed=882)
        margin = grid.value_at_point(0, x) - est.mean
        margins.append(margin)
        sweep_ok = sweep_ok and margin >= -3 * max(est.stderr, 1e-12)
    report(9, "first-contact rule attains the solved value; others fall short",
           ok and sweep_ok,
           f"(z per point: {', '.join(f'{z:+.2f}' for z in zs)}; "
           f"min sweep margin={min(margins):+.4f})")


def test_criterion_10_branching_property():
    spec = make_spec(diffusion=("constant", 0.4), alpha=1.0,
                     offspring=("binary", (0.3, 0.7)), gamma=1.0,
                     rewards=(RewardFunction("bump", a=0.8, center=0.0, width=1.0),))
    result = branching_property_test(spec, point=0.3, reps=18_000, dt=0.02,
                                     seed=1881, branch_window=2.0,
                                     functional_horizon=0.5,
                                     max_samples=10_000)
    a, b = subtree_reward_samples(spec, point=0.3, reps=2_000, dt=0.02,
                                  seed=1881, branch_window=2.0,
                                  functional_horizon=0.5, shared_streams=True)
    control = len(a) >= 100 and np.array_equal(a, b)
    report(10, "subtree rewards match fresh-start rewards in law",
           (not result.insufficient) and result.n_samples >= 10_000
           and result.p_value >= 0.01 and control,
           f"(n={result.n_samples}, ks={result.ks_stat:.4f}, p={result.p_value:.3f}, "
           f"shared-stream control identical: {control})")


def test_criterion_11_determinism(tmp_path):
    with open(CONFIGS / "bump.json") as f:
        config = json.load(f)
    config["outputs"] = str(tmp_path / "out")
    config["mc"]["reps"] = 200
    config["solver"]["n_cells"] = 800
    cfg = tmp_path / "bump.json"
    with open(cfg, "w") as f:
        json.dump(config, f)
    outputs = {}
    for attempt in ("first", "second"):
        if (tmp_path / "out").exists():
            shutil.rmtree(tmp_path / "out")
        assert cli_main(["solve", str(cfg)]) == 0
        assert cli_main(["value", str(cfg)]) == 0
        outputs[attempt] = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("grid.csv", "solver_log.json", "value.json")
        }
    same = all(outputs["first"][k] == outputs["second"][k] for k in outputs["first"])
    report(11, "identical configs and seeds reproduce outputs byte for byte", same)
