#!/usr/bin/env python3
"""Full cross-validation demo on the bump model of configs/bump.json: solve
the obstacle PDE, check the first-contact rule and the dynamic-programming
identity by Monte Carlo, and run the subtree-law KS test on a branching model
that has no config.

Usage: python scripts/run_bump_verification.py [reps]
"""
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stopline.model import Coefficient, ModelSpec, Offspring, RateFunction, RewardFunction
from stopline.pde import SolverSettings, solve_scalar
from stopline.stopping import first_branch_rule
from stopline.verify import branching_property_test, cross_validate, dpp_consistency


def main(reps):
    with open(ROOT / "configs" / "bump.json") as f:
        config = json.load(f)
    spec = ModelSpec.from_json(config["model"])
    t0 = time.monotonic()
    grid = solve_scalar(spec, SolverSettings(**config["solver"]))
    print(f"solved in {time.monotonic() - t0:.1f}s; "
          f"contact nodes: {grid.stats[0].contact_count}/{len(grid.xs)}")

    points = [0.0, 0.8, 1.2, 2.0]
    report = cross_validate(spec, grid, points, reps=reps, dt=0.0025, seed=7071,
                            epsilon=2e-4, t_cut=6.0, cut_policy="force_stop",
                            sweep_times=(0.5,))
    for chk in report.points:
        print(f"x={chk.x:+.2f}: v={chk.v_pde:.5f}  mc={chk.estimate.mean:.5f} "
              f"+-{chk.estimate.stderr:.5f}  z={chk.z:+.2f} "
              f"[{'pass' if chk.passed else 'FAIL'}]")
    for entry in report.sweep:
        print(f"  sweep {entry.rule} at x={entry.x:+.2f}: margin={entry.margin:+.5f}")

    theta = first_branch_rule(t_cut=6.0, cut_policy="force_stop")
    for x in (1.2, 2.0):
        chk = dpp_consistency(spec, grid, theta, x, reps, dt=0.0025, seed=5150,
                              epsilon=2e-4)
        print(f"dpp first_branch at x={x:+.2f}: z={chk.z:+.2f} "
              f"[{'pass' if chk.passed else 'FAIL'}]")

    ks_spec = ModelSpec(
        dimension=1,
        drift=Coefficient("constant", value=0.0),
        diffusion=Coefficient("constant", value=0.4),
        branch_rate=RateFunction("constant", value=1.0),
        alpha_bar=1.0,
        offspring=Offspring("binary", p0=0.3, p2=0.7),
        gamma=1.0,
        reward_depth=0,
        reward_levels=(RewardFunction("bump", a=0.8, center=0.0, width=1.0),),
        k_g=1.0,
    )
    result = branching_property_test(ks_spec, point=0.3, reps=max(reps, 2000),
                                     dt=0.02, seed=1881, branch_window=2.0,
                                     functional_horizon=0.5)
    print(f"branching test: n={result.n_samples}  ks={result.ks_stat:.4f}  "
          f"p={result.p_value:.3f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4000)
