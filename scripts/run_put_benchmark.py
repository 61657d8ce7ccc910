#!/usr/bin/env python3
"""Solve the non-branching geometric put model and score it against the
closed form: prints nodewise error quantiles and the free-boundary offset.

Usage: python scripts/run_put_benchmark.py [n_cells ...]
"""
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stopline.model import Coefficient, ModelSpec, Offspring, RateFunction, RewardFunction
from stopline.pde import SolverSettings, contact_boundary, solve_scalar

R_RATE, VOL, STRIKE = 0.05, 0.4, 1.0


def closed_form(xs):
    beta = 2.0 * R_RATE / VOL**2
    xstar = beta * STRIKE / (beta + 1.0)
    amp = (STRIKE - xstar) * xstar**beta
    return np.where(xs <= xstar, STRIKE - xs, amp * np.maximum(xs, 1e-300) ** (-beta)), xstar


def main(cells_list):
    spec = ModelSpec(
        dimension=1,
        drift=Coefficient("linear", rate=R_RATE),
        diffusion=Coefficient("linear", rate=VOL),
        branch_rate=RateFunction("constant", value=0.0),
        alpha_bar=0.0,
        offspring=Offspring("deterministic", k0=1),
        gamma=R_RATE,
        reward_depth=0,
        reward_levels=(RewardFunction("clipped_put", strike=STRIKE, clip=STRIKE),),
        k_g=STRIKE,
    )
    far_value, _ = closed_form(np.array([4.0]))
    for n_cells in cells_list:
        settings = SolverSettings(
            x_lo=1e-3, x_hi=4.0, n_cells=n_cells,
            bc_hi="value", bc_hi_value=float(far_value[0]),
        )
        grid = solve_scalar(spec, settings)
        vtrue, xstar = closed_form(grid.xs)
        h = grid.xs[1] - grid.xs[0]
        away = np.abs(grid.xs - xstar) > 5 * h
        rel = np.abs(grid.values[0] - vtrue) / np.maximum(vtrue, 1e-12)
        cb = contact_boundary(grid)
        print(
            f"n_cells={n_cells:5d}  max rel err (away from x*) = {np.max(rel[away]):.3e}  "
            f"median = {np.median(rel[away]):.3e}  "
            f"free boundary off by {abs(cb - xstar) / h:.2f} cells  "
            f"inner iterations = {grid.stats[0].psor_sweeps}"
        )


if __name__ == "__main__":
    cells = [int(a) for a in sys.argv[1:]] or [500, 1000, 2000]
    main(cells)
