#!/usr/bin/env python3
"""Solve the non-branching geometric put model of configs/put.json and score
it against the closed form: prints each solve's seconds, nodewise error
quantiles and the free-boundary offset.

Usage: python scripts/run_put_benchmark.py [n_cells ...]
"""
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stopline.model import ModelSpec
from stopline.pde import SolverSettings, contact_boundary, solve_scalar


def closed_form(spec, xs):
    """Perpetual put with rate gamma, volatility and strike read off the model."""
    rate, vol = spec.gamma, spec.diffusion.rate
    strike = spec.reward_levels[0].strike
    beta = 2.0 * rate / vol**2
    xstar = beta * strike / (beta + 1.0)
    amp = (strike - xstar) * xstar**beta
    return np.where(xs <= xstar, strike - xs, amp * np.maximum(xs, 1e-300) ** (-beta)), xstar


def main(cells_list):
    with open(ROOT / "configs" / "put.json") as f:
        config = json.load(f)
    spec = ModelSpec.from_json(config["model"])
    for n_cells in cells_list:
        settings = SolverSettings(**{**config["solver"], "n_cells": n_cells})
        t0 = time.perf_counter()
        grid = solve_scalar(spec, settings)
        seconds = time.perf_counter() - t0
        vtrue, xstar = closed_form(spec, grid.xs)
        h = grid.xs[1] - grid.xs[0]
        away = np.abs(grid.xs - xstar) > 5 * h
        rel = np.abs(grid.values[0] - vtrue) / np.maximum(vtrue, 1e-12)
        cb = contact_boundary(grid)
        print(
            f"n_cells={n_cells:5d}  solve {seconds:.3f} s  max rel err (away from x*) = {np.max(rel[away]):.3e}  "
            f"median = {np.median(rel[away]):.3e}  "
            f"free boundary off by {abs(cb - xstar) / h:.2f} cells  "
            f"inner iterations = {grid.stats[0].psor_sweeps}"
        )


if __name__ == "__main__":
    cells = [int(a) for a in sys.argv[1:]] or [500, 1000, 2000]
    main(cells)
