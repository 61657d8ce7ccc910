import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from stopline import pde
from stopline.model import ModelSpec, RewardFunction
from stopline.pde import (
    SolverError,
    SolverSettings,
    ValueGrid,
    contact_boundary,
    solve_scalar,
)

from conftest import make_spec, put_oracle


@pytest.mark.parametrize("offspring", [
    ("deterministic", 2), ("binary", (0.5, 0.5)), ("poisson", 0.5),
])
def test_constant_obstacle_solves_to_one(offspring):
    spec = make_spec(diffusion=("constant", 1.0), alpha=0.5, alpha_bar=0.5,
                     offspring=offspring, gamma=1.0,
                     rewards=(RewardFunction("constant", c=1.0),))
    grid = solve_scalar(spec, SolverSettings(x_lo=-2, x_hi=2, n_cells=120))
    assert np.max(np.abs(grid.values[0] - 1.0)) <= 1e-8
    assert grid.stats[0].contact_count == len(grid.xs)
    assert grid.stats[0].max_obstacle_violation <= 1e-12


def test_put_matches_closed_form(put_spec):
    vtrue_fn = put_oracle
    xs_hi = 4.0
    v_far, xstar = vtrue_fn(np.array([xs_hi]))
    settings = SolverSettings(x_lo=1e-3, x_hi=xs_hi, n_cells=1000,
                              bc_hi_value=float(v_far[0]))
    grid = solve_scalar(put_spec, settings)
    vtrue, xstar = vtrue_fn(grid.xs)
    h = grid.xs[1] - grid.xs[0]
    mask = np.abs(grid.xs - xstar) > 5 * h
    rel = np.abs(grid.values[0] - vtrue) / np.maximum(vtrue, 1e-12)
    assert np.max(rel[mask]) < 0.01
    cb = contact_boundary(grid)
    assert abs(cb - xstar) <= 2 * h


def put_settings(n_cells):
    v_far, _ = put_oracle(np.array([4.0]))
    return SolverSettings(x_lo=1e-3, x_hi=4.0, n_cells=n_cells,
                          bc_hi_value=float(v_far[0]))


def test_put_fine_grid_solves_within_criterion_03(put_spec):
    # 16000 cells is past where projected SOR ran out of sweeps.  From the
    # flat start a cold policy iteration needs about n/8 banded solves per
    # Picard step; the coarse-to-fine first policy needs a few per level.
    grid = solve_scalar(put_spec, put_settings(16000))
    assert max(grid.stats[0].psor_sweeps) <= 64
    vtrue, xstar = put_oracle(grid.xs)
    h = grid.xs[1] - grid.xs[0]
    mask = np.abs(grid.xs - xstar) > 5 * h
    rel = np.abs(grid.values[0] - vtrue) / np.maximum(vtrue, 1e-12)
    assert np.max(rel[mask]) < 0.01
    assert abs(contact_boundary(grid) - xstar) <= 2 * h


def test_put_boundary_bias_shrinks_with_domain(put_spec):
    # default obstacle boundary: truncation bias, measured by domain doubling
    errs = []
    for x_hi, n in ((4.0, 500), (8.0, 1000)):
        grid = solve_scalar(put_spec, SolverSettings(x_lo=1e-3, x_hi=x_hi,
                                                     n_cells=n))
        vtrue, _ = put_oracle(grid.xs)
        i = int(np.argmin(np.abs(grid.xs - 2.0)))
        errs.append(abs(grid.values[0][i] - vtrue[i]))
    assert errs[1] < 0.5 * errs[0]


def test_alpha_invariance_single_offspring():
    rewards = (RewardFunction("bump", a=0.8, center=0.0, width=1.0),)
    sols = []
    for a in (0.0, 0.5, 2.0):
        spec = make_spec(diffusion=("constant", 1.0), alpha=a, alpha_bar=max(a, 1e-9),
                         offspring=("deterministic", 1), gamma=1.0, rewards=rewards)
        grid = solve_scalar(spec, SolverSettings(x_lo=-6, x_hi=6, n_cells=400))
        sols.append(grid.values[0])
    tol_fp = 1e-8
    assert np.max(np.abs(sols[1] - sols[0])) <= 10 * tol_fp
    assert np.max(np.abs(sols[2] - sols[0])) <= 10 * tol_fp


def test_generation_collapse_equal_rewards(bump_spec):
    g = bump_spec.reward_levels[0]
    spec_deep = make_spec(diffusion=("constant", 1.5), alpha=0.25,
                          offspring=("deterministic", 2), gamma=1.0,
                          rewards=(g, g, g, g))
    settings = SolverSettings(x_lo=-8, x_hi=8, n_cells=400)
    multi = solve_scalar(spec_deep, settings)
    scalar = solve_scalar(bump_spec, settings)
    assert multi.depth == 3
    for n in range(4):
        assert np.max(np.abs(multi.values[n] - scalar.values[0])) <= 1e-8


def test_generation_monotone_in_obstacle():
    g_hi = RewardFunction("bump", a=0.8, center=0.0, width=1.0)
    g_lo = RewardFunction("bump", a=0.5, center=0.0, width=1.0)
    spec = make_spec(diffusion=("constant", 1.5), alpha=0.25,
                     offspring=("deterministic", 2), gamma=1.0,
                     rewards=(g_hi, g_lo))
    grid = solve_scalar(spec, SolverSettings(x_lo=-8, x_hi=8, n_cells=400))
    assert np.all(grid.values[0] >= grid.values[1] - 1e-10)


def test_solve_scalar_solves_every_reward_level(bump_spec):
    # a second reward level must come back as its own level, not replace level 0
    spec = dataclasses.replace(bump_spec, reward_depth=1, reward_levels=(
        bump_spec.reward_levels[0], RewardFunction("bump", a=0.5, center=0.0, width=1.0)))
    grid = solve_scalar(spec, SolverSettings(x_lo=-8, x_hi=8, n_cells=400))
    assert grid.depth == 1
    assert grid.value_at_point(0, 0.0) > grid.value_at_point(1, 0.0)


def test_generation_depth_one_unit_deep_level():
    g1 = RewardFunction("constant", c=1.0)
    g0 = RewardFunction("bump", a=0.8, center=0.0, width=1.0)
    spec = make_spec(diffusion=("constant", 1.0), alpha=0.5,
                     offspring=("deterministic", 2), gamma=1.0,
                     rewards=(g0, g1))
    grid = solve_scalar(spec, SolverSettings(x_lo=-6, x_hi=6, n_cells=300))
    assert np.max(np.abs(grid.values[1] - 1.0)) <= 1e-8
    # level 0 sees a plain source alpha * G(x, 1) = alpha
    assert np.all(grid.values[0] + 1e-12 >= grid.obstacles[0])


def test_value_bound_and_maximum_principle(bump_spec):
    grid = solve_scalar(bump_spec, SolverSettings(x_lo=-8, x_hi=8, n_cells=400))
    v = grid.values[0]
    assert np.all(v >= -1e-12)
    assert np.all(v <= 1.0 + 1e-8)
    assert np.all(v >= grid.obstacles[0] - 1e-10)


def test_picard_monotone_decrease_and_contraction(bump_spec):
    grid = solve_scalar(bump_spec, SolverSettings(x_lo=-8, x_hi=8, n_cells=400))
    ratios = grid.stats[0].step_ratios
    assert ratios, "expected at least two Picard steps"
    assert all(r < 1.0 for r in ratios)


def test_complementarity_residuals(bump_spec):
    grid = solve_scalar(bump_spec, SolverSettings(x_lo=-8, x_hi=8, n_cells=800))
    rep = grid.stats[0]
    assert rep.max_obstacle_violation <= 1e-12
    assert rep.max_residual_noncontact <= 1e-5
    assert rep.min_residual_contact >= -1e-5
    assert 0 < rep.contact_count < len(grid.xs)


def test_grid_refinement_improves_put(put_spec):
    errs = []
    for n in (250, 500):
        v_far, xstar = put_oracle(np.array([4.0]))
        grid = solve_scalar(put_spec, SolverSettings(
            x_lo=1e-3, x_hi=4.0, n_cells=n, bc_hi_value=float(v_far[0])))
        vtrue, xstar = put_oracle(grid.xs)
        h = grid.xs[1] - grid.xs[0]
        mask = np.abs(grid.xs - xstar) > 8 * h
        errs.append(np.max(np.abs(grid.values[0] - vtrue)[mask]))
    assert errs[1] < errs[0]


def test_value_bound_overflow_raises():
    spec = make_spec(diffusion=("constant", 1.0), alpha=0.5,
                     offspring=("binary", (0.5, 0.5)), gamma=1.0, k_g=2.0,
                     rewards=(RewardFunction("constant", c=1.0),))
    with pytest.raises(SolverError):
        solve_scalar(spec, SolverSettings(x_lo=-2, x_hi=2, n_cells=50))


def test_interpolation_and_containment(bump_spec):
    grid = solve_scalar(bump_spec, SolverSettings(x_lo=-8, x_hi=8, n_cells=200))
    xs = np.array([-9.0, 0.0, 8.0, 9.0])
    inside = grid.contains(xs)
    assert inside.tolist() == [False, True, True, False]
    mid = 0.5 * (grid.xs[3] + grid.xs[4])
    expect = 0.5 * (grid.values[0][3] + grid.values[0][4])
    assert grid.values_at(0, np.array([mid]))[0] == approx(expect)


def test_grid_csv_roundtrip_values(tmp_path, bump_spec):
    grid = solve_scalar(bump_spec, SolverSettings(x_lo=-8, x_hi=8, n_cells=100))
    path = tmp_path / "grid.csv"
    grid.write_csv(str(path))
    import csv

    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(grid.xs)
    assert float(rows[0]["x"]) == approx(grid.x_lo)
    assert float(rows[50]["v"]) == approx(grid.values[0][50])


@pytest.mark.parametrize("model,n_cells", [
    ("put", 4000), ("put", 1001), ("bump", 1600), ("depth1", 1600),
])
def test_cascade_equals_cold_start(model, n_cells, put_spec, bump_spec, monkeypatch):
    # The coarse grids only choose where policy iteration starts; with the
    # floor out of reach every solve starts cold from v0, as a single grid.
    if model == "put":
        spec, settings = put_spec, put_settings(n_cells)
    else:
        spec = bump_spec if model == "bump" else dataclasses.replace(
            bump_spec, reward_depth=1, reward_levels=bump_spec.reward_levels
            + (RewardFunction("bump", a=0.5, center=0.0, width=1.0),))
        settings = SolverSettings(x_lo=-8, x_hi=8, n_cells=n_cells)
    fast = solve_scalar(spec, settings)
    monkeypatch.setattr(pde, "_COARSEST_CELLS", 10 * n_cells)
    cold = solve_scalar(spec, settings)
    assert np.array_equal(fast.values, cold.values)
    assert np.array_equal(fast.contact, cold.contact)
    for f, c in zip(fast.stats, cold.stats):
        assert f.step_norms == c.step_norms
    assert sum(fast.stats[-1].psor_sweeps) < sum(cold.stats[-1].psor_sweeps)


@pytest.mark.parametrize("model,n_cells", [
    ("bump", 401), ("bump", 1600), ("bump", 6400), ("depth1", 1001), ("put", 4000),
])
def test_warm_picard_steps_equal_cascade_every_step(model, n_cells, put_spec, bump_spec,
                                                    monkeypatch):
    # From Picard step 3 on a solve starts at the previous step's obstacle
    # rows; the policy iteration still ends on the exact solution.
    if model == "put":
        spec, settings = put_spec, put_settings(n_cells)
    else:
        spec = bump_spec if model == "bump" else dataclasses.replace(
            bump_spec, reward_depth=1, reward_levels=bump_spec.reward_levels
            + (RewardFunction("bump", a=0.5, center=0.0, width=1.0),))
        settings = SolverSettings(x_lo=-8, x_hi=8, n_cells=n_cells)
    warm = solve_scalar(spec, settings)
    solve = pde._solve_lcp
    monkeypatch.setattr(pde, "_solve_lcp", lambda *args: solve(*args[:5]))
    cascade = solve_scalar(spec, settings)
    assert np.array_equal(warm.values, cascade.values)
    assert np.array_equal(warm.obstacles, cascade.obstacles)
    assert np.array_equal(warm.contact, cascade.contact)
    for w, c in zip(warm.stats, cascade.stats):
        assert (w.step_norms, w.step_signed_max) == (c.step_norms, c.step_signed_max)
        assert w.psor_sweeps[:2] == c.psor_sweeps[:2]
        assert all(a <= b for a, b in zip(w.psor_sweeps, c.psor_sweeps))
    if warm.stats[-1].picard_iterations > 2:
        assert sum(warm.stats[-1].psor_sweeps) < sum(cascade.stats[-1].psor_sweeps)


@pytest.mark.parametrize("n_cells,boundary", [
    (2000, 0.384904), (4000, 0.384904), (8000, 0.384404125),
])
def test_put_contact_boundary_pinned(put_spec, n_cells, boundary):
    assert contact_boundary(solve_scalar(put_spec, put_settings(n_cells))) == boundary


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# SHA-256 of grid.values and each level's policy iterations on the benchmark's
# grids, the configs' other solver settings kept; computed with the
# scipy.linalg.solve_banded call that LAPACK dgtsv replaced, whose coarse
# cascade is six grids deep on put and five on bump
BENCHMARK_GRID_PINS = {
    ("put.json", 4000): ("76cf692b12810d5d5b4de2261e3f6f5bd10609adb15476d6acf385ca3825dfa5",
                         [[27, 11]]),
    ("bump.json", 1600): ("9c54c7e85d70d199325e27624f585eb76f5385f76a46f3a6bd7e314d47a9fd68",
                          [[13, 13, 3, 1, 1, 1, 1, 1]]),
}


@pytest.mark.parametrize("name,n_cells", sorted(BENCHMARK_GRID_PINS))
def test_benchmark_grids_are_pinned(name, n_cells):
    config = json.loads((CONFIGS / name).read_text())
    grid = solve_scalar(ModelSpec.from_json(config["model"]),
                        SolverSettings(**{**config["solver"], "n_cells": n_cells}))
    values_sha, iterations = BENCHMARK_GRID_PINS[name, n_cells]
    assert hashlib.sha256(grid.values.tobytes()).hexdigest() == values_sha
    assert [s.psor_sweeps for s in grid.stats] == iterations


def banded_policy_iteration(stencil, source, g, v0, bc_vals, obstacle):
    """pde._policy_iteration as it was with scipy.linalg.solve_banded."""
    from scipy.linalg import solve_banded

    n = len(g)
    v = v0.copy()
    v[0], v[-1] = bc_vals
    if obstacle is None:
        obstacle = v[1:-1] - g[1:-1] < pde._lcp_residual(stencil, source, v)
    for it in range(1, n + 1):
        v[1:-1] = np.where(obstacle, g[1:-1], 0.0)
        coupled = ~obstacle[1:] & ~obstacle[:-1]
        ab = np.zeros((3, n - 2))
        ab[0, 1:] = np.where(coupled, -stencil.upper[1:-2], 0.0)
        ab[1] = np.where(obstacle, 1.0, stencil.diag[1:-1])
        ab[2, :-1] = np.where(coupled, -stencil.lower[2:-1], 0.0)
        rhs = np.where(obstacle, g[1:-1],
                       source[1:-1] + stencil.lower[1:-1] * v[:-2] + stencil.upper[1:-1] * v[2:])
        v[1:-1] = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True)
        new = v[1:-1] - g[1:-1] < pde._lcp_residual(stencil, source, v)
        if np.array_equal(new, obstacle):
            return v, obstacle, it
        obstacle = new
    raise SolverError(f"policy iteration did not settle within {n} iterations")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(unknowns=st.integers(3, 60), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 1e3, 1e7]), first=st.sampled_from(["none", "all", "random"]))
def test_policy_iteration_equals_the_banded_solve(unknowns, seed, scale, first):
    # random M-matrix stencils, some rows without a neighbour on one side
    rng = np.random.default_rng(seed)
    n = unknowns + 2
    lower, upper = (rng.uniform(0.0, scale, n) * (rng.random(n) < 0.9) for _ in range(2))
    diag = lower + upper + rng.uniform(0.01, 2.0, n)
    stencil = pde._Stencil(xs=np.arange(float(n)), diag=diag, lower=lower, upper=upper,
                           alpha=np.zeros(n))
    g, source, v0 = rng.normal(size=n), rng.normal(0.0, scale, n), rng.normal(size=n)
    bc_vals = tuple(rng.normal(size=2))
    obstacle = {"none": None, "all": np.ones(unknowns, dtype=bool),
                "random": rng.random(unknowns) < 0.5}[first]
    args = (stencil, source, g, v0, bc_vals)
    v, rows, iterations = pde._policy_iteration(*args, None if obstacle is None
                                                else obstacle.copy())
    v_ref, rows_ref, iterations_ref = banded_policy_iteration(*args, obstacle)
    assert v.tobytes() == v_ref.tobytes()
    assert np.array_equal(rows, rows_ref)
    assert iterations == iterations_ref
