"""The benchmark's workloads, driven through the public stopline API.

put_solve     the perpetual-put obstacle solve of configs/put.json at 4000
              cells, checked against the closed form (criterion 03).
bump_verify   the `stopline verify configs/bump.json` pipeline: solve, then
              cross-validate at x = 0.0 and x = 2.0 and test the
              dynamic-programming identity at x = 2.0.
branching_ks  the branching-property KS test of criterion 10 and its
              shared-stream positive control.

Each workload has a plain pass (`run`) that calls the public estimators,
and a traced pass (`run_traced`) that re-drives the estimators' loops from
`simulate_forest`, `evaluate_line`, `reward_of_outcome` / `dpp_product`
and `replication_seed` with the same keys, inside spans.  Both passes
return the same named numbers, which the run compares bit for bit, so the
trace measures the same work as the plain pass.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from stopline import (
    MOTHER,
    ModelSpec,
    SolverSettings,
    evaluate_line,
    first_branch_rule,
    fixed_time_rule,
    reward_of_outcome,
    simulate_forest,
    solve_scalar,
    trivial_root_rule,
)
from stopline.pde import contact_boundary
from stopline.reward import dpp_product, estimate_from_samples
from stopline.simulator import replication_seed
from stopline.stopping import FORCE_STOP, contact_set_rule
from stopline.verify import (
    KS_P_THRESHOLD,
    Z_THRESHOLD,
    _extract_subtree,
    branching_property_test,
    cross_validate,
    dpp_consistency,
    subtree_reward_samples,
)

# replication counts and grids per scale; "tiny" is for the self-test
SIZES = {
    "full": {"put_cells": 4000, "bump_cells": 1600, "bump_reps": 500,
             "ks_reps": 2000, "control_reps": 500},
    "tiny": {"put_cells": 800, "bump_cells": 400, "bump_reps": 160,
             "ks_reps": 250, "control_reps": 200},
}
MIN_KS_SAMPLES = 100  # branching_property_test's default min_samples

# criterion 10's model: binary offspring, unit branch rate, bump reward
BRANCHING_MODEL = {
    "dimension": 1,
    "drift": {"kind": "constant", "value": 0.0},
    "diffusion": {"kind": "constant", "value": 0.4},
    "branch_rate": {"kind": "constant", "value": 1.0},
    "alpha_bar": 1.0,
    "offspring": {"kind": "binary", "p0": 0.3, "p2": 0.7},
    "gamma": 1.0,
    "reward": {"depth": 0, "levels": [{"kind": "bump", "a": 0.8, "center": 0.0, "width": 1.0}]},
    "k_g": 1.0,
}


@dataclasses.dataclass
class PassResult:
    values: dict  # name -> float or array: every number the checks and digest read
    solve_s: float = 0.0
    mc_s: float = 0.0


def digest(values: dict) -> str:
    """Hash of every named number, bit for bit."""
    h = hashlib.sha256()
    for key in sorted(values):
        h.update(key.encode())
        h.update(np.ascontiguousarray(values[key], dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _settings(solver: dict, n_cells: int) -> SolverSettings:
    """Solver settings from a config section, keeping only fields the solver has."""
    known = {f.name for f in dataclasses.fields(SolverSettings)}
    fields = {k: v for k, v in solver.items() if k in known}
    fields["n_cells"] = n_cells
    return SolverSettings(**fields)


def _load(root: Path, name: str) -> dict:
    with open(root / "configs" / name) as f:
        return json.load(f)


def _add_estimate(values: dict, tag: str, est, reference: float) -> None:
    values[f"{tag}.mean"] = est.mean
    values[f"{tag}.stderr"] = est.stderr
    values[f"{tag}.reference"] = reference


class PutSolve:
    """One non-branching obstacle solve; only the solve layer works."""

    name = "put_solve"
    requested_reps = 0

    def __init__(self, root: Path, seed: int, size: dict):
        cfg = _load(root, "put.json")
        self.seed = seed  # the solve has no random input
        self.spec = ModelSpec.from_json(cfg["model"])
        self.settings = _settings(cfg["solver"], size["put_cells"])
        self.rate = float(cfg["model"]["gamma"])
        self.vol = float(cfg["model"]["diffusion"]["rate"])
        self.strike = float(cfg["model"]["reward"]["levels"][0]["strike"])

    def _values(self, grid) -> dict:
        cb = contact_boundary(grid)
        return {"grid.xs": grid.xs, "grid.values": grid.values[0],
                "grid.boundary": math.nan if cb is None else cb}

    def run(self) -> PassResult:
        t0 = perf_counter()
        grid = solve_scalar(self.spec, self.settings)
        return PassResult(self._values(grid), solve_s=perf_counter() - t0)

    def run_traced(self, tracer, counts) -> PassResult:
        with tracer.span("pde"):
            grid = solve_scalar(self.spec, self.settings)
        counts.grid(grid)
        return PassResult(self._values(grid))

    def checks(self, values: dict) -> dict:
        """Criterion 03: closed-form value away from x*, free boundary within 2 cells."""
        xs = values["grid.xs"]
        beta = 2.0 * self.rate / self.vol**2
        xstar = beta * self.strike / (beta + 1.0)
        amp = (self.strike - xstar) * xstar**beta
        exact = np.where(xs <= xstar, self.strike - xs, amp * np.maximum(xs, 1e-300) ** (-beta))
        h = xs[1] - xs[0]
        away = np.abs(xs - xstar) > 5 * h
        rel = np.abs(values["grid.values"] - exact) / np.maximum(exact, 1e-12)
        return {
            "put.max_rel_err_below_1pct": bool(np.max(rel[away]) < 0.01),
            "put.free_boundary_within_2_cells": bool(abs(values["grid.boundary"] - xstar) <= 2 * h),
        }


class BumpVerify:
    """Solve, cross-validate at two points and test the DPP identity."""

    name = "bump_verify"
    points = (0.0, 2.0)
    sweep_times = (0.5,)
    dpp_point = 2.0
    dt = 0.005
    t_cut = 6.0

    def __init__(self, root: Path, seed: int, size: dict):
        cfg = _load(root, "bump.json")
        self.seed = seed
        self.spec = ModelSpec.from_json(cfg["model"])
        self.settings = _settings(cfg["solver"], size["bump_cells"])
        self.epsilon = float(cfg["verify"]["epsilon"])
        self.reps = size["bump_reps"]
        self.theta = first_branch_rule(self.t_cut, FORCE_STOP)
        # per point the contact rule and each swept rule, then the DPP estimate
        self.requested_reps = self.reps * (len(self.points) * (2 + len(self.sweep_times)) + 1)

    def _sweep_rules(self):
        rules = [("trivial_root", trivial_root_rule(self.t_cut, FORCE_STOP))]
        for t in self.sweep_times:
            rules.append((f"fixed_time({t})", fixed_time_rule(t, self.t_cut, FORCE_STOP)))
        return rules

    def run(self) -> PassResult:
        t0 = perf_counter()
        grid = solve_scalar(self.spec, self.settings)
        t1 = perf_counter()
        report = cross_validate(self.spec, grid, self.points, self.reps, self.dt, self.seed,
                                self.epsilon, self.t_cut, FORCE_STOP, self.sweep_times)
        dpp = dpp_consistency(self.spec, grid, self.theta, self.dpp_point, self.reps,
                              self.dt, self.seed, self.epsilon)
        t2 = perf_counter()
        values = {"grid.values": grid.values[0]}
        v_pde = {p.x: p.v_pde for p in report.points}
        for p in report.points:
            _add_estimate(values, f"cv@{p.x}", p.estimate, p.v_pde)
        for e in report.sweep:
            _add_estimate(values, f"sweep@{e.x}:{e.rule}", e.estimate, v_pde[e.x])
        _add_estimate(values, f"dpp@{dpp.x}", dpp.estimate, dpp.v_pde)
        return PassResult(values, solve_s=t1 - t0, mc_s=t2 - t1)

    def run_traced(self, tracer, counts) -> PassResult:
        spec, reps, dt, seed = self.spec, self.reps, self.dt, self.seed
        with tracer.span("pde"):
            grid = solve_scalar(spec, self.settings)
        counts.grid(grid)
        values = {"grid.values": grid.values[0]}

        def line_loop(rule, start, salt):
            rewards = np.empty(reps)
            for r in range(reps):
                with tracer.span("rep"):
                    with tracer.span("simulator"):
                        rec = simulate_forest(spec, [start], horizon=rule.t_cut, dt=dt,
                                              seed=replication_seed(seed, r, salt))
                    with tracer.span("stopping"):
                        out = evaluate_line(rec, rule)
                    with tracer.span("reward"):
                        rewards[r] = reward_of_outcome(spec, out)
                with tracer.span("trace"):
                    counts.forest(rec)
                    counts.line(out)
                    counts.reward(rewards[r])
            return estimate_from_samples(rewards, seed, rule.t_cut, rule.cut_policy)

        # cross_validate's loop, salts included
        with tracer.span("verify"):
            tau = contact_set_rule(grid, self.epsilon, self.t_cut, FORCE_STOP)
            for i, x in enumerate(self.points):
                start = (MOTHER, np.array([float(x)]))
                v_pde = grid.value_at_point(0, float(x))
                _add_estimate(values, f"cv@{float(x)}", line_loop(tau, start, f"cv{i}"), v_pde)
                for name, rule in self._sweep_rules():
                    _add_estimate(values, f"sweep@{float(x)}:{name}",
                                  line_loop(rule, start, f"sw{i}{name}"), v_pde)
        # dpp_consistency's loop
        with tracer.span("verify"):
            theta = self.theta
            tau = contact_set_rule(grid, self.epsilon, theta.t_cut, theta.cut_policy)
            start = (MOTHER, np.array([float(self.dpp_point)]))
            vals = np.empty(reps)
            for r in range(reps):
                with tracer.span("rep"):
                    with tracer.span("simulator"):
                        rec = simulate_forest(spec, [start], horizon=theta.t_cut, dt=dt,
                                              seed=replication_seed(seed, r, "dpp"))
                    with tracer.span("reward"):
                        vals[r] = dpp_product(spec, rec, theta, tau, grid)
                with tracer.span("trace"):
                    counts.forest(rec, lined=False)
                    counts.reward(vals[r])
            est = estimate_from_samples(vals, seed, theta.t_cut, theta.cut_policy)
            _add_estimate(values, f"dpp@{float(self.dpp_point)}", est,
                          grid.value_at_point(0, float(self.dpp_point)))
        return PassResult(values)

    def checks(self, values: dict) -> dict:
        """|z| <= 3 per point and for the DPP, sweep margins >= -3 stderr, x = 0 exact."""
        out = {}
        for x in self.points:
            tag = f"cv@{float(x)}"
            gap = values[f"{tag}.mean"] - values[f"{tag}.reference"]
            out[f"bump.{tag}.abs_z_le_3"] = abs(gap / max(values[f"{tag}.stderr"], 1e-8)) <= Z_THRESHOLD
            for name, _ in self._sweep_rules():
                tag = f"sweep@{float(x)}:{name}"
                margin = values[f"{tag}.reference"] - values[f"{tag}.mean"]
                out[f"bump.{tag}.margin_ge_-3se"] = (
                    margin >= -Z_THRESHOLD * max(values[f"{tag}.stderr"], 1e-12))
        tag = f"dpp@{float(self.dpp_point)}"
        gap = values[f"{tag}.mean"] - values[f"{tag}.reference"]
        out[f"bump.{tag}.abs_z_le_3"] = abs(gap / max(values[f"{tag}.stderr"], 1e-8)) <= Z_THRESHOLD
        # inside the contact region every line stops at birth: the estimate is g(0)
        g0 = self.spec.reward_at(0)(np.array([0.0]))
        out["bump.cv@0.0.equals_g0"] = (abs(values["cv@0.0.mean"] - g0) <= 1e-9
                                        and values["cv@0.0.stderr"] <= 1e-9)
        return out


class BranchingKs:
    """Two forests per replication, many short-lived particles, no solve."""

    name = "branching_ks"
    point = 0.3
    dt = 0.02
    window = 2.0
    horizon = 0.5

    def __init__(self, root: Path, seed: int, size: dict):
        self.seed = seed
        self.spec = ModelSpec.from_json(BRANCHING_MODEL)
        self.ks_reps = size["ks_reps"]
        self.control_reps = size["control_reps"]
        self.requested_reps = self.ks_reps + self.control_reps

    @staticmethod
    def _values(stat, p, n, a, b) -> dict:
        return {"ks.stat": stat, "ks.p": p, "ks.n": n, "control.a": a, "control.b": b}

    def run(self) -> PassResult:
        t0 = perf_counter()
        test = branching_property_test(self.spec, self.point, self.ks_reps, self.dt, self.seed,
                                       branch_window=self.window,
                                       functional_horizon=self.horizon)
        a, b = subtree_reward_samples(self.spec, self.point, self.control_reps, self.dt,
                                      self.seed, self.window, self.horizon, shared_streams=True)
        return PassResult(self._values(test.ks_stat, test.p_value, test.n_samples, a, b),
                          mc_s=perf_counter() - t0)

    def _samples(self, tracer, counts, reps: int, shared: bool):
        """subtree_reward_samples' loop: subtree of child 0 against a fresh start."""
        spec, dt, seed = self.spec, self.dt, self.seed
        t_cut_sub = self.horizon + self.dt
        rule = fixed_time_rule(self.horizon, t_cut_sub, "abandon")
        child0 = (0,)
        a_vals, b_vals = [], []
        for r in range(reps):
            with tracer.span("rep"):
                with tracer.span("simulator"):
                    seed_a = replication_seed(seed, r, "A")
                    rec = simulate_forest(spec, [(MOTHER, np.array([self.point]))],
                                          horizon=self.window + self.horizon + 2 * dt,
                                          dt=dt, seed=seed_a)
                mother = rec.particles[MOTHER]
                used = (mother.end_kind == "branched" and mother.offspring_count
                        and mother.end_time <= self.window)
                if used:
                    sub = _extract_subtree(rec, child0)
                    with tracer.span("stopping"):
                        out_a = evaluate_line(sub, rule)
                    with tracer.span("reward"):
                        a_vals.append(reward_of_outcome(spec, out_a))
                    with tracer.span("simulator"):
                        rec_b = simulate_forest(
                            spec, [(child0, mother.positions[-1].copy())],
                            horizon=mother.end_time + t_cut_sub + dt, dt=dt,
                            seed=seed_a if shared else replication_seed(seed, r, "B"),
                            t0=mother.end_time)
                    sub_b = _extract_subtree(rec_b, child0)
                    with tracer.span("stopping"):
                        out_b = evaluate_line(sub_b, rule)
                    with tracer.span("reward"):
                        b_vals.append(reward_of_outcome(spec, out_b))
            with tracer.span("trace"):
                counts.forest(rec)
                if used:
                    counts.line(out_a)
                    counts.reward(a_vals[-1])
                    counts.forest(rec_b)
                    counts.line(out_b)
                    counts.reward(b_vals[-1])
        return np.asarray(a_vals), np.asarray(b_vals)

    def run_traced(self, tracer, counts) -> PassResult:
        from scipy import stats

        # branching_property_test: samples, then the asymptotic two-sample KS
        with tracer.span("verify"):
            a, b = self._samples(tracer, counts, self.ks_reps, shared=False)
            if len(a) < MIN_KS_SAMPLES:
                stat = p = math.nan
            else:
                ks = stats.ks_2samp(a, b, method="asymp")
                stat, p = float(ks.statistic), float(ks.pvalue)
        with tracer.span("verify"):
            ca, cb = self._samples(tracer, counts, self.control_reps, shared=True)
        return PassResult(self._values(stat, p, len(a), ca, cb))

    def checks(self, values: dict) -> dict:
        """KS p >= 0.01 on at least 100 samples; the shared-stream control is identical."""
        a, b = values["control.a"], values["control.b"]
        return {
            "branching.ks.n_ge_100": values["ks.n"] >= MIN_KS_SAMPLES,
            "branching.ks.p_ge_0.01": bool(values["ks.p"] >= KS_P_THRESHOLD),
            "branching.control.identical": len(a) >= MIN_KS_SAMPLES and np.array_equal(a, b),
        }


WORKLOADS = {w.name: w for w in (PutSolve, BumpVerify, BranchingKs)}


def build(root: Path, name: str, seed: int, scale: str = "full"):
    """A built workload: model, settings and rules, ready to run."""
    return WORKLOADS[name](root, seed, SIZES[scale])
