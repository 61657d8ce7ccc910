"""Discounted multiplicative rewards and their Monte Carlo estimation.

The reward of a line outcome is the product over stopped particles of
exp(-gamma tau) g_n(x); the empty product is one, and a particle that
leaves the population unstopped contributes nothing.  Products are
accumulated in log space because many small factors underflow.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .labels import Label, generation
from .model import ModelSpec
from .simulator import (
    DEFAULT_MAX_PARTICLES,
    GenealogyRecord,
    replication_seed,
    simulate_forest,
)
from .stopping import (
    LineOutcome,
    StoppingRule,
    evaluate_line,
    rule_fire_time,
)


class RewardError(ValueError):
    pass


def reward_of_outcome(spec: ModelSpec, outcome: LineOutcome) -> float:
    """Product of discounted reward factors over the stop line."""
    log_total = 0.0
    for s in outcome.stops:
        g = spec.reward_at(s.generation)(s.position)
        if g <= 0.0:
            return 0.0
        log_total += -spec.gamma * s.time + math.log(g)
    return math.exp(log_total)


@dataclass
class McEstimate:
    mean: float
    stderr: float
    reps: int
    seed: int
    t_cut: float
    cut_policy: str

    def z_score(self, reference: float, atol: float = 1e-8) -> float:
        """Standardized gap to a reference value.

        The atol floor keeps degenerate estimates (all replications equal,
        stderr near zero) from amplifying interpolation-level noise.
        """
        gap = self.mean - reference
        return gap / max(self.stderr, atol)

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "reps": self.reps,
            "seed": self.seed,
            "t_cut": self.t_cut,
            "cut_policy": self.cut_policy,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")


def estimate_from_samples(samples: np.ndarray, seed: int, t_cut: float,
                          cut_policy: str) -> McEstimate:
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < 1:
        raise RewardError("no samples")
    # deviations from one sample: equal samples give exactly zero spread,
    # which np.std misses when their sum rounds
    sd = float(np.std(samples - samples[0], ddof=1)) if n > 1 else 0.0
    return McEstimate(
        mean=float(np.mean(samples)),
        stderr=sd / math.sqrt(n),
        reps=n,
        seed=seed,
        t_cut=t_cut,
        cut_policy=cut_policy,
    )


def line_reward(
    spec: ModelSpec,
    rule: StoppingRule,
    start: Tuple[Label, Sequence[float]],
    dt: float,
    seed: int,
    max_particles: int = DEFAULT_MAX_PARTICLES,
) -> float:
    """Reward of the rule's stop line on one forest simulated with this seed.

    Only particles at or above the line are simulated: a particle the rule
    claims keeps its own path but not its subtree, which the line walk
    never reads.  Streams are keyed per label, so the reward is bit for bit
    the one from the full forest.
    """
    roots = {tuple(start[0])}
    rec = simulate_forest(
        spec, [start], horizon=rule.t_cut, dt=dt, seed=seed, max_particles=max_particles,
        prune=lambda p, r: rule_fire_time(rule, p, r, roots) is not None,
    )
    return reward_of_outcome(spec, evaluate_line(rec, rule))


def mc_value(
    spec: ModelSpec,
    rule: StoppingRule,
    start: Tuple[Label, Sequence[float]],
    reps: int,
    dt: float,
    seed: int,
    max_particles: int = DEFAULT_MAX_PARTICLES,
    rng_salt: str = "",
) -> McEstimate:
    """Monte Carlo estimate of the line reward from one starting particle.

    Unbiased for the truncated-line reward up to the time-discretization of
    rule firing; the t_cut policy decides what unresolved particles are
    worth (abandon: one, force_stop: stop there).  `max_particles` caps the
    particles one replication simulates, which are only those at or above
    the line (see `line_reward`).
    """
    if reps < 2:
        raise RewardError("reps must be at least 2")
    rewards = np.empty(reps)
    for r in range(reps):
        rewards[r] = line_reward(spec, rule, start, dt,
                                 replication_seed(seed, r, rng_salt), max_particles)
    return estimate_from_samples(rewards, seed, rule.t_cut, rule.cut_policy)


def dpp_product(
    spec: ModelSpec,
    record: GenealogyRecord,
    theta: StoppingRule,
    tau: StoppingRule,
    grid,
) -> float:
    """One sample of the dynamic-programming identity's right-hand side.

    Both rules are resolved on the same forest.  Walking each lineage, the
    earlier-firing rule claims the particle (ties go to theta): a theta
    claim contributes exp(-gamma theta) v_n(x) read off the solved grid, a
    tau claim contributes exp(-gamma tau) g_n(x).  A particle neither rule
    claims before branching passes to its children; one still unresolved at
    t_cut is treated as claimed by theta there with a v factor, which keeps
    the identity exact under truncation.
    """
    if theta.t_cut != tau.t_cut:
        raise RewardError("theta and tau must share t_cut")
    t_cut = theta.t_cut
    roots = set(record.roots())
    log_total = 0.0
    stack = sorted(roots, reverse=True)
    while stack:
        lab = stack.pop()
        p = record.particles[lab]
        f_theta = rule_fire_time(theta, p, record, roots)
        f_tau = rule_fire_time(tau, p, record, roots)
        t_th = f_theta[0] if f_theta is not None else math.inf
        t_ta = f_tau[0] if f_tau is not None else math.inf
        if t_th <= t_ta and f_theta is not None:
            t_fire, idx = f_theta
            n = generation(lab)
            v = _grid_value(grid, spec, n, p.positions[idx])
            if v <= 0.0:
                return 0.0
            log_total += -spec.gamma * t_fire + math.log(v)
            continue
        if f_tau is not None:
            t_fire, idx = f_tau
            g = spec.reward_at(generation(lab))(p.positions[idx])
            if g <= 0.0:
                return 0.0
            log_total += -spec.gamma * t_fire + math.log(g)
            continue
        if p.end_time <= t_cut:
            if p.end_kind == "branched" and p.offspring_count:
                for k in range(p.offspring_count):
                    stack.append(lab + (k,))
            continue
        # unresolved at the cut: theta claims it with a value factor
        idx = int(np.searchsorted(p.times, t_cut - 1e-12))
        idx = min(idx, len(p.times) - 1)
        v = _grid_value(grid, spec, generation(lab), p.positions[idx])
        if v <= 0.0:
            return 0.0
        log_total += -spec.gamma * t_cut + math.log(v)
    return math.exp(log_total)


def _grid_value(grid, spec: ModelSpec, n: int, position: np.ndarray) -> float:
    x = np.atleast_1d(position)[:1]
    inside = bool(grid.contains(x)[0])
    if not inside:
        return spec.reward_at(n)(position)
    return float(grid.values_at(n, x)[0])


def dpp_rhs(
    spec: ModelSpec,
    theta: StoppingRule,
    tau: StoppingRule,
    grid,
    start: Tuple[Label, Sequence[float]],
    reps: int,
    dt: float,
    seed: int,
    rng_salt: str = "",
) -> McEstimate:
    """Monte Carlo estimate of the dynamic-programming right-hand side.

    As in `line_reward`, a particle theta or tau claims keeps its own path
    but its subtree is not simulated; the estimate is bit for bit the one
    from full forests.
    """
    from .model import model_hash

    if reps < 2:
        raise RewardError("reps must be at least 2")
    if not grid.model_hash.startswith(model_hash(spec)):
        raise RewardError("grid was solved for a different model")
    roots = {tuple(start[0])}

    def claimed(p, rec):  # the test by which dpp_product stops descending
        return (rule_fire_time(theta, p, rec, roots) is not None
                or rule_fire_time(tau, p, rec, roots) is not None)

    vals = np.empty(reps)
    for r in range(reps):
        rec = simulate_forest(spec, [start], horizon=theta.t_cut, dt=dt,
                              seed=replication_seed(seed, r, rng_salt), prune=claimed)
        vals[r] = dpp_product(spec, rec, theta, tau, grid)
    return estimate_from_samples(vals, seed, theta.t_cut, theta.cut_policy)
