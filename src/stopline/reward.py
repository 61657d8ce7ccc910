"""Discounted multiplicative rewards and their Monte Carlo estimation.

The reward of a line outcome is the product over stopped particles of
exp(-gamma tau) g_n(x); the empty product is one, and a particle that
leaves the population unstopped contributes nothing.  Products are
accumulated in log space because many small factors underflow.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .labels import Label
from .model import ModelSpec, model_hash
from .simulator import DEFAULT_MAX_PARTICLES, GenealogyRecord, open_forest, replication_seed
from .stopping import FORCE_STOP, LineOutcome, Stop, StoppingRule, evaluate_line


class RewardError(ValueError):
    pass


def _discounted_product(spec: ModelSpec, stops: Sequence[Stop],
                        factor: Callable[[Stop], float]) -> float:
    """Product over the stops of exp(-gamma time) factor(stop), in log space."""
    log_total = 0.0
    for s in stops:
        f = factor(s)
        if f <= 0.0:
            return 0.0
        log_total += -spec.gamma * s.time + math.log(f)
    return math.exp(log_total)


def reward_of_outcome(spec: ModelSpec, outcome: LineOutcome) -> float:
    """Product of discounted reward factors over the stop line."""
    return _discounted_product(spec, outcome.stops,
                               lambda s: spec.reward_at(s.generation)(s.position))


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
        return asdict(self)

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

    The forest is open, so only the particles the line walk reads are
    simulated, and the reward is bit for bit the one from the full forest.
    """
    rec = open_forest(spec, [start], rule.t_cut, dt, seed, max_particles)
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
    particles one replication simulates, which are only those the line walk
    reads (see `line_reward`).
    """
    if reps < 2:
        raise RewardError("reps must be at least 2")
    rewards = np.empty(reps)
    for r in range(reps):
        rewards[r] = line_reward(spec, rule, start, dt,
                                 replication_seed(seed, r, rng_salt), max_particles)
    return estimate_from_samples(rewards, seed, rule.t_cut, rule.cut_policy)


def _dpp_rule(theta: StoppingRule, tau: StoppingRule) -> StoppingRule:
    """The line of theta ^ tau: the earlier rule on each lineage, ties to theta,
    and a forced stop at t_cut."""
    if theta.t_cut != tau.t_cut:
        raise RewardError("theta and tau must share t_cut")
    return StoppingRule("min_of", t_cut=theta.t_cut, cut_policy=FORCE_STOP,
                        parts=(theta, tau))


def dpp_product(
    spec: ModelSpec,
    record: GenealogyRecord,
    theta: StoppingRule,
    tau: StoppingRule,
    grid,
) -> float:
    """One sample of the dynamic-programming identity's right-hand side.

    The sample is scored on the line of theta ^ tau, evaluated on the
    forest like any other rule: a tau stop contributes exp(-gamma tau)
    g_n(x), a theta stop exp(-gamma theta) v_n(x) read off the solved grid.
    A particle still unresolved at t_cut is stopped there with a v factor,
    as if theta claimed it, which keeps the identity exact under truncation.
    """
    return _dpp_sample(spec, record, _dpp_rule(theta, tau), grid)


def _dpp_sample(spec: ModelSpec, record: GenealogyRecord, rule: StoppingRule, grid) -> float:
    """`dpp_product` for a line rule already built by `_dpp_rule`."""
    def factor(s: Stop) -> float:
        if s.part == 1:
            return spec.reward_at(s.generation)(s.position)
        return _grid_value(grid, spec, s.generation, s.position)

    return _discounted_product(spec, evaluate_line(record, rule).stops, factor)


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

    Each forest is open, as in `line_reward`, so only what the walk to the
    line of theta ^ tau reads is simulated; the estimate is bit for bit the
    one from full forests.
    """
    if reps < 2:
        raise RewardError("reps must be at least 2")
    if not grid.model_hash.startswith(model_hash(spec)):
        raise RewardError("grid was solved for a different model")
    rule = _dpp_rule(theta, tau)
    vals = np.empty(reps)
    for r in range(reps):
        rec = open_forest(spec, [start], theta.t_cut, dt, replication_seed(seed, r, rng_salt))
        vals[r] = _dpp_sample(spec, rec, rule, grid)
    return estimate_from_samples(vals, seed, theta.t_cut, theta.cut_policy)
