"""Discounted multiplicative rewards and their Monte Carlo estimation.

The reward of a line outcome is the product over stopped particles of
exp(-gamma tau) g_n(x); the empty product is one, and a particle that
leaves the population unstopped contributes nothing.  Products are
accumulated in log space because many small factors underflow.

One replication engine, `line_rewards`, walks and scores every stop line.
Given a solved grid it scores the line of theta ^ tau as the right-hand side
of the dynamic-programming identity: a theta stop or a stop forced at the cut
takes v_n(x) read off the grid in place of g_n(x).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Sequence, Tuple

import numpy as np

from .labels import Label
from .model import ModelSpec, model_hash, write_json
from .simulator import (
    DEFAULT_MAX_PARTICLES,
    GenealogyRecord,
    draw_particles,
    forest_start,
    replication_seed,
)
from .stopping import FORCE_STOP, Line, LineOutcome, StoppingRule, evaluate_line, walk_lines


class RewardError(ValueError):
    pass


def reward_of_outcome(spec: ModelSpec, outcome: LineOutcome, grid=None) -> float:
    """Product of discounted reward factors over the stop line, in log space.

    Each stop contributes exp(-gamma time) g_n(x).  With a solved `grid`, a
    stop made by part 0 of a min_of rule (theta) or forced at the cut
    contributes exp(-gamma time) v_n(x) instead, v read off the grid; outside
    the grid's domain it keeps g_n(x).  A part-1 stop (tau) always takes g.
    """
    log_total = 0.0
    for s in outcome.stops:
        if grid is not None and s.part == 0 and grid.contains(s.position[:1])[0]:
            f = float(grid.values_at(s.generation, s.position[:1])[0])
        else:
            f = spec.reward_at(s.generation)(s.position)
        if f <= 0.0:
            return 0.0
        log_total += -spec.gamma * s.time + math.log(f)
    return math.exp(log_total)


@dataclass
class McEstimate:
    mean: float
    stderr: float
    reps: int
    seed: int
    t_cut: float
    cut_policy: str

    def z_score(self, reference: float) -> float:
        """Standardized gap to a reference value.

        The stderr floor of 1e-8 keeps degenerate estimates (all replications
        equal, stderr near zero) from amplifying interpolation-level noise.
        """
        gap = self.mean - reference
        return gap / max(self.stderr, 1e-8)

    def to_json(self) -> dict:
        return asdict(self)

    def write_json(self, path: str) -> None:
        write_json(path, self.to_json())


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


def line_rewards(spec: ModelSpec, rule: StoppingRule, lines: Sequence[Line], dt: float,
                 max_particles: int, grid=None) -> np.ndarray:
    """Each line's reward under the rule, as `reward_of_outcome` scores it with
    `grid`, by one block walk (`walk_lines`) that draws at step dt only the
    particles a line reads, at most `max_particles` per line, so each reward
    is bit for bit its full forest's.  A grid solved for another model is
    refused before anything is drawn."""
    if grid is not None and not grid.model_hash.startswith(model_hash(spec)):
        raise RewardError("grid was solved for a different model")
    outcomes = walk_lines(rule, lines, partial(draw_particles, spec, dt), model_hash(spec),
                          max_particles)
    return np.array([reward_of_outcome(spec, out, grid) for out in outcomes])


def mc_value(
    spec: ModelSpec,
    rule: StoppingRule,
    start: Tuple[Label, Sequence[float]],
    reps: int,
    dt: float,
    seed: int,
    max_particles: int = DEFAULT_MAX_PARTICLES,
    rng_salt: str = "",
    grid=None,
) -> McEstimate:
    """Monte Carlo estimate of the line reward from one starting particle.

    Unbiased for the truncated-line reward up to the time-discretization of
    rule firing; the t_cut policy decides what unresolved particles are
    worth (abandon: one, force_stop: stop there).  Each replication is a
    line of `line_rewards`; a particle stopped at its birth is never drawn
    and does not count toward `max_particles`.  With a solved `grid`, on the
    line of theta ^ tau, this is the dynamic-programming right-hand side.
    """
    if reps < 2:
        raise RewardError("reps must be at least 2")
    ((label, x),) = forest_start(spec, [start], rule.t_cut, dt)
    lines = [Line(label, 0.0, x, replication_seed(seed, r, rng_salt), rule.t_cut)
             for r in range(reps)]
    rewards = line_rewards(spec, rule, lines, dt, max_particles, grid)
    return estimate_from_samples(rewards, seed, rule.t_cut, rule.cut_policy)


def _dpp_rule(theta: StoppingRule, tau: StoppingRule) -> StoppingRule:
    """The line of theta ^ tau: the earlier rule on each lineage, ties to theta,
    and a forced stop at t_cut.  A stop forced at the cut is scored like a
    theta stop, which keeps the identity exact under truncation."""
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
    """One sample of the dynamic-programming identity's right-hand side: the
    reward of the line of theta ^ tau on this forest, scored with the grid."""
    return reward_of_outcome(spec, evaluate_line(record, _dpp_rule(theta, tau)), grid)
