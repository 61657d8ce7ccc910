"""Cross-validation of the PDE solution against Monte Carlo.

Three checks tie the two routes together: the candidate optimal rule
(first contact with the solved value) must reproduce the grid value within
Monte Carlo error; the dynamic-programming identity must hold for
intermediate rules; and the subtree spawned at a branch must be
statistically indistinguishable from a fresh population started at the
branch state.  Pass thresholds are |z| <= 3 for equality checks and
p >= 0.01 for the distributional test, stated in every report.

The branching test draws every replication's mother in chunks, then scores
the child-0 subtrees of all mothers that branch in the window as the lines
of one `reward.line_rewards` call, and the fresh starts as the lines of
another, each line on the subtree's clock.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .labels import MOTHER, Label
from .model import ModelSpec, write_json
from .pde import ValueGrid
from .reward import McEstimate, _dpp_rule, line_rewards, mc_value
from .simulator import (
    DEFAULT_MAX_PARTICLES,
    GenealogyRecord,
    draw_particles,
    forest_start,
    replication_seed,
    stream_state,
)
from .stopping import (
    FORCE_STOP,
    Line,
    StoppingRule,
    contact_set_rule,
    fixed_time_rule,
    trivial_root_rule,
)

Z_THRESHOLD = 3.0
KS_P_THRESHOLD = 0.01
KS_MIN_SAMPLES = 100  # fewer subtree samples report the KS test as insufficient
CHILD0: Label = (0,)  # the branching test follows the first child's subtree


class VerifyError(RuntimeError):
    pass


@dataclass
class PointCheck:
    x: float
    v_pde: float
    estimate: McEstimate
    gap: float
    z: float
    passed: bool


@dataclass
class SweepEntry:
    rule: str
    x: float
    estimate: McEstimate
    margin: float
    passed: bool


@dataclass
class BranchingTest:
    ks_stat: float
    p_value: float
    n_samples: int
    insufficient: bool


@dataclass
class VerificationReport:
    points: List[PointCheck]
    sweep: List[SweepEntry]
    dpp: List[PointCheck]
    branching: Optional[BranchingTest]
    seed: int
    settings: dict
    z_threshold: float = Z_THRESHOLD
    ks_p_threshold: float = KS_P_THRESHOLD

    def all_passed(self) -> bool:
        ok = all(p.passed for p in self.points)
        ok = ok and all(e.passed for e in self.sweep)
        ok = ok and all(p.passed for p in self.dpp)
        if self.branching is not None and not self.branching.insufficient:
            ok = ok and self.branching.p_value >= self.ks_p_threshold
        return ok

    def to_json(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed()}

    def write_json(self, path: str) -> None:
        write_json(path, self.to_json())


def _v_pde(spec: ModelSpec, grid: ValueGrid, x: float) -> float:
    """The solved level-0 value at x: the grid's linear interpolant, raised to
    g(x) = `spec.reward_at(0)` where it falls below, as the value never does.
    Between contact nodes a concave g lies above the interpolant, and every
    contact-rule line started there scores g(x) exactly."""
    return max(grid.value_at_point(0, x), float(spec.reward_at(0)(np.array([[x]]))[0]))


def cross_validate(
    spec: ModelSpec,
    grid: ValueGrid,
    points: Sequence[float],
    reps: int,
    dt: float,
    seed: int,
    epsilon: float,
    t_cut: float,
    cut_policy: str = FORCE_STOP,
    sweep_times: Sequence[float] = (),
) -> VerificationReport:
    """Check the grid value against the first-contact rule and a rule sweep.

    Each point must satisfy |z| <= 3 for the contact-rule estimate, and no
    swept rule may beat the grid value by more than 3 standard errors.
    Points inside the contact region stop at birth and check exactness; the
    others exercise the free boundary.  A grid solved for another model is
    refused by the walk (StoppingError) before anything is drawn.
    """
    for x in points:
        if not grid.contains(np.array([x]))[0]:
            raise VerifyError(f"point {x} lies outside the grid domain")
    tau = contact_set_rule(grid, epsilon, t_cut, cut_policy)
    checks: List[PointCheck] = []
    sweep: List[SweepEntry] = []
    for i, x in enumerate(points):
        start = (MOTHER, np.array([float(x)]))
        v_pde = _v_pde(spec, grid, float(x))
        est = mc_value(spec, tau, start, reps, dt, seed, rng_salt=f"cv{i}")
        z = est.z_score(v_pde)
        checks.append(PointCheck(x=float(x), v_pde=v_pde, estimate=est,
                                 gap=v_pde - est.mean, z=z,
                                 passed=abs(z) <= Z_THRESHOLD))
        candidates: List[Tuple[str, StoppingRule]] = [
            ("trivial_root", trivial_root_rule(t_cut, cut_policy))
        ]
        for t in sweep_times:
            candidates.append((f"fixed_time({t})", fixed_time_rule(t, t_cut, cut_policy)))
        for name, rule in candidates:
            est_r = mc_value(spec, rule, start, reps, dt, seed, rng_salt=f"sw{i}{name}")
            margin = v_pde - est_r.mean
            sweep.append(SweepEntry(rule=name, x=float(x), estimate=est_r,
                                    margin=margin,
                                    passed=margin >= -Z_THRESHOLD * max(est_r.stderr, 1e-12)))
    return VerificationReport(
        points=checks, sweep=sweep, dpp=[], branching=None, seed=seed,
        settings={"reps": reps, "dt": dt, "epsilon": epsilon,
                  "t_cut": t_cut, "cut_policy": cut_policy},
    )


def dpp_consistency(
    spec: ModelSpec,
    grid: ValueGrid,
    theta: StoppingRule,
    point: float,
    reps: int,
    dt: float,
    seed: int,
    epsilon: float,
) -> PointCheck:
    """z-test of the dynamic-programming identity at one starting point; a
    grid solved for another model is refused by `line_rewards` (RewardError)
    before anything is drawn."""
    tau = contact_set_rule(grid, epsilon, theta.t_cut, theta.cut_policy)
    start = (MOTHER, np.array([float(point)]))
    est = mc_value(spec, _dpp_rule(theta, tau), start, reps, dt, seed, rng_salt="dpp", grid=grid)
    v_pde = _v_pde(spec, grid, float(point))
    z = est.z_score(v_pde)
    return PointCheck(x=float(point), v_pde=v_pde, estimate=est,
                      gap=v_pde - est.mean, z=z, passed=abs(z) <= Z_THRESHOLD)


def subtree_reward_samples(
    spec: ModelSpec,
    point: float,
    reps: int,
    dt: float,
    seed: int,
    branch_window: float,
    functional_horizon: float,
    shared_streams: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Paired reward samples for the branching-property test.

    Sample A: draw the mother at `point`; when her first event arrives
    inside the branch window with at least one child, evaluate the
    fixed-horizon line reward on child 0's subtree, clocks shifted to its
    birth.  Sample B: the same functional on a fresh forest started from a
    particle with child 0's label at the recorded branch position and epoch.
    With shared_streams the fresh forest reuses the same per-label streams,
    so the two samples must agree outcome by outcome.  The A subtrees are
    the lines of one `line_rewards` call, and the fresh starts of another;
    only the particles the walks read are drawn.  A mother is drawn only to
    the branch window, and both lines' forests run to s + 2 dt past the
    branch, which is as far as the walk reads any of their particles.
    """
    if spec.alpha_bar <= 0:
        raise VerifyError("branching test needs a nonzero branch rate")
    s = functional_horizon
    t_cut_sub = s + dt
    rule = fixed_time_rule(s, t_cut_sub, "abandon")
    # a replication's forest: the window, then a line past the branch
    ((_, x0),) = forest_start(spec, [(MOTHER, [float(point)])],
                              branch_window + t_cut_sub + dt, dt)
    seeds = [replication_seed(seed, r, "A") for r in range(reps)]
    # (replication, branch time, branch place) of each mother that branches in the window
    branched: List[Tuple[int, float, np.ndarray]] = []
    # a mother is read only if her event lies in the window: drawn that far
    first = 0  # the replication of the chunk's first mother
    for chunk in draw_particles(spec, dt, [(seed_a, MOTHER, 0.0, x0, branch_window, math.inf,
                                            stream_state(seed_a, MOTHER)) for seed_a in seeds]):
        ends = chunk.end_time
        at = np.flatnonzero((chunk.count > 0) & (ends <= branch_window))
        # a mother's branch place is her last row
        branched += zip((at + first).tolist(), ends[at].tolist(),
                        chunk.positions[chunk.starts[at + 1] - 1])
        first += len(ends)

    def lines(seed_of):
        # child 0 at the branch, on a clock that starts there, so that reward
        # atoms of a subtree and of a fresh start align bit for bit
        return [Line(CHILD0, base, x, seed_of(r), base + t_cut_sub + dt, base)
                for r, base, x in branched]
    # a subtree's mother is one of the particles of its forest
    a = line_rewards(spec, rule, lines(seeds.__getitem__), dt, DEFAULT_MAX_PARTICLES - 1)
    fresh = seeds.__getitem__ if shared_streams else partial(replication_seed, seed, salt="B")
    b = line_rewards(spec, rule, lines(fresh), dt, DEFAULT_MAX_PARTICLES)
    return a, b


def _extract_subtree(record: GenealogyRecord, root: Label) -> GenealogyRecord:
    """The subtree below `root`, clocks restarted at its birth: a copy of each
    of its particles, the root's without a parent."""
    base = record.particles[root].birth_time
    parts = {lab: replace(p, parent=p.parent if lab != root else None,
                          birth_time=p.birth_time - base, end_time=p.end_time - base,
                          times=p.times - base)
             for lab, p in record.particles.items() if lab[:len(root)] == root}
    return GenealogyRecord(particles=parts, initial=[(root, parts[root].positions[0])],
                           horizon=record.horizon - base, dt=record.dt,
                           seed=record.seed, spec_hash=record.spec_hash, t0=0.0)


def branching_property_test(
    spec: ModelSpec,
    point: float,
    reps: int,
    dt: float,
    seed: int,
    branch_window: float = 2.0,
    functional_horizon: float = 0.5,
) -> BranchingTest:
    """Two-sample KS test of subtree rewards against fresh-start rewards."""
    a, b = subtree_reward_samples(spec, point, reps, dt, seed, branch_window,
                                  functional_horizon)
    if len(a) < KS_MIN_SAMPLES:
        return BranchingTest(ks_stat=math.nan, p_value=math.nan,
                             n_samples=len(a), insufficient=True)
    # scipy.stats takes about a second to import and only this test needs it
    from scipy import stats as sps

    ks = sps.ks_2samp(a, b, method="asymp")
    return BranchingTest(ks_stat=float(ks.statistic), p_value=float(ks.pvalue),
                         n_samples=len(a), insufficient=False)
