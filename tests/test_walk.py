"""The block walk against the per-replication loop it replaced.

`mc_value` and `subtree_reward_samples` walk all their lines at once and
draw their particles in chunks.  The reference here is the loop they ran
before, on whole forests: one `simulate_forest` per replication,
`evaluate_line` on it and `reward_of_outcome`, and for the branching test
the `_extract_subtree` pair of forests.  Every estimate must equal its
reference bit for bit.
"""
import dataclasses
import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stopline.labels import MOTHER
from stopline.model import (
    Coefficient,
    ModelSpec,
    Offspring,
    RateFunction,
    RewardFunction,
    model_hash,
)
from stopline.pde import SolverSettings, solve_scalar
from stopline.reward import _dpp_rule, estimate_from_samples, mc_value, reward_of_outcome
from stopline.simulator import (
    CHUNK_SAMPLES,
    SimulationError,
    draw_particles,
    replication_seed,
    simulate_forest,
)
from stopline.stopping import (
    ABANDON,
    FORCE_STOP,
    Line,
    contact_set_rule,
    evaluate_line,
    exit_ball_rule,
    first_branch_rule,
    fixed_time_rule,
    min_of_rules,
    never_rule,
    trivial_root_rule,
    walk_lines,
)
from stopline.verify import _extract_subtree, subtree_reward_samples

from conftest import make_spec, recording_draw

BUMP = RewardFunction("bump", a=0.8, center=0.0, width=1.0)
T_CUT, DT, REPS = 2.5, 0.05, 12


def _models():
    binary = make_spec(diffusion=("constant", 0.9), alpha=1.0, offspring=("binary", (0.3, 0.7)),
                       rewards=(BUMP,))
    logistic = RateFunction("logistic", cap=1.5, center=0.5, width=0.7)
    return {
        # constant coefficients and position-free marks: drawn a chunk at a time
        "bump": make_spec(diffusion=("constant", 1.5), alpha=0.25,
                          offspring=("deterministic", 2), rewards=(BUMP,)),
        "binary": binary,
        "poisson": make_spec(diffusion=("constant", 0.9), alpha=0.8, offspring=("poisson", 0.5),
                             rewards=(BUMP,)),
        # marks that read the position, and linear coefficients: drawn segment by segment
        "logistic_rate": dataclasses.replace(binary, branch_rate=logistic, alpha_bar=1.5),
        "poisson_of_x": dataclasses.replace(
            binary, offspring=Offspring("poisson", lam=RateFunction("logistic", cap=0.5))),
        "put": ModelSpec.from_json({
            "dimension": 1, "drift": {"kind": "linear", "rate": 0.05},
            "diffusion": {"kind": "linear", "rate": 0.4},
            "branch_rate": {"kind": "constant", "value": 0.0}, "alpha_bar": 0.0,
            "offspring": {"kind": "deterministic", "k0": 1}, "gamma": 0.05,
            "reward": {"depth": 0, "levels": [{"kind": "clipped_put", "strike": 1.0,
                                                "clip": 1.0}]},
            "k_g": 1.0}),
        "linear_branching": dataclasses.replace(binary, drift=Coefficient("linear", rate=0.05),
                                                diffusion=Coefficient("linear", rate=0.4)),
    }


MODELS = _models()
STARTS = {"put": 0.6, "linear_branching": 0.6}


@pytest.fixture(scope="module")
def grids():
    """A small solved grid per model, for the contact rule and DPP scoring."""
    out = {}
    for name, spec in MODELS.items():
        if name in ("put", "linear_branching"):
            settings = SolverSettings(x_lo=0.001, x_hi=4.0, n_cells=200, bc_hi_value=0.1424)
        else:
            settings = SolverSettings(x_lo=-6.0, x_hi=6.0, n_cells=200)
        out[name] = solve_scalar(spec, settings)
    return out


def catalog(grid, policy):
    contact = contact_set_rule(grid, 1e-3, T_CUT, policy)
    return {
        "trivial_root": trivial_root_rule(T_CUT, policy),
        "fixed_time": fixed_time_rule(0.8, T_CUT, policy),
        "first_branch": first_branch_rule(T_CUT, policy),
        "exit_ball": exit_ball_rule([0.0], 1.5, 2.0, T_CUT, policy),
        "contact_set": contact,
        "never": never_rule(T_CUT, policy),
        "min_of": min_of_rules(fixed_time_rule(1.2, T_CUT, policy), contact),
    }


def reference_value(spec, rule, start, reps, dt, seed, salt="", grid=None,
                    max_particles=1_000_000):
    """mc_value as a loop over replications, one whole forest each."""
    rewards = []
    for r in range(reps):
        rec = simulate_forest(spec, [start], rule.t_cut, dt, replication_seed(seed, r, salt),
                              max_particles)
        rewards.append(reward_of_outcome(spec, evaluate_line(rec, rule), grid))
    return estimate_from_samples(rewards, seed, rule.t_cut, rule.cut_policy)


@pytest.mark.parametrize("policy", [ABANDON, FORCE_STOP])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_mc_value_equals_the_replication_loop(grids, model, policy):
    spec, grid = MODELS[model], grids[model]
    start = (MOTHER, [STARTS.get(model, 1.2)])
    for name, rule in catalog(grid, policy).items():
        est = mc_value(spec, rule, start, REPS, DT, seed=3, rng_salt=name)
        assert est == reference_value(spec, rule, start, REPS, DT, 3, name), name


@pytest.mark.parametrize("model", sorted(MODELS))
def test_dpp_scoring_equals_the_replication_loop(grids, model):
    spec, grid = MODELS[model], grids[model]
    start = (MOTHER, [STARTS.get(model, 1.2)])
    tau = contact_set_rule(grid, 1e-3, T_CUT, FORCE_STOP)
    for theta in (first_branch_rule(T_CUT, FORCE_STOP), fixed_time_rule(0.5, T_CUT, FORCE_STOP)):
        rule = _dpp_rule(theta, tau)
        est = mc_value(spec, rule, start, REPS, DT, seed=4, rng_salt="dpp", grid=grid)
        assert est == reference_value(spec, rule, start, REPS, DT, 4, "dpp", grid)


def test_a_line_of_many_chunks_equals_the_replication_loop():
    # a fine dt gives each line's particles several chunks between them
    spec = MODELS["binary"]
    rule = never_rule(3.0, FORCE_STOP)
    dt = 3.0 / CHUNK_SAMPLES
    est = mc_value(spec, rule, (MOTHER, [0.3]), 3, dt, seed=8)
    assert est == reference_value(spec, rule, (MOTHER, [0.3]), 3, dt, 8)


def test_chunked_draws_equal_one_particle_draws():
    # particles of several lengths, drawn together and one by one, a call per dt
    spec = MODELS["binary"]
    items = [(seed, (seed % 3,), 0.1 * seed, np.array([0.2 * seed]), 2.0 + seed)
             for seed in range(12) for _ in range(2)]
    for dt in (0.05, 0.01, 0.2):
        together = list(draw_particles(spec, dt, items))
        alone = [next(draw_particles(spec, dt, [item])) for item in items]
        assert list(draw_particles(spec, dt, [])) == list(draw_particles(spec, dt, iter(()))) == []
        assert len(together) < len(alone)
        assert sum(len(c.starts) - 1 for c in together) == len(items)
        for field in ("times", "positions", "end_time", "count", "proposals"):
            joined = [getattr(c, field) for c in together]
            assert np.array_equal(np.concatenate(joined), np.concatenate(
                [getattr(c, field) for c in alone])), (dt, field)


# items of mixed seeds, label depths, births and horizons, in no particular order
POOL = [(replication_seed(5, i), (i % 3,) * (i % 4), 0.1 * i, np.array([0.3 * (i % 5) - 0.6]),
         1.0 + 0.05 * i) for i in range(24)]


def _particles(chunks):
    return [p for chunk in chunks for p in chunk.particles()]


def _same(a, b):
    return len(a) == len(b) and all(
        all(np.array_equal(u, v) for u, v in zip(p, q)) for p, q in zip(a, b))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=st.sampled_from(sorted(MODELS)), dt=st.sampled_from([0.05, 0.01, 0.2]),
       order=st.permutations(range(len(POOL))),
       cuts=st.lists(st.integers(0, len(POOL)), max_size=5))
def test_draws_do_not_depend_on_the_batch(model, dt, order, cuts):
    # a particle is the same whichever items share its call, in whatever order,
    # while the calls' chunks are taken in turn; the cuts may leave a piece empty
    spec = MODELS[model]
    base = _particles(draw_particles(spec, dt, POOL))
    items = [POOL[i] for i in order]
    bounds = [0, *sorted(cuts), len(items)]
    calls = [draw_particles(spec, dt, iter(items[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
    chunks = [[] for _ in calls]
    for turn in itertools.zip_longest(*calls):
        for got, chunk in zip(chunks, turn):
            if chunk is not None:
                got.append(chunk)
    assert _same([p for got in chunks for p in _particles(got)], [base[i] for i in order])


def test_max_particles_is_a_bound_per_line():
    spec = make_spec(diffusion=("constant", 0.5), alpha=2.0, offspring=("deterministic", 2))
    rule = never_rule(1.5)
    start, reps = (MOTHER, [0.0]), 6
    # the particles mc_value's walk draws on each line
    draw, asked = recording_draw(spec, DT)
    seeds = [replication_seed(9, r) for r in range(reps)]
    walk_lines(rule, [Line(MOTHER, 0.0, np.array([0.0]), seed, rule.t_cut) for seed in seeds],
               draw, model_hash(spec))
    drawn = [sum(item[0] == seed for item in asked) for seed in seeds]
    most = max(drawn)
    assert sum(drawn) > most > 3
    est = mc_value(spec, rule, start, reps, DT, seed=9, max_particles=most)
    assert est == reference_value(spec, rule, start, reps, DT, 9)
    with pytest.raises(SimulationError, match="max_particles"):
        reference_value(spec, rule, start, reps, DT, 9, max_particles=most - 1)
    with pytest.raises(SimulationError, match="max_particles"):
        mc_value(spec, rule, start, reps, DT, seed=9, max_particles=most - 1)


def _outcome(out):
    return ([(s.label, s.time, s.position.tolist(), s.generation, s.forced, s.part)
             for s in out.stops], out.passed_alive)


@pytest.mark.parametrize("policy", [ABANDON, FORCE_STOP])
def test_roots_of_two_generations_walk_as_two_walks(grids, policy):
    spec = MODELS["binary"]
    draw = partial(draw_particles, spec, DT)
    lines = [Line(label, 0.0, np.array([x]), seed, T_CUT)
             for seed, label, x in [(1, (0,), 0.1), (2, (1, 2), -0.4), (3, (2,), 0.5),
                                    (4, (0, 1), 0.3)]]
    for name, rule in catalog(grids["binary"], policy).items():
        together = walk_lines(rule, lines, draw, model_hash(spec))
        first = walk_lines(rule, lines[0::2], draw, model_hash(spec))
        second = walk_lines(rule, lines[1::2], draw, model_hash(spec))
        apart = [first[0], second[0], first[1], second[1]]
        assert [_outcome(out) for out in together] == [_outcome(out) for out in apart], name


def stack_walk(record, t, t_cut):
    """A fixed_time(t) line with forced stops, by a depth-first stack walk:
    roots ascending, children by descending index."""
    stops = []
    stack = sorted(record.roots(), reverse=True)
    while stack:
        lab = stack.pop()
        p = record.particles[lab]
        fires = np.flatnonzero((p.times >= t - 1e-12) & (p.times < min(p.end_time, t_cut)))
        if t >= p.birth_time - 1e-12 and len(fires):
            stops.append((lab, float(p.times[fires[0]])))
        elif p.end_time <= t_cut:
            stack.extend(lab + (k,) for k in range(p.offspring_count))
        else:
            stops.append((lab, t_cut))
    return stops


@pytest.mark.parametrize("seed", range(4))
def test_multi_root_stops_come_in_depth_first_order(seed):
    spec = make_spec(diffusion=("constant", 0.6), alpha=1.5, offspring=("binary", (0.2, 0.8)))
    initial = [((2,), [0.0]), ((0, 3), [0.5]), ((1,), [-0.5]), ((0, 1, 4), [1.0])]
    full = simulate_forest(spec, initial, horizon=3.0, dt=0.1, seed=seed)
    line = evaluate_line(full, fixed_time_rule(1.6, 2.5, FORCE_STOP))
    expected = stack_walk(full, 1.6, 2.5)
    assert [(s.label, s.time) for s in line.stops] == expected
    assert len(expected) > len(initial)


def reference_subtree_samples(spec, point, reps, dt, seed, window, s, shared, max_samples=None):
    """subtree_reward_samples as a loop over replications: the subtree of the
    mother's child 0 and a fresh forest from the branch state, each evaluated
    on an `_extract_subtree` view of a whole forest."""
    rule = fixed_time_rule(s, s + dt, "abandon")
    a_vals, b_vals = [], []
    for r in range(reps):
        seed_a = replication_seed(seed, r, "A")
        rec = simulate_forest(spec, [(MOTHER, np.array([point]))], horizon=window + s + 2 * dt,
                              dt=dt, seed=seed_a)
        mother = rec.particles[MOTHER]
        if (mother.end_kind != "branched" or not mother.offspring_count
                or mother.end_time > window):
            continue
        a_vals.append(reward_of_outcome(spec, evaluate_line(_extract_subtree(rec, (0,)), rule)))
        base = mother.end_time
        rec_b = simulate_forest(spec, [((0,), mother.positions[-1].copy())],
                                horizon=base + s + dt + dt, dt=dt,
                                seed=seed_a if shared else replication_seed(seed, r, "B"),
                                t0=base)
        b_vals.append(reward_of_outcome(spec, evaluate_line(_extract_subtree(rec_b, (0,)), rule)))
        if max_samples is not None and len(a_vals) >= max_samples:
            break
    return a_vals, b_vals


@pytest.mark.parametrize("max_samples", [None, 7])
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("model", ["binary", "poisson", "logistic_rate", "poisson_of_x",
                                   "linear_branching"])
def test_subtree_samples_equal_the_pair_loop(model, shared, max_samples):
    spec, point = MODELS[model], STARTS.get(model, 0.3)
    args = (spec, point, 60, 0.02, 21, 1.5, 0.5)
    a, b = subtree_reward_samples(*args, shared_streams=shared, max_samples=max_samples)
    a_ref, b_ref = reference_subtree_samples(*args, shared, max_samples)
    assert len(a_ref) >= (7 if max_samples else 10)
    assert a.tolist() == a_ref and b.tolist() == b_ref
    if shared:
        assert np.array_equal(a, b)
    assert all(math.isfinite(v) for v in a_ref + b_ref)
