import hashlib
import math
import struct
from functools import partial

import numpy as np
import pytest
from pytest import approx

from stopline.labels import MOTHER
from stopline.model import RewardFunction, model_hash
from stopline.pde import SolverSettings, solve_scalar
from stopline.reward import (
    McEstimate,
    RewardError,
    _dpp_rule,
    dpp_product,
    estimate_from_samples,
    mc_value,
    reward_of_outcome,
    reward_of_outcomes,
)
from stopline.simulator import draw_particles, replication_seed, simulate_forest
from stopline.stopping import (
    ABANDON,
    FORCE_STOP,
    Line,
    LineOutcome,
    Stop,
    contact_set_rule,
    evaluate_line,
    exit_ball_rule,
    first_branch_rule,
    first_fire,
    fixed_time_rule,
    min_of_rules,
    never_rule,
    trivial_root_rule,
    walk_lines,
)

from conftest import make_spec, recording_draw


def outcome_with(rec, stops):
    return LineOutcome(stops=stops, passed_alive=[], record=rec)


@pytest.fixture
def dummy_record():
    spec = make_spec(alpha=0.0)
    return simulate_forest(spec, [(MOTHER, [0.0])], horizon=1.0, dt=0.5, seed=0)


def test_empty_product_is_one(dummy_record):
    spec = make_spec(gamma=2.0)
    assert reward_of_outcome(spec, outcome_with(dummy_record, [])) == 1.0


def test_single_root_stop_gives_g(dummy_record):
    spec = make_spec(rewards=(RewardFunction("bump", a=0.8),))
    out = outcome_with(dummy_record, [Stop(MOTHER, 0.0, np.array([0.0]), 0)])
    assert reward_of_outcome(spec, out) == approx(0.8)


def test_two_stop_product(dummy_record):
    spec = make_spec(gamma=0.7,
                     rewards=(RewardFunction("constant", c=0.5),
                              RewardFunction("constant", c=0.9)))
    stops = [Stop((0,), 0.4, np.array([0.0]), 1), Stop((1,), 1.1, np.array([0.0]), 1)]
    expected = math.exp(-0.7 * (0.4 + 1.1)) * 0.9 * 0.9
    assert reward_of_outcome(spec, outcome_with(dummy_record, stops)) == approx(expected)


def test_zero_reward_short_circuits(dummy_record):
    spec = make_spec(rewards=(RewardFunction("constant", c=0.0),))
    stops = [Stop(MOTHER, 0.2, np.array([0.0]), 0)]
    assert reward_of_outcome(spec, outcome_with(dummy_record, stops)) == 0.0


def test_many_small_factors_do_not_underflow(dummy_record):
    spec = make_spec(gamma=1.0, rewards=(RewardFunction("constant", c=0.5),))
    stops = [Stop((k,), 500.0, np.array([0.0]), 1) for k in range(3)]
    val = reward_of_outcome(spec, outcome_with(dummy_record, stops))
    assert val == approx(math.exp(3 * (-500.0 + math.log(0.5))), rel=1e-9)


# --- the batched scorer against the scorer one stop at a time


def reference_reward(spec, outcome, grid=None):
    """One line's reward scored stop by stop, one reward call each, as the
    library did before it scored a batch at once; a theta or cut stop inside
    the grid takes the grid's interpolant, raised to g where it falls below."""
    log_total = 0.0
    for s in outcome.stops:
        f = spec.reward_at(s.generation)(s.position)
        if grid is not None and s.part == 0 and grid.contains(s.position[:1])[0]:
            f = max(float(grid.values_at(s.generation, s.position[:1])[0]), f)
        if f <= 0.0:
            return 0.0
        log_total += -spec.gamma * s.time + math.log(f)
    return math.exp(log_total)


# numpy's AVX-512 log rounds log(c) one ulp away from libm's, so a scorer
# that takes its logs from numpy scores the lines of c differently
LOG_ROUNDED_APART = 0.863857216916683
DEPTH2_REWARDS = (RewardFunction("clipped_put", strike=1.0),
                  RewardFunction("bump", a=0.9, center=0.5, width=1.5),
                  RewardFunction("constant", c=LOG_ROUNDED_APART))


@pytest.fixture(scope="module", params=["depth2_grid", "depth2", "bump_2d"])
def scored_batch(request):
    """A model, a grid or None, and a mixed batch of lines to score."""
    if request.param == "bump_2d":
        spec = make_spec(dimension=2, gamma=0.8,
                         rewards=(RewardFunction("bump", a=1.0, center=0.3, width=2.0),))
    else:
        spec = make_spec(diffusion=("constant", 1.0), alpha=0.5, gamma=1.3,
                         offspring=("deterministic", 2), rewards=DEPTH2_REWARDS)
    grid = (solve_scalar(spec, SolverSettings(x_lo=-4.0, x_hi=4.0, n_cells=200))
            if request.param == "depth2_grid" else None)
    rng = np.random.default_rng(30)
    d = spec.dimension

    def stop(time, x, generation, forced=False, part=0):
        return Stop((len(lines), generation), time, np.full(d, x, dtype=float), generation,
                    forced=forced, part=part)

    def random_stop():
        # a third forced, the rest parts 0 and 1; about a quarter outside [-4, 4]
        forced = rng.random() < 1 / 3
        x = rng.uniform(-6.0, 6.0, d)
        return Stop((len(lines),), float(rng.uniform(0.0, 6.0)), x, int(rng.integers(0, 5)),
                    forced=forced, part=0 if forced else int(rng.integers(0, 2)))

    lines = []
    for n in [1, 2, 3, 5, 8, 13, 21, 34, 50] * 4:
        lines.append([random_stop() for _ in range(n)])
    lines.append([])
    zero = stop(0.5, 40.0, 0, part=1)  # g is 0 there at level 0, and tau takes g
    lines.append([zero] + [random_stop() for _ in range(4)])
    lines.append([random_stop() for _ in range(3)] + [zero] + [random_stop() for _ in range(3)])
    lines.append([stop(0.2, math.nan, 1, part=1)])
    lines.append([stop(0.2, math.nan, 1, part=1), zero])
    # factors of 1 and one term far above the rest, which it absorbs when it
    # comes first: summed in the other order the total differs
    one = 0.3 if d == 2 else 0.0  # where g_0 is 1
    lines.append([stop(1.0, one, 0, part=1)] + [stop(4e-17, one, 0, part=1)] * 20)
    lines.append([stop(0.0, 0.0, 2, part=1)] * 20)
    outcomes = [LineOutcome(stops, []) for stops in lines]
    return spec, grid, outcomes


def test_batched_scores_equal_the_stop_by_stop_reference(scored_batch):
    spec, grid, outcomes = scored_batch
    rewards = reward_of_outcomes(spec, outcomes, grid)
    expected = [reference_reward(spec, out, grid) for out in outcomes]
    assert rewards.dtype == float and len(rewards) == len(outcomes)
    assert np.array_equal(rewards, expected, equal_nan=True)
    assert rewards[-7] == 1.0 and rewards[-6] == rewards[-5] == rewards[-3] == 0.0
    assert math.isnan(rewards[-4])
    # the sum of the second last line depends on the order of its stops
    order_swapped = LineOutcome(outcomes[-2].stops[::-1], [])
    assert reference_reward(spec, order_swapped, grid) != expected[-2]


def test_line_alone_scores_as_in_the_batch(scored_batch):
    spec, grid, outcomes = scored_batch
    rewards = reward_of_outcomes(spec, outcomes, grid)
    for out, reward in zip(outcomes, rewards.tolist()):
        assert np.array_equal(reward_of_outcomes(spec, [out], grid), [reward], equal_nan=True)
        assert np.array_equal(reward_of_outcome(spec, out, grid), reward, equal_nan=True)
    assert len(reward_of_outcomes(spec, [], grid)) == 0


def test_mc_trivial_root_deterministic():
    spec = make_spec(diffusion=("constant", 0.5),
                     rewards=(RewardFunction("bump", a=0.8),))
    est = mc_value(spec, trivial_root_rule(t_cut=1.0),
                   (MOTHER, [0.3]), reps=16, dt=0.1, seed=1)
    g = spec.reward_at(0)(np.array([0.3]))
    assert est.mean == approx(g)
    assert est.stderr == 0.0


def test_mc_fixed_time_deterministic_path():
    c, gamma, t = 0.6, 1.3, 0.5
    spec = make_spec(gamma=gamma, rewards=(RewardFunction("constant", c=c),))
    est = mc_value(spec, fixed_time_rule(t, t_cut=1.0), (MOTHER, [0.0]),
                   reps=8, dt=0.05, seed=2)
    assert est.mean == approx(c * math.exp(-gamma * t), abs=1e-12)
    assert est.stderr == 0.0


def test_mc_pure_death_two_case_formula():
    # stopped alive at t: c e^{-gamma t}; dead by t: empty product = 1
    a, gamma, c, t = 0.8, 1.1, 0.5, 0.7
    spec = make_spec(alpha=a, gamma=gamma, offspring=("deterministic", 0),
                     rewards=(RewardFunction("constant", c=c),))
    est = mc_value(spec, fixed_time_rule(t, t_cut=1.4), (MOTHER, [0.0]),
                   reps=4000, dt=0.05, seed=3)
    expected = c * math.exp(-(gamma + a) * t) + (1.0 - math.exp(-a * t))
    assert abs(est.mean - expected) <= 3 * est.stderr


def test_mc_is_seed_deterministic():
    spec = make_spec(diffusion=("constant", 1.0), alpha=0.5,
                     offspring=("deterministic", 2),
                     rewards=(RewardFunction("bump", a=0.8),))
    rule = fixed_time_rule(0.5, t_cut=1.0)
    a = mc_value(spec, rule, (MOTHER, [0.0]), reps=60, dt=0.05, seed=9)
    b = mc_value(spec, rule, (MOTHER, [0.0]), reps=60, dt=0.05, seed=9)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_mc_requires_two_reps():
    spec = make_spec()
    with pytest.raises(RewardError):
        mc_value(spec, trivial_root_rule(1.0), (MOTHER, [0.0]), reps=1, dt=0.1, seed=0)


def test_rewards_bounded_by_kg_power():
    spec = make_spec(diffusion=("constant", 1.0), alpha=1.0,
                     offspring=("deterministic", 2),
                     rewards=(RewardFunction("bump", a=0.8),))
    rule = fixed_time_rule(0.8, t_cut=1.0)
    from stopline.simulator import replication_seed

    for r in range(50):
        rec = simulate_forest(spec, [(MOTHER, [0.0])], horizon=1.0, dt=0.05,
                              seed=replication_seed(33, r))
        out = evaluate_line(rec, rule)
        val = reward_of_outcome(spec, out)
        assert 0.0 <= val <= spec.k_g ** max(len(out.stops), 1)


def test_estimate_json_fields(tmp_path):
    est = McEstimate(mean=0.5, stderr=0.01, reps=100, seed=7, t_cut=2.0,
                     cut_policy="abandon")
    path = tmp_path / "est.json"
    est.write_json(str(path))
    import json

    with open(path) as f:
        obj = json.load(f)
    assert set(obj) == {"mean", "stderr", "reps", "seed", "t_cut", "cut_policy"}


def test_z_score_floor():
    est = McEstimate(mean=0.5, stderr=0.0, reps=10, seed=0, t_cut=1.0,
                     cut_policy="abandon")
    assert est.z_score(0.5) == 0.0
    assert abs(est.z_score(0.5 + 1e-9)) < 1.0
    assert est.z_score(0.4) > 100.0


def test_mc_population_cap_counts_only_simulated_particles():
    # the forest of test_max_particles_guard outgrows the cap, but the
    # trivial-root line needs the root alone
    spec = make_spec(alpha=5.0, offspring=("deterministic", 2))
    est = mc_value(spec, trivial_root_rule(t_cut=10.0), (MOTHER, [0.0]),
                   reps=4, dt=1.0, seed=1, max_particles=50)
    assert est.mean == spec.reward_at(0)(np.array([0.0]))
    assert est.stderr == 0.0


# --- the estimator's walk draws particles of the full forest, and gives its line

PRUNE_T_CUT, PRUNE_DT, PRUNE_X0, PRUNE_SEEDS = 3.0, 0.05, 1.5, range(6)
BUMP = RewardFunction("bump", a=0.8, center=0.0, width=1.0)


@pytest.fixture(scope="module", params=["bump", "binary"])
def solved_model(request):
    if request.param == "bump":
        spec = make_spec(diffusion=("constant", 1.5), alpha=0.25,
                         offspring=("deterministic", 2), rewards=(BUMP,))
    else:
        spec = make_spec(diffusion=("constant", 1.5), alpha=1.0,
                         offspring=("binary", (0.3, 0.7)), rewards=(BUMP,))
    grid = solve_scalar(spec, SolverSettings(x_lo=-8, x_hi=8, n_cells=800))
    return spec, grid


def catalog_rule(kind, grid, policy):
    t_cut = PRUNE_T_CUT
    if kind == "trivial_root":
        return trivial_root_rule(t_cut, policy)
    if kind == "fixed_time":
        return fixed_time_rule(1.0, t_cut, policy)
    if kind == "first_branch":
        return first_branch_rule(t_cut, policy)
    if kind == "exit_ball":
        return exit_ball_rule([0.0], 2.5, 2.0, t_cut, policy)
    if kind == "contact_set":
        return contact_set_rule(grid, 1e-3, t_cut, policy)
    if kind == "never":
        return never_rule(t_cut, policy)
    return min_of_rules(fixed_time_rule(1.5, t_cut, policy),
                        contact_set_rule(grid, 1e-3, t_cut, policy))


def forest_pair(spec, seed, rule):
    """The full forest, the labels that `mc_value`'s walk of the rule draws
    on the same stream and the line it gives; each drawn particle is one of
    the full forest's, born at the same time and place."""
    start = [(MOTHER, [PRUNE_X0])]
    full = simulate_forest(spec, start, horizon=PRUNE_T_CUT, dt=PRUNE_DT, seed=seed)
    draw, asked = recording_draw(spec, PRUNE_DT)
    (line,) = walk_lines(rule, [Line(MOTHER, 0.0, np.array([PRUNE_X0]), seed, PRUNE_T_CUT)],
                         draw, model_hash(spec))
    for _, lab, birth, x, *_ in asked:
        p = full.particles[lab]
        assert birth == p.times[0] and np.array_equal(x, p.positions[0]), lab
    return full, [item[1] for item in asked], line


@pytest.mark.parametrize("policy", [ABANDON, FORCE_STOP])
@pytest.mark.parametrize("kind", ["trivial_root", "fixed_time", "first_branch",
                                  "exit_ball", "contact_set", "never", "min_of"])
def test_pruned_forest_gives_identical_line(solved_model, kind, policy):
    spec, grid = solved_model
    rule = catalog_rule(kind, grid, policy)
    full_rewards = []
    for s in PRUNE_SEEDS:
        seed = replication_seed(5, s)
        full, drawn, b = forest_pair(spec, seed, rule)
        a = evaluate_line(full, rule)
        assert [(x.label, x.time, x.generation, x.forced) for x in a.stops] == \
            [(x.label, x.time, x.generation, x.forced) for x in b.stops]
        assert all(np.array_equal(x.position, y.position) for x, y in zip(a.stops, b.stops))
        assert a.passed_alive == b.passed_alive
        reward = reward_of_outcome(spec, a)
        assert reward_of_outcome(spec, b) == reward
        full_rewards.append(reward)
        if kind == "trivial_root":
            assert drawn == []
    est = mc_value(spec, rule, (MOTHER, [PRUNE_X0]), reps=len(PRUNE_SEEDS),
                   dt=PRUNE_DT, seed=5)
    assert est == estimate_from_samples(full_rewards, 5, PRUNE_T_CUT, policy)


@pytest.mark.parametrize("policy", [ABANDON, FORCE_STOP])
def test_pruned_forest_gives_identical_dpp_product(solved_model, policy):
    spec, grid = solved_model
    theta = first_branch_rule(PRUNE_T_CUT, policy)
    tau = contact_set_rule(grid, 1e-3, PRUNE_T_CUT, policy)
    full_products = []
    for s in PRUNE_SEEDS:
        full, _, line = forest_pair(spec, replication_seed(6, s), _dpp_rule(theta, tau))
        product = dpp_product(spec, full, theta, tau, grid)
        assert reward_of_outcome(spec, line, grid) == product
        full_products.append(product)
    est = mc_value(spec, _dpp_rule(theta, tau), (MOTHER, [PRUNE_X0]), reps=len(PRUNE_SEEDS),
                   dt=PRUNE_DT, seed=6, grid=grid)
    # the estimate carries the policy of the line it scored, theta ^ tau's
    assert est == estimate_from_samples(full_products, 6, PRUNE_T_CUT, FORCE_STOP)


# --- a particle that its line stops at birth is never drawn

def birth_rules(grid, policy):
    """Every catalog kind, and min_of pairs whose parts tie at birth."""
    t_cut = PRUNE_T_CUT
    contact = contact_set_rule(grid, 1e-3, t_cut, policy)
    rules = [catalog_rule(kind, grid, policy) for kind in
             ("trivial_root", "fixed_time", "first_branch", "exit_ball", "contact_set",
              "never", "min_of")]
    return rules + [
        fixed_time_rule(0.0, t_cut, policy),
        exit_ball_rule([0.0], 0.5, 0.4, t_cut, policy),
        _dpp_rule(first_branch_rule(t_cut, FORCE_STOP), contact_set_rule(grid, 1e-3, t_cut,
                                                                         FORCE_STOP)),
        min_of_rules(contact, trivial_root_rule(t_cut, policy)),
        min_of_rules(never_rule(t_cut, policy), contact),
        min_of_rules(first_branch_rule(t_cut, policy), min_of_rules(contact, contact)),
    ]


def assert_birth_test_matches_drawn(rule, record):
    """At every particle of a full forest, the birth state the walk holds is
    sample 0 of the drawn particle, and `first_fire` on it gives what it gives
    at index 0 of the drawn path, part included."""
    starts = dict(record.initial)
    fired = 0
    for lab, p in record.particles.items():
        root = next(r for r in starts if lab[:len(r)] == r)
        if lab in starts:
            birth, x = record.t0, starts[lab]
        else:
            mother = record.particles[lab[:-1]]
            birth, x = mother.end_time, mother.positions[-1]
        assert birth == p.times[0] and np.array_equal(x, p.positions[0]), lab
        depth, n = len(lab) - len(root), len(p.times)
        # the walk takes a path's first firing only before the particle's end,
        # and a birth state's only before t_cut
        fire, part = first_fire(rule, depth, len(lab), np.array([birth]), p.times, p.positions,
                                np.array([0, n]))
        before_end = p.times[0] < min(p.end_time, rule.t_cut)
        expected = (0, int(part[0])) if fire[0] == 0 and before_end else None
        fire, part = first_fire(rule, depth, len(lab), np.array([birth]), np.array([birth]),
                                x[None, :], np.array([0, 1]))
        at_birth = (0, int(part[0])) if fire[0] == 0 and birth < rule.t_cut else None
        assert at_birth == expected, (rule, lab)
        fired += expected is not None
    return fired


@pytest.mark.parametrize("x0", [0.0, 1.5])
def test_birth_test_equals_rule_fire_time_at_index_zero(solved_model, x0):
    spec, grid = solved_model
    fired = 0
    for s in PRUNE_SEEDS:
        full = simulate_forest(spec, [(MOTHER, [x0])], horizon=PRUNE_T_CUT, dt=PRUNE_DT,
                               seed=replication_seed(7, s))
        for policy in (ABANDON, FORCE_STOP):
            for rule in birth_rules(grid, policy):
                fired += assert_birth_test_matches_drawn(rule, full)
        # fixed_time at, and just around, a child's birth: the 1e-12 window edges
        children = [p for lab, p in full.particles.items() if lab]
        for p in children[:3]:
            for dt in (0.0, 5e-13, -5e-13, 2e-12, -2e-12):
                fired += assert_birth_test_matches_drawn(
                    fixed_time_rule(p.birth_time + dt, PRUNE_T_CUT), full)
    assert fired > 0


def test_birth_test_on_a_clock_that_starts_late(solved_model):
    spec, grid = solved_model
    full = simulate_forest(spec, [(MOTHER, [0.0])], horizon=PRUNE_T_CUT + 1.0, dt=PRUNE_DT,
                           seed=3, t0=1.0)
    for rule in birth_rules(grid, FORCE_STOP):
        assert_birth_test_matches_drawn(rule, full)
    assert assert_birth_test_matches_drawn(fixed_time_rule(1.0, PRUNE_T_CUT), full) == 1


def test_dpp_walk_on_open_forest_draws_no_child_of_the_root(solved_model):
    spec, grid = solved_model
    rule = _dpp_rule(first_branch_rule(PRUNE_T_CUT, FORCE_STOP),
                     contact_set_rule(grid, 1e-3, PRUNE_T_CUT, FORCE_STOP))
    branched = 0
    for s in PRUNE_SEEDS:
        full, drawn, b = forest_pair(spec, replication_seed(8, s), rule)
        assert drawn == [MOTHER]
        a = evaluate_line(full, rule)
        assert [(x.label, x.time, x.generation, x.forced, x.part) for x in a.stops] == \
            [(x.label, x.time, x.generation, x.forced, x.part) for x in b.stops]
        assert all(np.array_equal(x.position, y.position) for x, y in zip(a.stops, b.stops))
        branched += any(len(x.label) == 1 for x in b.stops)
    assert branched > 0


@pytest.mark.parametrize("kind", ["trivial_root", "fixed_time", "first_branch",
                                  "exit_ball", "contact_set", "never", "min_of", "dpp"])
def test_mc_value_at_a_contact_start_equals_full_forests(solved_model, kind):
    spec, grid = solved_model
    if kind == "dpp":
        rule = _dpp_rule(first_branch_rule(PRUNE_T_CUT, FORCE_STOP),
                         contact_set_rule(grid, 1e-3, PRUNE_T_CUT, FORCE_STOP))
    else:
        rule = catalog_rule(kind, grid, FORCE_STOP)
    scored = grid if kind == "dpp" else None
    reps, seed = 40, 11
    full_rewards = [
        reward_of_outcome(spec, evaluate_line(
            simulate_forest(spec, [(MOTHER, [0.0])], horizon=PRUNE_T_CUT, dt=PRUNE_DT,
                            seed=replication_seed(seed, r)), rule), scored)
        for r in range(reps)]
    est = mc_value(spec, rule, (MOTHER, [0.0]), reps=reps, dt=PRUNE_DT, seed=seed,
                   grid=scored)
    assert est == estimate_from_samples(full_rewards, seed, PRUNE_T_CUT, FORCE_STOP)


# --- the stop lines themselves, pinned bit for bit

STOP_LINE_DIGESTS = {
    "bump": "2da58500d489208eb82697ea7dc242f6fca5e7ad3e15d698f2320615b7a7fb87",
    "binary": "5dc759d1eb96ba4fa0366754e884fe37c162c25abef999e16f700119eafbaf82",
}


def stop_line_digest(spec, grid):
    """SHA-256 over the stop lines of every catalog kind and the DPP line, under
    both cut policies, by `evaluate_line` on full forests and by the
    estimators' walk on their lines, one of them on a late clock."""
    h = hashlib.sha256()
    forests = [(x0, replication_seed(9, s), 0.0) for x0 in (0.0, 1.5) for s in range(3)]
    forests.append((0.0, 3, 1.0))
    for x0, seed, t0 in forests:
        args = (spec, [(MOTHER, [x0])], PRUNE_T_CUT + t0, PRUNE_DT, seed)
        full = simulate_forest(*args, t0=t0)
        for policy in (ABANDON, FORCE_STOP):
            rules = birth_rules(grid, policy) + [
                _dpp_rule(first_branch_rule(PRUNE_T_CUT, policy),
                          contact_set_rule(grid, 1e-3, PRUNE_T_CUT, policy))]
            for rule in rules:
                walked = walk_lines(rule, [Line(MOTHER, t0, np.array([x0]), seed,
                                                PRUNE_T_CUT + t0)],
                                    partial(draw_particles, spec, PRUNE_DT), model_hash(spec))[0]
                for line in (evaluate_line(full, rule), walked):
                    for s in line.stops:
                        h.update(repr((tuple(s.label), int(s.part), bool(s.forced))).encode())
                        h.update(struct.pack("<d", float(s.time)))
                        h.update(np.asarray(s.position, dtype=np.float64).tobytes())
                    h.update(repr([tuple(lab) for lab in line.passed_alive]).encode())
    return h.hexdigest()


def test_stop_lines_are_pinned(solved_model, request):
    spec, grid = solved_model
    name = request.node.callspec.params["solved_model"]
    assert stop_line_digest(spec, grid) == STOP_LINE_DIGESTS[name]
