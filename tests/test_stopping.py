import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from stopline.labels import MOTHER, is_antichain
from stopline.model import RewardFunction, model_hash
from stopline.pde import (CANNOT_FIRE, SURELY_FIRES, SolverError, SolverSettings, ValueGrid,
                          solve_scalar)
from stopline.reward import mc_value
from stopline.simulator import replication_seed, simulate_forest
from stopline.stopping import (
    ABANDON,
    FORCE_STOP,
    Line,
    LineOutcome,
    Stop,
    StoppingRule,
    StoppingError,
    _hits,
    contact_set_rule,
    evaluate_line,
    exit_ball_rule,
    first_branch_rule,
    fixed_time_rule,
    min_of_rules,
    never_rule,
    rule_from_json,
    trivial_root_rule,
    walk_lines,
)

from conftest import make_spec, recording_draw

START = [(MOTHER, [0.0])]


def forest(spec, horizon=2.0, dt=0.1, seed=3):
    return simulate_forest(spec, START, horizon=horizon, dt=dt, seed=seed)


def test_trivial_root_stops_root_at_zero():
    spec = make_spec(alpha=1.0, offspring=("deterministic", 2))
    out = evaluate_line(forest(spec), trivial_root_rule(t_cut=2.0))
    assert [s.label for s in out.stops] == [MOTHER]
    assert out.stops[0].time == 0.0
    assert np.allclose(out.stops[0].position, [0.0])
    assert out.passed_alive == []


def test_never_rule_on_pure_death():
    spec = make_spec(alpha=2.0, offspring=("deterministic", 0))
    rec = simulate_forest(spec, START, horizon=20.0, dt=5.0, seed=8)
    out = evaluate_line(rec, never_rule(t_cut=20.0))
    assert out.stops == []
    if math.isfinite(rec.particles[MOTHER].end_time):
        assert out.passed_alive == []


def test_fixed_time_stops_survivor():
    spec = make_spec(diffusion=("constant", 0.5), alpha=0.0)
    rec = forest(spec, horizon=2.0, dt=0.1)
    out = evaluate_line(rec, fixed_time_rule(1.0, t_cut=2.0))
    assert len(out.stops) == 1
    s = out.stops[0]
    assert s.label == MOTHER
    assert s.time == approx(1.0, abs=1e-9)
    p = rec.particles[MOTHER]
    idx = int(np.searchsorted(p.times, 1.0 - 1e-12))
    assert np.allclose(s.position, p.positions[idx])


def test_fixed_time_zero_stops_roots_only():
    spec = make_spec(alpha=1.5, offspring=("deterministic", 2))
    out = evaluate_line(forest(spec), fixed_time_rule(0.0, t_cut=2.0))
    assert [s.label for s in out.stops] == [MOTHER]
    assert out.stops[0].time == 0.0


def test_fixed_time_line_is_population_cut():
    spec = make_spec(alpha=1.0, offspring=("deterministic", 2))
    rec = forest(spec, horizon=3.0, dt=0.05, seed=17)
    t = 1.5
    out = evaluate_line(rec, fixed_time_rule(t, t_cut=3.0))
    alive = {lab for lab, p in rec.particles.items()
             if p.birth_time <= t < p.end_time}
    got = {s.label for s in out.stops}
    # sample-resolution firing may miss a particle dying within dt of t
    assert got <= alive
    missed = alive - got
    for lab in missed:
        assert rec.particles[lab].end_time - t < 2 * rec.dt


def test_first_branch_stops_children_at_birth():
    spec = make_spec(alpha=2.0, offspring=("deterministic", 2))
    rec = forest(spec, horizon=4.0, dt=0.5, seed=5)
    mother = rec.particles[MOTHER]
    out = evaluate_line(rec, first_branch_rule(t_cut=4.0))
    if mother.end_kind == "branched" and mother.end_time < 4.0:
        assert {s.label for s in out.stops} == {(0,), (1,)}
        for s in out.stops:
            assert s.time == approx(mother.end_time)
            assert np.allclose(s.position, mother.positions[-1])
    else:
        assert out.stops == []


def test_exit_ball_fires_on_exit_or_cap():
    spec = make_spec(diffusion=("constant", 1.0), alpha=0.0)
    rec = forest(spec, horizon=9.0, dt=0.01, seed=12)
    rule = exit_ball_rule([0.0], radius=0.8, cap_t=8.0, t_cut=9.0)
    out = evaluate_line(rec, rule)
    assert len(out.stops) == 1
    s = out.stops[0]
    assert abs(s.position[0]) >= 0.8 or s.time == approx(8.0, abs=0.02)


def test_cut_policies():
    spec = make_spec(diffusion=("constant", 0.3), alpha=0.0)
    rec = forest(spec, horizon=2.0, dt=0.1)
    out_ab = evaluate_line(rec, never_rule(t_cut=1.0))
    assert out_ab.stops == []
    assert out_ab.passed_alive == [MOTHER]
    out_fs = evaluate_line(rec, never_rule(t_cut=1.0, cut_policy="force_stop"))
    assert len(out_fs.stops) == 1
    assert out_fs.stops[0].time == approx(1.0)
    assert out_fs.stops[0].forced
    assert out_fs.passed_alive == []


def test_line_property_validator():
    rec = forest(make_spec(alpha=0.5, offspring=("deterministic", 2)))
    base = evaluate_line(rec, never_rule(t_cut=2.0))
    good = LineOutcome(
        stops=[Stop((0,), 0.1, np.zeros(1), 1), Stop((1,), 0.1, np.zeros(1), 1)],
        passed_alive=[], record=rec)
    bad = LineOutcome(
        stops=[Stop((1,), 0.1, np.zeros(1), 1), Stop((1, 0), 0.2, np.zeros(1), 2)],
        passed_alive=[], record=rec)
    empty = LineOutcome(stops=[], passed_alive=[], record=rec)
    assert is_antichain(good.stop_labels())
    assert not is_antichain(bad.stop_labels())
    assert is_antichain(empty.stop_labels())


@pytest.mark.parametrize("seed", range(8))
def test_every_evaluated_line_is_antichain(seed):
    spec = make_spec(diffusion=("constant", 0.8), alpha=1.2,
                     offspring=("binary", (0.35, 0.65)))
    rec = simulate_forest(spec, START, horizon=3.0, dt=0.05,
                          seed=replication_seed(77, seed))
    rules = [
        trivial_root_rule(3.0),
        fixed_time_rule(1.0, 3.0),
        first_branch_rule(3.0),
        exit_ball_rule([0.0], 1.0, 2.5, 3.0),
        never_rule(3.0),
        never_rule(3.0, cut_policy="force_stop"),
    ]
    for rule in rules:
        out = evaluate_line(rec, rule)
        assert is_antichain(out.stop_labels())


def test_min_of_takes_earlier_fire():
    spec = make_spec(diffusion=("constant", 0.5), alpha=0.0)
    rec = forest(spec, horizon=3.0, dt=0.1)
    early = fixed_time_rule(0.5, 3.0)
    late = fixed_time_rule(2.0, 3.0)
    out = evaluate_line(rec, min_of_rules(late, early))
    assert out.stops[0].time == approx(0.5, abs=1e-9)
    assert out.stops[0].part == 1
    # a tie goes to the first part
    tied = evaluate_line(rec, min_of_rules(early, fixed_time_rule(0.5, 3.0)))
    assert tied.stops[0].time == approx(0.5, abs=1e-9)
    assert tied.stops[0].part == 0


def test_t_cut_exceeding_horizon_rejected():
    spec = make_spec(alpha=0.0)
    rec = forest(spec, horizon=1.0, dt=0.1)
    with pytest.raises(StoppingError):
        evaluate_line(rec, never_rule(t_cut=2.0))


def test_fixed_time_requires_room_below_t_cut():
    with pytest.raises(StoppingError):
        fixed_time_rule(2.0, t_cut=2.0)


def test_rule_json_roundtrip():
    rule = min_of_rules(fixed_time_rule(0.5, 2.0), exit_ball_rule([1.0], 0.5, 1.5, 2.0))
    clone = rule_from_json(rule.to_json(), 1, 2.0, ABANDON)
    assert clone.kind == "min_of"
    assert clone.parts[0].t == approx(0.5)
    assert clone.parts[1].radius == approx(0.5)
    with pytest.raises(StoppingError):
        rule_from_json({"kind": "contact_set", "epsilon": 0.1}, 1, 1.0, ABANDON)


@pytest.fixture(scope="module")
def small_grid():
    spec = make_spec(diffusion=("constant", 1.0), alpha=0.25, offspring=("deterministic", 2),
                     rewards=(RewardFunction("bump", a=0.8),))
    return solve_scalar(spec, SolverSettings(x_lo=-6.0, x_hi=6.0, n_cells=200))


def test_contact_rule_needs_a_grid():
    # refused when the rule is built, not when it is first tested
    with pytest.raises(StoppingError, match="needs a solved grid"):
        contact_set_rule(None, 1e-3, 2.0)
    with pytest.raises(StoppingError, match="needs a solved grid"):
        rule_from_json({"kind": "min_of", "parts": [
            {"kind": "never"}, {"kind": "contact_set", "epsilon": 0.1}]}, 1, 2.0, ABANDON)


def test_every_rule_kind_survives_json_roundtrip(small_grid):
    contact = contact_set_rule(small_grid, 1e-3, 2.0, FORCE_STOP)
    rules = [
        trivial_root_rule(2.0),
        fixed_time_rule(0.5, 2.0, FORCE_STOP),
        first_branch_rule(2.0),
        exit_ball_rule([0.5], 1.5, 1.25, 2.0),
        exit_ball_rule([0.5], 1.5, math.inf, 2.0),
        contact,
        never_rule(2.0, FORCE_STOP),
        min_of_rules(first_branch_rule(2.0, FORCE_STOP), contact),
    ]
    assert {r.kind for r in rules} == set(StoppingRule.PARAMS)
    for rule in rules:
        obj = json.loads(json.dumps(rule.to_json()))
        assert set(obj) == {"kind", *StoppingRule.PARAMS[rule.kind][0]}
        assert rule_from_json(obj, 1, rule.t_cut, rule.cut_policy, lambda: small_grid) == rule


@pytest.mark.parametrize("obj", [
    {"kind": "trivial_root", "cut_polcy": "force_stop"},
    {"kind": "fixed_time", "t": 0.5, "radius": 1.0},
    {"kind": "exit_ball", "center": [0.0], "radius": 1.0, "cap_tt": 1.0},
    {"kind": "min_of", "parts": [
        {"kind": "never"}, {"kind": "first_branch", "cut_polcy": "force_stop"}]},
    # the cut is the reader's, not a rule's or a part's
    {"kind": "fixed_time", "t": 0.5, "t_cut": 2.0},
    {"kind": "min_of", "parts": [{"kind": "never", "cut_policy": "abandon"}, {"kind": "never"}]},
])
def test_misspelt_rule_field_is_refused(obj):
    with pytest.raises(StoppingError, match="unknown field"):
        rule_from_json(obj, 1, 2.0, ABANDON)


@pytest.mark.parametrize("obj", [
    {"kind": "contact_set"},
    {"kind": "fixed_time"},
    {"kind": "exit_ball", "center": [0.0]},
    {"kind": "min_of"},
])
def test_missing_rule_field_is_refused(obj):
    with pytest.raises(StoppingError, match="missing"):
        rule_from_json(obj, 1, 2.0, ABANDON, _no_grid)


def _no_grid():
    raise AssertionError("the grid was asked for")


def test_rule_from_json_asks_for_the_grid_only_for_a_contact_part(small_grid):
    contact = {"kind": "contact_set", "epsilon": 1e-3}
    rule = rule_from_json({"kind": "min_of", "parts": [
        {"kind": "never"}, {"kind": "fixed_time", "t": 0.5}]}, 1, 2.0, ABANDON, _no_grid)
    assert rule == min_of_rules(never_rule(2.0), fixed_time_rule(0.5, 2.0))
    # a part read before the contact part is refused before the grid is asked for
    with pytest.raises(StoppingError, match="cut_polcy"):
        rule_from_json({"kind": "min_of", "parts": [
            {"kind": "never", "cut_polcy": "abandon"}, contact]}, 1, 2.0, ABANDON, _no_grid)
    asked = []

    def grid():
        asked.append(small_grid)
        return small_grid
    rule = rule_from_json({"kind": "min_of", "parts": [contact, contact]}, 1, 2.0, ABANDON, grid)
    assert asked == [small_grid]
    assert [part.grid for part in rule.parts] == [small_grid, small_grid]


@pytest.mark.parametrize("center", [[], [0.0, 0.0]])
def test_exit_ball_center_of_another_dimension_is_refused(center):
    ball = {"kind": "exit_ball", "center": center, "radius": 1.0, "cap_t": 3.0}
    with pytest.raises(StoppingError, match="exit_ball center"):
        rule_from_json({"kind": "min_of", "parts": [{"kind": "never"}, ball]}, 1, 6.0, ABANDON)
    assert rule_from_json(ball, len(center), 6.0, ABANDON).center == tuple(center)
    # a rule built in Python is refused by the walk, before anything is drawn
    spec = make_spec(diffusion=("constant", 1.0), alpha=0.25, offspring=("deterministic", 2),
                     rewards=(RewardFunction("bump", a=0.8),))
    rule = exit_ball_rule(center, 1.0, 3.0, 6.0)
    draw, asked = recording_draw(spec, 0.01)
    for tested in (rule, min_of_rules(never_rule(6.0), rule)):
        with pytest.raises(StoppingError, match="exit_ball center"):
            walk_lines(tested, [Line(MOTHER, 0.0, np.zeros(1), 5, 6.0)], draw, model_hash(spec))
        with pytest.raises(StoppingError, match="exit_ball center"):
            mc_value(spec, tested, (MOTHER, [0.0]), reps=200, dt=0.01, seed=5)
    assert asked == []


def test_exit_ball_stops_a_two_dimensional_forest_outside_the_ball():
    spec = make_spec(diffusion=("constant", 1.0), alpha=0.5, offspring=("deterministic", 2),
                     dimension=2)
    rule = exit_ball_rule([0.5, -0.5], 1.0, 3.0, 6.0, FORCE_STOP)
    stops = 0
    for seed in range(5):
        rec = simulate_forest(spec, [(MOTHER, [0.5, -0.5])], horizon=6.0, dt=0.01, seed=seed)
        out = evaluate_line(rec, rule)
        assert is_antichain(out.stop_labels()) and out.passed_alive == []
        for stop in out.stops:
            assert stop.position.shape == (2,)
            outside = np.hypot(*(stop.position - [0.5, -0.5])) >= 1.0
            assert outside or stop.time >= 3.0 - 1e-12
            stops += outside
    assert stops > 0
    est = mc_value(spec, rule, (MOTHER, [0.5, -0.5]), reps=50, dt=0.01, seed=5)
    assert 0 < est.mean <= 1 and est.stderr > 0
    with pytest.raises(StoppingError, match="exit_ball center"):
        mc_value(spec, exit_ball_rule([0.5], 1.0, 3.0, 6.0), (MOTHER, [0.5, -0.5]), reps=50,
                 dt=0.01, seed=5)


# --- the contact rule's candidate table -------------------------------------

EPS = np.finfo(float).eps


def _exact_contact(grid, n, epsilon, xs):
    """The contact rule's firing test on every point, with no table."""
    clearance = grid.values_at(n, xs) - grid.obstacles_at(n, xs)
    return np.where(grid.contains(xs), clearance, 0.0) <= epsilon


def _hand_grid(xs, values, obstacles):
    n_cells = len(xs) - 1
    return ValueGrid(xs=xs, values=values[None, :], obstacles=obstacles[None, :],
                     contact=np.zeros((1, n_cells + 1), dtype=bool), model_hash="",
                     settings=SolverSettings(float(xs[0]), float(xs[-1]), n_cells),
                     depth=0, stats=[])


def _special_positions(grid):
    lo, hi = grid.x_lo, grid.x_hi
    return [lo, hi, np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf),
            math.inf, -math.inf, math.nan, 1e300, -1e300, *grid.xs]


@st.composite
def _contact_cases(draw):
    """A grid whose node clearances sit around epsilon, with values up to 1e12,
    and positions in its cells, near its ends, at its nodes and outside it.

    The solved grids and the stretches of clearances below epsilon give
    entries where the rule surely fires, and an epsilon below the table's
    rounding margin leaves none."""
    n_cells = draw(st.integers(4, 24))
    x_lo = draw(st.floats(-50.0, 50.0))
    xs = np.linspace(x_lo, x_lo + draw(st.floats(0.01, 30.0)), n_cells + 1)
    magnitude = draw(st.sampled_from([1.0, 1e6, 1e9, 1e12]))
    # generic values from a seeded generator, so that interpolation rounds
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.uniform(0.0, 1.0, n_cells + 1) * magnitude
    solved = draw(st.booleans())
    # or below 16 eps max|g|, which the margin exceeds
    top = np.max(_solved_small_grid(magnitude).obstacles[0] if solved else g)
    epsilon = draw(st.one_of(st.floats(1e-6, 0.5),
                             st.floats(0.01, 0.99).map(lambda f: f * 16 * EPS * top)))
    if solved:
        grid = _solved_small_grid(magnitude)
    else:
        # node clearances of exactly epsilon, where only rounding decides the
        # firing between nodes, or of 0 to 3 epsilon with a stretch of 0 to 1
        # epsilon
        if draw(st.booleans()):
            k = np.ones(n_cells + 1)
        else:
            k = rng.uniform(0.0, 3.0, n_cells + 1)
            lo = draw(st.integers(0, n_cells))
            k[lo:lo + draw(st.integers(0, n_cells))] *= 1 / 3
        grid = _hand_grid(xs, g + k * epsilon, g)
    h = (grid.x_hi - grid.x_lo) / grid.n_cells
    positions = np.concatenate([
        grid.xs[:-1, None] + rng.uniform(0.0, 1.0, (grid.n_cells, 32)) * h,
        rng.uniform(grid.x_lo - 3 * h, grid.x_hi + 3 * h, (1, 8)),
    ], axis=None)
    return grid, epsilon, np.concatenate([positions, _special_positions(grid)])


@functools.lru_cache(maxsize=None)
def _solved_small_grid(magnitude):
    """A solved bump grid of 40 cells, values and obstacles times magnitude."""
    spec = make_spec(diffusion=("constant", 1.0), alpha=0.25, offspring=("deterministic", 2),
                     rewards=(RewardFunction("bump", a=0.8),))
    grid = solve_scalar(spec, SolverSettings(x_lo=-6.0, x_hi=6.0, n_cells=40))
    return dataclasses.replace(grid, values=grid.values * magnitude,
                               obstacles=grid.obstacles * magnitude)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_contact_cases())
def test_candidate_table_keeps_every_contact_firing(case):
    grid, epsilon, xs = case
    rule = contact_set_rule(grid, epsilon, 1.0)
    path = _hits(rule, 0, 0, np.zeros(1), np.zeros(len(xs)), xs[:, None],
                 np.array([0, len(xs)]))
    assert np.array_equal(path, _exact_contact(grid, 0, epsilon, xs))
    for x in xs:
        birth = _hits(rule, 0, 0, np.zeros(1), np.zeros(1), np.array([[x]]), np.array([0, 1]))
        assert np.array_equal(birth, _exact_contact(grid, 0, epsilon, np.array([x])))


@pytest.mark.parametrize("magnitude", [1.0, 1e6, 1e9, 1e12])
def test_candidate_table_margin_grows_with_the_values(magnitude):
    # node clearances of exactly epsilon leave the firing between nodes to
    # rounding, which grows with |v|: with no margin the table misses some of
    # these firings, and with a fixed margin of 1e-9 it misses some at 1e12
    rng = np.random.default_rng(16)
    xs = np.linspace(-3.0, 5.0, 41)
    epsilon = 0.01
    g = rng.uniform(0.0, 1.0, len(xs)) * magnitude
    grid = _hand_grid(xs, g + epsilon, g)
    x = rng.uniform(-3.0, 5.0, 20000)
    fires = _exact_contact(grid, 0, epsilon, x)
    assert not np.any(fires & (grid.contact_entries(0, epsilon, x) == CANNOT_FIRE))


def test_candidate_table_marks_sure_entries_only_above_the_margin():
    # a stretch of zero clearance gives entries where the rule surely fires,
    # and the exact test fires on every point of them; an epsilon below the
    # margin, about 7e-9 here, leaves none
    rng = np.random.default_rng(16)
    xs = np.linspace(-3.0, 5.0, 41)
    g = rng.uniform(0.0, 1.0, len(xs)) * 1e6
    k = np.full(len(xs), 3.0)
    k[10:30] = 0.0
    grid = _hand_grid(xs, g + k * 0.01, g)
    x = rng.uniform(-3.0, 5.0, 20000)
    sure = grid.contact_entries(0, 0.01, x) == SURELY_FIRES
    assert 0 < np.sum(sure) < len(x) and np.all(_exact_contact(grid, 0, 0.01, x[sure]))
    assert not np.any(grid.contact_entries(0, 1e-9, x) == SURELY_FIRES)


def test_candidate_table_refuses_nonuniform_nodes():
    xs = np.geomspace(1.0, 100.0, 9)
    grid = _hand_grid(xs, np.ones(9), np.zeros(9))
    with pytest.raises(SolverError, match="uniformly spaced"):
        grid.contact_entries(0, 0.1, xs)


def test_candidate_table_stays_out_of_repr_equality_and_log(small_grid):
    log = small_grid.log_json()
    entries = small_grid.contact_entries(0, 1e-3, np.array([0.0, 9.0, math.nan]))
    assert (entries != CANNOT_FIRE).tolist() == [True, True, True]
    assert small_grid._candidates
    assert "_candidates" not in repr(small_grid)
    assert small_grid.log_json() == log
    fresh = dataclasses.replace(small_grid)
    assert fresh._candidates == {} and fresh == small_grid


def test_contact_rule_stops_nan_start_at_birth(small_grid):
    spec = make_spec(diffusion=("constant", 1.0), alpha=0.25, offspring=("deterministic", 2),
                     rewards=(RewardFunction("bump", a=0.8),))
    draw, asked = recording_draw(spec, 0.1)
    (outcome,) = walk_lines(contact_set_rule(small_grid, 1e-3, 2.0),
                            [Line(MOTHER, 0.0, np.array([math.nan]), 3, 2.0)], draw,
                            model_hash(spec))
    assert [(s.label, s.time) for s in outcome.stops] == [(MOTHER, 0.0)]
    assert math.isnan(outcome.stops[0].position[0])
    assert asked == []
