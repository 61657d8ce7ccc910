import math

import numpy as np
import pytest
from pytest import approx

from stopline import reward, stopping
from stopline.labels import MOTHER
from stopline.model import RewardFunction, model_hash
from stopline.pde import SolverSettings, solve_scalar
from stopline.reward import RewardError, mc_value, reward_of_outcome
from stopline.simulator import replication_seed, simulate_forest
from stopline.stopping import (
    Line,
    StoppingError,
    contact_set_rule,
    evaluate_line,
    first_branch_rule,
    fixed_time_rule,
    min_of_rules,
    walk_lines,
)
from stopline.verify import (
    VerifyError,
    _extract_subtree,
    branching_property_test,
    cross_validate,
    dpp_consistency,
    subtree_reward_samples,
)

from conftest import make_spec, recording_draw


@pytest.fixture(scope="module")
def bump_grid():
    spec = make_spec(diffusion=("constant", 1.5), alpha=0.25,
                     offspring=("deterministic", 2), gamma=1.0,
                     rewards=(RewardFunction("bump", a=0.8, center=0.0, width=1.0),))
    grid = solve_scalar(spec, SolverSettings(x_lo=-8, x_hi=8, n_cells=800))
    return spec, grid


def test_cross_validate_contact_point_is_exact(bump_grid):
    spec, grid = bump_grid
    report = cross_validate(spec, grid, points=[0.0], reps=200, dt=0.01,
                            seed=3, epsilon=2e-4, t_cut=6.0,
                            sweep_times=[0.5])
    chk = report.points[0]
    assert chk.estimate.stderr == 0.0
    assert chk.estimate.mean == approx(0.8)
    assert chk.passed
    assert all(e.passed for e in report.sweep)


def test_cross_validate_continuation_point(bump_grid):
    spec, grid = bump_grid
    report = cross_validate(spec, grid, points=[1.2], reps=2500, dt=0.005,
                            seed=11, epsilon=2e-4, t_cut=8.0,
                            sweep_times=[0.25, 1.0])
    chk = report.points[0]
    assert abs(chk.z) <= 3.0
    assert chk.estimate.stderr > 0
    for entry in report.sweep:
        assert entry.margin >= -3.0 * max(entry.estimate.stderr, 1e-12)
    assert report.all_passed()


def test_cross_validate_rejects_outside_point(bump_grid):
    spec, grid = bump_grid
    with pytest.raises(VerifyError):
        cross_validate(spec, grid, points=[9.5], reps=10, dt=0.01, seed=1,
                       epsilon=1e-3, t_cut=2.0)


def test_dpp_theta_zero_reproduces_grid_value(bump_grid):
    spec, grid = bump_grid
    theta = fixed_time_rule(0.0, t_cut=1.0, cut_policy="force_stop")
    chk = dpp_consistency(spec, grid, theta, point=1.2, reps=50, dt=0.01,
                          seed=2, epsilon=2e-4)
    assert chk.estimate.stderr == 0.0
    assert chk.estimate.mean == approx(grid.value_at_point(0, 1.2), abs=1e-9)
    assert chk.passed


def test_dpp_first_branch_consistent(bump_grid):
    spec, grid = bump_grid
    theta = first_branch_rule(t_cut=6.0, cut_policy="force_stop")
    chk = dpp_consistency(spec, grid, theta, point=1.2, reps=2500, dt=0.005,
                          seed=7, epsilon=2e-4)
    assert abs(chk.z) <= 3.0


def test_dpp_fixed_time_consistent(bump_grid):
    spec, grid = bump_grid
    theta = fixed_time_rule(0.1, t_cut=0.3, cut_policy="force_stop")
    chk = dpp_consistency(spec, grid, theta, point=1.2, reps=2500, dt=0.005,
                          seed=9, epsilon=2e-4)
    assert abs(chk.z) <= 3.0


def test_dpp_exit_ball_consistent(bump_grid):
    spec, grid = bump_grid
    from stopline.stopping import exit_ball_rule

    theta = exit_ball_rule([1.2], radius=0.6, cap_t=0.5, t_cut=6.0,
                           cut_policy="force_stop")
    chk = dpp_consistency(spec, grid, theta, point=1.2, reps=2500, dt=0.005,
                          seed=15, epsilon=2e-4)
    assert abs(chk.z) <= 3.0


def test_dpp_classical_limit_no_branching(bump_grid):
    # alpha = 0 reduces the identity to single-particle optimal stopping
    from stopline.pde import SolverSettings, solve_scalar

    spec = make_spec(diffusion=("constant", 1.5), alpha=0.0,
                     offspring=("deterministic", 1), gamma=1.0,
                     rewards=(RewardFunction("bump", a=0.8, center=0.0, width=1.0),))
    grid = solve_scalar(spec, SolverSettings(x_lo=-8, x_hi=8, n_cells=800))
    theta = fixed_time_rule(0.25, t_cut=0.75, cut_policy="force_stop")
    chk = dpp_consistency(spec, grid, theta, point=1.2, reps=2500, dt=0.005,
                          seed=19, epsilon=2e-4)
    assert abs(chk.z) <= 3.0


def test_report_json_roundtrip(tmp_path, bump_grid):
    spec, grid = bump_grid
    report = cross_validate(spec, grid, points=[0.0], reps=100, dt=0.01,
                            seed=3, epsilon=2e-4, t_cut=4.0, sweep_times=[0.5])
    path = tmp_path / "verify.json"
    report.write_json(str(path))
    import json

    with open(path) as f:
        obj = json.load(f)
    assert obj["all_passed"] == report.all_passed()
    assert obj["z_threshold"] == 3.0
    assert obj["points"][0]["estimate"]["seed"] == 3


def test_contact_rule_fires_at_birth_when_obstacle_everywhere():
    # v == g over the whole grid: first contact is immediate, like trivial_root
    from stopline.pde import SolverSettings, solve_scalar
    from stopline.simulator import simulate_forest
    from stopline.stopping import contact_set_rule, evaluate_line, trivial_root_rule

    spec = make_spec(diffusion=("constant", 1.0), alpha=0.5, alpha_bar=0.5,
                     offspring=("deterministic", 2), gamma=1.0,
                     rewards=(RewardFunction("constant", c=1.0),))
    grid = solve_scalar(spec, SolverSettings(x_lo=-3, x_hi=3, n_cells=100))
    rec = simulate_forest(spec, [((), [0.2])], horizon=2.0, dt=0.1, seed=4)
    out_contact = evaluate_line(rec, contact_set_rule(grid, 1e-3, t_cut=2.0))
    out_root = evaluate_line(rec, trivial_root_rule(t_cut=2.0))
    assert [s.label for s in out_contact.stops] == [s.label for s in out_root.stops]
    assert out_contact.stops[0].time == out_root.stops[0].time == 0.0


def test_contact_rule_huge_epsilon_dominates(bump_grid):
    from stopline.simulator import simulate_forest
    from stopline.stopping import contact_set_rule, evaluate_line

    spec, grid = bump_grid
    eps = float(np.max(grid.values[0] - grid.obstacles[0])) + 1.0
    rec = simulate_forest(spec, [((), [1.2])], horizon=2.0, dt=0.1, seed=4)
    out = evaluate_line(rec, contact_set_rule(grid, eps, t_cut=2.0))
    assert [s.label for s in out.stops] == [()]
    assert out.stops[0].time == 0.0


@pytest.mark.parametrize("t_tau", [None, 0.2, 0.4], ids=["tau_never", "tau_earlier", "tau_tied"])
def test_dpp_product_equals_hand_walk(bump_grid, t_tau):
    # independent oracle: walk each forest by hand; theta claims a particle
    # when it fires no later than tau (v factor), tau when it fires earlier
    # (g factor), and a particle unresolved at t_cut takes a v factor there;
    # a v factor is the grid's interpolant, raised to g where it falls below
    from stopline.reward import _dpp_rule, dpp_product, estimate_from_samples, mc_value
    from stopline.simulator import replication_seed, simulate_forest
    from stopline.stopping import fixed_time_rule, never_rule

    spec, grid = bump_grid
    t, t_cut, reps, dt, x0 = 0.4, 1.0, 300, 0.05, 1.2
    theta = fixed_time_rule(t, t_cut, cut_policy="force_stop")
    if t_tau is None:
        tau = never_rule(t_cut, cut_policy="force_stop")
    else:
        tau = fixed_time_rule(t_tau, t_cut, cut_policy="force_stop")

    def solved(lab, x):
        return max(float(grid.values_at(len(lab), x[:1])[0]), spec.reward_at(len(lab))(x))

    def fire_index(p, at):
        if at is None or at < p.birth_time - 1e-12:
            return None
        idx = int(np.searchsorted(p.times, at - 1e-12))
        if idx < len(p.times) and p.times[idx] < min(p.end_time, t_cut):
            return idx
        return None

    est = mc_value(spec, _dpp_rule(theta, tau), ((), [x0]), reps, dt, seed=77,
                   rng_salt="dpp", grid=grid)
    vals = np.empty(reps)
    for r in range(reps):
        rec = simulate_forest(spec, [((), np.array([x0]))], horizon=t_cut, dt=dt,
                              seed=replication_seed(77, r, "dpp"))
        log_prod = 0.0
        stack = [()]
        while stack:
            lab = stack.pop()
            p = rec.particles[lab]
            i_th, i_ta = fire_index(p, t), fire_index(p, t_tau)
            if i_th is not None and (i_ta is None or p.times[i_th] <= p.times[i_ta]):
                v = solved(lab, p.positions[i_th])
                log_prod += -spec.gamma * p.times[i_th] + math.log(v)
            elif i_ta is not None:
                g = spec.reward_at(len(lab))(p.positions[i_ta])
                log_prod += -spec.gamma * p.times[i_ta] + math.log(g)
            elif p.end_time <= t_cut:
                stack.extend(lab + (k,) for k in range(p.offspring_count))
            else:
                j = min(int(np.searchsorted(p.times, t_cut - 1e-12)), len(p.times) - 1)
                v = solved(lab, p.positions[j])
                log_prod += -spec.gamma * t_cut + math.log(v)
        vals[r] = math.exp(log_prod)
        assert dpp_product(spec, rec, theta, tau, grid) == vals[r]
    assert est == estimate_from_samples(vals, 77, t_cut, "force_stop")


def test_mc_value_rejects_mismatched_grid(bump_grid):
    _, grid = bump_grid
    other = make_spec(diffusion=("constant", 0.7), alpha=0.1,
                      offspring=("deterministic", 2),
                      rewards=(RewardFunction("bump", a=0.5),))
    with pytest.raises(RewardError, match="solved for a different model"):
        mc_value(other, fixed_time_rule(0.1, 1.0), ((), [0.0]), reps=4, dt=0.05, seed=1,
                 grid=grid)


@pytest.mark.parametrize("entry", ["cross_validate", "dpp_consistency", "mc_value_contact",
                                   "walk_lines_min_of", "evaluate_line_contact"])
def test_a_grid_of_another_model_is_refused(bump_grid, monkeypatch, entry):
    # as mc_value's grid above: each entry point that reads a solved grid
    # refuses one solved for another model, before drawing; the error is the
    # refusing layer's, the walk's or line_rewards'
    _, grid = bump_grid
    other = make_spec(diffusion=("constant", 0.7), alpha=0.1,
                      offspring=("deterministic", 2),
                      rewards=(RewardFunction("bump", a=0.5),))
    contact = contact_set_rule(grid, 1e-3, 1.0)
    start = (MOTHER, np.array([0.0]))
    forest = simulate_forest(other, [start], horizon=1.0, dt=0.05, seed=1)
    # every walk draws through `draw`, a forest's reader too, so `asked` sees any draw
    draw, asked = recording_draw(other, 0.05)
    monkeypatch.setattr(reward, "draw_particles", lambda spec, dt, items: draw(items))
    monkeypatch.setattr(stopping, "_reader", lambda record: draw)
    error, call = {
        "cross_validate": (StoppingError, lambda: cross_validate(
            other, grid, points=[0.0], reps=10, dt=0.05, seed=1, epsilon=1e-3, t_cut=1.0)),
        "dpp_consistency": (RewardError, lambda: dpp_consistency(
            other, grid, first_branch_rule(1.0), point=0.0, reps=4, dt=0.05, seed=1,
            epsilon=1e-3)),
        "mc_value_contact": (StoppingError, lambda: mc_value(
            other, contact, start, reps=4, dt=0.05, seed=1)),
        "walk_lines_min_of": (StoppingError, lambda: walk_lines(
            min_of_rules(fixed_time_rule(0.1, 1.0), contact),
            [Line(MOTHER, 0.0, start[1], 1, 1.0)], draw, model_hash(other))),
        "evaluate_line_contact": (StoppingError, lambda: evaluate_line(forest, contact)),
    }[entry]
    with pytest.raises(error, match="solved for a different model"):
        call()
    assert asked == []


def branching_spec(sigma=0.4):
    return make_spec(diffusion=("constant", sigma), alpha=1.0,
                     offspring=("binary", (0.3, 0.7)), gamma=1.0,
                     rewards=(RewardFunction("bump", a=0.8, center=0.0, width=1.0),))


def test_branching_shared_streams_identical():
    spec = branching_spec()
    a, b = subtree_reward_samples(spec, point=0.3, reps=300, dt=0.02, seed=21,
                                  branch_window=1.5, functional_horizon=0.5,
                                  shared_streams=True)
    assert len(a) >= 100
    assert np.array_equal(a, b)


@pytest.mark.parametrize("shared", [False, True])
def test_subtree_samples_equal_unpruned_forests(shared):
    # subtree_reward_samples prunes what it never reads; rebuild its samples
    # from full forests and compare value for value
    spec, point, dt, seed, window, s = branching_spec(), 0.3, 0.02, 21, 1.5, 0.5
    a, b = subtree_reward_samples(spec, point, reps=200, dt=dt, seed=seed,
                                  branch_window=window, functional_horizon=s,
                                  shared_streams=shared)
    rule = fixed_time_rule(s, s + dt, "abandon")
    child0 = (0,)
    a_full, b_full = [], []
    for r in range(200):
        seed_a = replication_seed(seed, r, "A")
        rec = simulate_forest(spec, [(MOTHER, np.array([point]))],
                              horizon=window + s + 2 * dt, dt=dt, seed=seed_a)
        mother = rec.particles[MOTHER]
        if (mother.end_kind != "branched" or not mother.offspring_count
                or mother.end_time > window):
            continue
        sub = _extract_subtree(rec, child0)
        a_full.append(reward_of_outcome(spec, evaluate_line(sub, rule)))
        rec_b = simulate_forest(spec, [(child0, mother.positions[-1].copy())],
                                horizon=mother.end_time + (s + dt) + dt, dt=dt,
                                seed=seed_a if shared else replication_seed(seed, r, "B"),
                                t0=mother.end_time)
        b_full.append(reward_of_outcome(spec, evaluate_line(_extract_subtree(rec_b, child0), rule)))
    assert len(a) >= 50
    assert a.tolist() == a_full
    assert b.tolist() == b_full


def test_branching_property_no_motion():
    spec = make_spec(diffusion=("constant", 0.0), alpha=1.0,
                     offspring=("binary", (0.3, 0.7)), gamma=1.0,
                     rewards=(RewardFunction("bump", a=0.8),))
    result = branching_property_test(spec, point=0.2, reps=1200, dt=0.05, seed=5,
                                     branch_window=1.5, functional_horizon=0.5)
    assert not result.insufficient
    assert result.p_value >= 0.01


def test_branching_property_with_motion():
    result = branching_property_test(branching_spec(), point=0.3, reps=1500,
                                     dt=0.02, seed=13,
                                     branch_window=1.5, functional_horizon=0.5)
    assert not result.insufficient
    assert result.p_value >= 0.01


def test_branching_insufficient_reported():
    spec = branching_spec()
    result = branching_property_test(spec, point=0.3, reps=50, dt=0.05, seed=1,
                                     branch_window=0.05, functional_horizon=0.25)
    assert result.insufficient
    assert math.isnan(result.ks_stat)


def test_branching_requires_branching():
    spec = make_spec(alpha=0.0)
    with pytest.raises(VerifyError):
        branching_property_test(spec, 0.0, reps=10, dt=0.05, seed=1)
