import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from stopline.model import (
    K_MAX,
    Coefficient,
    ModelError,
    Offspring,
    RateFunction,
    RewardFunction,
    check_assumptions,
    evaluated_moment_bound,
    generating_function,
    model_hash,
    moment_report,
    series_tail_bound,
    value_bound,
)
from stopline.model import ModelSpec
from stopline.pde import SolverSettings, _build_stencil, solve_scalar

from conftest import make_spec

X0 = np.zeros(1)


def poisson_moment(lam, ell, terms=400):
    """Raw moment by direct pmf summation, independent of the library path."""
    pk = math.exp(-lam)
    total = 0.0
    for k in range(1, terms):
        pk *= lam / k
        total += k**ell * pk
    return total


def test_generating_function_at_one_is_mass():
    for spec in (
        make_spec(offspring=("binary", (0.5, 0.5))),
        make_spec(offspring=("deterministic", 2)),
        make_spec(offspring=("poisson", 0.5)),
    ):
        total = generating_function(spec, X0, 1.0, k_max=64)[0]
        assert total <= 1.0 + 1e-12
        assert total + series_tail_bound(spec, 1.0, 64) >= 1.0 - 1e-12


def test_generating_function_examples():
    spec = make_spec(offspring=("binary", (0.5, 0.5)))
    assert generating_function(spec, X0, 0.5)[0] == approx(0.625)
    pois = make_spec(offspring=("poisson", 0.5))
    assert generating_function(pois, X0, 0.0)[0] == approx(0.6065306597126334, abs=1e-12)


def test_generating_function_rejects_negative_w():
    with pytest.raises(ModelError):
        generating_function(make_spec(), np.zeros(3), np.array([0.5, -0.1, 0.5]))


def test_generating_function_matches_poisson_closed_form():
    spec = make_spec(offspring=("poisson", 0.5))
    lam = 0.5
    ws = np.linspace(0.0, 2.0, 9)
    exact = np.exp(lam * (ws - 1.0))
    np.testing.assert_allclose(generating_function(spec, np.zeros(9), ws, k_max=40), exact,
                               rtol=0.0, atol=1e-10)


def test_generating_function_monotone_convex_in_w():
    spec = make_spec(offspring=("poisson", 0.5))
    ws = np.linspace(0.0, 3.0, 31)
    vals = generating_function(spec, np.zeros(31), ws)
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-12)
    assert np.all(np.diff(diffs) >= -1e-12)


def test_generating_function_bounded_families_exact_at_large_w():
    # the sum stops at the support, so no power past it overflows into 0 * inf
    w = np.array([1e5])
    det = make_spec(offspring=("deterministic", 2))
    assert generating_function(det, X0, w)[0] == 1e10
    binary = make_spec(offspring=("binary", (0.3, 0.7)))
    assert generating_function(binary, X0, w)[0] == 0.3 + 0.7 * 1e10


def test_generating_function_poisson_intensity_per_node():
    lam = RateFunction("logistic", cap=0.5, center=0.0, width=1.0)
    spec = dataclasses.replace(make_spec(), offspring=Offspring("poisson", lam=lam))
    xs = np.linspace(-3.0, 3.0, 7)
    lams = spec.offspring.lam(xs[:, None])
    np.testing.assert_allclose(generating_function(spec, xs, 1.5), np.exp(lams * 0.5),
                               rtol=1e-14, atol=0.0)


def test_series_tail_bound_bounded_support():
    assert series_tail_bound(make_spec(offspring=("deterministic", 2)), 3.0, 5) == 0.0
    assert series_tail_bound(make_spec(offspring=("binary", (0.5, 0.5))), 1.0, 2) == 0.0


def test_series_tail_bound_poisson_exact():
    spec = make_spec(offspring=("poisson", 0.5))
    got = series_tail_bound(spec, 2.0, 20)
    # oracle: exact tail of sum_k e^-lam (lam R)^k / k!
    lam, R = 0.5, 2.0
    term = math.exp(-lam)
    for k in range(1, 21):
        term *= lam * R / k
    exact = 0.0
    for k in range(21, 200):
        term *= lam * R / k
        exact += term
    assert got == approx(exact, rel=1e-9)
    assert got <= 1e-10


def test_series_tail_bound_monotone_in_k_max():
    spec = make_spec(offspring=("poisson", 0.5))
    vals = [series_tail_bound(spec, 2.0, k) for k in (2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_moment_report_deterministic_one():
    report = moment_report(make_spec(offspring=("deterministic", 1)), C=2.0)
    assert report.M == approx(1.0)
    assert all(m == approx(1.0) for m in report.M_ell)
    assert report.M_bar == approx(2.0**20)
    assert not report.M_bar_interior


def test_moment_report_binary_flags_growth():
    report = moment_report(make_spec(offspring=("binary", (0.5, 0.5))), C=2.0)
    assert report.M_ell[0] == approx(1.0)
    assert report.M_ell[4] == approx(0.5 * 2.0**5)
    assert report.M_bar == approx(0.5 * 4.0**20)
    assert report.M_bar_argmax == report.l_max
    audit = check_assumptions(make_spec(offspring=("binary", (0.5, 0.5))))
    assert any("still growing" in w for w in audit.warnings)


def test_moment_report_poisson_threshold():
    spec = make_spec(alpha=0.3, offspring=("poisson", 0.5), gamma=5.0)
    report = moment_report(spec, C=2.0)
    m_bar_oracle = max(2.0**ell * poisson_moment(0.5, ell) for ell in range(1, 21))
    m_bar_oracle = max(m_bar_oracle, 1.0)
    assert report.M_bar == approx(m_bar_oracle, rel=1e-9)
    assert report.gamma_threshold == approx(0.3 * (2.0 * m_bar_oracle - 1.0), rel=1e-9)
    assert math.isfinite(report.gamma_threshold)


def test_moment_report_sentinel_uses_value_bound():
    spec = make_spec(alpha=1e-12, offspring=("binary", (0.5, 0.5)), gamma=5.0, k_g=2.0,
                     rewards=(RewardFunction("constant", c=1.0),))
    report = moment_report(spec, C=0.0)
    assert report.C == approx(value_bound(spec))
    assert report.unique_below_bound


def test_value_bound_k_g_one_is_one():
    assert value_bound(make_spec(alpha=0.5, offspring=("poisson", 0.5))) == approx(1.0)


def test_value_bound_overflows_to_inf():
    spec = make_spec(alpha=0.5, offspring=("binary", (0.5, 0.5)), k_g=2.0)
    assert value_bound(spec) == math.inf


def test_check_assumptions_flags_alpha_violation():
    spec = make_spec(alpha=0.4, alpha_bar=0.3)
    audit = check_assumptions(spec)
    assert not audit.ok
    assert any("branch rate" in v for v in audit.hard_violations)


# No field of this model is NaN, yet its rate is: an infinite cap over a
# steep logistic reads inf / inf far below the center, at x = -5 first.
NAN_RATE = dataclasses.replace(make_spec(alpha_bar=math.inf),
                               branch_rate=RateFunction("logistic", cap=math.inf, width=1e-3))


@pytest.mark.parametrize("spec", [make_spec(offspring=("binary", (0.3, 0.6))), NAN_RATE],
                         ids=["pmf_mass", "branch_rate"])
def test_check_assumptions_messages_print_plain_floats(spec):
    with np.errstate(over="ignore", invalid="ignore"):
        (message,) = check_assumptions(spec, np.linspace(-5.0, 5.0, 41)).hard_violations
    assert message.endswith(" at x=-5.0")
    assert "np." not in message


def test_check_assumptions_flags_reward_violation():
    spec = make_spec(rewards=(RewardFunction("constant", c=1.5),), k_g=1.0)
    audit = check_assumptions(spec)
    assert not audit.ok


def test_check_assumptions_flags_pmf_mass_deficit():
    spec = make_spec(offspring=("binary", (0.5, 0.4)))
    audit = check_assumptions(spec)
    assert not audit.ok
    assert any("sums to" in v for v in audit.hard_violations)


@pytest.mark.parametrize("spec, message", [
    (make_spec(offspring=("binary", (math.nan, 0.5))), "offspring pmf sums to nan"),
    (make_spec(rewards=(RewardFunction("bump", a=math.nan),)), "reward level 0 escapes"),
    (NAN_RATE, "branch rate nan"),
], ids=["pmf_sum", "reward", "branch_rate"])
def test_check_assumptions_reports_nan_as_hard_failure(spec, message):
    # a NaN fails every comparison, so each test is written as "not within"
    with np.errstate(over="ignore", invalid="ignore"):
        audit = check_assumptions(spec)
    assert not audit.ok
    assert any(v.startswith(message) for v in audit.hard_violations)


@pytest.mark.parametrize("build, message", [
    (lambda: RateFunction("constant", value=math.nan), "rate must be nonnegative"),
    (lambda: RateFunction("logistic", cap=math.nan), "rate must be nonnegative"),
    (lambda: RateFunction("logistic", cap=0.2, center=math.nan), "center must be finite"),
    (lambda: RateFunction("logistic", cap=0.2, center=-math.inf), "center must be finite"),
    (lambda: RateFunction("logistic", cap=0.2, width=math.nan), "width must be positive"),
    (lambda: RewardFunction("bump", a=0.8, width=math.nan), "width must be positive"),
    (lambda: make_spec(gamma=math.nan), "gamma must be positive"),
    (lambda: make_spec(alpha=0.2, alpha_bar=math.nan), "alpha_bar must be nonnegative"),
    (lambda: make_spec(k_g=math.nan), "k_g must be >= 1"),
], ids=["rate_value", "rate_cap", "rate_center", "rate_center_inf", "rate_width", "bump_width",
        "gamma", "alpha_bar", "k_g"])
def test_nan_model_field_is_refused(build, message):
    # the JSON reader refuses NaN; a model built in Python meets these checks
    with pytest.raises(ModelError, match=message):
        build()


@pytest.mark.parametrize("k0", [-1, K_MAX + 1, 100])
def test_deterministic_offspring_beyond_k_max_is_refused(k0):
    with pytest.raises(ModelError, match="k0"):
        Offspring("deterministic", k0=k0)
    assert Offspring("deterministic", k0=K_MAX).max_support() == K_MAX


def test_check_assumptions_flags_poisson_intensity():
    spec = make_spec(offspring=("poisson", 0.7))
    audit = check_assumptions(spec)
    assert any("intensity" in v for v in audit.hard_violations)


def test_check_assumptions_poisson_example_passes():
    spec = make_spec(alpha=0.3, offspring=("poisson", 0.5), gamma=5.0)
    audit = check_assumptions(spec)
    assert audit.ok
    assert "alpha_max_increment" in audit.continuity_samples


def test_pmf_sums_to_one_families():
    for spec in (
        make_spec(offspring=("binary", (0.25, 0.75))),
        make_spec(offspring=("deterministic", 3)),
        make_spec(offspring=("poisson", 0.5)),
    ):
        p = spec.offspring.pmf(np.linspace(-3.0, 3.0, 5), 200)
        assert p.shape == (5, 201)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_poisson_pmf_matches_recurrence():
    # the log-space pmf against p_k = p_{k-1} lam / k; lam = 0 is an exact row
    for lam in (0.0, 0.5, 3.0):
        got = make_spec(offspring=("poisson", lam)).offspring.pmf(X0, 40)[0]
        ref = [math.exp(-lam)]
        for k in range(1, 41):
            ref.append(ref[-1] * lam / k)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)


def test_model_json_roundtrip_and_hash():
    spec = make_spec(
        drift=("linear", 0.05),
        diffusion=("linear", 0.4),
        alpha=0.25,
        offspring=("poisson", 0.5),
        gamma=2.0,
        rewards=(
            RewardFunction("bump", a=0.8, center=0.0, width=1.0),
            RewardFunction("constant", c=0.5),
        ),
    )
    clone = ModelSpec.from_json(spec.to_json())
    assert model_hash(clone) == model_hash(spec)
    assert clone.reward_at(5).c == approx(0.5)


def test_reward_levels_saturate():
    spec = make_spec(rewards=(RewardFunction("constant", c=0.2),
                              RewardFunction("constant", c=0.7)))
    assert spec.reward_at(0)(X0) == approx(0.2)
    assert spec.reward_at(1)(X0) == approx(0.7)
    assert spec.reward_at(9)(X0) == approx(0.7)


def test_logistic_rate_bounds_and_lipschitz():
    rate = RateFunction("logistic", cap=0.8, center=0.0, width=0.5)
    xs = np.linspace(-10, 10, 101)
    vals = np.array([rate(np.array([x])) for x in xs])
    assert np.all(vals >= 0) and np.all(vals <= 0.8)
    slopes = np.abs(np.diff(vals) / np.diff(xs))
    assert np.max(slopes) <= rate.lipschitz() + 1e-9


@pytest.mark.parametrize("rate", [
    RateFunction("constant", value=0.35),
    RateFunction("logistic", cap=0.8, center=0.3, width=0.5),
], ids=lambda rate: rate.kind)
def test_rate_grid_values_match_pointwise(rate):
    # the stencil and the Poisson generating function read rates on the
    # whole grid, the simulator's marks one state at a time
    xs = np.linspace(-10, 10, 401)
    pointwise = np.array([rate(np.array([x])) for x in xs])
    assert np.array_equal(rate(xs[:, None]), pointwise)


RATE_KINDS = [RateFunction("constant", value=0.35),
              RateFunction("logistic", cap=0.8, center=0.3, width=0.5)]
REWARD_KINDS = (RewardFunction("constant", c=0.4),
                RewardFunction("clipped_put", strike=1.0, clip=0.9),
                RewardFunction("bump", a=0.8, center=0.3, width=0.7))


@pytest.mark.parametrize("rate", RATE_KINDS, ids=lambda rate: rate.kind)
def test_one_formula_per_rate_and_reward(rate):
    # the simulator's marks and the Monte Carlo reward call one state at a
    # time, the stencil and the obstacle rows every node at once; all of them
    # read the same doubles
    spec = dataclasses.replace(make_spec(diffusion=("constant", 0.5), rewards=REWARD_KINDS),
                               branch_rate=rate, alpha_bar=rate.supremum())
    grid = solve_scalar(spec, SolverSettings(x_lo=-4.0, x_hi=4.0, n_cells=100))
    xs = grid.xs
    at_nodes = [(rate, _build_stencil(spec, xs).alpha)]
    at_nodes += [(g, grid.obstacles[n]) for n, g in enumerate(REWARD_KINDS)]
    planes = np.stack([xs, xs[::-1]], axis=-1)  # states of dimension 2
    for f, nodes in at_nodes:
        one = [f(np.array([x])) for x in xs]
        assert all(type(v) is float for v in one), f
        assert np.array_equal(f(xs[:, None]), one), f
        assert np.array_equal(nodes, one), f
        assert np.array_equal(f(planes), [f(state) for state in planes]), f
        assert f(planes[None]).shape == (1, len(xs)), f


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_binary_mass_sums(p0):
    spec = make_spec(offspring=("binary", (p0, 1.0 - p0)))
    assert float(np.sum(spec.offspring.pmf(X0, 4))) == approx(1.0, abs=1e-12)


# --- one field table per catalog: to_json, from_json and the kind check read it

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUMP_MODEL = json.loads((CONFIGS / "bump.json").read_text())["model"]

CATALOG_ENTRIES = [
    pytest.param(Coefficient("constant", value=0.3), id="coefficient-constant"),
    pytest.param(Coefficient("affine", intercept=0.1, slope=-0.2), id="coefficient-affine"),
    pytest.param(Coefficient("linear", rate=0.05), id="coefficient-linear"),
    pytest.param(RateFunction("constant", value=0.25), id="rate-constant"),
    pytest.param(RateFunction("logistic", cap=0.8, center=0.3, width=0.5), id="rate-logistic"),
    pytest.param(Offspring("deterministic", k0=2), id="offspring-deterministic"),
    pytest.param(Offspring("binary", p0=0.3, p2=0.7), id="offspring-binary"),
    pytest.param(Offspring("poisson", lam=RateFunction("logistic", cap=0.4, center=-1.0,
                                                       width=2.0)), id="offspring-poisson"),
    pytest.param(RewardFunction("constant", c=0.5), id="reward-constant"),
    pytest.param(RewardFunction("clipped_put", strike=1.0, clip=0.7), id="reward-clipped_put"),
    pytest.param(RewardFunction("clipped_put", strike=1.2), id="reward-clipped_put-unclipped"),
    pytest.param(RewardFunction("bump", a=0.8, center=0.2, width=1.5), id="reward-bump"),
]


def test_catalog_entries_cover_every_kind():
    entries = [p.values[0] for p in CATALOG_ENTRIES]
    for cls in (Coefficient, RateFunction, Offspring, RewardFunction):
        assert {e.kind for e in entries if type(e) is cls} == set(cls.PARAMS)


@pytest.mark.parametrize("entry", CATALOG_ENTRIES)
def test_catalog_entry_json_roundtrip(entry):
    obj = json.loads(json.dumps(entry.to_json()))
    assert set(obj) == {"kind", *entry.PARAMS[entry.kind][0]}
    assert type(entry).from_json(obj) == entry


@pytest.mark.parametrize("name, fingerprint", [
    ("bump", "65ca6a2d888e93a6"),
    ("poisson_check", "098154ce33322083"),
    ("put", "81d3b94f72ef0c76"),
    ("yule", "0f5989eae271f2b9"),
])
def test_shipped_config_fingerprints_are_pinned(name, fingerprint):
    model = json.loads((CONFIGS / f"{name}.json").read_text())["model"]
    assert ModelSpec.from_json(model).fingerprint == fingerprint


def edited_model(field, value):
    """The bump config's model with one entry replaced: a top-level field,
    the only reward level ("reward.levels") or the reward section ("reward")."""
    obj = copy.deepcopy(BUMP_MODEL)
    if field == "reward.levels":
        obj["reward"]["levels"] = [value]
    else:
        obj[field] = value
    return obj


@pytest.mark.parametrize("field, value", [
    ("drift", {"kind": "affine", "intercept": 0.0, "slope": 0.1, "slpoe": 0.2}),
    ("branch_rate", {"kind": "logistic", "cap": 0.25, "centre": 1.0}),
    ("offspring", {"kind": "binary", "p0": 0.3, "p2": 0.7, "p1": 0.0}),
    ("offspring", {"kind": "poisson", "lam": {"kind": "logistic", "cap": 0.4, "widht": 2.0}}),
    ("reward.levels", {"kind": "bump", "a": 0.8, "widht": 3.0}),
    ("reward.levels", {"kind": "clipped_put", "strike": 1.0, "clp": 0.5}),
    ("reward", {"depth": 0, "levels": [{"kind": "constant", "c": 1.0}], "dpth": 0}),
    ("gama", 1.0),
])
def test_misspelt_model_field_is_refused(field, value):
    with pytest.raises(ModelError, match="unknown field"):
        ModelSpec.from_json(edited_model(field, value))


@pytest.mark.parametrize("field, value", [
    ("drift", {"kind": "affine", "intercept": 0.0}),
    ("branch_rate", {"kind": "logistic", "center": 0.0}),
    ("offspring", {"kind": "deterministic"}),
    ("offspring", {"kind": "poisson", "lam": {"kind": "constant"}}),
    ("reward.levels", {"kind": "bump", "center": 0.0}),
    ("reward", {"levels": [{"kind": "constant", "c": 1.0}]}),
])
def test_missing_model_field_is_refused(field, value):
    with pytest.raises(ModelError, match="missing"):
        ModelSpec.from_json(edited_model(field, value))
