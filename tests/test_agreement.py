"""The solve and the Monte Carlo agree across the closed catalog.

Small 1-D models are drawn from every coefficient, rate, offspring and
reward kind.  On each, the solved value lies between the obstacle and the
value bound, a contact-rule line started at a contact node scores that
node's obstacle, and the dynamic-programming line whose theta stops the
root at once scores the solved value.  Where the solver's contraction
factor q is below 1, its certified stop is within tol_fp of the fixed point
and no step ratio exceeds q.
"""
import dataclasses
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from stopline.labels import MOTHER
from stopline.model import (
    Coefficient,
    ModelSpec,
    Offspring,
    RateFunction,
    RewardFunction,
    value_bound,
)
from stopline.pde import SolverSettings, contraction, solve_scalar
from stopline.reward import mc_value
from stopline.stopping import FORCE_STOP, contact_set_rule, trivial_root_rule
from stopline.verify import dpp_consistency

EPSILON = 1e-4
T_CUT = 1.0
DT = 0.1
X_LO, X_HI = -3.0, 3.0


def unit(lo=0.0, hi=1.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


def coefficients(scale):
    return st.one_of(
        st.builds(lambda v: Coefficient("constant", value=v), unit(-scale, scale)),
        st.builds(lambda a, b: Coefficient("affine", intercept=a, slope=b),
                  unit(-scale, scale), unit(-0.2, 0.2)),
        st.builds(lambda r: Coefficient("linear", rate=r), unit(-0.3, 0.3)),
    )


def rates(cap):
    return st.one_of(
        st.builds(lambda v: RateFunction("constant", value=v), unit(0.0, cap)),
        st.builds(lambda c, m, w: RateFunction("logistic", cap=c, center=m, width=w),
                  unit(0.0, cap), unit(-1.0, 1.0), unit(0.2, 2.0)),
    )


offspring = st.one_of(
    st.builds(lambda k: Offspring("deterministic", k0=k), st.integers(0, 3)),
    st.builds(lambda p0: Offspring("binary", p0=p0, p2=1.0 - p0), unit()),
    st.builds(lambda lam: Offspring("poisson", lam=lam), rates(0.5)),
)

rewards = st.one_of(
    st.builds(lambda c: RewardFunction("constant", c=c), unit()),
    st.builds(lambda k, c: RewardFunction("clipped_put", strike=k, clip=c),
              unit(-1.0, 2.0), unit(0.1, 1.0)),
    st.builds(lambda a, m, w: RewardFunction("bump", a=a, center=m, width=w),
              unit(), unit(-1.0, 1.0), unit(0.3, 2.0)),
)


@st.composite
def models(draw):
    rate = draw(rates(1.0))
    levels = tuple(draw(st.lists(rewards, min_size=1, max_size=2)))
    return ModelSpec(dimension=1, drift=draw(coefficients(0.5)),
                     diffusion=draw(coefficients(1.0)), branch_rate=rate,
                     alpha_bar=rate.supremum(), offspring=draw(offspring),
                     gamma=draw(unit(0.2, 2.0)), reward_depth=len(levels) - 1,
                     reward_levels=levels, k_g=1.0)


def round_trip(f: float) -> float:
    """How far exp(log f), the log-space product of one factor, may fall from
    f: 4 ulp of f, plus log f's rounding, which exp makes a relative error."""
    return 4 * np.spacing(f) + f * np.spacing(abs(math.log(f))) if f > 0 else 0.0


@given(models(), unit(X_LO, X_HI))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_solve_and_monte_carlo_agree_across_the_catalog(spec, point):
    grid = solve_scalar(spec, SolverSettings(x_lo=X_LO, x_hi=X_HI, n_cells=200))
    v, g = grid.values[0], grid.obstacles[0]
    assert np.all(grid.values >= grid.obstacles - 1e-12)
    assert np.all(grid.values <= value_bound(spec))

    # started at a contact node, every line stops at birth and scores g_j
    contact = np.flatnonzero(v - g <= EPSILON)
    assert len(contact)
    j = contact[len(contact) // 2]
    est = mc_value(spec, contact_set_rule(grid, EPSILON, T_CUT, FORCE_STOP),
                   (MOTHER, np.array([grid.xs[j]])), reps=4, dt=DT, seed=1)
    assert est.stderr == 0.0
    assert abs(est.mean - v[j]) <= (v[j] - g[j]) + round_trip(g[j])

    # theta stops the root at once, so the line scores the solved value there
    chk = dpp_consistency(spec, grid, trivial_root_rule(T_CUT, FORCE_STOP), point,
                          reps=4, dt=DT, seed=1, epsilon=EPSILON)
    assert chk.estimate.stderr == 0.0
    assert abs(chk.estimate.mean - chk.v_pde) <= round_trip(chk.v_pde)


@given(models())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_certified_stop_is_within_tol_fp_of_the_fixed_point(spec):
    solver = SolverSettings(x_lo=X_LO, x_hi=X_HI, n_cells=200)
    xs = np.linspace(X_LO, X_HI, 201)[1:-1]
    q = contraction(spec, xs, spec.branch_rate(xs[:, None]), value_bound(spec))
    assume(q < 1)
    grid = solve_scalar(spec, solver)
    tight = solve_scalar(spec, dataclasses.replace(solver, tol_fp=solver.tol_fp * 1e-4))
    assert grid.stats[-1].contraction == q
    assert np.max(np.abs(grid.values - tight.values)) <= solver.tol_fp
    assert all(r <= q for g in (grid, tight) for r in g.stats[-1].step_ratios)
