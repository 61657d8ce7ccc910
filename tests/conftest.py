import dataclasses

import numpy as np
import pytest

from stopline.model import Coefficient, ModelSpec, Offspring, RateFunction, RewardFunction
from stopline.simulator import draw_particles


def make_spec(
    drift=("constant", 0.0),
    diffusion=("constant", 0.0),
    alpha=0.0,
    alpha_bar=None,
    offspring=("deterministic", 1),
    gamma=1.0,
    rewards=None,
    k_g=1.0,
    dimension=1,
):
    """Compact model builder used across the suite."""
    kind, val = drift
    b = Coefficient(kind, **({"value": val} if kind == "constant" else {"rate": val}))
    kind, val = diffusion
    s = Coefficient(kind, **({"value": val} if kind == "constant" else {"rate": val}))
    okind, oval = offspring
    if okind == "deterministic":
        off = Offspring("deterministic", k0=oval)
    elif okind == "binary":
        off = Offspring("binary", p0=oval[0], p2=oval[1])
    else:
        off = Offspring("poisson", lam=RateFunction("constant", value=oval))
    if rewards is None:
        rewards = (RewardFunction("constant", c=1.0),)
    return ModelSpec(
        dimension=dimension,
        drift=b,
        diffusion=s,
        branch_rate=RateFunction("constant", value=alpha),
        alpha_bar=alpha if alpha_bar is None else alpha_bar,
        offspring=off,
        gamma=gamma,
        reward_depth=len(rewards) - 1,
        reward_levels=tuple(rewards),
        k_g=k_g,
    )


# d = 2, constant coefficients and a logistic rate below alpha_bar, so that
# thinned candidates give a particle several segments, each started from the
# last one's end
PLANAR_MODEL = dataclasses.replace(
    make_spec(drift=("constant", -0.2), diffusion=("constant", 0.7), alpha=1.0,
              offspring=("binary", (0.3, 0.7)), dimension=2),
    branch_rate=RateFunction("logistic", cap=1.2, center=0.3, width=0.5), alpha_bar=2.5)


def recording_draw(spec, dt):
    """A draw for `walk_lines` that is `draw_particles` for `spec` at step dt,
    and the list of the items (seed, label, birth time, position, horizon,
    deadline, stream) it has been asked for, so a test can see which particles
    a walk draws, and how far."""
    asked = []

    def draw(items):
        items = list(items)
        asked.extend(items)
        return draw_particles(spec, dt, items)
    return draw, asked


@pytest.fixture
def yule_spec():
    """Pure binary fission at unit rate, no motion."""
    return make_spec(alpha=1.0, offspring=("deterministic", 2))


@pytest.fixture
def put_spec():
    """Non-branching geometric motion with the perpetual put reward."""
    return make_spec(
        drift=("linear", 0.05),
        diffusion=("linear", 0.4),
        alpha=0.0,
        offspring=("deterministic", 1),
        gamma=0.05,
        rewards=(RewardFunction("clipped_put", strike=1.0, clip=1.0),),
        k_g=1.0,
    )


@pytest.fixture
def bump_spec():
    """Branching model with a smooth reward bump and a real free boundary."""
    return make_spec(
        diffusion=("constant", 1.5),
        alpha=0.25,
        offspring=("deterministic", 2),
        gamma=1.0,
        rewards=(RewardFunction("bump", a=0.8, center=0.0, width=1.0),),
        k_g=1.0,
    )


def put_oracle(xs, r=0.05, s=0.4, strike=1.0):
    """Closed-form perpetual put: value-match and smooth pasting at x*.

    v = A x^-beta on the continuation side with beta = 2r/s^2,
    A = (K - x*) x*^beta and x* = beta K / (beta + 1).
    """
    beta = 2.0 * r / s**2
    xstar = beta * strike / (beta + 1.0)
    amp = (strike - xstar) * xstar**beta
    xs = np.asarray(xs, dtype=float)
    return np.where(xs <= xstar, strike - xs, amp * np.maximum(xs, 1e-300) ** (-beta)), xstar
