"""Model coefficients and their derived constants.

A ModelSpec bundles the drift, diffusion, branch-rate, offspring and
reward ingredients of a branching diffusion together with the discount
and the declared bounds.  The coefficient catalog is closed: every entry
is one of a few named closed forms, so Lipschitz constants and offspring
moments are known analytically and configs stay bit-reproducible.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

L_MAX_DEFAULT = 20

# internal truncation used when summing Poisson pmfs to machine accuracy
_PMF_CUTOFF = 256


class ModelError(ValueError):
    """Malformed or unusable model description."""


# ---------------------------------------------------------------------------
# vector coefficients (drift / diffusion), applied componentwise


@dataclass(frozen=True)
class Coefficient:
    """Componentwise coefficient x -> value, one of a closed catalog.

    kinds:
      constant: value
      affine:   intercept + slope * x
      linear:   rate * x
    """

    kind: str
    value: float = 0.0
    intercept: float = 0.0
    slope: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "affine", "linear"):
            raise ModelError(f"unknown coefficient kind {self.kind!r}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.value)
        if self.kind == "affine":
            return self.intercept + self.slope * x
        return self.rate * x

    def lipschitz(self) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "affine":
            return abs(self.slope)
        return abs(self.rate)

    def to_json(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        if self.kind == "affine":
            return {"kind": "affine", "intercept": self.intercept, "slope": self.slope}
        return {"kind": "linear", "rate": self.rate}

    @staticmethod
    def from_json(obj: dict) -> "Coefficient":
        kind = obj.get("kind")
        if kind == "constant":
            return Coefficient("constant", value=float(obj["value"]))
        if kind == "affine":
            return Coefficient("affine", intercept=float(obj["intercept"]), slope=float(obj["slope"]))
        if kind == "linear":
            return Coefficient("linear", rate=float(obj["rate"]))
        raise ModelError(f"unknown coefficient kind {kind!r}")


# ---------------------------------------------------------------------------
# scalar rate functions (branch rate alpha, Poisson intensity lambda)


@dataclass(frozen=True)
class RateFunction:
    """Nonnegative scalar rate of the spatial state.

    kinds:
      constant: value
      logistic: cap / (1 + exp(-(x[0] - center) / width))
    """

    kind: str
    value: float = 0.0
    cap: float = 0.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "logistic"):
            raise ModelError(f"unknown rate kind {self.kind!r}")
        if self.kind == "logistic" and self.width <= 0:
            raise ModelError("logistic width must be positive")

    def __call__(self, x: np.ndarray) -> float:
        if self.kind == "constant":
            return self.value
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self.cap / (1.0 + math.exp(-(x[0] - self.center) / self.width))

    def supremum(self) -> float:
        """Exact sup over all of space (catalog forms are monotone/constant)."""
        return self.value if self.kind == "constant" else self.cap

    def lipschitz(self) -> float:
        if self.kind == "constant":
            return 0.0
        return self.cap / (4.0 * self.width)

    def to_json(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "value": self.value}
        return {"kind": "logistic", "cap": self.cap, "center": self.center, "width": self.width}

    @staticmethod
    def from_json(obj: dict) -> "RateFunction":
        kind = obj.get("kind")
        if kind == "constant":
            return RateFunction("constant", value=float(obj["value"]))
        if kind == "logistic":
            return RateFunction(
                "logistic",
                cap=float(obj["cap"]),
                center=float(obj.get("center", 0.0)),
                width=float(obj.get("width", 1.0)),
            )
        raise ModelError(f"unknown rate kind {kind!r}")


# ---------------------------------------------------------------------------
# offspring families


@dataclass(frozen=True)
class Offspring:
    """Offspring-count distribution p_k(x).

    kinds:
      deterministic: all mass on k0
      binary:        mass p0 on 0 and p2 on 2
      poisson:       Poisson with spatial intensity lam(x)
    """

    kind: str
    k0: int = 0
    p0: float = 0.0
    p2: float = 0.0
    lam: Optional[RateFunction] = None

    def __post_init__(self):
        if self.kind not in ("deterministic", "binary", "poisson"):
            raise ModelError(f"unknown offspring kind {self.kind!r}")
        if self.kind == "poisson" and self.lam is None:
            raise ModelError("poisson offspring needs an intensity function")

    def max_support(self) -> Optional[int]:
        if self.kind == "deterministic":
            return self.k0
        if self.kind == "binary":
            return 2
        return None

    def pmf(self, x: np.ndarray, k_max: int) -> np.ndarray:
        """Probabilities p_0..p_{k_max} at state x (tail mass not folded in)."""
        p = np.zeros(k_max + 1)
        if self.kind == "deterministic":
            if self.k0 <= k_max:
                p[self.k0] = 1.0
        elif self.kind == "binary":
            p[0] = self.p0
            if k_max >= 2:
                p[2] = self.p2
        else:
            lam = self.lam(x)
            p[0] = math.exp(-lam)
            for k in range(1, k_max + 1):
                p[k] = p[k - 1] * lam / k
        return p

    def mean(self, x: np.ndarray) -> float:
        if self.kind == "deterministic":
            return float(self.k0)
        if self.kind == "binary":
            return 2.0 * self.p2
        return self.lam(x)

    def raw_moment_sup(self, ell: int) -> float:
        """sup_x of the ell-th raw moment sum_k k^ell p_k(x), exact per family."""
        if ell == 0:
            return 1.0
        if self.kind == "deterministic":
            return float(self.k0) ** ell
        if self.kind == "binary":
            return self.p2 * 2.0**ell
        # Poisson moments increase with the intensity, so the sup sits at its cap
        lam = self.lam.supremum()
        pk = math.exp(-lam)
        total = 0.0
        for k in range(1, _PMF_CUTOFF):
            pk *= lam / k
            total += (float(k) ** ell) * pk
        return total

    def intensity_sup(self) -> Optional[float]:
        return self.lam.supremum() if self.kind == "poisson" else None

    def to_json(self) -> dict:
        if self.kind == "deterministic":
            return {"kind": "deterministic", "k0": self.k0}
        if self.kind == "binary":
            return {"kind": "binary", "p0": self.p0, "p2": self.p2}
        return {"kind": "poisson", "lam": self.lam.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "Offspring":
        kind = obj.get("kind")
        if kind == "deterministic":
            return Offspring("deterministic", k0=int(obj["k0"]))
        if kind == "binary":
            return Offspring("binary", p0=float(obj["p0"]), p2=float(obj["p2"]))
        if kind == "poisson":
            return Offspring("poisson", lam=RateFunction.from_json(obj["lam"]))
        raise ModelError(f"unknown offspring kind {kind!r}")


# ---------------------------------------------------------------------------
# reward functions


@dataclass(frozen=True)
class RewardFunction:
    """One reward level g_n: R^d -> [0, K_g].

    kinds:
      constant:    c
      clipped_put: min(clip, max(strike - x[0], 0))
      bump:        a * exp(-|x - center|^2 / width^2)
    """

    kind: str
    c: float = 0.0
    strike: float = 1.0
    clip: float = math.inf
    a: float = 1.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "clipped_put", "bump"):
            raise ModelError(f"unknown reward kind {self.kind!r}")
        if self.kind == "bump" and self.width <= 0:
            raise ModelError("bump width must be positive")

    def __call__(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "constant":
            return self.c
        if self.kind == "clipped_put":
            return min(self.clip, max(self.strike - x[0], 0.0))
        d2 = float(np.sum((x - self.center) ** 2))
        return self.a * math.exp(-d2 / self.width**2)

    def grid_values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on a 1-D grid."""
        xs = np.asarray(xs, dtype=float)
        if self.kind == "constant":
            return np.full_like(xs, self.c)
        if self.kind == "clipped_put":
            return np.minimum(self.clip, np.maximum(self.strike - xs, 0.0))
        return self.a * np.exp(-((xs - self.center) ** 2) / self.width**2)

    def lipschitz(self) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "clipped_put":
            return 1.0
        # max slope of a*exp(-u^2/w^2) is a*sqrt(2/e)/w
        return abs(self.a) * math.sqrt(2.0 / math.e) / self.width

    def to_json(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "c": self.c}
        if self.kind == "clipped_put":
            return {"kind": "clipped_put", "strike": self.strike, "clip": self.clip}
        return {"kind": "bump", "a": self.a, "center": self.center, "width": self.width}

    @staticmethod
    def from_json(obj: dict) -> "RewardFunction":
        kind = obj.get("kind")
        if kind == "constant":
            return RewardFunction("constant", c=float(obj["c"]))
        if kind == "clipped_put":
            clip = obj.get("clip", math.inf)
            clip = math.inf if clip in (None, "inf") else float(clip)
            return RewardFunction("clipped_put", strike=float(obj["strike"]), clip=clip)
        if kind == "bump":
            return RewardFunction(
                "bump",
                a=float(obj["a"]),
                center=float(obj.get("center", 0.0)),
                width=float(obj.get("width", 1.0)),
            )
        raise ModelError(f"unknown reward kind {kind!r}")


# ---------------------------------------------------------------------------
# the model itself


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model description; all operations on it are pure."""

    dimension: int
    drift: Coefficient
    diffusion: Coefficient
    branch_rate: RateFunction
    alpha_bar: float
    offspring: Offspring
    gamma: float
    reward_depth: int
    reward_levels: tuple  # of RewardFunction, length reward_depth + 1
    k_g: float

    def __post_init__(self):
        if self.dimension < 1:
            raise ModelError("dimension must be >= 1")
        if self.gamma <= 0:
            raise ModelError("discount gamma must be positive")
        if self.alpha_bar < 0:
            raise ModelError("alpha_bar must be nonnegative")
        if self.k_g < 1:
            raise ModelError("reward bound k_g must be >= 1")
        if len(self.reward_levels) != self.reward_depth + 1:
            raise ModelError("reward levels must have depth + 1 entries")

    def reward_at(self, n: int) -> RewardFunction:
        """Reward for generation n; levels saturate at the deepest one."""
        return self.reward_levels[min(n, self.reward_depth)]

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "drift": self.drift.to_json(),
            "diffusion": self.diffusion.to_json(),
            "branch_rate": self.branch_rate.to_json(),
            "alpha_bar": self.alpha_bar,
            "offspring": self.offspring.to_json(),
            "gamma": self.gamma,
            "reward": {
                "depth": self.reward_depth,
                "levels": [g.to_json() for g in self.reward_levels],
            },
            "k_g": self.k_g,
        }

    @staticmethod
    def from_json(obj: dict) -> "ModelSpec":
        reward = obj["reward"]
        levels = tuple(RewardFunction.from_json(g) for g in reward["levels"])
        return ModelSpec(
            dimension=int(obj["dimension"]),
            drift=Coefficient.from_json(obj["drift"]),
            diffusion=Coefficient.from_json(obj["diffusion"]),
            branch_rate=RateFunction.from_json(obj["branch_rate"]),
            alpha_bar=float(obj["alpha_bar"]),
            offspring=Offspring.from_json(obj["offspring"]),
            gamma=float(obj["gamma"]),
            reward_depth=int(reward["depth"]),
            reward_levels=levels,
            k_g=float(obj["k_g"]),
        )


def model_hash(spec: ModelSpec) -> str:
    """Stable fingerprint of the model description."""
    blob = json.dumps(spec.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# derived quantities


def mean_offspring(spec: ModelSpec, x) -> float:
    """Mean offspring count at state x, exact for every catalog family."""
    return spec.offspring.mean(np.atleast_1d(np.asarray(x, dtype=float)))


def generating_function(spec: ModelSpec, x, w: float, k_max: int = 64) -> float:
    """Truncated offspring generating function sum_{k<=k_max} p_k(x) w^k.

    The truncation error is bounded by series_tail_bound(spec, w, k_max);
    families with bounded support are summed exactly once k_max covers
    their support.
    """
    if w < 0:
        raise ModelError("generating function argument w must be nonnegative")
    if k_max < 1:
        raise ModelError("k_max must be >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = spec.offspring.pmf(x, k_max)
    powers = np.power(float(w), np.arange(k_max + 1))
    return float(np.dot(p, powers))


def generating_function_grid(spec: ModelSpec, xs: np.ndarray, w: np.ndarray, k_max: int = 64) -> np.ndarray:
    """generating_function evaluated nodewise on a 1-D grid (w per node)."""
    xs = np.asarray(xs, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ModelError("generating function argument w must be nonnegative")
    off = spec.offspring
    if off.kind == "deterministic":
        return w ** off.k0 if off.k0 <= k_max else np.zeros_like(w)
    if off.kind == "binary":
        out = np.full_like(w, off.p0)
        if k_max >= 2:
            out = out + off.p2 * w**2
        return out
    lams = np.array([off.lam(np.atleast_1d(x)) for x in xs])
    ks = np.arange(k_max + 1)
    # pmf matrix via cumulative log to stay stable for larger intensities
    with np.errstate(divide="ignore"):
        logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, k_max + 1)))))
        loglam = np.where(lams > 0, np.log(np.maximum(lams, 1e-300)), -math.inf)
    logp = ks[None, :] * loglam[:, None] - lams[:, None] - logfact[None, :]
    pmat = np.exp(logp)
    if np.any(lams == 0):
        zero = lams == 0
        pmat[zero] = 0.0
        pmat[zero, 0] = 1.0
    powers = w[:, None] ** ks[None, :]
    return np.einsum("ij,ij->i", pmat, powers)


def series_tail_bound(spec: ModelSpec, R: float, k_max: int) -> float:
    """Upper bound on the neglected tail sum_{k>k_max} p_k(x) R^k, uniform in x.

    Exact for the bounded-support and Poisson families, which make up the
    closed offspring catalog.
    """
    if R <= 0:
        raise ModelError("tail bound radius R must be positive")
    off = spec.offspring
    support = off.max_support()
    if support is not None:
        if k_max >= support:
            return 0.0
        p = off.pmf(np.zeros(spec.dimension), support)
        ks = np.arange(support + 1)
        return float(np.sum(p[ks > k_max] * R ** ks[ks > k_max].astype(float)))
    # Poisson: sum_{k>k_max} e^-lam (lam R)^k / k!, summed upward until negligible
    lam = off.lam.supremum()
    term = math.exp(-lam)
    for k in range(1, k_max + 1):
        term *= lam * R / k
    total = 0.0
    k = k_max
    while True:
        k += 1
        term *= lam * R / k
        total += term
        if k > 4 * k_max + 64 and term < 1e-300:
            break
        if term < total * 1e-18 and k > k_max + 8:
            break
    return total


@dataclass
class MomentReport:
    """Evaluated offspring moment bounds and the uniqueness margin."""

    M: float
    M_ell: list
    M_bar: float
    M_bar_argmax: int
    M_bar_interior: bool
    l_max: int
    C: float
    gamma_threshold: float
    unique_below_bound: bool
    value_bound: float
    intensity_sup: Optional[float] = None
    lipschitz: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "M": self.M,
            "M_ell": self.M_ell,
            "M_bar": self.M_bar,
            "M_bar_argmax": self.M_bar_argmax,
            "M_bar_interior": self.M_bar_interior,
            "l_max": self.l_max,
            "C": self.C,
            "gamma_threshold": self.gamma_threshold,
            "unique_below_bound": self.unique_below_bound,
            "value_bound": self.value_bound,
            "intensity_sup": self.intensity_sup,
            "lipschitz": self.lipschitz,
        }


def evaluated_moment_bound(spec: ModelSpec, l_max: int = L_MAX_DEFAULT) -> float:
    """sup over l <= l_max of 2^l M_l (the l = 0 term contributes 1)."""
    return max(2.0**ell * spec.offspring.raw_moment_sup(ell) for ell in range(l_max + 1))


def value_bound(spec: ModelSpec, l_max: int = L_MAX_DEFAULT) -> float:
    """Uniform bound on the value function: exp(log(K_g) K_g^(abar Mbar / gamma)).

    Computed in log space; may overflow to inf for heavy offspring families,
    in which case callers must treat the bound as unavailable.
    """
    m_bar = evaluated_moment_bound(spec, l_max)
    log_kg = math.log(spec.k_g)
    expo = spec.alpha_bar * m_bar / spec.gamma
    # K_g^expo in log space
    inner = expo * log_kg
    if inner > 700.0:
        return math.inf
    log_v = log_kg * math.exp(inner)
    if log_v > 700.0:
        return math.inf
    return math.exp(log_v)


def moment_report(spec: ModelSpec, C: float = 0.0, l_max: int = L_MAX_DEFAULT) -> MomentReport:
    """Evaluate the offspring moment ladder and the gamma uniqueness margin.

    Passing C = 0 uses the value bound as the comparison constant.  The sup
    over l stops at l_max; whether the maximum is attained strictly inside
    the range is reported, since families with growing 2^l M_l only satisfy
    the moment condition in this truncated sense.
    """
    if C < 0:
        raise ModelError("comparison constant C must be nonnegative")
    m_ell = [spec.offspring.raw_moment_sup(ell) for ell in range(1, l_max + 1)]
    weighted = [1.0] + [2.0**ell * m for ell, m in enumerate(m_ell, start=1)]
    argmax = int(np.argmax(weighted))
    m_bar = weighted[argmax]
    v_bar = value_bound(spec, l_max)
    c_used = v_bar if C == 0.0 else C
    if not math.isfinite(c_used) or c_used <= 1.0:
        threshold = math.inf
    else:
        threshold = spec.alpha_bar * (m_bar * c_used / (c_used - 1.0) - 1.0)
    lip = {
        "drift": spec.drift.lipschitz(),
        "diffusion": spec.diffusion.lipschitz(),
        "branch_rate": spec.branch_rate.lipschitz(),
        "reward": [g.lipschitz() for g in spec.reward_levels],
    }
    return MomentReport(
        M=m_ell[0],
        M_ell=m_ell,
        M_bar=m_bar,
        M_bar_argmax=argmax,
        M_bar_interior=0 < argmax < l_max,
        l_max=l_max,
        C=c_used,
        gamma_threshold=threshold,
        unique_below_bound=spec.gamma > threshold,
        value_bound=v_bar,
        intensity_sup=spec.offspring.intensity_sup(),
        lipschitz=lip,
    )


# ---------------------------------------------------------------------------
# standing-assumption checks


@dataclass
class AssumptionCheck:
    ok: bool
    hard_violations: list
    warnings: list
    continuity_samples: dict

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "hard_violations": self.hard_violations,
            "warnings": self.warnings,
            "continuity_samples": self.continuity_samples,
        }


def check_assumptions(spec: ModelSpec, sample_grid: Optional[np.ndarray] = None,
                      pmf_tol: float = 1e-12) -> AssumptionCheck:
    """Numerical audit of the standing model requirements on a sample grid.

    Hard failures: pmf not summing to one, branch rate exceeding its declared
    bound, rewards escaping [0, K_g], Poisson intensity above 1/2.  A failed
    gamma uniqueness condition is only a warning.  Modulus-of-continuity
    samples for the branch rate and pmf are reported without judgement.
    """
    if sample_grid is None:
        sample_grid = np.linspace(-5.0, 5.0, 41)
    hard = []
    warn = []
    k_probe = 200 if spec.offspring.kind == "poisson" else 8
    for x in sample_grid:
        pt = np.full(spec.dimension, float(x))
        total = float(np.sum(spec.offspring.pmf(pt, k_probe)))
        if abs(total - 1.0) > pmf_tol:
            hard.append(f"offspring pmf sums to {total!r} at x={x!r}")
            break
    alpha_sup = spec.branch_rate.supremum()
    if alpha_sup > spec.alpha_bar + 1e-12:
        hard.append(f"branch rate supremum {alpha_sup} exceeds declared bound {spec.alpha_bar}")
    else:
        for x in sample_grid:
            pt = np.full(spec.dimension, float(x))
            a = spec.branch_rate(pt)
            if a > spec.alpha_bar + 1e-12 or a < 0:
                hard.append(f"branch rate {a} outside [0, {spec.alpha_bar}] at x={x!r}")
                break
    for n, g in enumerate(spec.reward_levels):
        vals = g.grid_values(np.asarray(sample_grid, dtype=float))
        if np.any(vals < -1e-12) or np.any(vals > spec.k_g + 1e-12):
            hard.append(f"reward level {n} escapes [0, {spec.k_g}] on the sample grid")
    lam_sup = spec.offspring.intensity_sup()
    if lam_sup is not None and lam_sup > 0.5 + 1e-12:
        hard.append(f"poisson intensity sup {lam_sup} exceeds 1/2")
    report = moment_report(spec)
    if not report.unique_below_bound:
        warn.append(
            "gamma %.6g does not exceed the uniqueness threshold %.6g"
            % (spec.gamma, report.gamma_threshold)
        )
    if report.M_bar_argmax == report.l_max:
        warn.append(
            "2^l M_l is still growing at l_max=%d (M_bar=%.6g is a truncated sup)"
            % (report.l_max, report.M_bar)
        )
    # modulus-of-continuity samples: max increment over adjacent grid points
    grid = np.asarray(sample_grid, dtype=float)
    pts = [np.full(spec.dimension, float(x)) for x in grid]
    alpha_vals = np.array([spec.branch_rate(p) for p in pts])
    pmf_vals = np.array([spec.offspring.pmf(p, 8) for p in pts])
    continuity = {
        "grid_step": float(np.max(np.diff(grid))) if len(grid) > 1 else 0.0,
        "alpha_max_increment": float(np.max(np.abs(np.diff(alpha_vals)))) if len(grid) > 1 else 0.0,
        "pmf_max_increment": float(np.max(np.abs(np.diff(pmf_vals, axis=0)))) if len(grid) > 1 else 0.0,
    }
    return AssumptionCheck(ok=not hard, hard_violations=hard, warnings=warn,
                           continuity_samples=continuity)
