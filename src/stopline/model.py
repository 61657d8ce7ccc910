"""Model coefficients and their derived constants.

A ModelSpec bundles the drift, diffusion, branch-rate, offspring and
reward ingredients of a branching diffusion together with the discount
and the declared bounds.  The coefficient catalog is closed: every entry
is one of a few named closed forms, so Lipschitz constants and offspring
moments are known analytically and configs stay bit-reproducible.

The offspring probabilities p_k(x) are formed in one place,
`Offspring.pmf`, vectorised over 1-D nodes: exact for the bounded
families, in log space for Poisson.  The simulator's draws, the
generating function the solver sums, the Poisson moment ladder and the
assumption audit all read it, so Monte Carlo and the PDE share one law.

Rates and rewards have one formula each, `RateFunction.__call__` and
`RewardFunction.__call__`, numpy over states.  The simulator's marks, the
Monte Carlo reward, the solver's stencil and obstacles and the audit all
call them, so an obstacle and the reward scored at its node are one double.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import ClassVar, Optional, Tuple

import numpy as np

L_MAX = 20  # the moment ladder sup over l stops here
# offspring counts are truncated here, by the generating function the solver
# sums and by the simulator's draws (residual mass going to K_MAX)
K_MAX = 64

# internal truncation used when summing Poisson pmfs to machine accuracy
_PMF_CUTOFF = 256


class ModelError(ValueError):
    """Malformed or unusable model description."""


def read_fields(obj, table: dict, optional, where: str, error: type = ModelError) -> dict:
    """The values of the fields a JSON object gives, read through a field table
    {field: reader} whose fields not in `optional` are required.  Anything but
    a JSON object, a field outside the table (a misspelt one is never read as
    a default), a missing required field and a value its reader refuses (a
    TypeError, ValueError or OverflowError) are each an `error`; an error of
    this package that a reader raises, as a nested table's, passes as it is."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object, not {obj!r}")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise error(f"{where} has unknown field(s): {', '.join(unknown)}")
    missing = [f for f in table if f not in obj and f not in optional]
    if missing:
        raise error(f"{where} is missing field(s): {', '.join(missing)}")
    values = {}
    for f in (f for f in table if f in obj):
        try:
            values[f] = table[f](obj[f])
        except (TypeError, ValueError, OverflowError) as exc:
            if type(exc) not in (TypeError, ValueError, OverflowError):
                raise
            raise error(f"{where}: {f}: {exc}") from exc
    return values


def write_json(path, obj) -> None:
    """Write `obj` as a result file: JSON, keys sorted, indent 2, a final newline."""
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def finite(value) -> float:
    """The default reader: a finite number, not NaN, an infinity, a bool or text."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return float(value)


def finite_or_inf(value) -> float:
    """A finite number or +inf (JSON Infinity), for a bound that may be absent."""
    return math.inf if value == math.inf else finite(value)


def finites(value) -> tuple:
    """A list of finite numbers."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{value!r} is not a list")
    return tuple(finite(v) for v in value)


def whole(value) -> int:
    """A count or seed: an int or an integral float, never a fraction truncated."""
    if isinstance(value, bool) or not (isinstance(value, int) or
                                       isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def of_type(kind: type):
    """A reader that takes a value of one JSON type as it is."""
    def read(value):
        if not isinstance(value, kind):
            raise TypeError(f"{value!r} is not a {kind.__name__}")
        return value
    return read


text = of_type(str)


def _json_value(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    return [_json_value(v) for v in value] if isinstance(value, tuple) else value


class CatalogEntry:
    """Base of a closed catalog: a frozen dataclass whose `kind` names one
    closed form.

    PARAMS[kind] = (fields, optional) lists the fields that kind takes and
    those of them a JSON form may leave out, which then keep the dataclass
    default.  The kind check, to_json and from_json all read this one table;
    from_json reads it through `read_fields`, each field as a finite number
    unless READ names its reader.  CATALOG names the catalog in messages, and
    ERROR is what it raises.
    """

    PARAMS: ClassVar[dict] = {}
    READ: ClassVar[dict] = {}
    CATALOG: ClassVar[str] = ""
    ERROR: ClassVar[type] = ModelError

    @classmethod
    def _params(cls, kind) -> Tuple[tuple, tuple]:
        if not isinstance(kind, str) or kind not in cls.PARAMS:
            raise cls.ERROR(f"unknown {cls.CATALOG} kind {kind!r}")
        return cls.PARAMS[kind]

    def __post_init__(self):
        self._params(self.kind)

    def to_json(self) -> dict:
        fields, _ = self.PARAMS[self.kind]
        return {"kind": self.kind, **{f: _json_value(getattr(self, f)) for f in fields}}

    @classmethod
    def json_fields(cls, obj) -> Tuple[str, dict]:
        """The kind of a JSON form and the values of the fields it gives."""
        if not isinstance(obj, dict):
            raise cls.ERROR(f"a {cls.CATALOG} must be a JSON object, not {obj!r}")
        fields, optional = cls._params(obj.get("kind"))
        table = {"kind": text, **{f: cls.READ.get(f, finite) for f in fields}}
        values = read_fields(obj, table, optional, f"{cls.CATALOG} {obj['kind']}", cls.ERROR)
        return values.pop("kind"), values

    @classmethod
    def from_json(cls, obj):
        kind, values = cls.json_fields(obj)
        return cls(kind, **values)


# ---------------------------------------------------------------------------
# vector coefficients (drift / diffusion), applied componentwise


@dataclass(frozen=True)
class Coefficient(CatalogEntry):
    """Componentwise coefficient x -> value, one of a closed catalog."""

    PARAMS = {
        "constant": (("value",), ()),  # value
        "affine": (("intercept", "slope"), ()),  # intercept + slope * x
        "linear": (("rate",), ()),  # rate * x
    }
    CATALOG = "coefficient"

    kind: str
    value: float = 0.0
    intercept: float = 0.0
    slope: float = 0.0
    rate: float = 0.0

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


# ---------------------------------------------------------------------------
# scalar rate functions (branch rate alpha, Poisson intensity lambda)


@dataclass(frozen=True)
class RateFunction(CatalogEntry):
    """Nonnegative scalar rate of the spatial state."""

    PARAMS = {
        "constant": (("value",), ()),  # value
        # cap / (1 + exp(-(x[0] - center) / width))
        "logistic": (("cap", "center", "width"), ("center", "width")),
    }
    CATALOG = "rate"

    kind: str
    value: float = 0.0
    cap: float = 0.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        # each test is written as "not within", so that a NaN fails it too
        if not (self.value >= 0 and self.cap >= 0):
            raise ModelError(f"{self.kind} rate must be nonnegative")
        if self.kind == "logistic" and not -math.inf < self.center < math.inf:
            raise ModelError("logistic center must be finite")
        if self.kind == "logistic" and not self.width > 0:
            raise ModelError("logistic width must be positive")

    def __call__(self, x):
        """The rate at each state of x, coordinate last; a float for one state."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            rate = np.full(x.shape[:-1], self.value)
        else:
            rate = self.cap / (1.0 + np.exp(-(x[..., 0] - self.center) / self.width))
        return float(rate) if x.ndim == 1 else rate

    def supremum(self) -> float:
        """Exact sup over all of space (catalog forms are monotone/constant)."""
        return self.value if self.kind == "constant" else self.cap

    def lipschitz(self) -> float:
        if self.kind == "constant":
            return 0.0
        return self.cap / (4.0 * self.width)


# ---------------------------------------------------------------------------
# offspring families


def _poisson_pmf(lams: np.ndarray, k_max: int) -> np.ndarray:
    """Poisson p_0..p_{k_max} for each intensity, shape (len(lams), k_max + 1).

    Formed as exp(k log lam - lam - log k!), which stays finite for large
    intensities; an intensity of 0 gets the exact row (1, 0, ..., 0).
    """
    ks = np.arange(k_max + 1)
    logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, k_max + 1)))))
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = ks[None, :] * np.log(lams)[:, None] - lams[:, None] - logfact[None, :]
    return np.where(lams[:, None] == 0, (ks == 0)[None, :], np.exp(logp))


@dataclass(frozen=True)
class Offspring(CatalogEntry):
    """Offspring-count distribution p_k(x)."""

    PARAMS = {
        "deterministic": (("k0",), ()),  # all mass on k0
        "binary": (("p0", "p2"), ()),  # mass p0 on 0 and p2 on 2
        "poisson": (("lam",), ()),  # Poisson with spatial intensity lam(x)
    }
    READ = {"k0": whole, "lam": RateFunction.from_json}
    CATALOG = "offspring"

    kind: str
    k0: int = 0
    p0: float = 0.0
    p2: float = 0.0
    lam: Optional[RateFunction] = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "poisson" and self.lam is None:
            raise ModelError("poisson offspring needs an intensity function")
        if self.kind == "deterministic" and not 0 <= self.k0 <= K_MAX:
            # the solver and the simulator truncate counts at K_MAX
            raise ModelError(f"deterministic offspring k0 = {self.k0} is outside [0, {K_MAX}]")

    def max_support(self) -> Optional[int]:
        if self.kind == "deterministic":
            return self.k0
        if self.kind == "binary":
            return 2
        return None

    def pmf(self, xs: np.ndarray, k_max: int) -> np.ndarray:
        """Probabilities p_0..p_{k_max} at each 1-D node of xs (a state's first
        coordinate, the only one the intensity reads), shape
        (len(xs), k_max + 1); tail mass is not folded in."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if self.kind == "poisson":
            return _poisson_pmf(self.lam(xs[:, None]), k_max)
        p = np.zeros((len(xs), k_max + 1))
        if self.kind == "deterministic":
            if self.k0 <= k_max:
                p[:, self.k0] = 1.0
        else:
            p[:, 0] = self.p0
            if k_max >= 2:
                p[:, 2] = self.p2
        return p

    def raw_moment_sup(self, ell: int) -> float:
        """sup_x of the ell-th raw moment sum_k k^ell p_k(x), exact per family."""
        if ell == 0:
            return 1.0
        if self.kind == "deterministic":
            return float(self.k0) ** ell
        if self.kind == "binary":
            return self.p2 * 2.0**ell
        # Poisson moments increase with the intensity, so the sup sits at its cap
        p = _poisson_pmf(np.array([self.lam.supremum()]), _PMF_CUTOFF - 1)[0]
        return float(np.dot(np.arange(_PMF_CUTOFF, dtype=float) ** ell, p))

    def intensity_sup(self) -> Optional[float]:
        return self.lam.supremum() if self.kind == "poisson" else None


# ---------------------------------------------------------------------------
# reward functions


@dataclass(frozen=True)
class RewardFunction(CatalogEntry):
    """One reward level g_n: R^d -> [0, K_g]."""

    PARAMS = {
        "constant": (("c",), ()),  # c
        "clipped_put": (("strike", "clip"), ("clip",)),  # min(clip, max(strike - x[0], 0))
        # a * exp(-|x - center|^2 / width^2)
        "bump": (("a", "center", "width"), ("center", "width")),
    }
    READ = {"clip": lambda clip: math.inf if clip is None else finite_or_inf(clip)}
    CATALOG = "reward"

    kind: str
    c: float = 0.0
    strike: float = 1.0
    clip: float = math.inf
    a: float = 1.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "bump" and not self.width > 0:  # "not within", so a NaN fails it
            raise ModelError("bump width must be positive")

    def __call__(self, x):
        """The reward at each state of x, coordinate last; a float for one state."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            g = np.full(x.shape[:-1], self.c)
        elif self.kind == "clipped_put":
            g = np.minimum(self.clip, np.maximum(self.strike - x[..., 0], 0.0))
        else:
            g = self.a * np.exp(-np.sum((x - self.center) ** 2, axis=-1) / self.width**2)
        return float(g) if x.ndim == 1 else g

    def lipschitz(self) -> float:
        if self.kind == "constant":
            return 0.0
        if self.kind == "clipped_put":
            return 1.0
        # max slope of a*exp(-u^2/w^2) is a*sqrt(2/e)/w
        return abs(self.a) * math.sqrt(2.0 / math.e) / self.width


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
        # each test is written as "not within", so that a NaN fails it too
        if not self.gamma > 0:
            raise ModelError("discount gamma must be positive")
        if not self.alpha_bar >= 0:
            raise ModelError("alpha_bar must be nonnegative")
        if not self.k_g >= 1:
            raise ModelError("reward bound k_g must be >= 1")
        if len(self.reward_levels) != self.reward_depth + 1:
            raise ModelError("reward levels must have depth + 1 entries")

    def reward_at(self, n: int) -> RewardFunction:
        """Reward for generation n; levels saturate at the deepest one."""
        return self.reward_levels[min(n, self.reward_depth)]

    @cached_property
    def fingerprint(self) -> str:
        """Stable hash of to_json(), computed once per instance.

        cached_property stores it in the instance __dict__, so it is not a
        dataclass field and leaves equality and hashing alone.
        """
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    @cached_property
    def constant_coefficients(self) -> Optional[tuple]:
        """(drift, diffusion, any nonzero diffusion) when both coefficients
        are constant, else None; computed once per instance, like
        `fingerprint`."""
        if self.drift.kind != "constant" or self.diffusion.kind != "constant":
            return None
        origin = np.zeros(self.dimension)
        b, s = self.drift(origin), self.diffusion(origin)
        return b, s, bool(np.any(s != 0))

    @cached_property
    def offspring_cdf(self) -> Optional[np.ndarray]:
        """The offspring cdf, p_0..p_K_MAX summed, that a branching mark reads,
        when neither it nor the branch rate depends on the position, else None;
        computed once per instance, like `fingerprint`."""
        off = self.offspring
        if self.branch_rate.kind != "constant" or (off.kind == "poisson"
                                                    and off.lam.kind != "constant"):
            return None
        return off.pmf(np.zeros(1), K_MAX)[0].cumsum()

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
        """Build a model from its JSON form; a malformed field is a ModelError."""
        values = read_fields(obj, {
            "dimension": whole, "drift": Coefficient.from_json,
            "diffusion": Coefficient.from_json, "branch_rate": RateFunction.from_json,
            "alpha_bar": finite, "offspring": Offspring.from_json, "gamma": finite,
            "reward": lambda reward: read_fields(reward, {
                "depth": whole, "levels": lambda gs: tuple(map(RewardFunction.from_json, gs))},
                (), "model reward"),
            "k_g": finite,
        }, (), "model")
        reward = values.pop("reward")
        return ModelSpec(reward_depth=reward["depth"], reward_levels=reward["levels"], **values)


def model_hash(spec: ModelSpec) -> str:
    """Stable fingerprint of the model description."""
    return spec.fingerprint


# ---------------------------------------------------------------------------
# derived quantities


def generating_function(spec: ModelSpec, xs, w, k_max: int = K_MAX) -> np.ndarray:
    """Offspring generating function sum_k p_k(x) w^k at each 1-D node of xs,
    w per node (either may be a scalar, broadcast against the other).

    The sum stops at k_max and at the family's support, so bounded families
    are summed exactly and no power past the support can overflow; the
    neglected Poisson tail is bounded by series_tail_bound(spec, w, k_max).
    The powers w^k are running products (w^2 is w * w, which pow(w, 2)
    need not be), the same for every family.
    """
    xs, w = np.broadcast_arrays(np.atleast_1d(np.asarray(xs, dtype=float)),
                                np.asarray(w, dtype=float))
    if np.any(w < 0):
        raise ModelError("generating function argument w must be nonnegative")
    if k_max < 1:
        raise ModelError("k_max must be >= 1")
    p = truncated_pmf(spec, xs, k_max)
    total, power = p[:, 0].copy(), np.ones_like(w)
    for k in range(1, p.shape[1]):
        power *= w
        total += p[:, k] * power
    return total


def truncated_pmf(spec: ModelSpec, xs, k_max: int = K_MAX) -> np.ndarray:
    """`Offspring.pmf` at each 1-D node of xs up to k_max and the family's
    support: the terms that `generating_function` sums."""
    support = spec.offspring.max_support()
    return spec.offspring.pmf(xs, k_max if support is None else min(k_max, support))


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
        p = off.pmf(np.zeros(1), support)[0]
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
        return asdict(self)


def evaluated_moment_bound(spec: ModelSpec) -> float:
    """sup over l <= L_MAX of 2^l M_l (the l = 0 term contributes 1)."""
    return max(2.0**ell * spec.offspring.raw_moment_sup(ell) for ell in range(L_MAX + 1))


def value_bound(spec: ModelSpec) -> float:
    """Uniform bound on the value function: exp(log(K_g) K_g^(abar Mbar / gamma)).

    Computed in log space; may overflow to inf for heavy offspring families,
    in which case callers must treat the bound as unavailable.
    """
    m_bar = evaluated_moment_bound(spec)
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


def moment_report(spec: ModelSpec, C: float = 0.0) -> MomentReport:
    """Evaluate the offspring moment ladder and the gamma uniqueness margin.

    Passing C = 0 uses the value bound as the comparison constant.  The sup
    over l stops at L_MAX; whether the maximum is attained strictly inside
    the range is reported, since families with growing 2^l M_l only satisfy
    the moment condition in this truncated sense.
    """
    if C < 0:
        raise ModelError("comparison constant C must be nonnegative")
    m_ell = [spec.offspring.raw_moment_sup(ell) for ell in range(1, L_MAX + 1)]
    weighted = [1.0] + [2.0**ell * m for ell, m in enumerate(m_ell, start=1)]
    argmax = int(np.argmax(weighted))
    m_bar = weighted[argmax]
    v_bar = value_bound(spec)
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
        M_bar_interior=0 < argmax < L_MAX,
        l_max=L_MAX,
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
        return asdict(self)


def check_assumptions(spec: ModelSpec,
                      sample_grid: Optional[np.ndarray] = None) -> AssumptionCheck:
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
    grid = np.asarray(sample_grid, dtype=float)
    # a bounded family's support reaches K_MAX; a Poisson pmf is summed far into its tail
    pmf = spec.offspring.pmf(grid, 200 if spec.offspring.kind == "poisson" else K_MAX)
    totals = pmf.sum(axis=1)
    # each test below is written as "not within", so that a NaN is reported too
    off_mass = np.flatnonzero(~(np.abs(totals - 1.0) <= 1e-12))
    if len(off_mass):
        i = off_mass[0]
        hard.append(f"offspring pmf sums to {float(totals[i])!r} at x={float(grid[i])!r}")
    # the branch rate at every sample point, for the bound and the continuity samples
    alpha_vals = spec.branch_rate(grid[:, None])
    alpha_sup = spec.branch_rate.supremum()
    if not alpha_sup <= spec.alpha_bar + 1e-12:
        hard.append(f"branch rate supremum {alpha_sup} exceeds declared bound {spec.alpha_bar}")
    else:
        for x, a in zip(grid.tolist(), alpha_vals.tolist()):
            if not 0 <= a <= spec.alpha_bar + 1e-12:
                hard.append(f"branch rate {a} outside [0, {spec.alpha_bar}] at x={x!r}")
                break
    for n, g in enumerate(spec.reward_levels):
        vals = g(grid[:, None])
        if not np.all((vals >= -1e-12) & (vals <= spec.k_g + 1e-12)):
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
    # modulus-of-continuity samples: max increment over adjacent grid points,
    # of the branch rate and of p_0..p_8
    continuity = {
        "grid_step": float(np.max(np.diff(grid))) if len(grid) > 1 else 0.0,
        "alpha_max_increment": float(np.max(np.abs(np.diff(alpha_vals)))) if len(grid) > 1 else 0.0,
        "pmf_max_increment": float(np.max(np.abs(np.diff(pmf[:, :9], axis=0)))) if len(grid) > 1 else 0.0,
    }
    return AssumptionCheck(ok=not hard, hard_violations=hard, warnings=warn,
                           continuity_samples=continuity)
