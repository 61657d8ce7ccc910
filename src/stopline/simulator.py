"""Branching diffusion forest simulation.

Particles diffuse by Euler-Maruyama between candidate event times drawn at
the declared rate bound; a uniform mark on [0, alpha_bar] then either
rejects the candidate (thinning) or selects the offspring count from the
local reproduction probabilities.  Offspring are born where the mother
dies.  Every particle consumes randomness from its own counter-based
stream keyed on (seed, label), so the law of a subtree depends only on
its root's state and not on what siblings do.
"""
from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .labels import (
    Label,
    child,
    format_label,
    generation,
    is_antichain,
)
from .model import ModelSpec, model_hash

DEFAULT_MAX_PARTICLES = 1_000_000


class SimulationError(RuntimeError):
    pass


def label_stream(seed: int, label: Label, salt: str = "") -> np.random.Generator:
    """Independent random stream for one particle.

    The Philox key is a cryptographic digest of (seed, salt, label path),
    so streams for distinct labels never collide and a subtree's
    randomness is identical whenever (seed, label) match.
    """
    text = f"{seed}|{salt}|" + ".".join(str(k) for k in label)
    digest = hashlib.sha256(text.encode()).digest()
    entropy = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=entropy)))


def replication_seed(seed: int, rep: int, salt: str = "") -> int:
    """Stable per-replication master seed."""
    digest = hashlib.sha256(f"{seed}|rep|{salt}|{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class ParticleRecord:
    label: Label
    parent: Optional[Label]
    birth_time: float
    end_time: float  # inf while alive at the horizon
    end_kind: str  # "branched" | "alive_at_horizon"
    offspring_count: Optional[int]
    times: np.ndarray  # sample times, birth first; ends at min(end, horizon)
    positions: np.ndarray  # shape (len(times), d)


@dataclass
class GenealogyRecord:
    particles: Dict[Label, ParticleRecord]
    initial: List[Tuple[Label, np.ndarray]]
    horizon: float
    dt: float
    seed: int
    spec_hash: str
    proposals: int = 0
    rejections: int = 0
    branch_events: List[Tuple[Label, float, int]] = field(default_factory=list)

    def roots(self) -> List[Label]:
        return [lab for lab, _ in self.initial]


def _segment_steps(t0: float, t1: float, dt: float) -> np.ndarray:
    """Step lengths partitioning [t0, t1] into dt pieces plus a residual."""
    span = t1 - t0
    if span <= 0:
        return np.empty(0)
    n_full = int(math.floor(span / dt - 1e-12))
    residual = span - n_full * dt
    if residual > 1e-12:
        steps = np.empty(n_full + 1)
        steps[:n_full] = dt
        steps[n_full] = residual
    else:
        steps = np.full(n_full, dt)
    return steps


def _diffuse_constant(x, t, steps, b, s, noisy, rng):
    """Exact-in-law path for constant coefficients, one vectorized draw."""
    d = x.shape[0]
    n = len(steps)
    incr = b[None, :] * steps[:, None]
    if noisy:
        incr = incr + s[None, :] * np.sqrt(steps)[:, None] * rng.standard_normal((n, d))
    xs = x[None, :] + np.cumsum(incr, axis=0)
    ts = t + np.cumsum(steps)
    return ts, xs


def _diffuse_general(x, t, steps, spec, rng):
    d = x.shape[0]
    ts = np.empty(len(steps))
    xs = np.empty((len(steps), d))
    cur = x.copy()
    now = t
    for i, h in enumerate(steps):
        b = spec.drift(cur)
        s = spec.diffusion(cur)
        cur = cur + b * h + s * math.sqrt(h) * rng.standard_normal(d)
        now += h
        ts[i] = now
        xs[i] = cur
    return ts, xs


def simulate_forest(
    spec: ModelSpec,
    initial: Sequence[Tuple[Label, Sequence[float]]],
    horizon: float,
    dt: float,
    seed: int,
    max_particles: int = DEFAULT_MAX_PARTICLES,
    k_max: int = 64,
    path_stride: int = 1,
    rng_salt: str = "",
    t0: float = 0.0,
) -> GenealogyRecord:
    """Simulate one forest from time t0 (default 0) up to the horizon.

    Candidate event times are exact exponential arrivals at rate alpha_bar
    (no events at all when the bound is zero); only the diffusion between
    them is discretized, with the substep before an event shortened to hit
    the event time exactly.  Offspring counts come from the inverse cdf of
    the local pmf truncated at k_max, residual mass going to k_max.
    Identical arguments reproduce the record bit for bit.
    """
    if horizon <= t0:
        raise SimulationError("horizon must exceed the start time")
    if dt <= 0 or dt >= horizon - t0:
        raise SimulationError("dt must satisfy 0 < dt < horizon - t0")
    if path_stride < 1:
        raise SimulationError("path_stride must be >= 1")
    init = [(tuple(lab), np.atleast_1d(np.asarray(x, dtype=float)).copy())
            for lab, x in initial]
    if not init:
        raise SimulationError("at least one initial particle is required")
    if not is_antichain([lab for lab, _ in init]):
        raise SimulationError("initial labels must form an ancestry antichain")
    for _, x in init:
        if x.shape != (spec.dimension,):
            raise SimulationError(
                f"initial position has dimension {x.shape}, model wants ({spec.dimension},)"
            )

    record = GenealogyRecord(
        particles={},
        initial=init,
        horizon=horizon,
        dt=dt,
        seed=seed,
        spec_hash=model_hash(spec),
    )
    a_bar = spec.alpha_bar
    const_coeffs = spec.drift.kind == "constant" and spec.diffusion.kind == "constant"
    if const_coeffs:
        b_const = spec.drift(np.zeros(spec.dimension))
        s_const = spec.diffusion(np.zeros(spec.dimension))
        noisy = bool(np.any(s_const != 0))

    work: List[Tuple[Label, Optional[Label], float, np.ndarray]] = [
        (lab, None, t0, x) for lab, x in init
    ]
    while work:
        label, par, birth, x0 = work.pop()
        if len(record.particles) >= max_particles:
            raise SimulationError(f"population exceeded max_particles={max_particles}")
        rng = label_stream(seed, label, rng_salt)
        t_segments = [np.array([birth])]
        x_segments = [x0[None, :]]
        t = birth
        x = x0
        end_time = math.inf
        end_kind = "alive_at_horizon"
        count: Optional[int] = None
        while True:
            proposal = t + rng.exponential(1.0 / a_bar) if a_bar > 0 else math.inf
            target = min(proposal, horizon)
            steps = _segment_steps(t, target, dt)
            if len(steps):
                if const_coeffs:
                    ts, xp = _diffuse_constant(x, t, steps, b_const, s_const, noisy, rng)
                else:
                    ts, xp = _diffuse_general(x, t, steps, spec, rng)
                t_segments.append(ts)
                x_segments.append(xp)
                t = float(ts[-1])
                x = xp[-1]
            else:
                t = target
            if proposal > horizon:
                break
            record.proposals += 1
            u = rng.uniform(0.0, a_bar)
            alpha_here = spec.branch_rate(x)
            if u >= alpha_here:
                record.rejections += 1
                continue
            # accepted event: the same mark picks the offspring interval
            v = u / alpha_here
            pmf = spec.offspring.pmf(x, k_max)
            cum = 0.0
            count = k_max
            for k, pk in enumerate(pmf):
                cum += pk
                if v < cum:
                    count = k
                    break
            end_time = t
            end_kind = "branched"
            break

        times_arr = np.concatenate(t_segments)
        xs_arr = np.concatenate(x_segments, axis=0)
        if path_stride > 1 and len(times_arr) > 2:
            keep = np.zeros(len(times_arr), dtype=bool)
            keep[::path_stride] = True
            keep[0] = keep[-1] = True
            times_arr = times_arr[keep]
            xs_arr = xs_arr[keep]
        record.particles[label] = ParticleRecord(
            label=label,
            parent=par,
            birth_time=birth,
            end_time=end_time,
            end_kind=end_kind,
            offspring_count=count,
            times=times_arr,
            positions=xs_arr,
        )
        if end_kind == "branched":
            record.branch_events.append((label, end_time, count))
            for k in range(count):
                work.append((child(label, k), label, end_time, x.copy()))
    return record


def population_count(record: GenealogyRecord, t: float) -> int:
    """Number of particles alive at t (born at or before t, not yet ended)."""
    if t < 0 or t > record.horizon:
        raise SimulationError(f"time {t} outside [0, {record.horizon}]")
    return sum(1 for p in record.particles.values() if p.birth_time <= t < p.end_time)


def total_born(record: GenealogyRecord, t: float) -> int:
    """Number of particles ever born by time t; nondecreasing in t."""
    if t < 0 or t > record.horizon:
        raise SimulationError(f"time {t} outside [0, {record.horizon}]")
    return sum(1 for p in record.particles.values() if p.birth_time <= t)


def alive_labels(record: GenealogyRecord, t: float) -> List[Label]:
    return [lab for lab, p in record.particles.items() if p.birth_time <= t < p.end_time]


def empirical_moment_bound_check(
    spec: ModelSpec,
    K: float,
    t: float,
    reps: int,
    seed: int,
    x0: Optional[Sequence[float]] = None,
    dt: Optional[float] = None,
) -> Tuple[float, float, bool]:
    """Sample mean of K^(total born by t) against its exponential-moment cap.

    The cap (K v 1)^exp(abar Mbar t) uses the evaluated moment bound, so it
    can be enormous (or infinite) for heavy offspring families; the check
    still reports both numbers.
    """
    if K <= 0:
        raise SimulationError("K must be positive")
    if reps < 100:
        raise SimulationError("reps must be at least 100")
    from .model import evaluated_moment_bound

    if x0 is None:
        x0 = np.zeros(spec.dimension)
    if dt is None:
        dt = t / 8.0
    vals = np.empty(reps)
    for r in range(reps):
        rec = simulate_forest(spec, [((), x0)], horizon=t, dt=dt,
                              seed=replication_seed(seed, r))
        vals[r] = K ** total_born(rec, t)
    m_bar = evaluated_moment_bound(spec)
    log_bound = math.exp(min(700.0, spec.alpha_bar * m_bar * t)) * math.log(max(K, 1.0))
    bound = math.inf if log_bound > 700.0 else math.exp(log_bound)
    mean = float(np.mean(vals))
    return mean, bound, mean <= bound


# ---------------------------------------------------------------------------
# CSV dumps


def write_forest_csv(record: GenealogyRecord, path: str) -> None:
    d = record.particles[next(iter(record.particles))].positions.shape[1] if record.particles else 1
    cols = ["label", "parent", "birth_time", "end_time", "end_kind", "k"]
    cols += [f"x_birth_{i}" for i in range(d)] + [f"x_end_{i}" for i in range(d)]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(cols)
        for lab in sorted(record.particles):
            p = record.particles[lab]
            row = [
                format_label(lab),
                format_label(p.parent) if p.parent is not None else "",
                repr(p.birth_time),
                "inf" if math.isinf(p.end_time) else repr(p.end_time),
                p.end_kind,
                "" if p.offspring_count is None else p.offspring_count,
            ]
            row += [repr(v) for v in p.positions[0]]
            row += [repr(v) for v in p.positions[-1]]
            w.writerow(row)


def write_paths_csv(record: GenealogyRecord, path: str) -> None:
    d = record.particles[next(iter(record.particles))].positions.shape[1] if record.particles else 1
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["label", "t"] + [f"x_{i}" for i in range(d)])
        for lab in sorted(record.particles):
            p = record.particles[lab]
            for ts, xs in zip(p.times, p.positions):
                w.writerow([format_label(lab), repr(float(ts))] + [repr(float(v)) for v in xs])
