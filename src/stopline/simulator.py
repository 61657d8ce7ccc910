"""Branching diffusion forest simulation.

Particles diffuse by Euler-Maruyama between candidate event times drawn at
the declared rate bound; a uniform mark on [0, alpha_bar] then either
rejects the candidate (thinning) or selects the offspring count from the
local reproduction probabilities.  Offspring are born where the mother
dies.  Every particle consumes randomness from its own counter-based
stream keyed on (seed, label), so the law of a subtree depends only on
its root's state and not on what siblings do.

One function, `draw_particles`, draws particles: many at a time, each
from its own stream with the same calls in the same order, in chunks of
about CHUNK_SAMPLES samples whose per-sample arithmetic is done once.  The
estimators' block walk draws a generation of many lines this way.  A
forest is open: each particle is drawn, as a one-item chunk, when a walk
over the forest first reads it, so a stop-line walk draws only the
particles it reads, and `simulate_forest` reads them all.
"""
from __future__ import annotations

import csv
import hashlib
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .labels import (
    Label,
    child,
    format_label,
    is_antichain,
)
from .model import K_MAX, ModelSpec, evaluated_moment_bound, model_hash

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
    t0: float = 0.0  # the roots' birth time
    proposals: int = 0
    rejections: int = 0

    def roots(self) -> List[Label]:
        return [lab for lab, _ in self.initial]


def _segment(t0: float, t1: float, dt: float) -> Tuple[int, float]:
    """Whole dt steps partitioning [t0, t1], and the residual step (0.0 when
    there is none)."""
    span = t1 - t0
    n_full = max(int(math.floor(span / dt - 1e-12)), 0)
    residual = span - n_full * dt
    return n_full, residual if residual > 1e-12 else 0.0


def _segment_steps(t0: float, t1: float, dt: float) -> np.ndarray:
    """Step lengths partitioning [t0, t1] into dt pieces plus a residual."""
    n_full, residual = _segment(t0, t1, dt)
    steps = np.full(n_full + (residual > 0.0), dt)
    if residual:
        steps[n_full] = residual
    return steps


def _increments(b, s, noisy, steps, z):
    """Constant-coefficient increments b h + (s sqrt(h)) z, a row per step h."""
    incr = b[None, :] * steps[:, None]
    if noisy:
        noise = s[None, :] * np.sqrt(steps)[:, None]
        noise *= z
        incr += noise
    return incr


def _diffuse_constant(x, t, steps, b, s, noisy, rng):
    """Exact-in-law path for constant coefficients, one vectorized draw."""
    z = rng.standard_normal((len(steps), x.shape[0])) if noisy else None
    xs = x[None, :] + np.cumsum(_increments(b, s, noisy, steps, z), axis=0)
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


# Samples per chunk of drawn particles.  The walk tests a chunk at once, so a
# larger chunk spends less per particle on numpy calls and holds more memory:
# on the benchmark, 4096 held peak memory about 2% above drawing one particle
# at a time, where 16384 held 3% and ran up to 8% faster (see CHANGES.md).
CHUNK_SAMPLES = 4096


@dataclass
class Chunk:
    """Drawn particles with their samples back to back: particle i's are rows
    starts[i]:starts[i + 1] of `times` and `positions`, sample 0 its birth."""

    times: np.ndarray
    positions: np.ndarray  # shape (len(times), d)
    starts: np.ndarray
    end_time: np.ndarray  # inf while alive at the horizon
    count: np.ndarray  # offspring count; -1 while alive at the horizon
    proposals: np.ndarray  # candidate events drawn below the horizon

    def particles(self):
        """Each particle's (times, positions, end time, count, proposals)."""
        starts = self.starts.tolist()
        return ((self.times[lo:hi], self.positions[lo:hi], end, count, proposals)
                for lo, hi, end, count, proposals in zip(
                    starts[:-1], starts[1:], self.end_time.tolist(), self.count.tolist(),
                    self.proposals.tolist()))

    @staticmethod
    def stack(paths, end_time, count, proposals) -> "Chunk":
        """A chunk of whole paths, each a (times, positions) pair; one path's
        arrays are taken as they are."""
        times, positions = paths[0] if len(paths) == 1 else (
            np.concatenate([ts for ts, _ in paths]), np.concatenate([xs for _, xs in paths]))
        return Chunk(times, positions, np.array([0] + [len(ts) for ts, _ in paths]).cumsum(),
                     np.array(end_time, dtype=float), np.array(count, dtype=int),
                     np.array(proposals, dtype=int))


def draw_particles(spec: ModelSpec, items) -> Iterator[Chunk]:
    """Draw particles in chunks of about CHUNK_SAMPLES samples, in item order.

    Each item is (seed, label, birth time, birth position, horizon, dt), and
    its particle is drawn from `label_stream(seed, label)`: exponential
    candidate event times at rate alpha_bar, the Euler-Maruyama path up to
    each, and a uniform mark on [0, alpha_bar] that rejects the candidate or
    picks the offspring count.  A chunk holds items of one dt.

    When the coefficients are constant and no mark reads the position, a
    particle's loop draws only its random numbers, and the chunk's
    per-sample arithmetic is done once over all its segments: the same
    elementwise operations as `_diffuse_constant`, with one sequential
    cumsum per segment, so every path is bit for bit the one drawn alone.
    Otherwise each segment's path is computed before its mark reads it, by
    `_diffuse_constant` or `_diffuse_general`.
    """
    a_bar = spec.alpha_bar
    coefficients = spec.constant_coefficients
    cdf = spec.offspring_cdf
    deferred = coefficients is not None and cdf is not None
    batch, n_samples, chunk_dt, sums = [], 0, None, np.zeros(1)

    def chunk():
        return _chunk(batch, coefficients, chunk_dt, sums) if deferred else _stack(batch)

    for seed, label, birth, x, horizon, dt in items:
        if batch and (n_samples >= CHUNK_SAMPLES or dt != chunk_dt):
            yield chunk()
            batch, n_samples = [], 0
        if dt != chunk_dt:
            chunk_dt, sums = dt, np.zeros(1)
        rng = label_stream(seed, label)
        segments, t, count, proposals, start = [], birth, -1, 0, x
        while True:
            proposal = t + rng.exponential(1.0 / a_bar) if a_bar > 0 else math.inf
            target = min(proposal, horizon)
            n_full, residual = _segment(t, target, dt)
            n = n_full + (residual > 0.0)
            n_samples += n
            if not n:
                t = target
            elif deferred:
                z = rng.standard_normal((n, spec.dimension)) if coefficients[2] else None
                segments.append((t, n_full, residual, z))
                if n_full + 1 >= len(sums):
                    sums = _dt_sums(dt, max(1024, 1 << (n_full + 2).bit_length()))
                # the segment's last sample time, t + cumsum(steps)[-1]
                t = float(t + (sums[n_full] + residual if residual else sums[n_full]))
            else:
                steps = _segment_steps(t, target, dt)
                if coefficients is not None:
                    ts, xp = _diffuse_constant(x, t, steps, *coefficients, rng)
                else:
                    ts, xp = _diffuse_general(x, t, steps, spec, rng)
                segments.append((ts, xp))
                t, x = float(ts[-1]), xp[-1]
            if proposal > horizon:
                break
            proposals += 1
            u = rng.uniform(0.0, a_bar)
            # a constant branch rate does not read x, which a deferred path leaves at birth
            alpha_here = spec.branch_rate(x)
            if u < alpha_here:
                # accepted event: the same mark picks the offspring interval,
                # residual mass going to K_MAX
                row = cdf if cdf is not None else spec.offspring.pmf(x[:1], K_MAX)[0].cumsum()
                count = min(int(row.searchsorted(u / alpha_here, side="right")), K_MAX)
                break
        batch.append((birth, start, segments, t if count >= 0 else math.inf, count, proposals))
        n_samples += 1
    if batch:
        yield chunk()


@lru_cache(maxsize=8)
def _dt_sums(dt: float, size: int) -> np.ndarray:
    """[0, dt, dt + dt, ...], `size` sums of dt steps taken in sequence as
    np.cumsum takes them; read-only, as calls share it."""
    sums = np.zeros(size)
    np.cumsum(np.full(size - 1, dt), out=sums[1:])
    sums.flags.writeable = False
    return sums


def _stack(batch) -> Chunk:
    """A chunk of particles whose segments' paths are already computed."""
    paths = [(np.concatenate([[birth]] + [ts for ts, _ in segs]),
              np.concatenate([x[None, :]] + [xs for _, xs in segs], axis=0))
             for birth, x, segs, *_ in batch]
    return Chunk.stack(paths, *zip(*(p[3:] for p in batch)))


def _chunk(batch, coefficients, dt: float, sums: np.ndarray) -> Chunk:
    """A chunk of constant-coefficient particles whose segments hold only their
    random numbers: (start time, whole dt steps, residual, normals or None);
    `sums` is `_dt_sums` for dt, long enough for every segment."""
    b, s, noisy = coefficients
    births, xs, starts, segments = [], [], [0], []
    for birth, x, segs, *_ in batch:
        births.append(birth)
        xs.append(x)
        row = starts[-1] + 1  # the particle's birth takes the row before
        for t, n_full, residual, z in segs:
            segments.append((t, n_full, residual, row, z))
            row += n_full + (residual > 0.0)
        starts.append(row)
    times = np.empty(row)
    positions = np.empty((row, len(b)))
    heads = starts[:-1]
    times[heads] = births
    positions[heads] = xs
    if segments:
        steps = np.full(sum(n_full + (res > 0.0) for _, n_full, res, _, _ in segments), dt)
        lo = 0
        for t, n_full, residual, row, _ in segments:
            # t + cumsum(steps): the dt sums, then the residual
            np.add(t, sums[1:n_full + 1], out=times[row:row + n_full])
            if residual:
                times[row + n_full] = t + (sums[n_full] + residual)
                steps[lo + n_full] = residual
            lo += n_full + (residual > 0.0)
        incr = _increments(b, s, noisy, steps,
                           np.concatenate([z for *_, z in segments]) if noisy else None)
        # x + cumsum(incr), one sequential cumsum per segment, x the row before it
        lo = 0
        for _, n_full, residual, row, _ in segments:
            n = n_full + (residual > 0.0)
            block = positions[row:row + n]
            np.cumsum(incr[lo:lo + n], axis=0, out=block)
            np.add(positions[row - 1], block, out=block)
            lo += n
    ends, counts, proposals = zip(*(p[3:] for p in batch))
    return Chunk(times, positions, np.array(starts), np.array(ends, dtype=float),
                 np.array(counts, dtype=int), np.array(proposals, dtype=int))


class _OpenParticles(dict):
    """The particles of an open forest: reading a missing label simulates it.

    A label that names no particle of the forest raises KeyError and draws
    nothing.  The record is held by a weak reference, so a forest and its
    mapping form no reference cycle and a dropped forest is freed at once.
    """

    def __init__(self, record: GenealogyRecord, spec: ModelSpec, max_particles: int):
        super().__init__()
        self._record = weakref.ref(record)
        self._spec = spec
        self._starts = {lab: (record.t0, x) for lab, x in record.initial}
        self._max_particles = max_particles

    def __missing__(self, label: Label) -> ParticleRecord:
        parent = None
        if label in self._starts:
            birth, x = self._starts[label]
        elif not label:
            raise KeyError(label)
        else:
            parent = label[:-1]
            mother = self[parent]
            if mother.end_kind != "branched" or not 0 <= label[-1] < mother.offspring_count:
                raise KeyError(label)
            birth, x = mother.end_time, mother.positions[-1]
        if len(self) >= self._max_particles:
            raise SimulationError(f"population exceeded max_particles={self._max_particles}")
        record = self._record()
        if record is None:
            raise SimulationError("the forest of these particles was dropped; keep the record")
        chunk = next(draw_particles(self._spec, [(record.seed, label, birth, x, record.horizon,
                                                  record.dt)]))
        particle = self[label] = _filed(record, label, parent, birth, *next(chunk.particles()))
        return particle


def _filed(record: GenealogyRecord, label: Label, parent: Optional[Label], birth: float,
           times, positions, end: float, count: int, proposals: int) -> ParticleRecord:
    """The record of a drawn particle of a forest, whose proposals it counts."""
    record.proposals += proposals
    record.rejections += proposals - (count >= 0)
    return ParticleRecord(label=label, parent=parent, birth_time=birth, end_time=end,
                          end_kind="branched" if count >= 0 else "alive_at_horizon",
                          offspring_count=count if count >= 0 else None, times=times,
                          positions=positions)


def forest_start(
    spec: ModelSpec,
    initial: Sequence[Tuple[Label, Sequence[float]]],
    horizon: float,
    dt: float,
    t0: float = 0.0,
) -> List[Tuple[Label, np.ndarray]]:
    """The initial particles of a forest as (label, position array) pairs,
    checked: a SimulationError names the first thing that is wrong."""
    if horizon <= t0:
        raise SimulationError("horizon must exceed the start time")
    if dt <= 0 or dt >= horizon - t0:
        raise SimulationError("dt must satisfy 0 < dt < horizon - t0")
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
    return init


def open_forest(
    spec: ModelSpec,
    initial: Sequence[Tuple[Label, Sequence[float]]],
    horizon: float,
    dt: float,
    seed: int,
    max_particles: int = DEFAULT_MAX_PARTICLES,
    t0: float = 0.0,
) -> GenealogyRecord:
    """A forest as in `simulate_forest`, each particle simulated when its
    label is first read from `particles`.

    A walk over the forest thus draws exactly the particles it reads, each
    bit for bit as in the whole forest; `max_particles` caps those.  The
    record's `t0` is the roots' birth time, so a walk can test a particle's
    birth state before it reads it: a particle that `evaluate_line` stops
    at birth is never drawn and does not count toward `max_particles`.
    """
    init = forest_start(spec, initial, horizon, dt, t0)
    record = GenealogyRecord(particles={}, initial=init, horizon=horizon, dt=dt, seed=seed,
                             spec_hash=model_hash(spec), t0=float(t0))
    record.particles = _OpenParticles(record, spec, max_particles)
    return record


def simulate_forest(
    spec: ModelSpec,
    initial: Sequence[Tuple[Label, Sequence[float]]],
    horizon: float,
    dt: float,
    seed: int,
    max_particles: int = DEFAULT_MAX_PARTICLES,
    t0: float = 0.0,
) -> GenealogyRecord:
    """Simulate one whole forest from time t0 (default 0) up to the horizon.

    Candidate event times are exact exponential arrivals at rate alpha_bar
    (no events at all when the bound is zero); only the diffusion between
    them is discretized, with the substep before an event shortened to hit
    the event time exactly.  Offspring counts come from the inverse cdf of
    the local pmf truncated at K_MAX, residual mass going to K_MAX.
    Identical arguments reproduce the record bit for bit.

    This is `open_forest` with every particle read, depth first, and each
    particle bit for bit the one an open forest draws; a walk that needs
    only part of the forest reads an open one instead.  The particles are
    drawn a generation at a time, in chunks.  `max_particles` caps the
    particles simulated.
    """
    record = open_forest(spec, initial, horizon, dt, seed, max_particles, t0)
    drawn: Dict[Label, ParticleRecord] = {}
    births = [(label, None, record.t0, x) for label, x in record.initial]
    while births:
        if len(drawn) + len(births) > max_particles:
            raise SimulationError(f"population exceeded max_particles={max_particles}")
        items = [(seed, label, birth, x, horizon, dt) for label, _, birth, x in births]
        chunks = draw_particles(spec, items)
        kids = []
        for (label, parent, birth, _), drawn_particle in zip(
                births, (p for chunk in chunks for p in chunk.particles())):
            p = drawn[label] = _filed(record, label, parent, birth, *drawn_particle)
            kids += [(child(label, k), label, p.end_time, p.positions[-1])
                     for k in range(p.offspring_count or 0)]
        births = kids
    # filed depth first, as a reading walk would draw them
    stack = record.roots()
    while stack:
        p = drawn[stack.pop()]
        record.particles[p.label] = p
        if p.end_kind == "branched":
            stack.extend(child(p.label, k) for k in range(p.offspring_count))
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
) -> Tuple[float, float, bool]:
    """Sample mean of K^(total born by t) against its exponential-moment cap.

    Each forest starts from one particle at the origin and runs with step
    t/8.  The cap (K v 1)^exp(abar Mbar t) uses the evaluated moment bound,
    so it can be enormous (or infinite) for heavy offspring families; the
    check still reports both numbers.
    """
    if K <= 0:
        raise SimulationError("K must be positive")
    if reps < 100:
        raise SimulationError("reps must be at least 100")
    x0 = np.zeros(spec.dimension)
    vals = np.empty(reps)
    for r in range(reps):
        rec = simulate_forest(spec, [((), x0)], horizon=t, dt=t / 8.0,
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
