"""Branching diffusion forest simulation.

Particles diffuse by Euler-Maruyama between candidate event times drawn at
the declared rate bound; a uniform mark on [0, alpha_bar] then either
rejects the candidate (thinning) or selects the offspring count from the
local reproduction probabilities.  Offspring are born where the mother
dies.  Every particle consumes randomness from its own counter-based
stream keyed on (seed, label), so the law of a subtree depends only on
its root's state and not on what siblings do.

One function, `draw_particles`, draws particles at one step size: many at
a time, each from its own stream with the same calls in the same order, in
chunks of about CHUNK_SAMPLES samples whose per-sample arithmetic is done
once.  The block walk draws a generation of many lines this way, for the
estimators and for `simulate_forests`, whose forests are never-rule lines.

A stream is the Philox generator that `label_stream` builds for (seed,
label).  `draw_particles` does not build one per particle: it derives the
Philox keys of all its items in one numpy pass, numpy's `SeedSequence`
mixing run over every label's entropy words at once, and re-keys one
reused Philox at the start of each particle, so every particle reads the
numbers its own `label_stream` would give.
"""
from __future__ import annotations

import csv
import hashlib
import math
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
MAX_STEPS = 10**7  # Euler steps of one particle from t0 to the horizon


class SimulationError(RuntimeError):
    pass


def _entropy(seed: int, label: Label) -> bytes:
    """The 128-bit entropy of the stream for (seed, label), little endian: the
    first 16 bytes of a SHA-256 of the seed and the label path."""
    return hashlib.sha256((f"{seed}||" + ".".join(map(str, label))).encode()).digest()[:16]


def label_stream(seed: int, label: Label) -> np.random.Generator:
    """Independent random stream for one particle, built on its own: the
    reference that `draw_particles`' batched keys reproduce.

    The Philox key is a cryptographic digest of (seed, label path), so
    streams for distinct labels never collide and a subtree's randomness
    is identical whenever (seed, label) match.
    """
    entropy = int.from_bytes(_entropy(seed, label), "little")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=entropy)))


# numpy's SeedSequence on an entropy of at most 4 uint32 words and no spawn
# key, as M. E. O'Neill's seed_seq design ("Developing a seed_seq
# alternative", pcg-random.org, 2015).  Each hashmix call xors a word with
# the running hash constant, multiplies it by the constant's next power and
# xorshifts it by 16 bits.  The constants do not depend on the data, so
# they are tabled: a pool of 4 words takes calls 0-3 from INIT_A, MULT_A;
# every word is then mixed into every other, word s into the rest in round
# s (calls 4-15); generate_state's 4 output words run from INIT_B, MULT_B.
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    powers = [init]
    for _ in range(calls):
        powers.append(powers[-1] * mult & 0xFFFFFFFF)
    return np.array(powers, dtype=np.uint32)


_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _round_constants(s: int) -> Tuple[np.ndarray, np.ndarray]:
    """Round s's xor and multiplier per destination word; word s, which the
    round leaves as it is, gets zeros."""
    xor, mul = np.zeros(4, np.uint32), np.zeros(4, np.uint32)
    for call, dst in enumerate((d for d in range(4) if d != s), start=4 + 3 * s):
        xor[dst], mul[dst] = _POOL_HASH[call], _POOL_HASH[call + 1]
    return xor, mul


_MIX_ROUNDS = [(s, *_round_constants(s)) for s in range(4)]


def _philox_keys(words: np.ndarray) -> np.ndarray:
    """`SeedSequence(entropy=e).generate_state(2, np.uint64)` for every row
    of `words`, an entropy e of 4 uint32 words, least significant first (a
    missing high word hashes as 0 in numpy too): the (n, 2) uint64 keys."""
    pool = words ^ _POOL_HASH[:4]
    pool *= _POOL_HASH[1:5]
    pool ^= pool >> 16
    for s, xor, mul in _MIX_ROUNDS:
        # mix(x, hashmix(word s)) = xorshift(MIX_L x - MIX_R hashmix(word s))
        h = pool[:, s, None] ^ xor
        h *= mul
        h ^= h >> 16
        h *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= h
        mixed ^= mixed >> 16
        mixed[:, s] = pool[:, s]
        pool = mixed
    pool ^= _STATE_HASH[:4]
    pool *= _STATE_HASH[1:]
    pool ^= pool >> 16
    return pool.astype("<u4", copy=False).view("<u8")


def _stream_keys(items) -> List[List[int]]:
    """The Philox key of each (seed, label, ...) item's `label_stream`."""
    words = np.frombuffer(b"".join(_entropy(seed, label) for seed, label, *_ in items),
                          dtype="<u4").reshape(-1, 4)
    return _philox_keys(words).tolist()


# The one Philox that `draw_particles` re-keys for each particle, and the
# state it sets: the particle's key, counter 0 and an empty buffer, as a
# Philox built from the key starts.  A particle is drawn whole between two
# re-keys and no chunk is yielded inside it, so interleaved draws never
# share a stream; threads must not draw at once.  It stays module-level: a
# Philox built per `draw_particles` call costs about 12 us, and that took
# `test_offspring_frequencies_chi_square` from 3.9 s to 5.8-6.3 s.
_PHILOX = np.random.Philox(0)
_STREAM = np.random.Generator(_PHILOX)
_FRESH = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
          "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _keyed_stream(key: List[int]) -> np.random.Generator:
    """The reused generator, started afresh from a Philox key."""
    _FRESH["state"]["key"] = key
    _PHILOX.state = _FRESH
    return _STREAM


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


def draw_particles(spec: ModelSpec, dt: float, items) -> Iterator[Chunk]:
    """Draw particles in chunks of about CHUNK_SAMPLES samples, in item order.

    Each item is (seed, label, birth time, birth position, horizon), and its
    particle is drawn at step dt from the numbers of `label_stream(seed,
    label)`: exponential candidate event times at rate alpha_bar, the
    Euler-Maruyama path up to each, and a uniform mark on [0, alpha_bar] that
    rejects the candidate or picks the offspring count.  The keys of all the
    items' streams are derived at once, in numpy, and each particle re-keys
    one reused Philox; no items, no chunk.

    When the coefficients are constant, a particle's loop draws only its
    random numbers, and the chunk's per-sample arithmetic is done once over
    all its segments, with one sequential cumsum per segment, so every path
    is bit for bit the one drawn alone; where a mark reads the position, the
    loop forms each segment's end by the same elementwise arithmetic.  For
    general coefficients each segment's path is computed before its mark
    reads it, by `_diffuse_general`.
    """
    a_bar = spec.alpha_bar
    coefficients = spec.constant_coefficients
    cdf = spec.offspring_cdf
    rate = None if cdf is None else spec.branch_rate(np.zeros(spec.dimension))
    batch, n_samples, sums = [], 0, np.zeros(1)
    items = list(items)

    def chunk():
        return _chunk(batch, coefficients, dt, sums) if coefficients else _stack(batch)

    for (_, _, birth, x, horizon), key in zip(items, _stream_keys(items)):
        if batch and n_samples >= CHUNK_SAMPLES:
            yield chunk()
            batch, n_samples = [], 0
        rng = _keyed_stream(key)
        segments, t, count, proposals, start = [], birth, -1, 0, x
        while True:
            proposal = t + rng.exponential(1.0 / a_bar) if a_bar > 0 else math.inf
            target = min(proposal, horizon)
            n_full, residual = _segment(t, target, dt)
            n = n_full + (residual > 0.0)
            n_samples += n
            if not n:
                t = target
            elif coefficients is not None:
                z = rng.standard_normal((n, spec.dimension)) if coefficients[2] else None
                if cdf is None:
                    # the segment's last sample, as `_chunk` computes it
                    x = x + np.cumsum(_increments(*coefficients, _segment_steps(t, target, dt), z),
                                      axis=0)[-1]
                segments.append((t, n_full, residual, z))
                if n_full + 1 >= len(sums):
                    sums = _dt_sums(dt, max(1024, 1 << (n_full + 2).bit_length()))
                # the segment's last sample time, t + cumsum(steps)[-1]
                t = float(t + (sums[n_full] + residual if residual else sums[n_full]))
            else:
                ts, xp = _diffuse_general(x, t, _segment_steps(t, target, dt), spec, rng)
                segments.append((ts, xp))
                t, x = float(ts[-1]), xp[-1]
            if proposal > horizon:
                break
            proposals += 1
            u = rng.uniform(0.0, a_bar)
            # x is the path's last sample wherever a mark reads it; a mark with a
            # cdf reads no position, and x stays at birth under constant coefficients
            alpha_here = spec.branch_rate(x) if cdf is None else rate
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


def forest_start(
    spec: ModelSpec,
    initial: Sequence[Tuple[Label, Sequence[float]]],
    horizon: float,
    dt: float,
    t0: float = 0.0,
) -> List[Tuple[Label, np.ndarray]]:
    """The initial particles of a forest as (label, position array) pairs,
    checked: a SimulationError names the first thing that is wrong."""
    # each test is written as "not within", so that a NaN fails it too
    if not t0 < horizon < math.inf:
        raise SimulationError("horizon must be finite and exceed the start time")
    if not (0 < dt < horizon - t0 and (horizon - t0) / dt <= MAX_STEPS):  # not left to numpy
        raise SimulationError(f"dt must satisfy 0 < dt < horizon - t0 in at most {MAX_STEPS} steps")
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


def simulate_forests(spec: ModelSpec, initial: Sequence[Tuple[Label, Sequence[float]]],
                     horizon: float, dt: float, seeds: Sequence[int],
                     max_particles: int = DEFAULT_MAX_PARTICLES,
                     t0: float = 0.0) -> List[GenealogyRecord]:
    """Simulate one whole forest per seed, from time t0 (default 0) up to the horizon.

    Candidate event times are exact exponential arrivals at rate alpha_bar
    (no events at all when the bound is zero); only the diffusion between
    them is discretized, with the substep before an event shortened to hit
    the event time exactly.  Offspring counts come from the inverse cdf of
    the local pmf truncated at K_MAX, residual mass going to K_MAX.
    Identical arguments reproduce the records bit for bit.

    A forest is the stop line of the rule that never fires: one `walk_lines`
    walks the roots of every forest and files each particle it draws into
    its forest's record, depth first.  More than `max_particles` drawn below
    one root is a SimulationError.  A repeated seed gets the same record.
    """
    from .stopping import Line, never_rule, walk_lines  # here, as stopping imports this module
    init = forest_start(spec, initial, horizon, dt, t0)
    t0, spec_hash = float(t0), model_hash(spec)
    records = {seed: GenealogyRecord(particles={}, initial=init, horizon=horizon, dt=dt,
                                     seed=seed, spec_hash=spec_hash, t0=t0) for seed in seeds}
    roots = {label for label, _ in init}

    def draw(items):
        items = list(items)
        chunks = list(draw_particles(spec, dt, items))
        for (seed, label, birth, *_), (times, positions, end, count, proposals) in zip(
                items, (p for chunk in chunks for p in chunk.particles())):
            record = records[seed]
            record.proposals += proposals
            record.rejections += proposals - (count >= 0)
            record.particles[label] = ParticleRecord(
                label=label, parent=None if label in roots else label[:-1], birth_time=birth,
                end_time=end, end_kind="branched" if count >= 0 else "alive_at_horizon",
                offspring_count=count if count >= 0 else None, times=times, positions=positions)
        return chunks

    walk_lines(never_rule(horizon - t0),
               [Line(label, t0, x, seed, horizon, t0) for seed in records for label, x in init],
               draw, "", max_particles)
    for record in records.values():
        # filed depth first, the label pushed last taken first
        drawn, record.particles = record.particles, {}
        stack = record.roots()
        while stack:
            p = drawn[stack.pop()]
            record.particles[p.label] = p
            if p.end_kind == "branched":
                stack.extend(child(p.label, k) for k in range(p.offspring_count))
    return [records[seed] for seed in seeds]


def simulate_forest(spec: ModelSpec, initial: Sequence[Tuple[Label, Sequence[float]]],
                    horizon: float, dt: float, seed: int,
                    max_particles: int = DEFAULT_MAX_PARTICLES,
                    t0: float = 0.0) -> GenealogyRecord:
    """Simulate one whole forest: `simulate_forests` with one seed."""
    return simulate_forests(spec, initial, horizon, dt, [seed], max_particles, t0)[0]


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
    records = simulate_forests(spec, [((), np.zeros(spec.dimension))], horizon=t, dt=t / 8.0,
                               seeds=[replication_seed(seed, r) for r in range(reps)])
    vals = np.array([K ** total_born(rec, t) for rec in records], dtype=float)
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
            row += [repr(float(v)) for v in p.positions[0]]
            row += [repr(float(v)) for v in p.positions[-1]]
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
