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
chunks of about CHUNK_SAMPLES samples, each particle up to its horizon or
two steps past its stopping rule's deadline.  Its loop files each particle
straight into its chunk's lists.  A segment reaches its chunk in one of two
forms: its random numbers, under constant coefficients with marks that read
no position, for `_chunk` to do the chunk's per-sample arithmetic in one
pass (a block of at least MIN_BLOCK first segments of at most SHORT samples
summed side by side); or its path, computed in the particle's loop for its
mark to read.  The loop reads its marks and its offspring pick through
cheap scalar calls that give numpy's exact results (see `draw_particles`).
The block walk (`stopping.walk_lines`) keeps a generation of many lines as
columns and hands a round's particles to the draw as one `zip` over them,
for the estimators and for `simulate_forests`, whose forests are never-rule
lines.

A stream is the Philox generator that `label_stream` builds for (seed,
label), keyed on the SHA-256 of the text "seed||label path".  Each item of
a draw carries that text's hash state: a root's is hashed whole
(`stream_state`), and the walk continues a child's from a copy of its
mother's (`child_state`), so a lineage's text is hashed once however deep
it grows.  `draw_particles` does not build a generator per particle: it
derives the Philox keys of all its items in one numpy pass, numpy's
`SeedSequence` mixing run over every state's entropy words at once, and
re-keys one reused Philox at the start of each particle, so every particle
reads the numbers its own `label_stream` would give.
"""
from __future__ import annotations

import bisect
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


def stream_state(seed: int, label: Label):
    """The SHA-256 state of the stream text of (seed, label), hashed whole:
    its digest's first 16 bytes are `_entropy(seed, label)`."""
    return hashlib.sha256((f"{seed}||" + ".".join(map(str, label))).encode())


def child_state(mother, label: Label):
    """`stream_state` of a child label, continued from a copy of its mother's
    state rather than hashed whole: after the empty label the text gains
    str(k), and otherwise "." + str(k), k being the label's last index."""
    state = mother.copy()
    state.update(f"{'.' if len(label) > 1 else ''}{label[-1]}".encode())
    return state


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


def _stream_keys(states) -> List[List[int]]:
    """The Philox key of the `label_stream` of each `stream_state`."""
    words = np.frombuffer(b"".join([state.digest()[:16] for state in states]),
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


def _segment_steps(n_full: int, residual: float, dt: float) -> np.ndarray:
    """The step lengths of a `_segment`: n_full dt steps, then the residual."""
    steps = np.full(n_full + (residual > 0.0), dt)
    if residual:
        steps[n_full] = residual
    return steps


def _segment_times(t, n_full, residual, sums, out):
    """Write a segment's sample times t + cumsum(steps) into out and return
    it: the dt `sums`, then the residual."""
    np.add(t, sums[1:n_full + 1], out=out[:n_full])
    if residual:
        out[n_full] = t + (sums[n_full] + residual)
    return out


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

    Each item is (seed, label, birth time, birth position, horizon, deadline,
    stream), `stream` being the `stream_state` of (seed, label), and its
    particle is drawn at step dt from the numbers of `label_stream(seed,
    label)`: exponential candidate event times at rate alpha_bar, the
    Euler-Maruyama path up to each, and a uniform mark on [0, alpha_bar] that
    rejects the candidate or picks the offspring count.  The mark is read as
    alpha_bar * random(), the double uniform(0, alpha_bar) gives, with the
    stream left where uniform leaves it, and the count as bisect_right on the
    cdf as a Python list, which picks what searchsorted(side="right") picks,
    without numpy's per-call cost.  The keys of all the items' streams are
    derived at once, in numpy, and each particle re-keys one reused Philox;
    no items, no chunk.

    A particle is drawn up to min(horizon, deadline + 2 dt), the deadline
    being the forest time by which its stopping rule has fired (inf for
    none).  A shorter draw of a stream is a prefix of the longer one, and
    two steps past the deadline its first sample at or after the deadline is
    a whole dt step of both draws, with the same time and position.  One
    step is not enough: where the dt sums run behind k dt, that sample can
    be the shorter draw's residual step, a hair short of dt.  An event past
    the shorter horizon is not drawn.

    The loop files each particle straight into its chunk's lists: its first
    row, birth, birth place, end, count and proposals, and each segment.
    When the coefficients are constant and a mark reads no position (an
    `offspring_cdf`), a segment is filed as its random numbers and its rows,
    and `_chunk` does the per-sample arithmetic in one pass over the chunk's
    segments: one `_increments` call for the chunk, one accumulate for a
    block of its short first segments, summed side by side, when it holds
    MIN_BLOCK of them, and one sequential cumulative sum per other segment,
    so every path is bit for bit the one drawn alone.  Otherwise each
    segment's path is computed before its mark reads the end, and filed:
    under constant coefficients as the segment's start plus the sequential
    sum of its increments, the doubles `_chunk` would write, and for general
    coefficients by `_diffuse_general`.  The loop reads the dt sums as
    Python floats, the same doubles as the array.
    """
    a_bar = spec.alpha_bar
    coefficients = spec.constant_coefficients
    d = spec.dimension
    cdf = None if spec.offspring_cdf is None else spec.offspring_cdf.tolist()
    rate = None if cdf is None else spec.branch_rate(np.zeros(d))
    summed = coefficients is not None and cdf is not None  # filed for `_chunk`
    noisy = coefficients is not None and coefficients[2]
    sums, floats = np.zeros(1), (0.0,)
    items = list(items)
    # the chunk's particles: each one's first row (and the row past the
    # last), birth, birth place, end time, count and proposals
    starts, births, places, ends, counts, proposed = filed = [0], [], [], [], [], []
    # its segments: for `_chunk`, the short first ones and the rest as (start
    # time, whole dt steps, residual, first row, samples, first increment),
    # the residual steps by increment, and the normals (None without noise);
    # otherwise each one's (times, positions) path, in `parts`
    short, rest, residuals, parts = segments = [], [], {}, []
    lo = 0  # the chunk's increments so far

    def chunk():
        return (_chunk(filed, segments, coefficients, dt, sums) if summed
                else _stack(filed, parts, d))

    for (_, _, birth, x, horizon, deadline, _), key in zip(
            items, _stream_keys([item[6] for item in items])):
        if births and starts[-1] >= CHUNK_SAMPLES:
            yield chunk()
            for column in filed[1:] + segments:
                column.clear()
            del starts[1:]
            lo = 0
        horizon = min(horizon, deadline + 2 * dt)
        rng = _keyed_stream(key)
        births.append(birth)
        places.append(x)
        row = first = starts[-1] + 1  # the particle's birth takes the row before
        t, count, proposals = birth, -1, 0
        while True:
            proposal = t + rng.exponential(1.0 / a_bar) if a_bar > 0 else math.inf
            target = min(proposal, horizon)
            n_full, residual = _segment(t, target, dt)
            n = n_full + (residual > 0.0)
            if not n:
                t = target
            elif coefficients is None:
                ts, xp = _diffuse_general(x, t, _segment_steps(n_full, residual, dt), spec, rng)
                parts.append((ts, xp))
                t, x = float(ts[-1]), xp[-1]
            else:
                part = rng.standard_normal((n, d)) if noisy else None
                if n_full + 1 >= len(floats):
                    sums, floats = _dt_sums(dt, max(1024, 1 << (n_full + 2).bit_length()))
                if summed:
                    # a first segment starts at its particle's birth, and needs no other sum
                    (short if n <= SHORT and row == first else rest).append(
                        (t, n_full, residual, row, n, lo))
                    if residual:
                        residuals[lo + n_full] = residual
                    parts.append(part)
                    lo += n
                    # the segment's last sample time, t + cumsum(steps)[-1]
                    t = t + (floats[n_full] + residual if residual else floats[n_full])
                else:
                    # a mark reads the position: the path is x + cumsum(incr), the
                    # doubles `_chunk` would write, as IEEE addition commutes
                    ts = _segment_times(t, n_full, residual, sums, np.empty(n))
                    xp = _increments(*coefficients, _segment_steps(n_full, residual, dt), part)
                    np.add.accumulate(xp, axis=0, out=xp)
                    xp += x
                    parts.append((ts, xp))
                    t, x = float(ts[-1]), xp[-1]
            row += n
            if proposal > horizon:
                break
            proposals += 1
            u = a_bar * rng.random()  # rng.uniform(0.0, a_bar), the same double
            # x is the path's last sample wherever a mark reads it; a mark with a
            # cdf reads no position, and x stays at birth under constant coefficients
            alpha_here = spec.branch_rate(x) if cdf is None else rate
            if u < alpha_here:
                # accepted event: the same mark picks the offspring interval,
                # residual mass going to K_MAX
                row_cdf = cdf or spec.offspring.pmf(x[:1], K_MAX)[0].cumsum().tolist()
                count = min(bisect.bisect_right(row_cdf, u / alpha_here), K_MAX)
                break
        starts.append(row)
        ends.append(t if count >= 0 else math.inf)
        counts.append(count)
        proposed.append(proposals)
    if births:
        yield chunk()


@lru_cache(maxsize=8)
def _dt_sums(dt: float, size: int) -> Tuple[np.ndarray, Tuple[float, ...]]:
    """[0, dt, dt + dt, ...], `size` sums of dt steps taken in sequence as
    np.cumsum takes them, as a read-only array and as Python floats, which
    calls share."""
    sums = np.zeros(size)
    np.cumsum(np.full(size - 1, dt), out=sums[1:])
    sums.flags.writeable = False
    return sums, tuple(sums.tolist())


def _filed(filed, d: int) -> Chunk:
    """A chunk of the filed particles (first rows, births, birth places, ends,
    counts, proposals), each birth in its first row and every other row
    unwritten."""
    starts, births, places, ends, counts, proposed = filed
    times = np.empty(starts[-1])
    positions = np.empty((starts[-1], d))
    heads = starts[:-1]
    times[heads] = births
    positions[heads] = places
    return Chunk(times, positions, np.array(starts), np.array(ends, dtype=float),
                 np.array(counts, dtype=int), np.array(proposed, dtype=int))


def _stack(filed, paths, d: int) -> Chunk:
    """A chunk of filed particles whose segments' paths are already computed,
    each a (times, positions) pair, in row order."""
    chunk = _filed(filed, d)
    if paths:
        body = np.ones(len(chunk.times), dtype=bool)
        body[chunk.starts[:-1]] = False
        chunk.times[body] = np.concatenate([ts for ts, _ in paths])
        chunk.positions[body] = np.concatenate([xs for _, xs in paths])
    return chunk


# A chunk whose particles' first segments include at least MIN_BLOCK of at
# most SHORT samples sums those side by side, as the rows of one block: about
# 20 numpy calls for the block against 3 a segment.  On the batches of one
# benchmark pass, 64 and 8 took `_chunk` on `branching_ks` from 44 to 26 ms and
# left `bump_verify`'s chunks, which hold about one such segment, as they were;
# a MIN_BLOCK of 4 cost `bump_verify` 4% of `_chunk` (see CHANGES.md).
SHORT = 64
MIN_BLOCK = 8


def _chunk(filed, segments, coefficients, dt: float, sums: np.ndarray) -> Chunk:
    """A chunk of filed constant-coefficient particles whose segments hold
    only their random numbers, as `draw_particles` files them; `sums` is
    `_dt_sums` for dt, long enough for every segment.

    Each segment's samples are its start plus the sequential sum of its
    increments, as np.cumsum sums them: a block of the chunk's short first
    segments, if it holds MIN_BLOCK of them, and then one segment at a time,
    each after the one before it on its particle, whose last sample is its
    start."""
    b, s, noisy = coefficients
    short, rest, residuals, parts = segments
    chunk = _filed(filed, len(b))
    times, positions = chunk.times, chunk.positions
    if parts:
        steps = np.full(len(times) - len(chunk.end_time), dt)
        steps[list(residuals)] = list(residuals.values())
        incr = _increments(b, s, noisy, steps, np.concatenate(parts) if noisy else None)
        if len(short) >= MIN_BLOCK:
            _sum_block(short, times, positions, incr, sums)
        else:
            rest = short + rest
        for t, n_full, residual, row, n, lo in rest:
            _segment_times(t, n_full, residual, sums, times[row:row + n])
            # x + cumsum(incr), one sequential sum per segment (np.cumsum's own
            # ufunc call), x the row before it
            block = positions[row:row + n]
            np.add.accumulate(incr[lo:lo + n], axis=0, out=block)
            np.add(positions[row - 1], block, out=block)
    return chunk


def _sum_block(segments, times, positions, incr, sums) -> None:
    """Write the samples of particles' first segments, each a row of one block
    padded to the longest, with the doubles the per-segment loop of `_chunk`
    writes."""
    t, n_full, residual, row, n, lo = map(np.array, zip(*segments))
    cols = np.arange(n.max())
    own = cols < n[:, None]  # a row's own cells; the padding is never read
    rows = (row[:, None] + cols)[own]
    # t + cumsum(steps): the dt sums, then each residual
    block_times = t[:, None] + sums[1:len(cols) + 1]
    last = residual > 0.0
    block_times[last, n_full[last]] = t[last] + (sums[n_full[last]] + residual[last])
    times[rows] = block_times[own]
    # x + cumsum(incr), each row summed in sequence along axis 1 as np.cumsum
    # sums a segment, x the particle's birth
    block = incr.take(lo[:, None] + cols, axis=0, mode="clip")
    np.add.accumulate(block, axis=1, out=block)
    block += positions[row - 1][:, None, :]
    positions[rows] = block[own]


def within_steps(span: float, dt: float) -> bool:
    """Whether a draw over `span` at step dt has 0 < dt < span and at most
    MAX_STEPS steps; a NaN is not within."""
    return 0 < dt < span and span / dt <= MAX_STEPS


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
    if not within_steps(horizon - t0, dt):  # not left to numpy
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
               draw, spec_hash, max_particles)
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
