"""Stopping rules and their evaluation into lines.

A rule decides, independently along each particle's path, whether and when
to stop it.  Evaluating a rule walks the genealogy top-down: a stopped
particle removes its whole subtree from play, a particle that outlives the
rule passes eligibility to its children, and anything still unresolved at
the forced-resolution horizon t_cut is either abandoned (contributing
nothing) or force-stopped there.  The resulting stop set is an ancestry
antichain by construction.

There is one walk, `walk_lines`, a block walk over many lines (a root
with its stream seed, horizon and clock base) at once, at one step size.
Each round takes one generation of every line: it tests the rule on all
their birth states at once, draws the particles not stopped there in
chunks, and tests each chunk's samples at once.  Each line's stops come back in the
order of a depth-first walk of its forest, roots ascending and children
by descending index.  `evaluate_line` walks a forest's roots, reading each
particle from the forest, and `simulate_forests` draws forests by the walk.

Each kind's firing condition is written once, in `_hits`, as expressions
that read drawn samples and birth states alike; a birth state is sample 0
of the path the particle would draw.  `first_fire` takes each particle's
first firing from it and is the one place where `min_of` picks the
earlier of its two parts.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .labels import Label, generation
from .model import CatalogEntry, finite_or_inf, finites, text
from .pde import ValueGrid
from .simulator import CHUNK_SAMPLES, Chunk, GenealogyRecord, ParticleRecord, SimulationError

ABANDON = "abandon"
FORCE_STOP = "force_stop"


class StoppingError(ValueError):
    pass


def _rule_params(*fields: str, optional: Tuple[str, ...] = ()) -> tuple:
    """A rule kind's fields: every kind takes t_cut and an optional cut_policy."""
    return ("t_cut", "cut_policy") + fields, ("cut_policy",) + optional


@dataclass(frozen=True)
class StoppingRule(CatalogEntry):
    """A per-particle stopping policy from a closed catalog; `min_of` is the
    composite taking the earlier firing of two rules, and `contact_set`
    reads a solved value grid, which its JSON form does not hold."""

    PARAMS = {
        "trivial_root": _rule_params(),
        "fixed_time": _rule_params("t"),
        "first_branch": _rule_params(),
        "exit_ball": _rule_params("center", "radius", "cap_t", optional=("cap_t",)),
        "contact_set": _rule_params("epsilon"),
        "never": _rule_params(),
        "min_of": _rule_params("parts"),
    }
    READ = {"cut_policy": text, "center": finites, "cap_t": finite_or_inf, "parts": list}
    CATALOG = "rule"
    ERROR = StoppingError

    kind: str
    t_cut: float
    cut_policy: str = ABANDON
    t: float = 0.0
    center: Tuple[float, ...] = (0.0,)
    radius: float = 1.0
    cap_t: float = math.inf
    grid: Optional[ValueGrid] = None
    epsilon: float = 0.0
    parts: Tuple["StoppingRule", ...] = ()

    def __post_init__(self):
        super().__post_init__()
        if self.cut_policy not in (ABANDON, FORCE_STOP):
            raise StoppingError(f"unknown cut policy {self.cut_policy!r}")
        # each test is written as "not within", so that a NaN fails it too
        if not 0 < self.t_cut < math.inf:
            raise StoppingError("t_cut must be positive and finite")
        if self.kind == "fixed_time" and not 0 <= self.t < self.t_cut:
            # a particle born after t is never stopped, and every one is born at 0 or later
            raise StoppingError("fixed_time rule can never fire: t must lie in [0, t_cut)")
        if self.kind == "contact_set" and not self.epsilon > 0:
            raise StoppingError("contact rule needs epsilon > 0")
        if self.kind == "contact_set" and self.grid is None:
            raise StoppingError("contact_set rule needs a solved grid")
        if self.kind == "exit_ball" and not (0 < self.radius < math.inf and self.cap_t > 0):
            raise StoppingError("exit_ball rule needs a finite radius > 0 and cap_t > 0")

    @classmethod
    def from_json(cls, obj: dict, dimension: int,
                  grid: Optional[Callable[[], ValueGrid]] = None) -> "StoppingRule":
        return rule_from_json(obj, dimension, grid)


def trivial_root_rule(t_cut: float, cut_policy: str = ABANDON) -> StoppingRule:
    return StoppingRule("trivial_root", t_cut=t_cut, cut_policy=cut_policy)


def fixed_time_rule(t: float, t_cut: float, cut_policy: str = ABANDON) -> StoppingRule:
    return StoppingRule("fixed_time", t=t, t_cut=t_cut, cut_policy=cut_policy)


def first_branch_rule(t_cut: float, cut_policy: str = ABANDON) -> StoppingRule:
    return StoppingRule("first_branch", t_cut=t_cut, cut_policy=cut_policy)


def exit_ball_rule(center: Sequence[float], radius: float, cap_t: float,
                   t_cut: float, cut_policy: str = ABANDON) -> StoppingRule:
    return StoppingRule("exit_ball", center=tuple(float(c) for c in center),
                        radius=radius, cap_t=cap_t, t_cut=t_cut, cut_policy=cut_policy)


def never_rule(t_cut: float, cut_policy: str = ABANDON) -> StoppingRule:
    return StoppingRule("never", t_cut=t_cut, cut_policy=cut_policy)


def contact_set_rule(grid: ValueGrid, epsilon: float, t_cut: float,
                     cut_policy: str = ABANDON) -> StoppingRule:
    """Stop a particle the first time its value clearance drops to epsilon.

    Fires at the first stored sample with v_n(x) <= g_n(x) + epsilon, where
    n is the particle's generation; positions outside the grid domain count
    as immediate contact (the solver pins v = g there).
    """
    return StoppingRule("contact_set", grid=grid, epsilon=epsilon,
                        t_cut=t_cut, cut_policy=cut_policy)


def min_of_rules(a: StoppingRule, b: StoppingRule) -> StoppingRule:
    if a.t_cut != b.t_cut or a.cut_policy != b.cut_policy:
        raise StoppingError("combined rules must share t_cut and cut_policy")
    return StoppingRule("min_of", t_cut=a.t_cut, cut_policy=a.cut_policy, parts=(a, b))


@dataclass(slots=True)
class Stop:
    label: Label
    time: float
    position: np.ndarray
    generation: int
    forced: bool = False
    part: int = 0  # the min_of part that fired; 0 for other kinds and forced stops


@dataclass(slots=True)
class LineOutcome:
    stops: List[Stop]
    passed_alive: List[Label]
    record: Optional[GenealogyRecord] = None  # the forest walked, if any

    def stop_labels(self) -> List[Label]:
        return [s.label for s in self.stops]


@dataclass(frozen=True, slots=True)
class Line:
    """One root of a block walk, with what its particles are drawn from: the
    stream seed and horizon of its forest.  The rule reads the line's clock,
    which is the forest's time less `base`."""

    label: Label
    birth: float
    position: np.ndarray
    seed: int
    horizon: float
    base: float = 0.0


def _hits(rule: StoppingRule, depth: int, level: int, births: np.ndarray, times: np.ndarray,
          positions: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Where a rule other than never and min_of fires, sample by sample.

    Particle i's samples are rows starts[i]:starts[i + 1] of `times` and
    `positions`, and births[i] is its birth time; every particle is `depth`
    below its line's root and of generation `level`.  A birth state is
    sample 0 of the path its particle would draw, so the birth test passes
    the birth times as `times`, one sample a particle.
    """
    def per_sample(values):
        return values if len(values) == len(times) else np.repeat(values, np.diff(starts))

    if rule.kind in ("trivial_root", "first_branch"):
        # the root owns a trivial_root stop, and its children a first_branch stop
        return (times == per_sample(births)) & (depth == (0 if rule.kind == "trivial_root" else 1))
    if rule.kind == "fixed_time":
        # from t on, and never for a particle born after t
        return times >= per_sample(np.where(rule.t >= births - 1e-12, rule.t - 1e-12, math.inf))
    if rule.kind == "exit_ball":
        dist2 = np.sum((positions - np.asarray(rule.center)) ** 2, axis=-1)
        return (dist2 >= rule.radius**2) | (times >= rule.cap_t - 1e-12)
    if rule.kind == "contact_set":
        grid, xs = rule.grid, positions[:, 0]
        # the exact clearance test runs only where the grid's table says it can fire
        hits = grid.contact_candidates(level, rule.epsilon, xs)
        if hits.any():
            x = xs[hits]
            clearance = grid.values_at(level, x) - grid.obstacles_at(level, x)
            hits[hits] = np.where(grid.contains(x), clearance, 0.0) <= rule.epsilon
        return hits
    raise StoppingError(f"unhandled rule kind {rule.kind!r}")


def first_fire(rule: StoppingRule, depth: int, level: int, births: np.ndarray,
               times: np.ndarray, positions: np.ndarray,
               starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each particle's first firing of the rule: the sample index, -1 for
    none, and the index of the min_of part that fired first, ties going to
    part 0 (0 for every other kind); `_hits` says what the arguments are.

    Times never decrease along a particle, so its first firing strictly
    before some end is this one if it comes before the end, and there is
    none otherwise; that holds for the earlier of two parts too.
    """
    n = len(starts) - 1
    if rule.kind == "never":
        return np.full(n, -1), np.zeros(n, dtype=int)
    if rule.kind == "min_of":
        first = part = None
        for k, sub in enumerate(rule.parts):
            fire, _ = first_fire(sub, depth, level, births, times, positions, starts)
            if first is None:
                first, part = fire, np.zeros(n, dtype=int)
            else:
                earlier = (fire >= 0) & ((first < 0) | (fire < first))
                first, part = np.where(earlier, fire, first), np.where(earlier, k, part)
        return first, part
    hits = _hits(rule, depth, level, births, times, positions, starts)
    if len(times) == n:  # one sample each, as in the birth test
        return np.where(hits, starts[:-1], -1), np.zeros(n, dtype=int)
    rows = np.flatnonzero(hits)
    first = np.concatenate((rows, [len(times)]))[np.searchsorted(rows, starts[:-1])]
    return np.where(first < starts[1:], first, -1), np.zeros(n, dtype=int)


def _leaves(rule: StoppingRule) -> List[StoppingRule]:
    """The rules other than min_of that a rule is made of."""
    if rule.kind == "min_of":
        return [leaf for part in rule.parts for leaf in _leaves(part)]
    return [rule]


def _check_center(rule: StoppingRule, dimension: int) -> None:
    """Refuse an exit_ball rule whose center is not of `dimension`: numpy
    would broadcast it against the positions."""
    if rule.kind == "exit_ball" and len(rule.center) != dimension:
        raise StoppingError(f"exit_ball center has {len(rule.center)} coordinate(s), "
                            f"the model has dimension {dimension}")


def walk_lines(rule: StoppingRule, lines: Sequence[Line], draw, spec_hash: str = "",
               max_particles: float = math.inf) -> List[LineOutcome]:
    """Apply a rule to the forests below many lines at once: one stop line each.

    The walk advances all lines together, one generation per round.  A round
    tests the rule once on the birth states of all its particles (a root's
    line start, or its mother's end state); a particle stopped there is never
    drawn.  `draw(items)` draws the others at its one step size, each item
    being (seed, label, birth time, position, horizon), in chunks
    (`simulator.Chunk`), and the rule is tested on each chunk's samples.  A
    drawn particle is stopped at its first firing, passes eligibility to its
    children if it dies before t_cut, and is otherwise force-stopped at t_cut
    or abandoned, as the cut policy says.  The stop set is thus an ancestry antichain.

    Each line's stops and abandoned particles come back in depth-first
    order, children by descending index, as a stack walk of one forest gives
    them.  More than `max_particles` drawn on one line is a SimulationError;
    a contact grid not solved for the model `spec_hash` names, and an
    exit_ball center whose length is not the lines' dimension, are each a
    StoppingError raised before anything is drawn.  Lines whose roots are
    of different generations walk apart.
    """
    leaves = _leaves(rule)
    if spec_hash and any(not leaf.grid.model_hash.startswith(spec_hash)
                         for leaf in leaves if leaf.kind == "contact_set"):
        raise StoppingError("value grid was solved for a different model")
    t_cut = rule.t_cut
    for line in lines:
        if t_cut > line.horizon - line.base + 1e-12:
            raise StoppingError(
                f"t_cut {t_cut} exceeds the simulated horizon {line.horizon - line.base}")
    levels = sorted({generation(line.label) for line in lines})
    if len(levels) != 1:
        # a round takes one generation of every line
        outcomes = {}
        for level in levels:
            ids = [i for i, line in enumerate(lines) if generation(line.label) == level]
            walks = walk_lines(rule, [lines[i] for i in ids], draw, spec_hash, max_particles)
            outcomes.update(zip(ids, walks))
        return [outcomes[i] for i in range(len(lines))]
    outcomes = [LineOutcome([], []) for _ in lines]
    drawn = [0] * len(lines)
    bases = np.array([line.base for line in lines])
    rebased = bases.any()  # else each line's clock is the forest's, times - 0 being times
    level = levels[0]
    # the round's particles: their line, label, birth time and birth place
    at = list(range(len(lines)))
    labels = [line.label for line in lines]
    born = [line.birth for line in lines]
    places = np.array([line.position for line in lines], dtype=float).reshape(len(lines), -1)
    for leaf in leaves:
        _check_center(leaf, places.shape[1])
    depth = 0
    while labels:
        n = len(labels)
        births = np.array(born) - bases[at] if rebased else np.array(born)
        fire, part = first_fire(rule, depth, level, births, births, places, np.arange(n + 1))
        todo = []
        for i, (row, k, birth) in enumerate(zip(fire.tolist(), part.tolist(), births.tolist())):
            if row >= 0 and birth < t_cut:
                outcomes[at[i]].stops.append(
                    Stop(labels[i], birth, places[i].copy(), level, part=k))
                continue
            todo.append(i)
            drawn[at[i]] += 1
            if drawn[at[i]] > max_particles:
                raise SimulationError(f"population exceeded max_particles={max_particles}")
        items = ((lines[at[i]].seed, labels[i], born[i], places[i], lines[at[i]].horizon)
                 for i in todo)
        next_at, next_labels, next_born, next_places = [], [], [], []
        done = 0
        for chunk in draw(items):
            starts = chunk.starts
            ids = todo[done:done + len(starts) - 1]
            done += len(ids)
            ends = chunk.end_time
            times = chunk.times
            if rebased:
                # the line's clock, elementwise as a subtree's times - base
                shift = bases[[at[i] for i in ids]]
                times = times - np.repeat(shift, np.diff(starts))
                ends = ends - shift
            fire, part = first_fire(rule, depth, level, births[ids], times, chunk.positions,
                                    starts)
            rows = []
            for i, row, k, lo, hi, end, count, died in zip(
                    ids, fire.tolist(), part.tolist(), starts[:-1].tolist(), starts[1:].tolist(),
                    ends.tolist(), chunk.count.tolist(), chunk.end_time.tolist()):
                out, label = outcomes[at[i]], labels[i]
                if row >= 0 and times[row] < min(end, t_cut):
                    out.stops.append(Stop(label, float(times[row]), chunk.positions[row].copy(),
                                          level, part=k))
                elif end <= t_cut + 1e-15:
                    # resolved by its own death before the cut; children inherit
                    next_at += [at[i]] * count
                    next_labels += [label + (c,) for c in range(count)]
                    next_born += [died] * count
                    rows += [hi - 1] * count
                elif rule.cut_policy == FORCE_STOP:
                    row = lo + min(int(np.searchsorted(times[lo:hi], t_cut - 1e-15)), hi - lo - 1)
                    out.stops.append(Stop(label, t_cut, chunk.positions[row].copy(), level,
                                          forced=True))
                else:
                    out.passed_alive.append(label)
            # a copy: a view of the mothers' rows would keep the whole chunk alive
            next_places.append(chunk.positions[rows])
        at, labels, born = next_at, next_labels, next_born
        places = np.concatenate(next_places) if next_labels else places[:0]
        depth += 1
        level += 1
    for line, out in zip(lines, outcomes):
        # depth first below the root, children by descending index
        root = len(line.label)
        out.stops.sort(key=lambda s: [-c for c in s.label[root:]])
        out.passed_alive.sort(key=lambda label: [-c for c in label[root:]])
    return outcomes


def evaluate_line(record: GenealogyRecord, rule: StoppingRule) -> LineOutcome:
    """Apply a rule to a forest and return the resulting stop line.

    This is `walk_lines` with the forest's roots as lines, ascending, and a
    draw that reads each particle from `record.particles`.
    """
    lines = sorted((Line(label, record.t0, x, record.seed, record.horizon)
                    for label, x in record.initial), key=lambda line: line.label)
    outcomes = walk_lines(rule, lines, _reader(record), record.spec_hash)
    return LineOutcome(stops=[s for out in outcomes for s in out.stops],
                       passed_alive=[lab for out in outcomes for lab in out.passed_alive],
                       record=record)


def _reader(record: GenealogyRecord):
    """A draw for `walk_lines` that reads each particle from a forest."""
    def chunk(batch: List[ParticleRecord]) -> Chunk:
        return Chunk.stack([(p.times, p.positions) for p in batch],
                           [p.end_time for p in batch],
                           [p.offspring_count if p.end_kind == "branched" else -1 for p in batch],
                           [0] * len(batch))

    def draw(items):
        batch, n_samples = [], 0
        for item in items:
            batch.append(record.particles[item[1]])
            n_samples += len(batch[-1].times)
            if n_samples >= CHUNK_SAMPLES:
                yield chunk(batch)
                batch, n_samples = [], 0
        if batch:
            yield chunk(batch)
    return draw


def rule_from_json(obj: dict, dimension: int,
                   grid: Optional[Callable[[], ValueGrid]] = None) -> StoppingRule:
    """Build a rule for a model of `dimension` from its JSON form; a malformed
    field, and an exit_ball center of another dimension, are a StoppingError.

    `grid()` gives the solved grid that a contact_set part reads.  It is
    called once, when the first such part is read, so a part read before it
    is checked before any solve, and never for a rule without one.  The two
    parts of a min_of rule must share t_cut and cut_policy, and the min_of
    rule's own t_cut, and its cut_policy if given, must be theirs.
    """
    grid = functools.cache(grid or (lambda: None))  # the parts share its one call
    kind, values = StoppingRule.json_fields(obj)
    if kind == "min_of":
        parts = [rule_from_json(p, dimension, grid) for p in values["parts"]]
        if len(parts) != 2:
            raise StoppingError("min_of takes exactly two parts")
        rule = min_of_rules(parts[0], parts[1])
        if (values["t_cut"], values.get("cut_policy", rule.cut_policy)) != \
                (rule.t_cut, rule.cut_policy):
            raise StoppingError("a min_of rule's t_cut and cut_policy must be its parts'")
        return rule
    if kind == "contact_set":
        values["grid"] = grid()
    rule = StoppingRule(kind, **values)
    _check_center(rule, dimension)
    return rule
