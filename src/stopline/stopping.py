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
chunks, each only up to two steps past its rule's firing deadline, and
tests each chunk's samples at once.  Each line's stops come back in the
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
from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .labels import Label, generation
from .model import CatalogEntry, finite_or_inf, finites
from .pde import MAY_FIRE, SURELY_FIRES, ValueGrid
from .simulator import Chunk, GenealogyRecord, SimulationError, child_state, stream_state

ABANDON = "abandon"
FORCE_STOP = "force_stop"


class StoppingError(ValueError):
    pass


@dataclass(frozen=True)
class StoppingRule(CatalogEntry):
    """A per-particle stopping policy from a closed catalog; `min_of` is the
    composite taking the earlier firing of two rules, and `contact_set`
    reads a solved value grid.  The JSON form holds only a kind's own
    fields: neither the grid nor the cut, `t_cut` and `cut_policy`, which
    the reader is given."""

    PARAMS = {
        "trivial_root": ((), ()),
        "fixed_time": (("t",), ()),
        "first_branch": ((), ()),
        "exit_ball": (("center", "radius", "cap_t"), ("cap_t",)),
        "contact_set": (("epsilon",), ()),
        "never": ((), ()),
        "min_of": (("parts",), ()),
    }
    READ = {"center": finites, "cap_t": finite_or_inf, "parts": list}
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
    def from_json(cls, obj: dict, dimension: int, t_cut: float, cut_policy: str,
                  grid: Optional[Callable[[], ValueGrid]] = None) -> "StoppingRule":
        return rule_from_json(obj, dimension, t_cut, cut_policy, grid)


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
    # the summed time in play of the particles above or on the line: each from
    # its birth to its stop, its branch or death, or the cut, on the line's clock
    time_in_play: float = 0.0

    def stop_labels(self) -> List[Label]:
        return [s.label for s in self.stops]


class Line(NamedTuple):
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
        return np.repeat(values, np.diff(starts))

    if rule.kind in ("trivial_root", "first_branch"):
        # the root owns a trivial_root stop, and its children a first_branch stop
        if depth != (0 if rule.kind == "trivial_root" else 1):
            return np.zeros(len(times), dtype=bool)
        return times == per_sample(births)
    if rule.kind == "fixed_time":
        # from t on, and never for a particle born after t
        return times >= per_sample(np.where(rule.t >= births - 1e-12, rule.t - 1e-12, math.inf))
    if rule.kind == "exit_ball":
        dist2 = np.sum((positions - np.asarray(rule.center)) ** 2, axis=-1)
        return (dist2 >= rule.radius**2) | (times >= rule.cap_t - 1e-12)
    if rule.kind == "contact_set":
        grid, xs = rule.grid, positions[:, 0]
        # the exact clearance test runs only where the grid's table says the
        # rule may fire, and not where it says it cannot or surely fires
        entries = grid.contact_entries(level, rule.epsilon, xs)
        hits = entries == SURELY_FIRES
        may = np.flatnonzero(entries == MAY_FIRE)
        if len(may):
            x = xs[may]
            clearance = grid.values_at(level, x) - grid.obstacles_at(level, x)
            hits[may] = np.where(grid.contains(x), clearance, 0.0) <= rule.epsilon
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
    rows = np.flatnonzero(hits)
    first = np.concatenate((rows, [len(times)]))[np.searchsorted(rows, starts[:-1])]
    return np.where(first < starts[1:], first, -1), np.zeros(n, dtype=int)


def firing_deadline(rule: StoppingRule, births: np.ndarray) -> np.ndarray:
    """Each particle's firing deadline: a time on its line's clock by which
    the rule has fired on it if it is still alive, given its birth time; inf
    where there is none.

    fixed_time fires by t and exit_ball by cap_t, each on a particle born by
    then (1e-12 past, as `_hits` reads t); a particle born later keeps inf.
    min_of takes the earlier of its parts' deadlines, and the other kinds
    have none.
    """
    if rule.kind == "min_of":
        return np.minimum.reduce([firing_deadline(part, births) for part in rule.parts])
    last = {"fixed_time": rule.t, "exit_ball": rule.cap_t}.get(rule.kind, math.inf)
    return np.where(births <= last + 1e-12, last, math.inf)


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


def walk_lines(rule: StoppingRule, lines: Sequence[Line], draw, spec_hash: str,
               max_particles: float = math.inf) -> List[LineOutcome]:
    """Apply a rule to the forests below many lines at once: one stop line each.

    The walk advances all lines together, one generation per round.  A round
    tests the rule once on the birth states of all its particles (a root's
    line start, or its mother's end state); a particle stopped there is never
    drawn.  The round keeps its particles as columns: line, label, birth
    time, birth place and the mother's stream state.  It hands `draw(items)`
    the others as one `zip` over those columns, each item being (seed,
    label, birth time, position, horizon, deadline, stream), where a root's
    stream state hashes its text whole (`simulator.stream_state`) and a
    child's continues a copy of its mother's (`simulator.child_state`).  The
    draw draws them at its one step size, in chunks (`simulator.Chunk`), and
    the rule is tested on each chunk's samples.  The deadline is the
    particle's `firing_deadline` on its forest's clock, and the draw ends the
    particle two steps past it, where the rule has fired: the walk reads no
    sample beyond that, so each outcome is bit for bit the one of the whole
    path to the forest's horizon.  A drawn particle is stopped at its first
    firing, passes eligibility to its children if it dies before t_cut, and
    is otherwise force-stopped at t_cut or abandoned, as the cut policy says.
    The stop set is thus an ancestry antichain.  Each drawn particle's time
    in play, from its birth to its stop, its branch or death, or t_cut, is
    added to its line's `time_in_play` in walk order; one stopped at its
    birth adds nothing.

    Each line's stops and abandoned particles come back in depth-first
    order, children by descending index, as a stack walk of one forest gives
    them.  More than `max_particles` drawn on one line is a SimulationError;
    a contact grid not solved for the model `spec_hash` (required) names,
    and an exit_ball center whose length is not the lines' dimension, are
    each a StoppingError raised before anything is drawn.  Lines whose roots
    are of different generations walk apart.
    """
    leaves = _leaves(rule)
    if any(not leaf.grid.model_hash.startswith(spec_hash)
           for leaf in leaves if leaf.kind == "contact_set"):
        raise StoppingError("value grid was solved for a different model")
    t_cut, forced = rule.t_cut, rule.cut_policy == FORCE_STOP
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
    played = [0.0] * len(lines)
    drawn = [0] * len(lines)
    seeds = [line.seed for line in lines]
    horizons = [line.horizon for line in lines]
    bases = np.array([line.base for line in lines])
    rebased = bases.any()  # else each line's clock is the forest's, times - 0 being times
    level = levels[0]
    # the round's particles: their line, label, birth time, birth place and
    # mother's stream state (none for the roots)
    at = list(range(len(lines)))
    labels = [line.label for line in lines]
    born = [line.birth for line in lines]
    places = np.array([line.position for line in lines], dtype=float).reshape(len(lines), -1)
    mothers = None
    for leaf in leaves:
        _check_center(leaf, places.shape[1])
    depth = 0
    while labels:
        births = np.array(born) - bases[at] if rebased else np.array(born)
        fire, part = first_fire(rule, depth, level, births, births, places,
                                np.arange(len(labels) + 1))
        birth_times = births.tolist()
        stopped = [i for i in np.flatnonzero(fire >= 0).tolist() if birth_times[i] < t_cut]
        if stopped:
            for i in stopped:
                outcomes[at[i]].stops.append(Stop(labels[i], birth_times[i], places[i].copy(),
                                                  level, part=int(part[i])))
            kept = np.delete(np.arange(len(labels)), stopped).tolist()
            if not kept:
                break
            at, labels, born, birth_times = (
                [column[i] for i in kept] for column in (at, labels, born, birth_times))
            if mothers is not None:
                mothers = [mothers[i] for i in kept]
            births, places = births[kept], places[kept]
        for a in at:
            drawn[a] += 1
            if drawn[a] > max_particles:
                raise SimulationError(f"population exceeded max_particles={max_particles}")
        streams = ([stream_state(seeds[a], label) for a, label in zip(at, labels)]
                   if mothers is None else list(map(child_state, mothers, labels)))
        # on the forests' clocks, for the draw, which adds its two steps
        deadlines = (firing_deadline(rule, births) + bases[at]).tolist()
        chunks = draw(zip(map(seeds.__getitem__, at), labels, born, places,
                          map(horizons.__getitem__, at), deadlines, streams))
        next_at, next_labels, next_born, next_mothers, next_places = [], [], [], [], []
        done = 0
        for chunk in chunks:
            starts = chunk.starts
            lo, done = done, done + len(starts) - 1
            ends, times, positions = chunk.end_time, chunk.times, chunk.positions
            deaths = ends.tolist()  # on the forest's clock, which the children are born on
            if rebased:
                # the line's clock, elementwise as a subtree's times - base
                shift = bases[at[lo:done]]
                times = times - np.repeat(shift, np.diff(starts))
                ends = ends - shift
            fire, part = first_fire(rule, depth, level, births[lo:done], times, positions, starts)
            rows = []
            bounds = starts.tolist()
            for a, label, birth, stream, row, k, first, hi, end, count, death in zip(
                    at[lo:done], labels[lo:done], birth_times[lo:done], streams[lo:done],
                    fire.tolist(), part.tolist(), bounds, bounds[1:],
                    ends.tolist() if rebased else deaths, chunk.count.tolist(), deaths):
                if row >= 0:
                    fired = float(times[row])
                    if fired < end and fired < t_cut:
                        outcomes[a].stops.append(Stop(label, fired, positions[row].copy(), level,
                                                      part=k))
                        played[a] += fired - birth
                        continue
                if end <= t_cut + 1e-15:
                    # resolved by its own death before the cut; children inherit
                    played[a] += end - birth
                    if count:
                        next_at += [a] * count
                        next_labels += [label + (c,) for c in range(count)]
                        next_born += [death] * count
                        next_mothers += [stream] * count
                        rows += [hi - 1] * count
                    continue
                played[a] += t_cut - birth
                if forced:
                    row = first + min(int(np.searchsorted(times[first:hi], t_cut - 1e-15)),
                                      hi - first - 1)
                    outcomes[a].stops.append(Stop(label, t_cut, positions[row].copy(), level,
                                                  forced=True))
                else:
                    outcomes[a].passed_alive.append(label)
            # a copy: a view of the mothers' rows would keep the whole chunk alive
            next_places.append(positions[rows])
        at, labels, born, mothers = next_at, next_labels, next_born, next_mothers
        places = np.concatenate(next_places) if next_labels else places[:0]
        depth += 1
        level += 1
    for line, out, total in zip(lines, outcomes, played):
        out.time_in_play = total
        # depth first below the root, children by descending index
        root = len(line.label)
        if len(out.stops) > 1:
            out.stops.sort(key=lambda s: [-c for c in s.label[root:]])
        if len(out.passed_alive) > 1:
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
                       record=record, time_in_play=sum(out.time_in_play for out in outcomes))


def _reader(record: GenealogyRecord):
    """A draw for `walk_lines` that reads a round's particles from a forest,
    as one chunk: each particle is tested on its own rows, so the chunking
    does not change the walk."""
    def draw(items):
        ps = [record.particles[item[1]] for item in items]
        if ps:
            yield Chunk.stack([(p.times, p.positions) for p in ps], [p.end_time for p in ps],
                              [p.offspring_count if p.end_kind == "branched" else -1 for p in ps],
                              [0] * len(ps))
    return draw


_PENDING_GRID = object()  # what a contact_set part is checked with, before its grid is solved


def rule_from_json(obj: dict, dimension: int, t_cut: float, cut_policy: str,
                   grid: Optional[Callable[[], ValueGrid]] = None) -> StoppingRule:
    """Build a rule for a model of `dimension` from its JSON form, every part
    cut at `t_cut` under `cut_policy`; a malformed field, a `t_cut` or
    `cut_policy` field among them, and an exit_ball center of another
    dimension are a StoppingError.

    `grid()` gives the solved grid that a contact_set part reads.  It is
    called once, when the first such part's own fields have been checked, so
    that part and every part read before it are checked before any solve,
    and never for a rule without one.
    """
    grid = functools.cache(grid or (lambda: None))  # the parts share its one call
    kind, values = StoppingRule.json_fields(obj)
    if kind == "min_of":
        parts = [rule_from_json(p, dimension, t_cut, cut_policy, grid) for p in values["parts"]]
        if len(parts) != 2:
            raise StoppingError("min_of takes exactly two parts")
        return min_of_rules(*parts)
    values.update(t_cut=t_cut, cut_policy=cut_policy)
    if kind == "contact_set":
        return replace(StoppingRule(kind, grid=_PENDING_GRID, **values), grid=grid())
    rule = StoppingRule(kind, **values)
    _check_center(rule, dimension)
    return rule
