"""Stopping rules and their evaluation into lines.

A rule decides, independently along each particle's path, whether and when
to stop it.  Evaluating a rule on a simulated forest walks the genealogy
top-down: a stopped particle removes its whole subtree from play, a
particle that outlives the rule passes eligibility to its children, and
anything still unresolved at the forced-resolution horizon t_cut is either
abandoned (contributing nothing) or force-stopped there.  The resulting
stop set is an ancestry antichain by construction.

Each kind's firing condition is written once, in `_hits`, as expressions
that read a drawn path's arrays and a particle's birth state alike; the
birth state is sample 0 of the path the particle would draw.  `first_fire`
takes the first firing from it and is the one place where `min_of` picks
the earlier of its two parts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .labels import Label, generation
from .model import CatalogEntry
from .pde import ValueGrid
from .simulator import GenealogyRecord, ParticleRecord

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
    READ = {"cut_policy": str, "center": lambda c: tuple(float(x) for x in c), "parts": list}
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
        if self.t_cut <= 0:
            raise StoppingError("t_cut must be positive")
        if self.kind == "fixed_time" and self.t >= self.t_cut:
            raise StoppingError("fixed_time rule can never fire: t must be below t_cut")
        if self.kind == "contact_set" and self.epsilon <= 0:
            raise StoppingError("contact rule needs epsilon > 0")

    @classmethod
    def from_json(cls, obj: dict, grid: Optional[ValueGrid] = None) -> "StoppingRule":
        return rule_from_json(obj, grid)


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


@dataclass
class Stop:
    label: Label
    time: float
    position: np.ndarray
    generation: int
    forced: bool = False
    part: int = 0  # the min_of part that fired; 0 for other kinds and forced stops


@dataclass
class LineOutcome:
    stops: List[Stop]
    passed_alive: List[Label]
    record: GenealogyRecord

    def stop_labels(self) -> List[Label]:
        return [s.label for s in self.stops]


def _hits(rule: StoppingRule, label: Label, parent: Optional[Label], birth: float, times,
          positions: np.ndarray, record: GenealogyRecord, roots: set):
    """Where a rule other than never and min_of fires: per sample of a drawn
    path (`times` and `positions` its arrays), or at the birth state (`times`
    the birth time, `positions` the birth place)."""
    if rule.kind in ("trivial_root", "first_branch"):
        owner = label if rule.kind == "trivial_root" else parent
        return (times == birth) & (owner in roots)
    if rule.kind == "fixed_time":
        # from t on, and never for a particle born after t
        return times >= (rule.t - 1e-12 if rule.t >= birth - 1e-12 else math.inf)
    if rule.kind == "exit_ball":
        dist2 = np.sum((positions - np.asarray(rule.center)) ** 2, axis=-1)
        return (dist2 >= rule.radius**2) | (times >= rule.cap_t - 1e-12)
    if rule.kind == "contact_set":
        grid = rule.grid
        if grid is None:
            raise StoppingError("contact rule has no value grid attached")
        if record.spec_hash and not grid.model_hash.startswith(record.spec_hash):
            raise StoppingError("value grid was solved for a different model")
        n = generation(label)
        xs = np.atleast_1d(positions[..., 0])
        # the exact clearance test runs only where the grid's table says it can fire
        hits = grid.contact_candidates(n, rule.epsilon, xs)
        if hits.any():
            x = xs[hits]
            clearance = grid.values_at(n, x) - grid.obstacles_at(n, x)
            hits[hits] = np.where(grid.contains(x), clearance, 0.0) <= rule.epsilon
        return hits
    raise StoppingError(f"unhandled rule kind {rule.kind!r}")


def first_fire(rule: StoppingRule, label: Label, parent: Optional[Label], birth: float, times,
               positions: np.ndarray, end: float, record: GenealogyRecord,
               roots: set) -> Optional[Tuple[int, int]]:
    """First firing (sample index, part) of the rule strictly before `end`, or None.

    `times` and `positions` are a drawn path's arrays, or the birth state as
    the birth time (a float) and place, which is sample 0 of the path the
    particle would draw.  `part` is the index of the min_of part that fired
    first, ties going to part 0; it is 0 for every other kind.
    """
    if rule.kind == "never":
        return None
    if rule.kind == "min_of":
        first = None
        for k, part in enumerate(rule.parts):
            fire = first_fire(part, label, parent, birth, times, positions, end, record, roots)
            if fire is not None and (first is None or fire[0] < first[0]):
                first = (fire[0], k)
        return first
    hits = _hits(rule, label, parent, birth, times, positions, record, roots)
    if isinstance(times, float):
        return (0, 0) if hits and times < end else None
    # times never decrease: a first hit that is not before `end` has no live successor
    idx = int(hits.argmax())
    return (idx, 0) if hits[idx] and times[idx] < end else None


def _position_at_cut(p: ParticleRecord, t_cut: float) -> np.ndarray:
    idx = int(np.searchsorted(p.times, t_cut - 1e-15))
    idx = min(idx, len(p.times) - 1)
    return p.positions[idx]


def evaluate_line(record: GenealogyRecord, rule: StoppingRule) -> LineOutcome:
    """Apply a rule to a forest and return the resulting stop line.

    Particles are resolved in lineage order; every particle is either
    stopped (subtree pruned), passed through to its children at a branch,
    or handled by the cut policy at t_cut.  The stop set cannot contain
    two particles of the same lineage.  On an open forest (`open_forest`)
    each particle is simulated when this walk first reads it, so nothing
    below a stop is drawn.  Before it reads any particle, the walk runs
    `first_fire` on the particle's birth state, which it already holds (a
    root's start and the record's t0, or the mother's end state), and then
    on the drawn path only if the rule did not fire there.  A particle
    stopped at birth is never read, so an open forest does not draw it and
    it does not count toward the forest's max_particles.
    """
    if rule.t_cut > record.horizon + 1e-12:
        raise StoppingError(
            f"t_cut {rule.t_cut} exceeds the simulated horizon {record.horizon}"
        )
    starts = dict(record.initial)
    roots = set(starts)
    stops: List[Stop] = []
    passed_alive: List[Label] = []
    stack: List[Label] = sorted(roots, reverse=True)
    while stack:
        lab = stack.pop()
        if lab in starts:
            parent, birth, x = None, record.t0, starts[lab]
        else:
            parent = lab[:-1]
            mother = record.particles[parent]
            birth, x = mother.end_time, mother.positions[-1]
        fire = first_fire(rule, lab, parent, birth, birth, x, rule.t_cut, record, roots)
        if fire is not None:
            stops.append(Stop(lab, birth, x.copy(), generation(lab), part=fire[1]))
            continue
        p = record.particles[lab]
        fire = first_fire(rule, lab, parent, birth, p.times, p.positions,
                          min(p.end_time, rule.t_cut), record, roots)
        if fire is not None:
            idx, part = fire
            stops.append(Stop(lab, float(p.times[idx]), p.positions[idx].copy(),
                              generation(lab), part=part))
            continue
        if p.end_time <= rule.t_cut + 1e-15:
            # resolved by its own death before the cut; children inherit
            if p.end_kind == "branched" and p.offspring_count:
                for k in range(p.offspring_count):
                    stack.append(lab + (k,))
            continue
        if rule.cut_policy == FORCE_STOP:
            stops.append(Stop(lab, rule.t_cut, _position_at_cut(p, rule.t_cut).copy(),
                              generation(lab), forced=True))
        else:
            passed_alive.append(lab)
    return LineOutcome(stops=stops, passed_alive=passed_alive, record=record)


def rule_from_json(obj: dict, grid: Optional[ValueGrid] = None) -> StoppingRule:
    """Build a rule from its JSON form; a malformed field is a StoppingError.

    A contact_set rule, also as a part of a min_of rule, reads `grid`; the
    two parts of a min_of rule must share t_cut and cut_policy, and the
    min_of rule's own t_cut, and its cut_policy if given, must be theirs.
    """
    try:
        kind, values = StoppingRule.json_fields(obj)
        if kind == "min_of":
            parts = [rule_from_json(p, grid) for p in values["parts"]]
            if len(parts) != 2:
                raise StoppingError("min_of takes exactly two parts")
            rule = min_of_rules(parts[0], parts[1])
            if (values["t_cut"], values.get("cut_policy", rule.cut_policy)) != \
                    (rule.t_cut, rule.cut_policy):
                raise StoppingError("a min_of rule's t_cut and cut_policy must be its parts'")
            return rule
        if kind == "contact_set":
            if grid is None:
                raise StoppingError("contact_set rule needs a solved grid")
            values["grid"] = grid
        return StoppingRule(kind, **values)
    except StoppingError:
        raise
    except (TypeError, ValueError) as exc:
        raise StoppingError(f"rule: {exc}") from exc
