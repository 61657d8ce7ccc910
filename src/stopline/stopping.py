"""Stopping rules and their evaluation into lines.

A rule decides, independently along each particle's path, whether and when
to stop it.  Evaluating a rule on a simulated forest walks the genealogy
top-down: a stopped particle removes its whole subtree from play, a
particle that outlives the rule passes eligibility to its children, and
anything still unresolved at the forced-resolution horizon t_cut is either
abandoned (contributing nothing) or force-stopped there.  The resulting
stop set is an ancestry antichain by construction.
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


def rule_fire_time(rule: StoppingRule, p: ParticleRecord, record: GenealogyRecord,
                   roots: set) -> Optional[Tuple[float, int, int]]:
    """First firing (time, sample index, part) of the rule on this particle.

    Firing must happen strictly before both the particle's death and t_cut;
    returns None when the rule never fires in that window.  `part` is the
    index of the min_of part that fired first, ties going to part 0; it is
    0 for every other kind.
    """
    if rule.kind == "min_of":
        first = None
        for k, part in enumerate(rule.parts):
            fire = rule_fire_time(part, p, record, roots)
            if fire is not None and (first is None or fire[0] < first[0]):
                first = (fire[0], fire[1], k)
        return first
    idx = _fire_index(rule, p, record, roots)
    return None if idx is None else (float(p.times[idx]), idx, 0)


def _fire_index(rule: StoppingRule, p: ParticleRecord, record: GenealogyRecord,
                roots: set) -> Optional[int]:
    """First firing sample of a rule other than min_of, or None."""
    if rule.kind == "never":
        return None
    times = p.times
    end = min(p.end_time, rule.t_cut)  # a sample is live strictly before this
    if rule.kind in ("trivial_root", "first_branch"):
        return 0 if times[0] < end and _fires_at_birth(rule, p.label, p.parent, times[0],
                                                       p.positions[0], record, roots) else None
    if rule.kind == "fixed_time":
        if rule.t < p.birth_time - 1e-12:
            return None
        idx = int(np.searchsorted(times, rule.t - 1e-12))
        return idx if idx < len(times) and times[idx] < end else None
    hits = np.flatnonzero(_sample_hits(rule, p.label, times, p.positions, record)
                          & (times < end))
    return int(hits[0]) if len(hits) else None


def _sample_hits(rule: StoppingRule, label: Label, times, positions: np.ndarray,
                 record: GenealogyRecord) -> np.ndarray:
    """Per sample, whether an exit_ball or contact_set rule fires there;
    `times` is the sample times, or one birth time for a single sample."""
    if rule.kind == "exit_ball":
        center = np.asarray(rule.center)
        dist2 = np.sum((positions - center[None, :]) ** 2, axis=1)
        return (dist2 >= rule.radius**2) | (times >= rule.cap_t - 1e-12)
    if rule.kind == "contact_set":
        grid = rule.grid
        if grid is None:
            raise StoppingError("contact rule has no value grid attached")
        if record.spec_hash and not grid.model_hash.startswith(record.spec_hash):
            raise StoppingError("value grid was solved for a different model")
        n = generation(label)
        xs = positions[:, 0]
        clearance = grid.values_at(n, xs) - grid.obstacles_at(n, xs)
        clearance = np.where(grid.contains(xs), clearance, 0.0)
        return clearance <= rule.epsilon
    raise StoppingError(f"unhandled rule kind {rule.kind!r}")


def _fires_at_birth(rule: StoppingRule, label: Label, parent: Optional[Label], birth: float,
                    x: np.ndarray, record: GenealogyRecord, roots: set) -> bool:
    """Whether a rule other than min_of fires at a particle's first sample,
    taken at its birth time `birth` and place `x`, if that sample is live.

    This reads only the birth state, so the walk can test a particle before
    drawing it.  `fixed_time`'s test is `_fire_index`'s at index 0.
    """
    if rule.kind == "trivial_root":
        return label in roots
    if rule.kind == "first_branch":
        return parent is not None and parent in roots
    if rule.kind == "fixed_time":
        return not rule.t < birth - 1e-12 and birth >= rule.t - 1e-12
    if rule.kind == "never":
        return False
    return bool(_sample_hits(rule, label, birth, x[None, :], record)[0])


def _birth_stop(rule: StoppingRule, label: Label, parent: Optional[Label], birth: float,
                x: np.ndarray, record: GenealogyRecord, roots: set) -> Optional[int]:
    """The part of the rule that stops a particle at its birth, or None.

    Equal to the part `rule_fire_time` returns at sample index 0 of the drawn
    particle, min_of ties included (the first part that fires at birth wins),
    but for one null event: this test assumes the particle ends after its
    birth, while `rule_fire_time` counts the first sample live only if the
    particle's first exponential draw adds something to its birth time,
    which fails with a chance of about 1e-16 per particle.  `evaluate_line`
    takes this test's answer for every particle, drawn or not.
    """
    if not birth < rule.t_cut:
        return None
    if rule.kind == "min_of":
        for k, part in enumerate(rule.parts):
            if _birth_stop(part, label, parent, birth, x, record, roots) is not None:
                return k
        return None
    return 0 if _fires_at_birth(rule, label, parent, birth, x, record, roots) else None


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
    below a stop is drawn.  Before it reads any particle, the walk tests
    the rule at the particle's birth from what it already holds (a root's
    start and the record's t0, or the mother's end state), so the birth
    test decides every particle's first sample and open and full forests
    give the same line.  A particle stopped at birth is never read, so an
    open forest does not draw it and it does not count toward the
    forest's max_particles.
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
        part = _birth_stop(rule, lab, parent, birth, x, record, roots)
        if part is not None:
            stops.append(Stop(lab, birth, x.copy(), generation(lab), part=part))
            continue
        p = record.particles[lab]
        fire = rule_fire_time(rule, p, record, roots)
        if fire is not None:
            t_fire, idx, part = fire
            stops.append(Stop(lab, t_fire, p.positions[idx].copy(), generation(lab),
                              part=part))
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
    two parts of a min_of rule must share t_cut and cut_policy.
    """
    try:
        kind, values = StoppingRule.json_fields(obj)
        if kind == "min_of":
            parts = [rule_from_json(p, grid) for p in values["parts"]]
            if len(parts) != 2:
                raise StoppingError("min_of takes exactly two parts")
            return min_of_rules(parts[0], parts[1])
        if kind == "contact_set":
            if grid is None:
                raise StoppingError("contact_set rule needs a solved grid")
            values["grid"] = grid
        return StoppingRule(kind, **values)
    except StoppingError:
        raise
    except (TypeError, ValueError) as exc:
        raise StoppingError(f"rule: {exc}") from exc
