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

import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .labels import Label, format_label, generation, is_antichain
from .model import ModelSpec
from .pde import ValueGrid
from .simulator import GenealogyRecord, ParticleRecord

ABANDON = "abandon"
FORCE_STOP = "force_stop"


class StoppingError(ValueError):
    pass


@dataclass(frozen=True)
class StoppingRule:
    """A per-particle stopping policy from a closed catalog.

    kinds: trivial_root, fixed_time, first_branch, exit_ball, contact_set,
    never, min_of (composite taking the earlier firing of two rules).
    """

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
        if self.kind not in (
            "trivial_root", "fixed_time", "first_branch", "exit_ball",
            "contact_set", "never", "min_of",
        ):
            raise StoppingError(f"unknown rule kind {self.kind!r}")
        if self.cut_policy not in (ABANDON, FORCE_STOP):
            raise StoppingError(f"unknown cut policy {self.cut_policy!r}")
        if self.t_cut <= 0:
            raise StoppingError("t_cut must be positive")
        if self.kind == "fixed_time" and self.t >= self.t_cut:
            raise StoppingError("fixed_time rule can never fire: t must be below t_cut")
        if self.kind == "contact_set" and self.epsilon <= 0:
            raise StoppingError("contact rule needs epsilon > 0")

    def to_json(self) -> dict:
        out = {"kind": self.kind, "t_cut": self.t_cut, "cut_policy": self.cut_policy}
        if self.kind == "fixed_time":
            out["t"] = self.t
        elif self.kind == "exit_ball":
            out.update(center=list(self.center), radius=self.radius, cap_t=self.cap_t)
        elif self.kind == "contact_set":
            out["epsilon"] = self.epsilon
        elif self.kind == "min_of":
            out["parts"] = [p.to_json() for p in self.parts]
        return out


def default_t_cut(spec: ModelSpec) -> float:
    """log(K_g)/gamma: after this time every stop factor is below one.

    Degenerates to zero when K_g == 1, in which case callers must pick an
    explicit horizon for simulation-based estimates.
    """
    return math.log(spec.k_g) / spec.gamma


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


@dataclass
class LineOutcome:
    stops: List[Stop]
    passed_alive: List[Label]
    record: GenealogyRecord

    def stop_labels(self) -> List[Label]:
        return [s.label for s in self.stops]


def rule_fire_time(rule: StoppingRule, p: ParticleRecord, record: GenealogyRecord,
                   roots: set) -> Optional[Tuple[float, int]]:
    """First firing (time, sample index) of the rule on this particle.

    Firing must happen strictly before both the particle's death and t_cut;
    returns None when the rule never fires in that window.
    """
    times = p.times
    live = times < min(p.end_time, rule.t_cut)
    if rule.kind == "never":
        return None
    if rule.kind == "trivial_root":
        if p.label in roots and live[0]:
            return float(times[0]), 0
        return None
    if rule.kind == "first_branch":
        if p.parent is not None and p.parent in roots and live[0]:
            return float(times[0]), 0
        return None
    if rule.kind == "fixed_time":
        if rule.t < p.birth_time - 1e-12:
            return None
        idx = int(np.searchsorted(times, rule.t - 1e-12))
        if idx < len(times) and live[idx]:
            return float(times[idx]), idx
        return None
    if rule.kind == "exit_ball":
        center = np.asarray(rule.center)
        dist2 = np.sum((p.positions - center[None, :]) ** 2, axis=1)
        outside = dist2 >= rule.radius**2
        capped = times >= rule.cap_t - 1e-12
        hits = np.flatnonzero((outside | capped) & live)
        if len(hits):
            idx = int(hits[0])
            return float(times[idx]), idx
        return None
    if rule.kind == "contact_set":
        grid = rule.grid
        if grid is None:
            raise StoppingError("contact rule has no value grid attached")
        if record.spec_hash and not grid.model_hash.startswith(record.spec_hash):
            raise StoppingError("value grid was solved for a different model")
        n = generation(p.label)
        xs = p.positions[:, 0]
        clearance = grid.values_at(n, xs) - grid.obstacles_at(n, xs)
        clearance = np.where(grid.contains(xs), clearance, 0.0)
        hits = np.flatnonzero((clearance <= rule.epsilon) & live)
        if len(hits):
            idx = int(hits[0])
            return float(times[idx]), idx
        return None
    if rule.kind == "min_of":
        fires = [f for f in (rule_fire_time(part, p, record, roots) for part in rule.parts)
                 if f is not None]
        if not fires:
            return None
        return min(fires, key=lambda f: f[0])
    raise StoppingError(f"unhandled rule kind {rule.kind!r}")


def _position_at_cut(p: ParticleRecord, t_cut: float) -> np.ndarray:
    idx = int(np.searchsorted(p.times, t_cut - 1e-15))
    idx = min(idx, len(p.times) - 1)
    return p.positions[idx]


def evaluate_line(record: GenealogyRecord, rule: StoppingRule) -> LineOutcome:
    """Apply a rule to a forest and return the resulting stop line.

    Particles are resolved in lineage order; every particle is either
    stopped (subtree pruned), passed through to its children at a branch,
    or handled by the cut policy at t_cut.  The stop set cannot contain
    two particles of the same lineage.
    """
    if rule.t_cut > record.horizon + 1e-12:
        raise StoppingError(
            f"t_cut {rule.t_cut} exceeds the simulated horizon {record.horizon}"
        )
    roots = set(record.roots())
    stops: List[Stop] = []
    passed_alive: List[Label] = []
    stack: List[Label] = sorted(roots, reverse=True)
    while stack:
        lab = stack.pop()
        p = record.particles[lab]
        fire = rule_fire_time(rule, p, record, roots)
        if fire is not None:
            t_fire, idx = fire
            stops.append(Stop(lab, t_fire, p.positions[idx].copy(), generation(lab)))
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


def validate_line_property(outcome: LineOutcome) -> bool:
    """True iff the stop set is an ancestry antichain."""
    return is_antichain(outcome.stop_labels())


def classify_roles(outcome: LineOutcome) -> dict:
    """Partition every simulated label by its role relative to the line."""
    record = outcome.record
    stopped = set(outcome.stop_labels())
    cut = set(outcome.passed_alive)
    roles = {}
    for lab in record.particles:
        if lab in stopped:
            roles[lab] = "stopped"
        elif lab in cut:
            roles[lab] = "alive_at_cut"
        elif any(lab[: len(s)] == s and len(lab) > len(s) for s in stopped):
            roles[lab] = "descendant"
        else:
            roles[lab] = "passed"
    return roles


def write_line_csv(outcome: LineOutcome, path: str) -> None:
    d = outcome.stops[0].position.shape[0] if outcome.stops else 1
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["label", "tau"] + [f"x_{i}" for i in range(d)] + ["generation"])
        for s in sorted(outcome.stops, key=lambda s: s.label):
            w.writerow([format_label(s.label), repr(s.time)]
                       + [repr(float(v)) for v in s.position] + [s.generation])


def rule_from_json(obj: dict, grid: Optional[ValueGrid] = None) -> StoppingRule:
    kind = obj["kind"]
    t_cut = float(obj["t_cut"])
    policy = obj.get("cut_policy", ABANDON)
    if kind == "trivial_root":
        return trivial_root_rule(t_cut, policy)
    if kind == "fixed_time":
        return fixed_time_rule(float(obj["t"]), t_cut, policy)
    if kind == "first_branch":
        return first_branch_rule(t_cut, policy)
    if kind == "exit_ball":
        return exit_ball_rule(obj["center"], float(obj["radius"]),
                              float(obj.get("cap_t", math.inf)), t_cut, policy)
    if kind == "never":
        return never_rule(t_cut, policy)
    if kind == "contact_set":
        if grid is None:
            raise StoppingError("contact_set rule needs a solved grid")
        return contact_set_rule(grid, float(obj["epsilon"]), t_cut, policy)
    if kind == "min_of":
        parts = [rule_from_json(p, grid) for p in obj["parts"]]
        if len(parts) != 2:
            raise StoppingError("min_of takes exactly two parts")
        return min_of_rules(parts[0], parts[1])
    raise StoppingError(f"unknown rule kind {kind!r}")
