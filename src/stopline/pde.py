"""Obstacle problem solver for the stopping-line value functions.

On a 1-D grid the solver handles min{-(L v); v - g} = 0 where L collects
diffusion, drift, discounting, killing at the branch rate, and a source
alpha(x) G(x, w) fed by the next-generation value through the offspring
generating function.  Scalar mode (one reward for all generations) fixes
w = v by outer Picard iteration started at the uniform value bound;
generation mode solves the deepest level that way and then peels levels
off by backward induction, each a single linear obstacle solve.

Discretization: central differences for the second-order term, first-order
upwinding for the drift, which keeps the system a tridiagonal M-matrix.  Each
linear complementarity problem is then solved exactly by policy iteration
(Howard's algorithm, here the same as the primal-dual active-set method):
every interior row is either a PDE row or an obstacle row, each iteration is
one banded solve, and the iteration stops when the row choice repeats.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.linalg import solve_banded

from .model import (
    ModelSpec,
    generating_function_grid,
    model_hash,
    moment_report,
    series_tail_bound,
    value_bound,
)

BC_OBSTACLE = "obstacle"  # Dirichlet v = g at the domain end
BC_VALUE = "value"  # Dirichlet with caller-supplied data


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverSettings:
    x_lo: float
    x_hi: float
    n_cells: int
    tol_fp: float = 1e-8
    k_max: int = 64
    max_picard: int = 200
    bc_lo: str = BC_OBSTACLE
    bc_hi: str = BC_OBSTACLE
    bc_lo_value: float = 0.0
    bc_hi_value: float = 0.0

    def __post_init__(self):
        if self.x_hi <= self.x_lo:
            raise SolverError("domain must satisfy x_lo < x_hi")
        if self.n_cells < 4:
            raise SolverError("need at least 4 cells")
        for bc in (self.bc_lo, self.bc_hi):
            if bc not in (BC_OBSTACLE, BC_VALUE):
                raise SolverError(f"unknown boundary condition {bc!r}")

    def to_json(self) -> dict:
        return {
            "x_lo": self.x_lo, "x_hi": self.x_hi, "n_cells": self.n_cells,
            "tol_fp": self.tol_fp, "k_max": self.k_max,
            "max_picard": self.max_picard, "bc_lo": self.bc_lo, "bc_hi": self.bc_hi,
            "bc_lo_value": self.bc_lo_value, "bc_hi_value": self.bc_hi_value,
        }


def settings_hash(settings: SolverSettings) -> str:
    import hashlib

    blob = json.dumps(settings.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class LevelStats:
    picard_iterations: int
    # Policy iterations of each linear obstacle solve; the name predates the
    # exact solver and stays because solver_log.json and the benchmark read it.
    psor_sweeps: List[int]
    step_norms: List[float]
    step_ratios: List[float]
    step_signed_max: List[float] = field(default_factory=list)
    max_obstacle_violation: float = 0.0
    max_residual_noncontact: float = 0.0
    min_residual_contact: float = 0.0
    contact_count: int = 0

    def to_json(self) -> dict:
        return {
            "picard_iterations": self.picard_iterations,
            "psor_sweeps": self.psor_sweeps,
            "step_norms": self.step_norms,
            "step_ratios": self.step_ratios,
            "step_signed_max": self.step_signed_max,
            "max_obstacle_violation": self.max_obstacle_violation,
            "max_residual_noncontact": self.max_residual_noncontact,
            "min_residual_contact": self.min_residual_contact,
            "contact_count": self.contact_count,
        }


@dataclass
class ValueGrid:
    """Solved value functions per generation level on a shared spatial grid."""

    xs: np.ndarray
    values: np.ndarray  # shape (depth + 1, n_nodes)
    obstacles: np.ndarray  # same shape
    contact: np.ndarray  # boolean, same shape
    model_hash: str  # "<spec hash>:<settings hash>"
    settings: SolverSettings
    depth: int
    stats: List[LevelStats]
    warnings: List[str] = field(default_factory=list)
    tail_budget: float = 0.0
    solved: bool = True

    @property
    def x_lo(self) -> float:
        return float(self.xs[0])

    @property
    def x_hi(self) -> float:
        return float(self.xs[-1])

    @property
    def n_cells(self) -> int:
        return len(self.xs) - 1

    def level(self, n: int) -> int:
        return min(n, self.depth)

    def contains(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return (xs >= self.x_lo) & (xs <= self.x_hi)

    def values_at(self, n: int, xs) -> np.ndarray:
        """Linear interpolation of level min(n, depth); clamped outside."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return np.interp(xs, self.xs, self.values[self.level(n)])

    def obstacles_at(self, n: int, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return np.interp(xs, self.xs, self.obstacles[self.level(n)])

    def value_at_point(self, n: int, x: float) -> float:
        return float(self.values_at(n, np.array([x]))[0])

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["n", "x", "v", "g", "contact"])
            for n in range(self.depth + 1):
                for j, x in enumerate(self.xs):
                    w.writerow([
                        n, repr(float(x)), repr(float(self.values[n, j])),
                        repr(float(self.obstacles[n, j])), int(self.contact[n, j]),
                    ])

    def log_json(self) -> dict:
        return {
            "model_hash": self.model_hash,
            "settings": self.settings.to_json(),
            "depth": self.depth,
            "tail_budget": self.tail_budget,
            "warnings": self.warnings,
            "levels": [s.to_json() for s in self.stats],
        }


def apply_operator(spec: ModelSpec, x: float, r: float, q: float, m: float,
                   next_gen_value: float, k_max: int = 64) -> float:
    """Pointwise generator value 0.5 s^2 m + b q + alpha G(x, w) - (alpha+gamma) r.

    Generation-symmetric coupling: the product of offspring values collapses
    to next_gen_value**k inside the generating function.
    """
    if spec.dimension != 1:
        raise SolverError("operator evaluation is implemented for dimension 1 only")
    pt = np.array([float(x)])
    b = float(spec.drift(pt)[0])
    s = float(spec.diffusion(pt)[0])
    alpha = float(spec.branch_rate(pt))
    from .model import generating_function

    G = generating_function(spec, pt, next_gen_value, k_max)
    return 0.5 * s * s * m + b * q + alpha * G - (alpha + spec.gamma) * r


@dataclass
class _Stencil:
    """Tridiagonal M-matrix pieces of -(linear part of L) on the grid."""

    diag: np.ndarray
    lower: np.ndarray  # coefficient multiplying v[i-1]
    upper: np.ndarray  # coefficient multiplying v[i+1]
    alpha: np.ndarray
    h: float


def _build_stencil(spec: ModelSpec, xs: np.ndarray) -> _Stencil:
    if spec.dimension != 1:
        raise SolverError("the PDE solver is restricted to dimension 1")
    h = float(xs[1] - xs[0])
    b = spec.drift(xs)
    s = spec.diffusion(xs)
    alpha = np.array([spec.branch_rate(np.array([x])) for x in xs])
    diff = 0.5 * s * s / (h * h)
    b_plus = np.maximum(b, 0.0)
    b_minus = np.maximum(-b, 0.0)
    lower = diff + b_minus / h
    upper = diff + b_plus / h
    diag = lower + upper + alpha + spec.gamma
    if np.any(lower < -1e-15) or np.any(upper < -1e-15):
        raise SolverError("discretization lost monotonicity (negative off-diagonal)")
    if np.any(diag <= 0):
        raise SolverError("discretization lost monotonicity (nonpositive diagonal)")
    return _Stencil(diag=diag, lower=lower, upper=upper, alpha=alpha, h=h)


def _lcp_residual(st: _Stencil, source: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(A v - source) at interior nodes, A being the upwind M-matrix."""
    return (st.diag[1:-1] * v[1:-1] - st.lower[1:-1] * v[:-2]
            - st.upper[1:-1] * v[2:] - source[1:-1])


def _solve_lcp(st: _Stencil, source: np.ndarray, g: np.ndarray, v0: np.ndarray,
               bc_vals: Tuple[float, float]) -> Tuple[np.ndarray, int]:
    """Exact solve of min{A v - source, v - g} = 0 by policy iteration.

    An interior row is an obstacle row (v_i = g_i) exactly where
    v_i - g_i < (A v - source)_i, and a PDE row ((A v)_i = source_i)
    otherwise; the first choice is read off v0.  On an M-matrix the policy
    settles in at most n iterations (Bokanowski, Maroso & Zidani 2009).
    Returns the solution and the number of banded solves.
    """
    n = len(g)
    v = v0.copy()
    v[0], v[-1] = bc_vals
    obstacle = v[1:-1] - g[1:-1] < _lcp_residual(st, source, v)
    for it in range(1, n + 1):
        # Known values (boundary data, obstacle rows) move to the right-hand
        # side, so obstacle rows decouple and come out exactly equal to g;
        # an identity row coupled to rows scaled by 1/h^2 would be pivoted
        # against them and pick up their rounding.
        v[1:-1] = np.where(obstacle, g[1:-1], 0.0)
        coupled = ~obstacle[1:] & ~obstacle[:-1]
        ab = np.zeros((3, n - 2))
        ab[0, 1:] = np.where(coupled, -st.upper[1:-2], 0.0)
        ab[1] = np.where(obstacle, 1.0, st.diag[1:-1])
        ab[2, :-1] = np.where(coupled, -st.lower[2:-1], 0.0)
        rhs = np.where(obstacle, g[1:-1],
                       source[1:-1] + st.lower[1:-1] * v[:-2] + st.upper[1:-1] * v[2:])
        v[1:-1] = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True)
        new = v[1:-1] - g[1:-1] < _lcp_residual(st, source, v)
        if np.array_equal(new, obstacle):
            return v, it
        obstacle = new
    raise SolverError(f"policy iteration did not settle within {n} iterations")


def _boundary_values(spec: ModelSpec, g: np.ndarray, settings: SolverSettings) -> Tuple[float, float]:
    lo = g[0] if settings.bc_lo == BC_OBSTACLE else settings.bc_lo_value
    hi = g[-1] if settings.bc_hi == BC_OBSTACLE else settings.bc_hi_value
    return float(lo), float(hi)


def _solve_level_linear(spec: ModelSpec, st: _Stencil, xs: np.ndarray, g: np.ndarray,
                        w_next: np.ndarray, v_start: np.ndarray,
                        settings: SolverSettings) -> Tuple[np.ndarray, int]:
    source = st.alpha * generating_function_grid(spec, xs, w_next, settings.k_max)
    bc = _boundary_values(spec, g, settings)
    return _solve_lcp(st, source, g, v_start, bc)


def solve_scalar(spec: ModelSpec, settings: SolverSettings,
                 level_index: Optional[int] = None) -> ValueGrid:
    """Fixed-point solve of the self-coupled obstacle problem (equal rewards).

    Picard iteration from the uniform value bound: each step solves the
    linear obstacle problem whose source freezes the generating-function
    argument at the previous iterate.  Iterates decrease monotonically on
    every shipped model; the step norms and their ratios are logged and a
    failed gamma uniqueness condition produces a warning, not an error.
    """
    level = spec.reward_depth if level_index is None else level_index
    g_fun = spec.reward_at(level)
    xs = np.linspace(settings.x_lo, settings.x_hi, settings.n_cells + 1)
    g = g_fun.grid_values(xs)
    v_bar = value_bound(spec)
    if not math.isfinite(v_bar):
        raise SolverError(
            "the uniform value bound overflows for this model; "
            "rescale rewards to k_g = 1 or reduce alpha_bar"
        )
    st = _build_stencil(spec, xs)
    report = moment_report(spec)
    warnings: List[str] = []
    if not report.unique_below_bound:
        warnings.append(
            "gamma %.6g below uniqueness threshold %.6g: solution may not be unique"
            % (spec.gamma, report.gamma_threshold)
        )
    w = np.full_like(xs, v_bar)
    w[0], w[-1] = _boundary_values(spec, g, settings)
    sweeps: List[int] = []
    norms: List[float] = []
    ratios: List[float] = []
    signed: List[float] = []
    for it in range(1, settings.max_picard + 1):
        v, n_sw = _solve_level_linear(spec, st, xs, g, w, w, settings)
        sweeps.append(n_sw)
        step = float(np.max(np.abs(v - w)))
        norms.append(step)
        signed.append(float(np.max(v - w)))
        if len(norms) > 1 and norms[-2] > 0:
            ratios.append(step / norms[-2])
        w = v
        if step < settings.tol_fp:
            break
    else:
        raise SolverError(f"Picard iteration did not converge in {settings.max_picard} steps")
    stats = LevelStats(picard_iterations=it, psor_sweeps=sweeps,
                       step_norms=norms, step_ratios=ratios, step_signed_max=signed)
    grid = ValueGrid(
        xs=xs,
        values=w[None, :].copy(),
        obstacles=g[None, :].copy(),
        contact=np.zeros((1, len(xs)), dtype=bool),
        model_hash=f"{model_hash(spec)}:{settings_hash(settings)}",
        settings=settings,
        depth=0,
        stats=[stats],
        warnings=warnings,
        tail_budget=series_tail_bound(spec, max(v_bar, 1.0), settings.k_max),
    )
    _finalize(spec, grid)
    return grid


def solve_generation_system(spec: ModelSpec, settings: SolverSettings) -> ValueGrid:
    """Backward induction over generations for depth-indexed rewards.

    The deepest level is self-consistent (children share its reward) and is
    solved as the scalar fixed point; every shallower level couples only to
    the one below, so it needs a single linear obstacle solve.
    """
    depth = spec.reward_depth
    deep = solve_scalar(spec, settings, level_index=depth)
    xs = deep.xs
    st = _build_stencil(spec, xs)
    n_levels = depth + 1
    values = np.empty((n_levels, len(xs)))
    obstacles = np.empty_like(values)
    values[depth] = deep.values[0]
    obstacles[depth] = deep.obstacles[0]
    stats: List[Optional[LevelStats]] = [None] * n_levels
    stats[depth] = deep.stats[0]
    for n in range(depth - 1, -1, -1):
        g = spec.reward_at(n).grid_values(xs)
        v_start = np.maximum(values[n + 1], g)
        v, n_sw = _solve_level_linear(spec, st, xs, g, values[n + 1], v_start, settings)
        values[n] = v
        obstacles[n] = g
        stats[n] = LevelStats(picard_iterations=1, psor_sweeps=[n_sw],
                              step_norms=[], step_ratios=[])
    grid = ValueGrid(
        xs=xs,
        values=values,
        obstacles=obstacles,
        contact=np.zeros_like(values, dtype=bool),
        model_hash=deep.model_hash,
        settings=settings,
        depth=depth,
        stats=list(stats),
        warnings=deep.warnings,
        tail_budget=deep.tail_budget,
    )
    _finalize(spec, grid)
    return grid


def _discrete_residual(spec: ModelSpec, st: _Stencil, xs: np.ndarray, v: np.ndarray,
                       w_next: np.ndarray, k_max: int) -> np.ndarray:
    """-(L v) at interior nodes under the upwind stencil; NaN at the ends."""
    res = np.full_like(v, np.nan)
    source = st.alpha * generating_function_grid(spec, xs, w_next, k_max)
    res[1:-1] = _lcp_residual(st, source, v)
    return res


def _finalize(spec: ModelSpec, grid: ValueGrid) -> None:
    """Flag contact nodes and record complementarity diagnostics per level."""
    settings = grid.settings
    contact_tol = 10.0 * settings.tol_fp
    st = _build_stencil(spec, grid.xs)
    for n in range(grid.depth + 1):
        v = grid.values[n]
        g = grid.obstacles[n]
        w_next = grid.values[min(n + 1, grid.depth)]
        grid.contact[n] = v - g <= contact_tol
        res = _discrete_residual(spec, st, grid.xs, v, w_next, settings.k_max)
        interior = slice(1, -1)
        contact_i = grid.contact[n][interior]
        res_i = res[interior]
        s = grid.stats[n]
        s.max_obstacle_violation = float(np.max(g - v))
        s.contact_count = int(np.sum(grid.contact[n]))
        if np.any(~contact_i):
            s.max_residual_noncontact = float(np.max(np.abs(res_i[~contact_i])))
        if np.any(contact_i):
            s.min_residual_contact = float(np.min(res_i[contact_i]))


@dataclass
class ResidualReport:
    levels: List[dict]

    def to_json(self) -> dict:
        return {"levels": self.levels}


def residual_report(grid: ValueGrid) -> ResidualReport:
    """Complementarity statistics per level of a solved grid."""
    if not grid.solved:
        raise SolverError("grid has not been solved")
    rows = []
    for n, s in enumerate(grid.stats):
        rows.append({
            "level": n,
            "max_obstacle_violation": s.max_obstacle_violation,
            "max_residual_noncontact": s.max_residual_noncontact,
            "min_residual_contact": s.min_residual_contact,
            "contact_count": s.contact_count,
            "tail_budget": grid.tail_budget,
        })
    return ResidualReport(levels=rows)


def contact_boundary(grid: ValueGrid, level: int = 0) -> Optional[float]:
    """Largest grid node still in contact on the given level, if any."""
    mask = grid.contact[level]
    interior = np.flatnonzero(mask[1:-1]) + 1
    if not len(interior):
        return None
    return float(grid.xs[interior[-1]])
