"""Obstacle problem solver for the stopping-line value functions.

On a 1-D grid the solver handles min{-(L v); v - g} = 0 where L collects
diffusion, drift, discounting, killing at the branch rate, and a source
alpha(x) G(x, w) fed by the next-generation value through the offspring
generating function.  The deepest reward level is self-coupled (its
children share its reward), so w = v there, fixed by outer Picard iteration
started at the uniform value bound; every shallower level couples only to
the one below and is one linear obstacle solve of backward induction.
Equal rewards are the depth-0 case, with no shallower level.

Discretization: central differences for the second-order term, first-order
upwinding for the drift, which keeps the system a tridiagonal M-matrix.  Each
linear complementarity problem is then solved exactly by policy iteration
(Howard's algorithm, here the same as the primal-dual active-set method):
every interior row is either a PDE row or an obstacle row, each iteration is
one LAPACK `dgtsv` call on the three diagonals, and the iteration stops when
the row choice repeats.  The first row choice comes from the same problem
solved on a grid of half as many cells, recursively (Brandt & Cryer 1983),
so each level needs only a few iterations and the whole solve is O(n); the
answer does not depend on that first choice.

Certificate and stop: the matrix's interior row sums are alpha_i + gamma,
so on iterates in [0, v_bar] the Picard map contracts in the sup norm with
q = max_i alpha_i dG/dw(x_i, v_bar) / (alpha_i + gamma), the max taken over
every interior row (Barles & Souganidis 1991; Bokanowski, Maroso & Zidani
2009).  Contact rows are pinned to g and do not feel the source, so q is
conservative.  Where q < 1 the loop stops once q / (1 - q) times the step,
a bound on the distance to the discrete fixed point, is below tol_fp; where
q >= 1, or an iterate rises above v_bar, tol_fp bounds only the last step.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .model import (
    K_MAX,
    ModelError,
    ModelSpec,
    generating_function,
    model_hash,
    series_tail_bound,
    truncated_pmf,
    value_bound,
)

MAX_PICARD = 200


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverSettings:
    """Grid, Picard tolerance and the Dirichlet data at each domain end;
    a boundary value of None pins v = g there.

    tol_fp bounds the sup-norm error of the self-coupled level where its
    contraction factor q (over every interior row, contact rows included, so
    conservative) is below 1, and only the last Picard step otherwise."""

    x_lo: float
    x_hi: float
    n_cells: int
    tol_fp: float = 1e-8
    bc_lo_value: Optional[float] = None
    bc_hi_value: Optional[float] = None

    def __post_init__(self):
        if self.x_hi <= self.x_lo:
            raise SolverError("domain must satisfy x_lo < x_hi")
        if self.n_cells < 4:
            raise SolverError("need at least 4 cells")
        if not self.tol_fp > 0:
            raise SolverError("tol_fp must be positive")

    def to_json(self) -> dict:
        return asdict(self)


def settings_hash(settings: SolverSettings) -> str:
    import hashlib

    blob = json.dumps(settings.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class LevelStats:
    picard_iterations: int
    # Policy iterations (dgtsv calls) of each linear obstacle solve; the name
    # predates the exact solver and stays because solver_log.json and the
    # benchmark read it.
    psor_sweeps: List[int]
    step_norms: List[float]
    step_ratios: List[float]
    step_signed_max: List[float] = field(default_factory=list)
    # The self-coupled level's contraction factor q over every interior row,
    # conservative as contact rows are pinned to g, and the bound
    # q / (1 - q) * last step on its distance to the fixed point, which the
    # stop holds below tol_fp; both None when uncertified (q >= 1, or an
    # iterate above the value bound), where tol_fp bounds only the last step.
    contraction: Optional[float] = None
    error_bound: Optional[float] = None
    max_obstacle_violation: float = 0.0
    max_residual_noncontact: float = 0.0
    min_residual_contact: float = 0.0
    contact_count: int = 0

    def to_json(self) -> dict:
        return asdict(self)


# What the contact rule's table says of a point (`ValueGrid.contact_entries`)
CANNOT_FIRE, MAY_FIRE, SURELY_FIRES = 0, 1, 2


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
    # contact-rule candidate tables by (level, epsilon), built on first use
    _candidates: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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

    def contact_entries(self, n: int, epsilon: float, xs: np.ndarray) -> np.ndarray:
        """What the contact rule's table says of each point of the 1-D array
        xs: CANNOT_FIRE, MAY_FIRE, or SURELY_FIRES, where the exact test
        fires for certain.

        Each x is mapped to a table entry by one multiply-add and a clip, and
        the entry is read from a table built once per (level, epsilon) by
        `_candidate_table`.  NaN maps to entry 0 and +-inf to an end, which
        both stand for outside the domain and are never CANNOT_FIRE.
        """
        key = (self.level(n), epsilon)
        if key not in self._candidates:
            self._candidates[key] = self._candidate_table(*key)
        table, scale, shift = self._candidates[key]
        entry = np.fmin(np.fmax(xs * scale + shift, 0.0), len(table) - 1)
        return table[entry.astype(np.intp)]

    def _candidate_table(self, level: int, epsilon: float) -> Tuple[np.ndarray, float, float]:
        """The contact rule's table of one level, and its cell map.

        Entry j + 1 stands for cell j, [x_j, x_j+1]; entries 0 and n_cells + 1
        stand for the two sides outside the domain, where the rule always
        fires, and cells 0 and n_cells - 1 next to them.  An entry covers
        three cells, j - 1 to j + 1 for entry j + 1, where a side outside the
        domain counts as a cell.  It is MAY_FIRE when any node of those cells
        has clearance v - g <= epsilon + delta, or one of them is outside, and
        SURELY_FIRES when every node of them has clearance <= epsilon - delta
        (an outside side counting as one that fires); otherwise CANNOT_FIRE.

        Why the exact test cannot fire where the table says CANNOT_FIRE.  On
        cell j np.interp returns a + s * (x - x_j) with s = (b - a) / (x_j+1 -
        x_j) rounded, and 0 <= x - x_j <= x_j+1 - x_j after rounding too.  So
        its result is the exact linear interpolant of the node values a, b at
        some t in [0, 1], off by at most 7u * max(|a|, |b|) (u the unit
        roundoff, eps / 2).  The exact interpolant of v less that of g, at the
        same t, is that of the node clearances, which lies between the smaller
        and the larger of the two.  Both interpolations and the subtraction
        together miss it by at most 8u * S, with S = max|v| + max|g| over the
        level.  A point of cell j whose computed clearance is <= epsilon
        therefore has a node of cell j whose exact clearance is <= epsilon +
        8u * S, which is below epsilon + delta for delta = 16 eps (S + tiny) =
        32u (S + tiny); as rounding is monotone, the node's computed clearance
        is then <= the computed epsilon + delta.  The tiny term covers the
        absolute roundoff of subnormal values.

        Why it surely fires where the table says SURELY_FIRES.  A point of
        cell j has a computed clearance of at most the larger node clearance
        of cell j plus 8u * S.  A node's exact clearance is at most its
        computed one plus u * S, and that is at most the computed epsilon -
        delta, which is at most epsilon - delta + u * |epsilon - delta|.  So
        the point's computed clearance is at most epsilon - delta + u *
        |epsilon - delta| + 9u * S, which is at most epsilon when epsilon <=
        22 S, as delta >= 32u * S.  When epsilon > 22 S, every computed
        clearance, at most S (1 + 9u), is below epsilon anyway.  A point
        outside the domain fires always.

        The cell map is entry = floor(x * scale + shift), clipped, and it is
        monotone in x.  The nodes are checked to map within a quarter cell of
        their own entry, which holds for the uniform nodes that `solve_scalar`
        builds; so a point of cell j maps to entry j, j + 1 or j + 2, each of
        which covers cell j, a point below x_lo to entry 0 or 1, and a point
        above x_hi to entry n_cells or n_cells + 1, each of which covers that
        side.
        """
        n_cells = self.n_cells
        scale = n_cells / (self.x_hi - self.x_lo)
        shift = 1.0 - self.x_lo * scale
        misfit = np.abs(self.xs * scale + shift - np.arange(1, n_cells + 2))
        if not np.max(misfit) <= 0.25:
            raise SolverError("the contact rule's cell map needs uniformly spaced grid nodes")
        v, g = self.values[level], self.obstacles[level]
        finfo = np.finfo(float)
        delta = 16 * finfo.eps * (np.max(np.abs(v)) + np.max(np.abs(g)) + finfo.tiny)
        near = v - g <= epsilon + delta
        cells = np.concatenate(([True], near[:-1] | near[1:], [True]))
        may = cells.copy()
        may[1:] |= cells[:-1]
        may[:-1] |= cells[1:]
        within = v - g <= epsilon - delta
        cells = np.concatenate(([True], within[:-1] & within[1:], [True]))
        sure = cells.copy()
        sure[1:] &= cells[:-1]
        sure[:-1] &= cells[1:]
        # sure entries are among the may ones, as epsilon - delta <= epsilon + delta
        return may.astype(np.uint8) + sure, scale, shift

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


@dataclass
class _Stencil:
    """Tridiagonal M-matrix pieces of -(linear part of L) on the grid xs."""

    xs: np.ndarray
    diag: np.ndarray
    lower: np.ndarray  # coefficient multiplying v[i-1]
    upper: np.ndarray  # coefficient multiplying v[i+1]
    alpha: np.ndarray


def _build_stencil(spec: ModelSpec, xs: np.ndarray) -> _Stencil:
    h = float(xs[1] - xs[0])
    b = spec.drift(xs)
    s = spec.diffusion(xs)
    alpha = spec.branch_rate(xs[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        diff = 0.5 * s * s / (h * h)
        b_plus = np.maximum(b, 0.0)
        b_minus = np.maximum(-b, 0.0)
        lower = diff + b_minus / h
        upper = diff + b_plus / h
        diag = lower + upper + alpha + spec.gamma
    # a sum is finite only if every term is, so diag speaks for the stencil
    if not np.isfinite(diag).all():
        raise SolverError("the stencil's coefficients overflow: drift or diffusion is too "
                          "large for this grid")
    if np.any(lower < -1e-15) or np.any(upper < -1e-15):
        raise SolverError("discretization lost monotonicity (negative off-diagonal)")
    if np.any(diag <= 0):
        raise SolverError("discretization lost monotonicity (nonpositive diagonal)")
    return _Stencil(xs=xs, diag=diag, lower=lower, upper=upper, alpha=alpha)


def _source(spec: ModelSpec, st: _Stencil, w_next: np.ndarray) -> np.ndarray:
    """alpha G(x, w_next) at the stencil's nodes: the source of the linear
    obstacle problem whose generating-function argument is frozen at w_next."""
    return st.alpha * generating_function(spec, st.xs, w_next, K_MAX)


def contraction(spec: ModelSpec, xs: np.ndarray, alpha: np.ndarray, v_bar: float) -> float:
    """The Picard map's contraction factor on iterates in [0, v_bar]:
    q = max_i alpha_i dG/dw(x_i, v_bar) / (alpha_i + gamma) over the nodes xs,
    with alpha their branch rates (the solver passes its stencil's interior).

    dG/dw sums k p_k w^(k-1) over the pmf that the generating function sums
    (`truncated_pmf`); it grows with w >= 0, so its value at v_bar bounds
    the slope of every source between two such iterates.  The upwind rows
    then move the solution by at most q times the move of the iterate.  A
    zero p_k or alpha_i contributes nothing even where the power overflows;
    q is inf where the rest overflows.
    """
    pmf = truncated_pmf(spec, xs)
    slope, power = np.zeros(len(xs)), 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, pmf.shape[1]):
            slope += np.where(pmf[:, k] > 0, k * pmf[:, k] * power, 0.0)
            power *= v_bar
        q = np.where(alpha > 0, alpha * slope / (alpha + spec.gamma), 0.0)
    return float(np.max(q))


def _lcp_residual(st: _Stencil, source: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(A v - source) at interior nodes, A being the upwind M-matrix."""
    return (st.diag[1:-1] * v[1:-1] - st.lower[1:-1] * v[:-2]
            - st.upper[1:-1] * v[2:] - source[1:-1])


# Grids of at least twice this many cells take their first row choice from
# the same problem on half as many cells.
_COARSEST_CELLS = 100


def _stencils(spec: ModelSpec, xs: np.ndarray) -> List[_Stencil]:
    """Stencils on xs and on grids of n_cells // 2, halved again down to
    _COARSEST_CELLS, finest first; built once per solve."""
    out = [_build_stencil(spec, xs)]
    while (len(xs) - 1) // 2 >= _COARSEST_CELLS:
        xs = np.linspace(xs[0], xs[-1], (len(xs) - 1) // 2 + 1)
        out.append(_build_stencil(spec, xs))
    return out


def _solve_lcp(stencils: List[_Stencil], source: np.ndarray, g: np.ndarray,
               v0: np.ndarray, bc_vals: Tuple[float, float],
               obstacle: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray, int]:
    """Exact solve of min{A v - source, v - g} = 0 on stencils[0], coarse to fine.

    The first row choice of the policy iteration here is `obstacle` if given;
    else the same problem, with source, g and v0 interpolated, is solved on
    the next coarser stencil, recursively, and its contact set is read at
    these nodes.  That choice only sets where the iteration starts: it still
    stops only when the row choice repeats, so the result is exact whatever
    the first choice.  Returns the solution, the interior obstacle rows and
    the tridiagonal (`dgtsv`) solves over all grids.
    """
    st = stencils[0]
    coarse_solves = 0
    if obstacle is None and len(stencils) > 1:
        xc = stencils[1].xs
        coarse = [np.interp(xc, st.xs, a) for a in (source, g, v0)]
        _, contact, coarse_solves = _solve_lcp(stencils[1:], *coarse, bc_vals)
        obstacle = np.interp(st.xs[1:-1], xc[1:-1], contact.astype(float)) >= 0.5
    v, obstacle, solves = _policy_iteration(st, source, g, v0, bc_vals, obstacle)
    return v, obstacle, solves + coarse_solves


def _policy_iteration(st: _Stencil, source: np.ndarray, g: np.ndarray, v0: np.ndarray,
                      bc_vals: Tuple[float, float], obstacle: Optional[np.ndarray]
                      ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Policy iteration on one grid from the first row choice `obstacle`.

    An interior row is an obstacle row (v_i = g_i) exactly where
    v_i - g_i < (A v - source)_i, and a PDE row ((A v)_i = source_i)
    otherwise; when `obstacle` is None the first choice is read off v0.  On an
    M-matrix the policy settles in at most n iterations (Bokanowski, Maroso
    & Zidani 2009).  Each iteration is one LAPACK `dgtsv` call on the three
    diagonals; scipy's banded-solve wrapper calls the same routine, but its
    per-call checks cost about a fifth of a put solve, so the checks it made
    are made here: the stencil is finite when built, and a non-finite
    right-hand side or a nonzero `info` is a SolverError.  Returns the
    solution, the obstacle rows and the number of tridiagonal solves.
    """
    # scipy.linalg takes a noticeable share of start-up; only solves need it
    from scipy.linalg.lapack import dgtsv

    n = len(g)
    v = v0.copy()
    v[0], v[-1] = bc_vals
    if obstacle is None:
        obstacle = v[1:-1] - g[1:-1] < _lcp_residual(st, source, v)
    diag, lower, upper = st.diag[1:-1], st.lower[1:-1], st.upper[1:-1]
    below, above = -st.lower[2:-1], -st.upper[1:-2]
    g_in, source_in = g[1:-1], source[1:-1]
    for it in range(1, n + 1):
        # Known values (boundary data, obstacle rows) move to the right-hand
        # side, so obstacle rows decouple and come out exactly equal to g;
        # an identity row coupled to rows scaled by 1/h^2 would be pivoted
        # against them and pick up their rounding.
        v[1:-1] = np.where(obstacle, g_in, 0.0)
        coupled = ~obstacle[1:] & ~obstacle[:-1]
        rhs = np.where(obstacle, g_in, source_in + lower * v[:-2] + upper * v[2:])
        if not np.isfinite(rhs).all():
            raise SolverError("policy iteration met a non-finite right-hand side")
        *_, x, info = dgtsv(np.where(coupled, below, 0.0), np.where(obstacle, 1.0, diag),
                            np.where(coupled, above, 0.0), rhs, overwrite_dl=True,
                            overwrite_d=True, overwrite_du=True, overwrite_b=True)
        if info != 0:
            raise SolverError(f"tridiagonal solve failed (LAPACK dgtsv info {info})")
        v[1:-1] = x
        new = v[1:-1] - g_in < _lcp_residual(st, source, v)
        if np.array_equal(new, obstacle):
            return v, obstacle, it
        obstacle = new
    raise SolverError(f"policy iteration did not settle within {n} iterations")


def _boundary_values(g: np.ndarray, settings: SolverSettings) -> Tuple[float, float]:
    lo = g[0] if settings.bc_lo_value is None else settings.bc_lo_value
    hi = g[-1] if settings.bc_hi_value is None else settings.bc_hi_value
    return float(lo), float(hi)


def solve_scalar(spec: ModelSpec, settings: SolverSettings) -> ValueGrid:
    """Value functions of every reward level, 0 to spec.reward_depth.

    The deepest level is self-consistent (children share its reward): Picard
    iteration from the uniform value bound, each step solving the linear
    obstacle problem whose source freezes the generating-function argument
    at the previous iterate.  Every shallower level couples only to the one
    below, so backward induction gives it in a single linear obstacle solve;
    with equal rewards (depth 0) there is no such level.  Iterates decrease
    monotonically on every shipped model; the step norms and their ratios
    are logged.  The contraction factor q (`contraction`, over every
    interior row of the grid, conservative as contact rows are pinned to g)
    is computed once: where q < 1, tol_fp bounds the self-coupled level's
    error, and its stats carry q and that bound; where q >= 1, tol_fp bounds
    only the last step, and a warning, not an error, says that the solution
    may not be unique.  A model of dimension other than 1 is a ModelError.
    """
    if spec.dimension != 1:
        raise ModelError("the PDE solver is restricted to dimension 1")
    depth = spec.reward_depth
    xs = np.linspace(settings.x_lo, settings.x_hi, settings.n_cells + 1)
    stencils = _stencils(spec, xs)
    v_bar = value_bound(spec)
    if not math.isfinite(v_bar):
        raise SolverError(
            "the uniform value bound overflows for this model; "
            "rescale rewards to k_g = 1 or reduce alpha_bar"
        )
    q = contraction(spec, xs[1:-1], stencils[0].alpha[1:-1], v_bar)
    warnings: List[str] = []
    if not q < 1:
        warnings.append("contraction factor %.6g at the value bound is not below 1: "
                        "solution may not be unique" % q)
    obstacles = np.array([spec.reward_at(n)(xs[:, None]) for n in range(depth + 1)])
    values = np.empty_like(obstacles)
    stats: List[Optional[LevelStats]] = [None] * (depth + 1)
    values[depth], stats[depth] = _picard(spec, settings, stencils, obstacles[depth], v_bar, q)
    for n in range(depth - 1, -1, -1):
        g = obstacles[n]
        v_start = np.maximum(values[n + 1], g)
        values[n], _, n_sw = _solve_lcp(stencils, _source(spec, stencils[0], values[n + 1]), g,
                                        v_start, _boundary_values(g, settings))
        stats[n] = LevelStats(picard_iterations=1, psor_sweeps=[n_sw],
                              step_norms=[], step_ratios=[])
    grid = ValueGrid(
        xs=xs,
        values=values,
        obstacles=obstacles,
        contact=np.zeros_like(values, dtype=bool),
        model_hash=f"{model_hash(spec)}:{settings_hash(settings)}",
        settings=settings,
        depth=depth,
        stats=stats,
        warnings=warnings,
        tail_budget=series_tail_bound(spec, max(v_bar, 1.0), K_MAX),
    )
    _finalize(spec, stencils[0], grid)
    return grid


def _picard(spec: ModelSpec, settings: SolverSettings, stencils: List[_Stencil],
            g: np.ndarray, v_bar: float, q: float) -> Tuple[np.ndarray, LevelStats]:
    """Fixed point of the self-coupled level with obstacle g, from v_bar.

    Each step solves the linear obstacle problem with its source frozen at
    the previous iterate, on the boundary pair formed once.  Steps 1 and 2
    take their first row choice from the coarse grids.  From step 3 on the
    contact set barely moves, so each step starts from the previous step's
    obstacle rows instead; the policy iteration still settles on the exact
    solution, and skips the coarse solves.

    q is the contraction factor on iterates in [0, v_bar] (`contraction`,
    over every interior row, so conservative).  While every interior iterate
    stays at most v_bar and q < 1, |w_k - v*| <= q / (1 - q) |w_k - w_k-1|,
    and the loop stops once that bound is below tol_fp; otherwise it stops
    once the step is, and tol_fp bounds only the last step.  A step of
    exactly 0 stops either way.  While the iterates stay below v_bar a step
    ratio above q + 1e-9, on a step above 100 tol_fp, where rounding cannot
    explain it, contradicts the bound and is a SolverError.
    """
    bc = _boundary_values(g, settings)
    w = np.full_like(g, v_bar)
    w[0], w[-1] = bc
    sweeps: List[int] = []
    norms: List[float] = []
    ratios: List[float] = []
    signed: List[float] = []
    rows = None
    bounded = True  # every interior iterate so far is at most v_bar
    for it in range(1, MAX_PICARD + 1):
        v, rows, n_sw = _solve_lcp(stencils, _source(spec, stencils[0], w), g, w, bc,
                                   rows if it > 2 else None)
        sweeps.append(n_sw)
        step = float(np.max(np.abs(v - w)))
        norms.append(step)
        signed.append(float(np.max(v - w)))
        if len(norms) > 1 and norms[-2] > 0:
            ratios.append(step / norms[-2])
            if bounded and step > 100 * settings.tol_fp and ratios[-1] > q + 1e-9:
                raise SolverError(f"Picard step ratio {ratios[-1]:.6g} exceeds the "
                                  f"contraction factor {q:.6g}")
        bounded = bounded and float(np.max(v[1:-1])) <= v_bar
        w = v
        certified = bounded and q < 1
        bound = q / (1 - q) * step if certified else step
        if step == 0 or bound < settings.tol_fp:
            break
    else:
        raise SolverError(f"Picard iteration did not converge in {MAX_PICARD} steps")
    return w, LevelStats(picard_iterations=it, psor_sweeps=sweeps,
                         step_norms=norms, step_ratios=ratios, step_signed_max=signed,
                         contraction=q if certified else None,
                         error_bound=bound if certified else None)


def _finalize(spec: ModelSpec, st: _Stencil, grid: ValueGrid) -> None:
    """Flag contact nodes and record complementarity diagnostics per level."""
    contact_tol = 10.0 * grid.settings.tol_fp
    for n in range(grid.depth + 1):
        v = grid.values[n]
        g = grid.obstacles[n]
        w_next = grid.values[min(n + 1, grid.depth)]
        grid.contact[n] = v - g <= contact_tol
        # -(L v) at the interior nodes under the upwind stencil
        res_i = _lcp_residual(st, _source(spec, st, w_next), v)
        contact_i = grid.contact[n][1:-1]
        s = grid.stats[n]
        s.max_obstacle_violation = float(np.max(g - v))
        s.contact_count = int(np.sum(grid.contact[n]))
        if np.any(~contact_i):
            s.max_residual_noncontact = float(np.max(np.abs(res_i[~contact_i])))
        if np.any(contact_i):
            s.min_residual_contact = float(np.min(res_i[contact_i]))


def contact_boundary(grid: ValueGrid) -> Optional[float]:
    """Largest grid node still in contact on level 0, if any."""
    mask = grid.contact[0]
    interior = np.flatnonzero(mask[1:-1]) + 1
    if not len(interior):
        return None
    return float(grid.xs[interior[-1]])
