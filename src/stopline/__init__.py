"""Branching diffusions, stopping lines, and their obstacle PDEs.

Simulates branching diffusion forests with exact-rate event thinning,
evaluates multiplicative discounted rewards over stopping lines, solves
the associated obstacle problem with a generating-function nonlinearity,
and cross-validates the two routes against each other.
"""

from .labels import (
    MOTHER,
    Label,
    concat,
    format_label,
    generation,
    is_strict_ancestor,
    parse_label,
)
from .model import (
    Coefficient,
    ModelSpec,
    Offspring,
    RateFunction,
    RewardFunction,
    check_assumptions,
    generating_function,
    model_hash,
    moment_report,
    series_tail_bound,
    value_bound,
)
from .pde import SolverSettings, ValueGrid, solve_scalar
from .reward import McEstimate, mc_value, reward_of_outcome
from .simulator import (
    GenealogyRecord,
    ParticleRecord,
    empirical_moment_bound_check,
    population_count,
    simulate_forest,
    simulate_forests,
    total_born,
)
from .stopping import (
    LineOutcome,
    StoppingRule,
    contact_set_rule,
    evaluate_line,
    first_branch_rule,
    fixed_time_rule,
    min_of_rules,
    never_rule,
    trivial_root_rule,
)
from .verify import branching_property_test, cross_validate, dpp_consistency

__version__ = "0.1.0"
