"""Solver suite for the cooperative orienteering problem with time windows.

Team members start from a shared depot and must return by a deadline; each
customer pays its reward only when its required number of members start
service there simultaneously inside the customer's time window.  The package
parses standard orienteering benchmarks, augments them with member
requirements, builds solutions with a modified Clarke-Wright savings
heuristic, verifies them against the full constraint set, and measures
optimality gaps against a built-in exact solver on small instances.
"""

from .geometry import ArcSet, build_arc_set, build_distance_matrix, cos_polar_angle
from .heuristic import SolverResult, construct, improve, solve
from .instances import (
    Instance,
    ParseError,
    RawInstance,
    ValidationError,
    Vertex,
    augment,
    parse_benchmark,
    parse_cordeau,
    parse_solomon,
    read_coptw,
    splitmix64,
    truncate,
    write_coptw,
)
from .oracle import OracleConfig, OracleResult, exact_solve, optimality_gap
from .savings import (
    SavingParams,
    calc_saving_pairs,
    mean_customer_reward,
    parameter_grid,
    saving_value,
)
from .scheduling import (
    FeasibilityReport,
    Schedule,
    ScheduleInfeasible,
    Solution,
    check_solution,
    empty_solution,
    format_solution,
    objective,
    parse_solution,
    propagate_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "ArcSet",
    "FeasibilityReport",
    "Instance",
    "OracleConfig",
    "OracleResult",
    "ParseError",
    "RawInstance",
    "SavingParams",
    "Schedule",
    "ScheduleInfeasible",
    "Solution",
    "SolverResult",
    "ValidationError",
    "Vertex",
    "augment",
    "build_arc_set",
    "build_distance_matrix",
    "calc_saving_pairs",
    "check_solution",
    "construct",
    "cos_polar_angle",
    "empty_solution",
    "exact_solve",
    "format_solution",
    "improve",
    "mean_customer_reward",
    "objective",
    "optimality_gap",
    "parameter_grid",
    "parse_benchmark",
    "parse_cordeau",
    "parse_solomon",
    "parse_solution",
    "propagate_schedule",
    "read_coptw",
    "saving_value",
    "solve",
    "splitmix64",
    "truncate",
    "write_coptw",
]
