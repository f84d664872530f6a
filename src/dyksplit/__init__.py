"""Dykstra-style splitting with flexible, parallelizable sweep schedules.

The solver runs dual block minimization for best-approximation problems:
project a point onto an intersection of simple convex sets (plus optional
separable regularizers), where each cycle of sweeps may mix joint outer
solves with sum-frozen inner blocks.  Schedules are validated against the
touch-pattern conditions that guarantee convergence, violating blocks can be
deferred automatically, and every validated run carries per-cycle
convergence certificates.
"""

from .engine import (Certificate, EngineInvariantError, InvalidScheduleError,
                     NonFiniteStateError, RunResult, ScheduleGrowthWarning,
                     SolveParams, TraceRow, TraceRows, certificate_points,
                     product_space_reference, run, run_sweep)
from .oracle import (ConvergenceError, LinearConstraint, PolyhedralInstance,
                     qp_project, reference_solve)
from .schedule import (CyclePlan, ScheduleAnalysis, ScheduleStructureError,
                       SweepPlan, UnresolvableDeferralError, Violation,
                       classic_dykstra_schedule, product_space_schedule,
                       rewrite_deferred, validate)
from .state import (DualState, GapReport, ProblemSpec, WeakDualityError,
                    dual_objective, fenchel_residual, gap_report,
                    primal_estimate)
from .terms import (AffineSubspace, Box, DimensionMismatch, Halfspace,
                    Hyperplane, Indicator, L1Norm, L2Ball, Quadratic,
                    moreau_dual)

__version__ = "0.1.0"

__all__ = [
    "AffineSubspace", "Box", "Certificate", "ConvergenceError", "CyclePlan",
    "DimensionMismatch", "DualState", "EngineInvariantError", "GapReport",
    "Halfspace", "Hyperplane", "Indicator", "InvalidScheduleError", "L1Norm",
    "L2Ball", "LinearConstraint", "NonFiniteStateError", "PolyhedralInstance",
    "ProblemSpec", "Quadratic", "RunResult", "ScheduleAnalysis",
    "ScheduleGrowthWarning", "ScheduleStructureError", "SolveParams",
    "SweepPlan", "TraceRow", "TraceRows", "UnresolvableDeferralError",
    "Violation", "WeakDualityError", "certificate_points",
    "classic_dykstra_schedule",
    "dual_objective", "fenchel_residual", "gap_report", "moreau_dual",
    "primal_estimate", "product_space_reference",
    "product_space_schedule", "qp_project", "reference_solve",
    "rewrite_deferred", "run", "run_sweep", "validate",
]
