"""Achievable-rate toolbox for mismatched decoding over discretized AWGN channels.

Computes the LM rate by alternating scaling under a metric budget, with an
independent Newton dual oracle (Schur-complement steps, no size cap), a GMI
baseline, and convergence certificates built from solver traces.
"""

from .channel import (ChannelSpec, DiscreteProblem, OutputGrid, analytic_threshold,
                      build_channel, discretize, quadratic_form_positive)
from .constellation import (Constellation, Scheme, build_constellation,
                            validate_constellation)
from .dual import (ConvergenceCertificate, DualPoint, ScarlettDualPoint, certificate,
                   dual_gradient, dual_hessian, dual_objective, gauge_normalize,
                   newton_oracle, reference_dual_value, scaling_null_space,
                   scarlett_dual_value, scarlett_point_from_coupling)
from .errors import (BracketError, DegenerateGridError, EvaluationError,
                     InconsistentOracleError, LmrateError, NumericalFailureError,
                     UnsupportedConfigurationError)
from .gmi import GmiResult, gmi
from .problem import (Coupling, constraint_gap, lm_rate, primal_entropy,
                      product_coupling, shannon_entropy)
from .sinkhorn import (LambdaStrategy, SinkhornState, SolveReport, SolverConfig,
                       SolveStatus, TraceRow, multiplier_excess, residuals,
                       sinkhorn_step, solve, solve_multiplier_root,
                       update_lambda_projection, update_lambda_rootfind)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "ChannelSpec",
    "Constellation",
    "ConvergenceCertificate",
    "Coupling",
    "DegenerateGridError",
    "DiscreteProblem",
    "DualPoint",
    "EvaluationError",
    "GmiResult",
    "InconsistentOracleError",
    "LambdaStrategy",
    "LmrateError",
    "NumericalFailureError",
    "OutputGrid",
    "ScarlettDualPoint",
    "Scheme",
    "SinkhornState",
    "SolveReport",
    "SolverConfig",
    "SolveStatus",
    "TraceRow",
    "UnsupportedConfigurationError",
    "analytic_threshold",
    "build_channel",
    "build_constellation",
    "certificate",
    "constraint_gap",
    "discretize",
    "dual_gradient",
    "dual_hessian",
    "dual_objective",
    "gauge_normalize",
    "gmi",
    "lm_rate",
    "multiplier_excess",
    "newton_oracle",
    "primal_entropy",
    "product_coupling",
    "quadratic_form_positive",
    "reference_dual_value",
    "residuals",
    "scaling_null_space",
    "scarlett_dual_value",
    "scarlett_point_from_coupling",
    "shannon_entropy",
    "sinkhorn_step",
    "solve",
    "solve_multiplier_root",
    "update_lambda_projection",
    "update_lambda_rootfind",
    "validate_constellation",
]
