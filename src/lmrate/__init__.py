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
                   dual_gradient, dual_hessian, dual_objective, newton_oracle,
                   scaling_null_space, scarlett_dual_value, scarlett_point_from_coupling)
from .errors import (BracketError, DegenerateGridError, EvaluationError,
                     InconsistentOracleError, LmrateError, NumericalFailureError,
                     UnsupportedConfigurationError)
from .gmi import GmiResult, gmi
from .problem import Coupling, lm_rate, product_coupling, shannon_entropy
from .sinkhorn import (LambdaStrategy, SolveReport, SolverConfig, SolveStatus, TraceRow,
                       multiplier_excess, residuals, sinkhorn_step, solve,
                       solve_multiplier_root, update_lambda_projection,
                       update_lambda_rootfind)

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
    "SolveReport",
    "SolverConfig",
    "SolveStatus",
    "TraceRow",
    "UnsupportedConfigurationError",
    "analytic_threshold",
    "build_channel",
    "build_constellation",
    "certificate",
    "discretize",
    "dual_gradient",
    "dual_hessian",
    "dual_objective",
    "gmi",
    "lm_rate",
    "multiplier_excess",
    "newton_oracle",
    "product_coupling",
    "quadratic_form_positive",
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
