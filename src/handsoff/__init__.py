"""Minimum-support (hands-off) control of linear systems.

Feasible controls are amplitude-bounded inputs steering the state to the
origin over a fixed horizon; the package discretizes the problem on a
zero-order-hold grid and drives the support measure down with a
difference-of-convex iteration whose subproblems are boxed LPs, then checks
the result against independent oracles.
"""

from .dca import (
    ControlSignal,
    DcaConfig,
    DcaResult,
    SplitControl,
    bang_off_bang_deviation,
    cost_jd,
    l0_measure,
    recombine,
    run_dca,
    split_control,
)
from .errors import (
    AssumptionViolationError,
    DimensionError,
    DomainError,
    HandsOffError,
    InfeasibleProblemError,
    NumericalError,
    ParameterError,
    SizeError,
)
from .linalg import expm, zoh_discretize
from .lp import (
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    LpProblem,
    LpSolution,
    LpStart,
    kkt_residual,
    solve_lp,
)
from .oracle import (
    CertificateReport,
    CertificateTolerances,
    brute_force_l0,
    double_integrator_certificate,
    make_exact_instance,
)
from .penalty import (
    KINDS,
    AssumptionReport,
    Penalty,
    equivalence_constant,
    phi,
    phi_subgradient,
    psi,
    validate_assumption,
)
from .system import (
    ControlProblem,
    DiscreteProblem,
    LinearSystem,
    build_discrete,
    check_feasible,
    double_integrator,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "AssumptionViolationError",
    "CertificateReport",
    "CertificateTolerances",
    "ControlProblem",
    "ControlSignal",
    "DcaConfig",
    "DcaResult",
    "DimensionError",
    "DiscreteProblem",
    "DomainError",
    "HandsOffError",
    "INFEASIBLE",
    "InfeasibleProblemError",
    "KINDS",
    "LinearSystem",
    "LpProblem",
    "LpSolution",
    "LpStart",
    "NUMERICAL_FAILURE",
    "NumericalError",
    "OPTIMAL",
    "ParameterError",
    "Penalty",
    "SizeError",
    "SplitControl",
    "bang_off_bang_deviation",
    "brute_force_l0",
    "build_discrete",
    "check_feasible",
    "cost_jd",
    "double_integrator",
    "double_integrator_certificate",
    "equivalence_constant",
    "expm",
    "kkt_residual",
    "l0_measure",
    "make_exact_instance",
    "phi",
    "phi_subgradient",
    "psi",
    "recombine",
    "run_dca",
    "simulate",
    "solve_lp",
    "split_control",
    "validate_assumption",
    "zoh_discretize",
]
