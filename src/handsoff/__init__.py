"""Minimum-support (hands-off) control of linear systems.

Feasible controls are amplitude-bounded inputs steering the state to the
origin over a fixed horizon; the package discretizes the problem on a
zero-order-hold grid and drives the support measure down with a
difference-of-convex iteration whose subproblems are boxed LPs, then checks
the result against independent oracles.
"""

from .dca import DcaConfig, run_dca
from .penalty import Penalty
from .system import ControlProblem, build_discrete, double_integrator

__version__ = "0.1.0"

__all__ = [
    "ControlProblem",
    "DcaConfig",
    "Penalty",
    "build_discrete",
    "double_integrator",
    "run_dca",
]
