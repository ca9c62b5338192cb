"""Difference-of-convex iteration for minimum-support control.

On the discretized feasible set the objective splits as g - h with
g(z) = sum(z) (the l1 norm on the nonnegative box) and
h(z) = sum of the concave gaps phi(z_i).  From the plain l1 LP's vertex, each
iteration linearizes h at the current point with a subgradient s and
minimizes g - s @ z, a boxed LP with cost vector 1 - s.  The loop stops on a
cost stall (``COST_TOL``), a step stall (``STEP_TOL``), an ascent (a step
that raises the cost, which is rejected), or the iteration cap
(``MAX_ITER``), whichever fires first.
Every LP of a run has the feasible set Phi z = -zeta, 0 <= z <= 1, so the
simplex's phase 1 runs at most once per run, and not at all when the caller
passes the solution of the plain l1 LP over that set (``solve_l1``).  Each LP
starts phase 2 from the basis the previous one ended on, so a step
re-optimizes from the last vertex instead of walking back to it from the
phase-1 basis.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolationError,
    DimensionError,
    DomainError,
    InfeasibleProblemError,
    NumericalError,
    ParameterError,
    is_number,
)
from .lp import INFEASIBLE, NUMERICAL_FAILURE, TOL, LpProblem, LpSolution, LpStart, solve_lp
from .penalty import Penalty, _psi_abs, phi_subgradient, validate_assumption
from .system import DiscreteProblem

_BOX_SLACK = 1e-6  # how far rounding may take a sample or a split entry out of its box
L0_THRESHOLD = 1e-6  # l0 counts the samples with |u| above this
COST_TOL = 1e-8  # a cost change at most this stalls the run; a rise above it is an ascent
STEP_TOL = 1e-9  # a step that moves no entry of the split control by more stalls it
MAX_ITER = 50  # the iteration cap


@dataclass
class ControlSignal:
    """Piecewise-constant control: samples[k] holds on [k*delta, (k+1)*delta)."""

    delta: float
    samples: np.ndarray  # (N, m)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 2 or self.samples.shape[0] < 1 or self.samples.shape[1] < 1:
            raise DimensionError(f"samples must be (N, m), got {self.samples.shape}")
        if not np.abs(self.samples).max() <= 1.0 + _BOX_SLACK:  # also False for NaN
            if not np.isfinite(self.samples).all():
                raise DomainError("samples contain non-finite entries")
            raise DomainError("samples exceed the unit amplitude bound")
        if not is_number(self.delta) or self.delta <= 0:
            raise DomainError(f"delta must be positive, got {self.delta}")

    @property
    def N(self) -> int:
        return self.samples.shape[0]

    @property
    def m(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class DcaConfig:
    """Settings of a DC run.  Every run starts from the l1 LP's vertex, so
    ``warm_start`` has one legal value, ``"l1"``; the field stays so that
    configs which name it keep loading."""

    warm_start: str = "l1"

    def __post_init__(self):
        if self.warm_start != "l1":
            raise ParameterError(f"warm_start must be 'l1', got {self.warm_start!r}")


@dataclass
class DcaResult:
    z_star: np.ndarray  # the last LP's vertex, unclipped; u_star = recombine(z_star)
    u_star: ControlSignal
    cost_history: list[float]
    iterations: int
    lp_solves: int
    l0: float
    feas_residual: float
    complementarity_violation: float
    bob_deviation: float
    stop_reason: str
    feas_history: list[float] = field(default_factory=list)
    max_kkt_residual: float = 0.0


def split_control(u: ControlSignal) -> np.ndarray:
    """The stacked split z = [v[0]; w[0]; ...; v[N-1]; w[N-1]] of ``u``, with
    v = max(u, 0) and w = max(-u, 0) samplewise; shape (2*m*N,)."""
    v = np.maximum(u.samples, 0.0)
    w = np.maximum(-u.samples, 0.0)
    return np.hstack([v, w]).reshape(-1)


def recombine(z: np.ndarray, delta: float, m: int) -> ControlSignal:
    """Inverse of the split, u = v - w samplewise, after clipping z to [0, 1]:
    an LP vertex's entry at -1e-14 gives u = 0.  The one split-to-control map."""
    vw = z.clip(0.0, 1.0).reshape(-1, 2 * m)
    return ControlSignal(delta, vw[:, :m] - vw[:, m:])


def cost_jd(pen: Penalty, z: np.ndarray) -> float:
    """Discrete objective: sum(z) minus the summed gaps, per sample (no delta
    factor).  Refuses a split that leaves [0, 1] by more than ``_BOX_SLACK``."""
    if z.size and not (z.min() >= -_BOX_SLACK and z.max() <= 1.0 + _BOX_SLACK):  # False for NaN
        raise DomainError("split control leaves [0, 1] beyond tol or is not finite")
    zc = z.clip(0.0, 1.0)  # the gaps are phi(zc)'s, unchecked: zc is in the box
    return float(zc.sum() - (np.abs(zc) - _psi_abs(pen, np.abs(zc))).sum())


def l0_measure(u: ControlSignal) -> float:
    """Support measure: delta times the number of samples with |u| > L0_THRESHOLD."""
    return float(u.delta * np.count_nonzero(np.abs(u.samples) > L0_THRESHOLD))


def bang_off_bang_deviation(u: ControlSignal) -> float:
    """Max samplewise distance to the three-point set {-1, 0, 1}."""
    a = np.abs(u.samples)
    return float(np.minimum(a, np.abs(a - 1.0)).max())


def checked_lp(sol: LpSolution, what: str) -> LpSolution:
    """Return an optimal LP solution; raise for the other statuses.

    ``InfeasibleProblemError`` carries the phase-1 certificate;
    ``NumericalError`` names the failed LP (``what``), its equality and KKT
    residuals and the tolerance ``lp.TOL`` the solve held both to.
    """
    if sol.status == INFEASIBLE:
        raise InfeasibleProblemError(
            f"no admissible control reaches the origin "
            f"(phase-1 certificate {sol.phase1_value:.6e})",
            certificate=sol.phase1_value,
        )
    if sol.status == NUMERICAL_FAILURE:
        raise NumericalError(f"LP failure in {what} (equality residual {sol.eq_residual:.3e}, "
                             f"KKT residual {sol.kkt_residual:.3e}, tolerance {TOL:.3e})")
    return sol


def solve_l1(dp: DiscreteProblem, start: LpStart | None = None) -> LpSolution:
    """The plain l1 LP, min sum(z) over Phi z = -zeta, 0 <= z <= 1, from
    ``start``: the convex baseline and every DC run's start.  Its status is
    unchecked; ``l1_result`` and ``run_dca`` check it."""
    return solve_lp(LpProblem(np.ones(2 * dp.m * dp.N), dp.Phi, -dp.zeta), start=start)


def l1_result(dp: DiscreteProblem, l1: LpSolution) -> DcaResult:
    """The l1 LP's solution ``l1`` measured as a one-LP run whose one cost
    is J_d = sum of the clipped z."""
    sol = checked_lp(l1, "the l1 baseline")
    return _result(dp, sol.z, cost_history=[float(sol.z.clip(0.0, 1.0).sum())],
                   feas_history=[sol.eq_residual], iterations=1, lp_solves=1,
                   stop_reason=sol.status, max_kkt_residual=sol.kkt_residual)


def _result(dp: DiscreteProblem, z: np.ndarray, **run) -> DcaResult:
    """The ``DcaResult`` of a run that ended on the vertex ``z``: its control,
    l0, bang-off-bang deviation, complementarity and last residual, with the
    run's own record ``run`` for the other fields."""
    m = dp.m
    u_star = recombine(z, dp.delta, m)
    vw = z.reshape(dp.N, 2 * m)
    comp = float(np.minimum(vw[:, :m], vw[:, m:]).max(initial=0.0))
    return DcaResult(z_star=z, u_star=u_star, l0=l0_measure(u_star),
                     feas_residual=run["feas_history"][-1], complementarity_violation=comp,
                     bob_deviation=bang_off_bang_deviation(u_star), **run)


def run_dca(dp: DiscreteProblem, pen: Penalty, cfg: DcaConfig = DcaConfig(),
            l1: LpSolution | None = None) -> DcaResult:
    """Iterate linearize-and-solve from the l1 LP's vertex.

    The run's first LP is the plain l1 LP (``solve_l1``); its cost and
    residual open ``cost_history`` and ``feas_history``, and it counts as
    one of the run's LPs, so ``lp_solves`` is ``iterations + 1``.

    Every LP of the run shares dp's feasible set, so phase 1 runs at most
    once, and each LP starts phase 2 from the basis the one before it ended
    on.  ``l1``, the caller's ``solve_l1(dp)``, spares the run phase 1: its
    first LP starts from that basis, makes no pivots and returns ``l1``'s
    vertex, so the result is the same bit for bit.  A solution for another
    problem is refused at the first LP with ``ParameterError``
    (``DimensionError`` if its size differs).  ``cfg`` is not read: its one
    field, ``warm_start``, has one legal value.

    ``stop_reason`` is ``"cost_stall"``, ``"step_stall"``, ``"max_iter"`` or
    ``"ascent"``: an LP whose vertex raises ``cost_jd`` by more than
    ``COST_TOL`` is rejected and the run keeps the previous iterate; that LP
    counts in ``iterations``, ``lp_solves`` and ``max_kkt_residual`` only.

    Raises ``AssumptionViolationError`` (with the frozen report) for an
    inadmissible penalty, ``InfeasibleProblemError`` (with the phase-1
    certificate) when no admissible control reaches the origin, and
    ``NumericalError`` if an LP subproblem fails.
    """
    report = validate_assumption(pen)
    if not report.passed:
        raise AssumptionViolationError(
            f"{pen.kind}: structural conditions violated: {list(report.violated)}"
            f" (worst margin {report.worst_margin:.3e} at u={report.witness_u})",
            report=report,
        )
    sol = checked_lp(solve_l1(dp, None if l1 is None else l1.start), "the l1 warm start")
    z, max_kkt, prev_cost = sol.z, sol.kkt_residual, cost_jd(pen, sol.z)
    cost_history, feas_history = [prev_cost], [sol.eq_residual]
    beq = -dp.zeta
    stop_reason = "max_iter"
    for iterations in range(1, MAX_ITER + 1):
        s = phi_subgradient(pen, z.clip(0.0, 1.0))
        sol = checked_lp(solve_lp(LpProblem(1.0 - s, dp.Phi, beq), start=sol.start),
                         f"iteration {iterations}")
        max_kkt = max(max_kkt, sol.kkt_residual)
        cost_new = cost_jd(pen, sol.z)
        if cost_new - prev_cost > COST_TOL:
            stop_reason = "ascent"
            break
        cost_history.append(cost_new)
        feas_history.append(sol.eq_residual)
        step = float(np.abs(sol.z - z).max())
        done_cost = abs(cost_new - prev_cost) <= COST_TOL
        z, prev_cost = sol.z, cost_new
        if done_cost:
            stop_reason = "cost_stall"
            break
        if step <= STEP_TOL:
            stop_reason = "step_stall"
            break

    return _result(dp, z, cost_history=cost_history, feas_history=feas_history,
                   iterations=iterations, lp_solves=iterations + 1, stop_reason=stop_reason,
                   max_kkt_residual=max_kkt)
