"""Bounded-variable linear programming by a two-phase revised simplex.

Problems have the fixed form

    minimize    c @ z
    subject to  Aeq @ z = beq,    0 <= z <= 1.

The equality-row count equals the state dimension of the control problems
this package builds (one to about ten), so the basis is kept as a dense
inverse.  Each basis change updates it by one rank-1 eta step, the
product-form update of Dantzig and Orchard-Hays, and the basic values are
carried by the step, as plain floats beside their bounds: over so few rows
the ratio test costs less in Python than numpy's per-call overhead does.
Every ``_REFACTOR_EVERY`` (32) basis changes, after every run of box flips,
and before a pass returns, the basis is refactored: the basic values and the
duals are solved from scratch.  What ``solve_lp`` returns, and checks against
``TOL``, is therefore always the fresh solve of the final basis
(possibly made by the call that produced the start), never a carried value.
Because every variable is boxed the problem is never unbounded, and every
optimum returned is a vertex: at most one basic variable per row sits
strictly between its bounds.

Phase 1 starts from signed artificial columns and minimizes their sum; an
optimum above ``TOL`` is returned as the infeasibility certificate.
Pricing is most-negative-reduced-cost with first-index tie-breaking,
switching to Bland's smallest-index rule after a run of degenerate pivots,
which makes the pivot sequence (and therefore the output bytes) reproducible.

Most phase-1 pivots of the l1 LP are box flips: the entering column reaches
its other bound before any basic variable reaches one of its own.  A flip
leaves the basis, and so the duals and the entering order, unchanged, so one
pricing pass serves a whole run of flips.  After a flip the pass goes on down
the same order (by reduced cost with first-index ties, or by index under
Bland's rule), putting each next column through the entering column's ratio
test, against the basic values the flips before it leave behind, and
flipping it, until the first one that would change the basis; the next pass
re-prices and pivots on that one.  Apart from exact ratio ties, which the
carried basic values may round otherwise than a fresh solve, the pivot
sequence is the one that pricing before every flip would make.  Every flip
counts as an iteration.

Each call is one pass, phase 1 only without a start and phase 2 only from
one, and one verdict on the last phase's point.  Phase 1 runs once per
feasible set, not once per objective.  A solve that reaches a feasible basis
returns the basis it ended on as ``LpSolution.start``: the optimal basis
when phase 2 verifies, otherwise the basis phase 2 began from.  Either is
primal feasible for ``(Aeq, beq)`` and a new cost never breaks primal
feasibility, so passing it back as ``solve_lp(..., start=...)`` skips phase
1 and starts phase 2 from a copy of it.  The start holds the augmented
matrix, phase 2's bounds and the fresh point of its basis, so a warm solve
builds none of them and solves only for the duals; a cold solve's phase 2
likewise starts from phase 1's point.  The verdict takes the equality
residual once and ``kkt_residual``'s value from it.  A chain of nearby
objectives (the DC iteration) then re-optimizes from the previous optimum in
a few pivots, and an objective re-solved from its own returned start makes
none.  A warm solve is optimal at the same verified tolerance as a solve
from scratch, but on ties it may return another optimal vertex; it runs no
phase 1 and reports 0.0 for it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import as_matrix, as_vector

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NUMERICAL_FAILURE = "numerical_failure"

TOL = 1e-9  # every verdict's bound on the equality, KKT and phase-1 residuals
_LOWER, _UPPER, _BASIC = 0, 1, 2
_PIVOT_TOL = 1e-11
_DEGEN_TOL = 1e-12
_REFACTOR_EVERY = 32  # basis changes between fresh solves of the basis
_BOUND_WINDOW = 1e-6  # the KKT test puts a coordinate this near a bound on it
_SIGN = np.array([1.0, -1.0, 0.0])  # pricing sign by status: _LOWER, _UPPER, _BASIC


@dataclass
class LpProblem:
    """min c @ z  s.t.  Aeq @ z = beq, 0 <= z <= 1, with at least one row
    and one column (``as_matrix``)."""

    c: np.ndarray
    Aeq: np.ndarray
    beq: np.ndarray

    def __post_init__(self):
        self.Aeq = as_matrix(self.Aeq, "Aeq")
        self.c = as_vector(self.c, "c")
        self.beq = as_vector(self.beq, "beq")
        n, q = self.Aeq.shape
        if self.c.shape[0] != q:
            raise DimensionError(f"c has length {self.c.shape[0]}, expected {q}")
        if self.beq.shape[0] != n:
            raise DimensionError(f"beq has length {self.beq.shape[0]}, expected {n}")


@dataclass(frozen=True)
class LpStart:
    """The basis a solve over ``Aeq @ z = beq, 0 <= z <= 1`` ended on:
    primal feasible, so reusable as the phase-2 start of any objective over
    that set.

    ``A`` is the augmented matrix ``[Aeq | diag(signs)]``, one signed
    artificial column per row, ``beq`` a private copy, and ``upper`` phase
    2's read-only upper bounds (artificials pinned at 0), all three made when
    phase 1 ran and shared by every start derived from it.  ``basis`` and
    ``status`` index ``A``'s columns, and ``x`` is the fresh solve of that
    basis.  Nothing writes to any of the arrays; ``solve_lp`` copies ``basis``,
    ``status`` and ``x``.  A start keeps no phase-1 value: phase 1 makes one
    only from an optimum at most ``TOL``.
    """

    A: np.ndarray
    beq: np.ndarray
    basis: np.ndarray
    status: np.ndarray
    x: np.ndarray
    upper: np.ndarray

    def matches(self, problem: LpProblem) -> bool:
        """Whether this start was built for ``problem``'s feasible set."""
        Aeq = self.A[:, :-self.beq.size]  # shape compared too: no prefix matches
        return np.array_equal(Aeq, problem.Aeq) and np.array_equal(self.beq, problem.beq)


@dataclass
class LpSolution:
    """Outcome of one ``solve_lp`` call.

    ``iterations`` counts the pivots made by this call, each box flip as one:
    phase 1's (only when it ran) plus phase 2's.  ``phase1_value`` is this
    call's phase-1 optimum (inf if phase 1 failed, 0.0 if it did not run).
    ``start`` is the basis this solve ended on, for reuse by later objectives
    over the same feasible set: the optimal basis when the solution verified,
    the basis phase 2 began from when it did not, and None when phase 1 found
    no feasible basis.
    """

    z: np.ndarray
    objective: float
    status: str
    eq_residual: float
    kkt_residual: float
    iterations: int
    duals: np.ndarray
    phase1_value: float
    start: LpStart | None = None


def kkt_residual(problem: LpProblem, z, duals) -> float:
    """Max violation of the optimality system at (z, duals).

    Components: equality residual, box violation, and the reduced-cost signs
    (nonnegative at the lower bound, nonpositive at the upper bound, zero for
    interior coordinates).  Coordinates within ``_BOUND_WINDOW`` (1e-6) of a
    bound are classified as sitting on it.
    """
    z = as_vector(z, "z")
    duals = as_vector(duals, "duals")
    n, q = problem.Aeq.shape
    if z.shape[0] != q or duals.shape[0] != n:
        raise DimensionError("z/duals lengths do not match the problem")
    eq = float(np.abs(problem.Aeq @ z - problem.beq).max())
    return _kkt(problem, z, duals, eq)


def _kkt(problem, z, duals, eq):
    """``kkt_residual`` of checked arrays, given their equality residual ``eq``."""
    box = max(0.0, -z.min(), z.max() - 1.0)
    d = problem.c - duals @ problem.Aeq
    viol = np.abs(d)  # inside the box; at a bound a right-signed d gives <= 0
    np.negative(d, out=viol, where=z <= _BOUND_WINDOW)
    np.positive(d, out=viol, where=z >= 1.0 - _BOUND_WINDOW)
    return float(max(eq, box, viol.max(initial=0.0)))


def _ratios(x_basic, dirw, bup):
    """Steps at which each basic variable reaches 0 or its upper bound ``bup``
    when the entering variable moves the basic values by ``-t * dirw`` from
    ``x_basic``; inf where ``dirw`` does not reach one.  Lists of floats in
    and out; the entering column and every column of a flip run go through it."""
    steps = []
    for x, d, up in zip(x_basic, dirw, bup):
        if d > _PIVOT_TOL:
            t = x / d
        elif d < -_PIVOT_TOL:
            t = (up - x) / -d
        else:
            t = math.inf
        steps.append(t if t > 0.0 else 0.0)
    return steps


def _simplex(A, b, c, upper, basis, status, dual_tol, max_iter, x_start=None):
    """Pivot the current basis to optimality for objective c over 0 <= x <= upper.

    A refactorization solves for the basic values and the duals from
    scratch; the first one takes the basic values from a copy of
    ``x_start``, the fresh solve of the starting basis, when given.  Between
    refactorizations the pivots carry them: the basis inverse by one rank-1
    eta step per basis change, the basic values (as floats, beside their
    bounds) by the step, the duals as ``c_B @ Binv``, and each column's
    pricing sign (+1 at its lower bound, -1 at its upper, 0 when basic or
    fixed) by the pivot.  The inverse itself is computed only when a pass
    pivots, so a solve that makes no pivot costs just the two fresh solves
    (one with ``x_start``).  The basis is refactored every
    ``_REFACTOR_EVERY`` basis changes, after every flip run, and before
    returning, so the returned ``x`` and duals always come from the fresh
    solve of the final basis.

    Each pass prices every column, into one buffer that every pass reuses,
    and enters the one with the most negative reduced cost, first index on
    ties (Bland's smallest index after a run of degenerate pivots).  When
    that column's box is no longer than the ratio test's step it flips to its
    other bound, and the pass goes on down the same entering order, putting
    each further column through the same ratio test (``_ratios``) and
    flipping it while its box is no longer than the step.  The first column
    that would change the basis is left to the next pass, which re-prices and
    pivots on it.  Each flip counts as one iteration.

    Mutates ``basis`` and ``status`` in place.  Returns
    ``(outcome, x, duals, iterations)`` with outcome one of ``"optimal"``,
    ``"singular"``, ``"iteration_limit"``.
    """
    qt = A.shape[1]
    free = upper > 0.0
    sgn = _SIGN[status]
    sgn[~free] = 0.0
    bland = False
    degen_run = 0
    bland_after = 3 * qt
    iters = 0
    refactor = True
    score = np.empty(qt)
    while True:
        if refactor:
            B = A[:, basis]
            try:
                if x_start is None:
                    x = np.where(status == _UPPER, upper, 0.0)
                    x[basis] = 0.0
                    x_basic = np.linalg.solve(B, b - A @ x).tolist()
                else:
                    x, x_start = x_start.copy(), None
                    x_basic = x[basis].tolist()
                duals = np.linalg.solve(B.T, c[basis])
            except np.linalg.LinAlgError:
                return "singular", None, None, iters
            Binv, changes, refactor = None, 0, False
        else:
            duals = c[basis] @ Binv
        np.matmul(duals, A, out=score)
        np.subtract(c, score, out=score)
        score *= sgn  # negative where entering improves
        if bland:
            j = int((score < -dual_tol).argmax())
        else:
            j = int(score.argmin())
        optimal = score[j] >= -dual_tol
        if optimal or iters >= max_iter:
            if Binv is not None:  # carried values: refactor first
                refactor = True
                continue
            x[basis] = x_basic
            return ("optimal" if optimal else "iteration_limit"), x, duals, iters
        if Binv is None:  # the basic bounds come with it, carried by each basis change
            Binv = np.linalg.inv(B)
            bup = upper[basis].tolist()
        iters += 1
        from_lower = status[j] == _LOWER
        w = Binv @ A[:, j]
        dirw = (w if from_lower else -w).tolist()  # basic values move by -t * dirw
        ratios = _ratios(x_basic, dirw, bup)
        step = min(ratios)
        t_box = float(upper[j])
        if t_box <= step:
            # A flip leaves the basis, and so the duals and the entering
            # order, as they were: go on down that order while the columns
            # flip, within the iteration budget.
            cand = score < -dual_tol
            cand[j] = False
            order = cand.nonzero()[0]
            if not bland:
                order = order[np.argsort(score[order], kind="stable")]
            order = order[:max_iter - iters]
            D = (Binv @ A[:, order]) * sgn[order]  # each column's dirw
            run = [j]
            for k, d in zip(order, D.T):
                # move by the last flip, then test column k as j was tested
                x_basic = [v - t_box * e for v, e in zip(x_basic, dirw)]
                t_box, dirw = float(upper[k]), d.tolist()
                if t_box > min(_ratios(x_basic, dirw, bup)):
                    break
                run.append(k)
            status[run] = np.where(status[run] == _LOWER, _UPPER, _LOWER)
            sgn[run] *= -1.0
            iters += len(run) - 1
            degen_run, refactor = 0, True  # a flip's step is a whole box, at least 1
            continue
        x_basic = [v - step * e for v, e in zip(x_basic, dirw)]
        tie = step + _DEGEN_TOL
        r = min((i for i, t in enumerate(ratios) if t <= tie), key=basis.__getitem__)
        leaving = basis[r]
        status[leaving] = _LOWER if dirw[r] > 0 else _UPPER
        sgn[leaving] = (1.0 if dirw[r] > 0 else -1.0) if free[leaving] else 0.0
        basis[r] = j
        status[j] = _BASIC
        sgn[j] = 0.0
        bup[r] = float(upper[j])
        x_basic[r] = step if from_lower else bup[r] - step
        piv = Binv[r] / w[r]
        Binv -= np.outer(w, piv)
        Binv[r] = piv
        changes += 1
        refactor = changes >= _REFACTOR_EVERY
        if step > _DEGEN_TOL:
            degen_run = 0
        else:
            degen_run += 1
            if degen_run >= bland_after:
                bland = True


def solve_lp(problem: LpProblem, start: LpStart | None = None) -> LpSolution:
    """Solve the boxed LP; statuses: optimal, infeasible, numerical_failure.

    One pass: phase 1 only without ``start``, phase 2 only from a start (the
    one given, or phase 1's when its optimum is at most ``TOL``), then one
    verdict on the last phase's point: the equality residual once, and the
    KKT residual (``kkt_residual``'s, bit for bit) of a phase-2 optimum only.
    ``optimal``: a phase-2 vertex with equality and KKT residuals at most
    ``TOL`` (verified, not assumed).
    ``infeasible``: a phase-1 optimum above ``TOL``, carried in
    ``phase1_value`` with the closest point found, whose equality residual it
    bounds.  ``numerical_failure``: anything else (a singular basis or the
    iteration cap in either phase, or a phase-2 point that fails the test),
    with KKT residual inf unless phase 2 reached an optimum.

    With ``start`` (the ``start`` of an earlier solution over the same
    ``Aeq`` and ``beq``) phase 1 is skipped and phase 2 begins from the basis
    that solve ended on.  The result is optimal at the same verified
    tolerance as a solve without it, but on ties it may be another optimal
    vertex; re-solving an objective from its own returned start makes no
    pivots and returns the same ``z``.  A start built for another feasible set
    raises ``ParameterError``.
    """
    if start is not None and not start.matches(problem):
        raise ParameterError("start was built for another Aeq or beq")
    n, q = problem.Aeq.shape
    r = problem.beq
    max_iter = 50 * (q + n) + 1000
    dual_tol = 0.5 * TOL
    phase1, iters = 0.0, 0
    if start is None:
        A = np.hstack([problem.Aeq, np.diag(np.where(r < 0, -1.0, 1.0))])
        upper = np.ones(q + n)
        upper[q:] = float(np.sum(np.abs(r))) + 1.0
        status = np.full(q + n, _LOWER, dtype=np.int8)
        status[q:] = _BASIC
        basis = np.arange(q, q + n)
        c1 = np.concatenate([np.zeros(q), np.ones(n)])
        out, x, duals, iters = _simplex(A, r, c1, upper, basis, status, dual_tol, max_iter)
        phase1 = float(c1 @ x) if out == "optimal" else float("inf")
        if phase1 <= TOL:
            upper[q:] = 0.0  # artificials pinned for phase 2
            upper.flags.writeable = False
            start = LpStart(A, r.copy(), basis.copy(), status.copy(), x, upper)
    if start is not None:
        basis, status = start.basis.copy(), start.status.copy()
        c2 = np.concatenate([problem.c, np.zeros(n)])
        out, x, duals, it = _simplex(start.A, r, c2, start.upper, basis, status, dual_tol,
                                     max_iter, start.x)
        iters += it

    z = np.zeros(q) if x is None else x[:q].copy()
    eq = float(np.abs(problem.Aeq @ z - problem.beq).max())
    solved = start is not None and out == "optimal"  # a phase-2 optimum
    kkt = _kkt(problem, z, duals, eq) if solved else float("inf")
    if eq <= TOL and kkt <= TOL:
        verdict = OPTIMAL
        start = LpStart(start.A, start.beq, basis, status, x, start.upper)
    else:  # a finite phase-1 optimum without a start is above TOL
        verdict = INFEASIBLE if start is None and np.isfinite(phase1) else NUMERICAL_FAILURE
    return LpSolution(z, float(problem.c @ z), verdict, eq, kkt, iters,
                      np.zeros(n) if duals is None else duals.copy(), phase1, start)
