from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import handsoff.lp
from handsoff.dca import checked_lp
from handsoff.errors import DimensionError, DomainError, NumericalError, ParameterError
from handsoff.lp import (
    _BASIC,
    _LOWER,
    _UPPER,
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    LpProblem,
    LpSolution,
    _simplex,
    kkt_residual,
    solve_lp,
)
from handsoff.system import ControlProblem, LinearSystem, build_discrete, double_integrator


def enumerate_optimum(c, A, b, tol=1e-9):
    """Check every basic solution: basis columns solved, the rest at a bound."""
    n, q = A.shape
    nonbasis_patterns = np.array(list(product((0.0, 1.0), repeat=q - n)))
    best = np.inf
    for basis in combinations(range(q), n):
        basis = list(basis)
        rest = [j for j in range(q) if j not in basis]
        try:
            zb = np.linalg.solve(A[:, basis], b[:, None] - A[:, rest] @ nonbasis_patterns.T)
        except np.linalg.LinAlgError:
            continue
        ok = np.all((zb >= -tol) & (zb <= 1.0 + tol), axis=0)
        if not ok.any():
            continue
        obj = c[basis] @ zb[:, ok] + nonbasis_patterns[ok] @ c[rest]
        best = min(best, float(obj.min()))
    return best


def random_feasible_problem(rng, rows, cols):
    A = rng.normal(size=(rows, cols))
    b = A @ rng.uniform(0.0, 1.0, size=cols)
    c = rng.normal(size=cols)
    return LpProblem(c=c, Aeq=A, beq=b)


# ---------------------------------------------------------------------------
# hand-checked instances

def test_unit_segment():
    sol = solve_lp(LpProblem(c=np.ones(2), Aeq=np.array([[1.0, 1.0]]), beq=np.array([1.0])))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.eq_residual <= 1e-9
    assert sol.kkt_residual <= 1e-9
    assert sorted(sol.z) == pytest.approx([0.0, 1.0], abs=1e-9)


def test_constant_objective_returns_a_vertex():
    sol = solve_lp(LpProblem(c=np.array([1.0, -1.0]),
                             Aeq=np.array([[1.0, -1.0]]), beq=np.array([0.0])))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    corner = min(np.max(np.abs(sol.z)), np.max(np.abs(sol.z - 1.0)))
    assert corner <= 1e-9  # (0, 0) or (1, 1), never the interior of the segment


def test_infeasible_with_certificate():
    sol = solve_lp(LpProblem(c=np.zeros(1), Aeq=np.array([[1.0]]), beq=np.array([2.0])))
    assert sol.status == INFEASIBLE
    assert sol.phase1_value == pytest.approx(1.0, abs=1e-9)
    # the returned point is the closest the box allows
    assert sol.z[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.eq_residual == pytest.approx(1.0, abs=1e-9)


def test_negative_rhs_infeasible():
    sol = solve_lp(LpProblem(c=np.zeros(2), Aeq=np.array([[1.0, 1.0]]), beq=np.array([-0.5])))
    assert sol.status == INFEASIBLE
    assert sol.phase1_value == pytest.approx(0.5, abs=1e-9)


def test_redundant_rows():
    sol = solve_lp(LpProblem(c=np.array([1.0, 2.0]),
                             Aeq=np.array([[1.0, 1.0], [1.0, 1.0]]),
                             beq=np.array([1.0, 1.0])))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.z == pytest.approx([1.0, 0.0], abs=1e-9)


def test_zero_row_zero_rhs():
    # Zero right-hand sides: a zero row, and the double integrator started at
    # the origin, whose one l1-optimal control is zero.
    origin = build_discrete(ControlProblem(double_integrator(), np.zeros(2), 1.0), 5)
    for Aeq, beq in [(np.zeros((1, 2)), np.zeros(1)), (origin.Phi, -origin.zeta)]:
        sol = solve_lp(LpProblem(c=np.ones(Aeq.shape[1]), Aeq=Aeq, beq=beq))
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.z, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# kkt residual

def test_kkt_zero_at_true_optimum():
    p = LpProblem(c=np.array([1.0, 0.0]), Aeq=np.array([[1.0, 1.0]]), beq=np.array([1.0]))
    assert kkt_residual(p, np.array([0.0, 1.0]), np.array([0.0])) == 0.0


def test_kkt_flags_suboptimal_vertex():
    p = LpProblem(c=np.array([1.0, 0.0]), Aeq=np.array([[1.0, 1.0]]), beq=np.array([1.0]))
    # feasible vertex, zero duals: the positive reduced cost at the upper
    # bound is the whole violation
    assert kkt_residual(p, np.array([1.0, 0.0]), np.array([0.0])) == pytest.approx(1.0)


def test_kkt_measures_equality_residual():
    p = LpProblem(c=np.zeros(2), Aeq=np.array([[1.0, 1.0]]), beq=np.array([1.0]))
    assert kkt_residual(p, np.array([0.6, 0.3]), np.array([0.0])) == pytest.approx(0.1)


def test_kkt_measures_box_violation():
    p = LpProblem(c=np.zeros(2), Aeq=np.array([[1.0, 1.0]]), beq=np.array([1.1]))
    assert kkt_residual(p, np.array([1.1, 0.0]), np.array([0.0])) == pytest.approx(0.1)


def test_kkt_reports_solver_value():
    rng = np.random.default_rng(3)
    p = random_feasible_problem(rng, 2, 6)
    sol = solve_lp(p)
    assert sol.status == OPTIMAL
    assert kkt_residual(p, sol.z, sol.duals) == sol.kkt_residual


def test_kkt_shape_checks():
    p = LpProblem(c=np.zeros(2), Aeq=np.array([[1.0, 1.0]]), beq=np.array([1.0]))
    with pytest.raises(DimensionError):
        kkt_residual(p, np.zeros(3), np.zeros(1))
    with pytest.raises(DimensionError):
        kkt_residual(p, np.zeros(2), np.zeros(2))


# ---------------------------------------------------------------------------
# randomized cross-check against exhaustive vertex enumeration

def test_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(50):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(rows + 1, 9))
        p = random_feasible_problem(rng, rows, cols)
        sol = solve_lp(p)
        assert sol.status == OPTIMAL, f"trial {trial}"
        best = enumerate_optimum(p.c, p.Aeq, p.beq)
        assert sol.objective == pytest.approx(best, abs=1e-9), f"trial {trial}"
        assert sol.eq_residual <= 1e-9
        assert sol.kkt_residual <= 1e-9
        interior = np.sum((sol.z > 1e-7) & (sol.z < 1.0 - 1e-7))
        assert interior <= rows, f"trial {trial}: not a vertex"


def test_deterministic_resolve():
    rng = np.random.default_rng(11)
    p = random_feasible_problem(rng, 3, 8)
    a = solve_lp(p)
    b = solve_lp(p)
    assert np.array_equal(a.z, b.z)
    assert a.iterations == b.iterations
    assert a.objective == b.objective


# ---------------------------------------------------------------------------
# validation

def test_problem_shape_validation():
    with pytest.raises(DimensionError):
        LpProblem(c=np.zeros(3), Aeq=np.ones((1, 2)), beq=np.ones(1))
    with pytest.raises(DimensionError):
        LpProblem(c=np.zeros(2), Aeq=np.ones((1, 2)), beq=np.ones(2))
    with pytest.raises(DomainError):
        LpProblem(c=np.array([np.nan, 0.0]), Aeq=np.ones((1, 2)), beq=np.ones(1))


# ---------------------------------------------------------------------------
# phase 1 once per feasible set: each solve starts from the basis the last ended on

def boxed_lp(seed, rows, cols, kind):
    """A random feasible set of the given kind: ``feasible`` (b from an
    interior point), ``degenerate`` (integer rows, a repeated row and b from a
    box vertex) or ``infeasible`` (row 0 asks more than the box can give)."""
    rng = np.random.default_rng(seed)
    if kind == "degenerate":
        A = rng.integers(-2, 3, size=(rows, cols)).astype(float)
        if rows > 1:
            A[-1] = A[0]
        b = A @ rng.integers(0, 2, size=cols).astype(float)
    else:
        A = rng.normal(size=(rows, cols))
        b = A @ rng.uniform(0.0, 1.0, size=cols)
        if kind == "infeasible":
            b[0] = np.sum(np.abs(A[0])) + 1.0
    return A, b


def objectives(seed, cols):
    """Dense, tied (small integers), constant and zero costs."""
    rng = np.random.default_rng([seed, 1])
    return [rng.normal(size=cols), rng.integers(-1, 2, size=cols).astype(float),
            np.ones(cols), np.zeros(cols), -np.ones(cols)]


def assert_same_solution(a: LpSolution, b: LpSolution):
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.duals, b.duals)
    assert a.objective == b.objective
    assert a.status == b.status
    assert a.eq_residual == b.eq_residual
    assert a.kkt_residual == b.kkt_residual
    assert a.phase1_value == b.phase1_value


def is_vertex(z, rows):
    return np.sum((z > 1e-7) & (z < 1.0 - 1e-7)) <= rows


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 3),
    extra=st.integers(1, 6),
    kind=st.sampled_from(["feasible", "degenerate", "infeasible"]),
)
def test_shared_start_matches_fresh_solves(seed, rows, extra, kind):
    # A warm solve may pick another tied vertex, never a worse objective.
    A, b = boxed_lp(seed, rows, rows + extra, kind)
    costs = objectives(seed, rows + extra)
    first = solve_lp(LpProblem(costs[0], A, b))
    if kind == "infeasible":
        assert first.status == INFEASIBLE and first.start is None
        return
    start = first.start
    assert start is not None
    for c in costs:
        p = LpProblem(c, A, b)
        fresh = solve_lp(p)
        basis, status = start.basis.copy(), start.status.copy()
        warm = solve_lp(p, start=start)
        assert fresh.status == OPTIMAL and warm.status == OPTIMAL
        assert abs(warm.objective - fresh.objective) <= 1e-9 * (1.0 + abs(fresh.objective))
        assert warm.kkt_residual <= 1e-9 and warm.eq_residual <= 1e-9
        assert is_vertex(warm.z, rows)
        assert np.array_equal(start.basis, basis) and np.array_equal(start.status, status)
        start = warm.start


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 3),
    extra=st.integers(1, 6),
    kind=st.sampled_from(["feasible", "degenerate"]),
)
def test_resolve_from_own_start_makes_no_pivots(seed, rows, extra, kind):
    A, b = boxed_lp(seed, rows, rows + extra, kind)
    start = None
    for c in objectives(seed, rows + extra):
        p = LpProblem(c, A, b)
        sol = solve_lp(p, start=start)
        again = solve_lp(p, start=sol.start)
        assert again.iterations == 0
        assert_same_solution(again, sol)
        start = sol.start


def test_shared_start_matches_enumeration():
    rng = np.random.default_rng(7)
    for trial in range(30):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(rows + 1, 9))
        A, b = boxed_lp(int(rng.integers(2**31)), rows, cols, "feasible")
        start = solve_lp(LpProblem(np.ones(cols), A, b)).start
        for c in objectives(trial, cols):
            sol = solve_lp(LpProblem(c, A, b), start=start)
            assert sol.status == OPTIMAL, f"trial {trial}"
            assert sol.objective == pytest.approx(enumerate_optimum(c, A, b), abs=1e-9)
            assert sol.kkt_residual <= 1e-9
            assert is_vertex(sol.z, rows), f"trial {trial}: not a vertex"
            start = sol.start


def test_start_for_another_feasible_set_is_refused():
    rng = np.random.default_rng(5)
    p = random_feasible_problem(rng, 2, 6)
    start = solve_lp(p).start
    other_b = LpProblem(p.c, p.Aeq, p.beq + 1e-3)
    other_A = LpProblem(p.c, p.Aeq * (1.0 + 1e-12), p.beq)
    wider = LpProblem(np.zeros(7), np.hstack([p.Aeq, np.ones((2, 1))]), p.beq)
    for bad in (other_b, other_A, wider):
        with pytest.raises(ParameterError):
            solve_lp(bad, start=start)
    assert solve_lp(LpProblem(p.c.copy(), p.Aeq.copy(), p.beq.copy()), start=start).status == OPTIMAL


def test_start_refuses_a_column_prefix():
    # The start's augmented matrix [Aeq | diag(signs)] begins with Aeq, so
    # a problem whose Aeq is a prefix of it must not pass for the same set.
    rng = np.random.default_rng(5)
    p = random_feasible_problem(rng, 2, 6)
    start = solve_lp(p).start
    for cols in (5, 7):
        prefix = LpProblem(np.zeros(cols), start.A[:, :cols], p.beq)
        with pytest.raises(ParameterError):
            solve_lp(prefix, start=start)


def test_start_holds_the_augmented_matrix_and_its_basis_point(monkeypatch):
    p = dense_lp(1)
    n, q = p.Aeq.shape
    cold, stacks = counting_calls(monkeypatch, np, "hstack", lambda: solve_lp(p))
    assert cold.status == OPTIMAL and stacks == 1
    start = cold.start
    assert np.array_equal(start.A, np.hstack([p.Aeq, np.diag(np.where(p.beq < 0, -1.0, 1.0))]))
    # x is the fresh solve of the start's basis, with the artificials at 0
    x = np.where(start.status == _UPPER, 1.0, 0.0)
    x[start.basis] = 0.0
    B = start.A[:, start.basis]
    x[start.basis] = np.linalg.solve(B, p.beq - start.A @ x)
    assert np.array_equal(start.x, x)
    assert np.array_equal(cold.z, x[:q])
    # a warm solve builds no matrix, and with no pivot solves only for the duals
    kept = start.x.copy()
    again, stacks = counting_calls(monkeypatch, np, "hstack", lambda: solve_lp(p, start=start))
    assert stacks == 0 and again.iterations == 0
    _, solves = counting_calls(monkeypatch, np.linalg, "solve", lambda: solve_lp(p, start=start))
    assert solves == 1
    assert_same_solution(again, cold)
    assert np.array_equal(start.x, kept)


def test_start_survives_a_failed_phase_2(monkeypatch):
    # phase 1 ends with no artificial mass, but no rounded vertex meets TOL = 1e-300
    monkeypatch.setattr(handsoff.lp, "TOL", 1e-300)
    rng = np.random.default_rng(1)
    A = rng.normal(size=(2, 5))
    b = A @ rng.uniform(0.0, 1.0, size=5)
    sol = solve_lp(LpProblem(np.ones(5), A, b))
    assert sol.status == NUMERICAL_FAILURE and sol.phase1_value == 0.0
    assert sol.start is not None
    p = LpProblem(-np.ones(5), A, b)
    assert_same_solution(solve_lp(p, start=sol.start), solve_lp(p))


# ---------------------------------------------------------------------------
# box flips: a run of flips shares one pricing pass

def double_integrator_l1_lp(N):
    system = LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
    dp = build_discrete(ControlProblem(system, np.array([1.0, -1.0]), 5.0), N)
    return LpProblem(np.ones(2 * N), dp.Phi, -dp.zeta)


@pytest.mark.parametrize("N, iterations, basis, upper_runs", [
    (1000, 203, [0, 1948], [(2, 350), (1950, 2000)]),
    (4000, 803, [0, 7800], [(2, 1402), (7802, 8000)]),
])
def test_double_integrator_l1_lp_path(N, iterations, basis, upper_runs):
    # Nearly every pivot of this LP is a box flip, in a few long runs; the
    # pins are those of pricing before every flip.
    sol = solve_lp(double_integrator_l1_lp(N))
    assert sol.status == OPTIMAL and sol.iterations == iterations
    status = np.full(2 * N + 2, _LOWER, dtype=np.int8)
    for lo, hi in upper_runs:
        status[lo:hi:2] = _UPPER
    status[basis] = _BASIC
    assert np.array_equal(sol.start.basis, basis)
    assert np.array_equal(sol.start.status, status)


def test_a_flip_run_shares_one_pricing_pass(monkeypatch):
    # Each pricing pass is one np.matmul; pricing before every flip would
    # make about one pass per pivot.
    sol, passes = counting_calls(monkeypatch, np, "matmul",
                                 lambda: solve_lp(double_integrator_l1_lp(1000)))
    assert sol.status == OPTIMAL and sol.iterations == 203
    assert passes <= 10


def flip_heavy_lp(seed, rows, cols, scale, shift):
    """Small coefficients beside a unit column per row, so entering columns
    often reach their other bound before any basic variable does; a cost
    shifted below zero makes most columns want to enter."""
    rng = np.random.default_rng(seed)
    A = scale * rng.uniform(-1.0, 1.0, size=(rows, cols))
    A[:, :rows] += np.eye(rows)
    z = rng.integers(0, 2, size=cols).astype(float)
    z[:rows] = 0.5
    return LpProblem(rng.normal(size=cols) - shift, A, A @ z)


def assert_optimal_vertex(sol, p):
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(enumerate_optimum(p.c, p.Aeq, p.beq), abs=1e-9)
    assert sol.kkt_residual <= 1e-9 and sol.eq_residual <= 1e-9
    assert is_vertex(sol.z, p.Aeq.shape[0])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 2),
    cols=st.integers(3, 12),
    scale=st.sampled_from([0.01, 0.2, 1.0]),
    shift=st.sampled_from([0.0, 1.5]),
)
def test_flip_heavy_lps_match_enumeration(seed, rows, cols, scale, shift):
    p = flip_heavy_lp(seed, rows, cols, scale, shift)
    sol = solve_lp(p)
    assert_optimal_vertex(sol, p)
    assert_optimal_vertex(solve_lp(LpProblem(-p.c, p.Aeq, p.beq), start=sol.start),
                          LpProblem(-p.c, p.Aeq, p.beq))


@pytest.mark.parametrize("max_iter, outcome", [
    (1, "iteration_limit"), (5, "iteration_limit"), (9, "iteration_limit"),
    (10, "iteration_limit"), (11, "optimal"), (50, "optimal"),
])
def test_iteration_limit_cuts_a_flip_run(max_iter, outcome):
    # One basic unit column and eleven columns of 0.01 that all price in with
    # equal reduced costs: eleven flips in one run, no basis change.
    q = 12
    A = np.full((1, q), 0.01)
    A[0, 0] = 1.0
    c = -np.ones(q)
    c[0] = 0.0
    basis = np.array([0])
    status = np.full(q, _LOWER, dtype=np.int8)
    status[0] = _BASIC
    out, x, duals, iters = _simplex(A, np.array([0.5]), c, np.ones(q), basis, status, 1e-10,
                                    max_iter)
    flips = min(max_iter, 11)
    assert (out, iters) == (outcome, flips)
    assert np.array_equal(basis, [0])
    assert np.flatnonzero(status == _UPPER).tolist() == list(range(1, 1 + flips))
    assert x[0] == pytest.approx(0.5 - 0.01 * flips, abs=1e-15)


@pytest.mark.parametrize("max_iter, outcome, objective", [
    (21, "iteration_limit", 0.0), (1000, "optimal", -1.25),
])
def test_bland_rule_ends_a_degenerate_cycle(max_iter, outcome, objective):
    # Beale's (1955) cycling LP from the slack basis, on unit boxes: the
    # most-negative rule makes 3 * 7 degenerate pivots at objective 0, then
    # Bland's smallest-index rule leaves the cycle and reaches the optimum.
    A = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                  [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
    c = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    basis = np.arange(3)
    status = np.full(7, _LOWER, dtype=np.int8)
    status[:3] = _BASIC
    out, x, duals, iters = _simplex(A, np.array([0.0, 0.0, 1.0]), c, np.ones(7), basis, status,
                                    1e-10, max_iter)
    assert out == outcome and c @ x == pytest.approx(objective, abs=1e-15)
    if outcome == "optimal":
        assert iters == 25 > 3 * 7  # 21 degenerate pivots, then 4 by Bland's rule
        assert x == pytest.approx([0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], abs=1e-15)


# ---------------------------------------------------------------------------
# basis inverse carried across pivots: many basis changes, several refactorizations

def dense_lp(seed):
    """A dense feasible set with 10 rows and 300 columns and a dense cost: a
    cold solve makes 270 to 360 basis changes, a warm one under a perturbed
    cost 50 to 90."""
    A, b = boxed_lp(seed, 10, 300, "feasible")
    return LpProblem(objectives(seed, 300)[0], A, b)


def counting_calls(monkeypatch, module, name, solve):
    """``solve()`` and how many times it called ``module.name``."""
    calls = []
    original = getattr(module, name)
    with monkeypatch.context() as patch:
        patch.setattr(module, name, lambda *a, **k: calls.append(1) or original(*a, **k))
        sol = solve()
    return sol, len(calls)


def counting_basis_changes(monkeypatch, solve):
    """``solve()`` and how many basis changes it made: each one is one
    rank-1 update of the basis inverse (``np.outer``)."""
    return counting_calls(monkeypatch, handsoff.lp.np, "outer", solve)


@pytest.mark.parametrize("seed", range(6))
def test_dense_lps_match_highs_across_refactorizations(seed, monkeypatch):
    p = dense_lp(seed)
    perturbed = LpProblem(p.c + 0.3 * np.random.default_rng([seed, 2]).normal(size=p.c.size),
                          p.Aeq, p.beq)
    cold, cold_changes = counting_basis_changes(monkeypatch, lambda: solve_lp(p))
    warm, warm_changes = counting_basis_changes(
        monkeypatch, lambda: solve_lp(perturbed, start=cold.start))
    assert cold_changes > 4 * handsoff.lp._REFACTOR_EVERY
    assert warm_changes > handsoff.lp._REFACTOR_EVERY
    for sol, prob in ((cold, p), (warm, perturbed)):
        ref = linprog(prob.c, A_eq=prob.Aeq, b_eq=prob.beq, bounds=(0.0, 1.0), method="highs")
        assert ref.status == 0
        assert sol.status == OPTIMAL
        assert sol.eq_residual <= 1e-9 and sol.kkt_residual <= 1e-9
        assert abs(sol.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
        # the verdict's residuals are the public ones, bit for bit
        assert sol.kkt_residual == kkt_residual(prob, sol.z, sol.duals)
        assert sol.eq_residual == np.max(np.abs(prob.Aeq @ sol.z - prob.beq))


def test_start_carries_read_only_phase_2_bounds():
    p = dense_lp(1)
    n, q = p.Aeq.shape
    first = solve_lp(p).start
    assert np.array_equal(first.upper, np.concatenate([np.ones(q), np.zeros(n)]))
    assert not first.upper.flags.writeable
    with pytest.raises(ValueError):
        first.upper[0] = 0.5
    kept = first.upper.copy()
    start = first
    for c in objectives(1, q):
        sol = solve_lp(LpProblem(c, p.Aeq, p.beq), start=start)
        assert sol.status == OPTIMAL
        # every start of the feasible set shares phase 1's bounds
        assert sol.start.upper is first.upper
        start = sol.start
    assert np.array_equal(first.upper, kept)


def test_returned_point_is_the_fresh_solve_of_the_final_basis(monkeypatch):
    # Whatever the eta updates rounded along the way, z and the duals are
    # np.linalg.solve on the basis the solve ended on, bit for bit.
    p = dense_lp(0)
    sol, changes = counting_basis_changes(monkeypatch, lambda: solve_lp(p))
    assert sol.status == OPTIMAL and changes > 4 * handsoff.lp._REFACTOR_EVERY
    n, q = p.Aeq.shape
    A = np.hstack([p.Aeq, np.diag(np.where(p.beq < 0, -1.0, 1.0))])
    basis, status = sol.start.basis, sol.start.status
    upper = np.concatenate([np.ones(q), np.zeros(n)])  # artificials pinned in phase 2
    x = np.where(status == _UPPER, upper, 0.0)
    x[basis] = 0.0
    B = A[:, basis]
    x[basis] = np.linalg.solve(B, p.beq - A @ x)
    duals = np.linalg.solve(B.T, np.concatenate([p.c, np.zeros(n)])[basis])
    assert np.array_equal(sol.z, x[:q])
    assert np.array_equal(sol.duals, duals)


# ---------------------------------------------------------------------------
# one verdict: a pass that ends other than optimal is a numerical failure

def _singular(*args):
    raise np.linalg.LinAlgError("Singular matrix")


def failing_pass(monkeypatch, fail_at, outcome):
    """Patch ``_simplex`` so that its ``fail_at``-th call (1 = the first pass
    of the next solve) ends in ``outcome``: ``"iteration_limit"`` on a budget
    of 2 pivots, ``"singular"`` at its first basis solve.  Returns the list
    that collects every call's result."""
    real = handsoff.lp._simplex
    calls = []

    def patched(A, b, c, upper, basis, status, dual_tol, max_iter, x_start=None):
        failing = len(calls) + 1 == fail_at
        with monkeypatch.context() as patch:
            if failing and outcome == "singular":
                patch.setattr(np.linalg, "solve", _singular)
            result = real(A, b, c, upper, basis, status, dual_tol,
                          2 if failing and outcome == "iteration_limit" else max_iter, x_start)
        calls.append(result)
        return result

    monkeypatch.setattr(handsoff.lp, "_simplex", patched)
    return calls


@pytest.mark.parametrize("outcome", ["singular", "iteration_limit"])
@pytest.mark.parametrize("case", ["cold phase 1", "cold phase 2", "warm"])
def test_a_failed_pass_is_a_numerical_failure(case, outcome, monkeypatch):
    p = dense_lp(0)
    n, q = p.Aeq.shape
    other = LpProblem(p.c + 0.3 * np.random.default_rng([0, 2]).normal(size=q), p.Aeq, p.beq)
    given = solve_lp(p).start if case == "warm" else None
    calls = failing_pass(monkeypatch, 2 if case == "cold phase 2" else 1, outcome)
    sol = solve_lp(other, start=given)
    assert len(calls) == (2 if case == "cold phase 2" else 1)
    failed, x, duals, iters = calls[-1]
    assert failed == outcome and iters == (0 if outcome == "singular" else 2)
    assert sol.status == NUMERICAL_FAILURE and sol.kkt_residual == np.inf
    assert sol.iterations == sum(call[3] for call in calls)
    if outcome == "singular":
        assert np.array_equal(sol.z, np.zeros(q)) and np.array_equal(sol.duals, np.zeros(n))
        assert sol.eq_residual == np.max(np.abs(p.beq))
    else:
        assert np.array_equal(sol.z, x[:q]) and np.array_equal(sol.duals, duals)
    assert sol.eq_residual == np.max(np.abs(p.Aeq @ sol.z - p.beq))
    assert sol.objective == other.c @ sol.z
    if case == "cold phase 1":
        assert sol.start is None and sol.phase1_value == np.inf
    elif case == "cold phase 2":
        phase1_x = calls[0][1]
        assert sol.start.x is phase1_x
        assert sol.phase1_value == np.concatenate([np.zeros(q), np.ones(n)]) @ phase1_x <= 1e-9
    else:
        assert sol.start is given and sol.phase1_value == 0.0
    with pytest.raises(NumericalError, match="LP failure in the test LP"):
        checked_lp(sol, "the test LP")
    if sol.start is not None:  # the start it returns is feasible and reusable
        monkeypatch.undo()
        assert solve_lp(other, start=sol.start).status == OPTIMAL
