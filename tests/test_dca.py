import math
from dataclasses import FrozenInstanceError, fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from handsoff.dca import (
    L0_THRESHOLD,
    ControlSignal,
    DcaConfig,
    DcaResult,
    bang_off_bang_deviation,
    checked_lp,
    cost_jd,
    l0_measure,
    l1_result,
    recombine,
    run_dca,
    solve_l1,
    split_control,
)
from handsoff.errors import (
    AssumptionViolationError,
    DimensionError,
    DomainError,
    InfeasibleProblemError,
    NumericalError,
    ParameterError,
)
from handsoff.lp import (
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    TOL,
    LpProblem,
    LpSolution,
    kkt_residual,
    solve_lp,
)
from handsoff.oracle import brute_force_l0, make_exact_instance
from handsoff.penalty import Penalty, equivalence_constant, phi_subgradient
from handsoff.system import ControlProblem, LinearSystem, build_discrete, double_integrator

from test_penalty import CATALOG


def scalar_integrator_instance(planted):
    from handsoff.system import LinearSystem

    sys_ = LinearSystem(np.zeros((1, 1)), np.ones((1, 1)))
    u = ControlSignal(1.0, np.asarray(planted, dtype=float).reshape(-1, 1))
    prob = make_exact_instance(sys_, float(u.N), u.N, u)
    return build_discrete(prob, u.N)


def benchmark_dp(N=40):
    prob = ControlProblem(double_integrator(), np.array([1.0, -1.0]), 5.0)
    return build_discrete(prob, N)


# ---------------------------------------------------------------------------
# containers and conversions

def test_control_signal_validation():
    with pytest.raises(DomainError, match="exceed"):
        ControlSignal(1.0, [[1.1]])
    for bad in (math.nan, math.inf, -math.inf):  # non-finite, also beside an entry above 1
        with pytest.raises(DomainError, match="non-finite"):
            ControlSignal(1.0, [[bad], [2.0]])
    with pytest.raises(DomainError):
        ControlSignal(0.0, [[0.5]])
    with pytest.raises(DimensionError):
        ControlSignal(1.0, [0.5, 0.5])


def test_split_layout():
    u = ControlSignal(0.5, [[0.5, -0.25], [-1.0, 0.0]])
    assert np.array_equal(split_control(u), [0.5, 0.0, 0.0, 0.25, 0.0, 0.0, 1.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 3)),
           elements=st.floats(-1.0, 1.0)),
    st.floats(1e-3, 10.0),
)
def test_split_recombine_round_trip(samples, delta):
    u = ControlSignal(delta, samples)
    z = split_control(u)
    back = recombine(z, delta, u.m)
    assert back.delta == delta and np.array_equal(back.samples, u.samples)
    vw = z.reshape(u.N, 2, u.m)
    assert np.min(np.minimum(vw[:, 0], vw[:, 1])) == 0.0  # split is complementary


def test_recombine_clips_to_the_box():
    # an LP vertex may sit a rounding error outside [0, 1]; the control does not
    z = np.array([-1.7e-14, 0.0, 1.0 + 1e-15, 0.0, 0.25, -1e-14])
    assert np.array_equal(recombine(z, 0.5, 1).samples, [[0.0], [1.0], [0.25]])


# ---------------------------------------------------------------------------
# scalar summaries

def test_cost_jd_single_sample():
    z = split_control(ControlSignal(1.0, [[0.5]]))
    assert cost_jd(Penalty("l1l2", 0.6), z) == pytest.approx(0.35, abs=1e-15)


def test_cost_jd_on_three_point_controls():
    # on {-1, 0, 1} samples the objective is exactly the equivalence constant
    # times the number of active samples
    z = split_control(ControlSignal(1.0, [[1.0], [0.0], [-1.0], [0.0]]))
    for pen in CATALOG:
        want = 2.0 * equivalence_constant(pen)
        assert cost_jd(pen, z) == pytest.approx(want, abs=1e-12)


def test_cost_jd_rejects_out_of_box():
    with pytest.raises(DomainError):
        cost_jd(Penalty("l1l2", 0.6), np.array([1.0 + 2e-6, 0.0]))
    with pytest.raises(DomainError):
        cost_jd(Penalty("l1l2", 0.6), np.array([0.0, -2e-6]))
    with pytest.raises(DomainError, match="not finite"):
        cost_jd(Penalty("l1l2", 0.6), np.array([0.5, math.nan]))


@pytest.mark.parametrize("make,error", [
    (lambda: Penalty("l1l2", True), ParameterError),
    (lambda: Penalty("l1l2", "0.5"), ParameterError),
    (lambda: ControlProblem(double_integrator(), np.zeros(2), True), DomainError),
    (lambda: ControlProblem(double_integrator(), np.zeros(2), "5"), DomainError),
    (lambda: ControlSignal(True, [[1.0]]), DomainError),
    (lambda: ControlSignal("x", [[1.0]]), DomainError),
    # an integer beyond the float range is not a number either
    (lambda: Penalty("l1l2", 10**400), ParameterError),
    (lambda: ControlProblem(double_integrator(), np.zeros(2), 10**400), DomainError),
    (lambda: ControlSignal(10**400, [[1.0]]), DomainError),
], ids=["penalty-bool", "penalty-str", "problem-bool", "problem-str", "signal-bool", "signal-str",
        "penalty-big", "problem-big", "signal-big"])
def test_constructors_refuse_a_bool_or_a_string_for_a_number(make, error):
    # not read as 1, and not a bare TypeError (or OverflowError) that
    # `except HandsOffError` misses
    with pytest.raises(error):
        make()


def test_l0_measure():
    # it counts the samples strictly above L0_THRESHOLD = 1e-6 in magnitude
    u = ControlSignal(0.25, [[1.0], [0.0], [-0.5], [1e-9], [1e-6], [-2e-6]])
    assert L0_THRESHOLD == 1e-6
    assert l0_measure(u) == 0.75


def test_bang_off_bang_deviation():
    u = ControlSignal(1.0, [[0.9], [0.0], [-1.0]])
    assert bang_off_bang_deviation(u) == pytest.approx(0.1, abs=1e-15)
    assert bang_off_bang_deviation(ControlSignal(1.0, [[1.0], [0.0]])) == 0.0


# ---------------------------------------------------------------------------
# configuration

def test_config_validation():
    with pytest.raises(ParameterError):
        DcaConfig(warm_start="hot")
    with pytest.raises(ParameterError, match="warm_start must be 'l1', got 'zero'"):
        DcaConfig(warm_start="zero")


# ---------------------------------------------------------------------------
# the iteration itself

def test_origin_start_stops_immediately():
    prob = ControlProblem(double_integrator(), np.zeros(2), 1.0)
    dp = build_discrete(prob, 5)
    res = run_dca(dp, Penalty("l1l2", 0.6))
    assert res.iterations == 1
    assert res.stop_reason == "cost_stall"
    assert res.l0 == 0.0
    assert np.allclose(res.z_star, 0.0, atol=1e-12)
    assert res.cost_history[0] == 0.0


def test_lp_solve_accounting():
    res = run_dca(benchmark_dp(20), Penalty("l1l2", 0.1))
    assert res.lp_solves == res.iterations + 1


def test_near_origin_start_reaches_the_origin():
    # The zero-input drift |Phi 0 + zeta| is 4e-9 here.  A run must still
    # end on a vertex that steers x0 to the origin within lp.TOL, not on u = 0.
    dp = build_discrete(ControlProblem(double_integrator(), np.array([1e-9, -1e-9]), 5.0), 200)
    res = run_dca(dp, Penalty("l1l2", 0.1))
    assert res.stop_reason == "cost_stall"
    assert res.feas_residual <= TOL
    assert res.lp_solves == 2


def test_l1_result_measures_the_l1_vertex_like_a_run():
    # a damped three-state, two-input plant whose l1 vertex has three
    # fractional samples: |u| = 0.083, 0.224 and 0.329
    plant = LinearSystem([[-0.3, -0.137, -0.383], [0.137, -0.3, -0.338], [0.383, 0.338, -0.3]],
                         [[-1.265, -0.623], [0.041, -2.325], [-0.219, -1.246]])
    dp = build_discrete(ControlProblem(plant, np.array([-0.227, -0.169, -0.098]), 5.0), 40)
    l1 = solve_l1(dp)
    res = l1_result(dp, l1)
    assert res.z_star is l1.z and (res.iterations, res.lp_solves) == (1, 1)
    assert res.cost_history == [float(np.sum(np.clip(l1.z, 0.0, 1.0)))]
    # l0 counts the three fractional samples with the bang ones
    u = res.u_star.samples
    assert res.l0 == l0_measure(res.u_star) == dp.delta * np.count_nonzero(np.abs(u) > 1e-6)
    assert np.count_nonzero((np.abs(u) > 1e-6) & (np.abs(u) < 1.0 - 1e-6)) == 3
    assert res.feas_history == [res.feas_residual] == [l1.eq_residual]
    infeasible = build_discrete(ControlProblem(double_integrator(), np.array([100.0, 0.0]), 1.0), 8)
    with pytest.raises(InfeasibleProblemError):
        l1_result(infeasible, solve_l1(infeasible))


@pytest.mark.parametrize("pen", CATALOG, ids=lambda p: p.kind)
def test_descent_and_nonnegativity(pen):
    res = run_dca(benchmark_dp(40), pen, DcaConfig(warm_start="l1"))
    hist = np.array(res.cost_history)
    assert hist.size >= 1
    assert np.all(np.diff(hist) <= 1e-9)
    assert hist.min() >= -1e-12
    assert res.feas_residual <= 1e-8
    assert max(res.feas_history) <= 1e-8
    assert res.stop_reason in ("cost_stall", "step_stall", "max_iter")
    # the reported complementarity number matches its definition
    vw = res.z_star.reshape(-1, 2)  # m = 1: columns v and w
    recomputed = float(np.max(np.minimum(vw[:, 0], vw[:, 1])))
    assert res.complementarity_violation == recomputed


def lp_ascent_dp():
    """A planted instance (n=3, m=2, N=4, T=4) on which the lp penalty's
    first DC step from the l1 vertex raises J_d by 2.6e-8."""
    A = [[-0.08365400371932485, -0.15999991082639425, -0.02994373897712771],
         [-0.11290210033306747, -0.33879794073257213, -0.25245807650665963],
         [-0.27099581857720695, -0.0398344026983764, -0.01698979114308058]]
    B = [[0.7526983414092333, 0.8049778140307529],
         [-1.4189234342817736, -0.13186413865782448],
         [0.06638373490559656, -1.9098440236158978]]
    planted = ControlSignal(1.0, [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    return build_discrete(make_exact_instance(LinearSystem(A, B), 4.0, 4, planted), 4)


@pytest.mark.parametrize("pen", [Penalty("lp", 0.8, p=0.5), Penalty("mcp", 1.0, alpha=0.5),
                                 Penalty("scad", 0.25, alpha=3.0), Penalty("l1l2", 0.1)],
                         ids=lambda p: p.kind)
def test_an_ascent_is_rejected(pen):
    dp, cfg = lp_ascent_dp(), DcaConfig(warm_start="l1")
    res = run_dca(dp, pen, cfg)
    assert np.all(np.diff(res.cost_history) <= 1e-9)
    if pen.kind == "lp":
        # the rejected LP counts as an iteration and a solve, but the run
        # keeps the l1 vertex and its cost
        l1 = solve_l1(dp)
        assert res.stop_reason == "ascent"
        assert (res.iterations, res.lp_solves) == (1, 2)
        assert np.array_equal(res.z_star, l1.z)
        assert res.cost_history == [cost_jd(pen, l1.z)]
        assert res.feas_history == [res.feas_residual] == [l1.eq_residual]
        assert res.max_kkt_residual > l1.kkt_residual


def test_step_stall_keeps_the_last_lp_vertex(monkeypatch):
    # No entry of a step in the box moves by more than 1, so STEP_TOL = 1.0
    # stops at the first step; COST_TOL = 1e-300 keeps a cost stall from
    # firing first.  On this plant scad's first DC step leaves the l1 vertex
    # and lowers the cost.
    import handsoff.dca

    monkeypatch.setattr(handsoff.dca, "STEP_TOL", 1.0)
    monkeypatch.setattr(handsoff.dca, "COST_TOL", 1e-300)
    plant = LinearSystem([[-0.3, -0.137, -0.383], [0.137, -0.3, -0.338], [0.383, 0.338, -0.3]],
                         [[-1.265, -0.623], [0.041, -2.325], [-0.219, -1.246]])
    dp = build_discrete(ControlProblem(plant, np.array([-0.227, -0.169, -0.098]), 5.0), 40)
    pen = Penalty("scad", 0.25, alpha=3.0)
    res = run_dca(dp, pen)
    l1 = solve_l1(dp)
    s = phi_subgradient(pen, np.clip(l1.z, 0.0, 1.0))
    step = solve_lp(LpProblem(1.0 - s, dp.Phi, -dp.zeta), start=l1.start)
    assert res.stop_reason == "step_stall" and res.iterations == 1
    assert np.array_equal(res.z_star, step.z)
    assert np.max(np.abs(step.z - l1.z)) > 0.01
    assert res.cost_history == [cost_jd(pen, l1.z), cost_jd(pen, step.z)]
    assert res.cost_history[1] < res.cost_history[0]


def test_bang_off_result_cost_identity():
    res = run_dca(benchmark_dp(40), Penalty("lp", 0.8, p=0.5), DcaConfig(warm_start="l1"))
    assert res.bob_deviation <= 1e-9
    want = equivalence_constant(Penalty("lp", 0.8, p=0.5)) * res.l0 / res.u_star.delta
    assert res.cost_history[-1] == pytest.approx(want, abs=1e-9)


def test_recovers_planted_support():
    # net displacement 2 forces at least two active unit samples
    dp = scalar_integrator_instance([1.0, 0.0, 1.0, 0.0])
    best_l0, _ = brute_force_l0(dp)
    assert best_l0 == pytest.approx(2.0, abs=1e-12)  # delta is 1 here
    pen = Penalty("lp", 0.8, p=0.5)
    res = run_dca(dp, pen, DcaConfig(warm_start="l1"))
    assert res.l0 == pytest.approx(best_l0, abs=1e-9)
    want = equivalence_constant(pen) * best_l0 / dp.delta
    assert res.cost_history[-1] == pytest.approx(want, abs=1e-9)


def test_infeasible_raises_with_certificate():
    prob = ControlProblem(double_integrator(), np.array([100.0, 0.0]), 1.0)
    dp = build_discrete(prob, 8)
    with pytest.raises(InfeasibleProblemError) as exc:
        run_dca(dp, Penalty("l1l2", 0.6))
    assert exc.value.certificate > 1.0


def test_inadmissible_penalty_raises_with_report():
    with pytest.raises(AssumptionViolationError) as exc:
        run_dca(benchmark_dp(10), Penalty("l1l2", 1.0))
    assert exc.value.report is not None
    assert exc.value.report.violated == ("A3",)
    assert "structural conditions violated: ['A3']" in str(exc.value)
    with pytest.raises(FrozenInstanceError):  # no caller can change it
        exc.value.report.violated = ()
    with pytest.raises(AssumptionViolationError) as again:
        run_dca(benchmark_dp(10), Penalty("l1l2", 1.0))
    assert again.value.report is exc.value.report


def test_iteration_cap(monkeypatch):
    # capped_l1 stalls after two steps here; a cap of one ends the run first
    import handsoff.dca

    dp, pen = benchmark_dp(20), Penalty("capped_l1", 0.8, alpha=0.5)
    assert run_dca(dp, pen).iterations == 2
    monkeypatch.setattr(handsoff.dca, "MAX_ITER", 1)
    res = run_dca(dp, pen)
    assert res.stop_reason == "max_iter"
    assert res.iterations == 1
    assert res.lp_solves == 2


def test_result_reproducible():
    dp = benchmark_dp(30)
    a = run_dca(dp, Penalty("mcp", 1.0, alpha=0.5), DcaConfig(warm_start="l1"))
    b = run_dca(dp, Penalty("mcp", 1.0, alpha=0.5), DcaConfig(warm_start="l1"))
    assert np.array_equal(a.z_star, b.z_star)
    assert a.cost_history == b.cost_history
    assert a.iterations == b.iterations


# ---------------------------------------------------------------------------
# one phase 1 per feasible set, each LP started from the last one's basis

def assert_same(a, b):
    """Field-by-field equality, bit for bit, through nested dataclasses."""
    if is_dataclass(a):
        assert type(a) is type(b)
        for f in fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    else:
        assert a == b


def count_phase1(monkeypatch):
    """Wrap dca's solve_lp; the returned list gains one entry per call that
    runs phase 1 (called without a start)."""
    import handsoff.dca

    calls = []
    original = handsoff.dca.solve_lp

    def counting(problem, start=None):
        if start is None:
            calls.append(problem)
        return original(problem, start=start)

    monkeypatch.setattr(handsoff.dca, "solve_lp", counting)
    return calls


@pytest.mark.parametrize("warm_start", ["l1"])
@pytest.mark.parametrize("pen", CATALOG, ids=lambda p: p.kind)
def test_passed_start_gives_the_same_result(pen, warm_start):
    # The l1 LP's solution, as compare and oracle pass it.  Its vertex is the
    # one the run would solve for itself, so the runs agree bit for bit.
    dp = benchmark_dp(40)
    cfg = DcaConfig(warm_start=warm_start)
    l1 = solve_l1(dp)
    z, basis, status = l1.z.copy(), l1.start.basis.copy(), l1.start.status.copy()
    assert_same(run_dca(dp, pen, cfg, l1), run_dca(dp, pen, cfg))
    assert np.array_equal(l1.z, z)
    assert np.array_equal(l1.start.basis, basis) and np.array_equal(l1.start.status, status)


def test_run_dca_runs_phase_1_once(monkeypatch):
    calls = count_phase1(monkeypatch)
    dp = benchmark_dp(40)
    res = run_dca(dp, Penalty("mcp", 1.0, alpha=0.5), DcaConfig(warm_start="l1"))
    assert res.lp_solves >= 2 and len(calls) == 1
    l1 = solve_l1(dp)
    assert len(calls) == 2
    run_dca(dp, Penalty("scad", 0.25, alpha=3.0), DcaConfig(), l1)
    assert len(calls) == 2


def test_each_lp_starts_from_the_basis_the_last_one_ended_on(monkeypatch):
    import handsoff.dca

    calls = []
    original = handsoff.dca.solve_lp

    def recording(problem, start=None):
        sol = original(problem, start=start)
        calls.append((problem, start, sol))
        return sol

    monkeypatch.setattr(handsoff.dca, "solve_lp", recording)
    rng = np.random.default_rng(0)  # a damped 3-state, 2-input plant: DCA takes 2 steps
    S = rng.normal(size=(3, 3))
    plant = LinearSystem((S - S.T) / np.sqrt(3) - 0.3 * np.eye(3), rng.normal(size=(3, 2)))
    x0 = rng.normal(size=3)
    dp = build_discrete(ControlProblem(plant, 0.3 * x0 / np.linalg.norm(x0), 5.0), 40)
    res = run_dca(dp, Penalty("scad", 0.25, alpha=3.0), DcaConfig(warm_start="l1"))
    assert len(calls) == res.lp_solves >= 3 and calls[0][1] is None
    for (problem, _, sol), (_, passed, _) in zip(calls, calls[1:]):
        # the previous LP's optimal basis: its own objective re-solves in 0 pivots
        assert passed is sol.start
        assert original(problem, start=passed).iterations == 0
    # along the warm chain, each verdict's KKT residual is the public one, bit for bit
    for problem, _, sol in calls:
        assert sol.kkt_residual == kkt_residual(problem, sol.z, sol.duals)
    assert res.max_kkt_residual == max(sol.kkt_residual for _, _, sol in calls)


def test_start_for_another_problem_is_refused():
    l1 = solve_l1(benchmark_dp(20))
    with pytest.raises(ParameterError):
        run_dca(benchmark_dp(30), Penalty("l1l2", 0.1), DcaConfig(), l1)
    moved = build_discrete(ControlProblem(double_integrator(), np.array([0.5, -1.0]), 5.0), 20)
    with pytest.raises(ParameterError):
        run_dca(moved, Penalty("l1l2", 0.1), DcaConfig(warm_start="l1"), l1)


def test_checked_lp_maps_statuses():
    ok = LpSolution(np.zeros(1), 0.0, OPTIMAL, 0.0, 0.0, 0, np.zeros(1), 0.0)
    assert checked_lp(ok, "x") is ok
    with pytest.raises(InfeasibleProblemError) as exc:
        checked_lp(LpSolution(np.zeros(1), 0.0, INFEASIBLE, 1.0, np.inf, 0,
                              np.zeros(1), 0.25), "x")
    assert exc.value.certificate == 0.25
    with pytest.raises(NumericalError, match="LP failure in the test LP"):
        checked_lp(LpSolution(np.zeros(1), 0.0, NUMERICAL_FAILURE, 1.0, np.inf, 0,
                              np.zeros(1), 0.0), "the test LP")
    # R2's failure: the equality test passed, the KKT test did not
    with pytest.raises(NumericalError) as exc:
        checked_lp(LpSolution(np.zeros(1), 0.0, NUMERICAL_FAILURE, 0.0, 1.057e-9, 3,
                              np.zeros(1), 0.0), "iteration 1")
    assert str(exc.value) == ("LP failure in iteration 1 (equality residual 0.000e+00, "
                              "KKT residual 1.057e-09, tolerance 1.000e-09)")
    with pytest.raises(NumericalError) as exc:
        checked_lp(LpSolution(np.zeros(1), 0.0, NUMERICAL_FAILURE, 2.5e-7, 4e-12, 3,
                              np.zeros(1), 0.0), "the l1 baseline")
    assert str(exc.value) == ("LP failure in the l1 baseline (equality residual 2.500e-07, "
                              "KKT residual 4.000e-12, tolerance 1.000e-09)")
