import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handsoff import oracle
from handsoff.dca import ControlSignal, l0_measure, run_dca, solve_l1, split_control
from handsoff.errors import DimensionError, DomainError, ParameterError, SizeError
from handsoff.oracle import (
    brute_force_l0,
    certificate,
    exact_instance,
    make_exact_instance,
    support_lower_bound,
)
from handsoff.penalty import Penalty
from handsoff.system import (
    ControlProblem,
    LinearSystem,
    build_discrete,
    double_integrator,
    simulate,
)

X0 = np.array([1.0, -1.0])
T = 5.0


def indicator_signal(N, lo=0.5, hi=1.5):
    delta = T / N
    t = np.arange(N) * delta
    s = ((t >= lo) & (t < hi)).astype(float)
    return ControlSignal(delta, s[:, None])


def scalar_integrator():
    return LinearSystem(np.zeros((1, 1)), np.ones((1, 1)))


def certify(u, x0=X0, horizon=T):
    """The certificate of ``u`` on the double integrator from x0 over
    [0, horizon], taken as ``compare`` takes it: the bound from the l1 LP's
    duals, u's own support and the terminal state of its trajectory."""
    dp = build_discrete(ControlProblem(double_integrator(), x0, horizon), u.N)
    bound = support_lower_bound(dp, solve_l1(dp).duals)
    terminal = simulate(dp, x0, split_control(u))[-1]
    return certificate(l0_measure(u), bound, terminal, dp.delta)


# ---------------------------------------------------------------------------
# the support bound and the certificate

@pytest.mark.parametrize("N", [1000, 200])
def test_certificate_accepts_unit_indicator(N):
    report = certify(indicator_signal(N))
    assert report.passed
    assert report.l0 == pytest.approx(1.0, abs=1e-12)
    assert report.lower_bound == pytest.approx(1.0, abs=1e-12)  # = -xi2
    assert report.terminal_norm <= 1e-9


def test_certificate_takes_the_callers_states():
    # it reads the terminal state it is given and simulates nothing
    u = indicator_signal(400)
    dp = build_discrete(ControlProblem(double_integrator(), X0, T), 400)
    terminal = simulate(dp, X0, split_control(u))[-1]
    assert certificate(1.0, 1.0, terminal, dp.delta).passed
    missed = certificate(1.0, 1.0, terminal + [1e-3, 0.0], dp.delta)
    assert not missed.passed
    assert missed.terminal_norm == pytest.approx(1e-3, rel=1e-6)


def test_certificate_rejects_scaled_indicator():
    # half-amplitude over twice the window steers to the origin as well but
    # is not a minimum-support control
    N = 1000
    delta = T / N
    t = np.arange(N) * delta
    s = 0.5 * (t < 2.0).astype(float)
    report = certify(ControlSignal(delta, s[:, None]))
    assert not report.passed
    assert report.terminal_norm <= 1e-9  # it does reach the origin
    assert report.l0 == pytest.approx(2.0, abs=1e-12)
    assert report.lower_bound == pytest.approx(1.0, abs=1e-12)


def test_certificate_rejects_wrong_support_size():
    # a support of 2 against a bound of 1 fails on the l0 margin alone, with
    # a terminal state at the origin; the same measures pass on a grid coarse
    # enough that the margin of n = 2 steps covers the gap
    measured = certify(indicator_signal(1000, lo=0.5, hi=2.5))
    assert measured.l0 - measured.lower_bound > 0.1
    assert not certificate(measured.l0, measured.lower_bound, np.zeros(2), T / 1000).passed
    assert certificate(measured.l0, measured.lower_bound, np.zeros(2), 0.5).passed


def test_certificate_default_l0_tolerance_is_n_delta():
    # l0 exactly n steps above the bound passes and one step more fails, with
    # both measures formed as the program forms them, delta times a count:
    # their rounding fails most exact boundary cases of l0 - bound <= n*delta
    for N in (8, 20, 200, 1000, 4000):
        delta = 5.0 / N
        for n in (1, 2, 3):
            for k in range(0, N - n, max(1, N // 50)):
                bound = delta * k
                assert certificate(delta * (k + n), bound, np.zeros(n), delta).passed
                assert not certificate(delta * (k + n + 1), bound, np.zeros(n), delta).passed


def test_certificate_zero_signal_from_origin():
    report = certify(ControlSignal(0.5, np.zeros((4, 1))), x0=np.zeros(2), horizon=2.0)
    assert report.passed
    assert report.l0 == report.lower_bound == 0.0
    assert report.terminal_norm == 0.0


@pytest.mark.parametrize("x0,N,expected", [
    ((1.0, -1.0), 200, 1.0), ((1.0, -1.0), 1000, 1.0), ((1.0, -1.0), 4000, 1.0),
    # outside the closed form's region l0 = -xi2
    ((0.0, -2.0), 200, 4.0), ((-1.0, 1.0), 200, 1.0),
])
def test_support_lower_bound_on_the_double_integrator(x0, N, expected):
    dp = build_discrete(ControlProblem(double_integrator(), np.array(x0), T), N)
    l1 = solve_l1(dp)
    bound = support_lower_bound(dp, l1.duals)
    assert bound == pytest.approx(expected, abs=1e-12)
    assert bound == pytest.approx(dp.delta * math.ceil(l1.objective - 1e-6), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_support_lower_bound_never_exceeds_the_enumerated_minimum(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    N = int(rng.integers(1, 8 // m + 1))
    sys_ = LinearSystem(rng.normal(scale=0.5, size=(n, n)), rng.normal(size=(n, m)))
    flat = np.zeros(m * N)
    k = int(rng.integers(1, min(3, m * N) + 1))
    flat[rng.choice(m * N, size=k, replace=False)] = rng.choice([-1.0, 1.0], size=k)
    planted = ControlSignal(4.0 / N, flat.reshape(N, m))
    dp = build_discrete(make_exact_instance(sys_, 4.0, N, planted), N)
    best = brute_force_l0(dp)[0]
    # the l1 LP's duals give the best bound; any other y gives a valid one
    assert support_lower_bound(dp, solve_l1(dp).duals) <= best
    assert support_lower_bound(dp, rng.normal(size=n)) <= best


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]))
def test_time_rescaling_scales_only_the_step(seed, k):
    # (A, B, T) -> (A/2^k, B/2^k, 2^k*T) leaves every product A*delta and
    # B*delta bit for bit, so the grid problem and every solve on it are the
    # same; the step, and so every support measure, scales by exactly 2^k
    rng = np.random.default_rng(seed)
    n, m, N = int(rng.integers(1, 4)), int(rng.integers(1, 3)), 40
    A, B = rng.normal(scale=0.5, size=(n, n)), rng.normal(size=(n, m))
    flat = np.zeros(m * N)
    flat[rng.choice(m * N, size=n, replace=False)] = rng.choice([-1.0, 1.0], size=n)
    x0 = make_exact_instance(LinearSystem(A, B), 4.0, N, ControlSignal(0.1, flat.reshape(N, m))).x0
    pen = Penalty("scad", 0.25, alpha=3.0)
    runs = []
    for scale in (1.0, 2.0 ** k):
        dp = build_discrete(ControlProblem(LinearSystem(A / scale, B / scale), x0, 4.0 * scale), N)
        l1 = solve_l1(dp)
        runs.append((dp, l1, run_dca(dp, pen, l1=l1), support_lower_bound(dp, l1.duals)))
    (dp, l1, dc, bound), (dp_k, l1_k, dc_k, bound_k) = runs
    pairs = [(dp.Phi, dp_k.Phi), (dp.zeta, dp_k.zeta), (l1.z, l1_k.z), (dc.z_star, dc_k.z_star)]
    assert all(a.tobytes() == b.tobytes() for a, b in pairs)
    assert dp_k.delta == 2.0 ** k * dp.delta
    assert dc_k.l0 == 2.0 ** k * dc.l0 and bound_k == 2.0 ** k * bound


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dual_value_rounding_bound_covers_the_exact_value(seed):
    # D(y) in exact rational arithmetic on the same doubles; y spans six
    # orders of magnitude, so the terms of D cancel and its rounding shows
    rng = np.random.default_rng(seed)
    n, m, N = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 9))
    sys_ = LinearSystem(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
    dp = build_discrete(ControlProblem(sys_, rng.normal(size=n), float(rng.uniform(0.5, 4.0))), N)
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    D, rounding = oracle._dual_value(dp, y)
    Y = [Fraction(v) for v in y]

    def dot(col):
        return sum(a * Fraction(b) for a, b in zip(Y, col))

    exact = -dot(dp.zeta) + sum(min(Fraction(0), 1 - dot(col)) for col in dp.Phi.T)
    assert abs(Fraction(D) - exact) <= Fraction(rounding)
    # the bound is of the size the rounding can reach, not a blanket margin
    size = np.abs(y) @ np.abs(dp.zeta) + np.sum(1.0 + np.abs(y) @ np.abs(dp.Phi))
    assert rounding <= 4 * (n + 2 * m * N + 2) * 2.0 ** -53 * size


def test_certificate_input_validation():
    # a trajectory that overflowed or went NaN fails the certificate; it
    # does not raise, so a compare row keeps its status
    for bad in (np.inf, np.nan):
        report = certificate(1.0, 1.0, np.array([bad, 0.0]), 0.01)
        assert not report.passed
    with pytest.raises(DomainError):
        support_lower_bound(build_discrete(ControlProblem(double_integrator(), X0, T), 10),
                            [np.nan, 0.0])


# ---------------------------------------------------------------------------
# exhaustive enumeration

def planted_problem(system, planted, T):
    planted = np.atleast_2d(np.asarray(planted, dtype=float))
    if planted.shape[0] == 1 and system.m == 1:
        planted = planted.T
    N = planted.shape[0]
    u = ControlSignal(T / N, planted)
    prob = make_exact_instance(system, T, N, u)
    return build_discrete(prob, N), u


def test_brute_force_finds_planted_double_integrator():
    dp, u = planted_problem(double_integrator(), [1.0, 0.0], 2.0)
    best, signals = brute_force_l0(dp)
    assert best == pytest.approx(1.0, abs=1e-12)
    assert any(np.array_equal(sig.samples, u.samples) for sig in signals)


def test_brute_force_reports_all_minimizers():
    dp, _ = planted_problem(scalar_integrator(), [1.0, 0.0], 2.0)
    best, signals = brute_force_l0(dp)
    assert best == pytest.approx(1.0, abs=1e-12)
    # base-3 code order: sample 0 is the most significant digit, -1 < 0 < 1
    assert [tuple(sig.samples[:, 0]) for sig in signals] == [(0.0, 1.0), (1.0, 0.0)]


def test_brute_force_minimizers_are_feasible():
    dp, _ = planted_problem(double_integrator(), [1.0, 1.0, 0.0, -1.0], 4.0)
    best, signals = brute_force_l0(dp)
    assert math.isfinite(best)
    for sig in signals:
        resid = dp.Phi @ split_control(sig) + dp.zeta
        assert np.max(np.abs(resid)) <= 1e-8 + 1e-9


def test_brute_force_infeasible_grid():
    prob = ControlProblem(double_integrator(), np.array([100.0, 0.0]), 1.0)
    best, signals = brute_force_l0(build_discrete(prob, 4))
    assert best == math.inf
    assert signals == []


def test_brute_force_size_cap():
    prob = ControlProblem(double_integrator(), X0, T)
    with pytest.raises(SizeError):
        brute_force_l0(build_discrete(prob, 17))
    with pytest.raises(ParameterError):
        brute_force_l0(build_discrete(prob, 4), eps=0.0)


def test_brute_force_multi_input():
    sys_ = LinearSystem(np.zeros((2, 2)), np.eye(2))
    dp, u = planted_problem(sys_, np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]), 3.0)
    best, signals = brute_force_l0(dp)
    # planted needs 3 active scalar samples; nothing sparser reaches the state
    assert best == pytest.approx(3.0 * dp.delta, abs=1e-12)
    assert any(np.array_equal(sig.samples, u.samples) for sig in signals)


def full_scan_l0(dp, eps):
    """Reference: every grid point in base-3 code order, no early stop."""
    m, N = dp.m, dp.N
    nvars = m * N
    cols = dp.Phi.reshape(dp.n, N, 2 * m)
    phi_u = np.concatenate([cols[:, k, :m] for k in range(N)], axis=1)
    weights = 3 ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    codes = np.arange(3 ** nvars, dtype=np.int64)
    U = ((codes[:, None] // weights[None, :]) % 3).astype(float) - 1.0
    feas = U[np.max(np.abs(U @ phi_u.T + dp.zeta), axis=1) <= eps]
    if not len(feas):
        return math.inf, []
    counts = np.count_nonzero(feas, axis=1)
    best = int(counts.min())
    return best * dp.delta, [row.reshape(N, m) for row in feas[counts == best]]


def cli_unplanted_eps(dp):
    # the eps that `handsoff oracle` uses when the config plants no signal
    return 1e-3 * max(float(np.max(np.abs(dp.zeta))), 1e-5)


def assert_same_as_full_scan(dp, eps):
    best, signals = brute_force_l0(dp, eps=eps)
    ref_best, ref_rows = full_scan_l0(dp, eps)
    assert best == ref_best
    assert len(signals) == len(ref_rows)
    for sig, row in zip(signals, ref_rows):
        assert np.array_equal(sig.samples, row)
    return ref_best


@pytest.mark.parametrize("chunk", [1 << 16, 3], ids=["one_chunk", "many_chunks"])
@pytest.mark.parametrize("seed", range(24))
def test_brute_force_matches_full_scan(seed, chunk, monkeypatch):
    # a tiny chunk splits every level after the first into many products
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    rng = np.random.default_rng([7, seed])
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    N = int(rng.integers(1, 10 // m + 1))
    # every third plant is a bank of integrators: its samples are
    # interchangeable, so a level holds many minimizers whose order counts
    A = np.zeros((n, n)) if seed % 3 == 0 else rng.normal(scale=0.5, size=(n, n))
    sys_ = LinearSystem(A, rng.normal(size=(n, m)))
    flat = np.zeros(m * N)
    k = int(rng.integers(1, min(3, m * N) + 1))
    flat[rng.choice(m * N, size=k, replace=False)] = rng.choice([-1.0, 1.0], size=k)
    planted = ControlSignal(2.0 / N, flat.reshape(N, m))
    planted_dp = build_discrete(make_exact_instance(sys_, 2.0, N, planted), N)
    for eps in (1e-8, cli_unplanted_eps(planted_dp)):
        assert assert_same_as_full_scan(planted_dp, eps) <= k * planted_dp.delta
    # an x0 far outside the grid's reach: no feasible point at any level
    far_dp = build_discrete(ControlProblem(sys_, rng.normal(size=n) * 100.0, 2.0), N)
    assert assert_same_as_full_scan(far_dp, 1e-8) == math.inf
    assert_same_as_full_scan(far_dp, cli_unplanted_eps(far_dp))


def test_brute_force_origin_stops_at_level_zero():
    dp = build_discrete(ControlProblem(double_integrator(), np.zeros(2), 2.0), 4)
    best, signals = brute_force_l0(dp)
    assert best == 0.0
    assert len(signals) == 1
    assert np.array_equal(signals[0].samples, np.zeros((4, 1)))


def test_brute_force_at_the_cap_stops_early():
    # the full scan of 3^16 points takes seconds; one planted nonzero needs
    # only levels 0 and 1
    flat = np.zeros(16)
    flat[5] = -1.0
    dp, u = planted_problem(double_integrator(), flat, 4.0)
    t0 = time.perf_counter()
    best, signals = brute_force_l0(dp)
    elapsed = time.perf_counter() - t0
    assert best == pytest.approx(dp.delta, abs=1e-12)
    assert any(np.array_equal(sig.samples, u.samples) for sig in signals)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# instance construction

@pytest.mark.parametrize("seed", range(8))
def test_make_exact_instance_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    m = int(rng.integers(1, 3))
    N = int(rng.integers(1, 7))
    sys_ = LinearSystem(rng.normal(scale=0.5, size=(n, n)), rng.normal(size=(n, m)))
    planted = ControlSignal(2.0 / N, rng.integers(-1, 2, size=(N, m)).astype(float))
    prob = make_exact_instance(sys_, 2.0, N, planted)
    dp = build_discrete(prob, N)
    final = simulate(dp, prob.x0, split_control(planted))[-1]
    assert np.max(np.abs(final)) <= 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_exact_instance_discretization_equals_a_fresh_build(seed):
    rng = np.random.default_rng([seed, 1])
    n, m, N = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 9))
    sys_ = LinearSystem(rng.normal(scale=0.5, size=(n, n)), rng.normal(size=(n, m)))
    planted = ControlSignal(4.0 / N, rng.integers(-1, 2, size=(N, m)).astype(float))
    prob, dp = exact_instance(sys_, 4.0, N, planted)
    assert np.array_equal(prob.x0, make_exact_instance(sys_, 4.0, N, planted).x0)
    ref = build_discrete(prob, N)
    assert (dp.delta, dp.N) == (ref.delta, ref.N)
    for name in ("Ad", "Bd", "Phi", "zeta"):
        assert np.array_equal(getattr(dp, name), getattr(ref, name)), name


def test_make_exact_instance_validation():
    u = ControlSignal(1.0, [[0.5], [0.0]])
    with pytest.raises(DomainError):
        make_exact_instance(scalar_integrator(), 2.0, 2, u)
    good = ControlSignal(1.0, [[1.0], [0.0]])
    with pytest.raises(DimensionError):
        make_exact_instance(scalar_integrator(), 2.0, 3, good)
    with pytest.raises(DimensionError):
        make_exact_instance(scalar_integrator(), 3.0, 2, good)  # delta mismatch
    with pytest.raises(DimensionError):
        make_exact_instance(double_integrator(), 2.0, 2,
                            ControlSignal(1.0, [[1.0, 0.0], [0.0, 0.0]]))
