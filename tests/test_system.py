import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handsoff.errors import DimensionError, DomainError, ParameterError
from handsoff.system import (
    ControlProblem,
    DiscreteProblem,
    LinearSystem,
    build_discrete,
    double_integrator,
    simulate,
)


def benchmark_problem(T=5.0):
    return ControlProblem(double_integrator(), np.array([1.0, -1.0]), T)


def scalar_integrator():
    return LinearSystem(np.zeros((1, 1)), np.ones((1, 1)))


# ---------------------------------------------------------------------------
# construction and validation

def test_system_dimensions():
    sys_ = double_integrator()
    assert (sys_.n, sys_.m) == (2, 1)
    with pytest.raises(DimensionError):
        LinearSystem(np.zeros((2, 3)), np.zeros((2, 1)))
    with pytest.raises(DimensionError):
        LinearSystem(np.zeros((2, 2)), np.zeros((3, 1)))


def test_problem_validation():
    with pytest.raises(DimensionError):
        ControlProblem(double_integrator(), np.zeros(3), 1.0)
    with pytest.raises(DomainError):
        ControlProblem(double_integrator(), np.zeros(2), 0.0)
    with pytest.raises(DomainError):
        ControlProblem(double_integrator(), np.zeros(2), float("inf"))


def test_build_discrete_rejects_bad_n():
    with pytest.raises(ParameterError):
        build_discrete(benchmark_problem(), 0)


def test_discrete_shape_guard():
    dp = build_discrete(benchmark_problem(), 4)
    with pytest.raises(DimensionError):
        DiscreteProblem(dp.delta, 5, dp.Ad, dp.Bd, dp.Phi, dp.zeta)
    with pytest.raises(DomainError):
        DiscreteProblem(-1.0, 4, dp.Ad, dp.Bd, dp.Phi, dp.zeta)


# ---------------------------------------------------------------------------
# discretization values

def test_benchmark_drift():
    # free motion over the whole horizon: x0 + T * velocity in the first
    # coordinate, velocity unchanged
    dp = build_discrete(benchmark_problem(), 1000)
    assert dp.delta == pytest.approx(0.005, abs=1e-15)
    assert np.allclose(dp.zeta, [-4.0, -1.0], atol=1e-12, rtol=0.0)


def test_scalar_integrator_reachability_row():
    prob = ControlProblem(scalar_integrator(), np.array([0.3]), 1.0)
    dp = build_discrete(prob, 2)
    assert np.allclose(dp.Phi, [[0.5, -0.5, 0.5, -0.5]], atol=1e-15)
    assert np.allclose(dp.zeta, [0.3], atol=1e-15)


def test_grid_covers_horizon():
    for N in (1, 3, 200, 1000):
        dp = build_discrete(benchmark_problem(), N)
        assert dp.N * dp.delta == pytest.approx(5.0, abs=1e-12)


# ---------------------------------------------------------------------------
# simulation

def test_simulate_hand_stepped():
    prob = ControlProblem(scalar_integrator(), np.array([1.0]), 1.0)
    dp = build_discrete(prob, 2)
    states = simulate(dp, prob.x0, np.array([1.0, 0.0, 0.0, 1.0]))
    assert states.shape == (3, 1)
    assert states[:, 0] == pytest.approx([1.0, 1.5, 1.0], abs=1e-15)


def test_simulate_validates_shapes():
    dp = build_discrete(benchmark_problem(), 3)
    with pytest.raises(DimensionError):
        simulate(dp, np.zeros(3), np.zeros(6))
    with pytest.raises(DimensionError):
        simulate(dp, np.zeros(2), np.zeros(5))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_final_state_matches_stacked_form(seed, N):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    sys_ = LinearSystem(rng.normal(scale=0.5, size=(n, n)), rng.normal(size=(n, m)))
    prob = ControlProblem(sys_, rng.normal(size=n), float(rng.uniform(0.5, 4.0)))
    dp = build_discrete(prob, N)
    z = rng.uniform(0.0, 1.0, size=2 * m * N)
    final = simulate(dp, prob.x0, z)[-1]
    assert np.max(np.abs(final - (dp.zeta + dp.Phi @ z))) <= 1e-9


def stepped_in_longdouble(dp, x0, z):
    """The recursion x_{k+1} = Ad x_k + Bd z_k stepped one sample at a time
    in extended precision."""
    Ad, Bd = dp.Ad.astype(np.longdouble), dp.Bd.astype(np.longdouble)
    blocks = z.astype(np.longdouble).reshape(dp.N, -1)
    states = [x0.astype(np.longdouble)]
    for zk in blocks:
        states.append(Ad @ states[-1] + Bd @ zk)
    return np.array(states)


# lengths around every power of two, where the scan gains a doubling step
SCAN_LENGTHS = sorted({1, 2, 3, 3000}
                      | {2**k + d for k in range(2, 12) for d in (-1, 0, 1)})


def shifted_plant_problem(rng, stable):
    """A random plant with n <= 4 and m <= 3 whose spectrum is shifted so
    its rightmost real part is -c (stable) or +c, for c in [0.1, 1]."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    M = rng.normal(scale=0.5, size=(n, n))
    c = float(rng.uniform(0.1, 1.0))
    shift = np.max(np.linalg.eigvals(M).real) + (c if stable else -c)
    sys_ = LinearSystem(M - shift * np.eye(n), rng.normal(size=(n, m)))
    return ControlProblem(sys_, rng.normal(size=n), float(rng.uniform(0.5, 4.0)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SCAN_LENGTHS), st.booleans())
def test_scan_matches_extended_precision_stepping(seed, N, stable):
    rng = np.random.default_rng(seed)
    prob = shifted_plant_problem(rng, stable)
    dp = build_discrete(prob, N)
    n, m = dp.n, dp.m
    z = rng.uniform(0.0, 1.0, size=2 * m * N)
    want = stepped_in_longdouble(dp, prob.x0, z)
    got = simulate(dp, prob.x0, z)
    assert got.shape == (N + 1, n) and got.dtype == np.float64
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SCAN_LENGTHS), st.booleans())
def test_phi_blocks_are_shifted_powers(seed, N, stable):
    # block k of Phi is Ad^(N-1-k) Bd; the reference multiplies by Ad once
    # per step, in extended precision
    dp = build_discrete(shifted_plant_problem(np.random.default_rng(seed), stable), N)
    Ad = dp.Ad.astype(np.longdouble)
    want = [dp.Bd.astype(np.longdouble)]
    for _ in range(N - 1):
        want.append(Ad @ want[-1])
    want = np.hstack(want[::-1])
    assert dp.Phi.shape == want.shape and dp.Phi.dtype == np.float64
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(dp.Phi - want))) <= 1e-10 * scale


def test_simulate_leaves_its_inputs_alone():
    dp = build_discrete(benchmark_problem(), 37)
    x0 = np.array([1.0, -1.0])
    z = np.random.default_rng(3).uniform(0.0, 1.0, size=2 * dp.N)
    x0_before, z_before = x0.copy(), z.copy()
    states = simulate(dp, x0, z)
    assert np.array_equal(x0, x0_before) and np.array_equal(z, z_before)
    assert np.array_equal(states[0], x0)
    assert not np.shares_memory(states, x0) and not np.shares_memory(states, z)

