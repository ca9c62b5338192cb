"""Continuous-time problem data and its zero-order-hold discretization.

The control enters through the stacked nonnegative split: each sample k
contributes a block [v[k]; w[k]] with u[k] = v[k] - w[k], so the one-step
input matrix is built for [B, -B] and the reachability map ``Phi`` has one
n x 2m block per sample.  Steering to the origin is the single equality
constraint ``Phi @ z + zeta = 0`` over the box [0, 1]^(2mN).

One doubling scan (``_scan``) sums the recurrence x_{k+1} = Ad x_k + b_k,
for the states in ``simulate`` and for ``Phi``'s blocks in ``build_discrete``.
Both regroup the sums of a step-by-step loop, so they agree with it to
rounding, not bitwise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParameterError, is_number
from .linalg import as_matrix, as_vector, zoh_discretize


@dataclass
class LinearSystem:
    """Constant dx/dt = A x + B u with n states and m inputs."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = as_matrix(self.A, "A")
        self.B = as_matrix(self.B, "B")
        if self.A.shape[0] != self.A.shape[1]:
            raise DimensionError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != self.A.shape[0]:
            raise DimensionError(
                f"B must have {self.A.shape[0]} rows, got {self.B.shape}"
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


def double_integrator() -> LinearSystem:
    """The canonical benchmark plant: position/velocity chain with one input."""
    return LinearSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))


@dataclass
class ControlProblem:
    """Steer ``system`` from ``x0`` to the origin within horizon ``T``."""

    system: LinearSystem
    x0: np.ndarray
    T: float

    def __post_init__(self):
        self.x0 = as_vector(self.x0, "x0")
        if self.x0.shape[0] != self.system.n:
            raise DimensionError(
                f"x0 has length {self.x0.shape[0]}, expected {self.system.n}"
            )
        if not is_number(self.T) or self.T <= 0:
            raise DomainError(f"T must be positive and finite, got {self.T}")


@dataclass
class DiscreteProblem:
    """Grid data: step, sample count, one-step maps, reachability map, drift.

    ``Bd`` covers the split input [B, -B]; ``Phi`` stacks
    Ad^(N-1) Bd, ..., Ad Bd, Bd left to right; ``AdN`` is Ad^N, and
    ``zeta = AdN x0`` is where the state drifts with zero input, so
    feasibility means Phi @ z = -zeta.
    """

    delta: float
    N: int
    Ad: np.ndarray
    Bd: np.ndarray
    Phi: np.ndarray
    zeta: np.ndarray
    AdN: np.ndarray

    def __post_init__(self):
        for name in ("Ad", "Bd", "Phi", "AdN"):
            setattr(self, name, as_matrix(getattr(self, name), name))
        self.zeta = as_vector(self.zeta, "zeta")
        n = self.Ad.shape[0]
        if (self.Ad.shape != (n, n) or self.AdN.shape != (n, n) or self.Bd.shape[0] != n
                or self.Bd.shape[1] % 2):
            raise DimensionError("Ad/AdN/Bd shapes are inconsistent")
        if self.N < 1:
            raise ParameterError(f"N must be at least 1, got {self.N}")
        if not np.isfinite(self.delta) or self.delta <= 0:
            raise DomainError(f"delta must be positive, got {self.delta}")
        if self.Phi.shape != (n, self.Bd.shape[1] * self.N) or self.zeta.shape[0] != n:
            raise DimensionError("Phi/zeta shapes do not match Ad, Bd, N")

    @property
    def n(self) -> int:
        return self.Ad.shape[0]

    @property
    def m(self) -> int:
        return self.Bd.shape[1] // 2


def _scan(Ad: np.ndarray, b: np.ndarray) -> None:
    """b[k] <- sum_{j<=k} Ad^(k-j) b[j] in place, for C-contiguous b of shape
    (N, n) or (N, r, n) whose last axis is a state.  A doubling (Hillis-Steele)
    prefix scan: the step with shift s adds Ad^s times the partial sums s
    samples back in one 2-D product, then squares Ad^s; ceil(log2 N) steps."""
    N = b.shape[0]
    rows = b.reshape(-1, Ad.shape[0])  # a view: the scan writes into b
    r = rows.shape[0] // N
    P = Ad  # Ad^s
    s = 1
    while s < N:
        rows[s * r:] += rows[:-s * r] @ P.T
        s *= 2
        if s < N:
            P = P @ P


def build_discrete(problem: ControlProblem, N: int) -> DiscreteProblem:
    """Discretize over N equal steps of length T/N.  ``Phi`` is the scan of
    Bd alone (row k holds (Ad^k Bd)^T), its blocks in reverse order.  An
    overflowing horizon raises ``DomainError``, with no numpy warning."""
    if N < 1:
        raise ParameterError(f"N must be at least 1, got {N}")
    sys_, T = problem.system, problem.T
    delta = T / N
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        Ad, Bd = zoh_discretize(sys_.A, np.hstack([sys_.B, -sys_.B]), delta)
        n, width = Bd.shape
        powers = np.zeros((N, width, n))
        powers[0] = Bd.T
        _scan(Ad, powers)
        AdN = np.linalg.matrix_power(Ad, N)
        zeta = AdN @ problem.x0
    if not (np.isfinite(AdN).all() and np.isfinite(powers).all()):
        a = float(np.linalg.eigvals(sys_.A).real.max())
        raise DomainError(f"T = {T:g} overflows double precision: the plant grows like "
                          f"e^({a:.6g} t), e^{a * T:.6g} over T")
    Phi = powers[::-1].transpose(2, 0, 1).reshape(n, N * width)
    return DiscreteProblem(delta, N, Ad, Bd, Phi, zeta, AdN)


def simulate(dp: DiscreteProblem, x0, z) -> np.ndarray:
    """States x_0..x_N of x_{k+1} = Ad x_k + Bd z_k; returns shape (N+1, n).

    The plant is time-invariant, so x_{k+1} = sum_{j<=k} Ad^(k-j) b_j with
    b_j = Bd z_j and the initial state folded in as b_0 += Ad x0, summed by
    ``_scan`` (as ``Phi`` is).  Its sums are grouped differently from a
    step-by-step loop, so the states agree with it to rounding, not bitwise.
    """
    x0 = as_vector(x0, "x0")
    z = as_vector(z, "z")
    n, m, N = dp.n, dp.m, dp.N
    if x0.shape[0] != n:
        raise DimensionError(f"x0 has length {x0.shape[0]}, expected {n}")
    if z.shape[0] != 2 * m * N:
        raise DimensionError(f"z has length {z.shape[0]}, expected {2 * m * N}")
    states = np.empty((N + 1, n))
    states[0] = x0
    b = states[1:]  # a view: the scan runs in place in the result
    b[:] = z.reshape(N, 2 * m) @ dp.Bd.T
    b[0] += dp.Ad @ x0
    _scan(dp.Ad, b)
    return states
