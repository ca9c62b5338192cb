"""Independent ground truth for small and analytically solvable instances.

Two routes, deliberately separate from the solver: an analytic certificate
for the double-integrator benchmark, whose optimal controls are known in
closed form up to the switching set, and an exhaustive search over the
three-level grid {-1, 0, 1}^(mN) for instances small enough to enumerate.
The search goes level by level in support size k = 0, 1, ..., mN and stops
at the first level with a feasible point; it stays exhaustive, because every
sparser signal has been tested and found infeasible by then, and it returns
that level's minimizers in base-3 code order.  ``make_exact_instance`` runs
the construction backwards: given a planted grid signal it produces the
initial state that the signal steers to the origin exactly, so enumeration
has a known feasible point.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dca import ControlSignal, l0_measure, split_control
from .errors import DimensionError, DomainError, ParameterError, SizeError, check_number
from .linalg import as_matrix, as_vector
from .system import ControlProblem, DiscreteProblem, LinearSystem, build_discrete, double_integrator, simulate

MAX_ENUM_VARS = 16
_CHUNK = 1 << 16  # grid points tested per matrix product


@dataclass(frozen=True)
class CertificateTolerances:
    """Pass thresholds; ``l0`` and ``dblint`` default to grid-aware values
    (2*delta and max(0.05, 4*delta) respectively) when left as None."""

    value: float = 1e-3
    l0: float | None = None
    dblint: float | None = None
    terminal: float = 1e-6
    support_threshold: float = 1e-6
    edge_window: int = 2
    per_edge: int = 2

    def __post_init__(self):
        for name in ("value", "l0", "dblint", "terminal", "support_threshold"):
            val = getattr(self, name)
            if val is None and name in ("l0", "dblint"):
                continue
            # `v >= 0` is False for NaN; inf switches a check off
            check_number(f"tolerance {name!r}", val, "a nonnegative number", lambda v: v >= 0)
        for name in ("edge_window", "per_edge"):
            check_number(f"tolerance {name!r}", getattr(self, name), "a nonnegative integer",
                         lambda v: v >= 0, numbers.Integral)


@dataclass
class CertificateReport:
    value_deviation: float
    l0_measured: float
    l0_expected: float
    dblint_measured: float
    dblint_expected: float
    terminal_norm: float
    passed: bool
    n_fractional: int = 0
    n_exempt: int = 0


def _support_edges(support: np.ndarray) -> list[int]:
    """Indices bounding each maximal support run (first and last sample)."""
    idx = np.flatnonzero(support)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate([[idx[0]], idx[breaks + 1]])
    ends = np.concatenate([idx[breaks], [idx[-1]]])
    edges: list[int] = []
    for s, e in zip(starts, ends):
        edges.append(int(s))
        if e != s:
            edges.append(int(e))
    return edges


def double_integrator_certificate(
    u: ControlSignal,
    x0,
    T: float,
    tols: CertificateTolerances | None = None,
    *,
    states: np.ndarray | None = None,
) -> CertificateReport:
    """Check a single-input signal against the closed-form optimality facts
    for the double integrator started at x0 = (xi1, xi2) with xi2 < 0 and
    steered to the origin over [0, T].

    Facts checked: samples take values in {0, 1} (up to ``per_edge``
    fractional samples near each support-run edge, where a grid vertex may
    legitimately sit between bounds); the support measure equals -xi2; the
    iterated integral of u from 0 equals -xi1 - xi2*T (compared through its
    left-Riemann double sum); and simulating the signal lands on the origin.

    ``states`` is the caller's trajectory of u, shape (N+1, 2), from x0 at
    k = 0 to the terminal state at k = N; any other shape raises
    DimensionError.  Without it the certificate discretizes the double
    integrator over [0, T] and simulates u itself.
    """
    tols = tols or CertificateTolerances()
    x0 = as_vector(x0, "x0")
    if x0.shape[0] != 2:
        raise DimensionError(f"x0 must have length 2, got {x0.shape[0]}")
    if u.m != 1:
        raise DimensionError(f"certificate requires a single input, got m={u.m}")
    if not np.isfinite(T) or T <= 0:
        raise DomainError(f"T must be positive, got {T}")
    N = u.N
    delta = u.delta
    if abs(N * delta - T) > 1e-9 * max(1.0, abs(T)):
        raise DimensionError(f"u covers {N * delta}, expected horizon {T}")
    xi1, xi2 = float(x0[0]), float(x0[1])
    l0_expected = -xi2
    dblint_expected = -xi1 - xi2 * T
    l0_tol = 2.0 * delta if tols.l0 is None else tols.l0
    dblint_tol = max(0.05, 4.0 * delta) if tols.dblint is None else tols.dblint

    s = u.samples[:, 0]
    dist = np.minimum(np.abs(s), np.abs(s - 1.0))
    support = np.abs(s) > tols.support_threshold
    fractional = np.flatnonzero(dist > tols.value)
    edges = _support_edges(support)
    capacity = {e: tols.per_edge for e in edges}
    exempt = np.zeros(s.shape[0], dtype=bool)
    for f in fractional:
        near = sorted((abs(f - e), e) for e in edges if abs(f - e) <= tols.edge_window)
        for _, e in near:
            if capacity[e] > 0:
                capacity[e] -= 1
                exempt[f] = True
                break
    checked = dist.copy()
    checked[exempt] = 0.0
    value_deviation = float(checked.max(initial=0.0))

    l0_measured = l0_measure(u, tols.support_threshold)
    dblint_measured = float(delta * delta * np.sum(np.cumsum(s)[:-1])) if N > 1 else 0.0

    if states is None:
        dp = build_discrete(ControlProblem(double_integrator(), x0, T), N)
        states = simulate(dp, x0, split_control(u))
    else:
        states = as_matrix(states, "states")
        if states.shape != (N + 1, 2):
            raise DimensionError(f"states has shape {states.shape}, expected {(N + 1, 2)}")
    terminal_norm = float(np.linalg.norm(states[-1]))

    passed = (
        value_deviation <= tols.value
        and abs(l0_measured - l0_expected) <= l0_tol
        and abs(dblint_measured - dblint_expected) <= dblint_tol
        and terminal_norm <= tols.terminal
    )
    return CertificateReport(
        value_deviation=value_deviation,
        l0_measured=l0_measured,
        l0_expected=l0_expected,
        dblint_measured=dblint_measured,
        dblint_expected=dblint_expected,
        terminal_norm=terminal_norm,
        passed=passed,
        n_fractional=int(fractional.size),
        n_exempt=int(exempt.sum()),
    )


def brute_force_l0(dp: DiscreteProblem, eps: float = 1e-8) -> tuple[float, list[ControlSignal]]:
    """Exhaustive minimum support over grid signals u in {-1, 0, 1}^(m*N).

    Feasibility means the split of u satisfies the terminal constraint within
    ``eps`` in the max norm.  The scan goes by support size k = 0, 1, ...,
    m*N: level k holds every support set of k scalar samples with each of
    its 2^k sign patterns, and the scan stops after the first level with a
    feasible point.  That is still exhaustive: every sparser grid signal was
    tested and found infeasible, and every signal of the winning level was
    tested.  Returns (min support measure, all attaining signals in base-3
    code order, i.e. lexicographic with -1 < 0 < 1 and sample 0 of input 0
    most significant); (inf, []) when no grid point is feasible.  Refuses
    instances with more than 16 scalar samples.
    """
    if not np.isfinite(eps) or eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    m, N = dp.m, dp.N
    nvars = m * N
    if nvars > MAX_ENUM_VARS:
        raise SizeError(f"m*N = {nvars} exceeds the enumeration cap {MAX_ENUM_VARS}")
    # One effective column per scalar sample: the scan uses the v columns of
    # Phi.  Bd discretizes [B, -B] as one matrix, so a w column is rounded on
    # its own and may differ from the negated v column by an ulp or so (up to
    # 3.3e-16 relative seen), far below eps.
    phi_u = dp.Phi.reshape(dp.n, N, 2 * m)[:, :, :m].reshape(dp.n, nvars)
    for k in range(nvars + 1):
        supports = np.array(list(itertools.combinations(range(nvars), k)), dtype=np.intp)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=k)))  # (2^k, k)
        per = max(1, _CHUNK // len(signs))  # support sets per chunk
        found = []
        for start in range(0, len(supports), per):
            # one row per (support set, sign pattern) pair
            idx = np.repeat(supports[start:start + per], len(signs), axis=0)
            U = np.zeros((len(idx), nvars))
            np.put_along_axis(U, idx, np.tile(signs, (len(idx) // len(signs), 1)), axis=1)
            resid = U @ phi_u.T + dp.zeta
            found.append(U[np.max(np.abs(resid), axis=1) <= eps])
        mins = np.concatenate(found)
        if len(mins):
            # lexsort's last key is the primary one: sample 0 of input 0
            mins = mins[np.lexsort(mins.T[::-1])]
            return k * dp.delta, [ControlSignal(dp.delta, row.reshape(N, m)) for row in mins]
    return math.inf, []


def make_exact_instance(system: LinearSystem, T: float, N: int, planted: ControlSignal) -> ControlProblem:
    """Initial state steered to the origin exactly by the planted grid signal.

    Inverts the drift: x0 = -Ad^(-N) @ Phi @ split(planted), so the planted
    signal is feasible for the returned problem up to rounding.
    """
    return exact_instance(system, T, N, planted)[0]


def exact_instance(system: LinearSystem, T: float, N: int,
                   planted: ControlSignal) -> tuple[ControlProblem, DiscreteProblem]:
    """``make_exact_instance``'s problem and, from the same build, its
    discretization: bit for bit ``build_discrete(problem, N)``."""
    vals = planted.samples
    if planted.N != N or planted.m != system.m:
        raise DimensionError(
            f"planted signal is {planted.N}x{planted.m}, expected {N}x{system.m}"
        )
    if not np.all(np.isin(vals, (-1.0, 0.0, 1.0))):
        raise DomainError("planted samples must take values in {-1, 0, 1}")
    probe = ControlProblem(system, np.zeros(system.n), T)
    dp = build_discrete(probe, N)
    if abs(planted.delta - dp.delta) > 1e-12 * max(1.0, dp.delta):
        raise DimensionError(
            f"planted delta {planted.delta} does not match T/N = {dp.delta}"
        )
    rhs = dp.Phi @ split_control(planted)
    drift = np.linalg.matrix_power(dp.Ad, N)
    problem = ControlProblem(system, -np.linalg.solve(drift, rhs), T)
    return problem, DiscreteProblem(dp.delta, N, dp.Ad, dp.Bd, dp.Phi, drift @ problem.x0)
