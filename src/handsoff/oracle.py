"""Independent ground truth for the solver's controls.

Two routes, deliberately separate from the DC iteration.  A support
certificate, for any plant: weak duality for the plain l1 LP turns a dual
vector into a lower bound on the support measure of every control that
reaches the origin (``support_lower_bound``), and ``certificate`` passes a
control whose support is within a tolerance of that bound and whose
terminal state is at the origin.  And an exhaustive search over the
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
from dataclasses import dataclass

import numpy as np

from .dca import ControlSignal, split_control
from .errors import DimensionError, DomainError, ParameterError, SizeError, check_number
from .linalg import as_vector
from .system import ControlProblem, DiscreteProblem, LinearSystem, build_discrete

MAX_ENUM_VARS = 16
_CHUNK = 1 << 16  # grid points tested per matrix product


@dataclass(frozen=True)
class CertificateTolerances:
    """Pass thresholds: ``l0`` on how far a control's support measure may
    exceed the proven lower bound (n*delta when None: an LP vertex holds at
    most n samples strictly inside the box), ``terminal`` on the Euclidean
    norm of the terminal state."""

    l0: float | None = None
    terminal: float = 1e-6

    def __post_init__(self):
        # `v >= 0` is False for NaN; inf switches a check off
        if self.l0 is not None:
            check_number("tolerance 'l0'", self.l0, "a nonnegative number", lambda v: v >= 0)
        check_number("tolerance 'terminal'", self.terminal, "a nonnegative number",
                     lambda v: v >= 0)


@dataclass
class CertificateReport:
    l0: float
    lower_bound: float
    terminal_norm: float
    passed: bool


def support_lower_bound(dp: DiscreteProblem, duals, theta: float) -> float:
    """A lower bound on the support measure, counted at ``theta``, of every
    grid control with |u| <= 1 that steers dp's x0 exactly to the origin.

    Weak duality for the l1 LP, min sum(z) over Phi z = -zeta, 0 <= z <= 1:
    for any y in R^n and any feasible z,
        sum(z) = sum(z) - y @ (Phi z + zeta)
               = -y @ zeta + sum_j (1 - y @ Phi_j) z_j  >=  D(y),
        D(y) = -y @ zeta + sum_j min(0, 1 - y @ Phi_j),
    since each z_j lies in [0, 1].  A control with k of its m*N samples
    above theta in magnitude has a split z with sum(z) = sum|u| <= k +
    theta*m*N, so k >= D(y) - theta*m*N, and k is an integer:
        k >= ceil(D(y) - r),    r = theta*m*N + 1e-9*max(1, |D(y)|),
    where the last term covers the rounding in evaluating D.  Returns
    delta*ceil(D(y) - r).  Any ``duals`` give a valid bound; the l1 LP's
    optimal duals give the best one, D(y) = the l1 optimum.
    """
    y = as_vector(duals, "duals")
    D = float(-y @ dp.zeta + np.sum(np.minimum(0.0, 1.0 - y @ dp.Phi)))
    r = theta * dp.m * dp.N + 1e-9 * max(1.0, abs(D))
    return dp.delta * math.ceil(D - r)


def certificate(l0: float, lower_bound: float, terminal: np.ndarray, delta: float,
                tols: CertificateTolerances | None = None) -> CertificateReport:
    """Certify a control by its support measure ``l0`` and its terminal
    state ``terminal`` (shape (n,)): it passes when l0 is within ``tols.l0``
    of ``lower_bound`` (``support_lower_bound``) and the terminal state's
    norm is at most ``tols.terminal``; a non-finite terminal state fails.
    ``delta`` is the grid step, which sets the default ``tols.l0`` =
    n*delta.  Works on any plant; it neither measures nor simulates the
    control."""
    tols = tols or CertificateTolerances()
    terminal_norm = float(np.linalg.norm(terminal))
    l0_tol = len(terminal) * delta if tols.l0 is None else tols.l0
    passed = terminal_norm <= tols.terminal and l0 - lower_bound <= l0_tol
    return CertificateReport(l0, lower_bound, terminal_norm, passed)


# perfbench/tracing.py wraps the certificate under this name; the benchmark
# is its only reader.
double_integrator_certificate = certificate


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
    if not math.isfinite(eps) or eps <= 0:
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
        supports = np.fromiter(itertools.chain(*itertools.combinations(range(nvars), k)),
                               np.intp).reshape(math.comb(nvars, k), k)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=k)))  # (2^k, k)
        per = max(1, _CHUNK // len(signs))  # support sets per chunk
        found = []
        for start in range(0, len(supports), per):
            # one row per (support set, sign pattern) pair, support-major
            sets = supports[start:start + per]
            U = np.zeros((len(sets), len(signs), nvars))
            U[np.arange(len(sets))[:, None, None], np.arange(len(signs))[:, None],
              sets[:, None]] = signs
            U = U.reshape(-1, nvars)
            resid = U @ phi_u.T + dp.zeta
            found.append(U[np.abs(resid).max(axis=1) <= eps])
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
    """``make_exact_instance``'s problem and its discretization, bit for bit
    ``build_discrete(problem, N)``, from one build whose ``AdN`` places x0."""
    vals = planted.samples
    if planted.N != N or planted.m != system.m:
        raise DimensionError(
            f"planted signal is {planted.N}x{planted.m}, expected {N}x{system.m}"
        )
    if not ((vals == 0.0) | (np.abs(vals) == 1.0)).all():
        raise DomainError("planted samples must take values in {-1, 0, 1}")
    dp = build_discrete(ControlProblem(system, np.zeros(system.n), T), N)
    if abs(planted.delta - dp.delta) > 1e-12 * max(1.0, dp.delta):
        raise DimensionError(
            f"planted delta {planted.delta} does not match T/N = {dp.delta}"
        )
    rhs = dp.Phi @ split_control(planted)
    problem = ControlProblem(system, -np.linalg.solve(dp.AdN, rhs), T)
    dp.zeta = as_vector(dp.AdN @ problem.x0, "zeta")
    return problem, dp
