"""Sparsity-promoting penalty catalog and the concave-gap transform.

Each catalog entry is a scalar penalty ``psi`` applied coordinatewise to a
control value in [-1, 1].  The solver never uses ``psi`` directly; it works
with the gap ``phi(u) = |u| - psi(u)``, which is convex on [0, 1] for every
valid parameter choice and is the part the DC iteration linearizes.

A penalty is admissible for the support-measure equivalence when, on top of
its parameter ranges, it satisfies four structural conditions: the penalty
acts coordinatewise and the gap is even (both by construction here: psi and
phi are evaluated on ``|u|``), the gap is zero at the origin (by
construction too: every kind has ``psi(0) = 0``) and strictly below its
chord ``phi(1)|u|`` inside the unit interval, and ``phi(1) < 1``.
``validate_assumption`` checks the last two on a grid, once per penalty,
and hands every caller the same frozen report; ``equivalence_constant``
returns ``1 - phi(1)``, the factor that converts the discrete objective
into a support count on bang-off-bang signals.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AssumptionViolationError, DomainError, ParameterError, is_number

_POSITIVE = (lambda v: v > 0, "satisfy {} > 0")
# The parameters each kind takes, each with its range (a test and its text);
# a kind's other parameters must be None.  lambda = 1 (l1l2) and alpha = 1
# (capped_l1) are in range, so that the degenerate gap shows up as a
# structural violation rather than a range error.
PARAMETERS = {
    "lp": {"lam": _POSITIVE, "p": (lambda v: 0 < v < 1, "lie in (0, 1)")},
    "mcp": {"lam": _POSITIVE, "alpha": _POSITIVE},
    "scad": {"lam": (lambda v: 0 < v < 1, "lie in (0, 1)"),
             "alpha": (lambda v: v > 1, "satisfy {} > 1")},
    "lsp": {"lam": _POSITIVE, "alpha": _POSITIVE},
    "capped_l1": {"lam": _POSITIVE, "alpha": (lambda v: 0 < v <= 1, "satisfy {} in (0, 1]")},
    "l1l2": {"lam": (lambda v: 0 < v <= 1, "lie in (0, 1]")},
}
KINDS = tuple(PARAMETERS)

_PSI_DOMAIN_SLACK = 1e-12
_LP_FLOOR = 1e-8  # the lp kind's subgradient is evaluated no closer to 0 than this
# The A3 check's grid, k/GRID_SIZE for k = 1..GRID_SIZE, and the least
# margin by which each of its bounds must hold.
GRID_SIZE = 1000
MARGIN = 1e-12


@dataclass(frozen=True)
class Penalty:
    """One catalog entry: a kind tag plus its numeric parameters.

    ``lam`` is the weight common to all kinds; ``alpha`` is the shape/knee
    parameter of all kinds but ``lp`` and ``l1l2``; ``p`` is the exponent of
    ``lp`` alone (``PARAMETERS``).
    """

    kind: str
    lam: float
    alpha: float | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown penalty kind {self.kind!r}; expected one of {KINDS}")
        ranges = PARAMETERS[self.kind]
        for name in ("lam", "alpha", "p"):
            val, label = getattr(self, name), "lambda" if name == "lam" else name
            if name not in ranges:
                if val is not None:
                    raise ParameterError(f"{self.kind}: takes no {label}, got {val}")
            elif not is_number(val) or not ranges[name][0](val):
                text = ranges[name][1].format(label)
                raise ParameterError(f"{self.kind}: {label} must {text}, got {val}")


def _check_unit_box(u: np.ndarray, lo: float, hi: float, what: str):
    if u.size and not (u.min() >= lo - _PSI_DOMAIN_SLACK and u.max() <= hi + _PSI_DOMAIN_SLACK):
        if u.min() < lo - _PSI_DOMAIN_SLACK or u.max() > hi + _PSI_DOMAIN_SLACK:
            raise DomainError(f"{what}: values must lie in [{lo}, {hi}]")
        raise DomainError(f"{what}: values must be finite")  # NaN fails both tests


def _psi_abs(pen: Penalty, a: np.ndarray) -> np.ndarray:
    """psi evaluated on a = |u| (array, entries in [0, 1])."""
    lam = pen.lam
    if pen.kind == "lp":
        return lam * a ** pen.p
    if pen.kind == "mcp":
        alpha = pen.alpha
        knee = alpha * lam
        return np.where(a <= knee, lam * a - a * a / (2.0 * alpha), knee * lam / 2.0)
    if pen.kind == "scad":
        alpha = pen.alpha
        mid = -(a * a - 2.0 * alpha * lam * a + lam * lam) / (2.0 * (alpha - 1.0))
        top = (alpha + 1.0) * lam * lam / 2.0
        return np.where(a <= lam, lam * a, np.where(a <= alpha * lam, mid, top))
    if pen.kind == "lsp":
        return lam * np.log1p(a / pen.alpha)
    if pen.kind == "capped_l1":
        return lam * np.minimum(a, pen.alpha)
    # l1l2
    return a - lam * a * a


def psi(pen: Penalty, u):
    """Penalty value at u (scalar or array), defined for |u| <= 1."""
    arr = np.asarray(u, dtype=float)
    _check_unit_box(np.abs(arr), 0.0, 1.0, "psi")
    out = _psi_abs(pen, np.abs(arr))
    return float(out) if arr.ndim == 0 else out


def phi(pen: Penalty, u):
    """Concave-gap value |u| - psi(u)."""
    arr = np.asarray(u, dtype=float)
    _check_unit_box(np.abs(arr), 0.0, 1.0, "phi")
    out = np.abs(arr) - _psi_abs(pen, np.abs(arr))
    return float(out) if arr.ndim == 0 else out


def phi_subgradient(pen: Penalty, u):
    """A deterministic subgradient of phi on [0, 1].

    Smooth points use the derivative, kinks the left derivative, and the
    origin the right derivative.  For the ``lp`` kind, whose right derivative
    at 0 diverges, the derivative is evaluated no closer to 0 than
    ``_LP_FLOOR``.
    """
    arr = np.asarray(u, dtype=float)
    _check_unit_box(arr, 0.0, 1.0, "phi_subgradient")
    a = arr.clip(0.0, 1.0)
    lam = pen.lam
    if pen.kind == "lp":
        out = 1.0 - lam * pen.p * np.maximum(a, _LP_FLOOR) ** (pen.p - 1.0)
    elif pen.kind == "mcp":
        out = np.where(a <= pen.alpha * lam, 1.0 - lam + a / pen.alpha, 1.0)
    elif pen.kind == "scad":
        alpha = pen.alpha
        mid = 1.0 - (alpha * lam - a) / (alpha - 1.0)
        out = np.where(a <= lam, 1.0 - lam, np.where(a <= alpha * lam, mid, 1.0))
    elif pen.kind == "lsp":
        out = 1.0 - lam / (pen.alpha + a)
    elif pen.kind == "capped_l1":
        out = np.where(a <= pen.alpha, 1.0 - lam, 1.0)
    else:  # l1l2
        out = 2.0 * lam * a
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the grid check of the structural conditions."""

    passed: bool
    violated: tuple[str, ...] = ()
    worst_margin: float = float("inf")
    witness_u: float = float("nan")
    grid_size: int = 0
    note: str = "grid-verified"


@lru_cache(maxsize=256)
def validate_assumption(pen: Penalty) -> AssumptionReport:
    """Check the structural conditions on the grid k/GRID_SIZE, k = 1..GRID_SIZE.

    Coordinatewise action, evenness, a shared gap across channels and a zero
    gap at the origin (A1, A2, A4 and A3 at u = 0) hold by construction: one
    scalar penalty with ``psi(0) = 0`` is applied to ``|u|`` on every input
    channel.  The strict chord bounds (A3) are verified numerically, each to
    hold by more than ``MARGIN``; the report records the worst margin and
    the grid point attaining it.

    Cached per process by the penalty (256 kept): repeated calls share one
    report, which is frozen, so no caller can change what the next one gets.
    """
    grid = np.arange(1, GRID_SIZE + 1, dtype=float) / GRID_SIZE  # (0, 1]
    phi_vals = phi(pen, grid)
    # The margins 1 - phi(1) and phi(1)*u - phi(u) at the interior points,
    # with u = 1 first, so that a tie reports u = 1.
    slack = np.concatenate(([1.0 - phi_vals[-1]], phi_vals[-1] * grid[:-1] - phi_vals[:-1]))
    k = int(np.argmin(slack))
    violated = ("A3",) if slack[k] <= MARGIN else ()
    return AssumptionReport(
        passed=not violated,
        violated=violated,
        worst_margin=float(slack[k]),
        witness_u=float(grid[k - 1]),  # k = 0 is u = 1, grid[-1]
        grid_size=GRID_SIZE,
    )


@lru_cache(maxsize=256)
def equivalence_constant(pen: Penalty) -> float:
    """Factor c = 1 - phi(1) converting the discrete objective to a support count."""
    c = 1.0 - phi(pen, 1.0)
    if c <= 0.0:
        raise AssumptionViolationError(
            f"{pen.kind}: equivalence constant {c} is not positive; the gap at 1 reaches 1"
        )
    return float(c)
