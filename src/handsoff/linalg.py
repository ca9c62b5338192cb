"""Dense matrix helpers: validated construction, matrix exponential, and
exact zero-order-hold discretization of a constant linear system.

Everything here is plain float64 numpy.  The exponential uses scaling and
squaring of the degree-13 diagonal rational approximant, which is accurate
to full working precision for the moderate norms this package produces.
"""

import numpy as np

from .errors import DimensionError, DomainError, NumericalError

# Numerator coefficients of the degree-13 diagonal rational approximant of exp.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
# Largest 1-norm for which the unscaled degree-13 approximant holds double
# precision; above it the argument is halved until it fits.
_THETA13 = 5.371920351148152


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionError(f"{name} must be 2-D with positive shape, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise DimensionError(f"{name} must be 1-D with positive length, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def expm(M) -> np.ndarray:
    """Matrix exponential of a square matrix.

    Scaling and squaring with a fixed degree-13 diagonal rational
    approximant: halve M until its 1-norm is below the precision threshold,
    evaluate the approximant, then square the result back up.
    """
    A = as_matrix(M, "M")
    n, cols = A.shape
    if n != cols:
        raise DimensionError(f"M must be square, got {A.shape}")
    norm = float(np.abs(A).sum(axis=0).max())  # the 1-norm, as np.linalg.norm(A, 1)
    s = 0 if norm <= _THETA13 else int(np.ceil(np.log2(norm / _THETA13)))
    if s > 0:
        A = A / (2.0 ** s)  # exact: power-of-two scaling
    b = _PADE13
    ident = np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident
    )
    try:
        R = np.linalg.solve(V - U, V + U)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - not reachable for finite input
        raise NumericalError("matrix exponential: denominator solve failed") from exc
    for _ in range(s):
        R = R @ R
    return R


def zoh_discretize(A, Bext, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization over one step of length delta.

    Returns (Ad, Bd) with Ad = exp(A*delta) and Bd = int_0^delta exp(A*t) dt @ Bext,
    both read off a single exponential of the augmented block matrix
    [[A, Bext], [0, 0]] * delta.
    """
    A = as_matrix(A, "A")
    Bext = as_matrix(Bext, "Bext")
    n, cols = A.shape
    if n != cols:
        raise DimensionError(f"A must be square, got {A.shape}")
    if Bext.shape[0] != n:
        raise DimensionError(f"Bext must have {n} rows, got {Bext.shape}")
    if not np.isfinite(delta) or delta <= 0:
        raise DomainError(f"delta must be positive and finite, got {delta}")
    q = Bext.shape[1]
    aug = np.zeros((n + q, n + q))
    aug[:n, :n] = A * delta
    aug[:n, n:] = Bext * delta
    E = expm(aug)
    return E[:n, :n].copy(), E[:n, n:].copy()
