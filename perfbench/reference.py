"""Reference computations that share no code with handsoff.

The discretization uses ``scipy.linalg.expm`` on the augmented block matrix,
and the l1 LP is solved by HiGHS through ``scipy.optimize.linprog``.  The
checks in ``checks.py`` compare the program's outputs against these.
"""

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog


def zoh(A, B, delta):
    """Exact zero-order-hold step: (Ad, Bd) from exp([[A, B], [0, 0]] * delta)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A * delta
    M[:n, n:] = B * delta
    E = expm(M)
    return E[:n, :n], E[:n, n:]


def terminal_state(A, B, T, x0, U):
    """State at T reached from x0 under the piecewise-constant samples U (N, m)."""
    U = np.asarray(U, dtype=float)
    Ad, Bd = zoh(A, B, T / U.shape[0])
    x = np.asarray(x0, dtype=float)
    for u in U:
        x = Ad @ x + Bd @ u
    return x


def reach_map(A, B, T, N):
    """(Phi, Ad^N) for the split input z = [v0; w0; v1; w1; ...], u_k = v_k - w_k."""
    B = np.asarray(B, dtype=float)
    Ad, Bd = zoh(A, np.hstack([B, -B]), T / N)
    blocks = [Bd]
    for _ in range(N - 1):
        blocks.append(Ad @ blocks[-1])
    return np.hstack(blocks[::-1]), np.linalg.matrix_power(Ad, N)


def l1_optimum(A, B, T, N, x0):
    """Minimal sum(z) over the box [0, 1] subject to reaching the origin, by
    HiGHS; None when HiGHS reports no optimum."""
    Phi, AdN = reach_map(A, B, T, N)
    b = -AdN @ np.asarray(x0, dtype=float)
    rows = np.max(np.abs(np.column_stack([Phi, b])), axis=1)  # equilibrate: same feasible set
    rows[rows == 0.0] = 1.0
    res = linprog(np.ones(Phi.shape[1]), A_eq=Phi / rows[:, None], b_eq=b / rows,
                  bounds=(0.0, 1.0), method="highs")
    return float(res.fun) if res.status == 0 else None


def calibrate_scale(A, B, T, N, direction, target):
    """Scale s such that x0 = s*direction needs l1 effort delta*sum(z) = target.

    The l1 optimum v(s) is convex in s with v(0) = 0, so v(s)/s never
    decreases and the update s <- s * target / v(s) converges monotonically.
    """
    delta = T / N
    s = 1.0
    for _ in range(30):
        v = l1_optimum(A, B, T, N, s * np.asarray(direction))
        if v is None:
            s *= 0.5
            continue
        effort = v * delta
        if abs(effort / target - 1.0) < 1e-3:
            return s
        s *= target / effort
    raise RuntimeError("x0 calibration did not converge")


def support(U, theta=1e-6):
    """Number of samples with |u| > theta (the l0 measure divided by delta)."""
    return int(np.count_nonzero(np.abs(np.asarray(U)) > theta))
