"""Independent references for checking hetsis outputs.

Nothing here calls hetsis: eigenvalues come from LAPACK, steady states
from a Newton iteration written here, trajectories from scipy's
adaptive integrator, and exact-chain transients from scipy's matrix
exponential on a generator assembled here with bit operations.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import expm_multiply


def lambda_max(adjacency: np.ndarray, tau: np.ndarray) -> float:
    root = np.sqrt(tau)
    return float(np.linalg.eigvalsh(root[:, None] * adjacency * root[None, :])[-1])


def nodal_residual(adjacency, beta, delta, v) -> float:
    """max_i |A(beta v) - delta v / (1 - v)|."""
    return float(np.abs(adjacency @ (beta * v) - delta * v / (1.0 - v)).max())


def newton_steady(adjacency, beta, delta, tol: float = 1e-14) -> np.ndarray:
    """Endemic fixed point by damped Newton from the componentwise upper bound."""
    gamma = adjacency @ beta
    v = gamma / (gamma + delta)
    for _ in range(200):
        f = adjacency @ (beta * v) - delta * v / (1.0 - v)
        if np.abs(f).max() <= tol:
            return v
        jac = adjacency * beta[None, :] - np.diag(delta / (1.0 - v) ** 2)
        step = np.linalg.solve(jac, -f)
        scale = 1.0
        while np.any(v + scale * step <= 0.0) or np.any(v + scale * step >= 1.0):
            scale *= 0.5
        v = v + scale * step
    raise RuntimeError("reference Newton iteration did not converge")


def s_matrix(adjacency, beta, delta, v) -> np.ndarray:
    return np.diag(delta / (1.0 - v) ** 2) - adjacency * beta[None, :]


def derivative_references(adjacency, beta, delta, v) -> dict:
    """d1, d2 (independent mode) and tied-mode vectors by dense solves on S."""
    s = s_matrix(adjacency, beta, delta, v)
    d1 = -np.linalg.solve(s, np.diag(v / (1.0 - v)))
    w = 2.0 * (delta / (1.0 - v) ** 3)[:, None] * d1**2
    w[np.diag_indices_from(w)] += 2.0 * np.diag(d1) / (1.0 - v) ** 2
    d2 = -np.linalg.solve(s, w)
    d1_tied = np.linalg.solve(s, -(v / (1.0 - v)))
    w_tied = 2.0 * delta * d1_tied**2 / (1.0 - v) ** 3 + 2.0 * d1_tied / (1.0 - v) ** 2
    return {
        "s": s,
        "s_inverse": np.linalg.inv(s),
        "d1": d1,
        "d2": d2,
        "d1_tied": d1_tied,
        "d2_tied": -np.linalg.solve(s, w_tied),
    }


def close(value, reference, rel: float) -> bool:
    value, reference = np.asarray(value, float), np.asarray(reference, float)
    if value.shape != reference.shape:
        return False
    return bool(np.abs(value - reference).max() <= rel * max(1.0, float(np.abs(reference).max())))


def mean_field(adjacency, beta, delta, v0, t_eval) -> np.ndarray:
    """Mean-field states at the times t_eval (ascending), by DOP853."""

    def rhs(_t, v):
        pressure = adjacency @ (beta * v)
        return pressure - v * (pressure + delta)

    t_eval = np.asarray(t_eval, float)
    sol = solve_ivp(rhs, (0.0, float(t_eval[-1])), v0, method="DOP853", t_eval=t_eval, rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


def simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson rule along axis 0 (odd number of samples)."""
    return h / 3.0 * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum(axis=0) + 2.0 * values[2:-1:2].sum(axis=0))


def mean_field_window(adjacency, beta, delta, v0, burn_in, horizon, points: int = 257) -> np.ndarray:
    """(1 / window) * integral of the mean-field trajectory over [burn_in, horizon]."""
    t = np.linspace(burn_in, horizon, points)
    states = mean_field(adjacency, beta, delta, v0, t)
    return simpson(states, t[1] - t[0]) / (horizon - burn_in)


def state_bits(n: int) -> np.ndarray:
    states = np.arange(1 << n)
    return ((states[:, None] >> np.arange(n)[None, :]) & 1).astype(float)


def exact_generator(adjacency, beta, delta):
    """Rate matrix of the 2^n-state chain (rows = from-state), by bit operations."""
    n = adjacency.shape[0]
    size = 1 << n
    states = np.arange(size)
    bits = state_bits(n)
    infection = (bits * beta[None, :]) @ adjacency  # pressure on node i in state s
    rows, cols, vals = [], [], []
    for i in range(n):
        on = bits[:, i] > 0
        rows.append(states[on])
        cols.append(states[on] ^ (1 << i))
        vals.append(np.full(int(on.sum()), delta[i]))
        off = ~on & (infection[:, i] > 0)
        rows.append(states[off])
        cols.append(states[off] | (1 << i))
        vals.append(infection[off, i])
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    outflow = np.bincount(rows, weights=vals, minlength=size)
    rows = np.concatenate([rows, states])
    cols = np.concatenate([cols, states])
    vals = np.concatenate([vals, -outflow])
    return coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


def doubling_transients(generator, p0, t0: float, doublings: int) -> list[np.ndarray]:
    """p0 exp(G t) at t0, 2 t0, 4 t0, ... by one dense expm and repeated squaring."""
    e = scipy.linalg.expm(generator.toarray() * t0)
    out = []
    for _ in range(doublings + 1):
        out.append(p0 @ e)
        e = e @ e
    return out


def conditioned_window(generator, n: int, burn_in: float, horizon: float, points: int = 129):
    """Exact survival-conditioned window occupancy from the all-infected state.

    Returns (reference, survival) where reference[i] is
    E[time node i is infected in [burn_in, horizon] / window | alive at horizon]
    and survival is P(alive at horizon).
    """
    size = 1 << n
    p0 = np.zeros(size)
    p0[-1] = 1.0
    alive = np.ones(size)
    alive[0] = 0.0
    forward = expm_multiply(generator.T, p0, start=burn_in, stop=horizon, num=points, endpoint=True)
    backward = expm_multiply(generator, alive, start=0.0, stop=horizon - burn_in, num=points, endpoint=True)
    joint = (forward * backward[::-1]) @ state_bits(n)
    h = (horizon - burn_in) / (points - 1)
    survival = 1.0 - float(forward[-1][0])
    return simpson(joint, h) / (horizon - burn_in) / survival, survival
