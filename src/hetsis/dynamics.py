"""Transient mean-field dynamics of the heterogeneous SIS model.

Each node carries an infection probability v_i(t) driven by

    dv_i/dt = sum_j beta_j a_ij v_j - v_i (sum_j beta_j a_ij v_j + delta_i),

i.e. susceptible mass being infected by neighbors minus infected mass
curing.  Integration is classic fixed-step fourth-order Runge-Kutta; the
step is capped at a tenth of the fastest nodal timescale so the scheme
stays well inside its stability region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .graphs import Graph, RateConfig, _integer

__all__ = ["Trajectory", "mean_field_rhs", "default_step", "integrate"]

_OVERSHOOT = 1e-9


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled states of one integration run.

    states[k] is the probability vector at times[k]; terminal_residual is
    the inf-norm of the right-hand side at the final state.
    """

    times: np.ndarray
    states: np.ndarray = field(repr=False)
    terminal_residual: float


def _check_state(v: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise InputError(f"state must have length {n}", code="length-mismatch")
    if not np.all(np.isfinite(v)):
        raise InputError("state contains non-finite entries", code="state-out-of-range")
    if np.any(v < -_OVERSHOOT) or np.any(v > 1.0 + _OVERSHOOT):
        raise InputError("state out of range [0, 1]", code="state-out-of-range")
    return v


def _rhs(g: Graph, rates: RateConfig, v: np.ndarray) -> np.ndarray:
    pressure = g.adjacency @ (rates.beta * v)
    return pressure - v * (pressure + rates.delta)


def mean_field_rhs(g: Graph, rates: RateConfig, v: np.ndarray) -> np.ndarray:
    """Time derivative of the infection-probability vector."""
    return _rhs(g, rates, _check_state(v, g.n))


def default_step(rates: RateConfig) -> float:
    """Largest RK4 step used: a tenth of the fastest nodal timescale."""
    return 0.1 / float(np.max(rates.gamma + rates.delta))


def integrate(
    g: Graph,
    rates: RateConfig,
    v0: np.ndarray,
    t_end: float,
    dt_hint: float | None = None,
    max_points: int | None = 2000,
) -> Trajectory:
    """Integrate the mean-field equations from v0 over [0, t_end].

    The step is min(dt_hint, 0.1 / max_i(gamma_i + delta_i)).  States are
    clamped back into [0, 1] only when the overshoot is below 1e-9;
    anything larger aborts as an instability.  At most ``max_points`` (an
    integer, at least 2) samples are kept, every stride-th step plus the
    last, so both endpoints are always included; only those samples are
    stored.  ``max_points=None`` keeps every step.
    """
    v = _check_state(v0, g.n).copy()
    if not np.isfinite(t_end) or t_end < 0:
        raise InputError("t_end must be non-negative and finite", code="invalid-argument")
    if max_points is not None:
        _integer(max_points, "max_points", 2)
    dt = default_step(rates)
    if dt_hint is not None:
        if dt_hint <= 0:
            raise InputError("dt_hint must be positive", code="invalid-argument")
        dt = min(dt, float(dt_hint))

    n_steps = 0 if t_end == 0 else int(np.ceil(t_end / dt - 1e-12))
    stride = 1 if max_points is None or n_steps < max_points else int(np.ceil(n_steps / (max_points - 1)))
    times = np.empty(-(-n_steps // stride) + 1)
    states = np.empty((times.size, g.n))
    times[0], states[0] = 0.0, v
    slot = 1
    t = 0.0
    for k in range(1, n_steps + 1):
        h = min(dt, t_end - t)
        k1 = _rhs(g, rates, v)
        k2 = _rhs(g, rates, v + 0.5 * h * k1)
        k3 = _rhs(g, rates, v + 0.5 * h * k2)
        k4 = _rhs(g, rates, v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        low, high = float(v.min()), float(v.max())
        if low < -_OVERSHOOT or high > 1.0 + _OVERSHOOT:
            raise NumericalError(
                f"state left [0, 1] by more than {_OVERSHOOT:g} at t={t + h:.6g}; "
                "retry with a smaller dt_hint",
                code="step-instability",
            )
        np.clip(v, 0.0, 1.0, out=v)
        t = t_end if k == n_steps else t + h
        if k % stride == 0 or k == n_steps:
            times[slot], states[slot] = t, v
            slot += 1

    return Trajectory(
        times=times,
        states=states,
        terminal_residual=float(np.abs(_rhs(g, rates, v)).max()),
    )
