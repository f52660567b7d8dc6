"""Transient mean-field dynamics of the heterogeneous SIS model.

Each node carries an infection probability v_i(t) driven by

    dv_i/dt = sum_j beta_j a_ij v_j - v_i (sum_j beta_j a_ij v_j + delta_i),

i.e. susceptible mass being infected by neighbors minus infected mass
curing.  Integration is the embedded Dormand-Prince 5(4) Runge-Kutta pair
with first-same-as-last stages and standard step-size control (Dormand &
Prince 1980; Hairer, Norsett & Wanner, Solving ODEs I, II.4-5): each step
is as long as a local error of about 1e-10 allows, so the step count
follows the accuracy asked for, not a stability cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .graphs import Graph, RateConfig, _floats, _integer, _real

__all__ = ["Trajectory", "mean_field_rhs", "default_step", "integrate"]

_OVERSHOOT = 1e-9
_TOL = 1e-10  # local error per step, relative to 1 + |v_i|

# Dormand-Prince 5(4): stage matrix, fifth-order weights (also the last
# stage row, so stage 7 is the next step's stage 1) and fifth-minus-fourth
# order weights for the error estimate
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled states of one integration run.

    states[k] is the probability vector at times[k]; terminal_residual is
    the inf-norm of the right-hand side at the final state.  steps counts
    the accepted steps and rejected the trial steps the error control
    turned down.
    """

    times: np.ndarray
    states: np.ndarray = field(repr=False)
    terminal_residual: float
    steps: int
    rejected: int


def _check_state(v: np.ndarray, n: int) -> np.ndarray:
    v = _floats(v, "state", code="state-out-of-range")
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
    """The first trial step without a hint: a tenth of the fastest nodal timescale."""
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

    Steps are chosen by the error control; ``dt_hint`` (positive and
    finite) is only the first trial step, ``default_step(rates)`` without
    it.  The last step is cut to end exactly at t_end.  Accepted states
    are clamped back into [0, 1] only when the overshoot is below 1e-9;
    anything larger, or a step that shrinks to rounding level, aborts as
    an instability.  At most ``max_points`` (an integer, at least 2)
    samples are kept: every stride-th accepted step plus the last, so both
    endpoints are always included.  The stride starts at 1 and doubles,
    dropping every second sample, each time the samples would exceed
    ``max_points``; only those samples are stored.  ``max_points=None``
    keeps every accepted step.
    """
    v = _check_state(v0, g.n)
    t_end = _real(t_end, "t_end", 0.0)
    if max_points is not None:
        _integer(max_points, "max_points", 2)
    h = default_step(rates) if dt_hint is None else _real(dt_hint, "dt_hint", 0.0, strict=True)

    k = np.empty((7, g.n))
    k[0] = _rhs(g, rates, v)
    t, steps, rejected, stride, just_rejected = 0.0, 0, 0, 1, False
    # one buffer of max_points samples, compacted in place when full;
    # max_points=None doubles it instead
    size = 1024 if max_points is None else int(max_points)
    times, states = np.empty(size), np.empty((size, g.n))
    times[0], states[0] = t, v
    slot = 1
    underflow = 16.0 * np.finfo(float).eps
    while t < t_end:
        if h < underflow * max(t, 1.0):
            raise NumericalError(f"step size underflow at t={t:.6g}", code="step-instability")
        last = t + h >= t_end
        if last:
            h = t_end - t
        for s in range(1, 6):
            k[s] = _rhs(g, rates, v + h * (_A[s, :s] @ k[:s]))
        v_new = v + h * (_B @ k[:6])
        k[6] = _rhs(g, rates, v_new)
        scale = 1.0 + np.maximum(np.abs(v), np.abs(v_new))
        err = float(np.max(np.abs(h * (_E @ k)) / scale)) / _TOL
        if not err <= 1.0:  # NaN rejects too
            rejected += 1
            just_rejected = True
            h *= max(0.2, 0.9 * err ** -0.2)
            continue

        low, high = float(v_new.min()), float(v_new.max())
        if low < -_OVERSHOOT or high > 1.0 + _OVERSHOOT:
            raise NumericalError(
                f"state left [0, 1] by more than {_OVERSHOOT:g} at t={t + h:.6g} "
                "although the flow keeps [0, 1] invariant",
                code="step-instability",
            )
        if low < 0.0 or high > 1.0:
            np.clip(v_new, 0.0, 1.0, out=v_new)
            k[6] = _rhs(g, rates, v_new)
        t = t_end if last else t + h
        v = v_new
        k[0] = k[6]
        steps += 1
        if last or steps % stride == 0:
            if slot == size and max_points is None:
                times = np.concatenate((times, np.empty(size)))
                states = np.concatenate((states, np.empty((size, g.n))))
                size *= 2
            elif slot == size:
                half = (slot + 1) // 2
                times[:half], states[:half] = times[:slot:2], states[:slot:2]
                slot = half
                stride *= 2
            if last or steps % stride == 0:
                times[slot], states[slot] = t, v
                slot += 1
        grow = 1.0 if just_rejected else 5.0
        h *= grow if err == 0.0 else min(grow, 0.9 * err ** -0.2)
        just_rejected = False

    return Trajectory(
        times=times[:slot].copy(),
        states=states[:slot].copy(),
        terminal_residual=float(np.abs(k[0]).max()),
        steps=steps,
        rejected=rejected,
    )
