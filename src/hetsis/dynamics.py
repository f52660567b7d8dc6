"""Transient mean-field dynamics of the heterogeneous SIS model.

Each node carries an infection probability v_i(t) driven by

    dv_i/dt = sum_j beta_j a_ij v_j - v_i (sum_j beta_j a_ij v_j + delta_i),

i.e. susceptible mass being infected by neighbors minus infected mass
curing.  Integration is the Dormand-Prince 8(5,3) Runge-Kutta pair (DOP853;
Prince & Dormand 1981; Hairer, Norsett & Wanner, Solving ODEs I, II.10):
twelve stages per step, first-same-as-last, with the error estimated from
the embedded fifth- and third-order solutions.  Each step is as long as a
local error of about 1e-10 allows, so the step count follows the accuracy
asked for, not a stability cap; at that accuracy the eighth order takes
about a fifth of the steps a fifth-order pair needs.  Samples are accepted
states; there is no dense output between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .graphs import Graph, RateConfig, _floats, _integer, _real

__all__ = ["Trajectory", "mean_field_rhs", "default_step", "integrate"]

_OVERSHOOT = 1e-9
_TOL = 1e-10  # local error per step, relative to 1 + |v_i|

# Dormand-Prince 8(5,3), as tabulated by Hairer, Norsett & Wanner: the
# stage matrix (its row sums are the stage times, unused by this autonomous
# system), the eighth-order weights (also the last stage row, so stage 13
# is the next step's stage 1), and the eighth-minus-fifth and
# eighth-minus-third order weights of the two error estimates (the
# first-same-as-last stage weighs in neither)
_A = np.zeros((12, 12))
_A[1, :1] = [0.05260015195876773]
_A[2, :2] = [0.0197250569845379, 0.0591751709536137]
_A[3, [0, 2]] = [0.02958758547680685, 0.08876275643042054]
_A[4, [0, 2, 3]] = [0.2413651341592667, -0.8845494793282861, 0.924834003261792]
_A[5, [0, 3, 4]] = [0.037037037037037035, 0.17082860872947386, 0.12546768756682242]
_A[6, [0, 3, 4, 5]] = [0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125]
_A[7, [0, 3, 4, 5, 6]] = [
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023,
]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996,
]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627,
]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636,
]
_B = np.zeros(12)
_B[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
]
_E = np.zeros((2, 12))
_E[0, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
]
_E[1] = _B
_E[1, [0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]


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

    k = np.empty((13, g.n))
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
        for s in range(1, 12):
            k[s] = _rhs(g, rates, v + h * (_A[s, :s] @ k[:s]))
        v_new = v + h * (_B @ k[:12])
        k[12] = _rhs(g, rates, v_new)
        scale = 1.0 + np.maximum(np.abs(v), np.abs(v_new))
        e5, e3 = (np.abs(_E @ k[:12]) / scale).max(axis=1).tolist()
        # h e5^2 / sqrt(e5^2 + 0.01 e3^2) shrinks like h^8 on short steps
        # (e5 ~ h^5, e3 ~ h^3), as the eighth-order step's error does, and
        # is the fifth-order estimate h e5 on long ones
        err = 0.0 if e5 == 0.0 else h * e5 * (e5 / math.hypot(e5, 0.1 * e3)) / _TOL
        if not err <= 1.0:  # NaN rejects too
            rejected += 1
            just_rejected = True
            h *= max(0.2, 0.9 * err ** -0.125)
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
            k[12] = _rhs(g, rates, v_new)
        t = t_end if last else t + h
        v = v_new
        k[0] = k[12]
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
        h *= grow if err == 0.0 else min(grow, 0.9 * err ** -0.125)
        just_rejected = False

    return Trajectory(
        times=times[:slot].copy(),
        states=states[:slot].copy(),
        terminal_residual=float(np.abs(k[0]).max()),
        steps=steps,
        rejected=rejected,
    )
