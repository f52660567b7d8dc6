"""Metastable steady states of the heterogeneous mean-field SIS model.

Above the critical surface the model has a unique non-trivial fixed
point (Lajmanovich & Yorke 1976), the largest root of

    F(v)_i = sum_j a_ij beta_j v_j - delta_i v_i / (1 - v_i).

``solve`` first iterates the monotone map

    v_i <- 1 - 1 / (1 + delta_i^{-1} sum_j beta_j a_ij v_j)

from the componentwise upper bound v_i = 1 - 1/(1 + gamma_i/delta_i).
Successive iterates decrease monotonically onto the largest fixed point,
so the k-th iterate equals the depth-k truncation of the underlying
continued-fraction representation of v_i.  The map's error is about
residual / (1 - rho), rho the contraction seen in successive residuals,
and the map stops once that meets the tolerance.  Near the critical
surface rho is about 1 - (lambda_max(R) - 1), so once rho predicts a
long run or the residual stops falling, ``solve`` switches to Newton
steps v <- v + S^{-1} F(v), with S = diag(delta/(1 - v)^2) - A diag(beta)
the Jacobian of -F.  -F is convex for v < 1, S has a nonnegative inverse
there and every map iterate has F <= 0, so the Newton iterates also
decrease monotonically onto the fixed point (the monotone Newton
theorem, Ortega & Rheinboldt 1970, 13.3).  The Newton steps take a
leading axis of states, so that the continuation of ``sensitivity``
corrects its predictions, one point or a stack of them, by the same
steps and stop rules.  The regime comes from two Cholesky attempts, not
an eigensolve: lambda_max(R) < c exactly when c I - R is positive
definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import InputError, NumericalError
from .graphs import Graph, RateConfig, _integer, _real
from .spectral import _below, _each, effective_adjacency

__all__ = [
    "SteadyState",
    "BoundsReport",
    "solve",
    "truncated_iterate",
    "verify_identities",
    "bounds",
    "CRITICAL_BAND",
]

CRITICAL_BAND = 1e-9
_EDGES = (1.0 - CRITICAL_BAND, 1.0 + CRITICAL_BAND)
_CLEAR = 1e-11  # relative margin by which a certified bracket must clear each band edge to decide the side
_TOL = 1e-10  # solve's default tolerance and iteration cap
_MAX_ITER = 10**6
_NEWTON_AFTER = 200  # predicted map steps beyond which solve takes Newton steps; one costs ~40 map steps at n = 200
_IDENTITY_TOL = 1e-7
_CONVERGED, _STALLED, _OUTSIDE, _SINGULAR, _MAX_STEPS = range(5)  # the rules by which a state of _newton stops


def _endemic(r: np.ndarray) -> np.ndarray:
    """_side(r) == 1 without a bracket, for the symmetric r or for each matrix of a stack (..., n, n)."""
    return ~_below(r, _EDGES[1])


def _side(r: np.ndarray, bracket: tuple[float, float] | None = None) -> int:
    """Side of the critical surface for the symmetric coupling r: +1
    (endemic) when lambda_max(r) >= 1 + CRITICAL_BAND, -1 (extinct) when it
    is below 1 - CRITICAL_BAND, 0 (on the surface) in between.

    A certified bracket (lo, hi) on lambda_max(r), where given, decides
    alone when it clears both band edges by _CLEAR relative.  Otherwise no
    eigensolve either: (1 +/- CRITICAL_BAND) I - r has a Cholesky
    factorization exactly when lambda_max(r) is below 1 +/- CRITICAL_BAND."""
    if bracket is not None:
        lo, hi = bracket[0] / (1.0 + _CLEAR), bracket[1] * (1.0 + _CLEAR)
        if lo > _EDGES[1]:
            return 1
        if hi < _EDGES[0]:
            return -1
        if _EDGES[0] < lo and hi < _EDGES[1]:
            return 0
    return 1 if _endemic(r) else -1 if _below(r, _EDGES[0]) else 0


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Converged fixed point, scaled variants, and solver diagnostics.

    v_tilde = beta * v_inf, w = A (beta * v_inf) + delta, and the
    residual is max_i |sum_j a_ij beta_j v_j - v_i delta_i / (1 - v_i)|
    in units of max_i delta_i.  path is "extinct", "map" or "map+newton":
    which steps of ``solve`` ran; iterations counts map and Newton steps
    together.
    """

    v_inf: np.ndarray
    v_tilde: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    iterations: int
    residual: float
    regime: str
    y_inf: float
    path: str = field(repr=False)


def _upper_start(rates: RateConfig) -> np.ndarray:
    """Componentwise upper bound 1 - 1/(1 + gamma_i/delta_i) on the endemic state."""
    return 1.0 - 1.0 / (1.0 + rates.gamma / rates.delta)


def _orbit(g: Graph, rates: RateConfig, v: np.ndarray):
    """Iterates of the fixed-point map from v, each with its pressure A (beta v)."""
    a = g.adjacency
    beta, delta = rates.beta, rates.delta
    while True:
        pressure = a @ (beta * v)
        yield v, pressure
        v = pressure / (delta + pressure)


def _no_convergence(tol: float, k: int, residual: float, stop: int) -> NumericalError:
    """The error of a solve that stopped after k steps by stop, a rule of _newton."""
    if stop in (_OUTSIDE, _SINGULAR):
        failure = "iterate outside (0, 1)" if stop == _OUTSIDE else "system singular"
        return NumericalError(f"Newton {failure}", code="no-convergence")
    return NumericalError(
        f"fixed-point iteration did not reach tolerance {tol:g} in {k} iterations "
        f"({'stalled at residual floor' if stop == _STALLED else 'residual'} {residual:.3e})",
        code="no-convergence",
    )


def _iterate(g: Graph, rates: RateConfig, tol: float, max_iter: int):
    """Map iterates from _upper_start until the error bound meets tol: (v, steps, residual, converged).

    The error is about residual / (1 - rho), rho = sqrt(residual/earlier)
    the contraction over the last two steps (0 on the first two).  Returns
    unconverged once rho >= 1 or rho predicts > _NEWTON_AFTER more steps,
    and once a map step leaves an iterate saturated at 1.0 (residual inf,
    so rho is nan) unchanged: no later step can move it, while a saturated
    iterate that still moves may leave 1.0 and converge.
    """
    delta = rates.delta
    scale = float(delta.max())
    last = earlier = np.inf
    before = None
    for k, (v, pressure) in enumerate(_orbit(g, rates, _upper_start(rates))):
        residual = float(np.abs(pressure - v * delta / (1.0 - v)).max()) / scale
        rho = np.sqrt(residual / earlier)
        if residual <= tol * (1.0 - rho):
            return v, k, residual, True
        if k == max_iter:
            raise _no_convergence(tol, k, residual, _MAX_STEPS)
        # log(tol (1 - rho) / residual) / log(rho) more steps are due
        if rho >= 1.0 or 0.0 < rho and np.log(tol * (1.0 - rho) / residual) < _NEWTON_AFTER * np.log(rho):
            return v, k, residual, False
        if residual == np.inf and np.array_equal(v, before):  # saturated, and the map no longer moves it
            return v, k, residual, False
        earlier, last, before = last, residual, v


def _jacobian(g: Graph, beta: np.ndarray, delta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """S = diag(delta/(1 - v)^2) - A diag(beta), the Jacobian of -F at v, in one array;
    one S per state when v and delta, shaped (..., n), carry leading axes."""
    n = g.n
    s = np.zeros(v.shape + (n,))  # one S per state
    s -= g.adjacency * beta  # +0.0 off the edges, where a plain negation would leave -0.0
    s.reshape(v.shape[:-1] + (n * n,))[..., :: n + 1] = delta / (1.0 - v) ** 2  # over the zero diagonal of A
    return s


def _newton(g: Graph, beta: np.ndarray, delta: np.ndarray, v: np.ndarray, tol: float, max_iter: int):
    """Newton steps v <- v + S^{-1} F(v) from estimates v of endemic states.

    v and delta are shaped (..., n), one state and its system per entry of
    the leading axes (none for one state), and beta, shaped (n,), is shared.
    Each state steps until a stop rule holds: _CONVERGED once its residual
    (in units of its own max delta) and its last step are both at most tol,
    _STALLED at a step no smaller than the one before it, _OUTSIDE at an
    iterate outside (0, 1), its start included, _SINGULAR at a singular S
    and _MAX_STEPS after max_iter steps.  Returns each state's (v, residual,
    steps, stop): its last iterate, that iterate's residual (inf where the
    iterate is outside (0, 1)) and the steps that led to it.
    """
    a, n = g.adjacency, g.n
    shape = v.shape[:-1]
    u, d = v.reshape(-1, n), delta.reshape(-1, n)
    out, residual = np.empty_like(u), np.empty(len(u))
    steps, stop = np.empty(len(u), dtype=int), np.empty(len(u), dtype=int)
    going = np.ones(len(u), dtype=bool)  # every state is recorded once, when it stops

    def settle(stopping, code, u, res, k):
        """Record the stepping states (compacted, in row order) where stopping
        holds, each with its code; returns the mask of the others."""
        ended = going.copy()
        ended[going] = stopping
        out[ended], residual[ended], steps[ended], stop[ended] = u[stopping], res[stopping], k, code[stopping]
        going[ended] = False
        return ~stopping

    # the stepping states, compacted: iterate, residual unit, whether the step
    # to the iterate solved, and the sizes of that step and the one before it
    scale, solved = d.max(axis=1), np.ones(len(u), dtype=bool)
    step, last = np.full(len(u), np.inf), np.full(len(u), np.nan)
    for k in range(max_iter + 1):
        if len(u) and not 0.0 < u.min() <= u.max() < 1.0:  # also true where an entry is nan, as after a singular S
            inside = (0.0 < u.min(axis=1)) & (u.max(axis=1) < 1.0)
            keep = settle(~inside, np.where(solved, _OUTSIDE, _SINGULAR), u, np.full(len(u), np.inf), k)
            u, d, scale, step, last = u[keep], d[keep], scale[keep], step[keep], last[keep]
        if not len(u):
            break
        f = (a @ (beta * u)[..., None])[..., 0] - u * d / (1.0 - u)  # row by row, as for one state
        res = np.abs(f).max(axis=1) / scale
        converged = np.maximum(res, step) <= tol
        # monotone Newton steps shrink until rounding error dominates them
        ended = converged | (step >= last)
        if k == max_iter or ended.any():
            code = np.where(converged, _CONVERGED, np.where(ended, _STALLED, _MAX_STEPS))
            keep = settle(ended | (k == max_iter), code, u, res, k)
            if not keep.any():
                break
            u, d, scale, step, f, res = u[keep], d[keep], scale[keep], step[keep], f[keep], res[keep]
        increment, solved = _each("solve", _jacobian(g, beta, d, u), f[..., None])
        u, last, step = u + increment[..., 0], step, np.abs(increment[..., 0]).max(axis=1)
    return out.reshape(v.shape), residual.reshape(shape), steps.reshape(shape), stop.reshape(shape)


def solve(g: Graph, rates: RateConfig, tol: float = _TOL, max_iter: int = _MAX_ITER) -> SteadyState:
    """Solve for the metastable steady state.

    Below the critical surface the all-zero state is returned with regime
    "extinct"; on the surface (spectral radius within 1e-9 of one) the
    problem is degenerate and an error is raised.  Both are decided by
    Cholesky factorizations of (1 +/- 1e-9) I - R.  Above the surface the
    endemic fixed point is found by monotone iteration from the upper
    bound (path "map"), which stops once its error bound residual / (1 -
    rho) is at most tol: the residual in units of max_i delta_i, rho its
    contraction over the last two steps.  When rho >= 1 or rho predicts
    more than 200 further steps, Newton steps take over (path
    "map+newton") and stop once the residual and the last step are both
    at most tol.  A Newton step no smaller than the one before it (a
    stall), an iterate outside (0, 1) or max_iter steps raise
    ``no-convergence``.
    tol must be positive and finite, max_iter a non-negative integer.
    """
    tol = _real(tol, "tol", 0.0, strict=True)
    max_iter = _integer(max_iter, "max_iter", 0)
    side = _side(effective_adjacency(g, rates.tau))
    if side == 0:
        raise NumericalError("at critical threshold, derivative undefined", code="critical-threshold")
    if side < 0:
        return _steady_state(g, rates, np.zeros(g.n), 0, 0.0, "extinct")
    v, iterations, residual, converged = _iterate(g, rates, tol, max_iter)
    if converged:
        return _steady_state(g, rates, v, iterations, residual, "map")
    v, residual, steps, stop = _newton(g, rates.beta, rates.delta, v, tol, max_iter - iterations)
    if stop != _CONVERGED:
        raise _no_convergence(tol, iterations + int(steps), float(residual), stop)
    return _steady_state(g, rates, v, iterations + int(steps), float(residual), "map+newton")


def _steady_state(
    g: Graph, rates: RateConfig, v: np.ndarray, iterations: int, residual: float, path: str
) -> SteadyState:
    """The SteadyState of v, with the scaled variants every solver path reports."""
    v_tilde = rates.beta * v
    return SteadyState(
        v_inf=v,
        v_tilde=v_tilde,
        w=g.adjacency @ v_tilde + rates.delta,
        iterations=iterations,
        residual=residual,
        regime="extinct" if path == "extinct" else "endemic",
        y_inf=float(v.mean()),
        path=path,
    )


def truncated_iterate(g: Graph, rates: RateConfig, depth: int) -> np.ndarray:
    """Depth-k truncation of the continued-fraction iteration.

    Applies the fixed-point map exactly ``depth`` times from the upper
    bound start, replaying what ``solve`` computes before it stops on the
    map path.
    """
    depth = _integer(depth, "depth", 0)
    v, _ = next(islice(_orbit(g, rates, _upper_start(rates)), depth, None))
    return v


def verify_identities(g: Graph, rates: RateConfig, ss: SteadyState) -> dict:
    """Structural checks every endemic fixed point must satisfy.

    (a) sum_j (1/(tau_j (1 - v_j)) - d_j) beta_j v_j vanishes;
    (b) some node j has d_j >= 1/(tau_j (1 - v_j));
    (c) each such node obeys v_j <= 1 - 1/(tau_j d_j);
    (d) (I - diag(v)) w = delta componentwise.

    Returns a report keyed by check name, each with its tolerance (1e-7,
    1e-9 for (d)); raises if any check fails.
    """
    tol = _IDENTITY_TOL
    if ss.regime != "endemic":
        raise InputError("identities require endemic regime", code="identities-require-endemic")
    v, beta, delta, tau = ss.v_inf, rates.beta, rates.delta, rates.tau
    d = g.degrees.astype(float)

    loading = 1.0 / (tau * (1.0 - v))
    balance = float(np.sum((loading - d) * beta * v))
    # regular graphs attain d = loading exactly, so the hub selection and
    # the bound need slack proportional to the verification tolerance
    slack = tol * np.maximum(1.0, loading)
    hubs = np.flatnonzero(d >= loading - slack)
    hub_margin = float((1.0 - 1.0 / (tau[hubs] * d[hubs]) - v[hubs]).min()) if hubs.size else np.nan
    anchored = float(np.abs((1.0 - v) * ss.w - delta).max())

    report = {
        "degree_balance": {"value": balance, "tol": tol, "passed": abs(balance) <= tol},
        "loaded_node_exists": {"value": int(hubs.size), "tol": 1, "passed": hubs.size >= 1},
        "loaded_node_bound": {
            "value": hub_margin,
            "tol": tol,
            "passed": bool(hubs.size and hub_margin >= -tol),
        },
        "anchored_rates": {"value": anchored, "tol": 1e-9, "passed": anchored <= 1e-9},
    }
    failed = [name for name, entry in report.items() if not entry["passed"]]
    if failed:
        raise NumericalError(
            f"steady-state identity check failed: {', '.join(failed)}",
            code="identity-check-failed",
        )
    return report


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Componentwise bracket on the endemic steady state.

    The upper bound 1 - 1/(1 + gamma_i/delta_i) always holds; the uniform
    lower bound 1 - 1/min_k(gamma_k/delta_k) is informative only when
    every node's pressure-to-curing ratio exceeds one.
    """

    lower: float
    upper: np.ndarray
    y_lower: float
    y_upper: float
    informative: bool
    satisfied: bool | None


def bounds(g: Graph, rates: RateConfig, ss: SteadyState) -> BoundsReport:
    ratio = rates.gamma / rates.delta
    upper = _upper_start(rates)
    lower = 1.0 - 1.0 / float(ratio.min())
    informative = bool(ratio.min() > 1.0)
    satisfied = None
    if ss.regime == "endemic":
        v = ss.v_inf
        ok_upper = bool(np.all(v <= upper + 1e-12))
        ok_lower = bool(np.all(v >= lower - 1e-12)) if informative else True
        satisfied = ok_upper and ok_lower
    return BoundsReport(
        lower=lower,
        upper=upper,
        y_lower=max(lower, 0.0),
        y_upper=float(upper.mean()),
        informative=informative,
        satisfied=satisfied,
    )
