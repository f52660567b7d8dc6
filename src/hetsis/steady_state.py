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
theorem, Ortega & Rheinboldt 1970, 13.3).  The regime comes from two
Cholesky attempts, not an eigensolve: lambda_max(R) < c exactly when
c I - R is positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import InputError, NumericalError
from .graphs import Graph, RateConfig, _integer, _real
from .spectral import _below, effective_adjacency

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
_TOL = 1e-10  # solve's default tolerance and iteration cap
_MAX_ITER = 10**6
_NEWTON_AFTER = 200  # predicted map steps beyond which solve takes Newton steps; one costs ~35 map steps at n = 200
_IDENTITY_TOL = 1e-7


def _side(r: np.ndarray) -> int:
    """Side of the critical surface for the symmetric coupling r: +1 (endemic)
    when lambda_max(r) >= 1 + CRITICAL_BAND, -1 (extinct) when it is below
    1 - CRITICAL_BAND, 0 (on the surface) in between.  No eigensolve: (1 +/-
    CRITICAL_BAND) I - r has a Cholesky factorization exactly when
    lambda_max(r) is below 1 +/- CRITICAL_BAND."""
    if not _below(r, 1.0 + CRITICAL_BAND):
        return 1
    return -1 if _below(r, 1.0 - CRITICAL_BAND) else 0


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Converged fixed point, scaled variants, and solver diagnostics.

    v_tilde = beta * v_inf, w = A (beta * v_inf) + delta, and the
    residual is max_i |sum_j a_ij beta_j v_j - v_i delta_i / (1 - v_i)|
    in units of max_i delta_i.  path is "extinct", "map" or "map+newton"
    from ``solve``, or "newton" for a state corrected by Newton steps from
    an estimate (the continuation of ``sensitivity``, which serves its
    convexity sweeps and its optimal curing rate); iterations
    counts map and Newton steps together.
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


def _no_convergence(tol: float, k: int, residual: float, stalled: bool) -> NumericalError:
    return NumericalError(
        f"fixed-point iteration did not reach tolerance {tol:g} in {k} iterations "
        f"({'stalled at residual floor' if stalled else 'residual'} {residual:.3e})",
        code="no-convergence",
    )


def _iterate(g: Graph, rates: RateConfig, tol: float, max_iter: int):
    """Map iterates from _upper_start until the error bound meets tol: (v, steps, residual, converged).

    The error is about residual / (1 - rho), rho = sqrt(residual/earlier)
    the contraction over the last two steps (0 on the first two).  Returns
    unconverged once rho >= 1 or rho predicts > _NEWTON_AFTER more steps.
    """
    delta = rates.delta
    scale = float(delta.max())
    last = earlier = np.inf
    for k, (v, pressure) in enumerate(_orbit(g, rates, _upper_start(rates))):
        residual = float(np.abs(pressure - v * delta / (1.0 - v)).max()) / scale
        rho = np.sqrt(residual / earlier)
        if residual <= tol * (1.0 - rho):
            return v, k, residual, True
        if k == max_iter:
            raise _no_convergence(tol, k, residual, False)
        # log(tol (1 - rho) / residual) / log(rho) more steps are due
        if rho >= 1.0 or 0.0 < rho and np.log(tol * (1.0 - rho) / residual) < _NEWTON_AFTER * np.log(rho):
            return v, k, residual, False
        earlier, last = last, residual


def _jacobian(g: Graph, rates: RateConfig, v: np.ndarray) -> np.ndarray:
    """S = diag(delta/(1 - v)^2) - A diag(beta), the Jacobian of -F at v, in one array;
    one S per row when v and rates.delta carry a leading stack axis."""
    s = g.adjacency * rates.beta
    np.subtract(0.0, s, out=s)  # +0.0 off the edges, where a plain negation would leave -0.0
    if v.ndim == 1:
        s.flat[:: g.n + 1] = rates.delta / (1.0 - v) ** 2  # over the zero diagonal of A
    else:
        s = np.repeat(s[None], len(v), axis=0)
        s.reshape(len(v), g.n * g.n)[:, :: g.n + 1] = rates.delta / (1.0 - v) ** 2
    return s


def _stacked(linalg_op, *stacks):
    """A numpy.linalg operation on stacks of systems, and whether each system succeeded.

    numpy.linalg raises for the whole stack when one system is singular (or not
    positive definite, for cholesky), so then each system is redone alone and a
    failed one is left as nan."""
    try:
        return linalg_op(*stacks), np.ones(len(stacks[0]), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out, ok = [], []
    for system in zip(*stacks):
        try:
            out.append(linalg_op(*system))
            ok.append(True)
        except np.linalg.LinAlgError:
            out.append(np.full_like(system[-1], np.nan))
            ok.append(False)
    return np.array(out), np.array(ok)


def _newton_orbit(g: Graph, rates: RateConfig, v: np.ndarray):
    """Newton iterates v <- v + S^{-1} F(v) from v, each with F(v) and the
    size max|S^{-1} F| of the step that led to it (inf for v itself).
    An iterate outside (0, 1), v itself included, raises ``no-convergence``."""
    a = g.adjacency
    beta, delta = rates.beta, rates.delta
    step = np.inf
    while True:
        if not 0.0 < v.min() <= v.max() < 1.0:  # also false when an entry is nan
            raise NumericalError("Newton iterate outside (0, 1)", code="no-convergence")
        f = a @ (beta * v) - v * delta / (1.0 - v)
        yield v, f, step
        try:
            increment = np.linalg.solve(_jacobian(g, rates, v), f)
        except np.linalg.LinAlgError:
            raise NumericalError("Newton system singular", code="no-convergence") from None
        v, step = v + increment, float(np.abs(increment).max())


def _newton_finish(g: Graph, rates: RateConfig, v: np.ndarray, k: int, tol: float, max_iter: int):
    """Newton steps from the k-th map iterate until the residual and the
    last step both meet tol: (v, steps, residual)."""
    scale = float(rates.delta.max())
    last = None
    for v, f, step in _newton_orbit(g, rates, v):
        residual = float(np.abs(f).max()) / scale
        if residual <= tol and step <= tol:
            return v, k, residual
        # monotone Newton steps shrink until rounding error dominates them
        stalled = last is not None and step >= last
        if stalled or k == max_iter:
            raise _no_convergence(tol, k, residual, stalled)
        last = step
        k += 1


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
    return _steady_state(g, rates, *_newton_finish(g, rates, v, iterations, tol, max_iter), "map+newton")


def _corrected(g: Graph, rates: RateConfig, guess: np.ndarray, tol: float) -> SteadyState:
    """Endemic state by Newton steps from guess, an estimate of it (path "newton").

    The caller has decided that rates are endemic.  Stops as the Newton
    finish of ``solve`` does, once the residual and the last step are both
    at most tol; every failure of the steps, a guess outside (0, 1)
    included, raises ``no-convergence`` from ``_newton_orbit``.
    """
    return _steady_state(g, rates, *_newton_finish(g, rates, guess, 0, tol, _MAX_ITER), "newton")


def _corrected_stack(g: Graph, rates: RateConfig, guess: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """_corrected on a stack of endemic systems: rates.delta and guess carry a
    leading axis, one system and its estimate per row, and beta is shared.

    Each row takes Newton steps until it stops by the rule of _newton_finish,
    its residual (in units of its own max delta) and its last step both at most
    tol.  Returns (v, residual).  A row whose iterate leaves (0, 1), whose step
    stalls, whose system is singular or that reaches _MAX_ITER steps stops with
    residual inf; its v is then no steady state, but it lies inside (0, 1).
    """
    a, beta, delta = g.adjacency, rates.beta, rates.delta
    scale = delta.max(axis=1)
    inside = (0.0 < guess.min(axis=1)) & (guess.max(axis=1) < 1.0)  # also false where an entry is nan
    rows = np.flatnonzero(inside)  # rows still stepping
    v = np.where(inside[:, None], guess, 0.5)  # each row's last iterate inside (0, 1), 0.5 if none
    residual = np.full(len(v), np.inf)
    step = np.full(len(v), np.inf)  # size of the step that led to each row's iterate
    last = np.full(len(v), np.nan)  # and of the step before it (nan: none, so no stall)
    for k in range(_MAX_ITER + 1):
        if not rows.size:
            break
        u = v[rows]
        f = (beta * u) @ a - u * delta[rows] / (1.0 - u)  # a is symmetric
        res = np.abs(f).max(axis=1) / scale[rows]
        done = (res <= tol) & (step[rows] <= tol)
        residual[rows[done]] = res[done]
        # monotone Newton steps shrink until rounding error dominates them
        going = ~done & ~(step[rows] >= last[rows]) & (k < _MAX_ITER)
        rows, f = rows[going], f[going]
        last[rows] = step[rows]
        increment, solved = _stacked(np.linalg.solve, _jacobian(g, rates, v)[rows], f[..., None])
        new = v[rows] + increment[..., 0]
        inside = solved & (0.0 < new.min(axis=1)) & (new.max(axis=1) < 1.0)
        rows = rows[inside]
        v[rows] = new[inside]
        step[rows] = np.abs(increment[inside, :, 0]).max(axis=1)
    return v, residual


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
