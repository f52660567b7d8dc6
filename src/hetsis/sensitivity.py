"""Sensitivity of the endemic steady state to curing rates.

Differentiating the fixed-point equations in the curing rate delta_i
yields linear systems in the matrix

    S = diag(delta_j / (1 - v_j)^2) - A diag(beta_j),

which is similar to a symmetric positive definite matrix at every
endemic state.  S is also the matrix of the Newton steps of ``solve``,
and one builder in ``steady_state`` forms it for both modules.
``sensitivity_matrix`` takes S from that builder and checks definiteness
through a Cholesky factorization of the symmetric form; each endemic
state is linearized once.  As the curing rates move along a direction u
(e_i for delta_i alone, the all-ones vector for a common rate), v moves
with

    x = -S^{-1}(u v/(1-v)),  x' = -S^{-1}(2 delta x^2/(1-v)^3 + 2 u x/(1-v)^2)

(componentwise products).  These derivatives, a Schur-complement route
to the own-rate derivative through the node-deleted graph, a curvature
diagnostic matrix, convexity verdicts over curing-rate sweeps, an
optimal curing rate and a ledger of identities and inequalities on
S^{-1} all live here.  A state with one curing rate delta_i changed is
reached by one continuation step, for the convexity sweeps and the
optimal curing rate alike: its regime is decided by the Cholesky test of
``solve``, then it is predicted from a nearby endemic point's (x, x')
along e_i, corrected by the Newton steps of ``solve`` and, where they
fail, solved.  The step, its corrector and its linearization are
written once over a leading axis of states, on plain arrays of rates:
the optimum takes it one point at a time, the sweeps for every node at
once, one row per node and chain.  As v_i is convex in delta_i, the optimum's
stationarity residual never falls as delta_i rises, so its search walks
a grid to a sign change, narrows the bracket by safeguarded Newton steps
and bisects it, inferring the sign at each midpoint outside the band of
evaluated points instead of evaluating it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .graphs import Graph, RateConfig, _node, _real
from .spectral import _below, _coupling, _each
from .steady_state import _CONVERGED, _MAX_ITER, SteadyState, _endemic, _jacobian, _newton, solve

__all__ = [
    "SensitivityReport",
    "sensitivity_matrix",
    "first_derivatives",
    "second_derivatives",
    "curvature_matrix",
    "schur_derivative",
    "optimal_curing_rate",
    "convexity_verdicts",
    "inverse_checks",
    "full_report",
]

_COND_LIMIT = 1e12
_DEADBAND = 1e-8  # convexity dead band on d^2 v / d delta^2 (1 / rate^2), times 1 / (max_i delta_i)^2
_PD_FLOOR = 1e-10  # smallest eigenvalue the symmetric form of S must exceed, in units of max_i delta_i
_SOLVE_TOL = 1e-12  # steady-state tolerance of every solve made here
_OPTIMUM_TOL = 1e-8  # relative bracket width at which the optimal curing rate is returned
_LEDGER_TOL = 1e-9  # relative slack of the inverse-matrix ledger
_CHAINS = ((1.25, 1.5), (0.8, 0.6))  # factors on delta_i along node i's convexity sweep, outward from the base 1.0
_STACK_DOUBLES = 2**20  # doubles in one n x n stack of the sweeps: max(1, this // n^2) nodes advance together


def _require_endemic(ss: SteadyState) -> None:
    if ss.regime != "endemic":
        raise InputError("sensitivity requires an endemic steady state", code="requires-endemic")


def _uniform(x: np.ndarray) -> bool:
    return float(np.abs(x - x[0]).max()) <= 1e-12 * float(x.max())


def _require_tied(rates: RateConfig) -> None:
    if not _uniform(rates.delta):
        raise InputError("tied mode requires homogeneous curing rates", code="tied-requires-homogeneous-delta")


def sensitivity_matrix(g: Graph, rates: RateConfig, ss: SteadyState) -> np.ndarray:
    """S at an endemic state, checked to be positive definite.

    S = diag(delta/(1 - v)^2) - A diag(beta) is similar to the symmetric
    form diag(sqrt beta) S diag(sqrt beta)^{-1} = diag(delta/(1 - v)^2) -
    diag(sqrt beta) A diag(sqrt beta), whose smallest eigenvalue must
    exceed 1e-10 max_i delta_i: a Cholesky factorization of the form
    shifted down by that floor must exist.  The floor is in the unit of
    the rates, so scaling every rate scales it with S.
    """
    _require_endemic(ss)
    return _checked_s(g, rates.beta, rates.delta, ss.v_inf)


def _checked_s(g: Graph, beta: np.ndarray, delta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sensitivity_matrix at endemic states v shaped (..., n), delta alike, beta
    shared: one S per state, the first state (in row order) below the floor raising."""
    s = _jacobian(g, beta, delta, v)
    root = np.sqrt(beta)
    sym = root[:, None] * s / root[None, :]
    definite = _below(-sym, -_PD_FLOOR * delta.max(axis=-1, keepdims=True))
    if not definite.all():
        first = sym[~definite][0]
        smallest = float(np.linalg.eigvalsh(first)[0]) if np.isfinite(first).all() else np.nan
        raise NumericalError(
            f"sensitivity matrix not positive definite (smallest eigenvalue {smallest:.3e}); "
            "near critical threshold",
            code="near-critical",
        )
    return s


@dataclass(frozen=True, eq=False)
class _Linearization:
    """S and S^{-1} at endemic states, built and validated once: v and delta
    shaped (..., n), s and inv (..., n, n), for one state or a stack of them.

    Every derivative is a product with S^{-1}, so no solve rebuilds S.
    """

    v: np.ndarray
    delta: np.ndarray
    s: np.ndarray
    inv: np.ndarray

    @classmethod
    def at(cls, g: Graph, beta: np.ndarray, delta: np.ndarray, v: np.ndarray) -> "_Linearization":
        """The linearization at endemic states v, delta alike, beta shared, each
        held to one rule: the floor of sensitivity_matrix, an invertible S and a
        1-norm condition number of at most 1e12.  The first state (in row order)
        that breaks a part of it raises ``near-critical``."""
        s = _checked_s(g, beta, delta, v)
        inv, invertible = _each("inv", s)
        if not invertible.all():
            raise NumericalError("sensitivity system singular; near critical threshold", code="near-critical")
        cond = np.abs(s).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)  # 1-norms
        if (cond > _COND_LIMIT).any():
            raise NumericalError(
                f"sensitivity system ill-conditioned (condition {cond[cond > _COND_LIMIT][0]:.3e}); "
                "near critical threshold",
                code="near-critical",
            )
        return cls(v=v, delta=delta, s=s, inv=inv)

    def along(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(x, x') of the module docstring along the directions in the columns
        of u, shaped (..., n, m) for states (..., n); a positive entry of x
        raises ``sign-violation``."""
        v, delta = self.v[..., None], self.delta[..., None]
        healthy = 1.0 - v
        x = -(self.inv @ (u * v / healthy))
        if (x * self.delta.max(axis=-1)[..., None, None]).max(initial=-np.inf) > 1e-10:  # x is in units of 1 / rate
            raise NumericalError("positive curing-rate derivative detected", code="sign-violation")
        w = 2.0 * delta * x**2 / healthy**3 + 2.0 * u * x / healthy**2
        return x, -(self.inv @ w)

    def curvature(self, d2: np.ndarray) -> tuple[np.ndarray, float]:
        inv, v = self.inv, self.v
        weights = self.delta / (1.0 - v) ** 3
        m = inv * (np.diag(inv) / (1.0 - v))[None, :] - (inv * weights[None, :]) @ (inv**2) * v[None, :]
        scaled = ((1.0 - v) ** 2 / (2.0 * v))[None, :] * d2
        dev = np.abs(scaled - m) / np.maximum(1.0, np.maximum(np.abs(scaled), np.abs(m)))
        return m, float(dev.max())


def _linearized(g: Graph, rates: RateConfig, ss: SteadyState) -> _Linearization:
    """The _Linearization at the one state ss, which must be endemic."""
    _require_endemic(ss)
    return _Linearization.at(g, rates.beta, rates.delta, ss.v_inf)


def _in_mode(g: Graph, rates: RateConfig, ss: SteadyState, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(x, x') at ss along the identity (independent mode) or the all-ones vector (tied)."""
    lin = _linearized(g, rates, ss)
    if mode == "independent":
        return lin.along(np.eye(g.n))
    if mode == "tied":
        _require_tied(rates)
        return tuple(f[:, 0] for f in lin.along(np.ones((g.n, 1))))
    raise InputError(f"unknown mode {mode!r}", code="invalid-argument")


def first_derivatives(g: Graph, rates: RateConfig, ss: SteadyState, mode: str = "independent"):
    """Derivatives of the steady state in the curing rates.

    Along a direction u of the curing rates the derivative is
    x = -S^{-1}(u v/(1-v)).  mode "independent": u = e_i for each node,
    giving the matrix D[k, i] = dv_k / d delta_i.  mode "tied": all curing
    rates move together (they must be equal), u = 1, giving the vector
    dv_k / d delta.
    """
    return _in_mode(g, rates, ss, mode)[0]


def second_derivatives(g: Graph, rates: RateConfig, ss: SteadyState, mode: str = "independent"):
    """Second derivatives d^2 v_k / d delta_i^2 (matrix) or the tied-mode
    vector d^2 v_k / d delta^2.

    Along a direction u, with x the first derivative, the second
    derivative is -S^{-1}(2 delta x^2/(1-v)^3 + 2 u x/(1-v)^2); u is e_i
    for column i of the matrix and the all-ones vector in tied mode.
    """
    return _in_mode(g, rates, ss, mode)[1]


def curvature_matrix(g: Graph, rates: RateConfig, ss: SteadyState) -> tuple[np.ndarray, float]:
    """Curvature diagnostic M with
    M[k, i] = Sinv_ki Sinv_ii / (1 - v_i)
              - v_i sum_j Sinv_kj delta_j Sinv_ji^2 / (1 - v_j)^3,
    which must equal (1 - v_i)^2 / (2 v_i) * d2[k, i].

    Returns (M, worst relative deviation from that identity).  Signs of M
    are data, not assertions: mixed signs flag non-convex response.
    """
    lin = _linearized(g, rates, ss)
    return lin.curvature(lin.along(np.eye(g.n))[1])


def schur_derivative(g: Graph, rates: RateConfig, ss: SteadyState, i: int) -> tuple[float, float]:
    """Own-rate derivative dv_i / d delta_i through the node-deleted graph.

    Eliminating all other coordinates leaves
        dv_i/d delta_i = -(1 - v_i) v_i / (delta_i - beta_i (1 - v_i)^2 f),
    where f is the quadratic form of node i's adjacency column in the
    inverse weighted Laplacian diag(1/(tau (1 - v)^2)) - A of the graph
    without node i.  f is positive and satisfies tau_i (1 - v_i)^2 f < 1
    at every endemic state (strict positive definiteness of the
    deleted-node operator); both are checked before returning
    (f, derivative).  That Laplacian is S diag(1/beta) on the other
    nodes, so f = (beta a)_rest . S_rest^{-1} a_rest.
    """
    _require_endemic(ss)
    i, v, tau = _node(g, i), ss.v_inf, rates.tau
    rest = np.arange(g.n) != i
    s_rest = _jacobian(g, rates.beta, rates.delta, v)[np.ix_(rest, rest)]
    a_col = g.adjacency[rest, i]
    solution, invertible = _each("solve", s_rest, a_col[:, None])
    if not invertible:
        raise NumericalError("sensitivity system singular; near critical threshold", code="near-critical")
    f = float((rates.beta[rest] * a_col) @ solution[:, 0])
    if f <= 0:
        raise NumericalError(f"deleted-graph quadratic form f = {f:.3e} not positive", code="sign-violation")
    damped = tau[i] * (1.0 - v[i]) ** 2 * f
    if damped > 1.0 + 1e-9:
        raise NumericalError(
            f"damped quadratic form bound violated: tau_i (1-v_i)^2 f = {damped:.6g} > 1",
            code="sign-violation",
        )
    derivative = -(1.0 - v[i]) * v[i] / (rates.delta[i] - rates.beta[i] * (1.0 - v[i]) ** 2 * f)
    return f, derivative


def optimal_curing_rate(g: Graph, rates: RateConfig, i: int, price: float) -> float:
    """Curing rate minimizing price * delta_i + v_i at fixed other rates.

    Stationarity means price = -dv_i/d delta_i.  As v_i is convex in delta_i,
    the residual r = price + dv_i/d delta_i never falls as delta_i rises: on
    the grid delta_i * geomspace(1e-3, 1e3, 49) the search walks from
    delta_i (up if r < 0 there, else down) to the adjacent endemic pair
    (lo, hi) where r turns non-negative and bisects it to a relative width
    of 1e-8, hi - lo <= 1e-8 hi, so the result does not depend on the time
    unit.

    The same monotonicity fixes the sign of r at most midpoints without
    evaluating them.  The search keeps a band (a, b) of evaluated points
    with r(a) <= 0 < r(b): a midpoint at or below a goes low, one at or
    above b goes high, and only a midpoint inside the band is evaluated,
    which then narrows the band.  Before the bisection, safeguarded Newton
    steps narrow the band from the walked pair, stepping from the evaluated
    point with the smallest |r| (the pivot), where r' = d^2 v_i / d delta_i^2.
    A step that leaves the band, or is longer than half the step before the
    last one, is replaced by the band's midpoint.  A step shorter than a
    quarter of the walked pair's final width is replaced by a quarter width
    across the root, so that the band closes from both sides.  The
    bisection thus takes the same midpoints and returns the same rate as
    one that evaluates every midpoint, at about a third of the points.

    Points are reached as the convexity sweeps reach theirs: delta_i itself
    is solved, each walked point is continued from the last endemic point
    walked, and each later point (Newton and bisection midpoints, and the
    optimum) from the pivot.  r and r' are read from the derivatives along
    e_i that each point's continuation needs anyway; a point whose
    linearization fails raises ``near-critical``.  The optimum always
    exceeds (1 - v_i) v_i / price, which is asserted on the result.
    """
    i, price = _node(g, i), _real(price, "price", 0.0, strict=True)

    def point(delta_i: float, near):
        """(delta_i, r, v, (x, x') along e_i), continued from the point near
        (solved if None); None if extinct or on the surface."""
        v, *slopes = _advance(g, rates, i, delta_i, None if near is None else (near[0], near[2], *near[3]))
        r = price + float(slopes[0][i])
        return None if np.isnan(r) else (delta_i, r, v, slopes)

    def inside(delta_i: float):
        """point(delta_i) from the pivot, for a delta_i between two endemic points."""
        nonlocal pivot
        p = point(delta_i, pivot)
        if p is None:
            raise NumericalError("no interior optimum", code="no-interior-optimum")
        if abs(p[1]) < abs(pivot[1]):
            pivot = p
        return p

    grid = float(rates.delta[i]) * np.geomspace(1e-3, 1e3, 49)  # grid[24] is delta_i itself
    near = point(float(grid[24]), None)  # last endemic point walked
    step = 1 if near is not None and near[1] < 0.0 else -1
    for x in grid[24 + step :: step]:
        p = point(float(x), near)
        if p is None and near is None:
            continue  # walking down, not yet inside the endemic run
        if p is None or near is not None and (p[1] < 0.0) != (near[1] < 0.0):
            break  # left the endemic run (lambda_max(R) falls as delta_i rises), or r changed sign
        near = p
    if p is None or near is None or (p[1] < 0.0) == (near[1] < 0.0):
        raise NumericalError("no interior optimum", code="no-interior-optimum")

    low, high = (p, near) if p[1] < 0.0 else (near, p)
    a = lo = low[0]
    b = hi = high[0]
    quarter = 0.25 * _OPTIMUM_TOL * hi
    pivot = min(low, high, key=lambda q: abs(q[1]))  # Newton steps and later continuations start here
    last = before = np.inf  # lengths of the last two steps
    while b - a > 2.0 * quarter:
        x, r, _, slopes = pivot
        slope = float(slopes[1][i])
        target = 0.5 * (a + b)
        if slope > 0.0:
            move = -r / slope
            if abs(move) < quarter:
                move = quarter if r <= 0.0 else -quarter  # across the root
            if a < x + move < b and abs(move) <= 0.5 * before:
                target = x + move
        last, before = abs(target - x), last
        if inside(target)[1] <= 0.0:
            a = target
        else:
            b = target

    while hi - lo > _OPTIMUM_TOL * hi:
        mid = 0.5 * (lo + hi)
        if a < mid < b:
            if inside(mid)[1] <= 0.0:
                a = mid
            else:
                b = mid
        if mid <= a:
            lo = mid
        else:
            hi = mid
    best = 0.5 * (lo + hi)

    v_i = inside(best)[2][i]
    if best <= (1.0 - v_i) * v_i / price * (1.0 - 1e-9):
        raise NumericalError("optimum below its structural floor", code="sign-violation")
    return best


def convexity_verdicts(g: Graph, rates: RateConfig) -> list[list[str]]:
    """Per-(k, i) verdicts in {convex, concave, indefinite} from the sign
    of d^2 v_k / d delta_i^2 as delta_i sweeps over delta_i times 0.6,
    0.8, 1.0, 1.25 and 1.5, outside a dead band of 1e-8 / (max_j delta_j)^2,
    so that the verdicts do not depend on the time unit.

    Sweep points that are extinct or on the critical surface are skipped;
    if fewer than two points of a sweep remain, the verdict is
    "indefinite".  Each point contributes the second derivative along
    node i's own rate only.  Factor 1.0 leaves every rate as it is, so that
    state is solved and linearized once and serves every node's sweep.
    The other points are reached by continuation from it, outward in two
    chains (1.0, 1.25, 1.5 and 1.0, 0.8, 0.6): each is predicted to second
    order from the point before and corrected by Newton steps, or solved
    where those fail.  Both chain steps advance every node's sweep together
    as one stack, with one stacked regime test and each row its own Newton
    stop; the first row whose solve or linearization fails raises its error.
    """
    if not _endemic(_coupling(g, rates.tau)):
        return _sweep(g, rates, None)
    return _sweep(g, rates, _linearized(g, rates, solve(g, rates, tol=_SOLVE_TOL)))


def _advance(g: Graph, rates: RateConfig, nodes, delta_i, near) -> np.ndarray:
    """The continuation step of the module docstring at the points where
    node nodes of rates has curing rate delta_i, nodes and delta_i shaped
    (...): (v, x, x') stacked, (x, x') along e_i, nan where a point is not
    endemic by the rule of solve.  near = (delta_i, v, x, x') holds a nearby
    endemic point of each (the sweep's previous point, the last point walked
    or the search's pivot), nan where there is none (near None: none has
    one).  An endemic point that the Newton steps do not converge from its
    prediction is solved and raises the errors of solve; the first endemic
    point whose linearization fails raises its error.
    """
    nodes, delta_i = np.asarray(nodes), np.asarray(delta_i)[..., None]
    unit = np.arange(g.n) == nodes[..., None]  # e_i of each point
    delta = np.where(unit, delta_i, rates.delta)  # each point's rates, shaped (..., n)
    endemic = _endemic(_coupling(g, np.where(unit, rates.beta / delta_i, rates.tau)))
    ahead = np.full((3,) + delta.shape, np.nan)
    if not np.any(endemic):
        return ahead
    keep = ... if np.all(endemic) else endemic  # the endemic points; the Ellipsis, all of them, copies nothing
    unit, delta_i, delta = unit[keep], delta_i[keep], delta[keep]
    if near is None:
        guess = np.full(delta.shape, np.nan)
    else:
        prior, v, x, curvature = (np.asarray(f)[keep] for f in near)
        h = delta_i - prior[..., None]
        guess = v + h * x + 0.5 * h**2 * curvature
    v, _, _, stop = _newton(g, rates.beta, delta, guess, _SOLVE_TOL, _MAX_ITER)
    v_rows, delta_rows = v.reshape(-1, g.n), delta.reshape(-1, g.n)  # one row per point
    for k in np.flatnonzero(stop != _CONVERGED):  # solve decides, and raises its own errors
        v_rows[k] = solve(g, RateConfig.for_graph(g, rates.beta, delta_rows[k]), tol=_SOLVE_TOL).v_inf
    x, curvature = _Linearization.at(g, rates.beta, delta, v).along(unit[..., None])
    ahead[:, keep] = v, x[..., 0], curvature[..., 0]
    return ahead


def _sweep(g: Graph, rates: RateConfig, base: _Linearization | None) -> list[list[str]]:
    """convexity_verdicts with the base state's linearization given (None if not endemic).

    The sweeps advance together: one row per node and chain, in chunks of at
    most max(1, _STACK_DOUBLES // n^2) rows, each chain step of a chunk being
    one _advance.
    """
    n = g.n
    low = np.full((n, n), np.inf)
    high = np.full((n, n), -np.inf)
    points = np.zeros(n, dtype=int)  # endemic sweep points of each node

    def record(nodes, curvature):  # points of the sweeps of nodes, d^2 v / d delta_i^2 per row, nan if not endemic
        np.fmin.at(low.T, nodes, curvature)  # fmin and fmax pass over nan
        np.fmax.at(high.T, nodes, curvature)
        np.add.at(points, nodes, ~np.isnan(curvature[:, 0]))

    nodes = np.tile(np.arange(n), len(_CHAINS))  # row k follows node nodes[k] along chain factors[k]
    factors = np.repeat(np.array(_CHAINS), n, axis=0)
    if base is not None:  # row i of origin is node i's point at factor 1.0, (x, x') along e_i
        origin = (rates.delta, np.broadcast_to(base.v, (n, n)), *(f.T for f in base.along(np.eye(n))))
        record(np.arange(n), origin[3])
    size = max(1, _STACK_DOUBLES // n**2)
    for first in range(0, len(nodes), size):
        rows = nodes[first : first + size]
        near = None if base is None else tuple(f[rows] for f in origin)
        for factor in factors[first : first + size].T:
            delta_i = rates.delta[rows] * factor
            ahead = _advance(g, rates, rows, delta_i, near)  # (v, x, x') of each row, nan where not endemic
            record(rows, ahead[2])
            near = (delta_i, *ahead)
    band = _DEADBAND / float(rates.delta.max()) ** 2
    verdicts = np.where(low >= -band, "convex", np.where(high <= band, "concave", "indefinite"))
    verdicts[:, points < 2] = "indefinite"
    return verdicts.tolist()


def inverse_checks(g: Graph, rates: RateConfig, ss: SteadyState) -> dict:
    """Ledger of identities and inequalities on S^{-1} at an endemic state.

    Every entry reports lhs <= rhs with the worst-case pair substituted,
    within a relative slack of 1e-9; identity entries additionally carry
    the largest absolute deviation.
    The symmetric upper bound only applies when all infection rates are
    equal (S is then symmetric) and is marked inapplicable otherwise.
    """
    return _ledger(g, rates, ss.v_inf, _linearized(g, rates, ss).inv)


def _ledger(g: Graph, rates: RateConfig, v: np.ndarray, inv: np.ndarray) -> dict:
    """inverse_checks at the endemic state v with S^{-1} = inv."""
    a = g.adjacency
    beta, delta = rates.beta, rates.delta
    d = g.degrees.astype(float)
    n = g.n
    diag = np.diag(inv)
    off = ~np.eye(n, dtype=bool)

    ledger: dict[str, dict] = {}

    def slack(lhs: float, rhs: float) -> float:
        return _LEDGER_TOL * max(1.0, abs(lhs), abs(rhs))

    def identity(name: str, values: np.ndarray, targets: np.ndarray) -> None:
        devs = np.abs(values - targets)
        worst = int(np.argmax(devs))
        lhs, rhs = float(values.flat[worst]), float(targets.flat[worst])
        ledger[name] = {
            "lhs": lhs,
            "rhs": rhs,
            "satisfied": bool(devs.flat[worst] <= slack(lhs, rhs)),
            "max_abs_dev": float(devs.flat[worst]),
        }

    def inequality(name: str, lhs: np.ndarray, rhs: np.ndarray, mask=None, strict=False) -> None:
        lhs, rhs = np.broadcast_arrays(np.asarray(lhs, float), np.asarray(rhs, float))
        margin = rhs - lhs
        if mask is not None:
            margin = np.where(mask, margin, np.inf)
        worst = int(np.argmin(margin))
        wl, wr = float(lhs.flat[worst]), float(rhs.flat[worst])
        ok = wl < wr if strict else wl <= wr + slack(wl, wr)
        ledger[name] = {"lhs": wl, "rhs": wr, "satisfied": bool(ok)}

    inequality("nonnegative_inverse", -inv, np.zeros_like(inv))

    scaled_diag = delta * diag / (1.0 - v) ** 2
    identity("diag_identity", scaled_diag - beta * np.sum(inv * a, axis=1), np.ones(n))
    inequality("diag_lower", np.ones(n), scaled_diag)
    identity("row_identity", inv @ (delta * v**2 / (1.0 - v) ** 2), v)
    inequality("diag_strict", v * scaled_diag, np.ones(n), strict=True)

    # entry (i, j) bound: a_ij * max((1-v_j)^2 tau_j Sinv_ii, (beta_j/delta_i)(1-v_i)^2 Sinv_jj)
    neighbor_bound = a * np.maximum(
        ((1.0 - v) ** 2 * rates.tau)[None, :] * diag[:, None],
        (beta[None, :] / delta[:, None]) * ((1.0 - v) ** 2)[:, None] * diag[None, :],
    )
    inequality("neighbor_lower", neighbor_bound, inv, mask=(a > 0) & off)

    if _uniform(beta):
        pair_mean = 0.5 * (diag[:, None] + diag[None, :])
        pair_geo = np.sqrt(diag[:, None] * diag[None, :])
        inequality("symmetric_upper", inv, np.minimum(pair_mean, pair_geo), mask=off)
    else:
        ledger["symmetric_upper"] = {"lhs": None, "rhs": None, "satisfied": None, "applicable": False}

    base = (1.0 - v) ** 2 / delta
    inequality("diag_bracket_lower", base, diag)
    inequality("diag_bracket_upper", diag, base / v, strict=True)

    for p in (1, 2):
        # sum over k != j of a_kj Sinv_ik^p equals row i of Sinv^p times column j of A
        sums = (inv**p) @ a
        holder = base[None, :] * (np.eye(n) + beta[None, :] * d[None, :] ** (1.0 - 1.0 / p) * sums ** (1.0 / p))
        inequality(f"holder_p{p}", inv, holder)

    return ledger


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Complete sensitivity picture at one endemic configuration."""

    s_matrix: np.ndarray = field(repr=False)
    s_inverse: np.ndarray = field(repr=False)
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)
    d1_tied: np.ndarray | None = field(repr=False)
    d2_tied: np.ndarray | None = field(repr=False)
    m_matrix: np.ndarray = field(repr=False)
    convexity: list


def full_report(g: Graph, rates: RateConfig, ss: SteadyState | None = None) -> SensitivityReport:
    """Every sensitivity result at the endemic state ss (solved here at
    tolerance 1e-12 when not given).

    S and S^{-1} are built once at ss and give the derivatives, the tied
    derivatives (when all curing rates are equal), the curvature matrix
    and the factor-1.0 point of every convexity sweep; only the other
    sweep points are solved and linearized.
    """
    if ss is None:
        ss = solve(g, rates, tol=_SOLVE_TOL)
    lin = _linearized(g, rates, ss)
    if float(lin.inv.min()) * float(rates.delta.max()) < -1e-10:  # S^{-1} is in units of 1 / rate
        raise NumericalError("negative entry in inverse sensitivity matrix", code="sign-violation")
    d1, d2 = lin.along(np.eye(g.n))
    d1_tied, d2_tied = (f[:, 0] for f in lin.along(np.ones((g.n, 1)))) if _uniform(rates.delta) else (None, None)
    return SensitivityReport(
        s_matrix=lin.s,
        s_inverse=lin.inv,
        d1=d1,
        d2=d2,
        d1_tied=d1_tied,
        d2_tied=d2_tied,
        m_matrix=lin.curvature(d2)[0],
        convexity=_sweep(g, rates, lin),
    )
