"""Critical-threshold characterization for heterogeneous SIS spreading.

The endemic/extinct boundary is the surface where the spectral radius of
diag(sqrt tau) A diag(sqrt tau) equals one.  This module classifies
configurations against that surface, scales rate vectors onto it, checks
a ledger of spectral bounds, and solves the complete-graph case through
its secular equation instead of a dense eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .graphs import Graph, RateConfig, _floats, _integer, _positive_vector, _real, walk_counts
from .spectral import _lambda_max, effective_adjacency
from .steady_state import CRITICAL_BAND, _side

__all__ = [
    "ThresholdReport",
    "classify",
    "critical_scaling",
    "complete_graph_lambda_max",
    "complete_graph_critical_sum",
    "critical_perturbation",
]

_SECULAR_TOL = 1e-12  # relative bracket width at which the secular root is returned


@dataclass(frozen=True, eq=False)
class ThresholdReport:
    lambda_max_R: float
    regime: str
    tau_min: float
    tau_max: float
    bound_ledger: dict = field(repr=False)


_REGIMES = {1: "infected", 0: "critical", -1: "not_infected"}


def classify(g: Graph, rates: RateConfig) -> ThresholdReport:
    """Place a rate configuration relative to the critical surface.

    lambda_max(R) comes with a certified bracket from ``_lambda_max``: a
    Collatz-Wielandt bracket within 1e-12 relative from order 150 on, an
    inertia-certified 1e-10 one from ``eigvalsh`` below that order or where
    that route fails or gives up.  The regime is ``solve``'s rule,
    ``_side``: the bracket decides it when it clears both edges of the
    critical band by 1e-11 relative, and the same Cholesky test as
    ``solve``'s otherwise, so the two never disagree.
    """
    r = effective_adjacency(g, rates.tau)
    lam, lo, hi = _lambda_max(r)
    side = _side(r, (lo, hi))
    return ThresholdReport(
        lambda_max_R=lam,
        regime=_REGIMES[side],
        tau_min=float(rates.tau.min()),
        tau_max=float(rates.tau.max()),
        bound_ledger=_ledger(g, rates.tau, lam, side),
    )


def critical_scaling(g: Graph, tau_direction: np.ndarray) -> float:
    """Scale factor s* putting s * tau_direction exactly on the surface.

    The spectral radius is linear in a global scaling,
    lambda_max(R(s tau)) = s lambda_max(R(tau)), so s* = 1 / lambda_max(R(tau)),
    with lambda_max(R(tau)) and its certified bracket from ``_lambda_max`` as
    in ``classify``.  The regime rule of ``solve`` on s* R(tau), given the
    bracket scaled by s*, confirms that it lands within CRITICAL_BAND of one
    before the factor is returned.
    """
    r = effective_adjacency(g, tau_direction)
    lam, lo, hi = _lambda_max(r)
    s_star = 1.0 / lam
    if _side(s_star * r, (s_star * lo, s_star * hi)) != 0:
        raise NumericalError(f"scale factor {s_star!r} misses the critical surface", code="no-convergence")
    return s_star


def _ledger(g: Graph, tau: np.ndarray, lam: float, side: int) -> dict:
    """Bound ledger: every entry states lhs <= rhs with both sides computed
    through routes independent of the eigensolver where possible.  The
    critical entries appear when side, the side of the surface, is 0."""
    d = g.degrees.astype(float)
    n3_total, n3_closed = walk_counts(g)
    lam_adj = g.spectral_radius
    tau_min, tau_max = float(tau.min()), float(tau.max())

    entries = {
        "spectral_lower": (lam_adj * tau_min, lam),
        "spectral_upper": (lam, lam_adj * tau_max),
        "harmonic_walk_lower": (2.0 * g.link_count / float(np.sum(1.0 / tau)), lam),
        "degree_walk_lower": (n3_total / float(np.sum(d * d / tau)), lam),
        "closed_walk_lower": (n3_closed / float(np.sum(d / tau)), lam),
    }
    if side == 0:
        entries.update(
            {
                "critical_tau_lower": (tau_min, 1.0 / lam_adj),
                "critical_tau_upper": (1.0 / lam_adj, tau_max),
                "critical_degree_walk": (n3_total, float(np.sum(d * d / tau))),
                "critical_closed_walk": (n3_closed, float(np.sum(d / tau))),
                "critical_inverse_tau_mean": (2.0 * g.link_count / g.n, float(np.mean(1.0 / tau))),
            }
        )
    ledger = {}
    for name, (lhs, rhs) in entries.items():
        slack = 1e-9 * max(1.0, abs(lhs), abs(rhs))
        ledger[name] = {"lhs": lhs, "rhs": rhs, "satisfied": bool(lhs <= rhs + slack)}
    return ledger


def _check_tau_vector(tau) -> np.ndarray:
    tau = _floats(tau, "tau")
    if tau.ndim != 1 or tau.size < 2:
        raise InputError("tau must be a vector with at least two entries", code="length-mismatch")
    return _positive_vector(tau, tau.size, "tau")


def complete_graph_lambda_max(tau) -> float:
    """Spectral radius of the complete-graph coupling matrix from its
    secular equation sum_j 1/(tau_j + x) = (n-1)/x.

    The root is bracketed in (0, sum tau - tau_min] and bisected to a
    relative width of 1e-12; the upper end is attained exactly in the
    homogeneous case.
    """
    tau = _check_tau_vector(tau)
    n = tau.size

    def g_fn(x: float) -> float:
        return x * float(np.sum(1.0 / (tau + x))) - (n - 1.0)

    hi = float(tau.sum() - tau.min())
    if g_fn(hi) <= 0.0:
        return hi
    lo = 0.0
    while hi - lo > _SECULAR_TOL * hi:
        mid = 0.5 * (lo + hi)
        if g_fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def complete_graph_critical_sum(tau) -> tuple[float, bool]:
    """Critical-surface functional sum_j 1/(tau_j + 1) and whether the
    configuration sits on the surface (value n-1 within CRITICAL_BAND)."""
    tau = _check_tau_vector(tau)
    total = float(np.sum(1.0 / (tau + 1.0)))
    return total, bool(abs(total - (tau.size - 1.0)) <= CRITICAL_BAND)


def critical_perturbation(h2: float, n: int) -> float:
    """Companion perturbation h1 keeping an (h1, h2, 0, ...) disturbed
    homogeneous complete-graph configuration on the critical surface:
    h1 = -h2 / (1 + 2 ((n-1)/n) h2)."""
    n, h2 = _integer(n, "n", 2), _real(h2, "h2")
    denom = 1.0 + 2.0 * ((n - 1.0) / n) * h2
    if abs(denom) < 1e-12:
        raise InputError("perturbation pole", code="perturbation-pole")
    return -h2 / denom
