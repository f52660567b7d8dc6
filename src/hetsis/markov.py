"""Exact Markov chain and stochastic simulation of SIS spreading.

These are the ground-truth oracles the mean-field model is measured
against.  The exact continuous-time chain lives on all 2^N subsets of
infected nodes (bit i set means node i infected, the empty set is
absorbing); transients are computed by uniformization.  The event-driven
simulator runs independent replicas one after another in the calling
thread, each with a counter-based RNG keyed by (seed XOR replica), so
results are bit-reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericalError
from .graphs import Graph, RateConfig

__all__ = [
    "ExactChain",
    "SimEstimate",
    "build_exact_chain",
    "transient_distribution",
    "marginals",
    "conditional_marginals",
    "simulate",
]

_MAX_EXACT_NODES = 14
_POISSON_TAIL = 1e-12


@dataclass(frozen=True)
class ExactChain:
    """Generator of the 2^n-state infection chain (rows = from-state)."""

    n: int
    generator: sp.csr_matrix = field(repr=False)
    uniformization_rate: float


def build_exact_chain(g: Graph, rates: RateConfig) -> ExactChain:
    """Assemble the sparse transition-rate matrix of the exact chain.

    From state s, each susceptible node i gains infection at rate
    sum_j beta_j a_ij [j in s], and each infected node i cures at rate
    delta_i.  The all-susceptible state has no outflow.
    """
    if g.n > _MAX_EXACT_NODES:
        raise InputError(
            f"exact chain too large: 2^{g.n} states (limit n <= {_MAX_EXACT_NODES})",
            code="chain-too-large",
        )
    n = g.n
    states = np.arange(1 << n)
    flips = 1 << np.arange(n)
    bits = (states[:, None] & flips) != 0
    # rate[s, i]: delta_i if i is infected in s, else sum_j a_ij beta_j [j in s]
    rate = np.where(bits, rates.delta, bits @ (g.adjacency * rates.beta).T)
    outflow = rate.sum(axis=1)
    # each row lists its n flips (i = 0..n-1) and then its diagonal;
    # zero rates (no infected neighbour, or the absorbing state) are dropped
    values = np.column_stack([rate, -outflow])
    targets = np.column_stack([states[:, None] ^ flips, states])
    keep = values != 0.0
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    generator = sp.csr_matrix((values[keep], targets[keep], indptr), shape=(states.size, states.size))
    return ExactChain(n=n, generator=generator, uniformization_rate=1.1 * float(outflow.max()))


def transient_distribution(chain: ExactChain, p0: np.ndarray, t: float) -> np.ndarray:
    """State distribution p0 exp(G t), by uniformization.

    The Poisson-weighted power series of P = I + G/rate is summed until
    the remaining tail mass is below 1e-12; weights are evaluated in the
    log domain so long horizons do not underflow.
    """
    size = 1 << chain.n
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (size,):
        raise InputError(f"p0 must have length {size}", code="length-mismatch")
    if np.any(p0 < 0) or abs(float(p0.sum()) - 1.0) > 1e-12:
        raise InputError("p0 must be a probability distribution", code="invalid-distribution")
    if not np.isfinite(t) or t < 0:
        raise InputError("t must be non-negative and finite", code="invalid-argument")

    rate = chain.uniformization_rate
    mu = rate * t
    if mu == 0.0:
        return p0.copy()
    # left multiplication p <- p P done as P^T p on column vectors
    transition_t = (sp.eye(size, format="csr") + chain.generator / rate).T.tocsr()

    log_mu = math.log(mu)
    result = np.zeros(size)
    x = p0.copy()
    cumulative = 0.0
    k = 0
    while cumulative < 1.0 - _POISSON_TAIL:
        weight = math.exp(k * log_mu - mu - math.lgamma(k + 1))
        result += weight * x
        cumulative += weight
        x = transition_t @ x
        k += 1
        if k > mu + 100.0 * math.sqrt(mu + 1.0) + 100.0:
            raise NumericalError("uniformization series failed to terminate", code="no-convergence")
    return result


def marginals(chain: ExactChain, p: np.ndarray) -> np.ndarray:
    """Per-node infection probabilities sum_{s: i in s} p_s."""
    p = np.asarray(p, dtype=float)
    states = np.arange(1 << chain.n)
    return np.array([p[((states >> i) & 1).astype(bool)].sum() for i in range(chain.n)])


def conditional_marginals(chain: ExactChain, p: np.ndarray) -> np.ndarray:
    """Marginals conditioned on not being absorbed (state 0 excluded)."""
    p = np.asarray(p, dtype=float)
    alive = 1.0 - p[0]
    if alive <= 0.0:
        raise NumericalError("no probability mass outside the absorbing state", code="no-surviving-replicas")
    q = p.copy()
    q[0] = 0.0
    return marginals(chain, q) / alive


@dataclass(frozen=True)
class SimEstimate:
    """Time-averaged infection estimates conditioned on survival.

    prevalence_mean[i] averages node i's infected-time fraction over the
    window [burn_in, horizon] across surviving replicas; stderr is the
    replica-to-replica standard error of that mean.
    """

    prevalence_mean: np.ndarray
    y_mean: float
    stderr: np.ndarray = field(repr=False)
    replicas: int
    seed: int
    survival_fraction: float


class _DrawBuffer:
    """Chunked draws from one replica's counter-based generator."""

    def __init__(self, key: int, chunk: int = 1024):
        self._rng = np.random.Generator(np.random.Philox(key=key))
        self._chunk = chunk
        self._exp = np.empty(0)
        self._uni = np.empty(0)
        self._ei = 0
        self._ui = 0

    def exponential(self) -> float:
        if self._ei >= self._exp.size:
            self._exp = self._rng.standard_exponential(self._chunk)
            self._ei = 0
        value = self._exp[self._ei]
        self._ei += 1
        return float(value)

    def uniform(self) -> float:
        if self._ui >= self._uni.size:
            self._uni = self._rng.random(self._chunk)
            self._ui = 0
        value = self._uni[self._ui]
        self._ui += 1
        return float(value)


def _run_replica(
    g: Graph,
    rates: RateConfig,
    horizon: float,
    burn_in: float,
    key: int,
) -> tuple[np.ndarray, bool]:
    """One event-driven trajectory from the all-infected state.

    Returns (occupancy over [burn_in, horizon], survived), where
    occupancy[i] is node i's total infected time inside the window.
    """
    n = g.n
    draws = _DrawBuffer(key)
    adjacency, beta, delta = g.adjacency, rates.beta, rates.delta
    links = adjacency.astype(np.int64)
    infected = np.ones(n, dtype=bool)
    # exact count of infected neighbours; pressure is their summed beta,
    # which float updates leave with rounding residue, so a node whose
    # count is zero gets an infection rate of exactly zero
    exposed = g.degrees.copy()
    pressure = adjacency @ beta
    occupancy = np.zeros(n)
    rate = np.empty(2 * n)  # cure rates, then infection rates
    cure, infect = rate[:n], rate[n:]
    t = 0.0
    while True:
        np.multiply(delta, infected, out=cure)
        np.multiply(pressure, ~infected & (exposed > 0), out=infect)
        cumulative = np.cumsum(rate)
        total = float(cumulative[-1])
        if total == 0.0:
            # absorbed: nothing more happens for the rest of the horizon
            return occupancy, False
        t_next = t + draws.exponential() / total
        left = max(t, burn_in)
        right = min(t_next, horizon)
        if right > left:
            occupancy[infected] += right - left
        if t_next >= horizon:
            return occupancy, bool(infected.any())
        event = int(np.searchsorted(cumulative, draws.uniform() * total, side="right"))
        node = event % n
        infected[node] = event >= n  # an infection event, else a cure
        sign = 1 if infected[node] else -1
        exposed += sign * links[node]
        pressure += sign * beta[node] * adjacency[node]
        t = t_next


def simulate(
    g: Graph,
    rates: RateConfig,
    horizon: float,
    burn_in: float,
    replicas: int,
    seed: int,
    max_workers: int | None = None,
) -> SimEstimate:
    """Estimate metastable prevalence from independent replicas.

    Each replica starts all-infected and is simulated event by event to
    ``horizon``; replicas absorbed before the horizon are excluded
    (conditioning on survival).  Replica r draws from a Philox stream
    keyed by seed XOR r, so the estimate is bit-reproducible for a given
    seed.  Replicas run in order in the calling thread; ``max_workers``
    is accepted for compatibility and ignored.
    """
    if not np.isfinite(horizon) or not np.isfinite(burn_in) or burn_in < 0 or horizon <= burn_in:
        raise InputError("need 0 <= burn_in < horizon", code="invalid-argument")
    if replicas < 1:
        raise InputError("replicas must be at least 1", code="invalid-argument")
    if seed < 0:
        raise InputError("seed must be non-negative", code="invalid-argument")

    results = [_run_replica(g, rates, horizon, burn_in, seed ^ r) for r in range(replicas)]

    window = horizon - burn_in
    survivors = np.array([occ / window for occ, alive in results if alive])
    n_alive = survivors.shape[0]
    if n_alive == 0:
        raise NumericalError(
            "no surviving replicas; raise tau or shorten horizon",
            code="no-surviving-replicas",
        )
    prevalence = survivors.mean(axis=0)
    if n_alive > 1:
        stderr = survivors.std(axis=0, ddof=1) / math.sqrt(n_alive)
    else:
        stderr = np.full(g.n, np.inf)
    return SimEstimate(
        prevalence_mean=prevalence,
        y_mean=float(prevalence.mean()),
        stderr=stderr,
        replicas=replicas,
        seed=seed,
        survival_fraction=n_alive / replicas,
    )
