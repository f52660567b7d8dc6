"""Exact Markov chain and stochastic simulation of SIS spreading.

These are the ground-truth oracles the mean-field model is measured
against.  The exact continuous-time chain lives on all 2^N subsets of
infected nodes (bit i set means node i infected, the empty set is
absorbing); transients are computed by uniformization.  The event-driven
simulator advances blocks of independent replicas together in the calling
thread, one event per live replica per step, as (replicas x n) arrays.
Each replica draws from its own counter-based RNG keyed by (seed XOR
replica), so results are bit-reproducible for a given seed and equal to
running the replicas one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, NumericalError
from .graphs import Graph, RateConfig, _floats, _integer, _real

if TYPE_CHECKING:
    import scipy.sparse as sp

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
_BLOCK = 256  # replicas advanced together; bounds the draws held at once
_CHUNK = 1024  # draws taken from each replica's stream per refill


@dataclass(frozen=True, eq=False)
class ExactChain:
    """Generator of the 2^n-state infection chain (rows = from-state)."""

    n: int
    generator: sp.csr_matrix = field(repr=False)
    uniformization_rate: float

    @cached_property
    def transition_t(self) -> sp.csr_matrix:
        """(I + G/rate)^T as CSR, built on first use and kept (the chain is frozen).

        Uniformization's step p <- p P, done as P^T p on column vectors.
        """
        import scipy.sparse as sp

        size = 1 << self.n
        return (sp.eye(size, format="csr") + self.generator / self.uniformization_rate).T.tocsr()


def build_exact_chain(g: Graph, rates: RateConfig) -> ExactChain:
    """Assemble the sparse transition-rate matrix of the exact chain.

    From state s, each susceptible node i gains infection at rate
    sum_j beta_j a_ij [j in s], and each infected node i cures at rate
    delta_i.  The all-susceptible state has no outflow.  scipy.sparse is
    imported here, at a process's first chain, so ``import hetsis`` loads
    numpy only.
    """
    import scipy.sparse as sp

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


def _state_vector(chain: ExactChain, p, name: str) -> np.ndarray:
    """p as a float vector over the 2^n states of the chain."""
    p = _floats(p, name, code="invalid-distribution")
    if p.shape != (1 << chain.n,):
        raise InputError(f"{name} must have length {1 << chain.n}, got shape {p.shape}", code="length-mismatch")
    return p


def transient_distribution(chain: ExactChain, p0: np.ndarray, t: float) -> np.ndarray:
    """State distribution p0 exp(G t), by uniformization.

    The Poisson-weighted power series of P = I + G/rate, at Poisson mean
    mu = rate t, is summed until the summed weight reaches 1 - 1e-12 or,
    once the term index passes mu, the remaining tail mass is at most
    1e-12 by the bound w_k q/(1 - q), q = mu/(k + 1) (the right
    truncation of Fox & Glynn 1988).  The bound ends long horizons, where
    the summed weight levels off below 1 - 1e-12 in floating point.
    Weights are evaluated in the log domain so long horizons do not
    underflow.
    """
    p0 = _state_vector(chain, p0, "p0")
    if not (np.all(p0 >= 0) and abs(float(p0.sum()) - 1.0) <= 1e-12):  # so a NaN entry fails it
        raise InputError("p0 must be a probability distribution", code="invalid-distribution")
    t = _real(t, "t", 0.0)

    rate = chain.uniformization_rate
    mu = rate * t
    if mu == 0.0:
        return p0.copy()

    log_mu = math.log(mu)
    result = np.zeros(p0.size)
    x = p0.copy()
    cumulative = 0.0
    k = 0
    while True:
        weight = math.exp(k * log_mu - mu - math.lgamma(k + 1))
        result += weight * x
        cumulative += weight
        k += 1
        # terms 0..k-1 are summed; once k > mu the rest weighs at most weight * mu / (k - mu)
        if cumulative >= 1.0 - _POISSON_TAIL or k > mu and weight * mu <= _POISSON_TAIL * (k - mu):
            return result
        x = chain.transition_t @ x


def marginals(chain: ExactChain, p: np.ndarray) -> np.ndarray:
    """Per-node infection probabilities sum_{s: i in s} p_s."""
    p = _state_vector(chain, p, "p")
    # bit i of the state index is set exactly in the upper half of each block of 2^(i+1)
    return np.array([p.reshape(-1, 2, 1 << i)[:, 1].sum() for i in range(chain.n)])


def conditional_marginals(chain: ExactChain, p: np.ndarray) -> np.ndarray:
    """Marginals conditioned on not being absorbed (state 0 excluded)."""
    p = _state_vector(chain, p, "p")
    alive = 1.0 - p[0]
    if alive <= 0.0:
        raise NumericalError("no probability mass outside the absorbing state", code="no-surviving-replicas")
    return marginals(chain, p) / alive  # state 0 enters no marginal


@dataclass(frozen=True, eq=False)
class SimEstimate:
    """Time-averaged infection estimates conditioned on survival.

    prevalence_mean[i] averages node i's infected-time fraction over the
    window [burn_in, horizon] across surviving replicas; stderr is the
    replica-to-replica standard error of that mean.  events counts the
    cures and infections simulated, summed over all replicas.
    """

    prevalence_mean: np.ndarray
    y_mean: float
    stderr: np.ndarray = field(repr=False)
    replicas: int
    seed: int
    survival_fraction: float
    events: int


def _run_block(
    g: Graph,
    rates: RateConfig,
    horizon: float,
    burn_in: float,
    keys: list[int],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Event-driven trajectories from the all-infected state, one per key.

    Every live replica advances by one event per step, so all of them sit
    at the same event index and refill their draws on the same step.
    Replicas that are absorbed or reach the horizon are written out and
    dropped.  Returns (occupancy, survived, events): occupancy[r, i] is
    node i's total infected time inside [burn_in, horizon] in replica r.
    """
    n, size = g.n, len(keys)
    adjacency, beta, delta = g.adjacency, rates.beta, rates.delta
    # one Philox serves every replica: replica k's stream is Philox(key=k), and
    # its state is saved after each refill and set again before the next
    bits = np.random.Philox(key=0)
    stream = np.random.Generator(bits)
    states = [
        {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": np.array([key % 2**64, key >> 64], np.uint64)},
            "buffer": np.zeros(4, np.uint64),
            "buffer_pos": 4,  # empty
            "has_uint32": 0,
            "uinteger": 0,
        }
        for key in keys
    ]
    # draws stay indexed by block row; live replicas read column step % _CHUNK
    waits = np.empty((size, _CHUNK))
    picks = np.empty((size, _CHUNK))
    occupancy_out = np.zeros((size, n))
    survived = np.zeros(size, dtype=bool)

    # one row per live replica; live[k] is the block row of row k
    live = np.arange(size)
    infected = np.ones((size, n), dtype=bool)
    # exact count of infected neighbours (small integers, exact in float);
    # pressure is their summed beta, which float updates leave with rounding
    # residue, so a node whose count is zero gets an infection rate of exactly 0
    exposed = np.tile(g.degrees.astype(float), (size, 1))
    pressure = np.tile(adjacency @ beta, (size, 1))
    occupancy = np.zeros((size, n))
    rate = np.tile(np.concatenate([delta, np.zeros(n)]), (size, 1))  # cure, then infection rates
    t = np.zeros(size)
    events = 0
    step = 0
    while live.size:
        column = step % _CHUNK
        if column == 0:
            # each stream yields a chunk of exponentials, then one of uniforms
            for replica in live:
                bits.state = states[replica]
                stream.standard_exponential(out=waits[replica])
                stream.random(out=picks[replica])
                states[replica] = bits.state
        np.multiply(pressure, ~infected & (exposed > 0), out=rate[:, n:])
        cumulative = np.cumsum(rate, axis=1)
        total = cumulative[:, -1]
        absorbed = total == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t_next = t + waits[live, column] / total
        left = np.maximum(t, burn_in)
        right = np.minimum(t_next, horizon)
        inside = right > left
        if inside.any():
            occupancy += infected * np.where(inside, right - left, 0.0)[:, None]
        ended = absorbed | (t_next >= horizon)
        if ended.any():
            # an absorbed replica stays absorbed for the rest of the horizon
            done = live[ended]
            occupancy_out[done] = occupancy[ended]
            survived[done] = ~absorbed[ended] & infected[ended].any(axis=1)
            going = ~ended
            live, infected, exposed, pressure, occupancy, rate = (
                live[going], infected[going], exposed[going], pressure[going], occupancy[going], rate[going])
            t_next, cumulative, total = t_next[going], cumulative[going], total[going]
            if not live.size:
                break
        # searchsorted(side="right") of each row's draw in its cumulative sum
        event = (cumulative <= (picks[live, column] * total)[:, None]).sum(axis=1)
        rows = np.arange(live.size)
        node = event % n
        gained = event >= n  # an infection event, else a cure
        infected[rows, node] = gained
        rate[rows, node] = delta[node] * gained
        # neighbour rows of the flipped nodes, signed +1 for an infection
        change = adjacency[node]
        change *= np.where(gained, 1.0, -1.0)[:, None]
        exposed += change
        pressure += beta[node][:, None] * change
        t = t_next
        events += live.size
        step += 1
    return occupancy_out, survived, events


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
    seed.  Replicas advance together in blocks, in the calling thread;
    ``max_workers`` is accepted for compatibility and ignored.
    """
    horizon, burn_in = _real(horizon, "horizon"), _real(burn_in, "burn_in", 0.0)
    if horizon <= burn_in:
        raise InputError("need 0 <= burn_in < horizon", code="invalid-argument")
    replicas, seed = _integer(replicas, "replicas", 1), _integer(seed, "seed", 0)
    if seed >= 2**128:  # a Philox key has two 64-bit words
        raise InputError(f"seed must be below 2**128, got {seed}", code="invalid-argument")

    occupancy = np.empty((replicas, g.n))
    survived = np.empty(replicas, dtype=bool)
    events = 0
    for start in range(0, replicas, _BLOCK):
        stop = min(start + _BLOCK, replicas)
        keys = [seed ^ r for r in range(start, stop)]
        occupancy[start:stop], survived[start:stop], block_events = _run_block(g, rates, horizon, burn_in, keys)
        events += block_events

    survivors = occupancy[survived] / (horizon - burn_in)
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
        events=events,
    )
