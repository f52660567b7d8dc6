"""Exact Markov chain and stochastic simulation of SIS spreading.

These are the ground-truth oracles the mean-field model is measured
against.  The exact continuous-time chain lives on all 2^N subsets of
infected nodes (bit i set means node i infected, the empty set is
absorbing); transients are computed by uniformization.  The stochastic
simulator runs the same chain by thinning: candidate events arrive at a
fixed total rate, are picked from static weights, and are kept only if
the state allows them, so each candidate costs O(1) whatever n is.
Replicas run one at a time in the calling thread, each drawing from its
own counter-based RNG keyed by (seed XOR replica), so results are
bit-reproducible for a given seed and equal to running the replicas one
after another.
"""

from __future__ import annotations

import math
import operator
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
_CHUNK = 1024  # most draws a replica takes from its stream per refill


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

    mu = chain.uniformization_rate * t
    if not math.isfinite(mu):  # every Poisson weight would be nan, so neither stop could hold
        raise InputError(f"uniformization mean rate * t overflows at t = {t!r}", code="invalid-argument")
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
    cures and infections simulated and candidates the thinned draws
    examined, both summed over all replicas, so events / candidates is the
    share of candidates that were real.
    """

    prevalence_mean: np.ndarray
    y_mean: float
    stderr: np.ndarray = field(repr=False)
    replicas: int
    seed: int
    survival_fraction: float
    events: int
    candidates: int


def _run_replica(
    stream: np.random.Generator,
    cumulative: np.ndarray,
    source: list[int],
    target: list[int],
    n: int,
    horizon: float,
    burn_in: float,
    chunk: int,
) -> tuple[list[float] | None, int, int]:
    """One thinned trajectory from the all-infected state.

    Candidate c < n cures node c; candidate c >= n is source[c] infecting
    target[c].  Candidates arrive at the constant rate cumulative[-1], each
    picked with probability proportional to its weight; one whose node is
    in the wrong state is a phantom and changes nothing.  Each refill takes
    a chunk of exponential waits and then a chunk of uniform picks from the
    stream.  Returns (occupancy, events, candidates): occupancy[i] is node
    i's infected time inside [burn_in, horizon], or None if the replica was
    absorbed before the horizon.
    """
    total = cumulative[-1]
    infected = [True] * n
    since = [0.0] * n  # start of each node's current infected stretch
    occupancy = [0.0] * n
    alive = n
    events = candidates = 0
    t = 0.0
    while True:
        waits = stream.standard_exponential(chunk)
        picks = cumulative.searchsorted(stream.random(chunk) * total, side="right")
        times = t + waits.cumsum() / total
        t = times[-1]
        before = int(times.searchsorted(horizon))  # candidates inside the horizon
        # what is left of this iterator after an absorbing cure tells how many were examined
        unread = iter(times[:before].tolist())
        for time, c in zip(unread, picks[:before].tolist()):
            if c < n:
                if infected[c]:
                    infected[c] = False
                    start = since[c] if since[c] > burn_in else burn_in
                    if time > start:
                        occupancy[c] += time - start
                    events += 1
                    alive -= 1
                    if not alive:
                        return None, events, candidates + before - operator.length_hint(unread)
            elif infected[source[c]]:
                i = target[c]
                if not infected[i]:
                    infected[i] = True
                    since[i] = time
                    events += 1
                    alive += 1
        candidates += before
        if before < chunk:
            break
    for i in range(n):
        if infected[i]:
            occupancy[i] += horizon - (since[i] if since[i] > burn_in else burn_in)
    return occupancy, events, candidates


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

    Each replica starts all-infected and runs to ``horizon``; replicas
    absorbed before the horizon are excluded (conditioning on survival).
    The exact SIS chain is simulated by thinning (uniformization):
    candidate events arrive at the constant rate
    Lambda = sum_i delta_i + sum_i gamma_i, each a cure of node i (weight
    delta_i) or an infection of i by a neighbour j (weight beta_j), and a
    candidate is real only if j is infected and i susceptible (a cure: i
    infected).  A replica that survives the whole horizon therefore
    examines about Lambda * horizon candidates at O(1) each, whatever the
    share that is real.  Occupancy is summed per infected stretch.

    Replica r draws from a Philox stream keyed by seed XOR r, in chunks of
    min(1024, ceil(Lambda * horizon) + 1) exponentials and then as many
    uniforms, so the estimate is bit-reproducible for a given seed and
    equal to running the replicas one after another.  Replicas run one at
    a time in the calling thread; ``max_workers`` is accepted for
    compatibility and ignored.
    """
    horizon, burn_in = _real(horizon, "horizon"), _real(burn_in, "burn_in", 0.0)
    if horizon <= burn_in:
        raise InputError("need 0 <= burn_in < horizon", code="invalid-argument")
    replicas, seed = _integer(replicas, "replicas", 1), _integer(seed, "seed", 0)
    if seed >= 2**128:  # a Philox key has two 64-bit words
        raise InputError(f"seed must be below 2**128, got {seed}", code="invalid-argument")

    n = g.n
    target, source = np.nonzero(g.adjacency)  # a_ij = 1: j infects i at rate beta_j
    cumulative = np.cumsum(np.concatenate([rates.delta, rates.beta[source]]))
    # indexed by candidate, so cures fill the first n places of both lists
    cures = np.arange(n)
    source, target = np.concatenate([cures, source]).tolist(), np.concatenate([cures, target]).tolist()
    expected = float(cumulative[-1]) * horizon  # may be inf, which math.ceil refuses
    chunk = _CHUNK if expected >= _CHUNK else math.ceil(expected) + 1

    # one Philox serves every replica: replica r's stream is Philox(key=seed ^ r)
    bits = np.random.Philox(key=0)
    stream = np.random.Generator(bits)
    survivors = []
    events = candidates = 0
    for r in range(replicas):
        key = seed ^ r
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": np.array([key % 2**64, key >> 64], np.uint64)},
            "buffer": np.zeros(4, np.uint64),
            "buffer_pos": 4,  # empty
            "has_uint32": 0,
            "uinteger": 0,
        }
        occupancy, replica_events, replica_candidates = _run_replica(
            stream, cumulative, source, target, n, horizon, burn_in, chunk)
        if occupancy is not None:
            survivors.append(occupancy)
        events += replica_events
        candidates += replica_candidates

    n_alive = len(survivors)
    if n_alive == 0:
        raise NumericalError(
            "no surviving replicas; raise tau or shorten horizon",
            code="no-surviving-replicas",
        )
    fractions = np.array(survivors) / (horizon - burn_in)
    prevalence = fractions.mean(axis=0)
    if n_alive > 1:
        stderr = fractions.std(axis=0, ddof=1) / math.sqrt(n_alive)
    else:
        stderr = np.full(n, np.inf)
    return SimEstimate(
        prevalence_mean=prevalence,
        y_mean=float(prevalence.mean()),
        stderr=stderr,
        replicas=replicas,
        seed=seed,
        survival_fraction=n_alive / replicas,
        events=events,
        candidates=candidates,
    )
