"""Exact 2^N chain and the thinned (uniformized) simulator.

The chain is validated against dense matrix exponentials and hand-built
small cases; the simulator against bit-reproducibility contracts and the
exact chain itself.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from hetsis import (
    Graph,
    InputError,
    NumericalError,
    RateConfig,
    build_exact_chain,
    conditional_marginals,
    integrate,
    marginals,
    markov,
    simulate,
    solve,
    transient_distribution,
)

from conftest import (
    complete_graph,
    path_graph,
    random_connected_graph,
    random_rates_at,
    star_graph,
    subprocess_env,
    within_seconds,
)


def all_infected_p0(n: int) -> np.ndarray:
    p0 = np.zeros(1 << n)
    p0[-1] = 1.0
    return p0


def test_chain_structure_triangle():
    g = complete_graph(3)
    chain = build_exact_chain(g, RateConfig.for_graph(g, 1.0, 1.0))
    q = chain.generator.toarray()
    assert q.shape == (8, 8)
    assert np.abs(q.sum(axis=1)).max() < 1e-12
    assert np.all(q[0] == 0.0)  # all-susceptible state is absorbing
    off = q - np.diag(np.diag(q))
    assert off.min() >= 0.0
    # from {0}: node 0 cures at rate 1, nodes 1 and 2 each get infected
    # at rate beta_0 = 1
    assert q[1, 0] == 1.0 and q[1, 3] == 1.0 and q[1, 5] == 1.0
    assert q[1, 1] == -3.0
    assert q[7, 7] == -3.0  # all infected, everyone susceptible already
    assert chain.uniformization_rate >= -q.diagonal().min()


def test_chain_matches_state_by_state_construction():
    # independent reference: walk every state and node in Python
    rng = np.random.default_rng(4)
    g = random_connected_graph(7, rng, extra=0.3)
    r = RateConfig.for_graph(g, rng.uniform(0.3, 2.0, 7), rng.uniform(0.3, 2.0, 7))
    size = 1 << g.n
    q = np.zeros((size, size))
    for s in range(size):
        for i in range(g.n):
            if s >> i & 1:
                q[s, s & ~(1 << i)] += r.delta[i]
            else:
                q[s, s | 1 << i] += sum(r.beta[j] for j in g.neighbors(i) if s >> j & 1)
        q[s, s] = -q[s].sum()
    chain = build_exact_chain(g, r)
    assert chain.generator.nnz == np.count_nonzero(q)
    assert np.abs(chain.generator.toarray() - q).max() <= 1e-12 * np.abs(q).max()
    assert chain.uniformization_rate == pytest.approx(1.1 * -q.diagonal().min(), rel=1e-12)


def test_chain_size_limit():
    g = path_graph(15)
    with pytest.raises(InputError, match="too large"):
        build_exact_chain(g, RateConfig.from_tau(g, 1.0))


def test_transient_at_zero_returns_initial():
    g = complete_graph(3)
    chain = build_exact_chain(g, RateConfig.for_graph(g, 2.0, 1.0))
    p0 = np.full(8, 1.0 / 8.0)
    assert np.array_equal(transient_distribution(chain, p0, 0.0), p0)


def test_transient_conserves_probability():
    g = star_graph(4)
    chain = build_exact_chain(g, RateConfig.for_graph(g, 1.5, 1.0))
    p0 = all_infected_p0(4)
    for t in (0.1, 1.0, 7.5, 40.0):
        p = transient_distribution(chain, p0, t)
        assert p.min() >= -1e-13
        assert abs(p.sum() - 1.0) < 1e-10


def test_transient_matches_dense_matrix_exponential():
    g = complete_graph(3)
    chain = build_exact_chain(g, RateConfig.for_graph(g, [4.0, 1.0, 2.0], [1.0, 0.5, 2.0]))
    q = chain.generator.toarray()
    p0 = all_infected_p0(3)
    for t in (0.3, 1.7):
        expected = p0 @ scipy.linalg.expm(q * t)
        assert np.abs(transient_distribution(chain, p0, t) - expected).max() < 1e-10


def test_transient_terminates_at_a_long_horizon():
    # Poisson mean 3e5: the summed weights level off near 1 - 1.2e-10 in
    # floating point, so only the tail bound ends the series; about 40% of
    # the mass is absorbed by then, so the distribution is not trivial
    g = path_graph(2)
    chain = build_exact_chain(g, RateConfig.for_graph(g, 1.0, 1e-3))
    t = 3e5 / chain.uniformization_rate
    p0 = all_infected_p0(2)
    expected = p0 @ scipy.linalg.expm(chain.generator.toarray() * t)
    assert 0.1 < expected[0] < 0.9
    assert np.abs(transient_distribution(chain, p0, t) - expected).max() <= 1e-9


def test_transient_builds_uniformized_matrix_once(monkeypatch):
    g = star_graph(4)
    chain = build_exact_chain(g, RateConfig.for_graph(g, 1.5, 1.0))
    assert "transition_t" not in vars(chain)  # construction does not pay for it
    builds = []
    eye = sp.eye
    monkeypatch.setattr(sp, "eye", lambda *a, **k: builds.append(a) or eye(*a, **k))
    first = transient_distribution(chain, all_infected_p0(4), 2.0)
    kept = vars(chain)["transition_t"]
    second = transient_distribution(chain, all_infected_p0(4), 2.0)
    assert len(builds) == 1
    assert vars(chain)["transition_t"] is kept
    assert np.array_equal(first, second)


def test_exact_chain_loads_scipy_sparse_on_first_build():
    # this process already holds scipy, so the lazy import is observed in a
    # fresh interpreter; its distribution must equal the in-process one bit for bit
    edges, beta, delta, t = [(0, 1), (1, 2), (2, 3), (1, 3)], [1.2, 0.7, 1.5, 0.9], [1.0, 0.6, 1.3, 0.8], 0.7
    code = (
        "import sys, numpy as np, hetsis\n"
        "assert 'scipy' not in sys.modules\n"
        f"g = hetsis.Graph.from_edges({edges!r})\n"
        f"chain = hetsis.build_exact_chain(g, hetsis.RateConfig.for_graph(g, {beta!r}, {delta!r}))\n"
        "p0 = np.zeros(1 << g.n); p0[-1] = 1.0\n"
        f"p = hetsis.transient_distribution(chain, p0, {t!r})\n"
        "print(type(chain.generator).__module__.split('.')[:2], chain.generator.format)\n"
        "print('scipy.sparse' in sys.modules)\n"
        "print(p.tobytes().hex())\n"
        "print(hetsis.marginals(chain, p).tobytes().hex())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True)
    kind, sparse_loaded, p_hex, m_hex = out.stdout.splitlines()
    assert kind == "['scipy', 'sparse'] csr"
    assert sparse_loaded == "True"
    g = Graph.from_edges(edges)
    chain = build_exact_chain(g, RateConfig.for_graph(g, beta, delta))
    p = transient_distribution(chain, all_infected_p0(g.n), t)
    assert bytes.fromhex(p_hex) == p.tobytes()
    assert bytes.fromhex(m_hex) == marginals(chain, p).tobytes()


def test_chain_and_estimate_compare_and_hash_by_identity():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    chain, twin = build_exact_chain(g, r), build_exact_chain(g, r)
    assert chain == chain and chain != twin
    assert len({chain, twin, chain}) == 2
    est = simulate(g, r, horizon=2.0, burn_in=0.5, replicas=4, seed=1)
    assert est == est and est != simulate(g, r, horizon=2.0, burn_in=0.5, replicas=4, seed=1)
    assert len({est, est}) == 1


def test_long_horizon_absorbs_below_threshold():
    g = path_graph(2)
    chain = build_exact_chain(g, RateConfig.for_graph(g, 0.5, 1.0))
    p = transient_distribution(chain, all_infected_p0(2), 80.0)
    assert p[0] > 1.0 - 1e-8


def test_marginals_hand_case():
    g = path_graph(2)
    chain = build_exact_chain(g, RateConfig.from_tau(g, 1.0))
    p = np.array([0.1, 0.2, 0.3, 0.4])
    m = marginals(chain, p)
    assert np.allclose(m, [0.6, 0.7], atol=1e-15)
    c = conditional_marginals(chain, p)
    assert np.allclose(c, [0.6 / 0.9, 0.7 / 0.9], atol=1e-15)


def test_conditional_marginals_require_surviving_mass():
    g = path_graph(2)
    chain = build_exact_chain(g, RateConfig.from_tau(g, 1.0))
    p = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NumericalError, match="absorbing"):
        conditional_marginals(chain, p)


def test_state_vectors_must_cover_every_state():
    # unchecked, a length-16 vector with its mass at index 8 reads as [0, 0, 0] on a 3-node chain
    g = path_graph(3)
    chain = build_exact_chain(g, RateConfig.from_tau(g, 1.0))
    for size in (16, 5):
        p = np.zeros(size)
        p[8 % size] = 1.0
        for reader in (marginals, conditional_marginals):
            with pytest.raises(InputError) as info:
                reader(chain, p)
            assert info.value.code == "length-mismatch"


def test_transient_refuses_a_nan_distribution():
    g = path_graph(2)
    chain = build_exact_chain(g, RateConfig.from_tau(g, 1.0))
    with pytest.raises(InputError) as info:
        transient_distribution(chain, np.array([0.5, np.nan, 0.5, 0.0]), 1.0)
    assert info.value.code == "invalid-distribution"


def test_transient_argument_validation():
    g = path_graph(2)
    chain = build_exact_chain(g, RateConfig.from_tau(g, 1.0))
    with pytest.raises(InputError, match="length"):
        transient_distribution(chain, np.ones(3) / 3.0, 1.0)
    with pytest.raises(InputError, match="probability"):
        transient_distribution(chain, np.array([0.5, 0.5, 0.5, -0.5]), 1.0)
    with pytest.raises(InputError):
        transient_distribution(chain, np.full(4, 0.25), -1.0)


def test_transient_refuses_a_horizon_whose_poisson_mean_overflows():
    # rate * t = inf leaves every Poisson weight nan, so neither stop test can
    # hold; a subprocess with a deadline turns a hang into a failure
    code = (
        "import numpy as np, hetsis\n"
        "g = hetsis.Graph.from_edges([(0, 1), (1, 2)])\n"
        "chain = hetsis.build_exact_chain(g, hetsis.RateConfig.from_tau(g, 1.0))\n"
        "p0 = np.zeros(8); p0[-1] = 1.0\n"
        "try:\n"
        "    hetsis.transient_distribution(chain, p0, 1e308)\n"
        "except hetsis.InputError as exc:\n"
        "    print(exc.code)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, timeout=30)
    assert out.stdout.strip() == "invalid-argument", out.stderr


def test_mean_field_tracks_chain_at_short_times():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    chain = build_exact_chain(g, r)
    t_short = 0.1 / float((r.gamma + r.delta).max())
    traj = integrate(g, r, np.ones(3), t_short)
    exact = marginals(chain, transient_distribution(chain, all_infected_p0(3), t_short))
    assert np.abs(traj.states[-1] - exact).max() < 5e-3


def test_mean_field_upper_bounds_exact_marginals():
    # the deterministic model ignores negative correlations between
    # neighbors, so from a matched start it can only overestimate
    g = path_graph(2)
    r = RateConfig.for_graph(g, 4.0, 1.0)
    chain = build_exact_chain(g, r)
    for t in (0.5, 1.0, 2.0, 5.0):
        traj = integrate(g, r, np.ones(2), t)
        exact = marginals(chain, transient_distribution(chain, all_infected_p0(2), t))
        assert np.all(traj.states[-1] >= exact - 1e-9)


def test_simulate_bit_reproducible():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    a = simulate(g, r, horizon=8.0, burn_in=2.0, replicas=40, seed=7)
    b = simulate(g, r, horizon=8.0, burn_in=2.0, replicas=40, seed=7)
    assert np.array_equal(a.prevalence_mean, b.prevalence_mean)
    assert np.array_equal(a.stderr, b.stderr)
    assert a.survival_fraction == b.survival_fraction


def test_simulate_independent_of_worker_count():
    # max_workers is accepted and ignored
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    serial = simulate(g, r, horizon=8.0, burn_in=2.0, replicas=40, seed=3)
    pooled = simulate(g, r, horizon=8.0, burn_in=2.0, replicas=40, seed=3, max_workers=4)
    assert np.array_equal(serial.prevalence_mean, pooled.prevalence_mean)


def test_simulate_terminates_when_float_pressure_leaves_residue():
    # on these rates a simulator that summed beta into per-node infection
    # pressure left a negative rounding residue on a fully cured state, and
    # replica key 1 ran backward in time forever; thinning keeps no such sums,
    # and the case stays as a termination guard
    g = path_graph(4)
    r = RateConfig.for_graph(g, 1.3 * np.array([1.5, 5 / 6, 7 / 6, 0.5]), [0.5, 5 / 6, 7 / 6, 1.5])
    with within_seconds(10):
        est = simulate(g, r, horizon=3.0, burn_in=0.5, replicas=2, seed=0, max_workers=1)
    assert 0.0 <= est.survival_fraction <= 1.0


def test_simulate_seed_xor_collision_gives_same_replica_set():
    # seeds 5 and 7 XOR the replica index into overlapping key sets when
    # replicas is a multiple of 4, so the survivor multiset coincides and
    # the estimates agree up to summation order
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    a = simulate(g, r, horizon=8.0, burn_in=2.0, replicas=16, seed=5)
    b = simulate(g, r, horizon=8.0, burn_in=2.0, replicas=16, seed=7)
    assert np.allclose(a.prevalence_mean, b.prevalence_mean, rtol=1e-12, atol=0)


def test_simulate_matches_exact_chain():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    est = simulate(g, r, horizon=10.0, burn_in=3.0, replicas=600, seed=11)
    chain = build_exact_chain(g, r)
    # reference: expected infected fraction conditioned on surviving the
    # full horizon, time-averaged over the window on a fine grid
    size = 8
    times = np.linspace(3.0, 10.0, 57)
    surv_gen = chain.generator[1:, 1:].toarray()
    values = []
    for t in times:
        p_t = transient_distribution(chain, all_infected_p0(3), t)
        surv = scipy.linalg.expm(surv_gen * (10.0 - t)) @ np.ones(size - 1)
        weights = p_t[1:] * surv
        states = np.arange(1, size)
        bits = np.array([[(s >> i) & 1 for i in range(3)] for s in states], dtype=float)
        values.append((weights @ bits) / weights.sum())
    reference = np.trapezoid(np.array(values), times, axis=0) / 7.0
    margin = 3.0 * np.max(est.stderr) + 0.01
    assert np.abs(est.prevalence_mean - reference).max() < margin
    assert 0.0 < est.survival_fraction <= 1.0
    assert abs(est.y_mean - est.prevalence_mean.mean()) < 1e-15


def test_simulate_requires_survivors():
    g = path_graph(2)
    r = RateConfig.for_graph(g, 0.2, 1.0)
    with pytest.raises(NumericalError, match="no surviving replicas; raise tau or shorten horizon"):
        simulate(g, r, horizon=60.0, burn_in=10.0, replicas=20, seed=1)


def test_simulate_huge_horizon_reports_extinction():
    # Lambda * horizon overflows to inf here; the draw chunk stays bounded
    # and the fast extinction is reported, not an OverflowError
    g = path_graph(2)
    r = RateConfig.for_graph(g, 0.2, 1.0)
    with pytest.raises(NumericalError) as info:
        simulate(g, r, horizon=1e308, burn_in=0.0, replicas=20, seed=1)
    assert info.value.code == "no-surviving-replicas"


def test_simulate_single_survivor_has_infinite_stderr():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 3.0, 1.0)
    est = simulate(g, r, horizon=4.0, burn_in=1.0, replicas=1, seed=0)
    assert est.survival_fraction == 1.0
    assert np.all(np.isinf(est.stderr))


def test_simulate_argument_validation():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    with pytest.raises(InputError, match="burn_in"):
        simulate(g, r, horizon=1.0, burn_in=2.0, replicas=4, seed=0)
    with pytest.raises(InputError, match="replicas"):
        simulate(g, r, horizon=4.0, burn_in=1.0, replicas=0, seed=0)
    with pytest.raises(InputError, match="seed"):
        simulate(g, r, horizon=4.0, burn_in=1.0, replicas=4, seed=-1)
    with pytest.raises(InputError, match="seed must be below 2\\*\\*128"):
        simulate(g, r, horizon=4.0, burn_in=1.0, replicas=4, seed=2**128)


def test_simulate_rejects_non_integer_replicas():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    with pytest.raises(InputError, match="replicas must be an integer") as info:
        simulate(g, r, horizon=4.0, burn_in=1.0, replicas=2.0, seed=0)
    assert info.value.code == "invalid-argument"
    est = simulate(g, r, horizon=4.0, burn_in=1.0, replicas=np.int64(4), seed=0)
    assert est.replicas == 4


def test_simulate_rejects_non_integer_seed():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    with pytest.raises(InputError, match="seed must be an integer") as info:
        simulate(g, r, horizon=4.0, burn_in=1.0, replicas=4, seed=1.5)
    assert info.value.code == "invalid-argument"
    a = simulate(g, r, horizon=4.0, burn_in=1.0, replicas=4, seed=np.uint32(3))
    b = simulate(g, r, horizon=4.0, burn_in=1.0, replicas=4, seed=3)
    assert np.array_equal(a.prevalence_mean, b.prevalence_mean)


# Serial reference for the thinned simulator: one replica at a time, one
# candidate at a time.  Candidate k < n cures node k and candidate n + e is
# the e-th edge (i, j) of the adjacency in row-major order, j infecting i;
# each replica's Philox stream gives chunks of exponential waits and then
# uniform picks.  Acceptance is read from the state, and occupancy is summed
# per infected stretch.  It counts its own events and candidates.


def _serial_replica(g, rates, horizon, burn_in, key):
    """Returns (occupancy over [burn_in, horizon], survived, events, candidates)."""
    n = g.n
    edges = np.argwhere(g.adjacency == 1)
    cumulative = np.cumsum(np.concatenate([rates.delta, rates.beta[edges[:, 1]]]))
    total = cumulative[-1]
    chunk = 1024 if total * horizon >= 1024 else math.ceil(total * horizon) + 1
    rng = np.random.Generator(np.random.Philox(key=key))
    infected = np.ones(n, dtype=bool)
    since = np.zeros(n)
    occupancy = np.zeros(n)
    t = 0.0
    events = candidates = 0
    while True:
        waits = rng.standard_exponential(chunk)
        picks = np.searchsorted(cumulative, rng.random(chunk) * total, side="right")
        times = t + np.cumsum(waits) / total
        t = times[-1]
        for time, pick in zip(times, picks):
            if time >= horizon:
                occupancy[infected] += horizon - np.maximum(since[infected], burn_in)
                return occupancy, True, events, candidates
            candidates += 1
            if pick < n:
                if not infected[pick]:
                    continue
                start = max(since[pick], burn_in)
                if time > start:
                    occupancy[pick] += time - start
                infected[pick] = False
            else:
                i, j = edges[pick - n]
                if infected[i] or not infected[j]:
                    continue
                infected[i] = True
                since[i] = time
            events += 1
            if not infected.any():
                return occupancy, False, events, candidates


def _serial_simulate(g, rates, horizon, burn_in, replicas, seed):
    runs = [_serial_replica(g, rates, horizon, burn_in, seed ^ r) for r in range(replicas)]
    survivors = np.array([occ / (horizon - burn_in) for occ, alive, _, _ in runs if alive])
    prevalence = survivors.mean(axis=0)
    stderr = survivors.std(axis=0, ddof=1) / math.sqrt(survivors.shape[0])
    return prevalence, stderr, survivors.shape[0] / replicas, [run[2] for run in runs], [run[3] for run in runs]


def _gnm_12_26():
    # a random spanning tree plus random extra edges: connected, 12 nodes, 26 edges
    rng = np.random.default_rng(12)
    edges = {(int(rng.integers(0, i)), i) for i in range(1, 12)}
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12) if (i, j) not in edges]
    edges |= {pairs[k] for k in rng.choice(len(pairs), 26 - len(edges), replace=False)}
    g = Graph.from_edges(sorted(edges))
    assert int(g.adjacency.sum()) == 2 * 26
    return g, random_rates_at(g, rng, 2.0), {"horizon": 3.0, "burn_in": 0.5, "replicas": 300, "seed": 9}


def _residue_path():
    g = path_graph(4)
    r = RateConfig.for_graph(g, 1.3 * np.array([1.5, 5 / 6, 7 / 6, 0.5]), [0.5, 5 / 6, 7 / 6, 1.5])
    return g, r, {"horizon": 3.0, "burn_in": 0.5, "replicas": 64, "seed": 0}


def _mostly_absorbed():
    rng = np.random.default_rng(3)
    g = random_connected_graph(10, rng, extra=0.3)
    r = random_rates_at(g, np.random.default_rng(1), 0.6)
    return g, r, {"horizon": 6.0, "burn_in": 0.5, "replicas": 100, "seed": 2}


def _long_run_n60():
    rng = np.random.default_rng(8)
    g = random_connected_graph(60, rng, extra=0.05)
    return g, random_rates_at(g, rng, 3.0), {"horizon": 20.0, "burn_in": 2.0, "replicas": 3, "seed": 5}


def _wide_seed():
    # keys seed ^ r above 2**64 fill both 64-bit words of the Philox key
    g, r, kw = _long_run_n60()
    return g, r, {**kw, "seed": 2**100 + 3}


# The first id names the many-replica case, kept from when replicas ran in
# blocks of 256; it now covers extinctions and survivors in one call.
@pytest.mark.parametrize(
    "case, covers",
    [
        (_gnm_12_26, lambda kw, surv, candidates: kw["replicas"] >= 256 and 0.0 < surv < 1.0),
        (_residue_path, lambda kw, surv, candidates: surv < 1.0),
        (_mostly_absorbed, lambda kw, surv, candidates: surv < 0.5),
        (_long_run_n60, lambda kw, surv, candidates: min(candidates) > markov._CHUNK),
        (_wide_seed, lambda kw, surv, candidates: kw["seed"] >= 2**64 and min(candidates) > markov._CHUNK),
    ],
    ids=["block-boundary", "pressure-residue", "mostly-absorbed", "draw-refill", "wide-seed"],
)
def test_simulate_bit_identical_to_serial_reference(case, covers):
    g, r, kw = case()
    prevalence, stderr, survival, events, candidates = _serial_simulate(g, r, **kw)
    assert covers(kw, survival, candidates)  # the case exercises what its id names
    with within_seconds(10):
        est = simulate(g, r, **kw)
    assert np.array_equal(est.prevalence_mean, prevalence)
    assert np.array_equal(est.stderr, stderr)
    assert est.survival_fraction == survival
    assert est.events == sum(events)
    assert est.candidates == sum(candidates)


def test_extinct_regime_consistency_between_oracle_and_solver():
    g = star_graph(4)
    r = RateConfig.for_graph(g, 0.25, 1.0)
    assert solve(g, r).regime == "extinct"
    chain = build_exact_chain(g, r)
    p = transient_distribution(chain, all_infected_p0(4), 120.0)
    assert p[0] > 1.0 - 1e-6
