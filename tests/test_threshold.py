"""Critical threshold: classification, scaling, bounds, complete-graph solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsis import (
    Graph,
    InputError,
    NumericalError,
    RateConfig,
    classify,
    complete_graph_critical_sum,
    complete_graph_lambda_max,
    critical_perturbation,
    critical_scaling,
    dominant_eigenpair,
    effective_adjacency,
    solve,
    spectral,
)

from conftest import (
    complete_graph,
    eigvalsh_lambda_max,
    homogeneous_rates,
    path_graph,
    random_connected_graph,
    star_graph,
)
from test_steady_state import gnm_graph, preferential_attachment

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def test_classify_regimes_triangle():
    g = complete_graph(3)
    low = classify(g, RateConfig.from_tau(g, 0.4))
    mid = classify(g, RateConfig.from_tau(g, 0.5))
    high = classify(g, RateConfig.from_tau(g, 0.6))
    assert low.regime == "not_infected" and abs(low.lambda_max_R - 0.8) < 1e-10
    assert mid.regime == "critical" and abs(mid.lambda_max_R - 1.0) < 1e-10
    assert high.regime == "infected" and abs(high.lambda_max_R - 1.2) < 1e-10
    assert mid.tau_min == mid.tau_max == 0.5


def test_classify_dead_band_edges():
    g = complete_graph(3)
    assert classify(g, RateConfig.from_tau(g, 0.5 * (1.0 + 3e-9))).regime == "infected"
    assert classify(g, RateConfig.from_tau(g, 0.5 * (1.0 - 3e-9))).regime == "not_infected"
    assert classify(g, RateConfig.from_tau(g, 0.5 * (1.0 + 3e-10))).regime == "critical"


def test_classify_regime_agrees_with_solver():
    g = star_graph(5)
    r = homogeneous_rates(g, 0.8)
    assert classify(g, r).regime == "infected"
    assert solve(g, r).regime == "endemic"
    r = homogeneous_rates(g, 0.3)
    assert classify(g, r).regime == "not_infected"
    assert solve(g, r).regime == "extinct"


def test_critical_scaling_homogeneous_closed_forms():
    for g, lam in (
        (complete_graph(3), 2.0),
        (star_graph(4), np.sqrt(3.0)),
        (path_graph(4), PHI),
    ):
        s = critical_scaling(g, np.ones(g.n))
        assert abs(s - 1.0 / lam) < 1e-8


def test_critical_scaling_random_graph_against_lapack():
    rng = np.random.default_rng(20)
    g = random_connected_graph(20, rng)
    s = critical_scaling(g, np.ones(g.n))
    assert abs(s - 1.0 / eigvalsh_lambda_max(g.adjacency)) < 1e-8


def _count_eigensolves(monkeypatch) -> dict:
    """Count calls of numpy.linalg.eigvalsh and eigh from here on."""
    calls = {"eigvalsh": 0, "eigh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_critical_scaling_uses_one_eigensolve_plus_check(monkeypatch):
    g = random_connected_graph(30, np.random.default_rng(8))
    calls = _count_eigensolves(monkeypatch)
    critical_scaling(g, np.random.default_rng(9).uniform(0.2, 3.0, g.n))
    assert calls == {"eigvalsh": 1, "eigh": 0}


def test_classify_raises_when_the_eigenvalue_fails_its_certificate(monkeypatch):
    # an eigenvalue 1e-8 too large lies outside the 1e-10 inertia bracket
    g = random_connected_graph(12, np.random.default_rng(3))
    r = RateConfig.from_tau(g, np.random.default_rng(4).uniform(0.2, 1.0, g.n))
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: original(m) * (1.0 + 1e-8))
    with pytest.raises(NumericalError) as info:
        classify(g, r)
    assert info.value.code == "no-convergence"


def test_classify_and_critical_scaling_are_scale_free():
    # lambda_max's bracket is relative in width, so tau = 1e-12 on the path
    # (lambda_max = phi tau) is bracketed as closely, and scaled onto the
    # surface as exactly, as tau = 1 is
    g = path_graph(4)
    report = classify(g, RateConfig.from_tau(g, 1e-12))
    assert report.regime == "not_infected"
    assert abs(report.lambda_max_R - 1e-12 * PHI) <= 1e-12 * 1e-12 * PHI
    s_unit = critical_scaling(g, np.ones(g.n))
    assert abs(critical_scaling(g, np.full(g.n, 1e-12)) * 1e-12 - s_unit) <= 1e-12 * s_unit


def _bridged(block):
    """Two copies of block joined through one extra node, the last, linked
    to node 0 of each copy."""
    n = block.n
    edges = block.edges()
    return Graph.from_edges(edges + [(u + n, v + n) for u, v in edges] + [(0, 2 * n), (n, 2 * n)])


@pytest.mark.parametrize("block", ["k4", "preferential"])
def test_classify_answers_a_bridge_whose_top_gap_is_below_1e_10(block):
    # tau = 1e-30 on the bridge node leaves the two copies' equal lambda_max
    # split by about 1e-30: R is irreducible, as every connected graph's is,
    # so classify and critical_scaling answer on either side of the
    # Collatz-Wielandt crossover, as solve does
    g = _bridged(complete_graph(4) if block == "k4" else preferential_attachment(80, 3, np.random.default_rng(31)))
    assert (g.n < spectral._BRACKET_MIN_N) == (block == "k4")
    for t in (0.05, 0.25, 0.4):
        tau = np.full(g.n, t)
        tau[-1] = 1e-30
        rates = RateConfig.from_tau(g, tau)
        top = np.linalg.eigvalsh(effective_adjacency(g, rates.tau))[-2:]
        assert top[1] - top[0] <= 1e-10 * top[1]
        report = classify(g, rates)
        assert report.regime == {"endemic": "infected", "extinct": "not_infected"}[solve(g, rates).regime]
        assert abs(report.lambda_max_R - top[1]) <= 1e-10 * top[1]
        assert abs(critical_scaling(g, rates.tau) * report.lambda_max_R - 1.0) <= 1e-12


def _large_cases():
    """Above spectral._BRACKET_MIN_N: a preferential-attachment graph and
    G(200, 600), each with heterogeneous tau and a scaling direction."""
    rng = np.random.default_rng(29)
    for g in (preferential_attachment(200, 3, rng), gnm_graph(200, 600, rng)):
        yield g, RateConfig.from_tau(g, rng.uniform(0.05, 0.2, g.n)), rng.uniform(0.5, 1.5, g.n)


def test_classify_and_critical_scaling_skip_eigensolvers_above_the_crossover(monkeypatch):
    # the ledger's lambda_max(A) is an eigvalsh kept per graph, taken here first
    cases = list(_large_cases())
    assert min(g.n for g, _, _ in cases) >= spectral._BRACKET_MIN_N
    assert all(g.spectral_radius > 0.0 for g, _, _ in cases)
    expected = [
        (eigvalsh_lambda_max(effective_adjacency(g, r.tau)), eigvalsh_lambda_max(effective_adjacency(g, d)))
        for g, r, d in cases
    ]
    calls = _count_eigensolves(monkeypatch)
    for (g, r, direction), (lam, lam_direction) in zip(cases, expected):
        report = classify(g, r)
        assert abs(report.lambda_max_R - lam) <= 1e-12 * lam
        assert report.regime == ("infected" if lam > 1.0 else "not_infected")
        assert abs(critical_scaling(g, direction) * lam_direction - 1.0) <= 1e-12
    assert calls == {"eigvalsh": 0, "eigh": 0}


def test_bracket_route_failure_falls_back_to_the_certified_eigvalsh_route(monkeypatch):
    # a failed Noda solve sends lambda_max to eigvalsh and its two-Cholesky
    # certificate; with the eigenvalue made 1e-8 too large that certificate raises
    g, r, direction = next(_large_cases())
    lam = float(np.linalg.eigvalsh(effective_adjacency(g, r.tau))[-1])
    assert g.spectral_radius > 0.0  # the ledger's eigvalsh, kept per graph
    each = spectral._each
    solves = []

    def failing_solve(gufunc, *stacks):
        out, ok = each(gufunc, *stacks)
        if gufunc == "solve":
            solves.append(len(stacks[0]))
            out, ok = np.full_like(out, np.nan), np.zeros_like(ok)
        return out, ok

    monkeypatch.setattr(spectral, "_each", failing_solve)
    calls = _count_eigensolves(monkeypatch)
    report = classify(g, r)
    assert solves == [g.n] and calls == {"eigvalsh": 1, "eigh": 0}
    assert report.lambda_max_R == lam and report.regime == ("infected" if lam > 1.0 else "not_infected")
    assert critical_scaling(g, direction) > 0.0 and calls["eigvalsh"] == 2
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: original(m) * (1.0 + 1e-8))
    with pytest.raises(NumericalError) as info:
        classify(g, r)
    assert info.value.code == "no-convergence"


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=15), st.integers(min_value=0, max_value=10**6))
def test_critical_scaling_heterogeneous_direction(n, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    tau0 = rng.uniform(0.2, 3.0, n)
    s = critical_scaling(g, tau0)
    root = np.sqrt(tau0)
    lam0 = eigvalsh_lambda_max(root[:, None] * g.adjacency * root[None, :])
    assert abs(s - 1.0 / lam0) < 1e-8
    # regime flips across the scaled surface
    g_lam = lambda c: dominant_eigenpair(effective_adjacency(g, c * tau0))[0]
    assert g_lam(s * (1.0 - 1e-6)) < 1.0 < g_lam(s * (1.0 + 1e-6))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
def test_inverse_degree_rates_sit_on_surface(n, seed):
    g = random_connected_graph(n, np.random.default_rng(seed))
    r = RateConfig.from_tau(g, 1.0 / g.degrees)
    report = classify(g, r)
    assert abs(report.lambda_max_R - 1.0) <= 1e-9
    assert report.regime == "critical"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_bound_ledger_satisfied_on_random_configs(n, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    r = RateConfig.for_graph(g, rng.uniform(0.2, 2.0, n), rng.uniform(0.5, 2.0, n))
    ledger = classify(g, r).bound_ledger
    assert all(entry["satisfied"] for entry in ledger.values())
    for name in ("spectral_lower", "spectral_upper", "harmonic_walk_lower",
                 "degree_walk_lower", "closed_walk_lower"):
        assert name in ledger


def test_bound_ledger_critical_entries_regular_equalities():
    # triangle at inverse-degree loading: walk bounds collapse to equalities
    g = complete_graph(3)
    ledger = classify(g, RateConfig.from_tau(g, 0.5)).bound_ledger
    entry = ledger["critical_degree_walk"]
    assert entry["satisfied"]
    assert entry["lhs"] == 24.0 and abs(entry["rhs"] - 24.0) < 1e-9
    entry = ledger["critical_inverse_tau_mean"]
    assert abs(entry["lhs"] - 2.0) < 1e-12 and abs(entry["rhs"] - 2.0) < 1e-12
    assert ledger["critical_tau_lower"]["satisfied"]
    assert ledger["critical_tau_upper"]["satisfied"]
    assert ledger["critical_closed_walk"]["satisfied"]


def test_bound_ledger_critical_entries_absent_off_surface():
    g = complete_graph(3)
    ledger = classify(g, RateConfig.from_tau(g, 0.8)).bound_ledger
    assert "critical_degree_walk" not in ledger
    assert "critical_tau_lower" not in ledger


def test_on_surface_transformed_vector_not_adjacency_eigenvector():
    # heterogeneous critical point: z = sqrt(tau) * x cannot be an
    # eigenvector of A unless all tau are equal
    g = path_graph(3)
    tau0 = np.array([1.0, 2.0, 1.0])
    s = critical_scaling(g, tau0)
    tau = s * tau0
    lam, x = dominant_eigenpair(effective_adjacency(g, tau))
    assert abs(lam - 1.0) < 1e-9
    z = np.sqrt(tau) * x
    rayleigh = float(z @ g.adjacency @ z) / float(z @ z)
    assert np.linalg.norm(g.adjacency @ z - rayleigh * z) > 1e-6


def test_complete_solver_homogeneous_is_exact():
    for n in (2, 3, 5, 9):
        for t in (0.1, 1.0, 2.5):
            lam = complete_graph_lambda_max(np.full(n, t))
            assert abs(lam - t * (n - 1)) <= 1e-12 * max(1.0, t * (n - 1))


def test_complete_solver_frozen_heterogeneous_value():
    assert abs(complete_graph_lambda_max([1.0, 2.0, 3.0]) - 3.7664354838523195) < 1e-11


def test_complete_solver_two_nodes_geometric_mean():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.uniform(0.1, 5.0, 2)
        assert abs(complete_graph_lambda_max([a, b]) - np.sqrt(a * b)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1e-6, 1e-4, 1e-2, 1.0]),
)
def test_complete_solver_matches_dense_eigensolver(n, seed, scale):
    # the bisection width is relative, so the match holds at every time unit
    tau = scale * np.random.default_rng(seed).uniform(0.1, 4.0, n)
    lam = complete_graph_lambda_max(tau)
    g = complete_graph(n)
    root = np.sqrt(tau)
    dense = eigvalsh_lambda_max(root[:, None] * g.adjacency * root[None, :])
    assert abs(lam - dense) <= 1e-10 * dense
    # first convergent of the continued fraction is a lower bound
    assert (n - 1) / np.sum(1.0 / tau) <= lam * (1.0 + 1e-12)


def test_complete_spectrum_interlacing():
    rng = np.random.default_rng(5)
    tau = np.sort(rng.uniform(0.2, 3.0, 6))
    tau += np.linspace(0.0, 0.1, 6)  # force distinct entries
    g = complete_graph(6)
    root = np.sqrt(tau)
    lam = np.linalg.eigvalsh(root[:, None] * g.adjacency * root[None, :])
    assert np.sum(lam < 0) == 5
    assert lam.min() > -tau.max()
    assert lam.max() <= tau.sum() - tau.min() + 1e-12


def test_critical_sum_homogeneous_point():
    total, on_surface = complete_graph_critical_sum(np.full(4, 1.0 / 3.0))
    assert abs(total - 3.0) < 1e-12
    assert on_surface


def test_critical_sum_detects_off_surface():
    total, on_surface = complete_graph_critical_sum(np.ones(4))
    assert abs(total - 2.0) < 1e-12
    assert not on_surface


def test_critical_sum_constructed_point_has_unit_eigenvalue():
    # tau = (0.7, 0.7, t3) with t3 solving 2/1.7 + 1/(t3 + 1) = 2
    t3 = 0.3 / 1.4
    tau = np.array([0.7, 0.7, t3])
    total, on_surface = complete_graph_critical_sum(tau)
    assert on_surface
    assert abs(complete_graph_lambda_max(tau) - 1.0) < 1e-8


def test_perturbation_zero_maps_to_zero():
    assert critical_perturbation(0.0, 5) == 0.0


def test_perturbation_frozen_example():
    assert abs(critical_perturbation(-0.1, 3) - 0.11538461538461539) < 1e-15


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=10),
    st.floats(min_value=-0.05, max_value=0.05),
)
def test_perturbation_lands_on_surface(n, h2):
    h1 = critical_perturbation(h2, n)
    tau = np.full(n, 1.0 / (n - 1))
    tau[0] += h1
    tau[1] += h2
    if np.any(tau <= 0):
        return
    total, on_surface = complete_graph_critical_sum(tau)
    # the relation is exact, far stronger than the O(h^2) requirement
    assert abs(total - (n - 1)) <= 1e-12 * n
    assert on_surface
    assert abs(h1 + h2) <= 3.0 * h2 * h2 + 1e-15


def test_perturbation_pole_is_an_error():
    with pytest.raises(InputError, match="pole"):
        critical_perturbation(-0.75, 3)


def test_rate_linearity_of_lambda():
    g = star_graph(6)
    r1 = homogeneous_rates(g, 1.0)
    r2 = homogeneous_rates(g, 2.0)
    lam1 = classify(g, r1).lambda_max_R
    lam2 = classify(g, r2).lambda_max_R
    assert abs(lam2 - 2.0 * lam1) < 1e-10


def test_perturbation_size_must_be_an_integer():
    with pytest.raises(InputError) as info:
        critical_perturbation(0.1, 2.5)
    assert info.value.code == "invalid-argument"


@pytest.mark.parametrize("tau", ["x", [1.0, {"a": 1}]])
def test_complete_graph_solver_refuses_non_numeric_tau(tau):
    for solver in (complete_graph_lambda_max, complete_graph_critical_sum):
        with pytest.raises(InputError) as info:
            solver(tau)
        assert info.value.code == "invalid-rates"
