"""Metastable fixed point: solver, identities, bounds, and dichotomy."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import hetsis
from hetsis import (
    CRITICAL_BAND,
    Graph,
    InputError,
    NumericalError,
    RateConfig,
    bounds,
    classify,
    effective_adjacency,
    solve,
    truncated_iterate,
    verify_identities,
)
from hetsis import steady_state, threshold

from conftest import (
    complete_graph,
    homogeneous_rates,
    lattice_graph,
    path_graph,
    random_connected_graph,
    random_rates_at,
    star_graph,
    subprocess_env,
    within_seconds,
)


def preferential_attachment(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Each new node links to m distinct nodes drawn in proportion to degree,
    starting from a complete graph on m + 1 nodes."""
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    ends = [u for e in edges for u in e]
    for v in range(m + 1, n):
        chosen = set()
        while len(chosen) < m:
            chosen.add(ends[int(rng.integers(len(ends)))])
        for u in sorted(chosen):
            edges.append((u, v))
            ends += [u, v]
    return Graph.from_edges(edges)


def gnm_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """m distinct uniform edges on n nodes, redrawn until they connect all n."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        try:
            return Graph.from_edges([pairs[k] for k in rng.choice(len(pairs), size=m, replace=False)], n=n)
        except InputError:  # an isolated node or a disconnected graph
            continue


def newton_reference(adjacency, beta, delta, tol: float = 1e-14) -> np.ndarray:
    """Endemic fixed point by damped Newton on dense numpy solves, from the
    upper bound; shares no code with the package."""
    gamma = adjacency @ beta
    v = gamma / (gamma + delta)
    for _ in range(200):
        f = adjacency @ (beta * v) - delta * v / (1.0 - v)
        if np.abs(f).max() <= tol:
            return v
        jac = adjacency * beta[None, :] - np.diag(delta / (1.0 - v) ** 2)
        step = np.linalg.solve(jac, -f)
        scale = 1.0
        while np.any(v + scale * step <= 0.0) or np.any(v + scale * step >= 1.0):
            scale *= 0.5
        v = v + scale * step
    raise RuntimeError("reference Newton iteration did not converge")


def near_surface_case(offset: float):
    """n = 200 preferential-attachment graph, heterogeneous beta and delta,
    lambda_max(R) = 1 + offset; with its Newton reference state."""
    rng = np.random.default_rng(2013)
    g = preferential_attachment(200, 3, rng)
    r = random_rates_at(g, rng, target=1.0 + offset)
    return g, r, newton_reference(g.adjacency, r.beta, r.delta)


def recorded_newton_iterates(monkeypatch) -> list:
    """Patch steady_state._jacobian, which every Newton step builds its S from,
    so that each iterate a step starts from is appended to the returned list
    (every row, for a stack of iterates)."""
    iterates = []
    jacobian = steady_state._jacobian

    def recording(g, beta, delta, v):
        iterates.extend(np.array(v, ndmin=2))
        return jacobian(g, beta, delta, v)

    monkeypatch.setattr(steady_state, "_jacobian", recording)
    return iterates


def test_triangle_unit_rates():
    g = complete_graph(3)
    ss = solve(g, RateConfig.for_graph(g, 1.0, 1.0))
    assert ss.regime == "endemic"
    assert np.abs(ss.v_inf - 0.5).max() < 1e-9
    assert abs(ss.y_inf - 0.5) < 1e-9


def test_single_edge_closed_form():
    g = path_graph(2)
    ss = solve(g, RateConfig.for_graph(g, 2.0, 1.0))
    # v = 1 - 1/tau for the symmetric pair
    assert np.abs(ss.v_inf - 0.5).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=3, max_value=10),
    st.floats(min_value=0.8, max_value=5.0),
)
def test_complete_graph_closed_form(n, tau):
    assume(abs(tau * (n - 1) - 1.0) > 1e-6)
    g = complete_graph(n)
    ss = solve(g, homogeneous_rates(g, tau), tol=1e-12)
    expect = max(0.0, 1.0 - 1.0 / (tau * (n - 1)))
    assert np.abs(ss.v_inf - expect).max() < 1e-10


def test_star_closed_form():
    # hub equation for a star with L leaves: v_hub = (L tau^2 - 1)/(tau (1 + L tau))
    g = star_graph(4)
    ss = solve(g, homogeneous_rates(g, 1.0), tol=1e-12)
    assert abs(ss.v_inf[0] - 0.5) < 1e-10
    assert np.abs(ss.v_inf[1:] - 1.0 / 3.0).max() < 1e-10


def test_below_threshold_is_exactly_zero():
    g = complete_graph(3)
    ss = solve(g, RateConfig.for_graph(g, 0.3, 1.0))
    assert ss.regime == "extinct" and ss.path == "extinct"
    assert np.all(ss.v_inf == 0.0)
    assert ss.y_inf == 0.0
    assert np.array_equal(ss.w, np.ones(3))
    assert np.array_equal(ss.v_tilde, np.zeros(3))


def test_critical_configuration_is_an_error():
    g = complete_graph(3)
    with pytest.raises(NumericalError, match="at critical threshold, derivative undefined"):
        solve(g, RateConfig.for_graph(g, 0.5, 1.0))


def test_stalled_iteration_raises_at_its_residual_floor(monkeypatch):
    # from iteration 7 the map returns its input exactly, with the residual
    # 1.95e-12 above tol; the map hands that repeating iterate to Newton,
    # whose stall rule (a step no smaller than the one before) raises
    g = star_graph(5)
    r = RateConfig.for_graph(g, 2.0, [1e-3, 1.0, 1.0, 1.0, 1.0])
    iterates = recorded_newton_iterates(monkeypatch)
    with within_seconds(1), pytest.raises(NumericalError, match=r"tolerance 1e-12 .*stalled at residual floor") as err:
        solve(g, r, tol=1e-12)
    assert err.value.code == "no-convergence"
    assert iterates
    assert solve(g, r, tol=1e-11).residual <= 1e-11  # the floor sits between the two tolerances


def test_just_off_critical_converges():
    g = complete_graph(3)
    eps = 1e-5
    ss = solve(g, RateConfig.for_graph(g, 0.5 * (1.0 + eps), 1.0), tol=1e-12)
    assert ss.regime == "endemic"
    assert 0.0 < ss.v_inf.min() < 1e-4


def test_diagnostic_fields():
    g = star_graph(5)
    r = RateConfig.for_graph(g, [2.0, 1.0, 1.5, 1.0, 1.2], 1.0)
    ss = solve(g, r, tol=1e-12)
    assert ss.residual <= 1e-12
    assert ss.iterations > 0
    assert abs(ss.y_inf - ss.v_inf.mean()) < 1e-15
    assert np.allclose(ss.v_tilde, r.beta * ss.v_inf)
    assert np.allclose(ss.w, g.adjacency @ (r.beta * ss.v_inf) + r.delta)
    # anchoring: (1 - v) w = delta up to the nodal residual
    assert np.abs((1.0 - ss.v_inf) * ss.w - r.delta).max() < 1e-11


def test_upper_bound_start_decreases_monotonically():
    rng = np.random.default_rng(3)
    g = random_connected_graph(12, rng)
    r = random_rates_at(g, rng, target=2.0)
    ss = solve(g, r, tol=1e-12)
    previous = truncated_iterate(g, r, 0)
    assert np.all(previous >= ss.v_inf - 1e-12)
    for depth in range(1, 9):
        current = truncated_iterate(g, r, depth)
        assert np.all(current <= previous + 1e-12)
        assert np.all(current >= ss.v_inf - 1e-12)
        previous = current


def test_truncation_at_stop_depth_replays_solver():
    g = star_graph(6)
    r = homogeneous_rates(g, 1.5)
    ss = solve(g, r)
    assert ss.path == "map"
    assert np.array_equal(truncated_iterate(g, r, ss.iterations), ss.v_inf)


def test_componentwise_upper_bound():
    rng = np.random.default_rng(8)
    g = random_connected_graph(15, rng)
    r = random_rates_at(g, rng, target=3.0)
    ss = solve(g, r)
    assert np.all(ss.v_inf <= 1.0 - 1.0 / (1.0 + r.gamma / r.delta) + 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
def test_dichotomy_zero_or_strictly_positive(n, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    r = RateConfig.for_graph(g, rng.uniform(0.05, 1.5, n), rng.uniform(0.5, 2.0, n))
    try:
        ss = solve(g, r)
    except NumericalError:
        assume(False)
    assert np.all(ss.v_inf == 0.0) or ss.v_inf.min() > 1e-12


def test_identities_triangle():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    report = verify_identities(g, r, solve(g, r, tol=1e-13))
    assert all(entry["passed"] for entry in report.values())
    # symmetric case: loading equals degree, so the balance vanishes up
    # to solver accuracy
    assert abs(report["degree_balance"]["value"]) < 1e-11
    assert report["loaded_node_exists"]["value"] == 3


def test_identities_heterogeneous_path():
    g = path_graph(3)
    r = RateConfig.for_graph(g, [1.0, 2.0, 1.0], 1.0)
    report = verify_identities(g, r, solve(g, r, tol=1e-12))
    assert all(entry["passed"] for entry in report.values())
    assert report["loaded_node_exists"]["value"] >= 1


def test_identities_require_endemic():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 0.3, 1.0)
    with pytest.raises(InputError, match="identities require endemic regime"):
        verify_identities(g, r, solve(g, r))


def test_bounds_triangle():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    report = bounds(g, r, solve(g, r, tol=1e-12))
    assert report.informative
    assert abs(report.lower - 0.5) < 1e-15
    assert np.abs(report.upper - 2.0 / 3.0).max() < 1e-15
    assert report.satisfied
    assert report.y_lower <= 0.5 <= report.y_upper


def test_bounds_tight_on_single_edge():
    g = path_graph(2)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    report = bounds(g, r, solve(g, r, tol=1e-12))
    assert abs(report.lower - 0.5) < 1e-15
    assert report.satisfied


def test_bounds_star_homogeneous():
    g = star_graph(4)
    r = homogeneous_rates(g, 2.0)
    ss = solve(g, r, tol=1e-12)
    report = bounds(g, r, ss)
    assert report.informative and abs(report.lower - 0.5) < 1e-15
    assert ss.v_inf.min() >= report.lower - 1e-12
    assert report.satisfied


def test_bounds_vacuous_when_ratio_not_above_one():
    g = path_graph(3)
    r = homogeneous_rates(g, 0.9)
    ss = solve(g, r)
    assert ss.regime == "endemic"
    report = bounds(g, r, ss)
    assert not report.informative
    assert report.satisfied  # upper bound still asserted


def test_uniqueness_probe():
    # the endemic state is unique and globally stable (Lajmanovich & Yorke
    # 1976): the map lands on solve's fixed point from any interior start
    g = complete_graph(5)
    r = homogeneous_rates(g, 1.0)
    reference = solve(g, r).v_inf
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.uniform(0.05, 0.95, g.n)
        for _ in range(10_000):
            pressure = g.adjacency @ (r.beta * v)
            v, previous = pressure / (r.delta + pressure), v
            if np.array_equal(v, previous):
                break
        assert np.abs(v - reference).max() <= 1e-9


@pytest.mark.parametrize(
    "kwargs",
    [{"max_iter": -1}, {"max_iter": 2.5}, {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}],
)
def test_solve_refuses_an_unreachable_tolerance_or_a_non_integer_cap(kwargs):
    # a negative or fractional cap is never met, and no residual meets tol <= 0 or nan
    g = complete_graph(3)
    with pytest.raises(InputError) as info:
        solve(g, homogeneous_rates(g, 2.0), **kwargs)
    assert info.value.code == "invalid-argument"


@pytest.mark.parametrize("depth", [2.5, -1])
def test_truncated_iterate_refuses_a_non_integer_or_negative_depth(depth):
    g = complete_graph(3)
    with pytest.raises(InputError) as info:
        truncated_iterate(g, homogeneous_rates(g, 2.0), depth)
    assert info.value.code == "invalid-argument"



@pytest.mark.parametrize("offset", [1e-2, 1e-3, 1e-4])
def test_solve_matches_newton_reference_near_the_surface(offset):
    # the map contracts at about 1 - offset: stopping it on the residual
    # alone left an error of about residual / offset (6.6e-3 relative at 1e-4)
    g, r, v_ref = near_surface_case(offset)
    ss = solve(g, r)
    assert np.abs(ss.v_inf - v_ref).max() <= 1e-9 * v_ref.max()
    assert abs(ss.y_inf - v_ref.mean()) <= 1e-9 * v_ref.max()
    assert ss.path == "map+newton"


@pytest.mark.parametrize("tol, bound", [(1e-10, 1e-9), (1e-12, 1e-11)])
@pytest.mark.parametrize("offset", [0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0, 2.5])
def test_solve_error_is_bounded_across_the_surface(offset, tol, bound):
    # the map stops on its error bound residual / (1 - rho), not on the residual
    # alone, which left 7.9e-9 relative at offset 0.1 and tol 1e-10; either
    # path may finish (offset 0.1 at tol 1e-12 hands over to Newton)
    g, r, v_ref = near_surface_case(offset)
    ss = solve(g, r, tol=tol)
    assert np.abs(ss.v_inf - v_ref).max() <= bound * v_ref.max()


@pytest.mark.parametrize("offset", [1e-2, 1e-3, 1e-4])
def test_newton_iterates_decrease_onto_the_fixed_point(offset, monkeypatch):
    g, r, v_ref = near_surface_case(offset)
    iterates = recorded_newton_iterates(monkeypatch)
    ss = solve(g, r)
    assert ss.path == "map+newton" and len(iterates) >= 2
    # one S per step, the first at the map iterate that Newton takes over from
    assert np.array_equal(iterates[0], truncated_iterate(g, r, ss.iterations - len(iterates)))
    iterates.append(ss.v_inf)
    for previous, current in zip(iterates, iterates[1:]):
        assert np.all(current <= previous)
        assert np.all(current >= v_ref - 1e-15)


@pytest.mark.parametrize("offset", [1e-2, 1e-4])
def test_corrected_state_is_the_solved_state(offset):
    # Newton steps from a guess below the fixed point overshoot above it once,
    # then decrease onto it, to the state solve reaches
    g, r, v_ref = near_surface_case(offset)
    ss = solve(g, r, tol=1e-12)
    for guess in (0.9 * ss.v_inf, np.minimum(1.5 * ss.v_inf, 0.99)):
        v, residual, steps, stop = steady_state._newton(g, r.beta, r.delta, guess, 1e-12, 10**6)
        assert stop == steady_state._CONVERGED
        assert 0 < steps <= 10 and residual <= 1e-12
        assert np.abs(v - v_ref).max() <= 1e-11 * v_ref.max()
        assert np.allclose(v, ss.v_inf, rtol=1e-10, atol=0)


def test_corrected_state_refuses_a_guess_outside_the_unit_cube():
    g = complete_graph(4)
    r = homogeneous_rates(g, 1.0)
    for guess in (np.full(4, 0.0), np.full(4, 1.0), np.array([0.5, 0.5, np.nan, 0.5])):
        v, residual, steps, stop = steady_state._newton(g, r.beta, r.delta, guess, 1e-12, 10**6)
        assert stop == steady_state._OUTSIDE and steps == 0 and residual == np.inf
        assert np.array_equal(v, guess, equal_nan=True)
        error = steady_state._no_convergence(1e-12, 0, residual, stop)
        assert error.code == "no-convergence" and "outside (0, 1)" in str(error)


def test_newton_finish_raises_at_its_residual_floor():
    g, r, _ = near_surface_case(1e-4)
    with within_seconds(5), pytest.raises(NumericalError, match="stalled at residual floor") as err:
        solve(g, r, tol=1e-30)
    assert err.value.code == "no-convergence"


@pytest.mark.parametrize("beta", [1e16, 1e20])
def test_solve_refuses_a_saturated_iterate_at_once(beta):
    # at beta/delta >= 1e16 every map iterate rounds to 1.0, so each residual
    # is inf and the contraction inf/inf is nan; the map must hand over to
    # Newton, which refuses its start outside (0, 1), instead of running all
    # max_iter steps; a subprocess with a deadline turns a hang into a failure
    code = (
        "import hetsis\n"
        "g = hetsis.Graph.from_edges([(0, 1), (1, 2), (2, 3)])\n"
        "try:\n"
        f"    hetsis.solve(g, hetsis.RateConfig.for_graph(g, {beta!r}, 1.0))\n"
        "except hetsis.NumericalError as exc:\n"
        "    print(exc.code, exc)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, timeout=30)
    assert out.stdout.strip() == "no-convergence Newton iterate outside (0, 1)", out.stderr


def test_solve_maps_on_from_a_start_saturated_at_one_node():
    # gamma_0/delta_0 = 2e16 rounds node 0's upper start to 1.0 (residual inf,
    # contraction nan), but node 1's start is about 1e-12, so one map step
    # leaves 1.0 and the map converges; lambda_max(R) = sqrt(2e4), endemic
    g = path_graph(2)
    rates = RateConfig.for_graph(g, [1.0, 2e16], [1.0, 1e12])
    assert steady_state._upper_start(rates)[0] == 1.0
    with np.errstate(divide="ignore"):
        state = solve(g, rates)
    assert state.path == "map" and state.regime == "endemic"
    assert 0.0 < state.v_inf.min() and state.v_inf.max() < 1.0


def _regime_cases():
    # the last three graphs lie above spectral._BRACKET_MIN_N, where lambda_max
    # comes from the Collatz-Wielandt route where it answers: a bipartite star
    # (always), a bipartite lattice (never: its second eigenvalue lies close to
    # the first, so the power steps contract too slowly) and a random graph
    # (for some rates)
    rng = np.random.default_rng(11)
    graphs = [star_graph(n) for n in (3, 4, 7, 16, 31, 59)]
    graphs += [gnm_graph(n, m, rng) for n, m in ((5, 6), (12, 20), (23, 50), (40, 100), (59, 120))]
    graphs += [star_graph(150), lattice_graph(13, 13), gnm_graph(200, 600, rng)]
    offsets = [sign * 5.0 * 10.0**-k for k in range(1, 11) for sign in (1.0, -1.0)]
    for g in graphs:
        for offset in offsets:
            yield g, random_rates_at(g, rng, target=1.0 + offset)


def test_regime_by_cholesky_agrees_with_eigvalsh(monkeypatch):
    # offsets from +-0.5 down to +-5e-10 cross both edges of the dead band;
    # max_iter=0 stops an endemic solve right after the regime decision
    cases = list(_regime_cases())
    lams = [float(np.linalg.eigvalsh(effective_adjacency(g, r.tau))[-1]) for g, r in cases]
    expected = [0 if abs(lam - 1.0) <= CRITICAL_BAND else 1 if lam > 1.0 else -1 for lam in lams]
    assert set(expected) == {-1, 0, 1}

    def forbidden(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    assert not hasattr(steady_state, "dominant_eigenpair")
    assert not hasattr(threshold, "dominant_eigenpair")
    monkeypatch.setattr(hetsis.spectral, "dominant_eigenpair", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    found = []
    for g, r in cases:
        try:
            found.append(-1 if solve(g, r, max_iter=0).regime == "extinct" else 1)
        except NumericalError as exc:
            found.append({"critical-threshold": 0, "no-convergence": 1}[exc.code])
    assert sum(side != expected_side for side, expected_side in zip(found, expected)) == 0
    # classify certifies lambda_max by either route, the Collatz-Wielandt one
    # from spectral._BRACKET_MIN_N on, and decides the regime by solve's rule,
    # from that bracket where it clears the band edges; it agrees with solve
    # on both routes, the eigvalsh route forced at every order the second time
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    sides = {"infected": 1, "critical": 0, "not_infected": -1}
    assert max(g.n for g, _ in cases) >= hetsis.spectral._BRACKET_MIN_N
    for crossover in (hetsis.spectral._BRACKET_MIN_N, 10**9):
        monkeypatch.setattr(hetsis.spectral, "_BRACKET_MIN_N", crossover)
        classified = [sides[classify(g, r).regime] for g, r in cases]
        assert sum(side != solved for side, solved in zip(classified, found)) == 0


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_solution_does_not_depend_on_the_time_unit(tol):
    # scaling beta and delta by c leaves the fixed point unchanged; the
    # residual is measured in units of max delta, so the stop is unchanged too
    rng = np.random.default_rng(4)
    walk = random_connected_graph(7, rng)
    for g, beta, delta in ((star_graph(6), 2.0, 1.0), (walk, rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 7))):
        results = [solve(g, RateConfig.for_graph(g, beta * c, delta * c), tol=tol) for c in (1e-3, 1.0, 1e4)]
        for ss in results:
            assert ss.path == "map" and ss.residual <= tol
            assert ss.iterations == results[1].iterations
            assert np.abs(ss.v_inf - results[1].v_inf).max() <= 1e-14
