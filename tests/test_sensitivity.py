"""Curing-rate sensitivity: S matrix, derivatives, convexity, inverse ledger.

Closed forms on the triangle with beta = delta = 1 (v = 1/2):
  S = 5I - J, S^{-1} = 0.2I + 0.1J (diag 0.3, off-diag 0.1)
  dv_k/ddelta_i: -0.3 own, -0.1 cross;  tied: -0.5 per node
  d2v_k/ddelta_i^2: 0.256 own, 0.032 cross;  tied: 0 (affine closed form)
  Schur quantities at any node: f = 2/3, own derivative -0.3
"""

import functools
from dataclasses import replace
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsis import (
    InputError,
    NumericalError,
    RateConfig,
    SteadyState,
    classify,
    convexity_verdicts,
    critical_scaling,
    curvature_matrix,
    effective_adjacency,
    first_derivatives,
    format_edge_list,
    full_report,
    inverse_checks,
    optimal_curing_rate,
    schur_derivative,
    second_derivatives,
    sensitivity,
    sensitivity_matrix,
    solve,
    steady_state,
)
from hetsis.cli import main

from conftest import (
    complete_graph,
    cycle_graph,
    fd_first,
    fd_first_tied,
    fd_second,
    fd_second_tied,
    homogeneous_rates,
    lattice_graph,
    path_graph,
    random_connected_graph,
    random_rates_at,
    star_graph,
)


def triangle_state():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    return g, r, solve(g, r, tol=1e-12)


def concave_star_state():
    """Frozen star-4 instance where v_1 is strictly concave in delta_0."""
    g = star_graph(4)
    r = RateConfig.for_graph(g, [0.5, 0.2, 1.0, 1.0], [1.0, 0.2, 1.0, 1.0])
    return g, r, solve(g, r, tol=1e-12)


def test_s_matrix_triangle_closed_form():
    g, r, ss = triangle_state()
    s = sensitivity_matrix(g, r, ss)
    assert np.abs(s - (5.0 * np.eye(3) - np.ones((3, 3)))).max() < 1e-9


def test_s_matrix_symmetric_for_equal_beta():
    g = star_graph(5)
    r = RateConfig.for_graph(g, 1.0, [1.0, 0.8, 1.2, 0.9, 1.1])
    ss = solve(g, r, tol=1e-12)
    s = sensitivity_matrix(g, r, ss)
    assert np.abs(s - s.T).max() < 1e-12


def test_s_matrix_requires_endemic():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 0.3, 1.0)
    with pytest.raises(InputError, match="endemic"):
        sensitivity_matrix(g, r, solve(g, r))


def test_first_derivatives_triangle():
    g, r, ss = triangle_state()
    d1 = first_derivatives(g, r, ss)
    expect = -0.1 * np.ones((3, 3)) - 0.2 * np.eye(3)
    assert np.abs(d1 - expect).max() < 1e-9
    assert d1.max() <= 1e-10


def test_first_derivatives_tied_triangle():
    g, r, ss = triangle_state()
    d1 = first_derivatives(g, r, ss, mode="tied")
    assert np.abs(d1 + 0.5).max() < 1e-9


def test_tied_mode_requires_equal_delta():
    g, r, ss = concave_star_state()
    with pytest.raises(InputError, match="tied"):
        first_derivatives(g, r, ss, mode="tied")
    with pytest.raises(InputError, match="tied"):
        second_derivatives(g, r, ss, mode="tied")


def test_unknown_mode_rejected():
    g, r, ss = triangle_state()
    with pytest.raises(InputError):
        first_derivatives(g, r, ss, mode="both")


def test_first_derivatives_match_finite_differences():
    rng = np.random.default_rng(23)
    g = random_connected_graph(9, rng)
    r = random_rates_at(g, rng, target=2.2)
    ss = solve(g, r, tol=1e-12)
    d1 = first_derivatives(g, r, ss)
    for i in range(g.n):
        fd = fd_first(g, r, i)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert (np.abs(d1[:, i] - fd) / denom).max() < 1e-4


def test_first_derivatives_tied_match_finite_differences():
    g = star_graph(6)
    r = RateConfig.for_graph(g, [2.0, 1.0, 1.2, 0.8, 1.5, 1.0], 1.0)
    ss = solve(g, r, tol=1e-12)
    d1 = first_derivatives(g, r, ss, mode="tied")
    fd = fd_first_tied(g, r)
    assert (np.abs(d1 - fd) / np.abs(fd)).max() < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_tied_first_derivative_is_the_sum_over_own_rates(seed):
    # the all-ones direction is the sum of the e_i, so the tied derivative is
    # the row sum of the independent matrix
    rng = np.random.default_rng(seed)
    g = random_connected_graph(int(rng.integers(4, 10)), rng, 0.3)
    r = RateConfig.for_graph(g, rng.uniform(1.5, 3.0, g.n) / g.spectral_radius, rng.uniform(0.5, 2.0))
    ss = solve(g, r, tol=1e-12)
    rows = first_derivatives(g, r, ss).sum(axis=1)
    tied = first_derivatives(g, r, ss, mode="tied")
    assert np.abs(tied - rows).max() <= 1e-12 * np.abs(rows).max()


def test_second_derivatives_triangle():
    g, r, ss = triangle_state()
    d2 = second_derivatives(g, r, ss)
    expect = 0.032 * np.ones((3, 3)) + (0.256 - 0.032) * np.eye(3)
    assert np.abs(d2 - expect).max() < 1e-8


def test_second_derivatives_tied_triangle_is_affine_case():
    g, r, ss = triangle_state()
    d2 = second_derivatives(g, r, ss, mode="tied")
    assert np.abs(d2).max() < 1e-9


def test_second_derivatives_match_finite_differences():
    rng = np.random.default_rng(29)
    g = random_connected_graph(8, rng)
    r = random_rates_at(g, rng, target=2.5)
    ss = solve(g, r, tol=1e-12)
    d2 = second_derivatives(g, r, ss)
    for i in range(g.n):
        fd = fd_second(g, r, i)
        denom = np.maximum(np.abs(fd), 1e-6)
        assert (np.abs(d2[:, i] - fd) / denom).max() < 1e-3


def test_second_derivatives_tied_match_finite_differences():
    g = star_graph(6)
    r = RateConfig.for_graph(g, [2.0, 1.0, 1.2, 0.8, 1.5, 1.0], 1.0)
    ss = solve(g, r, tol=1e-12)
    d2 = second_derivatives(g, r, ss, mode="tied")
    fd = fd_second_tied(g, r)
    denom = np.maximum(np.abs(fd), 1e-6)
    assert (np.abs(d2 - fd) / denom).max() < 1e-3


def test_tied_second_derivatives_zero_on_regular_graphs():
    # d-regular graphs have the affine closed form v = 1 - delta/(beta d),
    # so the common-rate direction sits exactly on the convexity boundary
    for g in (complete_graph(4), complete_graph(5), cycle_graph(6)):
        d = float(g.degrees[0])
        for scale in (0.5, 1.0, 1.6):
            r = RateConfig.for_graph(g, 2.0, scale)
            ss = solve(g, r, tol=1e-13)
            if ss.regime != "endemic":
                continue
            d1 = first_derivatives(g, r, ss, mode="tied")
            assert np.abs(d1 + 1.0 / (2.0 * d)).max() < 1e-9
            d2 = second_derivatives(g, r, ss, mode="tied")
            assert np.abs(d2).max() < 1e-9


def test_tied_star_hub_concavity_closed_form():
    """The common-rate direction is NOT convex componentwise.

    On a star with L leaves and common rates the hub solves to
    v_hub = (L beta^2 - delta^2) / (beta (L beta + delta)), which for
    beta = 2, L = 4 simplifies to (8 - delta)/2 - 24/(delta + 8): its
    second derivative -48/(delta + 8)^3 is strictly negative at every
    endemic point.  See README, "Known deviations".
    """
    g = star_graph(5)
    for delta in (0.5, 1.0, 2.0):
        r = RateConfig.for_graph(g, 2.0, delta)
        ss = solve(g, r, tol=1e-13)
        assert abs(ss.v_inf[0] - ((8.0 - delta) / 2.0 - 24.0 / (delta + 8.0))) < 1e-11
        d2 = second_derivatives(g, r, ss, mode="tied")
        expected_hub = -48.0 / (delta + 8.0) ** 3
        assert abs(d2[0] - expected_hub) / abs(expected_hub) < 1e-6
        assert d2[1:].min() > 0.0  # leaves stay convex


def test_concave_star_instance():
    g, r, ss = concave_star_state()
    d2 = second_derivatives(g, r, ss)
    assert d2[1, 0] < -1e-8
    assert abs(d2[1, 0] + 0.40767242) < 1e-6
    fd = fd_second(g, r, 0)
    assert abs(d2[1, 0] - fd[1]) / abs(fd[1]) < 1e-3


def test_curvature_matrix_identity_and_triangle_values():
    g, r, ss = triangle_state()
    m, dev = curvature_matrix(g, r, ss)
    assert dev < 1e-7
    expect = 0.008 * np.ones((3, 3)) + (0.064 - 0.008) * np.eye(3)
    assert np.abs(m - expect).max() < 1e-9


def test_curvature_matrix_mixed_signs_at_concave_instance():
    # signs are diagnostics: the concave pair must show up negative while
    # convex pairs stay positive
    g, r, ss = concave_star_state()
    m, dev = curvature_matrix(g, r, ss)
    assert dev < 1e-7
    assert m[1, 0] < 0 < m.max()


def test_schur_derivative_triangle():
    g, r, ss = triangle_state()
    f, derivative = schur_derivative(g, r, ss, 0)
    assert abs(f - 2.0 / 3.0) < 1e-9
    assert abs(derivative + 0.3) < 1e-9


def test_schur_derivative_single_edge():
    g = path_graph(2)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    ss = solve(g, r, tol=1e-12)
    f, derivative = schur_derivative(g, r, ss, 0)
    assert abs(f - 0.5) < 1e-9
    assert abs(derivative + 1.0 / 3.0) < 1e-9


def test_schur_derivative_agrees_with_linear_solve():
    # f against the paper's form a_col . (diag(q) - A)^{-1} a_col on the
    # graph without node i, q = 1/(tau (1 - v)^2), built here from scratch
    rng = np.random.default_rng(31)
    cases = [(10, 2.0)] + [(n, target) for n in (3, 5, 11, 18, 30) for target in (1.05, 2.0, 5.0)]
    for n, target in cases:
        g = random_connected_graph(n, rng)
        r = random_rates_at(g, rng, target)
        ss = solve(g, r, tol=1e-12)
        d1 = first_derivatives(g, r, ss)
        q = 1.0 / (r.tau * (1.0 - ss.v_inf) ** 2)
        for i in range(g.n):
            f, derivative = schur_derivative(g, r, ss, i)
            rest = np.arange(g.n) != i
            a_col = g.adjacency[rest, i]
            expected = a_col @ np.linalg.solve(np.diag(q[rest]) - g.adjacency[np.ix_(rest, rest)], a_col)
            assert abs(f - expected) <= 1e-12 * expected
            assert f > 0.0
            assert r.tau[i] * (1.0 - ss.v_inf[i]) ** 2 * f <= 1.0 + 1e-9
            assert abs(derivative - d1[i, i]) <= 1e-8 * max(1.0, abs(d1[i, i]))


def test_optimal_curing_rate_triangle_constructed_optimum():
    # price chosen equal to |dv_0/ddelta_0| at delta_0 = 1, so the
    # stationarity condition holds exactly there
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    assert abs(optimal_curing_rate(g, r, 0, price=0.3) - 1.0) < 1e-6


def test_optimal_curing_rate_stationarity_and_floor():
    g = star_graph(5)
    r = homogeneous_rates(g, 2.0)
    price = 0.05
    best = optimal_curing_rate(g, r, 0, price=price)
    delta = r.delta.copy()
    delta[0] = best
    r_best = RateConfig.for_graph(g, r.beta, delta)
    ss = solve(g, r_best, tol=1e-12)
    _, derivative = schur_derivative(g, r_best, ss, 0)
    assert abs(price + derivative) < 1e-6
    assert best > (1.0 - ss.v_inf[0]) * ss.v_inf[0] / price

    def objective(d0: float) -> float:
        d = r.delta.copy()
        d[0] = d0
        v = solve(g, RateConfig.for_graph(g, r.beta, d), tol=1e-12).v_inf[0]
        return price * d0 + v

    j_star = objective(best)
    assert j_star <= objective(best * 1.01) + 1e-12
    assert j_star <= objective(best * 0.99) + 1e-12


def test_optimal_curing_rate_no_interior_optimum_for_high_price():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    with pytest.raises(NumericalError, match="no interior optimum"):
        optimal_curing_rate(g, r, 0, price=1000.0)


def test_optimal_curing_rate_argument_validation():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    with pytest.raises(InputError):
        optimal_curing_rate(g, r, 7, price=0.3)
    with pytest.raises(InputError):
        optimal_curing_rate(g, r, 0, price=-1.0)


def own_rate_derivative(g, rates, i, delta_i, solver_tol=1e-12):
    """dv_i/d delta_i with node i's curing rate set to delta_i; None if that
    configuration is not endemic or its solve fails.  The eager scan visits
    grid points the walk never reaches (delta_i down to 1e-3 of its value),
    where a 1e-12 solve can stall at its residual floor, so any failure
    counts as a skipped point here."""
    delta = rates.delta.copy()
    delta[i] = delta_i
    trial = RateConfig.for_graph(g, rates.beta, delta)
    try:
        ss = solve(g, trial, tol=solver_tol)
    except NumericalError:
        return None
    if ss.regime != "endemic":
        return None
    return schur_derivative(g, trial, ss, i)[1]


def eager_optimal_curing_rate(g, rates, i, price, tol=1e-8, solver_tol=1e-12):
    """Reference: solve all 49 grid points, bracket the first sign change of
    the residual from the low end, bisect it and check the structural floor."""

    def residual(delta_i):
        derivative = own_rate_derivative(g, rates, i, delta_i, solver_tol)
        return None if derivative is None else price + derivative

    grid = float(rates.delta[i]) * np.geomspace(1e-3, 1e3, 49)
    values = [(x, residual(float(x))) for x in grid]
    bracket = None
    previous = None
    for x, r in values:
        if r is None:
            previous = None
            continue
        if previous is not None and previous[1] * r <= 0.0:
            bracket = (previous[0], x)
            break
        previous = (x, r)
    if bracket is None:
        raise NumericalError("no interior optimum", code="no-interior-optimum")
    lo, hi = bracket
    r_lo = previous[1]
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        r_mid = residual(mid)
        if r_mid is None:
            raise NumericalError("no interior optimum", code="no-interior-optimum")
        if (r_lo <= 0.0) == (r_mid <= 0.0):
            lo, r_lo = mid, r_mid
        else:
            hi = mid
    best = 0.5 * (lo + hi)
    delta = rates.delta.copy()
    delta[i] = best
    ss = solve(g, RateConfig.for_graph(g, rates.beta, delta), tol=solver_tol)
    floor = (1.0 - ss.v_inf[i]) * ss.v_inf[i] / price
    if best <= floor * (1.0 - 1e-9):
        raise NumericalError("optimum below its structural floor", code="sign-violation")
    return best


def outcome(fn, *args):
    try:
        return fn(*args)
    except NumericalError as exc:
        return exc.code


def random_case():
    """Random 7-node graph, heterogeneous rates; the hub priced at half its
    own-rate slope, which puts the optimum above its curing rate."""
    rng = np.random.default_rng(4)
    g = random_connected_graph(7, rng)
    r = random_rates_at(g, rng, 2.0)
    hub = int(np.argmax(g.degrees))
    d1 = first_derivatives(g, r, solve(g, r, tol=1e-12))
    return g, r, hub, 0.5 * abs(d1[hub, hub])


def optimum_cases():
    star = star_graph(5)
    star_rates = homogeneous_rates(star, 2.0)
    k3 = complete_graph(3)
    path = path_graph(5)
    path_rates = RateConfig.for_graph(path, 0.62, [1.0, 1.0, 3.0, 1.0, 1.0])
    return {
        "star-hub": (star, star_rates, 0, 0.05),
        "star-leaf": (star, star_rates, 1, 0.05),
        "k3-below": (k3, RateConfig.for_graph(k3, 1.0, [2.0, 1.0, 1.0]), 0, 0.3),
        "k3-at-delta": (k3, RateConfig.for_graph(k3, 1.0, 1.0), 0, 0.3),  # residual 2.5e-13 at delta_i
        "random-hub": random_case(),
        "k3-price-high": (k3, RateConfig.for_graph(k3, 1.0, 1.0), 0, 1000.0),
        "star-leaves-endemic-run": (star, star_rates, 0, 1e-4),
        "path-extinct-at-delta": (path, path_rates, 2, 0.3),
        "path-optimum-below-extinct-delta": (path, path_rates, 2, 0.5),
        "random-walks-to-the-low-end": low_end_case(),
    }


@functools.cache
def low_end_case():
    """The last of random_optimum_configs(count=115, seed=2024): n = 8,
    lambda_max(R) = 3.56, node 1 of degree 5 priced at 2.84 |d1_ii|.  r >= 0
    at every endemic grid point, so the walk goes down to the grid's low
    end, where v_1 is near 1 and a cold 1e-12 solve stalls at its residual
    floor; continued from the point above, each point is corrected."""
    return list(random_optimum_configs(count=115, seed=2024))[-1]


@pytest.mark.parametrize(
    "name, side",
    [
        ("star-hub", "above"),
        ("star-leaf", "above"),
        ("k3-below", "below"),
        ("k3-at-delta", "below"),
        ("random-hub", "above"),
        ("k3-price-high", "no-interior-optimum"),
        ("star-leaves-endemic-run", "no-interior-optimum"),
        ("path-extinct-at-delta", "no-interior-optimum"),
        ("path-optimum-below-extinct-delta", "below"),
        ("random-walks-to-the-low-end", "no-interior-optimum"),
    ],
)
def test_optimal_curing_rate_matches_eager_scan(name, side):
    g, r, i, price = optimum_cases()[name]
    expected = outcome(eager_optimal_curing_rate, g, r, i, price)
    assert outcome(optimal_curing_rate, g, r, i, price) == expected
    if side == "no-interior-optimum":
        assert expected == side
    else:  # the case brackets on the side of delta_i its name says
        assert (expected > r.delta[i]) == (side == "above")


def scaled_rates(g, rates, factor):
    return RateConfig.for_graph(g, rates.beta * factor, rates.delta * factor)


@pytest.mark.parametrize("name", ["star-hub", "k3-below", "random-hub", "path-optimum-below-extinct-delta"])
def test_optimal_curing_rate_is_independent_of_the_time_unit(name):
    # every case slowed 100x so its optimum lies below 1, where an absolute
    # bracket width of 1e-8 would be 1e-7-1e-6 relative; a change of time
    # unit (rates x1000, price / 1000) must scale the optimum by 1000
    g, r, i, price = optimum_cases()[name]
    slow = scaled_rates(g, r, 0.01)
    best = optimal_curing_rate(g, slow, i, 100.0 * price)
    assert best < 1.0
    fast = optimal_curing_rate(g, scaled_rates(g, slow, 1000.0), i, 0.1 * price)
    assert abs(fast / 1000.0 - best) <= 1e-8 * best


def counted_evaluations(monkeypatch) -> list:
    """Patch sensitivity's solver and its continuation corrector to record
    each solve ("solve") and each state corrected from a prediction
    ("_newton") in the returned list."""
    calls = []
    solve_, newton = sensitivity.solve, sensitivity._newton

    def counting_solve(*args, **kwargs):
        calls.append("solve")
        return solve_(*args, **kwargs)

    def counting_newton(g, beta, delta, guess, *args):
        calls.extend(["_newton"] * int(np.isfinite(guess).all(axis=-1).sum()))
        return newton(g, beta, delta, guess, *args)

    monkeypatch.setattr(sensitivity, "solve", counting_solve)
    monkeypatch.setattr(sensitivity, "_newton", counting_newton)
    return calls


@pytest.mark.parametrize("name", ["star-hub", "star-leaf", "random-hub", "k3-below", "path-optimum-below-extinct-delta"])
def test_optimal_curing_rate_solves_only_the_walked_points(name, monkeypatch):
    g, r, i, price = optimum_cases()[name]
    calls = counted_evaluations(monkeypatch)
    optimal_curing_rate(g, r, i, price)
    # delta_i itself is solved and every other point corrected by continuation,
    # 8-12 evaluations here; the eager scan made 75, and evaluating every
    # bisection midpoint 30-34
    assert calls.count("solve") == 1
    assert 0 < len(calls) <= 16


@pytest.mark.parametrize("scale, most", [(-1.0, 36), (10.0, 70)])
def test_optimal_curing_rate_takes_only_its_cost_from_the_slope(scale, most, monkeypatch):
    # r' only steers the Newton steps (and the continuation's predictions);
    # every sign comes from an evaluated point.  A negated slope makes every
    # step a midpoint, about the 34 evaluations of a bisection that evaluates
    # each midpoint; a tenfold slope makes steps too short, which the
    # step-halving rule turns into midpoints.
    g, r, i, price = optimum_cases()["star-hub"]
    expected = optimal_curing_rate(g, r, i, price)
    along = sensitivity._Linearization.along

    def misleading(self, u):
        x, x2 = along(self, u)
        return x, scale * x2

    monkeypatch.setattr(sensitivity._Linearization, "along", misleading)
    calls = counted_evaluations(monkeypatch)
    assert optimal_curing_rate(g, r, i, price) == expected
    assert len(calls) <= most


def random_optimum_configs(count=25, seed=8):
    """Random graphs (n = 4-9, lambda_max(R) = 1.1-4) priced at 0.05-3 times
    a random node's own-rate slope, so optima fall on both sides of its
    curing rate and some prices leave no interior optimum."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = random_connected_graph(int(rng.integers(4, 10)), rng)
        r = random_rates_at(g, rng, float(rng.uniform(1.1, 4.0)))
        i = int(rng.integers(0, g.n))
        d1 = first_derivatives(g, r, solve(g, r, tol=1e-12))
        yield g, r, i, float(rng.uniform(0.05, 3.0)) * abs(d1[i, i])


def test_optimal_curing_rate_matches_eager_scan_on_random_configs():
    sides = set()
    for g, r, i, price in random_optimum_configs():
        expected = outcome(eager_optimal_curing_rate, g, r, i, price)
        assert outcome(optimal_curing_rate, g, r, i, price) == expected
        sides.add(expected if isinstance(expected, str) else expected > r.delta[i])
    assert sides == {True, False, "no-interior-optimum"}


def residual_profile(monkeypatch, g, r, i, price):
    """(delta_i, dv_i/d delta_i) at every point optimal_curing_rate evaluates."""
    seen = []
    along = sensitivity._Linearization.along  # called once per evaluated point, along e_i

    def recording(self, u):
        x, x2 = along(self, u)
        seen.extend(zip(self.delta[..., i].ravel().tolist(), x[..., i, 0].ravel().tolist()))
        return x, x2

    monkeypatch.setattr(sensitivity._Linearization, "along", recording)
    outcome(optimal_curing_rate, g, r, i, price)
    monkeypatch.undo()
    return sorted(seen)


def study_like_cases():
    """Graphs like the sensitivity benchmark's: n = 6-11, about a third of
    all pairs linked, lambda_max(R) = 2.5, the hub priced at half its slope."""
    rng = np.random.default_rng(14)
    for n in (6, 7, 8, 9, 10, 11):
        g = random_connected_graph(n, rng, extra=0.3)
        r = random_rates_at(g, rng, 2.5)
        hub = int(np.argmax(g.degrees))
        d1 = first_derivatives(g, r, solve(g, r, tol=1e-12))
        yield g, r, hub, 0.5 * abs(d1[hub, hub])


def test_own_rate_residual_nondecreasing_where_the_search_evaluates(monkeypatch):
    # the premise of the search's sign inference: r = price + dv_i/d delta_i
    # never falls as delta_i rises, down to the points a 1e-8 bracket apart
    cases = list(optimum_cases().values()) + list(study_like_cases())
    for g, r, i, price in cases:
        profile = residual_profile(monkeypatch, g, r, i, price)
        assert len(profile) >= 2
        slopes = np.array([d for _, d in profile])
        assert np.all(np.diff(slopes) >= 0.0), np.diff(slopes).min()


@pytest.mark.parametrize("seed", [1, 2, 3, 5])
def test_own_rate_residual_nondecreasing_over_the_grid(seed):
    # v_i is convex in delta_i, so dv_i/d delta_i (and the residual
    # price + dv_i/d delta_i) never falls as delta_i rises; the endemic grid
    # points form one run, which is what lets the walk stop at its end.
    # Close to the surface the hub's grid leaves the endemic regime.
    rng = np.random.default_rng(seed)
    g = random_connected_graph(8, rng)
    r = random_rates_at(g, rng, 1.2)
    hub, leaf = int(np.argmax(g.degrees)), int(np.argmin(g.degrees))
    for i in (hub, leaf):
        grid = float(r.delta[i]) * np.geomspace(1e-3, 1e3, 49)
        profile = [own_rate_derivative(g, r, i, float(x)) for x in grid]
        endemic = [k for k, d in enumerate(profile) if d is not None]
        assert len(endemic) >= 10 and endemic == list(range(endemic[0], endemic[-1] + 1))
        if i == hub:
            assert endemic[-1] < len(grid) - 1
        slopes = np.array([profile[k] for k in endemic])
        assert np.all(np.diff(slopes) >= -1e-10 * np.abs(slopes[:-1]))


def loop_convexity_verdicts(g, rates, deadband=1e-8):
    """Reference: one solve and one d2 per (node, scale), verdicts cell by
    cell.  Returns (verdicts, number of sweep points skipped)."""
    n = g.n
    signs_min = np.full((n, n), np.inf)
    signs_max = np.full((n, n), -np.inf)
    counts = np.zeros(n, dtype=int)
    skipped = 0
    for i in range(n):
        for scale in (0.6, 0.8, 1.0, 1.25, 1.5):
            delta = rates.delta.copy()
            delta[i] = rates.delta[i] * scale
            trial = RateConfig.for_graph(g, rates.beta, delta)
            try:
                ss = solve(g, trial, tol=1e-12)
            except NumericalError as exc:
                if exc.code != "critical-threshold":
                    raise
                ss = None
            if ss is None or ss.regime != "endemic":
                skipped += 1
                continue
            d2 = second_derivatives(g, trial, ss)[:, i]
            signs_min[:, i] = np.minimum(signs_min[:, i], d2)
            signs_max[:, i] = np.maximum(signs_max[:, i], d2)
            counts[i] += 1
    verdicts = []
    band = deadband / float(rates.delta.max()) ** 2  # d2 is in units of 1 / rate^2
    for k in range(n):
        row = []
        for i in range(n):
            if counts[i] < 2:
                row.append("indefinite")
            elif signs_min[k, i] >= -band:
                row.append("convex")
            elif signs_max[k, i] <= band:
                row.append("concave")
            else:
                row.append("indefinite")
        verdicts.append(row)
    return verdicts, skipped


def convexity_cases():
    star = star_graph(4)
    k5 = complete_graph(5)
    rng = np.random.default_rng(1)
    g8 = random_connected_graph(8, rng)
    r8 = random_rates_at(g8, rng, 1.2)

    def at(lam):  # r8 with beta rescaled to lambda_max(R) = lam
        return RateConfig.for_graph(g8, r8.beta * (lam / 1.2), r8.delta)

    return {  # name: (graph, rates, whether some sweep point leaves the endemic regime)
        "a07-star": (star, RateConfig.for_graph(star, [0.5, 0.2, 1.0, 1.0], [1.0, 0.2, 1.0, 1.0]), True),
        "k5": (k5, homogeneous_rates(k5, 1.0), False),
        # the hub's points at 1.25 and 1.5 delta_hub are extinct (lambda_max(R) 0.994 and 0.955)
        "random8-leaves-endemic": (g8, at(1.05), True),
        # near the surface: 9 of the 32 scaled points are extinct, the others corrected from lambda_max(R) = 1.02
        "random8-near-surface": (g8, at(1.02), True),
        # only the hub's point at 0.6 delta_hub is endemic (lambda_max(R) 1.084, 0.990 at 0.8), so its sweep is indefinite
        "random8-one-point-left": (g8, at(0.93), True),
    }


@pytest.mark.parametrize("name", list(convexity_cases()))
def test_convexity_verdicts_match_per_node_loop(name):
    g, r, leaves = convexity_cases()[name]
    expected, skipped = loop_convexity_verdicts(g, r)
    assert convexity_verdicts(g, r) == expected
    assert (skipped > 0) == leaves


def random_convexity_configs():
    """30 random configurations: 24 with lambda_max(R) in 1.02-8 (log-uniform), 6 below the threshold."""
    rng = np.random.default_rng(24)
    configs = []
    for k in range(30):
        g = random_connected_graph(int(rng.integers(3, 14)), rng)
        target = float(np.exp(rng.uniform(np.log(1.02), np.log(8.0)))) if k < 24 else float(rng.uniform(0.5, 0.98))
        configs.append((g, random_rates_at(g, rng, target)))
    return configs


def test_stacked_verdicts_match_per_node_loop_on_random_configs():
    for k, (g, r) in enumerate(random_convexity_configs()):
        assert convexity_verdicts(g, r) == loop_convexity_verdicts(g, r)[0], k


@pytest.mark.parametrize("n", [5, 7, 9])
def test_verdicts_from_a_base_state_on_the_critical_surface_match_per_node_loop(n):
    # the base state lies within the critical band, so no sweep starts from
    # a solved point: the first endemic point of each chain is corrected from
    # no prediction (and so solved), the next one predicted from it
    rng = np.random.default_rng(300 + n)
    g = random_connected_graph(n, rng)
    r = random_rates_at(g, rng, 2.0)
    on = RateConfig.for_graph(g, r.beta * critical_scaling(g, r.tau), r.delta)
    assert steady_state._side(effective_adjacency(g, on.tau)) == 0
    expected, skipped = loop_convexity_verdicts(g, on)
    assert skipped >= 3 * n  # the base point and both upward points of every sweep
    assert convexity_verdicts(g, on) == expected


def test_convexity_verdicts_do_not_depend_on_the_stack_chunk(monkeypatch):
    configs = [(g, r) for g, r, _ in convexity_cases().values()] + random_convexity_configs()[::5]
    expected = [convexity_verdicts(g, r) for g, r in configs]
    sizes = []
    advance = sensitivity._advance

    def recording(g, rates, rows, *args):
        sizes.append(len(rows))
        return advance(g, rates, rows, *args)

    monkeypatch.setattr(sensitivity, "_advance", recording)
    for (g, r), verdicts in zip(configs, expected):
        monkeypatch.setattr(sensitivity, "_STACK_DOUBLES", 3 * g.n**2)  # 3 rows per chunk
        assert convexity_verdicts(g, r) == verdicts
    assert max(sizes) == 3 and min(sizes) < 3  # every stack split, some into a short last chunk


def test_sweeps_raise_a_stalled_solve_deep_in_the_endemic_regime():
    # lambda_max(R) = 112: every 1e-12 solve here stalls at its residual
    # floor, which is a solver failure, not a point outside the regime
    g = star_graph(6)
    r = RateConfig.for_graph(g, 50.0, 1.0)
    try:
        verdicts = convexity_verdicts(g, r)
    except NumericalError as exc:
        assert exc.code == "no-convergence"
    else:
        assert all(verdicts[i][i] == "convex" for i in range(g.n))
    assert outcome(optimal_curing_rate, g, r, 0, 0.01) != "no-interior-optimum"


def failing_at_one_scaled_point(monkeypatch, base, factor):
    """Patch sensitivity's solver to raise no-convergence where node 0's curing
    rate is factor times its base value; returns the list of rates at which
    the patched function was called."""
    original = sensitivity.solve
    calls = []

    def run_or_fail(g, rates, *args, **kwargs):
        calls.append(rates)
        if np.isclose(rates.delta[0], factor * base.delta[0], rtol=1e-12):
            raise NumericalError("stalled", code="no-convergence")
        return original(g, rates, *args, **kwargs)

    monkeypatch.setattr(sensitivity, "solve", run_or_fail)
    return calls


def failing_stack_row(monkeypatch, base, factor) -> list:
    """Patch the continuation's corrector to stall every state where node 0's
    curing rate is factor times its base value; returns the curing rates of
    every state it was given."""
    original = sensitivity._newton
    rows = []

    def run_or_fail(g, beta, delta, *args):
        v, residual, steps, stop = original(g, beta, delta, *args)
        rows.extend(np.reshape(delta, (-1, g.n)))
        stop[np.isclose(delta[..., 0], factor * base.delta[0], rtol=1e-12)] = steady_state._STALLED
        return v, residual, steps, stop

    monkeypatch.setattr(sensitivity, "_newton", run_or_fail)
    return rows


def test_convexity_verdicts_raise_a_failed_sweep_solve(monkeypatch):
    # the corrector fails node 0's 0.8 row, which goes to solve, and so does
    # that solve
    g = complete_graph(5)
    r = homogeneous_rates(g, 1.0)
    rows = failing_stack_row(monkeypatch, r, 0.8)
    solves = failing_at_one_scaled_point(monkeypatch, r, 0.8)
    with pytest.raises(NumericalError) as info:
        convexity_verdicts(g, r)
    assert info.value.code == "no-convergence"
    assert any(np.isclose(delta[0], 0.8) for delta in rows)
    assert solves and np.isclose(solves[-1].delta[0], 0.8)


def test_convexity_verdicts_fall_back_to_solve_where_the_corrector_fails(monkeypatch):
    g, r, _ = convexity_cases()["random8-leaves-endemic"]
    expected, _ = loop_convexity_verdicts(g, r)
    failing_stack_row(monkeypatch, r, 0.8)
    solves = failing_at_one_scaled_point(monkeypatch, r, np.inf)  # counts, never fails
    assert convexity_verdicts(g, r) == expected
    # the base state, then the one point the corrector could not reach
    assert [float(x.delta[0] / r.delta[0]) for x in solves] == pytest.approx([1.0, 0.8], rel=1e-12)


def newton_reference(g, rates):
    """Endemic state by undamped Newton from the componentwise upper bound, 60 steps."""
    a, beta, delta = g.adjacency, rates.beta, rates.delta
    gamma = a @ beta
    v = gamma / (gamma + delta)
    for _ in range(60):
        f = a @ (beta * v) - delta * v / (1.0 - v)
        v = v + np.linalg.solve(np.diag(delta / (1.0 - v) ** 2) - a * beta[None, :], f)
    return v


@pytest.mark.parametrize("name", list(convexity_cases()))
def test_corrected_sweep_states_match_newton(name, monkeypatch):
    g, r, _ = convexity_cases()[name]
    states = []
    corrected = sensitivity._newton

    def recording(g, beta, delta, *args):
        v, residual, steps, stop = corrected(g, beta, delta, *args)
        for k in np.flatnonzero(stop == steady_state._CONVERGED):
            states.append((RateConfig.for_graph(g, beta, delta[k]), v[k], residual[k]))
        return v, residual, steps, stop

    monkeypatch.setattr(sensitivity, "_newton", recording)
    convexity_verdicts(g, r)
    # from an endemic base, both points of every node's downward chain are endemic and corrected
    base_endemic = solve(g, r, tol=1e-12).regime == "endemic"
    assert len(states) >= 2 * g.n if base_endemic else not states
    for rates, v, residual in states:
        assert 0.0 < v.min() and v.max() < 1.0 and residual <= 1e-12
        reference = newton_reference(g, rates)
        assert np.abs(v - reference).max() <= 1e-11 * np.abs(reference).min()


def test_stacked_rows_equal_one_state_calls():
    # one corrector and one linearization over a leading axis: every row of a
    # stack gets, bit for bit, what the same call gives that row alone, and a
    # failing row neither changes its neighbours nor loses its own stop
    # on this star, a stack forms F = A (beta v) in other bits than row by row
    g = star_graph(12)
    base = RateConfig.for_graph(g, 2.0, 1.0)
    deltas = np.ones((6, g.n))
    deltas[[0, 1, 2, 3], [0, 1, 0, 0]] = 4.0, 0.7, 8.0, 1e-3  # row 3 stalls at its residual floor
    # at v = 1/2, S = diag(4, 2, 4, 8, ..., 1024, 1024) - 2 A, whose LU
    # factorization meets an exact zero pivot
    deltas[4] = [1.0] + [2.0**k for k in range(-1, 9)] + [256.0]

    def rates(k):
        return RateConfig.for_graph(g, base.beta, deltas[k])

    guesses = [solve(g, rates(k), tol=1e-12).v_inf * factor for k, factor in enumerate((0.97, 1.02, 1.02))]
    guesses.append(steady_state._iterate(g, rates(3), 1e-12, 10**6)[0])  # the map hands it over unconverged
    guesses += [np.full(g.n, 0.5), np.where(np.arange(g.n) == 2, 1.0, 0.5)]
    stack = steady_state._newton(g, base.beta, deltas, np.array(guesses), 1e-12, 10**6)
    stops = [steady_state._CONVERGED] * 3 + [steady_state._STALLED, steady_state._SINGULAR, steady_state._OUTSIDE]
    assert stack[3].tolist() == stops
    for k, guess in enumerate(guesses):
        alone = steady_state._newton(g, base.beta, deltas[k], guess, 1e-12, 10**6)
        assert np.array_equal(stack[0][k], alone[0], equal_nan=True), k
        assert all(np.array_equal(field[k], one) for field, one in zip(stack[1:], alone[1:])), k
    assert "stalled at residual floor" in str(steady_state._no_convergence(1e-12, 9, stack[1][3], stack[3][3]))
    assert "singular" in str(steady_state._no_convergence(1e-12, 9, stack[1][4], stack[3][4]))

    def linearized(k, v, nodes):
        lin = sensitivity._Linearization.at(g, base.beta, deltas[k], v)
        return (lin.s, lin.inv, *lin.along((np.arange(g.n) == nodes[..., None])[..., None]))

    states, nodes = stack[0].copy(), np.array([0, 1, 0, 0, 0, 0])
    states[4] = 0.5  # where S is singular
    together = linearized(slice(0, 3), states[:3], nodes[:3])
    for k in range(3):
        alone = linearized(k, states[k], nodes[k])
        assert all(np.array_equal(field[k], one) for field, one in zip(together, alone)), k
    # the singular state fails the floor of S, alone and behind two neighbours that pass it
    with pytest.raises(NumericalError, match="not positive definite") as alone:
        linearized(4, states[4], nodes[4])
    with pytest.raises(NumericalError) as info:
        linearized([0, 1, 4], states[[0, 1, 4]], nodes[[0, 1, 4]])
    assert str(info.value) == str(alone.value) and info.value.code == "near-critical"
    # so does a nan state, which numpy.linalg.cholesky factors into nan without raising
    states[5] = np.nan
    with pytest.raises(NumericalError, match="not positive definite") as alone:
        linearized(5, states[5], nodes[5])
    with pytest.raises(NumericalError) as info:
        linearized([0, 1, 5], states[[0, 1, 5]], nodes[[0, 1, 5]])
    assert str(info.value) == str(alone.value) and info.value.code == "near-critical"
    with pytest.raises(NumericalError, match="not positive definite") as info:
        sensitivity_matrix(g, rates(0), replace(solve(g, rates(0), tol=1e-12), v_inf=states[5]))
    assert info.value.code == "near-critical"


def trial_arrays(monkeypatch, g, rates, nodes, delta_i) -> dict:
    """The rates that _advance builds for its points: tau as its regime test
    gets it, beta and delta as its corrector does (every point is taken as
    endemic, and the corrector stops the step once it has them)."""
    seen, regime_coupling = {}, sensitivity._coupling

    class Captured(Exception):
        pass

    def coupling(g, tau):
        seen["tau"] = tau
        return regime_coupling(g, tau)

    def corrector(g, beta, delta, *args):
        seen.update(beta=beta, delta=delta)
        raise Captured

    monkeypatch.setattr(sensitivity, "_coupling", coupling)
    monkeypatch.setattr(sensitivity, "_endemic", lambda r: np.ones(r.shape[:-2], dtype=bool))
    monkeypatch.setattr(sensitivity, "_newton", corrector)
    with pytest.raises(Captured):
        sensitivity._advance(g, rates, nodes, delta_i, None)
    return seen


def test_trial_rates_equal_a_validated_configuration(monkeypatch):
    rng = np.random.default_rng(12)
    g = random_connected_graph(9, rng)
    r = random_rates_at(g, rng, 2.5)
    for i in range(g.n):
        delta_i = r.delta[i] * rng.uniform(1e-3, 1e3)
        delta = r.delta.copy()
        delta[i] = delta_i
        expected = RateConfig.for_graph(g, r.beta, delta)
        trial = trial_arrays(monkeypatch, g, r, i, delta_i)
        for name in ("beta", "delta", "tau"):
            assert np.array_equal(trial[name], getattr(expected, name)), (i, name)
        stack = trial_arrays(monkeypatch, g, r, np.array([i, i]), np.array([delta_i, r.delta[i]]))
        assert np.array_equal(stack["beta"], expected.beta), i
        assert np.array_equal(stack["delta"], [expected.delta, r.delta]), i  # the sweeps' row of this rate
        assert np.array_equal(stack["tau"], [expected.tau, r.tau]), i


def test_optimal_curing_rate_raises_a_failed_walk_solve(monkeypatch):
    # the corrector fails at the walk's first step, and so does the solve it falls back to
    g, r, i, price = optimum_cases()["k3-below"]  # walks down from delta_0 = 2
    assert i == 0
    first_step = np.geomspace(1e-3, 1e3, 49)[23]
    corrections = failing_stack_row(monkeypatch, r, first_step)
    solves = failing_at_one_scaled_point(monkeypatch, r, first_step)
    with pytest.raises(NumericalError) as info:
        optimal_curing_rate(g, r, i, price)
    assert info.value.code == "no-convergence"
    assert corrections and np.isclose(corrections[-1][0], first_step * r.delta[0])
    assert solves and np.isclose(solves[-1].delta[0], first_step * r.delta[0])


def test_each_endemic_state_is_solved_and_linearized_once(monkeypatch, tmp_path, capsys):
    rng = np.random.default_rng(4)
    g = random_connected_graph(7, rng)
    r = random_rates_at(g, rng, 2.0)
    n = g.n
    ss = solve(g, r, tol=1e-12)
    # solves made by sensitivity or the CLI, states corrected from a prediction,
    # states corrected from no prediction, and states linearized
    counts = {"solve": 0, "rows": 0, "unpredicted": 0, "at": 0}
    at = sensitivity._Linearization.at.__func__
    newton = sensitivity._newton

    def counting_solve(*args, **kwargs):
        counts["solve"] += 1
        return solve(*args, **kwargs)

    def counting_newton(g, beta, delta, guess, *args):
        predicted = np.isfinite(guess).all(axis=-1)
        counts["rows"] += int(predicted.sum())
        counts["unpredicted"] += int((~predicted).sum())
        return newton(g, beta, delta, guess, *args)

    def counting_at(cls, g, beta, delta, v):
        counts["at"] += len(np.reshape(v, (-1, g.n)))
        return at(cls, g, beta, delta, v)

    monkeypatch.setattr(sensitivity, "solve", counting_solve)
    monkeypatch.setattr(steady_state, "solve", counting_solve)
    monkeypatch.setattr(sensitivity, "_newton", counting_newton)
    monkeypatch.setattr(sensitivity._Linearization, "at", classmethod(counting_at))
    # the base state is solved and linearized; the 4 scaled points per node are
    # predicted from their neighbours, corrected and linearized as rows of the
    # stacked sweep; the base also serves every sweep's factor 1.0
    full_report(g, r)
    assert counts == {"solve": 1, "rows": 4 * n, "unpredicted": 0, "at": 1 + 4 * n}
    counts.update(solve=0, rows=0, at=0)
    full_report(g, r, ss)
    assert counts == {"solve": 0, "rows": 4 * n, "unpredicted": 0, "at": 1 + 4 * n}

    graph, rates = tmp_path / "g.edges", tmp_path / "rates.json"
    graph.write_text(format_edge_list(g))
    rates.write_text(json.dumps({"beta": r.beta.tolist(), "delta": r.delta.tolist()}))
    counts.update(solve=0, rows=0, at=0)
    assert main(["sensitivity", "--graph", str(graph), "--rates", str(rates)]) == 0
    capsys.readouterr()
    # the inverse ledger reads the report's S^{-1}
    assert counts == {"solve": 1, "rows": 4 * n, "unpredicted": 0, "at": 1 + 4 * n}

    assert full_report(g, r, ss).convexity == convexity_verdicts(g, r)


def test_convexity_verdicts_frozen_cases():
    g, r, _ = concave_star_state()
    verdicts = convexity_verdicts(g, r)
    assert verdicts[1][0] == "concave"

    k5 = complete_graph(5)
    verdicts = convexity_verdicts(k5, RateConfig.from_tau(k5, 1.0))
    assert all(x == "convex" for row in verdicts for x in row)


def test_inverse_checks_triangle_frozen_entries():
    g, r, ss = triangle_state()
    ledger = inverse_checks(g, r, ss)
    assert all(e["satisfied"] for e in ledger.values())
    assert abs(ledger["diag_lower"]["rhs"] - 1.2) < 1e-9
    assert abs(ledger["diag_strict"]["lhs"] - 0.6) < 1e-9
    assert ledger["diag_strict"]["rhs"] == 1.0
    assert ledger["row_identity"]["max_abs_dev"] < 1e-9
    assert ledger["diag_identity"]["max_abs_dev"] < 1e-9
    assert ledger["symmetric_upper"]["satisfied"] is True


def test_inverse_checks_symmetric_bound_needs_equal_beta():
    g = path_graph(3)
    r = RateConfig.for_graph(g, [1.0, 2.0, 1.0], 1.0)
    ledger = inverse_checks(g, r, solve(g, r, tol=1e-12))
    assert ledger["symmetric_upper"]["applicable"] is False
    others = {k: v for k, v in ledger.items() if k != "symmetric_upper"}
    assert all(e["satisfied"] for e in others.values())


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=10**6))
def test_inverse_checks_random_endemic_configs(n, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    r = random_rates_at(g, rng, target=float(rng.uniform(1.3, 3.0)))
    ss = solve(g, r, tol=1e-12)
    ledger = inverse_checks(g, r, ss)
    bad = [k for k, e in ledger.items() if e["satisfied"] is False]
    assert not bad


def test_full_report_shapes_and_invariants():
    g, r, ss = triangle_state()
    report = full_report(g, r, ss)
    assert report.s_inverse.min() >= -1e-10
    assert report.d1.max() <= 1e-10
    assert report.d1_tied is not None and report.d2_tied is not None
    assert len(report.convexity) == 3


def test_full_report_tied_fields_none_for_heterogeneous_delta():
    g, r, ss = concave_star_state()
    report = full_report(g, r, ss)
    assert report.d1_tied is None
    assert report.d2_tied is None


def exact_state(g, r, v) -> SteadyState:
    """Endemic state from a closed-form v, checked against the fixed-point equations."""
    v_tilde = r.beta * v
    w = g.adjacency @ v_tilde + r.delta
    residual = float(np.abs(g.adjacency @ v_tilde - v * r.delta / (1.0 - v)).max())
    assert residual <= 1e-14
    return SteadyState(
        v_inf=v, v_tilde=v_tilde, w=w, iterations=0, residual=residual, regime="endemic", y_inf=float(v.mean()),
        path="map",
    )


def near_critical_states():
    """Closed-form endemic states at lambda_max(R) = 1 + eps, eps -> 0.

    Cycle C_6 (regular): v = eps/(1 + eps) everywhere.  Star with L = 4
    leaves: v_hub = (L beta^2 - 1)/(beta (L beta + 1)), v_leaf =
    beta v_hub/(1 + beta v_hub).  Both with delta = 1, beta = tau.
    """
    for eps in (1e-3, 1e-5, 1e-7, 1e-8, 1e-9, 4e-10, 3e-11, 1e-11, 1e-12, 1e-13):
        g = cycle_graph(6)
        r = RateConfig.for_graph(g, (1.0 + eps) / 2.0, 1.0)
        yield g, r, exact_state(g, r, np.full(6, eps / (1.0 + eps)))

        g = star_graph(5)
        beta = (1.0 + eps) / 2.0
        r = RateConfig.for_graph(g, beta, 1.0)
        hub = (4.0 * beta**2 - 1.0) / (beta * (4.0 * beta + 1.0))
        leaf = beta * hub / (1.0 + beta * hub)
        yield g, r, exact_state(g, r, np.array([hub, leaf, leaf, leaf, leaf]))


def test_s_matrix_near_critical_exactly_below_eigenvalue_floor():
    raised = passed = 0
    for g, r, ss in near_critical_states():
        v = ss.v_inf
        root = np.sqrt(r.beta)
        lap = np.diag(1.0 / (r.tau * (1.0 - v) ** 2)) - g.adjacency
        smallest = float(np.linalg.eigvalsh(root[:, None] * lap * root[None, :])[0])
        assert not 0.5e-10 <= smallest <= 2e-10, "configuration too close to the 1e-10 floor"
        if smallest > 1e-10:
            sensitivity_matrix(g, r, ss)
            passed += 1
            continue
        with pytest.raises(NumericalError, match="not positive definite") as info:
            sensitivity_matrix(g, r, ss)
        assert info.value.code == "near-critical"
        reported = float(re.search(r"smallest eigenvalue (\S+)\)", str(info.value)).group(1))
        assert abs(reported - smallest) <= 1e-3 * abs(smallest) + 1e-15
        raised += 1
    assert raised >= 6 and passed >= 10


def test_s_matrix_accepts_solved_states_approaching_surface():
    g = random_connected_graph(9, np.random.default_rng(21))
    for target in (2.0, 1.1, 1.01):
        r = random_rates_at(g, np.random.default_rng(22), target)
        ss = solve(g, r, tol=1e-13)
        s = sensitivity_matrix(g, r, ss)
        v = ss.v_inf
        expected = np.diag(r.delta / (1.0 - v) ** 2) - g.adjacency * r.beta[None, :]
        assert np.array_equal(s, expected)
        assert s.tobytes() == expected.tobytes()  # +0.0 off the edges, as in expected


@pytest.mark.parametrize("name", ["star5", "path6"])
def test_sensitivity_checks_are_independent_of_the_time_unit(name):
    # lambda_max(R) = 1.2 and 1.08: the symmetric form of S has its smallest
    # eigenvalue 0.087 (star) at delta = 1, below an absolute 1e-10 floor once
    # every rate is 1e-9 times slower; an absolute 1e-8 convexity dead band
    # gave star5 21 convex cells at unit 1e-9 against 25 at unit 1, and path6
    # 36 at unit 1e6 against 28
    g = star_graph(5) if name == "star5" else path_graph(6)
    reports = {}
    for unit in (1e-9, 1.0, 1e6):
        r = RateConfig.for_graph(g, 0.6 * unit, unit)
        ss = solve(g, r, tol=1e-12)
        assert np.array_equal(sensitivity_matrix(g, r, ss), full_report(g, r, ss).s_matrix)
        reports[unit] = full_report(g, r, ss)
    # S is in units of rate, S^{-1} and d1 of 1 / rate, d2 and M of 1 / rate^2
    powers = {"s_matrix": -1, "s_inverse": 1, "d1": 1, "d2": 2, "m_matrix": 2}
    for unit, report in reports.items():
        for field, power in powers.items():
            got, expected = getattr(report, field) * unit**power, getattr(reports[1.0], field)
            assert np.abs(got - expected).max() <= 1e-9 * np.abs(expected).max(), (unit, field)
        # the convexity dead band is in units of 1 / (max_i delta_i)^2, as d2 is
        assert report.convexity == reports[1.0].convexity, unit


def solve_reference(g, r, ss):
    """Every full_report field from numpy.linalg.solve on an S built here."""
    v, beta, delta = ss.v_inf, r.beta, r.delta
    s = np.diag(delta / (1.0 - v) ** 2) - g.adjacency * beta[None, :]
    inv = np.linalg.solve(s, np.eye(g.n))
    d1 = np.linalg.solve(s, -np.diag(v / (1.0 - v)))
    w = 2.0 * (delta / (1.0 - v) ** 3)[:, None] * d1**2 + np.diag(2.0 * np.diag(d1) / (1.0 - v) ** 2)
    d2 = -np.linalg.solve(s, w)
    d1_tied = np.linalg.solve(s, -(v / (1.0 - v)))
    d2_tied = -np.linalg.solve(s, 2.0 * delta * d1_tied**2 / (1.0 - v) ** 3 + 2.0 * d1_tied / (1.0 - v) ** 2)
    m = np.empty_like(inv)
    for k in range(g.n):
        for i in range(g.n):
            tail = sum(inv[k, j] * delta[j] * inv[j, i] ** 2 / (1.0 - v[j]) ** 3 for j in range(g.n))
            m[k, i] = inv[k, i] * inv[i, i] / (1.0 - v[i]) - v[i] * tail
    return {"s_matrix": s, "s_inverse": inv, "d1": d1, "d2": d2, "d1_tied": d1_tied, "d2_tied": d2_tied, "m_matrix": m}


@pytest.mark.parametrize("tied", [True, False])
def test_full_report_matches_dense_solves(tied):
    rng = np.random.default_rng(31)
    g = random_connected_graph(8, rng)
    beta = rng.uniform(0.5, 2.0, g.n)
    delta = np.ones(g.n) if tied else rng.uniform(0.5, 2.0, g.n)
    r = RateConfig.for_graph(g, beta, delta)
    r = RateConfig.for_graph(g, beta * 2.5 / classify(g, r).lambda_max_R, delta)
    ss = solve(g, r, tol=1e-13)
    report = full_report(g, r, ss)
    reference = solve_reference(g, r, ss)
    if not tied:
        assert report.d1_tied is None and report.d2_tied is None
        del reference["d1_tied"], reference["d2_tied"]
    for name, expected in reference.items():
        got = getattr(report, name)
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max(), name


def test_node_index_must_be_an_integer():
    g, r, ss = triangle_state()
    assert schur_derivative(g, r, ss, np.int64(1)) == schur_derivative(g, r, ss, 1)
    for call in (lambda: schur_derivative(g, r, ss, 1.5), lambda: optimal_curing_rate(g, r, 1.5, 0.3)):
        with pytest.raises(InputError) as info:
            call()
        assert info.value.code == "invalid-argument"
