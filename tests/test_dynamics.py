"""Transient integration of the mean-field infection dynamics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from hetsis import InputError, NumericalError, RateConfig, default_step, dynamics, integrate, mean_field_rhs, solve

from conftest import (
    complete_graph,
    cycle_graph,
    eigvalsh_lambda_max,
    homogeneous_rates,
    random_connected_graph,
    random_rates_at,
    star_graph,
    within_seconds,
)


def test_rhs_zero_at_healthy_state():
    g = complete_graph(3)
    r = homogeneous_rates(g, 2.0)
    assert np.all(mean_field_rhs(g, r, np.zeros(3)) == 0.0)


def test_rhs_zero_at_symmetric_fixed_point():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    assert np.abs(mean_field_rhs(g, r, np.full(3, 0.5))).max() < 1e-15


def test_rhs_pure_curing_without_infected_neighbors():
    g = complete_graph(2)
    r = RateConfig.for_graph(g, 1.0, [0.7, 1.3])
    rhs = mean_field_rhs(g, r, np.array([1.0, 0.0]))
    assert abs(rhs[0] + 0.7) < 1e-15


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
def test_rhs_matches_per_node_loop(n, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    r = RateConfig.for_graph(g, rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n))
    v = rng.uniform(0.0, 1.0, n)
    expect = np.empty(n)
    for i in range(n):
        pressure = sum(r.beta[j] * v[j] for j in g.neighbors(i))
        expect[i] = pressure - v[i] * (pressure + r.delta[i])
    assert np.abs(mean_field_rhs(g, r, v) - expect).max() < 1e-13


def test_rhs_rejects_out_of_range_state():
    g = complete_graph(3)
    r = homogeneous_rates(g, 1.0)
    with pytest.raises(InputError, match="out of range"):
        mean_field_rhs(g, r, np.array([0.5, 1.5, 0.5]))
    with pytest.raises(InputError):
        mean_field_rhs(g, r, np.array([0.5, np.nan, 0.5]))


def test_default_step_scale():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    # max_i(gamma_i + delta_i) = 2 * 2 + 1 = 5
    assert abs(default_step(r) - 0.02) < 1e-15


def test_integrate_zero_state_stays_zero():
    g = complete_graph(4)
    traj = integrate(g, homogeneous_rates(g, 3.0), np.zeros(4), t_end=5.0)
    assert np.all(traj.states == 0.0)


def test_integrate_triangle_converges_to_half():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    traj = integrate(g, r, np.full(3, 0.9), t_end=50.0)
    assert np.abs(traj.states[-1] - 0.5).max() < 1e-6


def test_integrate_below_threshold_decays():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 0.3, 1.0)
    traj = integrate(g, r, np.full(3, 0.9), t_end=100.0)
    assert np.abs(traj.states[-1]).max() <= 1e-4


def test_integrate_symmetry_preserved_on_cycle():
    g = cycle_graph(6)
    r = homogeneous_rates(g, 1.5)
    traj = integrate(g, r, np.full(6, 0.7), t_end=10.0)
    spread = traj.states.max(axis=1) - traj.states.min(axis=1)
    assert spread.max() < 1e-12


def test_integrate_agrees_with_fixed_point():
    rng = np.random.default_rng(17)
    g = random_connected_graph(20, rng)
    r = random_rates_at(g, rng, target=2.5)
    ss = solve(g, r, tol=1e-12)
    t_end = 50.0 / float(r.delta.min())
    traj = integrate(g, r, np.full(g.n, 0.9), t_end=t_end)
    assert np.abs(traj.states[-1] - ss.v_inf).max() <= 1e-5
    assert np.abs(mean_field_rhs(g, r, traj.states[-1])).max() <= 1e-8


def test_trajectory_invariants():
    g = cycle_graph(5)
    traj = integrate(g, homogeneous_rates(g, 2.0), np.full(5, 0.9), t_end=7.3)
    assert traj.times[0] == 0.0
    assert abs(traj.times[-1] - 7.3) < 1e-12
    assert np.all(np.diff(traj.times) > 0)
    assert traj.states.min() >= 0.0 and traj.states.max() <= 1.0
    assert traj.terminal_residual >= 0.0


def test_integrate_downsamples_to_max_points():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    full = integrate(g, r, np.full(3, 0.9), t_end=200.0, max_points=None)
    n_steps = full.steps
    assert n_steps > 40
    for max_points in (2, 3, 10, 17, n_steps // 2):
        traj = integrate(g, r, np.full(3, 0.9), t_end=200.0, max_points=max_points)
        # every stride-th accepted step plus the last, at the smallest power-of-two
        # stride that fits; exact states of the full run, not interpolants
        stride = 1
        while len(range(0, n_steps, stride)) + 1 > max_points:
            stride *= 2
        idx = list(range(0, n_steps, stride)) + [n_steps]
        assert len(traj.times) == len(idx) <= max_points
        assert traj.times[0] == 0.0 and traj.times[-1] == 200.0
        assert np.array_equal(full.times[idx], traj.times)
        assert np.array_equal(full.states[idx], traj.states)
        assert (traj.steps, traj.rejected) == (full.steps, full.rejected)
        assert traj.terminal_residual == full.terminal_residual


def test_integrate_keeps_every_step_up_to_max_points():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    full = integrate(g, r, np.full(3, 0.9), t_end=1.0, max_points=None)
    n = len(full.times)
    assert n == full.steps + 1 > 2
    for max_points in (n, 1000, np.int64(n)):
        traj = integrate(g, r, np.full(3, 0.9), t_end=1.0, max_points=max_points)
        assert np.array_equal(traj.times, full.times) and np.array_equal(traj.states, full.states)
    ends = integrate(g, r, np.full(3, 0.9), t_end=1.0, max_points=2)
    assert np.array_equal(ends.times, full.times[[0, -1]])
    assert np.array_equal(ends.states, full.states[[0, -1]])


def test_integrate_memory_independent_of_horizon():
    rng = np.random.default_rng(3)
    g = random_connected_graph(30, rng)
    r = random_rates_at(g, rng, 2.0)
    v0 = np.full(30, 0.5)
    tracemalloc.start()
    try:
        traj = integrate(g, r, v0, t_end=4000.0, dt_hint=1e-3, max_points=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) <= 100
    assert traj.steps >= 10 * 100
    assert peak < 0.5e6  # all ~4,000 accepted states of 30, as arrays, would take 1.4 MB


def test_integrate_respects_dt_hint():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    # the hint is the first trial step, fine or coarse: default_step (0.02)
    # does not cap it.  The horizon covers the first three steps and ends
    # before t = 0.43, where the controller turns its first step down.
    for hint in (0.01, 0.03):
        traj = integrate(g, r, np.full(3, 0.7), t_end=0.4, dt_hint=hint, max_points=None)
        assert traj.rejected == 0
        assert traj.times[1] == hint
    # without a hint the first trial step is default_step
    traj = integrate(g, r, np.full(3, 0.7), t_end=0.4, max_points=None)
    assert traj.rejected == 0
    assert traj.times[1] == default_step(r) == 0.02
    # an accepted step is followed by a longer one: the step is not fixed
    assert traj.times[2] - traj.times[1] > traj.times[1]


def test_integrate_eighth_order_local_error():
    # homogeneous K3 from a symmetric state is the logistic equation
    # x' = (2b - d) x - 2b x^2, with a closed-form solution.  From x0 = 0.02
    # one step of 0.2 or 0.1 is accepted, and its error (8.7e-12, 1.3e-14)
    # lies thousands of ulps above rounding, so the order shows
    g = complete_graph(3)
    b, d, x0 = 2.0, 1.0, 0.02
    r = RateConfig.for_graph(g, b, d)
    rate, level = 2 * b - d, (2 * b - d) / (2 * b)
    err = {}
    for h in (0.2, 0.1):
        traj = integrate(g, r, np.full(3, x0), t_end=h, dt_hint=h)
        assert (traj.steps, traj.rejected) == (1, 0)
        exact = level / (1.0 + (level / x0 - 1.0) * np.exp(-rate * h))
        err[h] = np.abs(traj.states[-1] - exact).max()
    # an eighth-order pair has local error O(h^9): halving h divides it by
    # 2^9 = 512 (measured 664); a seventh or ninth order would give 256 or 1024
    assert 2**8.5 <= err[0.2] / err[0.1] <= 2**9.5


def test_dop853_table_meets_its_order_conditions_and_matches_scipy():
    from scipy.integrate._ivp import dop853_coefficients as ref

    c = ref.C[:12]
    assert np.abs(dynamics._A.sum(axis=1) - c).max() <= 1e-14
    # quadrature conditions: the weights integrate c^(k-1) exactly up to
    # each solution's order, 8 for the step, 5 and 3 for the embedded ones
    b, (e5, e3) = dynamics._B, dynamics._E
    for weights, order in ((b, 8), (b - e5, 5), (b - e3, 3)):
        for k in range(1, order + 1):
            assert abs(weights @ c ** (k - 1) - 1.0 / k) <= 1e-14
    # the same doubles as scipy's DOP853; the first-same-as-last stage 13
    # has no weight in either error estimate, so 12 columns hold them all
    assert np.array_equal(dynamics._A, ref.A[:12, :12])
    assert np.array_equal(b, ref.B)
    assert np.array_equal(e5, ref.E5[:12]) and np.array_equal(e3, ref.E3[:12])
    assert ref.E5[12] == ref.E3[12] == 0.0


def dop853_states(g, r, v0, times):
    """scipy's DOP853 at rtol 1e-13, independent of the package's integrator."""
    a = g.adjacency

    def rhs(_, v):
        pressure = a @ (r.beta * v)
        return pressure - v * (pressure + r.delta)

    ref = solve_ivp(rhs, (0.0, times[-1]), v0, method="DOP853", t_eval=times, rtol=1e-13, atol=1e-15)
    assert ref.success
    return ref.y.T


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=30),
    st.floats(min_value=0.5, max_value=3.5),
    st.floats(min_value=0.5, max_value=20.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_integrate_matches_dop853_at_every_sample(n, target, t_end, seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    r = random_rates_at(g, rng, target)
    v0 = rng.uniform(0.0, 1.0, n)
    traj = integrate(g, r, v0, t_end=t_end)
    assert np.abs(traj.states - dop853_states(g, r, v0, traj.times)).max() <= 1e-8


def test_integrate_stiff_hub_rejects_steps_and_stays_accurate():
    # a 30-leaf star at lambda_max(R) = 3 over a long horizon: once the
    # transient is over the step runs into the pair's stability limit,
    # where the error control must turn steps down
    g = star_graph(31)
    rates = homogeneous_rates(g, 1.0)
    lam = eigvalsh_lambda_max(g.adjacency)
    r = RateConfig.for_graph(g, rates.beta * 3.0 / lam, rates.delta)
    v0 = np.full(31, 0.5)
    traj = integrate(g, r, v0, t_end=200.0, max_points=None)
    assert traj.rejected > 0
    assert np.abs(traj.states - dop853_states(g, r, v0, traj.times)).max() <= 1e-8


def test_integrate_step_count_stays_at_the_eighth_order_level():
    # on this graph the Dormand-Prince 5(4) pair took 113 accepted steps to
    # t = 4 at the same tolerance, and the 8(5,3) pair takes 22; a bound of
    # 30 fails if most of that gain is lost, and the end state stays as
    # accurate
    rng = np.random.default_rng(1)
    g = random_connected_graph(30, rng)
    r = random_rates_at(g, rng, 2.5)
    v0 = rng.uniform(0.0, 1.0, 30)
    traj = integrate(g, r, v0, t_end=4.0)
    assert traj.steps <= 30
    assert np.abs(traj.states - dop853_states(g, r, v0, traj.times)).max() <= 1e-8


def test_integrate_argument_validation():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    with pytest.raises(InputError):
        integrate(g, r, np.full(3, 0.5), t_end=-1.0)
    with pytest.raises(InputError):
        integrate(g, r, np.full(3, 0.5), t_end=1.0, dt_hint=0.0)
    with pytest.raises(InputError, match="length"):
        integrate(g, r, np.full(4, 0.5), t_end=1.0)


@pytest.mark.parametrize("dt_hint", [float("nan"), float("inf"), float("-inf")])
def test_integrate_rejects_non_finite_dt_hint(dt_hint):
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    with pytest.raises(InputError, match="dt_hint") as info:
        integrate(g, r, np.full(3, 0.5), t_end=1.0, dt_hint=dt_hint)
    assert info.value.code == "invalid-argument"


def test_integrate_step_underflow_raises(monkeypatch):
    # a tolerance no step can meet shrinks the step to rounding level;
    # that must end in a typed error, not in an endless loop
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    monkeypatch.setattr(dynamics, "_TOL", 1e-300)
    with within_seconds(10), pytest.raises(NumericalError, match="underflow") as info:
        integrate(g, r, np.full(3, 0.5), t_end=1.0)
    assert info.value.code == "step-instability"


@pytest.mark.parametrize("max_points", [1, 0, -5, 2.5])
def test_integrate_rejects_max_points_below_two(max_points):
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    for t_end in (1.0, 0.0):
        with pytest.raises(InputError, match="max_points") as info:
            integrate(g, r, np.full(3, 0.5), t_end=t_end, max_points=max_points)
        assert info.value.code == "invalid-argument"
