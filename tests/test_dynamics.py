"""Transient integration of the mean-field infection dynamics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsis import InputError, RateConfig, default_step, integrate, mean_field_rhs, solve

from conftest import complete_graph, cycle_graph, homogeneous_rates, random_connected_graph, random_rates_at


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
    traj = integrate(g, r, np.full(3, 0.9), t_end=30.0, max_points=50)
    assert len(traj.times) <= 50
    assert traj.times[0] == 0.0 and abs(traj.times[-1] - 30.0) < 1e-12
    full = integrate(g, r, np.full(3, 0.9), t_end=30.0, max_points=None)
    assert len(full.times) > 50
    # every stride-th step plus the last, and exact samples of the full run, not interpolants
    n_steps = len(full.times) - 1
    stride = -(-n_steps // 49)
    idx = list(range(0, n_steps, stride)) + [n_steps]
    assert np.array_equal(full.times[idx], traj.times)
    assert np.array_equal(full.states[idx], traj.states)
    assert traj.terminal_residual == full.terminal_residual


def test_integrate_keeps_every_step_up_to_max_points():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    full = integrate(g, r, np.full(3, 0.9), t_end=1.0, max_points=None)
    assert len(full.times) == 31  # 30 steps of 1/30
    for max_points in (31, 1000, np.int64(31)):
        traj = integrate(g, r, np.full(3, 0.9), t_end=1.0, max_points=max_points)
        assert np.array_equal(traj.times, full.times) and np.array_equal(traj.states, full.states)
    ends = integrate(g, r, np.full(3, 0.9), t_end=1.0, max_points=2)
    assert np.array_equal(ends.times, full.times[[0, 30]])
    assert np.array_equal(ends.states, full.states[[0, 30]])


def test_integrate_memory_independent_of_horizon():
    rng = np.random.default_rng(3)
    g = random_connected_graph(30, rng)
    r = random_rates_at(g, rng, 2.0)
    v0 = np.full(30, 0.5)
    tracemalloc.start()
    try:
        traj = integrate(g, r, v0, t_end=20.0, dt_hint=1e-3, max_points=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) <= 100
    assert peak < 0.5e6  # all 20,000 steps of 30 states would take 4.8 MB


def test_integrate_respects_dt_hint():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    # a hint finer than the stability default is honored exactly
    traj = integrate(g, r, np.full(3, 0.9), t_end=1.0, dt_hint=0.02, max_points=None)
    assert abs(traj.times[1] - 0.02) < 1e-12
    assert len(traj.times) == 51
    # a coarser hint is capped at the stability default (0.1 / max rate)
    capped = integrate(g, r, np.full(3, 0.9), t_end=1.0, dt_hint=0.25, max_points=None)
    assert abs(capped.times[1] - 1.0 / 30.0) < 1e-12


def test_integrate_fourth_order_convergence():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 2.0, 1.0)
    v0 = np.full(3, 0.9)
    ref = integrate(g, r, v0, t_end=1.0, dt_hint=0.0005).states[-1]
    err = {}
    for dt in (0.02, 0.01):
        err[dt] = np.abs(integrate(g, r, v0, t_end=1.0, dt_hint=dt).states[-1] - ref).max()
    ratio = err[0.02] / err[0.01]
    assert 8.0 < ratio < 32.0


def test_integrate_argument_validation():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    with pytest.raises(InputError):
        integrate(g, r, np.full(3, 0.5), t_end=-1.0)
    with pytest.raises(InputError):
        integrate(g, r, np.full(3, 0.5), t_end=1.0, dt_hint=0.0)
    with pytest.raises(InputError, match="length"):
        integrate(g, r, np.full(4, 0.5), t_end=1.0)


@pytest.mark.parametrize("max_points", [1, 0, -5, 2.5])
def test_integrate_rejects_max_points_below_two(max_points):
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    for t_end in (1.0, 0.0):
        with pytest.raises(InputError, match="max_points") as info:
            integrate(g, r, np.full(3, 0.5), t_end=t_end, max_points=max_points)
        assert info.value.code == "invalid-argument"
