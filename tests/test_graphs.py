"""Graph construction, edge-list parsing, and rate configuration."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetsis import (
    Graph,
    InputError,
    RateConfig,
    build_exact_chain,
    complete_graph_lambda_max,
    critical_perturbation,
    critical_scaling,
    dominant_eigenpair,
    effective_adjacency,
    generalized_laplacian,
    gerschgorin_intervals,
    format_edge_list,
    integrate,
    mean_field_rhs,
    optimal_curing_rate,
    parse_edge_list,
    simulate,
    solve,
    transient_distribution,
    walk_counts,
)

from conftest import (
    brute_walk_counts,
    complete_graph,
    eigvalsh_lambda_max,
    path_graph,
    random_connected_graph,
    star_graph,
)


def test_from_edges_basic_shape():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    assert g.n == 3
    assert g.link_count == 3
    assert np.array_equal(g.degrees, [2, 2, 2])
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert np.all(np.diag(g.adjacency) == 0)
    assert set(map(tuple, g.edges())) == {(0, 1), (0, 2), (1, 2)}
    assert list(g.neighbors(1)) == [0, 2]


def test_from_edges_order_and_orientation_insensitive():
    a = Graph.from_edges([(0, 1), (1, 2)])
    b = Graph.from_edges([(2, 1), (1, 0)])
    assert np.array_equal(a.adjacency, b.adjacency)


@pytest.mark.parametrize(
    "edges,fragment",
    [
        ([(0, 0)], "self-loop"),
        ([(0, 1), (1, 0)], "duplicate"),
        ([(0, 1), (0, 1)], "duplicate"),
        ([(-1, 2)], "negative"),
        ([(0, 2)], "gap"),
        ([(0, 1), (2, 3)], "disconnected"),
        ([], "empty"),
    ],
)
def test_from_edges_rejects_malformed(edges, fragment):
    with pytest.raises(InputError, match=fragment):
        Graph.from_edges(edges)


@pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5])
def test_from_edges_refuses_an_edge_that_is_not_a_pair(edge):
    with pytest.raises(InputError, match="pair") as info:
        Graph.from_edges([(0, 1), edge])
    assert info.value.code == "parse-error"


@pytest.mark.parametrize("edges, n", [([(0, 1.7), (1, 2.2), (2, 0)], None), ([(0, 1), (1, 2)], 2.5)])
def test_from_edges_refuses_non_integer_ids_and_size(edges, n):
    # int() would truncate 1.7 and 2.2 and build a triangle
    with pytest.raises(InputError) as info:
        Graph.from_edges(edges, n=n)
    assert info.value.code == "invalid-argument"


def non_numeric_calls():
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    chain = build_exact_chain(g, r)
    p0 = np.eye(8)[7]
    calls = {  # name: (call, code)
        "integrate-v0-dict": (lambda: integrate(g, r, {"a": 1}, 1.0), "state-out-of-range"),
        "integrate-v0-str": (lambda: integrate(g, r, "x", 1.0), "state-out-of-range"),
        "integrate-t_end": (lambda: integrate(g, r, np.full(3, 0.5), "x"), "invalid-argument"),
        "mean_field_rhs": (lambda: mean_field_rhs(g, r, "x"), "state-out-of-range"),
        "transient_distribution-p0": (lambda: transient_distribution(chain, "x", 1.0), "invalid-distribution"),
        "transient_distribution-t": (lambda: transient_distribution(chain, p0, "x"), "invalid-argument"),
        "critical_perturbation": (lambda: critical_perturbation("x", 3), "invalid-argument"),
        "solve-tol": (lambda: solve(g, r, "x"), "invalid-argument"),
        "simulate-horizon": (lambda: simulate(g, r, "x", 0.0, 1, 0), "invalid-argument"),
        "optimal_curing_rate-price": (lambda: optimal_curing_rate(g, r, 0, "x"), "invalid-argument"),
        "dominant_eigenpair": (lambda: dominant_eigenpair("x"), "invalid-matrix"),
    }
    # numpy.asarray(value, dtype=float) would parse "0.5" as 0.5: every reader
    # of a vector or matrix is also given its numbers as strings, and a ragged
    # nesting of them
    readers = {  # name: (call on the value, code, a valid value)
        "for_graph-beta": (lambda x: RateConfig.for_graph(g, x, 1.0), "invalid-rates", [1.0, 2.0, 3.0]),
        "for_graph-delta": (lambda x: RateConfig.for_graph(g, 1.0, x), "invalid-rates", [1.0, 2.0, 3.0]),
        "from_tau": (lambda x: RateConfig.from_tau(g, x), "invalid-rates", [1.0, 2.0, 3.0]),
        "integrate-v0": (lambda x: integrate(g, r, x, 1.0), "state-out-of-range", [0.5, 0.5, 0.5]),
        "mean_field_rhs": (lambda x: mean_field_rhs(g, r, x), "state-out-of-range", [0.5, 0.5, 0.5]),
        "transient_distribution-p0": (lambda x: transient_distribution(chain, x, 1.0), "invalid-distribution",
                                      p0.tolist()),
        "effective_adjacency": (lambda x: effective_adjacency(g, x), "invalid-rates", [1.0, 2.0, 3.0]),
        "critical_scaling": (lambda x: critical_scaling(g, x), "invalid-rates", [1.0, 2.0, 3.0]),
        "generalized_laplacian": (lambda x: generalized_laplacian(g, x), "invalid-rates", [1.0, 2.0, 3.0]),
        "gerschgorin_intervals": (lambda x: gerschgorin_intervals(g, x), "invalid-rates", [1.0, 2.0, 3.0]),
        "complete_graph_lambda_max": (complete_graph_lambda_max, "invalid-rates", [1.0, 2.0, 3.0]),
        "dominant_eigenpair": (dominant_eigenpair, "invalid-matrix", [[1.0, 2.0], [2.0, 1.0]]),
    }
    for name, (call, code, valid) in readers.items():
        calls[f"{name}-numeric-strings"] = (lambda call=call, x=np.array(valid).astype(str).tolist(): call(x), code)
        calls[f"{name}-ragged"] = (lambda call=call, x=[valid, valid[:-1]]: call(x), code)
    return calls


@pytest.mark.parametrize("name", list(non_numeric_calls()))
def test_non_numeric_arguments_raise_typed_errors(name):
    call, code = non_numeric_calls()[name]
    with pytest.raises(InputError) as info:
        call()
    assert info.value.code == code


def real_argument_calls():
    """name: (call on the value, a value just past its bound or None, its inclusive bound or None)."""
    g = complete_graph(3)
    r = RateConfig.for_graph(g, 3.0, 1.0)
    chain = build_exact_chain(g, r)
    p0, v0 = np.eye(8)[7], np.full(3, 0.5)
    below_zero = np.nextafter(0.0, -1.0)
    return {
        "tol": (lambda x: solve(g, r, x), 0.0, None),
        "t_end": (lambda x: integrate(g, r, v0, x), below_zero, 0.0),
        "dt_hint": (lambda x: integrate(g, r, v0, 1.0, dt_hint=x), 0.0, None),
        "t": (lambda x: transient_distribution(chain, p0, x), below_zero, 0.0),
        "burn_in": (lambda x: simulate(g, r, 4.0, x, 4, 0), below_zero, 0.0),
        "horizon": (lambda x: simulate(g, r, x, 1.0, 4, 0), 1.0, None),  # must exceed burn_in
        "price": (lambda x: optimal_curing_rate(g, r, 0, x), 0.0, None),
        "h2": (lambda x: critical_perturbation(x, 3), None, None),  # finite is its only bound
    }


@pytest.mark.parametrize("name", list(real_argument_calls()))
def test_real_arguments_refuse_non_finite_and_out_of_bound_values(name):
    call, past, _ = real_argument_calls()[name]
    for value in [np.nan, np.inf, -np.inf] + ([] if past is None else [past]):
        with pytest.raises(InputError) as info:
            call(value)
        assert info.value.code == "invalid-argument", value
        assert re.search(rf"\b{name}\b", str(info.value)), (value, str(info.value))


@pytest.mark.parametrize("name", ["t_end", "t", "burn_in"])
def test_real_arguments_accept_their_inclusive_bound(name):
    call, _, bound = real_argument_calls()[name]
    call(bound)


def test_adjacency_is_immutable():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 5


def test_parse_edge_list_comments_and_blanks():
    text = "# triangle\n0 1\n\n1 2  # closing edge\n0 2\n"
    g = parse_edge_list(text)
    assert g.n == 3 and g.link_count == 3


def test_parse_edge_list_reports_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_edge_list("0 1\n1 two\n")
    with pytest.raises(InputError, match="line 3"):
        parse_edge_list("0 1\n1 2\n3\n")


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_edge_list_round_trip(n, seed):
    g = random_connected_graph(n, np.random.default_rng(seed))
    again = parse_edge_list(format_edge_list(g))
    assert np.array_equal(g.adjacency, again.adjacency)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=10**6))
def test_degree_sum_is_twice_links(n, seed):
    g = random_connected_graph(n, np.random.default_rng(seed))
    assert int(g.degrees.sum()) == 2 * g.link_count


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6))
def test_walk_counts_match_brute_force(n, seed):
    g = random_connected_graph(n, np.random.default_rng(seed), extra=0.3)
    total, closed = walk_counts(g)
    brute_total, brute_closed = brute_walk_counts(g)
    assert total == brute_total
    assert closed == brute_closed


def test_walk_counts_triangle():
    total, closed = walk_counts(complete_graph(3))
    assert total == 24.0
    assert closed == 6.0


def test_rate_config_scalar_broadcast():
    g = star_graph(4)
    r = RateConfig.for_graph(g, 2.0, 0.5)
    assert np.allclose(r.beta, 2.0)
    assert np.allclose(r.delta, 0.5)
    assert np.allclose(r.tau, 4.0)
    # gamma_i = sum_j a_ij beta_j: hub sees three leaves, leaves see the hub
    assert np.allclose(r.gamma, [6.0, 2.0, 2.0, 2.0])


def test_rate_config_vector_rates():
    g = path_graph(3)
    r = RateConfig.for_graph(g, [1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert np.allclose(r.tau, 0.5)
    assert np.allclose(r.gamma, [2.0, 4.0, 2.0])


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_rate_config_requires_positive_finite(bad):
    g = path_graph(3)
    with pytest.raises(InputError):
        RateConfig.for_graph(g, bad, 1.0)
    with pytest.raises(InputError):
        RateConfig.for_graph(g, 1.0, [1.0, bad, 1.0])


@pytest.mark.parametrize(
    "bad", [{"a": 1}, "x", [1.0, "y", 1.0], [[1.0], [1.0, 2.0], [1.0]], "2", ["1", "2", "3"], [1.0, None, 1.0]]
)
def test_rate_config_refuses_non_numeric_rates(bad):
    g = path_graph(3)
    for beta, delta in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(InputError) as info:
            RateConfig.for_graph(g, beta, delta)
        assert info.value.code == "invalid-rates"
    with pytest.raises(InputError) as info:
        RateConfig.from_tau(g, bad)
    assert info.value.code == "invalid-rates"


def test_rate_config_rejects_length_mismatch():
    g = path_graph(3)
    with pytest.raises(InputError, match="length"):
        RateConfig.for_graph(g, [1.0, 2.0], 1.0)


def test_rate_config_from_tau_sets_unit_curing():
    g = complete_graph(3)
    r = RateConfig.from_tau(g, 3.0)
    assert np.allclose(r.delta, 1.0)
    assert np.allclose(r.beta, 3.0)
    assert np.allclose(r.tau, 3.0)


def test_rate_config_from_json():
    g = path_graph(3)
    r = RateConfig.from_json(g, '{"beta": [1.0, 2.0, 1.0], "delta": 0.5}')
    assert np.allclose(r.beta, [1.0, 2.0, 1.0])
    assert np.allclose(r.delta, 0.5)
    with pytest.raises(InputError):
        RateConfig.from_json(g, '{"beta": [1.0, 2.0, 1.0]}')
    with pytest.raises(InputError):
        RateConfig.from_json(g, "not json")


def test_rate_config_arrays_immutable():
    g = path_graph(3)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    with pytest.raises(ValueError):
        r.beta[0] = 9.0


def test_rate_config_keeps_copies_of_the_callers_arrays():
    # the configuration freezes what it stores, so it stores its own copies:
    # the caller's float64 arrays stay writable, and writing them later
    # changes nothing in the configuration
    g = path_graph(3)
    beta, delta = np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.0, 2.0])
    r = RateConfig.for_graph(g, beta, delta)
    assert r.beta is not beta and r.delta is not delta
    assert beta.flags.writeable and delta.flags.writeable
    beta[0], delta[0] = 5.0, 7.0
    assert r.beta.tolist() == [1.0, 2.0, 3.0] and r.delta.tolist() == [0.5, 1.0, 2.0]
    assert np.array_equal(r.tau, r.beta / r.delta) and np.array_equal(r.gamma, g.adjacency @ r.beta)
    assert not r.beta.flags.writeable and not r.delta.flags.writeable
    tau = np.array([1.0, 2.0, 3.0])
    assert RateConfig.from_tau(g, tau).beta is not tau and tau.flags.writeable


def test_graph_and_rates_compare_and_hash_by_identity():
    edges = [(0, 1), (1, 2)]
    g, twin = Graph.from_edges(edges), Graph.from_edges(edges)
    r = RateConfig.for_graph(g, 1.0, 1.0)
    assert g == g and g != twin
    assert r == r and r != RateConfig.for_graph(g, 1.0, 1.0)
    assert len({g, twin, g}) == 2 and len({r, r}) == 1


def test_spectral_radius_lazy_and_kept():
    g = random_connected_graph(12, np.random.default_rng(5))
    assert "spectral_radius" not in vars(g)  # construction does not pay for it
    lam = g.spectral_radius
    assert abs(lam - eigvalsh_lambda_max(g.adjacency)) < 1e-12 * lam
    assert vars(g)["spectral_radius"] == lam


def test_walk_counts_lazy_and_kept():
    g = random_connected_graph(12, np.random.default_rng(5))
    assert "_walk_counts" not in vars(g)  # construction does not pay for them
    counts = walk_counts(g)
    assert counts == brute_walk_counts(g)
    assert vars(g)["_walk_counts"] is counts
    assert walk_counts(g) is counts  # a second call multiplies nothing
