"""Dense symmetric eigensolvers and graph-derived matrices.

numpy.linalg.eigvalsh is the full-spectrum oracle.  Closed-form spectra,
whose largest eigenvalues check dominant_eigenpair:
  triangle       eigenvalues (-1, -1, 2)
  star on 4      eigenvalues (-sqrt(3), 0, 0, sqrt(3)), from lambda^2 (lambda^2 - 3)
  path on 4      roots of lambda^4 - 3 lambda^2 + 1, i.e. +-phi and +-1/phi
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hetsis
from hetsis import (
    CRITICAL_BAND,
    InputError,
    NumericalError,
    dominant_eigenpair,
    effective_adjacency,
    generalized_laplacian,
    gerschgorin_intervals,
    spectral,
    steady_state,
)

from conftest import (
    complete_graph,
    eigvalsh_lambda_max,
    lattice_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from test_steady_state import _regime_cases

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def test_dominant_eigenpair_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(InputError, match="symmetric"):
        dominant_eigenpair(m)


@pytest.mark.parametrize("solver", [dominant_eigenpair])
def test_empty_matrix_is_an_input_error(solver):
    with pytest.raises(InputError) as info:
        solver(np.zeros((0, 0)))
    assert info.value.code == "invalid-matrix"


def test_dominant_eigenpair_of_a_single_entry():
    # one eigenvalue is simple; there is no second one to compare with
    lam, vec = dominant_eigenpair(np.array([[2.0]]))
    assert lam == 2.0
    assert np.array_equal(vec, [1.0])


def test_dominant_eigenpair_closed_forms():
    lam, vec = dominant_eigenpair(complete_graph(3).adjacency)
    assert abs(lam - 2.0) < 1e-12
    assert np.allclose(vec, np.full(3, 1.0 / np.sqrt(3.0)), atol=1e-10)

    lam, _ = dominant_eigenpair(star_graph(4).adjacency)
    assert abs(lam - np.sqrt(3.0)) < 1e-12

    lam, _ = dominant_eigenpair(path_graph(4).adjacency)
    assert abs(lam - PHI) < 1e-12


def test_dominant_eigenpair_positive_unit_vector():
    g = random_connected_graph(15, np.random.default_rng(0))
    lam, vec = dominant_eigenpair(g.adjacency)
    assert np.all(vec > 0)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert np.abs(g.adjacency @ vec - lam * vec).max() < 1e-10 * max(1.0, lam)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=10**6))
def test_dominant_eigenpair_matches_lapack(n, seed):
    # includes trees and near-bipartite graphs, whose +-lambda pair must
    # not be mistaken for a repeated Perron root
    g = random_connected_graph(n, np.random.default_rng(seed), extra=0.05)
    lam, _ = dominant_eigenpair(g.adjacency)
    assert abs(lam - eigvalsh_lambda_max(g.adjacency)) < 1e-10 * max(1.0, lam)


def test_effective_adjacency_entries():
    g = path_graph(3)
    tau = np.array([1.0, 4.0, 9.0])
    r = effective_adjacency(g, tau)
    assert np.array_equal(r, r.T)
    assert np.all(np.diag(r) == 0)
    assert abs(r[0, 1] - 2.0) < 1e-15
    assert abs(r[1, 2] - 6.0) < 1e-15


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_effective_adjacency_scale_linearity(n, seed, c):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    tau = rng.uniform(0.2, 5.0, n)
    lam, _ = dominant_eigenpair(effective_adjacency(g, tau))
    lam_scaled, _ = dominant_eigenpair(effective_adjacency(g, c * tau))
    assert abs(lam_scaled - c * lam) < 1e-10 * max(1.0, c * lam)


def test_generalized_laplacian_classical_case():
    g = random_connected_graph(10, np.random.default_rng(7))
    q = generalized_laplacian(g, g.degrees.astype(float))
    lam = np.linalg.eigvalsh(q.matrix)
    assert abs(lam[0]) < 1e-10
    assert lam[1] > 1e-10
    ones = np.ones(g.n)
    assert np.abs(q.matrix @ ones).max() < 1e-12


def test_generalized_laplacian_keeps_a_copy_of_q():
    # writing the caller's q later leaves q and matrix in step
    g = random_connected_graph(6, np.random.default_rng(5))
    q = g.degrees.astype(float)
    lap = generalized_laplacian(g, q)
    assert lap.q is not q
    q[0] += 10.0
    assert np.array_equal(lap.q, g.degrees) and np.array_equal(np.diag(lap.matrix), lap.q)


def test_generalized_laplacian_loading_shift_gives_definiteness():
    # positive semi-definite at q, strictly definite at any q* > q
    g = random_connected_graph(8, np.random.default_rng(3))
    base = g.degrees.astype(float)
    bump = np.random.default_rng(4).uniform(0.05, 0.5, g.n)
    assert np.linalg.eigvalsh(generalized_laplacian(g, base + bump).matrix)[0] > 1e-10


def test_gerschgorin_intervals_cover_spectrum():
    g = random_connected_graph(12, np.random.default_rng(9))
    q = np.random.default_rng(10).uniform(0.5, 3.0, g.n)
    intervals = gerschgorin_intervals(g, q)
    assert np.allclose(intervals[:, 0], q - g.degrees)
    assert np.allclose(intervals[:, 1], q + g.degrees)
    lam = np.linalg.eigvalsh(generalized_laplacian(g, q).matrix)
    assert lam.min() >= intervals[:, 0].min() - 1e-12
    assert lam.max() <= intervals[:, 1].max() + 1e-12


@pytest.mark.parametrize("build", [generalized_laplacian, gerschgorin_intervals])
@pytest.mark.parametrize(
    "q, code",
    [(1.5, "length-mismatch"), (np.ones(4), "length-mismatch"), (np.array([1.0, np.nan, 1.0]), "invalid-rates")],
)
def test_node_weights_checked_by_one_rule(build, q, code):
    # a scalar is not broadcast and a NaN weight gives no NaN enclosure
    with pytest.raises(InputError) as info:
        build(path_graph(3), q)
    assert info.value.code == code


def test_below_leaves_its_input_unchanged():
    m = complete_graph(3).adjacency + np.diag([1.0, 2.0, 3.0])  # eigenvalues about 0.32, 1.46, 4.21
    kept = m.copy()
    assert spectral._below(m, 4.25) and not spectral._below(m, 4.2)
    assert m.tobytes() == kept.tobytes()
    # a stack answers per matrix what each matrix gets alone: every R of
    # _regime_cases (offsets +-0.5 down to +-5e-10, across both band edges)
    # below the Collatz-Wielandt crossover, zero-padded to one size, which
    # keeps its eigenvalues above zero, then a matrix with eigenvalue 2 and
    # a nan matrix
    rs = [effective_adjacency(g, r.tau) for g, r in _regime_cases() if g.n < spectral._BRACKET_MIN_N]
    n = max(len(r) for r in rs)
    stack = np.zeros((len(rs) + 2, n, n))
    for k, r in enumerate(rs):
        stack[k, : len(r), : len(r)] = r
    stack[-2] = 2.0 * np.eye(n)
    stack[-1] = np.nan
    kept = stack.copy()
    edges = (1.0 - CRITICAL_BAND, 1.0 + CRITICAL_BAND)
    per_matrix = np.resize(edges, len(stack))[:, None]
    for c in (*edges, per_matrix):
        below = spectral._below(stack, c)
        assert below.shape == (len(stack),) and below.dtype == bool
        alone = [spectral._below(m, float(np.broadcast_to(c, (len(stack), 1))[k, 0])) for k, m in enumerate(stack)]
        assert below.tolist() == alone
        assert not below[-2] and not below[-1]
    endemic = steady_state._endemic(stack)
    assert endemic.shape == (len(stack),) and endemic.dtype == bool
    assert endemic.tolist() == [bool(steady_state._endemic(m)) for m in stack]
    alone = [steady_state._side(m) for m in stack]
    assert all(type(side) is int for side in alone)
    assert endemic.tolist() == [side == 1 for side in alone] and alone[:-2] == [steady_state._side(r) for r in rs]
    assert set(alone[:-2]) == {-1, 0, 1} and alone[-2:] == [1, 1]
    assert stack.tobytes() == kept.tobytes()


def test_private_linalg_kernels_stay_in_spectral_and_match_numpy_linalg():
    # spectral._each runs numpy's private LAPACK gufuncs, which leave a failed
    # system nan-filled instead of raising; this pins that convention
    users = sorted(p.name for p in Path(hetsis.__file__).parent.glob("*.py") if "_umath_linalg" in p.read_text())
    assert users == ["spectral.py"]
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 17):
        base = rng.normal(size=(8, n, n))
        spd = base @ base.transpose(0, 2, 1) + n * np.eye(n)
        mixed = spd.copy()
        mixed[1] -= 3.0 * n * np.eye(n)  # indefinite
        mixed[3] = 0.0  # singular
        mixed[4, -1] = mixed[4, 0]  # singular for n > 1
        mixed[6] = base[6]  # general, not symmetric
        rhs = rng.normal(size=(8, n, 3))
        checks = (
            ("cholesky_lo", np.linalg.cholesky, (mixed,)),
            ("inv", np.linalg.inv, (mixed,)),
            ("solve", np.linalg.solve, (mixed, rhs)),
            ("solve", np.linalg.solve, (mixed, rhs[..., :1])),
        )
        for name, reference, stacks in checks:
            out, ok = spectral._each(name, *stacks)
            assert ok.shape == (8,)
            for k in range(8):
                try:
                    expected = reference(*(stack[k] for stack in stacks))
                except np.linalg.LinAlgError:
                    assert not ok[k], (n, name, k)
                    continue
                assert ok[k] and out[k].tobytes() == expected.tobytes(), (n, name, k)
            assert not ok.all()


def test_dominant_eigenpair_rejects_reducible_input():
    # two disjoint triangles: lambda = 2 twice, so no unique positive vector exists
    triangle = complete_graph(3).adjacency
    m = np.zeros((6, 6))
    m[:3, :3] = triangle
    m[3:, 3:] = triangle
    with pytest.raises(NumericalError) as info:
        dominant_eigenpair(m)
    assert info.value.code == "reducible-matrix"


def test_lambda_max_brackets_a_double_root_on_both_routes():
    # two copies of one graph: lambda_max is double at every order.  Neither
    # route tests simplicity, since R of a Graph is irreducible; each bracket
    # still holds eigvalsh's lambda_max: the eigvalsh route's below the
    # crossover, the Collatz-Wielandt route's from it on
    rng = np.random.default_rng(6)
    for half in (8, spectral._BRACKET_MIN_N // 2):
        r = effective_adjacency(random_connected_graph(half, rng), rng.uniform(0.5, 2.0, half))
        m = np.zeros((2 * half, 2 * half))
        m[:half, :half] = m[half:, half:] = r
        top = np.linalg.eigvalsh(m)[-2:]
        assert top[1] - top[0] <= 1e-10 * top[1]
        lam, lo, hi = spectral._lambda_max(m)
        assert lo <= lam < hi and lo <= top[1] < hi
        if 2 * half >= spectral._BRACKET_MIN_N:
            assert spectral._perron_bracket(m) == (lam, lo, hi)


class _Counted(np.ndarray):
    """A matrix view that counts its products with vectors."""

    products = 0

    def __matmul__(self, other):
        _Counted.products += 1
        return np.asarray(self) @ other


@pytest.mark.parametrize("rows", [13, 16])
def test_bracket_route_leaves_a_lattice_after_a_few_power_steps(rows):
    # a lattice's second eigenvalue lies close to its first, so the power
    # steps contract too slowly to bring the bracket within _NODA_FROM in
    # _POWER_STEPS steps; their contraction shows it within a few steps, and
    # lambda_max comes from eigvalsh with no Noda solve spent
    rng = np.random.default_rng(29)
    g = lattice_graph(rows, rows)
    r = effective_adjacency(g, rng.uniform(0.5, 1.5, g.n))
    assert g.n >= spectral._BRACKET_MIN_N
    _Counted.products = 0
    assert spectral._perron_bracket(r.view(_Counted)) is None
    assert _Counted.products <= 8
    lam = spectral._lambda_max(r)[0]
    assert abs(lam - eigvalsh_lambda_max(r)) <= 1e-12 * lam
