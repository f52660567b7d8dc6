"""Shared graph builders, rate helpers, and independent numeric oracles.

Oracles here deliberately avoid the library's own spectral and solver
routines (numpy.linalg / brute-force enumeration instead) so that a bug
in the implementation cannot silently validate itself.
"""

import os
import signal
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import hetsis
from hetsis import Graph, RateConfig, solve


def complete_graph(n: int) -> Graph:
    return Graph.from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """Star on n nodes: hub 0 plus n - 1 leaves."""
    return Graph.from_edges([(0, i) for i in range(1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return Graph.from_edges(edges)


def lattice_graph(rows: int, cols: int) -> Graph:
    """Grid graph with 4-neighbour connectivity, row-major node ids."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return Graph.from_edges(edges)


def random_connected_graph(n: int, rng: np.random.Generator, extra: float = 0.15) -> Graph:
    """Random spanning tree plus a Bernoulli sprinkling of extra edges."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    present = set(edges)
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in present and rng.random() < extra:
                edges.append((i, j))
                present.add((i, j))
    return Graph.from_edges(edges)


@contextmanager
def within_seconds(seconds: int):
    """Turn a call that never returns into a TimeoutError after ``seconds``."""

    def deadline(signum, frame):
        raise TimeoutError(f"call did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, deadline)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def homogeneous_rates(g: Graph, tau: float, delta: float = 1.0) -> RateConfig:
    return RateConfig.for_graph(g, tau * delta, delta)


def random_rates_at(g: Graph, rng: np.random.Generator, target: float) -> RateConfig:
    """Random heterogeneous rates rescaled so that lambda_max(R) = target.

    Scaling all beta by c scales R by c, so one eigenvalue evaluation
    pins the spectral radius exactly where the test wants it.
    """
    beta = rng.uniform(0.5, 2.0, g.n)
    delta = rng.uniform(0.5, 2.0, g.n)
    tau = beta / delta
    root = np.sqrt(tau)
    lam = float(np.linalg.eigvalsh(root[:, None] * g.adjacency * root[None, :])[-1])
    return RateConfig.for_graph(g, beta * (target / lam), delta)


def eigvalsh_lambda_max(m: np.ndarray) -> float:
    """LAPACK route, independent of the package's own eigensolvers."""
    return float(np.linalg.eigvalsh(m)[-1])


def brute_walk_counts(g: Graph) -> tuple[int, int]:
    """Triple-loop count of length-3 walks (total and closed)."""
    a = g.adjacency.astype(int)
    n = g.n
    total = 0
    closed = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    w = a[i, j] * a[j, k] * a[k, l]
                    total += w
                    if i == l:
                        closed += w
    return total, closed


def fd_first(g: Graph, rates: RateConfig, i: int, h: float | None = None) -> np.ndarray:
    """Central finite difference of v_inf in delta_i."""
    base = float(rates.delta[i])
    if h is None:
        h = 1e-5 * max(1.0, base)
    out = []
    for shift in (base + h, base - h):
        delta = rates.delta.copy()
        delta[i] = shift
        out.append(solve(g, RateConfig.for_graph(g, rates.beta, delta), tol=1e-13).v_inf)
    return (out[0] - out[1]) / (2.0 * h)


def fd_second(g: Graph, rates: RateConfig, i: int, h: float | None = None) -> np.ndarray:
    """Central second difference of v_inf in delta_i."""
    base = float(rates.delta[i])
    if h is None:
        h = 1e-3 * max(1.0, base)
    states = []
    for shift in (base + h, base, base - h):
        delta = rates.delta.copy()
        delta[i] = shift
        states.append(solve(g, RateConfig.for_graph(g, rates.beta, delta), tol=1e-13).v_inf)
    return (states[0] - 2.0 * states[1] + states[2]) / h**2


def fd_first_tied(g: Graph, rates: RateConfig, h: float = 1e-5) -> np.ndarray:
    """Central difference moving every curing rate together."""
    out = []
    for shift in (h, -h):
        delta = rates.delta + shift
        out.append(solve(g, RateConfig.for_graph(g, rates.beta, delta), tol=1e-13).v_inf)
    return (out[0] - out[1]) / (2.0 * h)


def fd_second_tied(g: Graph, rates: RateConfig, h: float = 1e-3) -> np.ndarray:
    states = []
    for shift in (h, 0.0, -h):
        delta = rates.delta + shift
        states.append(solve(g, RateConfig.for_graph(g, rates.beta, delta), tol=1e-13).v_inf)
    return (states[0] - 2.0 * states[1] + states[2]) / h**2


def subprocess_env() -> dict:
    """Environment whose PYTHONPATH finds this checkout's package first."""
    src = str(Path(hetsis.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
