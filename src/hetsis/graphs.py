"""Undirected simple graphs and per-node spreading rates.

Graphs are dense 0/1 adjacency matrices with contiguous integer node ids.
Only connected simple graphs are accepted: self-loops, duplicate edges,
id gaps, and disconnected inputs are rejected at construction so every
downstream routine may assume irreducibility.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError

__all__ = ["Graph", "RateConfig", "parse_edge_list", "format_edge_list", "walk_counts"]


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Graph:
    """Connected simple undirected graph on nodes 0..n-1."""

    n: int
    adjacency: np.ndarray
    degrees: np.ndarray = field(repr=False)
    link_count: int

    @classmethod
    def from_edges(cls, edges, n: int | None = None) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs.

        Node count defaults to max id + 1.  Every id in 0..n-1 must occur
        in at least one edge; a gap would silently create an isolated node.
        """
        edges = list(edges)
        if not edges:
            raise InputError("empty edge list", code="parse-error")
        seen: set[tuple[int, int]] = set()
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise InputError(f"edge {edge!r} is not a (u, v) pair", code="parse-error") from None
            u, v = _integer(u, "node id"), _integer(v, "node id")
            if u < 0 or v < 0:
                raise InputError(f"negative node id in edge ({u}, {v})", code="parse-error")
            if u == v:
                raise InputError(f"self-loop at node {u}", code="self-loop")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge ({u}, {v})", code="duplicate-edge")
            seen.add(key)
        max_id = max(max(e) for e in seen)
        n = max_id + 1 if n is None else _integer(n, "n")
        if max_id >= n:
            raise InputError(f"node id {max_id} exceeds declared size {n}", code="parse-error")
        used = {u for e in seen for u in e}
        missing = sorted(set(range(n)) - used)
        if missing:
            raise InputError(f"gap in node ids, unused: {missing}", code="gap-in-node-ids")
        adj = np.zeros((n, n))
        for u, v in seen:
            adj[u, v] = 1.0
            adj[v, u] = 1.0
        _require_connected(adj)
        degrees = adj.sum(axis=1).astype(np.int64)
        return cls(
            n=n,
            adjacency=_frozen_array(adj),
            degrees=_frozen_array(degrees),
            link_count=len(seen),
        )

    def edges(self) -> list[tuple[int, int]]:
        iu, iv = np.triu_indices(self.n, k=1)
        mask = self.adjacency[iu, iv] > 0
        return list(zip(iu[mask].tolist(), iv[mask].tolist()))

    def neighbors(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[i])

    @cached_property
    def spectral_radius(self) -> float:
        """lambda_max(A), computed on first use and kept (the adjacency is frozen)."""
        return float(np.linalg.eigvalsh(self.adjacency)[-1])

    @cached_property
    def _walk_counts(self) -> tuple[float, float]:
        """``walk_counts(self)``, computed on first use and kept."""
        a = self.adjacency
        ones = np.ones(self.n)
        return float(ones @ (a @ (a @ (a @ ones)))), float(np.sum((a @ a) * a))


def _require_connected(adj: np.ndarray) -> None:
    """Breadth-first from node 0, one numpy sweep per level: the frontier is
    every unseen neighbour of the last one."""
    seen = frontier = np.arange(adj.shape[0]) == 0
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    if not seen.all():
        raise InputError("disconnected graph", code="disconnected-graph")


def parse_edge_list(text: str) -> Graph:
    """Parse a whitespace-separated edge list ("u v" per line, # comments)."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected two node ids, got {raw!r}", code="parse-error")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer node id in {raw!r}", code="parse-error") from None
        edges.append((u, v))
    return Graph.from_edges(edges)


def format_edge_list(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def walk_counts(g: Graph) -> tuple[float, float]:
    """Total and closed walks of length three, by matrix powers.

    Returns (total, closed) where total counts all directed 3-step walks
    and closed counts those returning to their start node.  The closed
    count equals six times the number of triangles.  The pair is computed
    once per graph and kept, like ``Graph.spectral_radius``.
    """
    return g._walk_counts


def _floats(value, name: str, code: str = "invalid-rates") -> np.ndarray:
    """value as a float array (the caller's own where it is one); anything but booleans,
    integers and floats, such as a numeric string or a ragged nesting, raises ``code``."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind in "biuf":
            return arr.astype(float, copy=False)
    except (TypeError, ValueError):  # a ragged nesting
        pass
    raise InputError(f"{name} must be numeric, got {value!r}", code=code)


def _vector(value, n: int, name: str) -> np.ndarray:
    """The node-vector rule: numeric, length n, every entry finite."""
    arr = _floats(value, name)
    if arr.shape != (n,):
        raise InputError(f"{name} must have length {n}, got shape {arr.shape}", code="length-mismatch")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite entries", code="invalid-rates")
    return arr


def _positive_vector(value, n: int, name: str) -> np.ndarray:
    """The rate-vector rule: a node vector (``_vector``) with every entry strictly positive."""
    arr = _vector(value, n, name)
    if np.any(arr <= 0):
        raise InputError(f"{name} must be strictly positive", code="invalid-rates")
    return arr


def _integer(value, name: str, minimum: int | None = None) -> int:
    """The integer-argument rule: an integer type (a float is refused even
    when whole), at least ``minimum`` when one is given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}", code="invalid-argument") from None
    if minimum is not None and value < minimum:
        raise InputError(f"{name} must be at least {minimum}, got {value}", code="invalid-argument")
    return value


def _real(value, name: str, minimum: float | None = None, strict: bool = False) -> float:
    """The real-argument rule: a real scalar (an int, a float, a numpy scalar
    or a 0-d array; a string is refused even when numeric), finite, and at
    least ``minimum`` (above it if ``strict``) when one is given, as a float."""
    arr = np.asarray(value)
    if arr.ndim != 0 or arr.dtype.kind not in "biuf":
        raise InputError(f"{name} must be a real number, got {value!r}", code="invalid-argument")
    value = float(arr)
    past = minimum is not None and (value <= minimum if strict else value < minimum)
    if past or not np.isfinite(value):
        bound = "" if minimum is None else f" and {'greater than' if strict else 'at least'} {minimum}"
        raise InputError(f"{name} must be finite{bound}, got {value}", code="invalid-argument")
    return value


def _node(g: Graph, i) -> int:
    """Node index i, which must be an integer in 0..n-1."""
    i = _integer(i, "node index")
    if not 0 <= i < g.n:
        raise InputError(f"node index {i} out of range", code="invalid-argument")
    return i


def _as_rate_vector(value, n: int, name: str) -> np.ndarray:
    """A rate vector, a scalar broadcasting to every node."""
    arr = _floats(value, name)
    return _positive_vector(np.full(n, float(arr)) if arr.ndim == 0 else arr, n, name)


@dataclass(frozen=True, eq=False)
class RateConfig:
    """Per-node infection rates beta, curing rates delta, and derived fields.

    tau is the per-node effective rate beta/delta; gamma[i] is the total
    infection pressure sum_j a_ij beta_j that node i sees when every
    neighbor is infected.
    """

    beta: np.ndarray
    delta: np.ndarray
    tau: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)

    @classmethod
    def for_graph(cls, g: Graph, beta, delta) -> "RateConfig":
        b = _as_rate_vector(beta, g.n, "beta").copy()  # frozen below, so never the caller's array
        d = _as_rate_vector(delta, g.n, "delta").copy()
        return cls(
            beta=_frozen_array(b),
            delta=_frozen_array(d),
            tau=_frozen_array(b / d),
            gamma=_frozen_array(g.adjacency @ b),
        )

    @classmethod
    def from_tau(cls, g: Graph, tau) -> "RateConfig":
        """Effective rates only: unit curing rates, beta = tau."""
        t = _as_rate_vector(tau, g.n, "tau")
        return cls.for_graph(g, t, np.ones(g.n))

    @classmethod
    def from_json(cls, g: Graph, text: str) -> "RateConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"rates file is not valid JSON: {exc}", code="parse-error") from None
        if not isinstance(doc, dict) or "beta" not in doc or "delta" not in doc:
            raise InputError('rates file must be an object with "beta" and "delta"', code="parse-error")
        return cls.for_graph(g, doc["beta"], doc["delta"])
