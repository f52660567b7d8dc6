"""Symmetric eigenproblems and threshold-related matrices.

The dominant eigenpair comes from LAPACK through ``numpy.linalg.eigh``,
which computes every eigenpair of a symmetric matrix directly, so the
+/-lambda_max pairs of bipartite graphs (stars, paths, grids) need no
special handling.  The pair is checked before it is returned: the
eigen-residual, the simplicity of the Perron root and the strict
positivity of its vector.  Callers that read only the largest eigenvalue
take it from ``numpy.linalg.eigvalsh`` and certify it by inertia
(Cholesky) instead; both routes apply the same simplicity rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InputError, NumericalError
from .graphs import Graph, _floats, _positive_vector, _vector

__all__ = [
    "GeneralizedLaplacian",
    "dominant_eigenpair",
    "effective_adjacency",
    "generalized_laplacian",
    "gerschgorin_intervals",
]


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = _floats(m, "matrix", code="invalid-matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InputError(f"expected a non-empty square matrix, got shape {m.shape}", code="invalid-matrix")
    largest = float(np.abs(m).max())  # inf or nan when any entry is
    if not math.isfinite(largest):
        raise InputError("matrix contains non-finite entries", code="invalid-matrix")
    if float(np.abs(m - m.T).max()) > 1e-12 * max(1.0, largest):
        raise InputError("matrix is not symmetric", code="invalid-matrix")
    return m


def _eigen(linalg_op, m: np.ndarray) -> np.ndarray:
    """Run a numpy.linalg eigensolver, a failure to converge raising ``no-convergence``."""
    try:
        return linalg_op(m)
    except np.linalg.LinAlgError:
        raise NumericalError("symmetric eigensolver did not converge", code="no-convergence") from None


def _check_simple(eigenvalues: np.ndarray) -> None:
    """The Perron-simplicity rule: lambda_max must exceed the next eigenvalue by more
    than 1e-10 max(1, lambda_max), else ``reducible-matrix``; a single eigenvalue is simple."""
    lam = float(eigenvalues[-1])
    if eigenvalues.size > 1 and lam - float(eigenvalues[-2]) <= 1e-10 * max(1.0, lam):
        raise NumericalError("dominant eigenvalue is not simple; matrix is reducible", code="reducible-matrix")


def dominant_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and positive unit eigenvector of a symmetric
    non-negative irreducible matrix.

    The Perron root of such a matrix is simple and its eigenvector is
    strictly positive; a repeated top eigenvalue or a vector with a
    non-positive entry means the input is reducible and raises.
    """
    m = _check_symmetric(m)
    if m.min() < 0:
        raise InputError("matrix must be entrywise non-negative", code="invalid-matrix")
    row_max = float(m.sum(axis=1).max())
    if row_max == 0.0:
        raise InputError("matrix is identically zero", code="invalid-matrix")
    eigenvalues, vectors = _eigen(np.linalg.eigh, m)
    lam, x = float(eigenvalues[-1]), vectors[:, -1]
    if x[0] < 0:
        x = -x
    resid = float(np.abs(m @ x - lam * x).max())
    if resid > 1e-11 * max(1.0, row_max):
        raise NumericalError(f"eigen-residual {resid:.3e} exceeds tolerance", code="no-convergence")
    _check_simple(eigenvalues)
    if x.min() <= 0:
        raise NumericalError("dominant eigenvector is not strictly positive", code="no-convergence")
    return lam, x


def _each(gufunc: str, *stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy.linalg's LAPACK gufunc of that name ("cholesky_lo", "solve" or
    "inv", behind numpy.linalg.cholesky, solve and inv) on stacks of systems
    shaped (..., n, n), and whether each succeeded: (out, ok), ok shaped (...).

    numpy.linalg raises for a whole stack when one system fails; its gufuncs
    leave a failed system nan-filled and only flag the floating-point status,
    ignored here.  So ok is whether a system's last output entry is finite,
    which also fails a system with a nan entry that LAPACK lets through."""
    with np.errstate(all="ignore"):
        out = getattr(_umath_linalg, gufunc)(*stacks)
    return out, np.isfinite(out[..., -1, -1])


def _below(m: np.ndarray, c) -> np.ndarray:
    """Whether every eigenvalue of the symmetric m is below c, that is,
    whether c I - m has a Cholesky factorization.  For a stack m shaped
    (..., n, n), with c a number or shaped (..., 1), one answer per matrix,
    shaped (...)."""
    n = m.shape[-1]
    shifted = np.negative(m)
    shifted.reshape(m.shape[:-2] + (n * n,))[..., :: n + 1] += c
    return _each("cholesky_lo", shifted)[1]


def _lambda_max(m: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric non-negative irreducible matrix,
    without its eigenvector.

    The value comes from ``numpy.linalg.eigvalsh``.  It is returned only
    if two Cholesky attempts certify that the true lambda_max lies in
    [lam (1 - 1e-10), lam (1 + 1e-10)), raising ``no-convergence``
    otherwise, and if it is simple, raising ``reducible-matrix`` otherwise,
    as ``dominant_eigenpair`` does.
    """
    eigenvalues = _eigen(np.linalg.eigvalsh, m)
    lam = float(eigenvalues[-1])
    width = 1e-10 * abs(lam)
    if not _below(m, lam + width) or _below(m, lam - width):
        raise NumericalError(f"eigenvalue {lam!r} fails its inertia certificate", code="no-convergence")
    _check_simple(eigenvalues)
    return lam


def effective_adjacency(g: Graph, tau: np.ndarray) -> np.ndarray:
    """Symmetric effective-rate coupling diag(sqrt tau) A diag(sqrt tau).

    Its spectral radius equals one exactly on the critical surface of the
    mean-field model, above one in the endemic regime.
    """
    return _coupling(g, _positive_vector(tau, g.n, "tau"))


def _coupling(g: Graph, tau: np.ndarray) -> np.ndarray:
    """effective_adjacency of valid tau shaped (..., n): one R per entry of the leading axes."""
    root = np.sqrt(tau)
    r = root[..., :, None] * g.adjacency
    r *= root[..., None, :]
    return r


@dataclass(frozen=True, eq=False)
class GeneralizedLaplacian:
    """diag(q) - A for a node weight vector q."""

    q: np.ndarray
    matrix: np.ndarray = field(repr=False)


def generalized_laplacian(g: Graph, q: np.ndarray) -> GeneralizedLaplacian:
    q = _vector(q, g.n, "q")
    matrix = np.diag(q) - g.adjacency
    return GeneralizedLaplacian(q=q, matrix=matrix)


def gerschgorin_intervals(g: Graph, q: np.ndarray) -> np.ndarray:
    """Per-row eigenvalue enclosures [q_i - d_i, q_i + d_i], shape (n, 2)."""
    q = _vector(q, g.n, "q")
    d = g.degrees.astype(float)
    return np.column_stack([q - d, q + d])
