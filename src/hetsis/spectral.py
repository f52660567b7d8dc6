"""Symmetric eigenproblems and threshold-related matrices.

The dominant eigenpair comes from LAPACK through ``numpy.linalg.eigh``,
which computes every eigenpair of a symmetric matrix directly, so the
+/-lambda_max pairs of bipartite graphs (stars, paths, grids) need no
special handling.  The pair is checked before it is returned: the
eigen-residual, the simplicity of the Perron root and the strict
positivity of its vector.

Callers that read only the largest eigenvalue get it with a certified
bracket lo <= lambda_max < hi.  From order _BRACKET_MIN_N on, power and
Noda steps drive a positive vector x onto the Perron vector until the
Collatz-Wielandt bounds min_i (m x)_i / x_i <= lambda_max <= max_i
(m x)_i / x_i, widened for rounding, lie within 1e-12 relative.  Below
that order, where that route fails, or where its power steps contract
too slowly to finish in a few steps, ``numpy.linalg.eigvalsh`` gives the
value and two inertia (Cholesky) tests certify it to 1e-10 relative.
Every route applies the same relative simplicity rule: lambda_max must
exceed the next eigenvalue by more than 1e-10 lambda_max.
"""

from __future__ import annotations

import itertools
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

_SIMPLE = 1e-10  # relative gap by which lambda_max must exceed the next eigenvalue
_BRACKET_MIN_N = 150  # order from which _lambda_max tries the Collatz-Wielandt route first; measured crossover
_BRACKET_TOL = 1e-12  # relative width at which that route's bracket is returned
_POWER_STEPS = 32  # power steps at most
_NODA_FROM = 1e-3  # relative bracket width within which Noda steps may take over from slow power steps
_NODA_STEPS = 4  # Noda steps at most


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
    than _SIMPLE lambda_max, else ``reducible-matrix``; a single eigenvalue is simple."""
    lam = float(eigenvalues[-1])
    if eigenvalues.size > 1 and lam - float(eigenvalues[-2]) <= _SIMPLE * lam:
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


def _shifted(m: np.ndarray, c) -> np.ndarray:
    """c I - m, a new array; for a stack m shaped (..., n, n), c is a number
    or shaped (..., 1)."""
    n = m.shape[-1]
    shifted = np.negative(m)
    shifted.reshape(m.shape[:-2] + (n * n,))[..., :: n + 1] += c
    return shifted


def _below(m: np.ndarray, c) -> np.ndarray:
    """Whether every eigenvalue of the symmetric m is below c, that is,
    whether c I - m has a Cholesky factorization.  For a stack m shaped
    (..., n, n), with c a number or shaped (..., 1), one answer per matrix,
    shaped (...)."""
    return _each("cholesky_lo", _shifted(m, c))[1]


def _lambda_max(m: np.ndarray) -> tuple[float, float, float]:
    """Largest eigenvalue of a symmetric non-negative irreducible matrix,
    without its eigenvector: (lam, lo, hi), the value and a certified
    bracket lo <= lambda_max < hi.

    From order _BRACKET_MIN_N on, ``_perron_bracket`` answers when it can,
    to 1e-12 relative; it gives up early where its power steps contract
    slowly.  Otherwise the value comes from
    ``numpy.linalg.eigvalsh`` and the bracket is [lam (1 - 1e-10), lam (1 +
    1e-10)), certified by two Cholesky attempts, raising ``no-convergence``
    where they fail.  Either way a lambda_max that is not simple raises
    ``reducible-matrix``, as ``dominant_eigenpair`` does.
    """
    if len(m) >= _BRACKET_MIN_N:
        found = _perron_bracket(m)
        if found is not None:
            return found
    eigenvalues = _eigen(np.linalg.eigvalsh, m)
    lam = float(eigenvalues[-1])
    width = 1e-10 * abs(lam)
    if not _below(m, lam + width) or _below(m, lam - width):
        raise NumericalError(f"eigenvalue {lam!r} fails its inertia certificate", code="no-convergence")
    _check_simple(eigenvalues)
    return lam, lam - width, lam + width


def _perron_bracket(m: np.ndarray) -> tuple[float, float, float] | None:
    """lambda_max of a symmetric non-negative irreducible m by matvecs and a
    few solves: (lam, lo, hi) as ``_lambda_max`` returns it, or None where
    this route fails.

    For any positive x, lo = min_i (m x)_i / x_i <= lambda_max <= hi =
    max_i (m x)_i / x_i (Collatz-Wielandt); the bounds are widened by (n +
    2) eps for the rounding of m x and the division.  x starts at ones and
    takes power steps x <- (m + rho/2 I) x, rho = x^T m x / x^T x: the shift
    maps the -lambda_max of a bipartite m to half its size, and scales with
    m, so the steps contract alike at any scale of m.  They go on while
    their last contraction predicts that at most _POWER_STEPS of them in all
    bring the bracket within _NODA_FROM, and from there within _BRACKET_TOL.
    Where it predicts more, the route gives up above _NODA_FROM, and within
    it at most _NODA_STEPS Noda steps x <- (hi I - m)^{-1} x (Noda 1971)
    take over.  They converge quadratically (Elsner 1976) and keep x
    positive, since hi >= lambda_max makes hi I - m an M-matrix.  Once the
    bracket is within _BRACKET_TOL relative, lam is x's Rayleigh quotient,
    and the Perron root is simple by the package's rule when lambda_max(m -
    hi u u^T), u = x / |x|, is below lo (1 - 1e-10): by interlacing it
    bounds the second eigenvalue of m.  A failed solve, a non-positive
    iterate, a lo below the normal range, a step cap or a failed simplicity
    test return None.
    """
    n = len(m)
    rounding = (n + 2) * np.finfo(float).eps
    x, last, noda = np.ones(n), np.inf, None  # noda: Noda steps taken, None during power steps
    for k in itertools.count():
        y = m @ x
        ratios = y / x
        lo, hi = float(ratios.min()) * (1.0 - rounding), float(ratios.max()) * (1.0 + rounding)
        if not lo >= np.finfo(float).tiny:  # the rounding bound above holds for normal numbers only
            return None
        width = (hi - lo) / lo
        if width <= _BRACKET_TOL:
            break
        q, last = width / last, width
        target = _NODA_FROM if width > _NODA_FROM else _BRACKET_TOL
        # log(target / width) / log(q) more power steps are due
        if noda is None and k > 0 and not (q < 1.0 and math.log(target / width) >= (_POWER_STEPS - k) * math.log(q)):
            if width > _NODA_FROM:
                return None
            noda = 0
        if noda is None:
            y += (0.5 * float(x @ y) / float(x @ x)) * x
        else:
            if noda == _NODA_STEPS:
                return None
            y, solved = _each("solve", _shifted(m, hi), x[:, None])
            y = y[:, 0]
            if not (solved and y.min() > 0.0):
                return None
            noda += 1
        x = y / y.max()
    u = x / np.linalg.norm(x)
    if not _below(m - np.outer(hi * u, u), lo - _SIMPLE * lo):
        return None
    return float(x @ y) / float(x @ x), lo, hi


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
    q = _vector(q, g.n, "q").copy()  # not the caller's array, which may change after matrix is built
    matrix = np.diag(q) - g.adjacency
    return GeneralizedLaplacian(q=q, matrix=matrix)


def gerschgorin_intervals(g: Graph, q: np.ndarray) -> np.ndarray:
    """Per-row eigenvalue enclosures [q_i - d_i, q_i + d_i], shape (n, 2)."""
    q = _vector(q, g.n, "q")
    d = g.degrees.astype(float)
    return np.column_stack([q - d, q + d])
