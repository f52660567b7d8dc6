"""Exception taxonomy shared across the package.

Two classes of failure are distinguished so the CLI can map them onto
distinct exit codes: problems with the caller's input (bad graph files,
inconsistent rate vectors, out-of-range states) and genuine numerical
failures (non-convergence, near-singular systems, undefined derivatives).
"""

from __future__ import annotations

__all__ = ["HetsisError", "InputError", "NumericalError"]


class HetsisError(Exception):
    """Base class; carries a short machine-readable code."""

    default_code = "error"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        self.code = code if code is not None else self.default_code


class InputError(HetsisError):
    """The caller supplied something malformed or out of contract."""

    default_code = "input-error"


class NumericalError(HetsisError):
    """An algorithm failed to produce a trustworthy number."""

    default_code = "numerical-error"
