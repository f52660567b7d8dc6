"""Each module's ``__all__`` is the one list of its public names.

Every function or class a hetsis module defines without a leading
underscore must be in that module's ``__all__``, and the package exports
exactly the union of those lists (the ``cli`` front end stays outside the
package namespace).  Names once exported stay exported unless they were
removed on purpose; removed names stay gone.  Every result type compares
and hashes by identity.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import hetsis

MODULES = sorted(info.name for info in pkgutil.iter_modules(hetsis.__path__))
LIBRARY = [name for name in MODULES if name != "cli"]

# every name the package has exported and keeps; removing one would break callers
EARLIER_EXPORTS = {
    "BoundsReport", "ExactChain", "Graph", "HetsisError", "InputError", "NumericalError", "RateConfig",
    "SensitivityReport", "SimEstimate", "SteadyState", "ThresholdReport", "Trajectory", "bounds",
    "build_exact_chain", "classify", "complete_graph_critical_sum", "complete_graph_lambda_max",
    "conditional_marginals", "convexity_verdicts", "critical_perturbation", "critical_scaling", "curvature_matrix",
    "default_step", "dominant_eigenpair", "effective_adjacency", "first_derivatives", "format_edge_list",
    "full_report", "generalized_laplacian", "gerschgorin_intervals", "integrate", "inverse_checks",
    "marginals", "mean_field_rhs", "optimal_curing_rate", "parse_edge_list", "schur_derivative",
    "second_derivatives", "sensitivity_matrix", "simulate", "solve", "transient_distribution", "truncated_iterate",
    "verify_identities", "walk_counts",
}
# exported once, removed on purpose: numpy.linalg.eigh replaces full_spectrum and Spectrum,
# classify(...).bound_ledger replaces verify_bounds, the regime classify reports replaces surface_side,
# and the Lajmanovich-Yorke theorem (unique endemic state) replaces uniqueness_probe
REMOVED = {"Spectrum", "full_spectrum", "surface_side", "uniqueness_probe", "verify_bounds"}


def _module(name: str):
    return importlib.import_module(f"hetsis.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_public_definitions_are_listed(name):
    module = _module(name)
    defined = {
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert defined <= set(module.__all__), f"public but unlisted: {sorted(defined - set(module.__all__))}"
    assert len(set(module.__all__)) == len(module.__all__)
    for listed in module.__all__:
        assert hasattr(module, listed), f"{name}.__all__ lists missing {listed}"


def test_package_exports_the_union_of_module_lists():
    union = {listed: _module(name) for name in LIBRARY for listed in _module(name).__all__}
    assert len(union) == sum(len(_module(name).__all__) for name in LIBRARY), "a name is listed by two modules"
    assert sorted(hetsis.__all__) == sorted(union)
    for listed, module in union.items():
        assert getattr(hetsis, listed) is getattr(module, listed)


def test_package_keeps_earlier_exports():
    assert len(EARLIER_EXPORTS) == 45 and len(REMOVED) == 5
    assert EARLIER_EXPORTS <= set(hetsis.__all__)
    assert not REMOVED & (set(hetsis.__all__) | set(vars(hetsis)))


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_stay_gone(name):
    assert not REMOVED & (set(_module(name).__all__) | set(vars(_module(name))))


DATACLASSES = sorted(name for name in hetsis.__all__ if dataclasses.is_dataclass(getattr(hetsis, name)))


@pytest.mark.parametrize("name", DATACLASSES)
def test_dataclasses_compare_and_hash_by_identity(name):
    # the generated __eq__/__hash__ would run over array fields: == raises
    # ValueError (truth value of an array) and hash raises TypeError
    cls = getattr(hetsis, name)

    def instance():
        return cls(**{f.name: np.zeros(2) for f in dataclasses.fields(cls) if f.init})

    a, b = instance(), instance()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
