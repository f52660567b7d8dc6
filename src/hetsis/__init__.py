"""Heterogeneous SIS epidemics on networks.

Mean-field transient dynamics, metastable steady states, critical
thresholds, curing-rate sensitivity analysis, and exact/stochastic
Markov oracles for undirected contact graphs with per-node infection
and curing rates.  Each module's ``__all__`` is its list of public
names; the package exports all of them.
"""

from . import dynamics, errors, graphs, markov, sensitivity, spectral, steady_state, threshold
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .graphs import *  # noqa: F403
from .markov import *  # noqa: F403
from .sensitivity import *  # noqa: F403
from .spectral import *  # noqa: F403
from .steady_state import *  # noqa: F403
from .threshold import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (dynamics, errors, graphs, markov, sensitivity, spectral, steady_state, threshold)
    for name in module.__all__
)
