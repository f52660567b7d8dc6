"""Span tracing of hetsis from outside the package.

``Tracer.install`` replaces every public function of every hetsis module
with a timing wrapper, in the defining module and in every module that
imported it by name (``hetsis.sensitivity.full_spectrum``,
``hetsis.steady_state.dominant_eigenpair``, the package namespace, ...).
The graph constructors are class methods and are wrapped on their
classes.  Each span records its name, start, end, parent span and the
label of the benchmark call it belongs to; spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import inspect
import itertools
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("graphs", "spectral", "threshold", "steady_state", "dynamics", "sensitivity", "markov", "cli")
_CLASS_METHODS = {"Graph": ("from_edges",), "RateConfig": ("for_graph", "from_tau", "from_json")}
_POISSON_TAIL = 1e-12  # the stopping rule of markov.transient_distribution


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    call: str | None
    layer: str
    name: str
    start: float
    end: float
    error: str | None
    extra: dict | None

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call_id: str | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._extractors = {}

    def install(self, package) -> None:
        self._extractors = _extractors(sys.modules[f"{package.__name__}.dynamics"].default_step)
        originals = {}
        for layer in MODULES:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        modules = [package] + [sys.modules[f"{package.__name__}.{layer}"] for layer in MODULES]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
        graphs = sys.modules[f"{package.__name__}.graphs"]
        for cls_name, methods in _CLASS_METHODS.items():
            cls = getattr(graphs, cls_name)
            for method in methods:
                fn = cls.__dict__[method].__func__
                setattr(cls, method, classmethod(self._wrap("graphs", f"{cls_name}.{method}", fn)))

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        signature = inspect.signature(fn)
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error, result = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                extract = self._extractors.get(full)
                extra = None
                if extract is not None and error != "TypeError":
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = extract(bound.arguments, result)
                spans.append(Span(span_id, parent, self.call_id, layer, full, start, end, error, extra))

        traced.__wrapped__ = fn
        return traced


def _extractors(default_step):
    """Counts read from arguments and result objects, never from inside the program."""

    def integrate_steps(a, result):
        dt = default_step(a["rates"])
        if a["dt_hint"] is not None:
            dt = min(dt, float(a["dt_hint"]))
        return {"steps": 0 if a["t_end"] == 0 else math.ceil(a["t_end"] / dt - 1e-12)}

    def simulate(a, result):
        survivors = 0 if result is None else round(result.survival_fraction * result.replicas)
        return {"replicas": a["replicas"], "horizon": a["horizon"], "survivors": survivors}

    return {
        "steady_state.solve": lambda a, r: None if r is None else {"iterations": r.iterations},
        "markov.build_exact_chain": lambda a, r: None if r is None else {"nnz": int(r.generator.nnz)},
        "markov.transient_distribution": lambda a, r: {"mu": a["chain"].uniformization_rate * float(a["t"])},
        "markov.simulate": simulate,
        "dynamics.integrate": integrate_steps,
    }


def uniformization_terms(mu: float) -> int:
    """Terms the uniformization series sums at Poisson mean mu (computed, not counted)."""
    if mu <= 0.0:
        return 0
    log_mu, cumulative, k = math.log(mu), 0.0, 0
    while cumulative < 1.0 - _POISSON_TAIL:
        cumulative += math.exp(k * log_mu - mu - math.lgamma(k + 1))
        k += 1
    return k


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its child spans cover (calls are sequential)."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] for s in spans}


def has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        p = by_id[parent]
        if p.name == name:
            return True
        parent = p.parent
    return False
