"""Metric catalogue: every end-to-end and per-layer metric, its unit, which
direction is better and, for per-layer metrics, the end-to-end metric and
workload each one should move.  BENCHMARK.json lists the same names.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from harness import percentile
from pace import PACE_REF_S
from tracer import has_ancestor, self_times, uniformization_terms

ALL = "all workloads"
MF, SENS, ORACLE = "mean_field_sweep", "sensitivity_study", "oracle"

END_TO_END = {
    # name: (unit, bound as a share of the parent's median)
    "setup_s": ("s", 0.25),
    "wall_s": ("s", 0.25),
    "call_p50_ms": ("ms", 0.25),
    "call_p90_ms": ("ms", 0.25),
    "peak_rss_mb": ("MB", 0.1),
}

# Reported with the end-to-end metrics but not gated: it is 0 on healthy workloads.
ERROR_RATE = "error_rate"

LAYERS = ("graphs", "spectral", "threshold", "steady_state", "dynamics", "sensitivity", "markov", "cli")

# name: (unit, better, end-to-end metric it should move, workload)
PER_LAYER = {
    "graphs.calls": ("count", "lower", "setup_s", ALL),
    "graphs.self_s": ("s", "lower", "setup_s", ALL),
    "spectral.full_spectrum.calls": ("count", "lower", "wall_s, call_p90_ms", f"{SENS}; no effect elsewhere"),
    "spectral.full_spectrum.self_s": ("s", "lower", "wall_s, call_p90_ms", f"{SENS}; no effect elsewhere"),
    "spectral.dominant_eigenpair.calls": ("count", "lower", "call_p50_ms, wall_s", f"{MF}; must not worsen wall_s on {SENS}"),
    "spectral.dominant_eigenpair.self_s": ("s", "lower", "call_p50_ms, wall_s", f"{MF}; must not worsen wall_s on {SENS}"),
    "threshold.self_s": ("s", "lower", "call_p50_ms, wall_s", MF),
    "threshold.eigenpairs_per_classify": ("count", "lower", "call_p50_ms, wall_s", MF),
    "threshold.eigenpairs_per_critical_scaling": ("count", "lower", "call_p50_ms, wall_s", MF),
    "steady_state.solve.calls": ("count", "lower", "call_p90_ms, wall_s", f"{MF}; must not worsen wall_s on {SENS}"),
    "steady_state.solve.self_s": ("s", "lower", "call_p90_ms, wall_s", f"{MF}; must not worsen wall_s on {SENS}"),
    "steady_state.iterations": ("count", "lower", "call_p90_ms, wall_s", f"{MF}; must not worsen wall_s on {SENS}"),
    "steady_state.us_per_iteration": ("us", "lower", "call_p90_ms, wall_s", f"{MF}; must not worsen wall_s on {SENS}"),
    "dynamics.integrate.self_s": ("s", "lower", "wall_s", MF),
    "dynamics.steps": ("count", "lower", "wall_s", MF),
    "dynamics.us_per_step": ("us", "lower", "wall_s", MF),
    "sensitivity.self_s": ("s", "lower", "wall_s, call_p90_ms", SENS),
    "sensitivity.s_builds_per_report": ("count", "lower", "wall_s, call_p90_ms", SENS),
    "sensitivity.solves_per_report": ("count", "lower", "wall_s, call_p90_ms", SENS),
    "markov.build_exact_chain.self_s": ("s", "lower", "wall_s, call_p50_ms", ORACLE),
    "markov.chain_nnz": ("count", "lower", "wall_s, call_p50_ms", ORACLE),
    "markov.transient_distribution.self_s": ("s", "lower", "wall_s, call_p50_ms", ORACLE),
    "markov.uniformization_terms": ("count", "lower", "wall_s, call_p50_ms", ORACLE),
    "markov.simulate.self_s": ("s", "lower", "wall_s, call_p90_ms, error_rate", ORACLE),
    "markov.sim_time_per_s": ("simtime/s", "higher", "wall_s, call_p90_ms, error_rate", ORACLE),
    "markov.survival_fraction": ("ratio", "higher", "wall_s, call_p90_ms, error_rate", ORACLE),
    "markov.deadline_hits": ("count", "lower", "wall_s, call_p90_ms, error_rate", ORACLE),
    "cli.self_s": ("s", "lower", "wall_s (a small share)", ALL),
    "cli.output_bytes": ("bytes", "lower", "wall_s (a small share)", ALL),
    **{f"{layer}.failed": ("count", "lower", "error_rate", ALL) for layer in LAYERS},
    "trace.overhead_s": ("s", "lower", "none: traced wall_s minus untraced wall_s", ALL),
}


def paced_times_ms(batches) -> dict[str, float]:
    """Each call's time at the reference pace (pace.py), median over the
    run's batches, in ms.

    A call stopped at its deadline counts at the deadline: the clock set
    that time, not the work.  Calls that were not issued (dependency,
    budget) have no time and are left out.
    """
    times = defaultdict(list)
    for b in batches:
        for o in b.outcomes:
            if o.status not in ("dependency", "budget"):
                scale = 1.0 if o.status == "deadline" else PACE_REF_S / sum(o.pace_s)
                times[o.label].append(o.elapsed_s * 1e3 * scale)
    return {label: statistics.median(v) for label, v in times.items()}


def end_to_end(batches, setup_samples, peak_rss_mb) -> tuple[dict, dict]:
    """Metric values and their sample counts from the untraced batches.

    setup_samples are set-up times already scaled to the reference pace.
    """
    paced = list(paced_times_ms(batches).values())
    attempted = sum(len(b.outcomes) for b in batches)
    failed = sum(o.failed for b in batches for o in b.outcomes)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(paced) / 1e3,
        "call_p50_ms": statistics.median(paced),
        "call_p90_ms": percentile(paced, 90),
        "peak_rss_mb": peak_rss_mb,
        ERROR_RATE: failed / attempted,
    }
    samples = {
        "setup_s": len(setup_samples),
        "wall_s": len(batches),
        "call_p50_ms": len(paced),
        "call_p90_ms": len(paced),
        "peak_rss_mb": 1,
        ERROR_RATE: attempted,
    }
    return values, samples


def batch_layers(spans, batch) -> dict:
    """Per-layer figures of one traced batch."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    layer_self = defaultdict(float)
    fn_self = defaultdict(float)
    fn_calls = defaultdict(int)
    for s in spans:
        layer_self[s.layer] += own[s.id]
        fn_self[s.name] += own[s.id]
        fn_calls[s.name] += 1

    def named(name):
        return [s for s in spans if s.name == name]

    def per(parent: str, child: str) -> float:
        count = fn_calls[parent]
        nested = sum(has_ancestor(s, parent, by_id) for s in named(child))
        return nested / count if count else 0.0

    solves = [s for s in named("steady_state.solve") if s.extra]
    iterations = sum(s.extra["iterations"] for s in solves)
    steps = sum(s.extra["steps"] for s in named("dynamics.integrate"))
    sims = named("markov.simulate")
    healthy = [s for s in sims if s.error is None]
    healthy_s = sum(own[s.id] for s in healthy)
    attempted_replicas = sum(s.extra["replicas"] for s in sims)
    failed = defaultdict(int)
    for o in batch.outcomes:
        failed[o.layer] += o.failed
    deadline_hits = sum(s.error == "DeadlineExceeded" and (s.parent is None or by_id[s.parent].layer != "markov")
                        for s in spans if s.layer == "markov")
    values = {
        "graphs.calls": layer_calls(spans, "graphs"),
        "graphs.self_s": layer_self["graphs"],
        "spectral.full_spectrum.calls": fn_calls["spectral.full_spectrum"],
        "spectral.full_spectrum.self_s": fn_self["spectral.full_spectrum"],
        "spectral.dominant_eigenpair.calls": fn_calls["spectral.dominant_eigenpair"],
        "spectral.dominant_eigenpair.self_s": fn_self["spectral.dominant_eigenpair"],
        "threshold.self_s": layer_self["threshold"],
        "threshold.eigenpairs_per_classify": per("threshold.classify", "spectral.dominant_eigenpair"),
        "threshold.eigenpairs_per_critical_scaling": per("threshold.critical_scaling", "spectral.dominant_eigenpair"),
        "steady_state.solve.calls": fn_calls["steady_state.solve"],
        "steady_state.solve.self_s": fn_self["steady_state.solve"],
        "steady_state.iterations": iterations,
        "steady_state.us_per_iteration": 1e6 * sum(own[s.id] for s in solves) / iterations if iterations else 0.0,
        "dynamics.integrate.self_s": fn_self["dynamics.integrate"],
        "dynamics.steps": steps,
        "dynamics.us_per_step": 1e6 * fn_self["dynamics.integrate"] / steps if steps else 0.0,
        "sensitivity.self_s": layer_self["sensitivity"],
        "sensitivity.s_builds_per_report": per("sensitivity.full_report", "sensitivity.sensitivity_matrix"),
        "sensitivity.solves_per_report": per("sensitivity.full_report", "steady_state.solve"),
        "markov.build_exact_chain.self_s": fn_self["markov.build_exact_chain"],
        "markov.chain_nnz": sum(s.extra["nnz"] for s in named("markov.build_exact_chain") if s.extra),
        "markov.transient_distribution.self_s": fn_self["markov.transient_distribution"],
        "markov.uniformization_terms": sum(uniformization_terms(s.extra["mu"])
                                           for s in named("markov.transient_distribution")),
        "markov.simulate.self_s": fn_self["markov.simulate"],
        "markov.sim_time_per_s": (sum(s.extra["replicas"] * s.extra["horizon"] for s in healthy) / healthy_s
                                  if healthy_s else 0.0),
        "markov.survival_fraction": (sum(s.extra["survivors"] for s in sims) / attempted_replicas
                                     if attempted_replicas else 0.0),
        "markov.deadline_hits": deadline_hits,
        "cli.self_s": fn_self["cli.main"],
        "cli.output_bytes": batch.cli_output_bytes,
        **{f"{layer}.failed": failed[layer] for layer in LAYERS},
    }
    return values


def layer_calls(spans, layer: str) -> int:
    return sum(s.layer == layer for s in spans)
