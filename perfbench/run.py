#!/usr/bin/env python3
"""hetsis benchmark: seeded closed-loop workloads with per-layer tracing.

    python3 perfbench/run.py --workload mean_field_sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, untraced then traced
    python3 perfbench/run.py --workload oracle --smoke --seconds 1

One caller issues each public call after the previous one returns, and
repeats the workload's fixed batch of calls for --seconds (at least two
batches).  --trace 0 prints the end-to-end metrics; --trace 1 wraps every
public hetsis function in a span and prints the per-layer metrics.  The
last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  Result files with the environment record go to
perfbench/results/.  The package is imported from src/ of the checkout
that holds this file, never from an installed copy.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, self_times

# one thread of load: fixed before numpy, imported with hetsis, loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NIMFA_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
WORKLOAD_NAMES = ("mean_field_sweep", "sensitivity_study", "oracle")
MIN_BATCHES = 2
SETUP_REPEATS = 7
PACE_REPEATS = 15  # pace timings per set-up process, after its set-up
RUN_BUDGET_S = 165.0  # a run must end within 180 s, deadlines included


def import_hetsis():
    """Import hetsis from this checkout's src/ and time it."""
    if not (SRC / "hetsis" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'hetsis'} not found; run from a checkout of the hetsis repository")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hetsis
    import hetsis.cli  # noqa: F401  (not imported by the package itself)

    elapsed = time.perf_counter() - start
    if Path(hetsis.__file__).resolve().parent != (SRC / "hetsis").resolve():
        raise SystemExit(f"error: imported hetsis from {hetsis.__file__}, not from {SRC}")
    return hetsis, elapsed


def setup_probe(args) -> None:
    """Child process: time a fresh import plus building every input, then the host's pace."""
    hs, import_s = import_hetsis()
    from pace import pace_parts
    from workloads import WORKLOADS

    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        start = time.perf_counter()
        WORKLOADS[args.workload](hs, args.seed, args.smoke).build(workdir)
        build_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    parts = [pace_parts() for _ in range(PACE_REPEATS)]
    print(json.dumps({"import_s": import_s, "build_s": build_s,
                      "pace_s": [statistics.median(p[i] for p in parts) for i in range(3)]}))


def setup_samples(args) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_batches(runner, calls, seconds: float, on_batch=None) -> list:
    """Repeat the batch while another one fits in the time left (at least MIN_BATCHES)."""
    start = time.perf_counter()
    batches, durations = [], []
    while True:
        t0 = time.perf_counter()
        if on_batch is not None:
            on_batch()
        batches.append(runner.run_batch(calls))
        if on_batch is not None:
            on_batch()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(batches) >= MIN_BATCHES and elapsed + statistics.median(durations) > seconds:
            return batches
        if time.perf_counter() > runner.budget_end:
            return batches


def run_workload(args) -> int:
    run_start = time.perf_counter()
    hs, _ = import_hetsis()
    import envinfo
    import metrics
    from harness import Runner
    from pace import PACE_REF_S
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](hs, args.seed, args.smoke)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = [] if args.trace else setup_samples(args)
        inputs = workload.build(workdir)
        refs = workload.references(inputs)
        calls = workload.calls(inputs, refs)
        runner = Runner(budget_end=run_start + RUN_BUDGET_S)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "environment": envinfo.environment(),
            "inputs": {**workload.describe(inputs), "calls_per_batch": len(calls)},
        }
        if args.trace:
            all_batches, values, samples, record["trace"] = measure_traced(
                hs, workload, runner, calls, args.seconds, workdir, RESULTS / f"{tag}-spans.jsonl")
            catalogue = {k: v[0] for k, v in metrics.PER_LAYER.items()}
        else:
            all_batches = run_batches(runner, calls, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            paced_setups = [(s["import_s"] + s["build_s"]) * PACE_REF_S / sum(s["pace_s"]) for s in setups]
            values, samples = metrics.end_to_end(all_batches, paced_setups, peak_rss_mb)
            record["setup_samples"] = setups
            catalogue = {k: v[0] for k, v in metrics.END_TO_END.items()}
            catalogue[metrics.ERROR_RATE] = "ratio"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for b in all_batches for o in b.outcomes]
    failures = [o for o in outcomes if o.failed]
    result = {
        "correct": not any(o.status == "check" for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": catalogue[k]} for k in catalogue if k != metrics.ERROR_RATE},
    }
    record.update({
        "batches": len(all_batches),
        "batch_wall_s": [b.wall_s for b in all_batches],
        "call_ms": {o.label: [] for o in outcomes},
        "pace_ms": {o.label: [] for o in outcomes},
        "values": values,
        "samples": samples,
        "failures": [vars(o) for o in failures],
        "result": result,
    })
    for o in outcomes:
        record["call_ms"][o.label].append(round(o.elapsed_s * 1e3, 3))
        record["pace_ms"][o.label].append([round(x * 1e3, 5) for x in o.pace_s])
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"# hetsis benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}{' smoke' if args.smoke else ''}")
    print(f"# closed loop, 1 caller, {len(calls)} calls per batch, {len(all_batches)} batches, "
          f"{len(outcomes)} calls")
    for name, unit in catalogue.items():
        print(f"{name:44s} {values[name]:>14.6g} {unit:10s} (n={samples[name]})")
    seen = set()
    for o in failures:
        if (o.label, o.status) not in seen:
            seen.add((o.label, o.status))
            print(f"# failed: {o.label} [{o.layer}] {o.status} {o.detail}")
    if args.trace:
        for line in record["trace"]["lines"]:
            print(f"# {line}")
    print(json.dumps(result))
    return 0


def measure_traced(hs, workload, runner, calls, seconds, workdir, spans_path):
    """One untraced batch, then traced set-up and batches for the rest of the time.

    Per-layer values are medians over the traced batches; the graphs layer
    also counts the traced set-up.  Spans are written to spans_path.
    """
    import metrics

    baseline = runner.run_batch(calls)
    tracer = Tracer()
    tracer.install(hs)
    runner.tracer = tracer
    traced_dir = workdir / "traced-setup"
    traced_dir.mkdir()
    workload.build(traced_dir)
    setup_spans = list(tracer.spans)
    marks = []
    batches = run_batches(runner, calls, seconds - baseline.wall_s, on_batch=lambda: marks.append(len(tracer.spans)))
    per_batch = [metrics.batch_layers(tracer.spans[a:b], batch)
                 for a, b, batch in zip(marks[::2], marks[1::2], batches)]
    values = {name: statistics.median(v[name] for v in per_batch) for name in per_batch[0]}
    own = self_times(setup_spans)
    values["graphs.calls"] += metrics.layer_calls(setup_spans, "graphs")
    values["graphs.self_s"] += sum(own[s.id] for s in setup_spans if s.layer == "graphs")
    values["trace.overhead_s"] = statistics.median(b.wall_s for b in batches) - baseline.wall_s
    RESULTS.mkdir(exist_ok=True)
    with spans_path.open("w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.as_dict()) + "\n")
    summary = trace_summary(tracer.spans[marks[0]:marks[1]], batches[0].wall_s)
    summary["spans_file"] = spans_path.name
    samples = {k: len(per_batch) for k in values}
    return [baseline] + batches, values, samples, summary


def trace_summary(spans, wall_s: float) -> dict:
    """Where the first traced batch spent its time, and steady-state iterations per call."""
    own = self_times(spans)
    by_fn: dict[str, float] = {}
    for s in spans:
        by_fn[s.name] = by_fn.get(s.name, 0.0) + own[s.id]
    top = sorted(by_fn.items(), key=lambda kv: -kv[1])[:6]
    iterations: dict[str, int] = {}
    for s in spans:
        if s.name == "steady_state.solve" and s.extra and s.parent is None:
            iterations[s.call] = iterations.get(s.call, 0) + s.extra["iterations"]
    lines = [f"self time {name}: {t:.4f} s ({t / wall_s:.1%} of batch wall)" for name, t in top]
    total = sum(iterations.values())
    if total:
        heavy = sorted(iterations.items(), key=lambda kv: -kv[1])[:3]
        lines.append("steady_state.iterations by call: " + ", ".join(f"{k} {v} ({v / total:.1%})" for k, v in heavy)
                     + f" of {total}")
    return {"self_s_by_function": by_fn, "solve_iterations_by_call": iterations, "lines": lines}


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick end-to-end check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
