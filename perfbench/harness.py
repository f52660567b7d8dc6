"""Closed-loop call runner with per-call deadlines and failure accounting.

One caller issues each call after the previous one returns.  Every call
runs under a SIGALRM deadline, so a runaway call is stopped and counted
as a failure instead of hanging the run.  The host's pace (pace.py) is
timed right before and right after every call.  Output checks run after
the batch, outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import io
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from hetsis.errors import HetsisError
from pace import pace_parts


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler inside a call that ran past its deadline.

    A BaseException, so that no ``except Exception`` inside the program
    can swallow it.
    """


class CheckFailed(Exception):
    """An output disagreed with its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Call:
    """One public call into hetsis.

    ``args`` builds the positional arguments from the results of earlier
    calls in the same batch (keyed by label), so a call that depends on a
    failed call is itself counted as failed.  ``check`` receives the
    result and the batch's results and raises on a wrong output.  ``expect_error`` names the
    HetsisError code that is the right answer for this input.
    """

    label: str
    layer: str
    func: str
    args: Callable[[dict], tuple]
    kwargs: dict = field(default_factory=dict)
    deadline_s: float = 30.0
    expect_error: str | None = None
    check: Callable[[Any, dict], None] | None = None


@dataclass
class Outcome:
    label: str
    layer: str
    elapsed_s: float
    status: str  # ok, expected-error, deadline, error, check, dependency, budget
    detail: str = ""
    pace_s: tuple[float, ...] = ()  # pace parts, mean of before and after the call

    @property
    def failed(self) -> bool:
        return self.status not in ("ok", "expected-error")


@dataclass
class Batch:
    wall_s: float
    outcomes: list[Outcome]
    cli_output_bytes: int


def _alarm(signum, frame):
    raise DeadlineExceeded()


def _call_cli(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, out.getvalue()


class Runner:
    """Issues batches of calls until a run-wide time budget is spent."""

    def __init__(self, budget_end: float, tracer=None):
        self.budget_end = budget_end
        self.tracer = tracer
        signal.signal(signal.SIGALRM, _alarm)

    def run_batch(self, calls: list[Call]) -> Batch:
        results: dict = {}
        outcomes = []
        start = time.perf_counter()
        for call in calls:
            outcomes.append(self._issue(call, results))
        wall = time.perf_counter() - start
        for call, outcome in zip(calls, outcomes):
            if outcome.status == "ok" and call.check is not None:
                try:
                    call.check(results[call.label], results)
                except Exception as exc:  # a malformed output fails its check
                    outcome.status = "check"
                    outcome.detail = f"{type(exc).__name__}: {exc}"
        cli_bytes = sum(len(v[1].encode()) for k, v in results.items() if k.startswith("cli."))
        results.clear()
        gc.collect()  # outside the timed region, so collections do not land in the next batch at random
        return Batch(wall_s=wall, outcomes=outcomes, cli_output_bytes=cli_bytes)

    def _issue(self, call: Call, results: dict) -> Outcome:
        try:
            args = call.args(results)
        except KeyError as missing:
            return Outcome(call.label, call.layer, 0.0, "dependency", f"needs failed call {missing}")
        limit = min(call.deadline_s, self.budget_end - time.perf_counter())
        if limit <= 0:
            return Outcome(call.label, call.layer, 0.0, "budget", "run time budget spent")
        fn = getattr(sys.modules[f"hetsis.{call.layer}"], call.func)
        if self.tracer is not None:
            self.tracer.call_id = call.label
        status, detail = "ok", ""
        before = pace_parts()
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                if call.layer == "cli":
                    value = _call_cli(fn, *args)
                else:
                    value = fn(*args, **call.kwargs)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            status, detail = "deadline", f"exceeded {limit:g} s"
        except HetsisError as exc:
            if exc.code == call.expect_error:
                # without its traceback the error does not keep this frame, and
                # so the whole batch, alive until the cyclic collector runs
                status, value = "expected-error", exc.with_traceback(None)
            else:
                status, detail = "error", f"{type(exc).__name__}[{exc.code}]: {exc}"
        except Exception as exc:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            status = "error"
            detail = f"{type(exc).__name__}: {exc} ({frame.filename.rsplit('/', 1)[-1]}:{frame.lineno})"
        elapsed = time.perf_counter() - start
        after = pace_parts()
        if self.tracer is not None:
            self.tracer.call_id = None
        if status == "ok" and call.expect_error is not None:
            status, detail = "check", f"expected error {call.expect_error}, got a result"
        if status in ("ok", "expected-error"):
            results[call.label] = value
        return Outcome(call.label, call.layer, elapsed, status, detail,
                       tuple((b + a) / 2.0 for b, a in zip(before, after)))


def percentile(samples: list[float], q: int) -> float:
    """q-th percentile (1..99) by linear interpolation between order statistics."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
