"""Closed-loop op timing with a per-op deadline, and the statistics reported.

One caller issues each op only after the previous one returned.  The deadline
is an in-process interval timer (``SIGALRM``): no thread or process is
started.  An op that overruns it, raises, or fails its output check counts as
failed, and the loop goes on with the next op.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# Seconds one op may take.  At this commit the slowest op of any workload,
# over 10 seeds, is well under a tenth of this; see README.md.
DEADLINE_S = 5.0


class DeadlineExceeded(Exception):
    pass


def _fire(signum, frame):
    raise DeadlineExceeded


def timed_call(fn, deadline_s: float = DEADLINE_S):
    """Run ``fn()`` under the deadline.

    Returns ``(result, seconds, error)``; ``error`` is None, ``"deadline"`` or
    the repr of the exception the op raised.
    """
    if signal.getsignal(signal.SIGALRM) is not _fire:
        signal.signal(signal.SIGALRM, _fire)
    result = error = None
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        error = "deadline"
    except Exception as exc:   # an op that raises is a failed op, not a crash
        error = repr(exc)
    elapsed = perf_counter() - start
    if error is None and elapsed > deadline_s:
        error = "deadline"
    return result, elapsed, error


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the 11th-largest sample and the share of
    samples at or below it, in percent.  None when there are 10 or fewer.
    """
    n = len(latencies)
    if n <= 10:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def per_op_median(passes) -> list[float]:
    """Per op, the median of its latencies over passes of the same ops."""
    return [statistics.median(column) for column in zip(*passes)]


def run_pass(workload, k: int, tracer=None, deadline_s: float = DEADLINE_S,
             sample_every: int = 0) -> dict:
    """Issue every op of pass ``k``; return its latencies and failures."""
    latencies: list[float] = []
    kinds: list[str] = []
    errors: dict[str, int] = {}
    first_errors: set[str] = set()
    wrong = 0
    workload.begin_pass()
    for i, (kind, fn, check) in enumerate(workload.ops(k)):
        if tracer is not None:
            tracer.op += 1
            span = tracer.begin("op." + kind)
        result, seconds, error = timed_call(fn, deadline_s)
        if tracer is not None:
            tracer.end(span)
        latencies.append(seconds)
        kinds.append(kind)
        if error is not None:
            key = "deadline" if error == "deadline" else "raised"
            errors[key] = errors.get(key, 0) + 1
            first_errors.add(f"{kind}: {error}")
        elif check is not None and not check(result):
            wrong += 1
        if sample_every and i % sample_every == 0:
            workload.sample()
    pass_ok = workload.end_pass()
    workload.finish_pass()
    return {"latencies": latencies, "kinds": kinds, "errors": errors, "wrong": wrong, "ok": pass_ok,
            "first_errors": first_errors}
