"""Span tracing from outside the program, and the per-layer metrics.

``install`` wraps the public tnet calls each layer is entered through.  Every
call, and every op the runner times, records a span: name, op id, parent
span, start and end.  Spans stay in memory until the run ends.  Nothing under
``src/`` changes; the wrappers are removed again by the function ``install``
returns.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter


class Tracer:
    """Spans kept column by column: a list per field holds only numbers and
    interned strings, so a long run adds no objects for the garbage
    collector to scan."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ops: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.notes: list = []
        self.stack: list[int] = []
        self.op = -1

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.ops.append(self.op)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.notes.append(None)
        self.stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int, note=None) -> None:
        self.ends[index] = perf_counter()
        self.notes[index] = note
        self.stack.pop()

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(index, note(result) if note is not None else None)
        return traced

    def rows(self):
        """Every span as ``[name, op, parent, start, end, note]``."""
        return zip(self.names, self.ops, self.parents, self.starts, self.ends, self.notes)


def _targets():
    """(owner, attribute, span name, note taken from the result)."""
    from tnet import chunker, harness, learning, planner, predictor, transducer
    from tnet.substrate import Network
    return [
        (Network, "tick", "substrate.tick", lambda r: len(r) if r is not None else 0),
        (Network, "end_tick", "substrate.end_tick", None),
        (Network, "update_weight", "substrate.update_weight", None),
        (Network, "nightly_reset", "substrate.nightly_reset", None),
        (chunker.Chunker, "observe", "chunker.observe", None),
        (chunker.Chunker, "flush", "chunker.flush", None),
        # private, but it is the one place an era's consolidation runs
        (chunker.Chunker, "_closure", "chunker.closure", None),
        (chunker, "decompose_units", "chunker.decompose_units", lambda r: r is not None),
        (learning, "reinforce", "learning.reinforce", None),
        (predictor, "trial", "predictor.trial", None),
        # rounds used; 0 when decide withheld
        (planner, "decide", "planner.decide", lambda r: 0 if r is None else r.rounds_used),
        (transducer, "compose", "transducer.compose", None),
        (transducer.Transducer, "validate", "transducer.validate", None),
        (transducer.Transducer, "run", "transducer.run",
         lambda r: len(r[1]) if r is not None else 0),
        (harness, "snapshot_from_net", "harness.snapshot_from_net", None),
        (harness, "write_outputs", "harness.write_outputs", None),
    ]


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    for owner, attr, name, note in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, note))

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore


def self_times(tracer: Tracer, first: int = 0, last: int | None = None) -> list[float]:
    """Self time of spans ``first..last``: each span's duration minus the
    part of it its child spans cover."""
    last = len(tracer) if last is None else last
    starts, ends, parents = tracer.starts, tracer.ends, tracer.parents
    children: dict[int, list[tuple[float, float]]] = {}
    for i in range(first, last):
        if parents[i] >= 0:
            children.setdefault(parents[i], []).append((starts[i], ends[i]))
    out = []
    for i in range(first, last):
        start, end = starts[i], ends[i]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


# metric name -> unit, in the order they are reported
PER_LAYER = {
    "substrate.tick_calls": "count",
    "substrate.tick_self_ms": "ms",
    "substrate.end_tick_calls": "count",
    "substrate.end_tick_ms": "ms",
    "substrate.elements": "count",
    "substrate.live_frac": "ratio",
    "substrate.update_weight_calls": "count",
    "substrate.events_per_tick": "count",
    "substrate.nightly_reset_ms": "ms",
    "learning.reinforce_calls": "count",
    "learning.reinforce_ms": "ms",
    "predictor.trial_calls": "count",
    "predictor.trial_ms": "ms",
    "chunker.observe_self_ms": "ms",
    "chunker.closure_count": "count",
    "chunker.closure_ms": "ms",
    "chunker.flush_ms": "ms",
    "chunker.events_len": "count",
    "chunker.decompose_calls": "count",
    "chunker.decompose_ms": "ms",
    "chunker.decompose_max_ms": "ms",
    "chunker.decompose_useful_frac": "ratio",
    "planner.decide_calls": "count",
    "planner.decide_ms": "ms",
    "planner.rounds_mean": "count",
    "planner.withheld_frac": "ratio",
    "planner.paths_computed": "count",
    "transducer.compose_calls": "count",
    "transducer.compose_ms": "ms",
    "transducer.validate_ms": "ms",
    "transducer.run_ms": "ms",
    "transducer.steps": "count",
    "transducer.composite_rows": "count",
    "harness.snapshot_ms": "ms",
    "harness.snapshot_bytes": "count",
    "harness.write_ms": "ms",
    "tracing.overhead_frac": "ratio",
}


def pass_metrics(tracer: Tracer, first: int, stats: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of the traced pass whose spans start at ``first``.
    A layer the pass never entered reads 0."""
    selfs = self_times(tracer, first)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    longest: dict[str, float] = {}
    notes: dict[str, list] = {}
    for i, own in enumerate(selfs, start=first):
        name = tracer.names[i]
        duration = tracer.ends[i] - tracer.starts[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        self_total[name] = self_total.get(name, 0.0) + own
        longest[name] = max(longest.get(name, 0.0), duration)
        if tracer.notes[i] is not None:
            notes.setdefault(name, []).append(tracer.notes[i])

    def ms(table: dict[str, float], name: str) -> float:
        return table.get(name, 0.0) * 1e3

    def share(name: str, predicate) -> float:
        values = notes.get(name, [])
        return sum(1 for v in values if predicate(v)) / len(values) if values else 0.0

    ticks = calls.get("substrate.tick", 0)
    decide_calls = calls.get("planner.decide", 0)
    rounds = [r for r in notes.get("planner.decide", []) if r > 0]
    out = {
        "substrate.tick_calls": ticks,
        "substrate.tick_self_ms": ms(self_total, "substrate.tick"),
        "substrate.end_tick_calls": calls.get("substrate.end_tick", 0),
        "substrate.end_tick_ms": ms(total, "substrate.end_tick"),
        "substrate.elements": stats.get("substrate.elements", 0),
        "substrate.live_frac": stats.get("substrate.live_frac", 0.0),
        "substrate.update_weight_calls": calls.get("substrate.update_weight", 0),
        "substrate.events_per_tick": (sum(notes.get("substrate.tick", [])) / ticks
                                      if ticks else 0.0),
        "substrate.nightly_reset_ms": ms(total, "substrate.nightly_reset"),
        "learning.reinforce_calls": calls.get("learning.reinforce", 0),
        "learning.reinforce_ms": ms(total, "learning.reinforce"),
        "predictor.trial_calls": calls.get("predictor.trial", 0),
        "predictor.trial_ms": ms(total, "predictor.trial"),
        "chunker.observe_self_ms": ms(self_total, "chunker.observe"),
        "chunker.closure_count": calls.get("chunker.closure", 0),
        "chunker.closure_ms": ms(total, "chunker.closure"),
        "chunker.flush_ms": ms(total, "chunker.flush"),
        "chunker.events_len": stats.get("chunker.events_len", 0),
        "chunker.decompose_calls": calls.get("chunker.decompose_units", 0),
        "chunker.decompose_ms": ms(total, "chunker.decompose_units"),
        "chunker.decompose_max_ms": ms(longest, "chunker.decompose_units"),
        "chunker.decompose_useful_frac": share("chunker.decompose_units", bool),
        "planner.decide_calls": decide_calls,
        "planner.decide_ms": ms(total, "planner.decide"),
        "planner.rounds_mean": sum(rounds) / len(rounds) if rounds else 0.0,
        "planner.withheld_frac": share("planner.decide", lambda r: r == 0),
        "planner.paths_computed": stats.get("planner.paths_computed", 0),
        "transducer.compose_calls": calls.get("transducer.compose", 0),
        "transducer.compose_ms": ms(total, "transducer.compose"),
        "transducer.validate_ms": ms(total, "transducer.validate"),
        "transducer.run_ms": ms(total, "transducer.run"),
        "transducer.steps": sum(notes.get("transducer.run", [])),
        "transducer.composite_rows": stats.get("transducer.composite_rows", 0),
        "harness.snapshot_ms": ms(total, "harness.snapshot_from_net"),
        "harness.snapshot_bytes": stats.get("harness.snapshot_bytes", 0),
        "harness.write_ms": ms(total, "harness.write_outputs"),
    }
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
