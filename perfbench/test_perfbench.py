"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import random
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tnet.chunker import Chunker, ChunkerParams  # noqa: E402
from tnet.errors import FixationError, TopologyError  # noqa: E402
from tnet.substrate import Network, Params  # noqa: E402


def test_command_line_names_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert measure.tail(list(range(1, 11))) is None
    assert measure.tail([5.0] * 10 + [1.0]) == (1.0, 100.0 / 11)
    value, percentile = measure.tail([float(x) for x in range(100, 0, -1)])
    assert value == 90.0 and percentile == 90.0
    # exactly ten samples lie beyond the reported value
    data = [float(x) for x in range(1000)]
    value, percentile = measure.tail(data)
    assert sum(1 for x in data if x > value) == 10
    assert percentile == 99.0


def _record(tracer, name, parent, start, end):
    tracer.names.append(name)
    tracer.ops.append(0)
    tracer.parents.append(parent)
    tracer.starts.append(start)
    tracer.ends.append(end)
    tracer.notes.append(None)
    return len(tracer) - 1


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer()
    op = _record(tracer, "op", -1, 0.0, 10.0)
    _record(tracer, "a", op, 1.0, 4.0)
    b = _record(tracer, "b", op, 5.0, 9.0)
    _record(tracer, "c", b, 6.0, 7.0)
    assert spans.self_times(tracer) == [3.0, 3.0, 3.0, 1.0]
    # a range of spans is judged on its own
    assert spans.self_times(tracer, 2) == [3.0, 1.0]


def test_wrapped_calls_nest_and_self_times_add_up():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.002)

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        traced_inner()
        traced_inner()
        return 7

    assert tracer.wrap("outer", outer, note=lambda r: r)() == 7
    names = tracer.names
    assert names == ["outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0]
    assert tracer.notes[0] == 7
    selfs = spans.self_times(tracer)
    assert abs(sum(selfs) - (tracer.ends[0] - tracer.starts[0])) < 1e-9
    assert selfs[0] < tracer.ends[0] - tracer.starts[0] - 0.004


def test_per_layer_metrics_read_zero_for_layers_not_entered():
    tracer = spans.Tracer()
    _record(tracer, "planner.decide", -1, 0.0, 0.002)
    tracer.notes[-1] = 2
    _record(tracer, "planner.decide", -1, 0.003, 0.004)
    tracer.notes[-1] = 0
    layers = spans.pass_metrics(tracer, 0, {})
    assert set(layers) == set(spans.PER_LAYER) - {"tracing.overhead_frac"}
    assert layers["planner.decide_calls"] == 2
    assert layers["planner.withheld_frac"] == 0.5
    assert layers["planner.rounds_mean"] == 2
    assert abs(layers["planner.decide_ms"] - 3.0) < 1e-9
    assert layers["transducer.compose_calls"] == 0


class _SmallClosure(workloads.SegmentClosure):
    n_streams = 12


class _SmallTransduce(workloads.Transduce):
    n_chains = 3


class _SmallPlan(workloads.PlanDecide):
    n_dags = 3
    n_complete = {7: 2}


def _digest(factory, seed, out_dir):
    workload = factory(seed, out_dir)
    result = measure.run_pass(workload, 0)
    assert result["ok"] and not result["errors"] and result["wrong"] == 0
    return workload.digests[0]


def test_output_digest_is_stable_for_a_seed(tmp_path):
    for factory in (_SmallClosure, _SmallTransduce, _SmallPlan):
        first = _digest(factory, 3, tmp_path)
        assert first == _digest(factory, 3, tmp_path)
        assert first != _digest(factory, 4, tmp_path)


def test_every_pass_repeats_the_same_outputs(tmp_path):
    workload = _SmallClosure(5, tmp_path)
    for k in range(3):
        measure.run_pass(workload, k)
    assert len(workload.digests) == 3 and len(set(workload.digests)) == 1


def test_each_op_takes_its_median_over_passes():
    passes = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 2.0, 7.0]]
    assert measure.per_op_median(passes) == [3.0, 2.0, 6.0]


class _Hangs(workloads.Workload):
    def ops(self, k):
        yield "quick", (lambda: 1), (lambda r: r == 1)
        yield "hang", (lambda: time.sleep(30)), None
        yield "raise", (lambda: 1 / 0), None
        yield "wrong", (lambda: 2), (lambda r: r == 1)
        yield "quick", (lambda: 1), (lambda r: r == 1)


def test_deadline_overrun_is_a_failed_op_and_the_loop_goes_on():
    start = time.perf_counter()
    result = measure.run_pass(_Hangs(0), 0, deadline_s=0.05)
    assert time.perf_counter() - start < 5
    assert result["errors"] == {"deadline": 1, "raised": 1}
    assert result["wrong"] == 1
    assert len(result["latencies"]) == 5
    assert 0.05 <= result["latencies"][1] < 1.0


def test_timed_call_reports_a_slow_return_as_overrun():
    def busy():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        return "done"

    _, seconds, error = measure.timed_call(busy, deadline_s=0.02)
    assert error == "deadline"
    assert seconds < 0.2
    assert measure.timed_call(lambda: "ok", deadline_s=1.0)[::2] == ("ok", None)


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            assert "metrics" not in json.loads(line)
        except ValueError:
            pass


def random_word_eras(rng: random.Random) -> list[str]:
    """Eras of 38 digits drawn from three of 8 words with repeats, each closed
    by 19 junk symbols.  About a quarter of seeds make the chunker raise on
    this stream, so segment-eras draws its eras from distinct words."""
    vocab: set[str] = set()
    while len(vocab) < 8:
        vocab.add("".join(rng.choice(workloads.DIGITS) for _ in range(rng.randint(3, 5))))
    words = sorted(vocab)
    out: list[str] = []
    for era in range(70):
        era_words = rng.sample(words, 3)
        data: list[str] = []
        while len(data) < 38:
            data.extend(rng.choice(era_words))
        out.extend(data[:38])
        out.extend(chr(0x4E00 + era * 19 + i) for i in range(19))
    return out


def _observe(symbols) -> None:
    Chunker(Network(Params(), seed=0), ChunkerParams()).observe_stream("".join(symbols))


@pytest.mark.xfail(raises=TopologyError, strict=True,
                   reason="chunker defect: _split_trace links the two equal halves of a trace")
def test_chunker_splits_a_trace_made_of_two_equal_halves():
    _observe("8282828262826")


@pytest.mark.xfail(raises=FixationError, strict=True,
                   reason="chunker defect: _rewrite_trace empties a trace that is fixated")
def test_chunker_rewrites_a_fixated_trace():
    _observe(random_word_eras(workloads.seeded(1282413446, "eras"))[:3460])

