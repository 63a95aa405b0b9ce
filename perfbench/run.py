"""tnet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` spends the first half of the time
untraced and the second half traced, and reports the per-layer metrics with
the tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Run metadata goes to the
line before it and, with the metrics and the output digest, to
``.perfbench/result-<workload>-s<seed>-t<trace>.json``; traced spans go to
``.perfbench/spans-<workload>-s<seed>.jsonl``.  ``all`` runs every workload
in its own process, one after another, and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
                "import workloads; print(time.perf_counter() - t)")
SAMPLE_EVERY = 25          # ops between live-share samples in traced passes
TRACED_PASSES = 3          # at most; bounds the spans kept in memory
WORKLOAD_NAMES = ("segment-eras", "segment-closure", "tick-sparse", "plan-decide", "transduce")
END_TO_END = {"ops_per_s": "1/s", "op_p50_us": "us", "op_tail_us": "us",
              "setup_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import the benchmark's workloads and, through them, tnet from ``src/``.

    Exits with a message, and no result, when the checkout holds no tnet
    source.
    """
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tnet
        import workloads
        import spans
        import measure
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tnet from {ROOT / 'src'}: {exc}")
    if ROOT / "src" not in Path(tnet.__file__).resolve().parents:
        sys.exit(f"perfbench: tnet imported from {tnet.__file__}, not from this checkout")
    return workloads, spans, measure


def import_seconds() -> list[float]:
    """Seconds a fresh interpreter takes to import the workloads and, through
    them, tnet; once per set-up repeat, each child waited for."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"),
                               str(Path(__file__).resolve().parent)],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads, spans, measure = load_program()
    imports = import_seconds()
    OUT_DIR.mkdir(exist_ok=True)
    factory = workloads.WORKLOADS[name]

    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        start = perf_counter()
        workload = factory(seed, OUT_DIR)
        setups.append(perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(setups)
    gc.collect()

    # Every pass repeats the same ops on fresh state, and an op's latency is
    # the median over its repetitions.  On a shared machine the speed of the
    # processor drifts by tens of percent over seconds; the median over passes
    # spread across the whole run follows its typical speed, where the fastest
    # repetition would follow its rare fast moments.
    untraced_end = perf_counter() + (seconds / 2 if trace else seconds)
    passes = []
    while not passes or perf_counter() < untraced_end:
        passes.append(measure.run_pass(workload, len(passes)))

    traced = []
    tracer = None
    if trace:
        tracer = spans.Tracer()
        workload.traced = True
        traced_end = perf_counter() + seconds / 2
        restore = spans.install(tracer)
        try:
            while not traced or (perf_counter() < traced_end and len(traced) < TRACED_PASSES):
                first = len(tracer)
                result = measure.run_pass(workload, len(passes) + len(traced), tracer,
                                          sample_every=SAMPLE_EVERY)
                result["layers"] = spans.pass_metrics(tracer, first, workload.stats)
                traced.append(result)
        finally:
            restore()

    everything = passes + traced
    attempted = sum(len(p["latencies"]) for p in everything)
    overruns = sum(p["errors"].get("deadline", 0) for p in everything)
    raised = sum(p["errors"].get("raised", 0) for p in everything)
    wrong = sum(p["wrong"] for p in everything)
    failed = overruns + raised + wrong
    digests = set(workload.digests)
    correct = failed == 0 and all(p["ok"] for p in everything) and len(digests) == 1

    latencies = measure.per_op_median(p["latencies"] for p in passes)
    pass_s = sum(latencies)
    ops_per_s = len(latencies) / pass_s
    # The tail of each pass, then the median over passes: the 11th-largest
    # of thousands of per-op medians picks whichever ops drew slow moments of
    # the machine, and spread up to twice as wide between runs (README.md).
    op_tail = statistics.median(measure.tail(p["latencies"])[0] for p in passes)
    tail_percentile = measure.tail(latencies)[1]
    kind_share: dict[str, float] = {}
    for kind, op_s in zip(passes[0]["kinds"], latencies):
        kind_share[kind] = kind_share.get(kind, 0.0) + op_s / pass_s
    e2e = {
        "ops_per_s": ops_per_s,
        "op_p50_us": statistics.median(latencies) * 1e6,
        "op_tail_us": op_tail * 1e6,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        **workload.meta(),
        "ops_per_pass": len(latencies), "passes": len(passes),
        "op_counts": {k: passes[0]["kinds"].count(k) for k in kind_share},
        "op_time_share": kind_share,
        "tail_percentile": tail_percentile, "tail_samples": len(latencies),
        "tail_samples_beyond": 10,
        "deadline_s": measure.DEADLINE_S,
        "max_op_s": max(x for p in everything for x in p["latencies"]),
        "failed_frac": failed / attempted, "overruns": overruns, "raised": raised,
        "wrong_outputs": wrong, "first_errors": sorted({e for p in everything for e in p["first_errors"]}),
        "import_runs_s": imports, "setup_runs_s": setups,
        "digest": workload.digests[0], "digests_agree": len(digests) == 1,
    }

    if trace:
        layers = spans.median_metrics([p["layers"] for p in traced])
        traced_latencies = measure.per_op_median(p["latencies"] for p in traced)
        traced_ops_per_s = len(traced_latencies) / sum(traced_latencies)
        layers["tracing.overhead_frac"] = 1.0 - traced_ops_per_s / ops_per_s
        meta["traced_passes"] = len(traced)
        meta["traced_ops_per_s"] = traced_ops_per_s
        metrics = {n: {"value": layers[n], "unit": u} for n, u in spans.PER_LAYER.items()}
        with open(OUT_DIR / f"spans-{name}-s{seed}.jsonl", "w", encoding="utf-8") as out:
            for row in tracer.rows():
                out.write(json.dumps(row) + "\n")
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}

    record = {"meta": meta, "metrics": metrics, "correct": correct}
    path = OUT_DIR / f"result-{name}-s{seed}-t{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "meta": meta}


def print_result(result: dict) -> None:
    meta = result["meta"]
    print(f"# {meta['workload']}  seed {meta['seed']}  passes {meta['passes']}"
          f"  ops {result['attempted']}  failed_frac {meta['failed_frac']:.6f}"
          f"  correct {result['correct']}  digest {meta['digest'][:16]}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print("meta: " + json.dumps(meta))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-2]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    print_result(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
