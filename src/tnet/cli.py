"""Command-line front end: run, segment, export, sweep.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError
from .harness import (
    ExperimentConfig,
    export_snapshot,
    import_snapshot,
    load_config,
    load_grid,
    run_experiment,
    snapshot_json,
    sweep,
    write_outputs,
    write_sweep_table,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnet",
        description="cognitive-network simulations: segmentation, prediction, planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--deterministic", action=argparse.BooleanOptionalAction,
                       default=None, help="override the config's firing mode")
    run_p.add_argument("--out", default=None, help="snapshot path")
    run_p.add_argument("--log", default=None, help="event log path")

    seg_p = sub.add_parser("segment", help="segment a symbol stream into chunks")
    seg_p.add_argument("--corpus", required=True,
                       help="fig1a, fig1b, or a corpus file path")
    seg_p.add_argument("--dw", type=float, default=None)
    seg_p.add_argument("--decay", type=float, default=None)
    seg_p.add_argument("--theta", type=float, default=None)

    exp_p = sub.add_parser("export", help="re-export a snapshot as json or dot")
    exp_p.add_argument("--in", dest="infile", required=True)
    exp_p.add_argument("--format", required=True, choices=("json", "dot"))
    exp_p.add_argument("--out", required=True)

    sweep_p = sub.add_parser("sweep", help="run a parameter grid")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--grid", required=True)
    sweep_p.add_argument("--out", required=True, help="result table path (csv)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {name: getattr(args, name) for name in ("seed", "deterministic", "out", "log")
                 if getattr(args, name) is not None}
    cfg = replace(load_config(args.config), **overrides)
    snapshot, log_lines = run_experiment(cfg)
    write_outputs(cfg, snapshot, log_lines)
    if not cfg.out:
        sys.stdout.write(snapshot_json(snapshot))
    else:
        fixated = sum(1 for n in snapshot["nodes"] if n["fixated"])
        print(f"ticks={snapshot['tick_count']} nodes={len(snapshot['nodes'])} "
              f"fixated={fixated} -> {cfg.out}")
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    flags = {"dw": args.dw, "decay_w": args.decay, "theta": args.theta}
    overrides = {name: value for name, value in flags.items() if value is not None}
    cfg = ExperimentConfig(kind="segment", corpus=args.corpus, params=overrides)
    snapshot, _ = run_experiment(cfg)
    labels = sorted(n["id"] for n in snapshot["nodes"]
                    if n["kind"] == "chunk" and n["fixated"])
    for label in labels:
        print(label)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    snapshot = import_snapshot(args.infile)
    export_snapshot(snapshot, args.format, args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    grid = load_grid(args.grid)
    rows = sweep(cfg, grid)
    write_sweep_table(rows, args.out)
    print(f"{len(rows)} rows -> {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "segment": _cmd_segment,
    "export": _cmd_export,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
