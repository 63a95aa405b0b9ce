"""Experiment plumbing: configs, corpora, runs, snapshots, sweeps.

Everything here is deliberately boring: YAML configs in, deterministic runs
through the library modules, JSON/DOT snapshots and line-oriented event logs
out.  A config plus a seed fully determines every output byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import string
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from itertools import product
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .chunker import Chunker, ChunkerParams
from .errors import ConfigError
from .learning import InnateSpec, hebbian_episode, inject_innate
from .planner import POLICIES, PathQuery, PlannerParams, decide, plan
from .predictor import build_motif, trial
from .substrate import FiringMode, Network, NodeKind, Params, counter_uniform

SCHEMA_VERSION = 1

FIG1_A = "75648361"
FIG1_B = "75698136"
FIG1_C = "75628136"
_JUNK_POOL = string.ascii_letters + "!@#$%^&*"

GOLDEN_A_LABELS = frozenset({"756", "48361", "98", "136", "28"})
GOLDEN_B_LABELS = frozenset({FIG1_A, FIG1_B, FIG1_C})


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def corpus_fig1(variant: str) -> str:
    """The two segmentation corpora: interleaved (A) or blocked (B) strings.

    Junk separators are 30 symbols each, unique within and across gaps.
    """
    junk = iter(_JUNK_POOL)
    gap1 = "".join(next(junk) for _ in range(30))
    gap2 = "".join(next(junk) for _ in range(30))
    if variant.upper() == "A":
        block = FIG1_A + FIG1_B + FIG1_C
        return block + gap1 + block + gap2 + block
    if variant.upper() == "B":
        return FIG1_A * 3 + gap1 + FIG1_B * 3 + gap2 + FIG1_C * 3
    raise ConfigError(f"unknown fig1 variant {variant!r}")


def read_corpus(path: str | Path) -> list[str]:
    """Parse a corpus file: one symbol per character, blank lines separate
    streams, lines starting with ``#`` are comments."""
    text = Path(path).read_text(encoding="utf-8")
    streams: list[str] = []
    current: list[str] = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if line.strip() == "":
            if current:
                streams.append("".join(current))
                current = []
            continue
        current.append(line)
    if current:
        streams.append("".join(current))
    return streams


def resolve_corpus(source: str) -> list[str]:
    if source in ("fig1a", "fig1A"):
        return [corpus_fig1("A")]
    if source in ("fig1b", "fig1B"):
        return [corpus_fig1("B")]
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"corpus: no such builtin or file: {source!r}")
    return read_corpus(path)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

KINDS = ("segment", "predict", "plan", "hebbian", "custom")


@dataclass
class PredictSection:
    """``predict:`` -- a cue/outcome motif run through trials.  An explicit
    ``schedule`` lists each trial's outcome; otherwise ``trials`` trials
    present the outcome always, or with ``probability``."""
    cue: str = "cue"
    outcome: str = "outcome"
    schedule: list[bool] | None = None
    trials: int = 20
    probability: float | None = None

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ConfigError(f"predict.trials: must be >= 0, got {self.trials}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"predict.probability: must lie in [0, 1], got {self.probability}")


@dataclass
class PlanSection:
    """``plan:`` -- one path query; ``full_plan`` chains decisions into a
    plan, otherwise one decision is logged."""
    source: str
    goal: str
    context: list[str] = field(default_factory=list)
    policy: str = "absolute"
    full_plan: bool = True

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigError(f"plan.policy: expected one of {POLICIES}, got {self.policy!r}")


@dataclass
class HebbianSection:
    """``hebbian:`` -- ``reps`` co-activations of ``a`` and ``b``,
    ``gap_ticks`` silent ticks apart."""
    a: str
    b: str
    reps: int = 3
    gap_ticks: int = 0

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ConfigError(f"hebbian.reps: must be >= 1, got {self.reps}")
        if self.gap_ticks < 0:
            raise ConfigError(f"hebbian.gap_ticks: must be >= 0, got {self.gap_ticks}")


@dataclass
class ExperimentConfig:
    kind: str = "segment"
    corpus: str | None = None
    params: Params = field(default_factory=Params)
    chunker: ChunkerParams = field(default_factory=ChunkerParams)
    planner: PlannerParams = field(default_factory=PlannerParams)
    innate: InnateSpec | None = None
    seed: int = 0
    deterministic: bool = True
    out: str | None = None
    log: str | None = None
    predict: PredictSection = field(default_factory=PredictSection)
    plan: PlanSection | None = None
    hebbian: HebbianSection | None = None
    version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        # every field must have its annotated type, as from YAML; a section
        # given as a mapping (YAML, or a Python caller) is built here
        for name, hint in get_type_hints(ExperimentConfig).items():
            value, cls = getattr(self, name), _section_class(hint)
            if not _conforms(value, hint):
                raise ConfigError(f"{name}: expected {_expected(hint)}, got {value!r}")
            if cls is not None and isinstance(value, Mapping):
                setattr(self, name, _build_innate(value) if cls is InnateSpec
                        else _build_section(name, cls, value))
        if self.version != SCHEMA_VERSION:
            raise ConfigError(f"version: expected {SCHEMA_VERSION}, got {self.version!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"kind: expected one of {KINDS}, got {self.kind!r}")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed: must fit in 64 unsigned bits")
        if self.kind == "segment" and self.corpus is None:
            raise ConfigError("corpus: required for kind=segment")
        if self.kind in ("plan", "hebbian") and getattr(self, self.kind) is None:
            raise ConfigError(f"{self.kind}: required for kind={self.kind}")
        if self.kind == "plan":  # the one kind that runs the planner
            for name in ("t_act", "t_rel"):
                value = getattr(self.planner, name)
                if not value <= self.params.a_max:
                    raise ConfigError(f"planner.{name}: must not exceed params.a_max "
                                      f"{self.params.a_max!r}, got {value!r}")


def _section_class(hint):
    """The dataclass a field of type ``hint`` holds (``X`` or ``X | None``), or None."""
    return next((h for h in (hint, *get_args(hint)) if is_dataclass(h)), None)


def _conforms(value, hint) -> bool:
    """Does ``value`` have type ``hint``?  A float also takes an int, a bool
    is never a number, and a section also takes a mapping to build it from."""
    if _section_class(hint) is not None and isinstance(value, Mapping):
        return True
    args = get_args(hint)
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_conforms(item, args[0]) for item in value)
    if args:
        return any(_conforms(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _expected(hint) -> str:
    """``hint`` as an error message names it."""
    return ("a mapping" if _section_class(hint) is not None
            else str(hint) if get_args(hint) else hint.__name__)


def _build_section(name: str, cls, data):
    """Build the dataclass ``cls`` from the mapping ``data``.

    The one validator of config input: every key must be a field, every
    field without a default must be given, and every value must have the
    field's annotated type (see ``_conforms``).  The dataclass's own range
    checks run last.  Errors name ``name.field``.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(f"{name}: expected a mapping, got {data!r}")
    hints = get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"{name}: unknown fields {sorted(unknown, key=str)}")
    for f in fields(cls):
        hint = hints[f.name]
        if f.name not in data:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{name}.{f.name}: required")
        elif not _conforms(data[f.name], hint):
            raise ConfigError(
                f"{name}.{f.name}: expected {_expected(hint)}, got {data[f.name]!r}")
    try:
        return cls(**data)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


@dataclass
class InnateSection:
    """``innate:`` as a config gives it; ``_build_innate`` makes the
    :class:`InnateSpec`.  Each ``rewards`` entry is a ``[reward, effector]``
    pair."""
    nodes: list[dict] = field(default_factory=list)    # InnateNode records
    edges: list[dict] = field(default_factory=list)    # InnateEdge records
    rewards: list[list[str]] = field(default_factory=list)


@dataclass
class InnateNode:
    """One ``innate.nodes`` record."""
    id: str
    weight: float
    kind: str = "plain"

    def __post_init__(self) -> None:
        NodeKind(self.kind)     # ValueError names a kind that does not exist


@dataclass
class InnateEdge:
    """One ``innate.edges`` record."""
    src: str
    dst: str
    weight: float


def _build_innate(data) -> InnateSpec:
    """Build ``innate:`` and each of its records through ``_build_section``."""
    section = _build_section("innate", InnateSection, data)
    nodes = [_build_section(f"innate.nodes[{i}]", InnateNode, record)
             for i, record in enumerate(section.nodes)]
    edges = [_build_section(f"innate.edges[{i}]", InnateEdge, record)
             for i, record in enumerate(section.edges)]
    for i, pair in enumerate(section.rewards):
        if len(pair) != 2:
            raise ConfigError(f"innate.rewards[{i}]: expected [reward, effector], got {pair!r}")
    return InnateSpec(nodes=[(n.id, n.kind, float(n.weight)) for n in nodes],
                      edges=[(e.src, e.dst, float(e.weight)) for e in edges],
                      reward_bindings=[tuple(pair) for pair in section.rewards])


def _load_yaml(path: str | Path, what: str):
    """Parse a YAML file; ``what`` names it in errors.  ``yaml`` is imported
    here, so that importing tnet does not load it."""
    import yaml

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        return yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{what} parse error: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Load and validate an experiment config; diagnostics name the field."""
    raw = _load_yaml(path, "config")
    return config_from_mapping(raw if raw is not None else {})


def config_from_mapping(raw: dict) -> ExperimentConfig:
    return _build_section("config", ExperimentConfig, raw)


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def snapshot_from_net(net: Network, seed: int = 0) -> dict:
    """Serializable view of a network; sorted, version-tagged, lossless."""
    nodes = [
        {
            "id": n.id,
            "label": n.id,
            "kind": n.kind.value,
            "weight": n.weight,
            "activation": n.activation,
            "fixated": n.fixated,
        }
        for n in sorted(net.nodes.values(), key=lambda n: n.id)
    ]
    edges = [
        {
            "id": e.id,
            "src": e.src,
            "dst": e.dst,
            "weight": e.weight,
            "activation": e.activation,
            "fixated": e.fixated,
        }
        for e in sorted(net.edges(), key=lambda e: (e.src, e.dst))
    ]
    return {
        "version": SCHEMA_VERSION,
        "tick_count": net.tick_count,
        "seed": seed,
        "params": asdict(net.params),
        "nodes": nodes,
        "edges": edges,
    }


def net_from_snapshot(snap: dict) -> Network:
    if snap.get("version") != SCHEMA_VERSION:
        raise ConfigError(f"snapshot version {snap.get('version')!r} unsupported")
    params = _build_section("params", Params, snap.get("params", {}))
    net = Network(params, seed=int(snap.get("seed", 0)))
    for rec in snap["nodes"]:
        node = net.add_node(rec["id"], NodeKind(rec["kind"]))
        node.weight = rec["weight"]
        node.activation = rec["activation"]
        node.fixated = rec["fixated"]
    for rec in snap["edges"]:
        edge = net.ensure_edge(rec["src"], rec["dst"])
        edge.weight = rec["weight"]
        edge.activation = rec["activation"]
        edge.fixated = rec["fixated"]
    net.tick_count = snap["tick_count"]
    return net


# repr-based float serialization keeps the round trip lossless
_JSON_LAYOUT = {"sort_keys": True, "indent": 2}


def snapshot_json(snap: dict) -> str:
    return json.dumps(snap, **_JSON_LAYOUT) + "\n"


def snapshot_dot(snap: dict) -> str:
    """DOT view: penwidth tracks weight, fixated nodes double-circled.

    Zero-weight reciprocal edges are omitted — they carry no ink.
    """
    w_max = snap["params"]["w_max"]
    lines = ["digraph tnet {"]
    for rec in snap["nodes"]:
        shape = "doublecircle" if rec["fixated"] else "circle"
        pen = 0.5 + 2.5 * rec["weight"] / w_max
        lines.append(
            f'  "{rec["id"]}" [label="{rec["label"]}", shape={shape}, '
            f"penwidth={pen:.3f}];"
        )
    for rec in snap["edges"]:
        if rec["weight"] <= 0.0:
            continue
        pen = 0.5 + 2.5 * rec["weight"] / w_max
        style = ", style=bold" if rec["fixated"] else ""
        lines.append(
            f'  "{rec["src"]}" -> "{rec["dst"]}" [penwidth={pen:.3f}{style}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_snapshot(snap: dict, fmt: str, path: str | Path) -> None:
    if fmt == "json":
        # streamed to the file, so the whole text is never held in memory;
        # the bytes are those of snapshot_json
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(snap, fp, **_JSON_LAYOUT)
            fp.write("\n")
    elif fmt == "dot":
        Path(path).write_text(snapshot_dot(snap), encoding="utf-8")
    else:
        raise ConfigError(f"unknown export format {fmt!r}")


def import_snapshot(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"snapshot file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"snapshot parse error: {exc}") from exc


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def _event_lines(events: list[tuple[int, str, str, float]]) -> list[str]:
    return [f"{tick}\t{kind}\t{element}\t{value!r}" for tick, kind, element, value in events]


def _predict_schedule(cfg: ExperimentConfig) -> list[bool]:
    section = cfg.predict
    if section.schedule is not None:
        return section.schedule
    if section.probability is None:
        return [True] * section.trials
    return [counter_uniform(cfg.seed, "schedule", i) < section.probability
            for i in range(section.trials)]


def run_experiment(cfg: ExperimentConfig) -> tuple[dict, list[str]]:
    """Run one experiment; returns (snapshot, event log lines)."""
    mode = FiringMode.DETERMINISTIC if cfg.deterministic else FiringMode.STOCHASTIC
    net = Network(cfg.params, seed=cfg.seed, mode=mode)
    if cfg.innate is not None:
        inject_innate(net, cfg.innate)
    events: list[tuple[int, str, str, float]] = []

    if cfg.kind == "segment":
        chunker = Chunker(net, cfg.chunker)
        for stream in resolve_corpus(cfg.corpus):
            chunker.observe_stream(stream)
        events = chunker.events
    elif cfg.kind == "predict":
        section = cfg.predict
        net.ensure_node(section.cue)
        net.ensure_node(section.outcome)
        motif = build_motif(net, section.cue, section.outcome)
        for i, present in enumerate(_predict_schedule(cfg)):
            error = trial(net, motif, present)
            events.append((net.tick_count, "error", f"trial-{i}", error))
    elif cfg.kind == "plan":
        section = cfg.plan
        query = PathQuery(source=section.source, goal=section.goal,
                          context=frozenset(section.context))
        if section.full_plan:
            for i, hop in enumerate(plan(net, query, cfg.planner, section.policy)):
                events.append((net.tick_count, "commit", hop, float(i)))
        else:
            decision = decide(net, query, section.policy, cfg.planner)
            if decision is not None:
                events.append((net.tick_count, "decision", decision.chosen,
                               float(decision.rounds_used)))
    elif cfg.kind == "hebbian":
        a, b = cfg.hebbian.a, cfg.hebbian.b
        net.ensure_node(a)
        net.ensure_node(b)
        hebbian_episode(net, a, b, cfg.hebbian.reps, cfg.hebbian.gap_ticks)
        events.append((net.tick_count, "weight", f"{a}->{b}",
                       net.edge(a, b).weight))
    # custom: innate network only, nothing streamed

    snapshot = snapshot_from_net(net, cfg.seed)
    return snapshot, _event_lines(events)


def write_outputs(cfg: ExperimentConfig, snapshot: dict, log_lines: list[str]) -> None:
    if cfg.out:
        export_snapshot(snapshot, "json", cfg.out)
    if cfg.log:
        Path(cfg.log).write_text("\n".join(log_lines) + ("\n" if log_lines else ""),
                                 encoding="utf-8")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _fixated_chunk_labels(snapshot: dict) -> set[str]:
    return {rec["id"] for rec in snapshot["nodes"]
            if rec["kind"] == "chunk" and rec["fixated"]}


def label_set_hash(labels: set[str]) -> str:
    digest = hashlib.sha256("\n".join(sorted(labels)).encode("utf-8"))
    return digest.hexdigest()[:16]


def sweep(base: ExperimentConfig, grid: dict[str, list]) -> list[dict]:
    """Cartesian product over Params fields; one result row per cell."""
    keys = sorted(grid)
    rows: list[dict] = []
    cells = product(*(grid[k] for k in keys)) if keys else [()]
    for values in cells:
        overrides = dict(zip(keys, values))
        params = _build_section("grid", Params, {**asdict(base.params), **overrides})
        snapshot, _ = run_experiment(replace(base, params=params))
        labels = _fixated_chunk_labels(snapshot)
        row = dict(overrides)
        row["fixated_chunks"] = len(labels)
        row["label_hash"] = label_set_hash(labels)
        row["golden_a"] = labels == GOLDEN_A_LABELS
        row["golden_b"] = labels == GOLDEN_B_LABELS
        rows.append(row)
    return rows


def write_sweep_table(rows: list[dict], path: str | Path) -> None:
    if not rows:
        Path(path).write_text("", encoding="utf-8")
        return
    fields = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def load_grid(path: str | Path) -> dict[str, list]:
    raw = _load_yaml(path, "grid")
    if raw is None:
        return {}
    if not isinstance(raw, dict) or not all(isinstance(v, list) for v in raw.values()):
        raise ConfigError("grid must map param names to value lists")
    return raw
