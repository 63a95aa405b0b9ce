"""Harness tests: configs, corpora, snapshots, sweeps, and the CLI."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tnet
from tnet.cli import main
from tnet.errors import ConfigError
from tnet.harness import (
    ExperimentConfig,
    config_from_mapping,
    corpus_fig1,
    export_snapshot,
    label_set_hash,
    load_config,
    net_from_snapshot,
    read_corpus,
    resolve_corpus,
    run_experiment,
    snapshot_dot,
    snapshot_from_net,
    snapshot_json,
    sweep,
)
from tnet.substrate import Network, NodeKind, Params


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def test_builtin_corpora_shape():
    a = corpus_fig1("A")
    b = corpus_fig1("B")
    assert len(a) == len(b) == 3 * 24 + 2 * 30
    assert a.count("75648361") == 3
    assert b.count("75648361") == 3
    # junk symbols never repeat and never collide with the structured strings
    for stream in (a, b):
        junk = [c for c in stream if c not in "0123456789"]
        assert len(junk) == 60
        assert len(set(junk)) == 60


def test_interleaved_vs_blocked_layout():
    assert "7564836175698136" in corpus_fig1("A")      # strings interleave
    assert "7564836175648361" in corpus_fig1("B")      # strings repeat
    with pytest.raises(ConfigError):
        corpus_fig1("C")


def test_corpus_file_parsing(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("# a comment\nabab\nabab\n\ncdcd\n# mid comment\ncdcd\n",
                    encoding="utf-8")
    streams = read_corpus(path)
    assert streams == ["abababab", "cdcdcdcd"]


def test_resolve_corpus_errors_on_unknown():
    with pytest.raises(ConfigError):
        resolve_corpus("no-such-thing")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_unknown_field_is_named():
    with pytest.raises(ConfigError, match="bogus"):
        config_from_mapping({"kind": "segment", "corpus": "fig1a", "bogus": 1})


def test_config_bad_param_section_is_named():
    with pytest.raises(ConfigError, match="params"):
        config_from_mapping({"kind": "segment", "corpus": "fig1a",
                             "params": {"dw": -1}})
    with pytest.raises(ConfigError, match="chunker"):
        config_from_mapping({"kind": "segment", "corpus": "fig1a",
                             "chunker": {"l_min": 0}})


# Each malformed config exits 1 from `tnet run` (or `tnet sweep`, when a grid
# is given) with the offending field named on stderr.
MALFORMED = [
    pytest.param("kind: hebbian\nhebbian: {a: x, b: y, rep: 10}\n", None,
                 "hebbian: unknown fields ['rep']", id="hebbian-unknown-rep"),
    pytest.param("kind: predict\npredict: {trails: 3}\n", None,
                 "predict: unknown fields ['trails']", id="predict-unknown-trails"),
    pytest.param("kind: hebbian\nhebbian: {a: x, b: y, reps: 2.7}\n", None,
                 "hebbian.reps", id="hebbian.reps-float"),
    pytest.param("kind: hebbian\nhebbian: {a: x, b: y, reps: lots}\n", None,
                 "hebbian.reps", id="hebbian.reps-lots"),
    pytest.param("kind: hebbian\nhebbian: {a: x, b: y, reps: 0}\n", None,
                 "hebbian.reps", id="hebbian.reps-zero"),
    pytest.param("kind: hebbian\nhebbian: {a: x, b: y, gap_ticks: [1]}\n", None,
                 "hebbian.gap_ticks", id="hebbian.gap_ticks-list"),
    pytest.param("kind: plan\nplanner: {max_rounds: 2.5}\nplan: {source: S, goal: G}\n", None,
                 "planner.max_rounds", id="planner.max_rounds-float"),
    pytest.param("kind: plan\nplan: {source: S, goal: G, context: SX}\n", None,
                 "plan.context", id="plan.context-string"),
    pytest.param("kind: plan\nplan: {source: S}\n", None,
                 "plan.goal", id="plan.goal-missing"),
    pytest.param("kind: plan\nplan: {source: a, goal: b, policy: bogus}\n", None,
                 "plan.policy", id="plan.policy-bogus"),
    pytest.param("kind: predict\npredict: {schedule: \"yes\"}\n", None,
                 "predict.schedule", id="predict.schedule-string"),
    pytest.param("kind: predict\npredict: {trials: many}\n", None,
                 "predict.trials", id="predict.trials-many"),
    pytest.param("kind: predict\npredict: {probability: high}\n", None,
                 "predict.probability", id="predict.probability-high"),
    pytest.param("kind: segment\ncorpus: fig1b\ndeterministic: \"false\"\n", None,
                 "config.deterministic", id="config.deterministic-string"),
    pytest.param("kind: segment\ncorpus: fig1b\nseed: abc\n", None,
                 "config.seed", id="config.seed-string"),
    pytest.param("kind: segment\ncorpus: fig1b\nversion: 2\n", None,
                 "version", id="version-2"),
    pytest.param("kind: segment\ncorpus: fig1b\nchunker: {window_coact: 3}\n", None,
                 "chunker: unknown fields ['window_coact']", id="chunker-unknown-window_coact"),
    pytest.param("kind: segment\ncorpus: fig1b\nparams: {theta: true}\n", None,
                 "params.theta", id="params.theta-bool"),
    pytest.param("kind: segment\ncorpus: fig1b\nparams: {dw: \"0.3\"}\n", None,
                 "params.dw", id="params.dw-string"),
    pytest.param("kind: segment\ncorpus: fig1b\n", "dw: [\"0.3\"]\n",
                 "grid.dw", id="grid.dw-string"),
    pytest.param("kind: custom\ninnate: {nodes: [{id: a, weight: true}]}\n", None,
                 "innate.nodes[0].weight", id="innate.nodes.weight-bool"),
    pytest.param("kind: custom\ninnate: {nodes: [{id: a, weight: \"2.0\"}]}\n", None,
                 "innate.nodes[0].weight", id="innate.nodes.weight-string"),
    pytest.param("kind: custom\ninnate: {nodes: [{id: a, weight: 2.0, colour: red}]}\n", None,
                 "innate.nodes[0]: unknown fields ['colour']", id="innate.nodes-unknown-colour"),
    pytest.param("kind: custom\ninnate: {nodes: [{id: 7, weight: 2.0}]}\n", None,
                 "innate.nodes[0].id", id="innate.nodes.id-int"),
    pytest.param("kind: custom\ninnate: {nodes: [{id: a, weight: 2.0, kind: bogus}]}\n", None,
                 "innate.nodes[0]", id="innate.nodes.kind-bogus"),
    pytest.param("kind: custom\ninnate: {edges: [{src: a, dst: b, weight: [2]}]}\n", None,
                 "innate.edges[0].weight", id="innate.edges.weight-list"),
    pytest.param("kind: custom\ninnate:\n  nodes: [{id: a, weight: 2.0}, {id: b, weight: 2.0}]\n"
                 "  rewards: [[a, b, x]]\n", None,
                 "innate.rewards[0]", id="innate.rewards-three"),
    # range checks that NaN must fail as well
    pytest.param("kind: segment\ncorpus: fig1a\nparams: {dw: .nan}\n", None,
                 "params: dw must be", id="params.dw-nan"),
    pytest.param("kind: segment\ncorpus: fig1a\nparams: {boost: .nan}\n", None,
                 "params: boost must be", id="params.boost-nan"),
    pytest.param("kind: segment\ncorpus: fig1a\nparams: {decay_w: .nan}\n", None,
                 "params: decay_w must be", id="params.decay_w-nan"),
    # an infinite ceiling or decay would write Infinity, which is not JSON
    pytest.param("kind: segment\ncorpus: fig1a\nparams: {w_max: .inf}\n", None,
                 "params: w_max must be", id="params.w_max-inf"),
    pytest.param("kind: segment\ncorpus: fig1a\nparams: {a_max: .inf}\n", None,
                 "params: a_max must be", id="params.a_max-inf"),
    pytest.param("kind: segment\ncorpus: fig1a\nparams: {decay_w: .inf}\n", None,
                 "params: decay_w must be", id="params.decay_w-inf"),
    pytest.param("kind: plan\nplanner: {t_act: .nan}\nplan: {source: S, goal: G}\n", None,
                 "planner: t_act must be", id="planner.t_act-nan"),
    pytest.param("kind: plan\nplanner: {t_rel: .nan}\nplan: {source: S, goal: G}\n", None,
                 "planner: t_rel must be", id="planner.t_rel-nan"),
    pytest.param("kind: plan\nplanner: {goal_value: .nan}\nplan: {source: S, goal: G}\n", None,
                 "planner: goal_value must be", id="planner.goal_value-nan"),
    # a planner threshold above the activation ceiling, also once a grid lowers it
    pytest.param("kind: plan\nplanner: {t_act: 1.5}\nplan: {source: S, goal: G}\n", None,
                 "planner.t_act: must not exceed params.a_max", id="planner.t_act-above-a_max"),
    pytest.param("kind: plan\nplanner: {t_rel: .inf}\nplan: {source: S, goal: G}\n", None,
                 "planner.t_rel: must not exceed params.a_max", id="planner.t_rel-inf"),
    pytest.param("kind: plan\nparams: {a_max: 0.55}\nplan: {source: S, goal: G}\n", None,
                 "planner.t_act: must not exceed params.a_max", id="params.a_max-below-t_act"),
    pytest.param("kind: plan\nplan: {source: S, goal: G}\n", "a_max: [0.55]\n",
                 "planner.t_act: must not exceed params.a_max", id="grid.a_max-below-t_act"),
    pytest.param("kind: predict\npredict: {probability: 1.5}\n", None,
                 "predict.probability: must lie in [0, 1]", id="predict.probability-1.5"),
    pytest.param("kind: predict\npredict: {trials: -4}\n", None,
                 "predict.trials: must be >= 0", id="predict.trials-negative"),
    pytest.param("kind: hebbian\nhebbian: {a: x, b: y, gap_ticks: -2}\n", None,
                 "hebbian.gap_ticks: must be >= 0", id="hebbian.gap_ticks-negative"),
]


@pytest.mark.parametrize("config, grid, named", MALFORMED)
def test_malformed_config_exits_1_naming_field(tmp_path, capsys, config, grid, named):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config, encoding="utf-8")
    if grid is None:
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "snap.json")])
    else:
        (tmp_path / "grid.yaml").write_text(grid, encoding="utf-8")
        code = main(["sweep", "--config", str(cfg), "--grid", str(tmp_path / "grid.yaml"),
                     "--out", str(tmp_path / "table.csv")])
    err = capsys.readouterr().err
    assert code == 1 and named in err, err


def test_readme_run_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("`run` executes an experiment described by a YAML config:")[1]
    example = example.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "cfg.yaml"
    path.write_text(example, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.kind == "segment" and cfg.params.dw == pytest.approx(0.3)


# Two equal routes S-X-G and S-Y-G: the first forward pass ties X and Y at
# 1/3, which withholds in deterministic mode and draws in stochastic mode.
TIE_PLAN = """\
kind: plan
deterministic: true
planner: {t_act: 0.3}
plan: {source: S, goal: G, full_plan: false}
innate:
  nodes: [{id: S, weight: 3.0}, {id: X, weight: 3.0}, {id: Y, weight: 3.0}, {id: G, weight: 3.0}]
  edges:
    - {src: S, dst: X, weight: 3.0}
    - {src: S, dst: Y, weight: 3.0}
    - {src: X, dst: G, weight: 3.0}
    - {src: Y, dst: G, weight: 3.0}
"""


def test_cli_segment_rejects_a_nan_flag(capsys):
    assert main(["segment", "--corpus", "fig1a", "--decay", "nan"]) == 1
    assert "params: decay_w must be" in capsys.readouterr().err


def test_cli_no_deterministic_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(TIE_PLAN, encoding="utf-8")
    logs = {}
    for flag in ("--deterministic", "--no-deterministic"):
        log = tmp_path / f"{flag}.log"
        assert main(["run", "--config", str(cfg), "--log", str(log), flag]) == 0
        logs[flag] = log.read_text(encoding="utf-8")
    capsys.readouterr()
    assert logs["--deterministic"] == ""
    assert logs["--no-deterministic"].split("\t")[1] == "decision"


def test_import_tnet_leaves_yaml_unloaded():
    src = str(Path(tnet.__file__).resolve().parents[1])
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import tnet; print('yaml' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_config_requires_corpus_for_segment():
    with pytest.raises(ConfigError, match="corpus"):
        ExperimentConfig(kind="segment")


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError, match="kind"):
        ExperimentConfig(kind="telepathy")


@pytest.mark.parametrize("field, value", [
    pytest.param("seed", "1", id="seed-string"),
    pytest.param("seed", 1.0, id="seed-float"),
    pytest.param("deterministic", "false", id="deterministic-string"),
    pytest.param("corpus", ["fig1a"], id="corpus-list"),
    pytest.param("out", 1, id="out-int"),
    pytest.param("version", True, id="version-bool"),
    pytest.param("params", 5, id="params-int"),
    pytest.param("plan", ["S", "G"], id="plan-list"),
])
def test_config_built_in_python_checks_field_types(field, value):
    # a library caller gets the same type checks as a YAML config
    with pytest.raises(ConfigError, match=f"^{field}: expected"):
        ExperimentConfig(**{"kind": "segment", "corpus": "fig1a", field: value})


def test_load_config_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("kind: segment\ncorpus: fig1a\nseed: 9\n"
                    "params: {dw: 0.3}\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 9
    assert cfg.params.dw == pytest.approx(0.3)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")


def test_innate_section_parses(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        "kind: custom\n"
        "innate:\n"
        "  nodes:\n"
        "    - {id: hunger, kind: plain, weight: 2.0}\n"
        "  edges: []\n",
        encoding="utf-8")
    cfg = load_config(path)
    snapshot, _ = run_experiment(cfg)
    (node,) = snapshot["nodes"]
    assert node["id"] == "hunger" and node["fixated"]


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def random_net(seed: int) -> Network:
    rng = random.Random(seed)
    net = Network(Params(), seed=seed)
    ids = [f"n{i}" for i in range(rng.randint(2, 8))]
    for nid in ids:
        node = net.add_node(nid, rng.choice(list(NodeKind)))
        node.weight = rng.uniform(0, net.params.w_max)
        node.activation = rng.uniform(0, net.params.a_max)
        node.fixated = node.weight >= net.params.theta
    for _ in range(rng.randint(0, 12)):
        a, b = rng.sample(ids, 2)
        edge = net.ensure_edge(a, b)
        edge.weight = rng.uniform(0, net.params.w_max)
    net.tick_count = rng.randint(0, 1000)
    return net


@pytest.mark.parametrize("seed", range(10))
def test_snapshot_round_trip_is_lossless(seed):
    net = random_net(seed)
    snap = snapshot_from_net(net, seed)
    back = net_from_snapshot(json.loads(snapshot_json(snap)))
    assert snapshot_json(snapshot_from_net(back, seed)) == snapshot_json(snap)
    for node in net.nodes.values():
        twin = back.node(node.id)
        assert twin.weight == node.weight        # exact, not approximate
        assert twin.activation == node.activation
        assert twin.kind is node.kind and twin.fixated == node.fixated


def test_snapshot_json_is_canonical():
    net = random_net(3)
    a = snapshot_json(snapshot_from_net(net, 3))
    b = snapshot_json(snapshot_from_net(net, 3))
    assert a == b
    keys = list(json.loads(a).keys())
    assert keys == sorted(keys)


def test_streamed_json_export_writes_snapshot_json_bytes(tmp_path):
    net = random_net(5)
    snap = snapshot_from_net(net, 5)
    path = tmp_path / "snap.json"
    export_snapshot(snap, "json", path)
    assert path.read_bytes() == snapshot_json(snap).encode("utf-8")


def test_dot_export_marks_fixation_and_weight():
    net = Network(Params(), seed=0)
    hot = net.add_node("hot")
    hot.weight = 2.0
    hot.fixated = True
    cold = net.add_node("cold")
    cold.weight = 0.2
    net.ensure_edge("hot", "cold").weight = 1.0
    dot = snapshot_dot(snapshot_from_net(net, 0))
    assert '"hot" [label="hot", shape=doublecircle' in dot
    assert 'shape=circle' in dot
    assert '"hot" -> "cold"' in dot
    assert '"cold" -> "hot"' not in dot       # zero-weight reciprocal omitted


# ---------------------------------------------------------------------------
# experiments and sweeps
# ---------------------------------------------------------------------------

def test_run_experiment_is_bit_reproducible():
    cfg = ExperimentConfig(kind="segment", corpus="fig1a", seed=4)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert snapshot_json(first[0]) == snapshot_json(second[0])
    assert first[1] == second[1]


def test_predict_experiment_logs_errors():
    cfg = ExperimentConfig(kind="predict",
                           predict={"cue": "bell", "outcome": "food",
                                    "schedule": [True, True]})
    _, log = run_experiment(cfg)
    assert len(log) == 2
    assert all(line.split("\t")[1] == "error" for line in log)


def test_sweep_produces_one_row_per_cell():
    base = ExperimentConfig(kind="segment", corpus="fig1b")
    rows = sweep(base, {"dw": [0.3, 0.4]})
    assert len(rows) == 2
    by_dw = {row["dw"]: row for row in rows}
    assert by_dw[0.4]["golden_b"] and not by_dw[0.4]["golden_a"]
    assert by_dw[0.3]["golden_a"] and not by_dw[0.3]["golden_b"]
    assert by_dw[0.3]["fixated_chunks"] == 5


def test_sweep_empty_grid_runs_base_once():
    base = ExperimentConfig(kind="segment", corpus="fig1b")
    rows = sweep(base, {})
    assert len(rows) == 1
    assert rows[0]["fixated_chunks"] == 3


def test_sweep_rejects_unknown_param():
    base = ExperimentConfig(kind="segment", corpus="fig1b")
    with pytest.raises(ConfigError, match="grid"):
        sweep(base, {"nonsense": [1]})


def test_label_set_hash_is_order_free():
    assert label_set_hash({"a", "b"}) == label_set_hash({"b", "a"})
    assert label_set_hash({"a"}) != label_set_hash({"b"})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_segment_prints_chunks(capsys):
    assert main(["segment", "--corpus", "fig1b"]) == 0
    out = capsys.readouterr().out.split()
    assert sorted(out) == ["75628136", "75648361", "75698136"]


def test_cli_run_export_round_trip(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("kind: segment\ncorpus: fig1b\n", encoding="utf-8")
    snap = tmp_path / "snap.json"
    log = tmp_path / "events.log"
    assert main(["run", "--config", str(cfg), "--out", str(snap),
                 "--log", str(log)]) == 0
    assert snap.exists() and log.exists()
    dot = tmp_path / "net.dot"
    assert main(["export", "--in", str(snap), "--format", "dot",
                 "--out", str(dot)]) == 0
    assert dot.read_text(encoding="utf-8").startswith("digraph")
    rejson = tmp_path / "again.json"
    assert main(["export", "--in", str(snap), "--format", "json",
                 "--out", str(rejson)]) == 0
    assert rejson.read_text(encoding="utf-8") == snap.read_text(encoding="utf-8")


def test_cli_sweep_writes_table(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("kind: segment\ncorpus: fig1b\n", encoding="utf-8")
    grid = tmp_path / "grid.yaml"
    grid.write_text("dw: [0.3, 0.4]\n", encoding="utf-8")
    table = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--grid", str(grid),
                 "--out", str(table)]) == 0
    lines = table.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 3                     # header + 2 cells
    assert lines[0].startswith("dw,")


def test_cli_exit_codes(tmp_path, capsys):
    # 1: configuration problems
    assert main(["run", "--config", str(tmp_path / "none.yaml")]) == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: nope\n", encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 1
    assert main(["segment", "--corpus", "fig1a", "--dw", "-1"]) == 1
    # 2: runtime failures (unreadable snapshot content)
    broken = tmp_path / "broken.json"
    broken.write_text('{"version": 1, "nodes": "not-a-list"}', encoding="utf-8")
    assert main(["export", "--in", str(broken), "--format", "dot",
                 "--out", str(tmp_path / "x.dot")]) == 2
    capsys.readouterr()
