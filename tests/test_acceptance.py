"""Acceptance suite: ten end-to-end checks, one test (one pass/fail line) each.

Each test states its tolerance inline and enforces its own runtime budget,
which interrupts a check that runs past it.  Budget regression tests for two
long random streams follow them, and a last test checks the guard itself.
The segmentation goldens (tests 1-3) pin exact chunk sets and exact edge
equalities; the rest are oracle comparisons and behavioral laws.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import time
from collections import Counter

from tnet.chunker import Chunker, ChunkerParams, match, observe_pair
from tnet.learning import (
    Episode,
    InnateSpec,
    hebbian_episode,
    inject_innate,
    reinforce,
    replay,
)
from tnet.harness import (
    ExperimentConfig,
    corpus_fig1,
    net_from_snapshot,
    run_experiment,
    snapshot_from_net,
    snapshot_json,
    write_outputs,
)
from tnet.planner import PathQuery, PlannerParams, decide, propagate
from tnet.predictor import (
    ActivationSnapshot,
    build_motif,
    prediction_error,
    run_schedule,
    trial,
)
from tnet.substrate import FiringMode, Network, NodeKind, Params
from tnet.transducer import Transducer, compose


class Budget:
    """Wall-clock guard for a criterion.

    An in-process interval timer (``SIGALRM``) interrupts a block that runs
    past the limit, so a hang fails its test instead of hanging the suite;
    no thread or process is started.  The previous handler is restored on
    exit.
    """

    def __init__(self, seconds: float) -> None:
        self.limit = seconds

    def _expire(self, signum, frame) -> None:
        raise AssertionError(f"interrupted at the {self.limit}s budget")

    def __enter__(self) -> "Budget":
        self.previous = signal.signal(signal.SIGALRM, self._expire)
        signal.setitimer(signal.ITIMER_REAL, self.limit)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.limit, f"runtime {elapsed:.2f}s over {self.limit}s budget"


def segment(corpus: str, **param_overrides) -> Chunker:
    net = Network(Params(**param_overrides), seed=0)
    chunker = Chunker(net, ChunkerParams())
    chunker.observe_stream(corpus)
    return chunker


def positive_out(net: Network, label: str) -> dict[str, float]:
    return {dst: e.weight for dst, e in net.out_edges(label, positive=True).items()}


# ---------------------------------------------------------------------------
# 1-3: segmentation goldens
# ---------------------------------------------------------------------------

def test_01_interleaved_stream_segments_into_shared_parts():
    with Budget(1.0):
        chunker = segment(corpus_fig1("A"))
        net = chunker.net
        assert chunker.fixated_chunks() == {"756", "48361", "98", "136", "28"}
        out_756 = positive_out(net, "756")
        assert set(out_756) == {"48361", "98", "28"}
        assert len(set(out_756.values())) == 1          # exact equality
        assert set(positive_out(net, "98")) == {"136"}
        assert set(positive_out(net, "28")) == {"136"}


def test_02_blocked_stream_keeps_whole_strings():
    with Budget(1.0):
        chunker = segment(corpus_fig1("B"))
        assert chunker.fixated_chunks() == {"75648361", "75698136", "75628136"}
        assert "98" not in chunker.fixated_chunks()
        assert "28" not in chunker.fixated_chunks()


def test_03_lower_increment_flips_blocked_stream_to_parts():
    with Budget(1.0):
        chunker = segment(corpus_fig1("B"), dw=0.3)
        net = chunker.net
        assert chunker.fixated_chunks() == {"756", "48361", "98", "136", "28"}
        assert set(positive_out(net, "756")) == {"48361", "98", "28"}
        assert set(positive_out(net, "98")) == {"136"}
        assert set(positive_out(net, "28")) == {"136"}


# ---------------------------------------------------------------------------
# 4: transducer composition oracle
# ---------------------------------------------------------------------------

def _random_transducer(rng, states, in_alpha, out_alpha) -> Transducer:
    table = {}
    for s in states:
        for x in in_alpha:
            outcomes = [(t, y) for t in states for y in out_alpha]
            raw = [rng.random() + 1e-3 for _ in outcomes]
            total = sum(raw)
            table[(s, x)] = {o: w / total for o, w in zip(outcomes, raw)}
    return Transducer(states=tuple(states), in_alphabet=tuple(in_alpha),
                      out_alphabet=tuple(out_alpha), table=table)


def test_04_composition_matches_marginalization_and_sampling():
    with Budget(30.0):
        rng = random.Random(20240601)
        alphabets = ["a", "ab", "abc"]
        for _ in range(200):
            mid = rng.choice(alphabets)
            t1 = _random_transducer(rng, range(rng.randint(1, 3)),
                                    rng.choice(alphabets), mid)
            t2 = _random_transducer(rng, range(rng.randint(1, 3)),
                                    mid, rng.choice(alphabets))
            comp = compose(t1, t2)
            for (s1, x), row1 in t1.table.items():
                for s2 in t2.states:
                    got = comp.distribution((s1, s2), x)
                    for u1 in t1.states:
                        for u2 in t2.states:
                            for z in t2.out_alphabet:
                                want = sum(
                                    row1.get((u1, y), 0.0)
                                    * t2.table[(s2, y)].get((u2, z), 0.0)
                                    for y in t1.out_alphabet)
                                assert abs(got.get(((u1, u2), z), 0.0) - want) < 1e-9

        # empirical frequencies on one composed row, 1e5 draws, 3 SE
        t1 = _random_transducer(random.Random(7), range(3), "ab", "uv")
        t2 = _random_transducer(random.Random(8), range(3), "uv", "xy")
        comp = compose(t1, t2)
        state, sym = comp.states[0], comp.in_alphabet[0]
        dist = comp.distribution(state, sym)
        n = 100_000
        draw_rng = random.Random(99)
        counts = Counter(comp.step(state, sym, draw_rng) for _ in range(n))
        for outcome, p in dist.items():
            se = (p * (1 - p) / n) ** 0.5
            assert abs(counts[outcome] / n - p) <= 3 * se + 1e-12


# ---------------------------------------------------------------------------
# 5: prediction error
# ---------------------------------------------------------------------------

def test_05_prediction_error_bounds_convergence_and_flips():
    with Budget(1.0):
        # bounds on assorted schedules
        sched_rng = random.Random(5)
        for _ in range(10):
            net = Network(Params(), seed=0)
            net.add_node("bell")
            net.add_node("food")
            motif = build_motif(net, "bell", "food")
            outcomes = [sched_rng.random() < 0.5 for _ in range(12)]
            for err in run_schedule(net, motif, outcomes):
                assert -1.0 <= err <= 1.0

        # zero at exact match
        net = Network(Params(), seed=0)
        net.add_node("bell")
        net.add_node("food")
        motif = build_motif(net, "bell", "food")
        s1 = ActivationSnapshot(0, {motif.pred_pos: 0.3, motif.pred_neg: 0.7})
        s2 = ActivationSnapshot(1, {motif.outcome_pos: 0.3, motif.outcome_neg: 0.7})
        assert prediction_error(s1, s2, motif) == 0.0

        # convergence within 20 always-food trials
        net = Network(Params(), seed=0)
        net.add_node("bell")
        net.add_node("food")
        motif = build_motif(net, "bell", "food")
        errors = run_schedule(net, motif, [True] * 20)
        assert any(abs(e) < 0.05 for e in errors)
        converged_err = errors[-1]

        # first omission spikes strictly above the converged trial,
        # the second omission lands strictly below the first
        flip1 = trial(net, motif, False)
        flip2 = trial(net, motif, False)
        assert abs(flip1) > abs(converged_err)
        assert abs(flip2) < abs(flip1)


# ---------------------------------------------------------------------------
# 6: planner vs path-enumeration oracle
# ---------------------------------------------------------------------------

def _feeder() -> Network:
    net = Network(Params(w_max=1.0), seed=0)
    for nid in "ABCDE":
        net.add_node(nid)
    net.add_node("feed", NodeKind.EFFECTOR)
    net.add_node("food", NodeKind.REWARD)
    for node in net.nodes.values():
        node.weight = 1.0
        node.fixated = True
    for src, dst, w in [("A", "B", 0.9), ("B", "C", 0.8), ("C", "feed", 0.2),
                        ("A", "D", 0.5), ("D", "E", 0.8), ("E", "feed", 0.9),
                        ("feed", "food", 1.0)]:
        edge = net.ensure_edge(src, dst)
        edge.weight = w
        net.edge(dst, src).weight = w
    return net


def _random_dag(rng: random.Random):
    """Layered DAG: source -> candidates -> interior layers -> goal.

    First-hop edge weights and candidate node weights are uniform across
    candidates, so the round-2 ordering is decided purely by backward sums.
    """
    net = Network(Params(), seed=0)
    w_max = net.params.w_max
    n_candidates = rng.randint(2, 4)
    layer_sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
    layers: list[list[str]] = [["src"]]
    net.add_node("src").weight = rng.uniform(0.5, 1.0) * w_max
    candidates = [f"c{i}" for i in range(n_candidates)]
    cand_weight = rng.uniform(0.5, 1.0) * w_max
    for cid in candidates:
        net.add_node(cid).weight = cand_weight
    layers.append(candidates)
    for depth, size in enumerate(layer_sizes):
        layer = [f"m{depth}_{i}" for i in range(size)]
        for nid in layer:
            net.add_node(nid).weight = rng.uniform(0.4, 1.0) * w_max
        layers.append(layer)
    net.add_node("goal").weight = rng.uniform(0.5, 1.0) * w_max
    layers.append(["goal"])

    first_hop = rng.uniform(0.4, 1.0) * w_max
    for cid in candidates:
        net.ensure_edge("src", cid).weight = first_hop
    for upper, lower in zip(layers[1:], layers[2:]):
        for src in upper:
            for dst in lower:
                if rng.random() < 0.7:
                    net.ensure_edge(src, dst).weight = rng.uniform(0.3, 1.0) * w_max
    return net, candidates


def _path_value_sums(net: Network, candidates: list[str], goal_value: float):
    """Oracle: enumerate simple paths candidate=>goal, sum attenuated value."""
    w_max = net.params.w_max
    sums = {}
    for cand in candidates:
        total = 0.0
        stack = [(cand, goal_value / 3 * net.nodes[cand].weight / w_max, frozenset([cand]))]
        while stack:
            node, value, seen = stack.pop()
            for dst, edge in net.out[node].items():
                if edge.weight <= 0.0 or dst in seen:
                    continue
                carried = value * (edge.weight / w_max)
                if dst == "goal":
                    total += carried
                else:
                    stack.append((dst, carried * net.nodes[dst].weight / w_max,
                                  seen | {dst}))
        sums[cand] = total
    return sums


def test_06_planner_feeder_and_random_dag_oracle():
    with Budget(10.0):
        # feeder scenario: impulsive round-1 pick vs deliberate round-2 pick
        q = PathQuery("A", "food")
        impulsive = decide(_feeder(), q, "absolute", PlannerParams(t_act=0.25))
        assert impulsive is not None
        assert (impulsive.chosen, impulsive.rounds_used) == ("B", 1)
        deliberate = decide(_feeder(), q, "absolute", PlannerParams(t_act=0.4))
        assert deliberate is not None
        assert (deliberate.chosen, deliberate.rounds_used) == ("D", 2)

        # random DAGs: deliberate decide must match the path-value oracle
        rng = random.Random(61)
        params_proto = PlannerParams()
        checked = 0
        while checked < 100:
            net, candidates = _random_dag(rng)
            oracle = _path_value_sums(net, candidates, params_proto.goal_value)
            ranked = sorted(oracle.values(), reverse=True)
            if ranked[0] <= 0.0 or ranked[0] - ranked[1] < 1e-9:
                continue   # unreachable goal or tied instance
            drive = params_proto.source_strength / 3.0
            w_max = net.params.w_max
            fwd = (drive * (net.out["src"][candidates[0]].weight / w_max)
                   * (net.nodes[candidates[0]].weight / w_max))
            if fwd + ranked[0] >= 0.95 * net.params.a_max:
                continue   # clamping would mask the ordering
            t_act = fwd + 0.5 * ranked[0]
            d = decide(net, PathQuery("src", "goal"), "absolute",
                       PlannerParams(t_act=t_act, max_rounds=4,
                                     back_uses_forward_weight=True))
            best = max(oracle, key=oracle.get)
            assert d is not None, "planner withheld on a decidable instance"
            assert d.chosen == best, f"planner {d.chosen} != oracle {best}"
            assert d.rounds_used == 2
            checked += 1


# ---------------------------------------------------------------------------
# 7: learning properties
# ---------------------------------------------------------------------------

def _reciprocals_complete(net: Network) -> bool:
    return all(net.has_edge(e.dst, e.src) for e in net.edges())


def test_07_learning_floor_supervision_and_reciprocals():
    with Budget(30.0):
        # supervision advantage: boosted reward pairing fixates strictly faster
        net = Network(Params(), seed=0)
        net.add_node("light")
        food = net.add_node("food", NodeKind.REWARD)
        food.weight = 2.0
        food.fixated = True
        reward_trials = 0
        while True:
            reinforce(net, "light", "food")
            reward_trials += 1
            if net.edge("light", "food").fixated:
                break
        assert _reciprocals_complete(net)

        net2 = Network(Params(), seed=0)
        net2.add_node("a")
        net2.add_node("b")
        hebbian_trials = 0
        while True:
            hebbian_episode(net2, "a", "b", reps=1, gap_ticks=0)
            hebbian_trials += 1
            if net2.edge("a", "b").fixated:
                break
        assert _reciprocals_complete(net2)
        assert reward_trials < hebbian_trials

        # single-exposure trace decays to exactly zero
        net3 = Network(Params(), seed=0)
        net3.add_node("a")
        net3.add_node("b")
        hebbian_episode(net3, "a", "b", reps=1, gap_ticks=0)
        for _ in range(200):
            net3.end_tick()
        assert net3.edge("a", "b").weight == 0.0

        # fixation floor holds under 1e5 ticks of random input
        net4 = Network(Params(), seed=11, mode=FiringMode.STOCHASTIC)
        sensors = [f"s{i}" for i in range(4)]
        inject_innate(net4, InnateSpec(
            nodes=[(nid, "sensory", 1.5) for nid in sensors]
                  + [("hub", "plain", 2.0)],
            edges=[("s0", "hub", 1.2)]))
        fixed = [e for e in net4.elements() if e.fixated]
        theta = net4.params.theta
        input_rng = random.Random(17)
        for tick in range(100_000):
            external = {nid: input_rng.randint(-3, 3) for nid in sensors}
            net4.tick(external)
            if tick % 10_000 == 9_999:
                net4.nightly_reset()
                assert all(e.weight >= theta for e in fixed)
        assert all(e.weight >= theta for e in fixed)
        assert _reciprocals_complete(net4)

        # reciprocals survive replay and innate injection too
        net5 = Network(Params(), seed=0)
        for nid in ("x", "y", "z"):
            net5.add_node(nid)
        replay(net5, Episode(["x", "y", "z", "y"]), rounds=2)
        assert _reciprocals_complete(net5)


# ---------------------------------------------------------------------------
# 8: serial order
# ---------------------------------------------------------------------------

def test_08_order_variants_track_stream_statistics():
    with Budget(5.0):
        ChunkerParams()   # defaults in force

        pure = Network(Params(), seed=0)
        pure.add_node("a")
        pure.add_node("b")
        first_fixed = None
        for _ in range(6):
            observe_pair(pure, "a", "b", "ab")
            if first_fixed is None:
                fixed = {nid for nid in ("a+b", "a>b", "b>a")
                         if pure.node(nid).fixated}
                if fixed:
                    first_fixed = fixed
        assert first_fixed == {"a>b"}

        balanced = Network(Params(), seed=0)
        balanced.add_node("a")
        balanced.add_node("b")
        first_fixed = None
        for order in ("ab", "ba", "ab", "ba", "ab", "ba"):
            observe_pair(balanced, "a", "b", order)
            if first_fixed is None:
                fixed = {nid for nid in ("a+b", "a>b", "b>a")
                         if balanced.node(nid).fixated}
                if fixed:
                    first_fixed = fixed
        assert first_fixed == {"a+b"}


# ---------------------------------------------------------------------------
# 9: reproducibility
# ---------------------------------------------------------------------------

def test_09_same_seed_same_bytes_and_lossless_round_trip(tmp_path):
    configs = [
        ExperimentConfig(kind="segment", corpus="fig1a", seed=1),
        ExperimentConfig(kind="segment", corpus="fig1b", seed=2),
        ExperimentConfig(kind="predict", seed=3,
                         predict={"cue": "bell", "outcome": "food",
                                  "probability": 0.8, "trials": 12}),
        ExperimentConfig(kind="hebbian", seed=4,
                         hebbian={"a": "x", "b": "y", "reps": 3}),
    ]
    for i, cfg in enumerate(configs):
        paths = []
        for run in ("first", "second"):
            snap_path = tmp_path / f"{i}-{run}.json"
            log_path = tmp_path / f"{i}-{run}.log"
            cfg.out, cfg.log = str(snap_path), str(log_path)
            snapshot, log = run_experiment(cfg)
            write_outputs(cfg, snapshot, log)
            paths.append((snap_path, log_path))
        (snap_a, log_a), (snap_b, log_b) = paths
        assert snap_a.read_bytes() == snap_b.read_bytes()
        assert log_a.read_bytes() == log_b.read_bytes()

    # export/import round trip on the three golden networks
    for corpus, overrides in (("A", {}), ("B", {}), ("B", {"dw": 0.3})):
        chunker = segment(corpus_fig1(corpus), **overrides)
        snap = snapshot_from_net(chunker.net, seed=0)
        text = snapshot_json(snap)
        rebuilt = net_from_snapshot(json.loads(text))
        assert snapshot_json(snapshot_from_net(rebuilt, seed=0)) == text


# ---------------------------------------------------------------------------
# 10: priming, interference, latency
# ---------------------------------------------------------------------------

def test_10_priming_flips_match_and_latency_tracks_value_gap():
    with Budget(5.0):
        # priming: an activation increment of 0.5 (anything > 0.25 here)
        # flips the match ranking toward the primed chunk
        net = Network(Params(), seed=0)
        for label in ("abcd", "abzz"):
            node = net.add_node(label, NodeKind.CHUNK)
            node.weight = 1.0
        baseline = match(net, "abcd")
        assert baseline[0][0] == "abcd"
        for node in net.nodes.values():
            node.activation = 0.0
        net.node("abzz").activation = 0.5
        primed = match(net, "abcd")
        assert primed[0][0] == "abzz"

        # latency: shrink the top-two path-value gap with the sum fixed;
        # rounds_used under the relative policy must weakly increase
        def two_path_net(gap: float) -> Network:
            # reciprocals stay at 0 so accumulation is purely forward-driven
            # and neither candidate saturates before the slow gaps resolve
            net = Network(Params(w_max=1.0), seed=0)
            for nid in ("S", "X", "Y", "G"):
                net.add_node(nid).weight = 1.0
            for s, d, w in (("S", "X", 0.2 + gap / 2),
                            ("S", "Y", 0.2 - gap / 2),
                            ("X", "G", 1.0), ("Y", "G", 1.0)):
                net.ensure_edge(s, d).weight = w
            return net

        gaps = [0.18 - 0.015 * i for i in range(10)]
        rounds = []
        for gap in gaps:
            d = decide(two_path_net(gap), PathQuery("S", "G"), "relative",
                       PlannerParams(t_rel=0.055, max_rounds=40))
            assert d is not None and d.chosen == "X"
            rounds.append(d.rounds_used)
        assert all(later >= earlier for earlier, later in zip(rounds, rounds[1:]))
        assert rounds[-1] > rounds[0]


# ---------------------------------------------------------------------------
# budget regressions
# ---------------------------------------------------------------------------

def test_seed_9_random_stream_segments_within_budget():
    # 500 symbols over 16 letters; this took 4-5 s when every closure pairing
    # enumerated every tiling of both spans, on a shared 2-vCPU machine
    rng = random.Random(9)
    stream = "".join(rng.choice("abcdefghijklmnop") for _ in range(500))
    with Budget(1.5):
        chunker = segment(stream)
    assert chunker.fixated_chunks() == {
        "bi", "bm", "cc", "cij", "cn", "da", "db", "ej", "em", "en", "fa", "fd",
        "fi", "fonffhbdecmd", "gg", "gm", "ha", "hn", "ja", "jj", "ka", "lh", "ll",
        "mg", "mh", "nil", "nn", "np"}


def test_seed_0_3000_symbol_stream_segments_within_budget():
    # 3000 symbols over 16 letters; this took about 20 s when each closure
    # pairing streamed every tiling of both spans, on a shared 2-vCPU machine
    rng = random.Random(0)
    stream = "".join(rng.choice("abcdefghijklmnop") for _ in range(3000))
    with Budget(4.0):
        chunker = segment(stream)
    labels = sorted(chunker.fixated_chunks())
    assert len(labels) == 221
    assert hashlib.sha256("\n".join(labels).encode()).hexdigest() == (
        "b994a5edb39ed0ea245968f170e270fc26bfb6d6c1444f7dc1c7bc4b8db18c0d")


# ---------------------------------------------------------------------------
# the runtime guard the checks share
# ---------------------------------------------------------------------------

def test_budget_interrupts_a_block_that_runs_past_it():
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    try:
        with Budget(0.2):
            while time.perf_counter() - start < 5.0:   # a hang, cut off at 5 s
                pass
    except AssertionError as exc:
        assert "interrupted" in str(exc)
    else:
        raise AssertionError("the block ran to its end")
    assert time.perf_counter() - start < 1.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
