"""Seeded workloads for the tnet benchmark.

Each workload is built by ``WORKLOADS[name](seed, out_dir)``.  Building it is
the set-up the benchmark times: input generation, graph construction and, for
``segment-eras``, the fig1a golden gate.  All inputs come from the seed.  A
built workload hands out passes; a pass is the workload's whole op sequence
at its stated input size, and every pass repeats exactly the same ops on
freshly built state.  ``ops(k)`` yields ``(kind, fn, check)`` for pass
``k``.  The runner times only ``fn()``; ``check(result)`` runs untimed and
returns False when the output is wrong.  ``end_pass()`` runs untimed
invariant checks and returns False when one fails.

Every pass hashes its outputs into ``digests[k]``; all passes of a run must
agree, and two commits that give the same digest for a seed produced the
same output bytes.  Every call into tnet goes through a module or class
attribute looked up at call time, so the tracer in ``spans.py`` can wrap it.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from tnet import chunker as tch
from tnet import harness as th
from tnet import learning as tl
from tnet import planner as tp
from tnet import predictor as tpr
from tnet import transducer as tt
from tnet.substrate import FiringMode, Network, NodeKind, Params


def seeded(seed: int, salt: str) -> random.Random:
    """Independent, reproducible draws for one workload's inputs."""
    return random.Random(f"{salt}:{seed}")


def net_lines(net: Network) -> list[str]:
    """Canonical text of every node and edge, as the output digest hashes it."""
    lines = [f"n {n.id} {n.kind.value} {n.weight!r} {n.activation!r} {n.fixated}"
             for n in sorted(net.nodes.values(), key=lambda n: n.id)]
    lines += [f"e {e.src} {e.dst} {e.weight!r} {e.activation!r} {e.fixated}"
              for e in sorted(net.edges(), key=lambda e: (e.src, e.dst))]
    lines.append(f"t {net.tick_count}")
    return lines


def invariants_hold(net: Network) -> bool:
    """Acceptance test 7: fixated weights stay at or above theta, and every
    edge has its reciprocal."""
    theta = net.params.theta
    if any(e.fixated and e.weight < theta for e in net.elements()):
        return False
    return all(net.has_edge(e.dst, e.src) for e in net.edges())


def live_frac(net: Network) -> float:
    """Share of elements an active-set tick would have to visit: those
    holding activation, plus non-fixated ones still holding weight."""
    total = live = 0
    for e in net.elements():
        total += 1
        if e.activation > 0.0 or (not e.fixated and e.weight > 0.0):
            live += 1
    return live / total if total else 0.0


def element_count(net: Network) -> int:
    return len(net.nodes) + sum(len(adj) for adj in net.out.values())


class Workload:
    """Shared bookkeeping; subclasses supply set-up and ``ops``."""

    #: one line: what an op is and the input size of one pass
    op_definition = ""
    #: set by the runner for traced passes, which also count oracle work
    traced = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.digests: list[str] = []
        self.stats: dict[str, float] = {}     # per-pass counts for the trace
        self._hash = hashlib.sha256()
        self._live: list[float] = []

    def feed(self, *parts: object) -> None:
        """Add output material of the running pass to its digest."""
        for part in parts:
            self._hash.update(repr(part).encode())
            self._hash.update(b"\n")

    def begin_pass(self) -> None:
        self.stats = {}
        self._live = []
        self._hash = hashlib.sha256()

    def finish_pass(self) -> None:
        self.digests.append(self._hash.hexdigest())
        if self._live:
            self.stats["substrate.live_frac"] = sum(self._live) / len(self._live)

    def sample(self) -> None:
        """Record the live share of the current network (trace runs only)."""
        net = self.current_net()
        if net is not None:
            self._live.append(live_frac(net))

    def current_net(self) -> Network | None:
        return None

    def end_pass(self) -> bool:
        return True

    def meta(self) -> dict:
        return {"op": self.op_definition}


# ---------------------------------------------------------------------------
# segment-eras: one long stream, per-symbol path
# ---------------------------------------------------------------------------

DIGITS = "0123456789"


def era_stream(rng: random.Random, eras: int = 222, junk_len: int = 6) -> list[str]:
    """Eras of three distinct digit words, each closed by never-seen junk.

    Like the block ``FIG1_A + FIG1_B + FIG1_C`` of ``corpus_fig1("A")``: an
    era joins three different words of an 8-word vocabulary of 3-5 digits,
    and a run of first-occurrence symbols tells the chunker the era is over.
    A word never follows itself.  Eras drawn with repeats, as in
    ``random_word_eras`` of test_perfbench.py, make the chunker raise on
    about a quarter of seeds; those tests keep the defects in view.
    """
    vocab: set[str] = set()
    while len(vocab) < 8:
        vocab.add("".join(rng.choice(DIGITS) for _ in range(rng.randint(3, 5))))
    words = sorted(vocab)
    out: list[str] = []
    for era in range(eras):
        out.extend("".join(rng.sample(words, 3)))
        out.extend(chr(0x4E00 + era * junk_len + i) for i in range(junk_len))
    return out


class SegmentEras(Workload):
    op_definition = ("one Chunker.observe of a ~4k-symbol stream of 222 eras, then one "
                     "flush, then one snapshot_from_net plus write_outputs")

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed)
        gate = tch.Chunker(Network(Params(), seed=0), tch.ChunkerParams())
        gate.observe_stream(th.corpus_fig1("A"))
        self.gate_ok = gate.fixated_chunks() == th.GOLDEN_A_LABELS
        self.stream = era_stream(seeded(seed, "eras"))
        self.net = Network(Params(), seed=seed)
        self.chunker = tch.Chunker(self.net, tch.ChunkerParams())
        self.cfg = th.ExperimentConfig(kind="segment", corpus="generated", seed=seed,
                                       out=str(out_dir / "segment-eras.json"),
                                       log=str(out_dir / "segment-eras.log"))

    def current_net(self) -> Network:
        return self.net

    def _write(self) -> None:
        snapshot = th.snapshot_from_net(self.net, self.seed)
        lines = [f"{tick}\t{kind}\t{element}\t{value!r}"
                 for tick, kind, element, value in self.chunker.events]
        th.write_outputs(self.cfg, snapshot, lines)

    def ops(self, k: int):
        if k > 0:
            self.net = Network(Params(), seed=self.seed)
            self.chunker = tch.Chunker(self.net, tch.ChunkerParams())
        chunker = self.chunker
        for symbol in self.stream:
            yield "observe", (lambda s=symbol: chunker.observe(s)), None
        yield "flush", (lambda: chunker.flush()), None
        yield "snapshot", self._write, None

    def end_pass(self) -> bool:
        out, log = Path(self.cfg.out), Path(self.cfg.log)
        self.stats["substrate.elements"] = element_count(self.net)
        self.stats["chunker.events_len"] = len(self.chunker.events)
        self.stats["harness.snapshot_bytes"] = out.stat().st_size + log.stat().st_size
        self.feed(out.read_bytes(), log.read_bytes())
        return self.gate_ok and invariants_hold(self.net) and bool(self.chunker.fixated_chunks())

    def meta(self) -> dict:
        return {**super().meta(), "stream_len": len(self.stream), "nodes": len(self.net.nodes),
                "edges": element_count(self.net) - len(self.net.nodes),
                "golden_a_gate": self.gate_ok}


# ---------------------------------------------------------------------------
# segment-closure: many short random streams, closure-dominated
# ---------------------------------------------------------------------------

class SegmentClosure(Workload):
    op_definition = ("one observe_stream of a random 16-20-symbol stream over 8 letters, "
                     "fresh Network and Chunker each; 1500 streams")
    n_streams = 1500
    min_len, max_len = 16, 20
    letters = "abcdefgh"

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed)
        rng = seeded(seed, "closure")
        self.streams = ["".join(rng.choice(self.letters)
                                for _ in range(rng.randint(self.min_len, self.max_len)))
                        for _ in range(self.n_streams)]
        self.net: Network | None = None

    def current_net(self) -> Network | None:
        return self.net

    def ops(self, k: int):
        elements = events = 0
        for stream in self.streams:
            net = self.net = Network(Params(), seed=0)
            chunker = tch.Chunker(net, tch.ChunkerParams())

            def check(_result, net=net, chunker=chunker, stream=stream) -> bool:
                self.feed(stream, sorted(chunker.fixated_chunks()), *net_lines(net))
                return invariants_hold(net) and net.tick_count == len(stream)

            yield "observe_stream", (lambda c=chunker, s=stream: c.observe_stream(s)), check
            elements += element_count(net)
            events += len(chunker.events)
        self.stats["substrate.elements"] = elements / len(self.streams)
        self.stats["chunker.events_len"] = events

    def meta(self) -> dict:
        return {**super().meta(), "streams": len(self.streams),
                "stream_len": [self.min_len, self.max_len],
                "symbols": sum(map(len, self.streams))}


# ---------------------------------------------------------------------------
# tick-sparse: a large, mostly idle substrate driven by four sensors
# ---------------------------------------------------------------------------

def sparse_network(seed: int, components: int = 250, size: int = 20,
                   pairs: int = 52) -> Network:
    """``components`` fixated ``size``-node components with ``pairs`` random
    fixated links each (plus their weight-0 reciprocals); four sensors drive
    component 0; a reward pair and a prediction motif ride along."""
    rng = seeded(seed, "sparse")
    net = Network(Params(), seed=seed, mode=FiringMode.STOCHASTIC)
    theta, w_max = net.params.theta, net.params.w_max

    def fixate(element, weight: float) -> None:
        element.weight = weight
        element.fixated = True

    all_pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    for c in range(components):
        ids = [f"c{c}n{i}" for i in range(size)]
        for node_id in ids:
            fixate(net.add_node(node_id), rng.uniform(theta, w_max))
        for i, j in rng.sample(all_pairs, pairs):
            src, dst = (ids[i], ids[j]) if rng.random() < 0.5 else (ids[j], ids[i])
            fixate(net.ensure_edge(src, dst), rng.uniform(theta, w_max))
    for s in range(4):
        sensor = f"s{s}"
        fixate(net.add_node(sensor, NodeKind.SENSORY), 1.5)
        for i in rng.sample(range(size), 2):
            fixate(net.ensure_edge(sensor, f"c0n{i}"), 1.2)
    net.add_node("light")
    fixate(net.add_node("food", NodeKind.REWARD), 2.0)
    net.add_node("bell")
    net.add_node("meal")
    return net


class TickSparse(Workload):
    op_definition = ("one Network.tick with random input on 4 sensors; every 25th tick "
                     "is followed by a reinforce op and a predictor.trial op; "
                     "300 ticks, then one nightly_reset op")
    n_ticks = 300
    write_every = 25
    sensors = ("s0", "s1", "s2", "s3")

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed)
        rng = seeded(seed, "ticks")
        self.schedule = [({s: rng.randint(-3, 3) for s in self.sensors},
                          rng.random() < 0.7) for _ in range(self.n_ticks)]
        self._build()

    def _build(self) -> None:
        self.net = sparse_network(self.seed)
        self.motif = tpr.build_motif(self.net, "bell", "meal")

    def current_net(self) -> Network:
        return self.net

    def ops(self, k: int):
        if k > 0:
            self._build()
        net, motif = self.net, self.motif

        def tick_check(events) -> bool:
            self.feed(*((e.kind, e.element, e.value) for e in events))
            return all(-3 <= e.value <= 3 for e in events if e.kind != "update")

        def reinforce_check(_net) -> bool:
            weight = net.edge("light", "food").weight
            self.feed(weight)
            return 0.0 < weight <= net.params.w_max

        def trial_check(error) -> bool:
            self.feed(error)
            return -1.0 <= error <= 1.0

        for t, (external, present) in enumerate(self.schedule):
            yield "tick", (lambda x=external: net.tick(x)), tick_check
            if t % self.write_every == self.write_every - 1:
                yield "reinforce", (lambda: tl.reinforce(net, "light", "food")), reinforce_check
                yield "trial", (lambda p=present: tpr.trial(net, motif, p)), trial_check
        yield "nightly_reset", (lambda: net.nightly_reset()), None

    def end_pass(self) -> bool:
        self.stats["substrate.elements"] = element_count(self.net)
        self.feed(*net_lines(self.net))
        return invariants_hold(self.net)

    def meta(self) -> dict:
        return {**super().meta(), "nodes": len(self.net.nodes),
                "edges": element_count(self.net) - len(self.net.nodes),
                "ticks": self.n_ticks}


# ---------------------------------------------------------------------------
# plan-decide: exhaustive path expansion in the planner
# ---------------------------------------------------------------------------

def layered_dag(rng: random.Random):
    """The test-6 construction, wider and deeper: source, 3-5 candidates with
    equal first hops, 4-5 interior layers of width 3-5, goal."""
    net = Network(Params(), seed=0)
    w_max = net.params.w_max
    net.add_node("src").weight = rng.uniform(0.5, 1.0) * w_max
    candidates = [f"c{i}" for i in range(rng.randint(3, 5))]
    cand_weight = rng.uniform(0.5, 1.0) * w_max
    for cid in candidates:
        net.add_node(cid).weight = cand_weight
    layers = [["src"], candidates]
    for depth in range(rng.randint(4, 5)):
        layer = [f"m{depth}_{i}" for i in range(rng.randint(3, 5))]
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


def path_values(net: Network, candidates: list[str], goal_value: float) -> dict[str, float]:
    """Oracle from acceptance test 6: attenuated value summed over every
    simple candidate-to-goal path."""
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
                    stack.append((dst, carried * net.nodes[dst].weight / w_max, seen | {dst}))
        sums[cand] = total
    return sums


def count_paths(net: Network, source: str, goal: str) -> int:
    """Simple source-to-goal paths over positive-weight edges."""
    count = 0
    stack = [(source, frozenset([source]))]
    while stack:
        node, seen = stack.pop()
        for dst, edge in net.out[node].items():
            if edge.weight <= 0.0 or dst in seen:
                continue
            if dst == goal:
                count += 1
            else:
                stack.append((dst, seen | {dst}))
    return count


def decidable_dag(rng: random.Random):
    """Draw DAGs until one passes test 6's filters: a unique best candidate
    that clamping cannot mask.  Returns the net, its query params and the
    oracle's choice."""
    proto = tp.PlannerParams()
    while True:
        net, candidates = layered_dag(rng)
        oracle = path_values(net, candidates, proto.goal_value)
        ranked = sorted(oracle.values(), reverse=True)
        if ranked[0] <= 0.0 or ranked[0] - ranked[1] < 1e-9:
            continue
        w_max = net.params.w_max
        fwd = (proto.source_strength / 3.0 * (net.out["src"][candidates[0]].weight / w_max)
               * (net.nodes[candidates[0]].weight / w_max))
        if fwd + ranked[0] >= 0.95 * net.params.a_max:
            continue
        params = tp.PlannerParams(t_act=fwd + 0.5 * ranked[0], max_rounds=4,
                                  back_uses_forward_weight=True)
        return net, params, max(oracle, key=oracle.get)


def complete_graph(rng: random.Random, n: int) -> Network:
    """Complete directed graph; every node and edge fixated in [theta, w_max]."""
    net = Network(Params(), seed=0)
    theta, w_max = net.params.theta, net.params.w_max
    ids = [f"k{i}" for i in range(n)]
    for node_id in ids:
        node = net.add_node(node_id)
        node.weight, node.fixated = rng.uniform(theta, w_max), True
    for a in ids:
        for b in ids:
            if a != b:
                edge = net.ensure_edge(a, b)
                edge.weight, edge.fixated = rng.uniform(theta, w_max), True
    return net


def threshold_rule(net: Network, query: tp.PathQuery,
                   params: tp.PlannerParams) -> tp.Decision | None:
    """The absolute policy of ``decide`` replayed on ``propagate``'s
    activation maps: in the first round where some candidate reaches
    ``t_act``, the one candidate with the highest level, or None on a tie;
    None when no round up to ``max_rounds`` crosses."""
    candidates = sorted(net.out_edges(query.source, positive=True))
    for r in range(1, params.max_rounds + 1):
        acts = tp.propagate(net, query, r, params)
        crossed = {c: acts[c] for c in candidates if acts.get(c, 0.0) >= params.t_act}
        if crossed:
            best = max(crossed.values())
            top = [c for c, level in crossed.items() if level == best]
            return tp.Decision(top[0], r) if len(top) == 1 else None
    return None


class PlanDecide(Workload):
    op_definition = ("one planner.decide; 300 layered DAGs (3-5 wide, 4-5 deep, "
                     "test-6 configuration), 40 complete 7-node and 60 complete 8-node graphs")
    n_dags = 300
    n_complete = {7: 40, 8: 60}

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed)
        rng = seeded(seed, "plan")
        items = []
        for _ in range(self.n_dags):
            net, params, best = decidable_dag(rng)
            items.append((net, tp.PathQuery("src", "goal"), params, best))
        for n, count in self.n_complete.items():
            for _ in range(count):
                items.append((complete_graph(rng, n), tp.PathQuery("k0", f"k{n - 1}"),
                              tp.PlannerParams(max_rounds=4), None))
        rng.shuffle(items)
        self.instances = items
        self.expected: dict[int, tp.Decision | None] = {}   # complete graphs, filled lazily

    def ops(self, k: int):
        paths = 0
        for i, (net, query, params, best) in enumerate(self.instances):
            def check(decision, i=i, net=net, query=query, params=params, best=best) -> bool:
                self.feed(None if decision is None else (decision.chosen, decision.rounds_used))
                if best is not None:
                    return (decision is not None and decision.chosen == best
                            and decision.rounds_used == 2)
                if i not in self.expected:
                    self.expected[i] = threshold_rule(net, query, params)
                return decision == self.expected[i]

            yield "decide", (lambda n=net, q=query, p=params:
                             tp.decide(n, q, "absolute", p)), check
            if self.traced:
                paths += count_paths(net, query.source, query.goal)
        self.stats["planner.paths_computed"] = paths
        self.stats["substrate.elements"] = (sum(element_count(i[0]) for i in self.instances)
                                            / len(self.instances))

    def meta(self) -> dict:
        nodes = [len(i[0].nodes) for i in self.instances]
        return {**super().meta(), "instances": len(self.instances),
                "nodes_min_max": [min(nodes), max(nodes)]}


# ---------------------------------------------------------------------------
# transduce: composition and sampling
# ---------------------------------------------------------------------------

SYMBOLS = ("a", "b", "c")


def dense_transducer(rng: random.Random, n_states: int = 3) -> tt.Transducer:
    states = tuple(range(n_states))
    table = {}
    for s in states:
        for x in SYMBOLS:
            outcomes = [(t, y) for t in states for y in SYMBOLS]
            raw = [rng.random() + 1e-3 for _ in outcomes]
            total = sum(raw)
            table[(s, x)] = {o: w / total for o, w in zip(outcomes, raw)}
    return tt.Transducer(states=states, in_alphabet=SYMBOLS, out_alphabet=SYMBOLS, table=table)


def marginal(chain, state, x, nxt, z) -> float:
    """Brute force: P(state, x -> nxt, z) for a chain of three transducers,
    summing over both intermediate symbols."""
    (s1, s2), s3 = state
    (u1, u2), u3 = nxt
    t1, t2, t3 = chain
    total = 0.0
    for y1 in SYMBOLS:
        p1 = t1.table[(s1, x)].get((u1, y1), 0.0)
        for y2 in SYMBOLS:
            total += (p1 * t2.table[(s2, y1)].get((u2, y2), 0.0)
                      * t3.table[(s3, y2)].get((u3, z), 0.0))
    return total


class Transduce(Workload):
    op_definition = ("compose a chain of three dense 3-state, 3-symbol transducers and "
                     "run 2000 symbols through the composite; 100 chains")
    n_chains = 100
    n_symbols = 2000
    checked_rows = 3

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed)
        rng = seeded(seed, "transduce")
        self.inputs = []
        for _ in range(self.n_chains):
            chain = tuple(dense_transducer(rng) for _ in range(3))
            symbols = [rng.choice(SYMBOLS) for _ in range(self.n_symbols)]
            self.inputs.append((chain, symbols, rng.getrandbits(32)))

    @staticmethod
    def _op(chain, symbols, draw_seed):
        composite = tt.compose(tt.compose(chain[0], chain[1]), chain[2])
        state, out = composite.run(composite.states[0], symbols, random.Random(draw_seed))
        return composite, state, out

    def ops(self, k: int):
        self.stats["transducer.composite_rows"] = 0
        for chain, symbols, draw_seed in self.inputs:
            def check(result, chain=chain, draw_seed=draw_seed) -> bool:
                composite, state, out = result
                self.stats["transducer.composite_rows"] += len(composite.table)
                self.feed(state, "".join(out))
                if len(out) != self.n_symbols or state not in composite.states:
                    return False
                keys = sorted(composite.table, key=repr)
                for key in random.Random(draw_seed).sample(keys, self.checked_rows):
                    row = composite.table[key]
                    for nxt in composite.states:
                        for z in SYMBOLS:
                            if abs(row.get((nxt, z), 0.0) - marginal(chain, *key, nxt, z)) > 1e-9:
                                return False
                return True

            yield "compose_run", (lambda c=chain, s=symbols, d=draw_seed: self._op(c, s, d)), check

    def meta(self) -> dict:
        return {**super().meta(), "chains": self.n_chains,
                "symbols_per_op": self.n_symbols, "composite_states": 27}


WORKLOADS = {
    "segment-eras": SegmentEras,
    "segment-closure": SegmentClosure,
    "tick-sparse": TickSparse,
    "plan-decide": PlanDecide,
    "transduce": Transduce,
}
