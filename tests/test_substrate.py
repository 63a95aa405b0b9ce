"""Substrate unit tests: signal arithmetic, credit schedule, tick pipeline."""

from __future__ import annotations

import gc
import json
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnet.errors import FixationError, TopologyError
from tnet.harness import net_from_snapshot, snapshot_from_net, snapshot_json
from tnet.substrate import (
    SIGNAL_MAX,
    Edge,
    Event,
    FiringMode,
    Network,
    Node,
    NodeKind,
    Params,
    _activation_slot,
    _IdleEdge,
    _IdleNode,
    clamp_signal,
    counter_uniform,
    signal_back,
    signal_out,
)


def make_net(**overrides) -> Network:
    return Network(Params(**overrides), seed=0)


# ---------------------------------------------------------------------------
# parameters and signal arithmetic
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        Params(dw=-0.1)
    with pytest.raises(ValueError):
        Params(w_max=0.5)   # below theta
    with pytest.raises(ValueError):
        Params(decay_a=1.5)


def test_clamp_signal_bounds():
    assert clamp_signal(7) == 3
    assert clamp_signal(-9) == -3
    assert clamp_signal(2) == 2


def test_activation_gain_formula():
    net = make_net()
    p = net.params
    light, heavy = net.add_node("light"), net.add_node("heavy")
    heavy.weight = p.w_max
    assert net.bump_activation(light, 3)
    assert light.activation == pytest.approx(3 * 0.2 / 3)
    assert net.bump_activation(heavy, 3)
    assert heavy.activation == pytest.approx(3 * 0.5 / 3)
    heavy.activation = p.a_max
    assert not net.bump_activation(heavy, -3)
    assert heavy.activation == pytest.approx(p.a_max - 0.5)


def test_signal_out_floor_and_cap():
    p = Params()
    # minimal element: magnitude floors at 1
    assert signal_out(1, 0.0, 0.0, p) == 1
    assert signal_out(-1, 0.0, 0.0, p) == -1
    # maximal element passes full strength
    assert signal_out(3, p.w_max, p.a_max, p) == 3
    assert signal_out(0, p.w_max, p.a_max, p) == 0


def test_signal_back_floors_to_zero():
    p = Params()
    assert signal_back(3, p) == 1
    assert signal_back(1, p) == 0
    assert signal_back(-3, p) == -1


def test_counter_uniform_is_stable_and_spread():
    a = counter_uniform(0, "x", 5)
    assert a == counter_uniform(0, "x", 5)
    assert 0.0 <= a < 1.0
    assert counter_uniform(0, "x", 6) != a
    assert counter_uniform(1, "x", 5) != a
    draws = [counter_uniform(0, f"n{i}", 0) for i in range(200)]
    assert 0.4 < sum(draws) / len(draws) < 0.6


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def test_duplicate_node_rejected():
    net = make_net()
    net.add_node("a")
    with pytest.raises(TopologyError):
        net.add_node("a")


def test_ensure_edge_creates_zero_weight_reciprocal():
    net = make_net()
    net.add_node("a")
    net.add_node("b")
    edge = net.ensure_edge("a", "b")
    assert edge.weight == 0.0
    assert net.has_edge("b", "a")
    assert net.edge("b", "a").weight == 0.0
    # re-ensure returns the same object
    assert net.ensure_edge("a", "b") is edge


def test_self_edge_rejected():
    net = make_net()
    net.add_node("a")
    with pytest.raises(TopologyError):
        net.ensure_edge("a", "a")


def assert_one_adjacency(net):
    """Every edge has its reciprocal, and ``in_edges(x)`` holds what a scan
    of ``edges()`` finds for ``dst == x``, keyed in ``out_edges(x)`` order."""
    for edge in net.edges():
        assert net.has_edge(edge.dst, edge.src)
    for x in net.nodes:
        scanned = {e.src: e for e in net.edges() if e.dst == x}
        for positive in (False, True):
            got = net.in_edges(x, positive=positive)
            want = {src: e for src, e in scanned.items() if not positive or e.weight > 0.0}
            assert got == want      # edges compare by identity
            assert list(got) == [y for y in net.out_edges(x) if y in want]


@given(n=st.integers(2, 6),
       writes=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                 st.sampled_from([0.0, 0.4, 1.0, 3.0])), max_size=30))
@settings(max_examples=60, deadline=None)
def test_in_edges_follow_the_one_adjacency_map(n, writes):
    net = make_net()
    for i in range(n):
        net.add_node(f"n{i}")
    for i, j, weight in writes:
        if i < n and j < n and i != j:
            net.ensure_edge(f"n{i}", f"n{j}").weight = weight
    assert_one_adjacency(net)
    text = snapshot_json(snapshot_from_net(net, net.seed))
    restored = net_from_snapshot(json.loads(text))
    assert_one_adjacency(restored)
    assert snapshot_json(snapshot_from_net(restored, restored.seed)) == text


def test_in_edges_of_unknown_node_rejected():
    with pytest.raises(TopologyError):
        make_net().in_edges("ghost")


# ---------------------------------------------------------------------------
# credit schedule
# ---------------------------------------------------------------------------

def test_below_threshold_credit_and_fixation():
    net = make_net()
    node = net.add_node("n")
    assert net.update_weight(node) == pytest.approx(0.4)
    assert not node.fixated
    net.update_weight(node)
    assert not node.fixated
    # third credit crosses theta=1.0 and fixates permanently
    assert net.update_weight(node) == pytest.approx(1.2)
    assert node.fixated


def test_explicit_amount_replaces_below_threshold_credit():
    net = make_net()
    node = net.add_node("n")
    assert net.update_weight(node, amount=0.3) == pytest.approx(0.3)
    assert net.update_weight(node, amount=0.9) == pytest.approx(1.2)
    assert node.fixated
    # at or above theta the diminishing schedule ignores the amount
    assert net.update_weight(node, amount=0.9) == pytest.approx(1.2 + 0.4 * 0.5)


def test_boost_doubles_below_threshold_credit():
    net = make_net()
    node = net.add_node("n")
    net.update_weight(node, boost=True)
    assert node.weight == pytest.approx(0.8)


def test_above_threshold_credits_diminish():
    net = make_net()
    node = net.add_node("n")
    node.weight = 1.2
    node.fixated = True
    net.update_weight(node)
    assert node.weight == pytest.approx(1.2 + 0.4 * 0.5)
    net.update_weight(node)
    assert node.weight == pytest.approx(1.2 + 0.4 * 0.5 + 0.4 * 0.25)
    # boost is ignored above threshold
    before = node.weight
    net.update_weight(node, boost=True)
    assert node.weight == pytest.approx(before + 0.4 * 0.125)


def test_weight_clamped_at_w_max():
    net = make_net()
    node = net.add_node("n")
    node.weight = net.params.w_max - 0.01
    node.fixated = True
    net.update_weight(node)
    assert node.weight == net.params.w_max


def test_transfer_weight_respects_fixation():
    net = make_net()
    node = net.add_node("n")
    net.transfer_weight(node, 0.7)
    assert node.weight == pytest.approx(0.7)
    node.fixated = True
    with pytest.raises(FixationError):
        net.transfer_weight(node, 0.1)


def reference_bump(net, element, value):
    """``Network.bump_activation`` as first written, through the helpers."""
    p = net.params
    before = element.activation
    a = before + clamp_signal(value) * (0.2 + 0.3 * element.weight / p.w_max) / 3.0
    element.activation = min(p.a_max, max(0.0, a))
    return element.activation > before


def reference_credit(net, element, *, boost=False, amount=None):
    """``Network.update_weight`` as first written, with ``min`` clamps."""
    p = net.params
    if element.weight >= p.theta:
        element.above_credits += 1
        element.weight = min(p.w_max, element.weight + p.dw * p.beta ** element.above_credits)
    else:
        step = amount if amount is not None else p.dw * (p.boost if boost else 1.0)
        element.weight = min(p.w_max, element.weight + step)
        if element.weight >= p.theta:
            element.fixated = True
    element.credited_tick = net.tick_count
    return element.weight


def same_float(x, y):
    """Equal bits up to NaN payload: zeros must agree in sign."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


_P = Params()
credit_steps = st.one_of(
    st.tuples(st.just("bump"), st.integers(-6, 6)),
    st.tuples(st.just("credit"), st.booleans(),
              st.none() | st.sampled_from([0.0, _P.dw]) | st.floats(0.0, _P.w_max)))


@given(on_edge=st.booleans(),
       weight=st.sampled_from([0.0, -0.0, _P.theta, _P.w_max, math.nan]) | st.floats(0.0, _P.w_max),
       activation=st.sampled_from([0.0, -0.0, _P.a_max, math.nan]) | st.floats(0.0, _P.a_max),
       fixated=st.booleans(), above=st.integers(0, 4), tick=st.integers(0, 50),
       steps=st.lists(credit_steps, min_size=1, max_size=8))
@settings(max_examples=300)
def test_bump_and_credit_match_their_reference_bodies(on_edge, weight, activation, fixated,
                                                      above, tick, steps):
    # FullScanNetwork inherits both routines, so the differential test
    # below cannot see a slip in either; compare them with their first form
    pair = []
    for _ in range(2):
        net = make_net()
        net.add_node("a")
        net.add_node("b")
        element = net.ensure_edge("a", "b") if on_edge else net.node("a")
        element.weight, element.activation = weight, activation
        element.fixated, element.above_credits = fixated, above
        net.tick_count = tick
        pair.append((net, element))
    (net, element), (ref, twin) = pair
    for kind, *args in steps:
        if kind == "bump":
            assert net.bump_activation(element, *args) == reference_bump(ref, twin, *args)
        else:
            boost, amount = args
            got = net.update_weight(element, boost=boost, amount=amount)
            assert same_float(got, reference_credit(ref, twin, boost=boost, amount=amount))
        assert same_float(element.weight, twin.weight)
        assert same_float(element.activation, twin.activation)
        assert (element.fixated, element.above_credits, element.credited_tick) == \
            (twin.fixated, twin.above_credits, twin.credited_tick)


def test_event_has_slots_and_no_dict():
    event = Event(0, "fire", "n", 1)
    assert "__slots__" in Event.__dict__
    assert not hasattr(event, "__dict__")


# ---------------------------------------------------------------------------
# decay and reset
# ---------------------------------------------------------------------------

def test_end_tick_decays_uncredited_weights():
    net = make_net()
    node = net.add_node("n")
    node.weight = 0.4
    net.end_tick()
    assert node.weight == pytest.approx(0.4 - 0.005)


def test_credited_elements_skip_decay_that_tick():
    net = make_net()
    node = net.add_node("n")
    net.update_weight(node)
    net.end_tick()
    assert node.weight == pytest.approx(0.4)
    net.end_tick()   # next tick: no credit, decays
    assert node.weight == pytest.approx(0.4 - 0.005)


def test_fixated_weights_never_decay():
    net = make_net()
    node = net.add_node("n")
    node.weight = 1.2
    node.fixated = True
    for _ in range(1000):
        net.end_tick()
    assert node.weight == pytest.approx(1.2)


def test_decay_floors_at_zero_exactly():
    net = make_net()
    node = net.add_node("n")
    net.update_weight(node)   # 0.4
    for _ in range(200):
        net.end_tick()
    assert node.weight == 0.0


def test_activation_decays_geometrically():
    net = make_net()
    node = net.add_node("n")
    node.activation = 1.0
    net.end_tick()
    assert node.activation == pytest.approx(0.8)
    net.end_tick()
    assert node.activation == pytest.approx(0.64)


def test_nightly_reset_touches_only_above_threshold():
    net = make_net()
    hot = net.add_node("hot")
    hot.weight = 2.0
    hot.fixated = True
    hot.above_credits = 4
    cold = net.add_node("cold")
    cold.weight = 0.6
    hot.activation = cold.activation = 0.9
    net.nightly_reset()
    assert hot.weight == pytest.approx(2.0 - 1.0 * 0.8)
    assert hot.above_credits == 0
    assert cold.weight == pytest.approx(0.6)
    assert hot.activation == 0.0 and cold.activation == 0.0


# ---------------------------------------------------------------------------
# tick pipeline
# ---------------------------------------------------------------------------

def test_external_input_requires_sensory_node():
    net = make_net()
    net.add_node("p", NodeKind.PLAIN)
    with pytest.raises(TopologyError):
        net.tick({"p": 3})


def test_external_signal_magnitude_checked():
    net = make_net()
    net.add_node("s", NodeKind.SENSORY)
    with pytest.raises(TopologyError):
        net.tick({"s": 4})


def test_relay_lands_one_tick_later():
    net = make_net()
    src = net.add_node("src", NodeKind.SENSORY)
    dst = net.add_node("dst")
    edge = net.ensure_edge("src", "dst")
    edge.weight = net.params.w_max
    edge.fixated = True
    src.weight = net.params.w_max
    src.fixated = True
    net.tick({"src": 3})
    assert dst.activation == 0.0          # still in flight
    net.tick()
    assert dst.activation > 0.0           # landed


def test_directed_cycle_goes_quiescent():
    # strong two-cycle: without echo attenuation this rings forever
    net = make_net()
    for nid in ("a", "b"):
        node = net.add_node(nid, NodeKind.SENSORY)
        node.weight = net.params.w_max
        node.fixated = True
    for s, d in (("a", "b"), ("b", "a")):
        edge = net.ensure_edge(s, d)
        edge.weight = net.params.w_max
        edge.fixated = True
    net.tick({"a": 3})
    for _ in range(60):
        if net.quiescent():
            break
        net.tick()
    assert net.quiescent()


def test_stochastic_firing_is_replay_stable():
    def run(seed: int) -> list[float]:
        net = Network(Params(), seed=seed, mode=FiringMode.STOCHASTIC)
        sensor = net.add_node("s", NodeKind.SENSORY)
        sensor.weight = net.params.w_max
        sensor.fixated = True
        target = net.add_node("t")
        edge = net.ensure_edge("s", "t")
        edge.weight = net.params.w_max
        edge.fixated = True
        trace = []
        for i in range(30):
            net.tick({"s": 2} if i % 3 == 0 else None)
            trace.append(target.activation)
        return trace

    assert run(5) == run(5)
    assert run(5) != run(6)


@given(sig=st.integers(-3, 3), w=st.floats(0, 3), a=st.floats(0, 1))
@settings(max_examples=200)
def test_signal_out_stays_in_band(sig, w, a):
    p = Params()
    out = signal_out(sig, w, a, p)
    if sig == 0:
        assert out == 0
    else:
        assert 1 <= abs(out) <= 3
        assert (out > 0) == (sig > 0)


@given(st.integers(0, 2**32 - 1), st.integers(0, 1000))
@settings(max_examples=100)
def test_counter_uniform_unit_interval(seed, tick):
    assert 0.0 <= counter_uniform(seed, "e", tick) < 1.0


# ---------------------------------------------------------------------------
# live set: the active-set tick against a full-scan reference
# ---------------------------------------------------------------------------

class FullScanNetwork(Network):
    """Reference: the clock-driven tick that visits every node and edge.

    Its ``end_tick`` never puts an element to sleep, so every write is a
    plain store and every scan below covers the whole graph.
    """

    def tick(self, external=None):
        p = self.params
        events = []
        tick = self.tick_count
        inbox = {}
        arrived_from = {}
        rose = []
        for edge, strength, against in self._relays:
            echo = against or self.nodes[edge.dst].activation >= p.fire_threshold
            out = signal_back(strength, p) if echo else signal_out(
                strength, edge.weight, edge.activation, p)
            if out == 0:
                continue
            if self.bump_activation(edge, out):
                rose.append(edge)
            events.append(Event(tick, "relay", edge.id, out))
            inbox[edge.dst] = clamp_signal(inbox.get(edge.dst, 0) + out)
            arrived_from.setdefault(edge.dst, set()).add(edge.src)
        self._relays = []
        if external:
            for node_id, value in external.items():
                inbox[node_id] = clamp_signal(inbox.get(node_id, 0) + value)
        for node_id, value in inbox.items():
            node = self.nodes[node_id]
            if self.bump_activation(node, value):
                rose.append(node)
            events.append(Event(tick, "deliver", node_id, value))
        fired = [node for node in self.nodes.values()
                 if node.activation > 0.0 and self.fires(node)]
        for node in fired:
            drive = inbox.get(node.id, 0)
            if drive == 0:
                drive = max(1, round(SIGNAL_MAX * node.activation / p.a_max))
            emitted = signal_out(drive, node.weight, node.activation, p)
            events.append(Event(tick, "fire", node.id, emitted))
            came_from = arrived_from.get(node.id, ())
            for dst, edge in self.out[node.id].items():
                self._relays.append((edge, emitted, dst in came_from))
        for element in rose:
            boost = isinstance(element, Edge) and self.nodes[element.dst].fixated
            new_w = self.update_weight(element, boost=boost)
            events.append(Event(tick, "update", element.id, new_w))
        self.end_tick()
        return events

    def end_tick(self):
        p = self.params
        tick = self.tick_count
        for element in self.elements():
            if not element.fixated and element.weight > 0.0 and element.credited_tick != tick:
                element.weight = max(0.0, element.weight - p.decay_w)
            if element.activation > 0.0:
                element.activation *= (1.0 - p.decay_a)
        self.tick_count += 1

    def quiescent(self):
        if self._relays:
            return False
        return all(n.activation < self.params.fire_threshold for n in self.nodes.values())

    def nightly_reset(self):
        p = self.params
        events = []
        for element in self.elements():
            if element.weight > p.theta:
                element.weight = element.weight - (element.weight - p.theta) * p.reset_factor
                element.above_credits = 0
                events.append(Event(self.tick_count, "reset", element.id, element.weight))
        for element in self.elements():
            element.activation = 0.0
        return events


weights = st.sampled_from([0.0, 0.2, 1.0, 1.7, 3.0]) | st.floats(0.0, 3.0)
# 0.625 fades exactly onto the default fire threshold
activations = st.sampled_from([0.0, 0.0, 0.6, 0.625, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def random_nets(draw):
    """Node records, edge records over them (cycles allowed, each entry
    ``(src, dst, weight, activation, fixated)``) and the firing mode."""
    n = draw(st.integers(2, 7))
    nodes = [(f"n{i}", draw(st.booleans()), draw(weights), draw(activations),
              draw(st.booleans())) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True))
    edges = [(f"n{i}", f"n{j}", draw(weights), draw(activations), draw(st.booleans()))
             for i, j in chosen]
    return nodes, edges, draw(st.sampled_from(list(FiringMode)))


def build(cls, spec, seed):
    nodes, edges, mode = spec
    net = cls(Params(), seed=seed, mode=mode)
    for node_id, sensory, weight, activation, fixated in nodes:
        node = net.add_node(node_id, NodeKind.SENSORY if sensory else NodeKind.PLAIN)
        node.weight, node.activation, node.fixated = weight, activation, fixated
    for src, dst, weight, activation, fixated in edges:
        edge = net.ensure_edge(src, dst)
        edge.weight, edge.activation, edge.fixated = weight, activation, fixated
    return net


def steps(spec):
    """Ticks with sensor input, bare decays, long runs of bare decays with
    nothing read, resets, reads and direct writes; a ``check`` compares the
    snapshot bytes, which reads, and so brings up to date, every element."""
    nodes, edges, _ = spec
    sensors = [rec[0] for rec in nodes if rec[1]]
    ids = [rec[0] for rec in nodes] + [(src, dst) for src, dst, *_ in edges]
    inputs = (st.dictionaries(st.sampled_from(sensors), st.integers(-3, 3))
              if sensors else st.just({}))
    writes = st.one_of(
        st.tuples(st.just("weight"), weights),
        st.tuples(st.just("activation"), activations),
        st.tuples(st.just("fixated"), st.booleans()),
        st.tuples(st.just("above_credits"), st.integers(0, 3)),
        st.tuples(st.just("credited_tick"), st.integers(-1, 50)))
    return st.lists(st.one_of(
        st.tuples(st.just("tick"), inputs),
        st.tuples(st.just("end_tick"), st.none()),
        st.tuples(st.just("idle"), st.integers(2, 4000)),
        st.tuples(st.just("reset"), st.none()),
        st.tuples(st.just("read"), st.sampled_from(ids)),
        st.tuples(st.just("write"), st.tuples(st.sampled_from(ids), writes)),
        st.tuples(st.just("check"), st.none()),
    ), max_size=40)


def element_of(net, key):
    return net.node(key) if isinstance(key, str) else net.edge(*key)


def full_state(net):
    rows = [(n.id, n.above_credits, n.credited_tick) for n in net.nodes.values()]
    rows += [(e.id, e.above_credits, e.credited_tick) for e in net.edges()]
    return snapshot_json(snapshot_from_net(net, net.seed)), rows, net.quiescent()


def peeked_state(net):
    """Every field of every element without bringing any fading element up
    to date: a fading activation is worked out here from the stored value
    by eager fades, which change nothing once ``a * fade == a``."""
    fade = 1.0 - net.params.decay_a

    def activation(element):
        a = _activation_slot.__get__(element)
        for _ in range(net.tick_count - net._fade_start.get(element, net.tick_count)):
            if a * fade == a:
                break
            a *= fade
        return a

    rows = [(n.id, n.weight, activation(n), n.fixated, n.above_credits, n.credited_tick)
            for n in net.nodes.values()]
    rows += [(e.id, e.weight, activation(e), e.fixated, e.above_credits, e.credited_tick)
             for e in net.edges()]
    return rows, net.tick_count, net.quiescent()


def assert_two_states(net):
    """Every element is live or idle, and only a live one can change in a
    way a tick has to visit.  An idle element on the fading registry holds
    an activation in (0, ``fire_threshold``); any other holds +0.0.  Reads
    the activation slot itself, so the check brings no fading element up
    to date."""
    live = set(map(id, net._live))
    assert len(live) == len(net._live)
    fading = set(map(id, net._fade_start))
    assert not live & fading
    for element in net.elements():
        activation = _activation_slot.__get__(element)
        if id(element) in live:
            assert type(element) in (Node, Edge)
            continue
        assert type(element) in (_IdleNode, _IdleEdge)
        assert element.fixated or element.weight <= 0.0
        if id(element) in fading:
            assert net.mode is FiringMode.DETERMINISTIC
            assert 0.0 < activation < net.params.fire_threshold
            assert net._fade_start[element] <= net.tick_count
        else:
            assert activation == 0.0 and math.copysign(1.0, activation) > 0.0


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_active_set_matches_full_scan(data):
    spec = data.draw(random_nets())
    seed = data.draw(st.integers(0, 2**16))
    fast, slow = build(Network, spec, seed), build(FullScanNetwork, spec, seed)
    assert full_state(fast) == full_state(slow)
    for kind, arg in data.draw(steps(spec)):
        if kind == "tick":
            got, want = fast.tick(arg), slow.tick(arg)
        elif kind == "end_tick":
            got, want = fast.end_tick(), slow.end_tick()
        elif kind == "idle":
            for _ in range(arg):
                fast.end_tick()
                slow.end_tick()
            got = want = None
        elif kind == "reset":
            got, want = fast.nightly_reset(), slow.nightly_reset()
        elif kind == "read":
            got, want = element_of(fast, arg).activation, element_of(slow, arg).activation
        elif kind == "check":
            got, want = full_state(fast), full_state(slow)
        else:
            key, (attr, value) = arg
            setattr(element_of(fast, key), attr, value)
            setattr(element_of(slow, key), attr, value)
            got = want = None
        assert got == want
        assert peeked_state(fast) == peeked_state(slow)
        assert_two_states(fast)
    assert full_state(fast) == full_state(slow)


@pytest.mark.parametrize("mode", list(FiringMode))
@pytest.mark.parametrize("seed", range(3))
def test_long_runs_match_full_scan(mode, seed):
    """Hundreds of ticks on a denser cyclic graph, where echoes, relays back
    along the arrival edge and boosted edge credits happen every few ticks;
    the short random runs above reach them only now and then."""
    rng = random.Random(seed)
    ids = [f"n{i}" for i in range(24)]
    nodes = [(node_id, i < 4, rng.uniform(0.0, 3.0), rng.choice([0.0, rng.random()]),
              rng.random() < 0.5) for i, node_id in enumerate(ids)]
    pairs = rng.sample([(a, b) for a in ids for b in ids if a != b], 70)
    edges = [(a, b, rng.uniform(0.0, 3.0), 0.0, rng.random() < 0.5) for a, b in pairs]
    fast, slow = (build(cls, (nodes, edges, mode), seed) for cls in (Network, FullScanNetwork))
    for t in range(300):
        external = {f"n{i}": rng.randint(-3, 3) for i in range(4) if rng.random() < 0.7}
        assert fast.tick(external) == slow.tick(external)
        if t % 100 == 99:
            assert fast.nightly_reset() == slow.nightly_reset()
    assert full_state(fast) == full_state(slow)


def test_fading_stops_at_the_subnormal_fixed_point():
    """Default fading never reaches +0.0: it sticks where ``a * 0.8 == a``.
    An element left there for 5000 ticks, unread, stays off the live list
    and reads what 5000 eager fades give, bit for bit."""
    fast, slow = idle_ring(3), idle_ring(3, FullScanNetwork)
    for net in (fast, slow):
        net.node("r0").activation = 0.4
    for _ in range(5000):
        fast.end_tick()
        slow.end_tick()
    node = fast.node("r0")
    assert node not in fast._live and type(node) is _IdleNode
    want = 0.4
    for _ in range(5000):
        want *= 1.0 - fast.params.decay_a
    assert node.activation == want == slow.node("r0").activation == 1e-323
    node.weight = 1.6                     # wakes it
    assert node in fast._live and node not in fast._fade_start
    slow.node("r0").weight = 1.6
    fast.end_tick()
    slow.end_tick()
    assert full_state(fast) == full_state(slow)


def idle_ring(n: int, cls=Network, **overrides) -> Network:
    """A fixated ring of ``n`` nodes with no activation anywhere."""
    net = cls(Params(**overrides), seed=0)
    for i in range(n):
        node = net.add_node(f"r{i}")
        node.weight, node.fixated = 1.5, True
    for i in range(n):
        edge = net.ensure_edge(f"r{i}", f"r{(i + 1) % n}")
        edge.weight, edge.fixated = 1.5, True
    return net


def test_idle_elements_leave_the_live_list():
    net = idle_ring(50)
    assert len(net._live) == 150          # every element is born live
    net.end_tick()
    assert net._live == []
    node = net.node("r3")
    node.activation = 0.9                 # a direct write wakes it
    assert net._live == [node] and type(node) is Node
    node.activation = 0.8                 # once only
    assert net._live == [node]
    events = net.tick()
    assert [e.kind for e in events] == ["fire"]
    assert {e.id for e in net._live} == {"r3"}
    net.tick()                            # the relay lands and wakes r3->r4 and r4
    assert "r3" in {e.id for e in net._live}
    # below the fire threshold, fixated and with no plastic weight, both
    # can only fade, so they wait on the fading registry
    assert {e.id for e in net._fade_start} >= {"r3->r4", "r4"}
    assert type(net.node("r4")) is _IdleNode
    assert type(net.edge("r3", "r4")) is _IdleEdge


def test_fading_to_zero_stays_idle_until_one_write():
    """With a fade factor of 0.5, fading ends at +0.0.  The element then
    leaves the fading registry and keeps its idle class, and one write puts
    it back on the live list exactly once.  A nightly reset clears the
    registry and leaves the elements it held idle at +0.0."""
    fast, slow = idle_ring(3, decay_a=0.5), idle_ring(3, FullScanNetwork, decay_a=0.5)
    for net in (fast, slow):
        net.node("r0").activation = net.node("r1").activation = 0.4
        net.end_tick()
    node, other = fast.node("r0"), fast.node("r1")
    assert fast._live == [] and set(fast._fade_start) == {node, other}
    for _ in range(1200):
        fast.end_tick()
        slow.end_tick()
    assert node.activation == 0.0 == slow.node("r0").activation   # the read catches up
    assert math.copysign(1.0, node.activation) > 0.0
    assert node not in fast._fade_start and type(node) is _IdleNode
    assert other in fast._fade_start                   # unread, still behind
    for net in (fast, slow):
        net.node("r0").weight = 2.0
        net.node("r0").fixated = True
    assert fast._live == [node] and type(node) is Node
    fast.nightly_reset()
    slow.nightly_reset()
    assert fast._fade_start == {} and fast._live == [node]
    assert type(other) is _IdleNode and _activation_slot.__get__(other) == 0.0
    assert math.copysign(1.0, other.activation) > 0.0
    assert_two_states(fast)
    assert full_state(fast) == full_state(slow)


def test_fire_events_keep_node_creation_order():
    net = idle_ring(8)
    net.end_tick()
    for node_id in ("r6", "r2", "r4"):   # woken out of creation order
        net.node(node_id).activation = 0.9
    fired = [e.element for e in net.tick() if e.kind == "fire"]
    assert fired == ["r2", "r4", "r6"]


def test_tick_cost_follows_live_elements_not_graph_size():
    """An idle graph's tick visits only what the external input touches.

    The credit fixates ``s`` and its activation stays below the fire
    threshold, so it leaves the live list for the fading registry."""
    visited = []
    for n in (20, 2000):
        net = idle_ring(n)
        net.add_node("s", NodeKind.SENSORY).weight = 1.0
        net.tick()
        net.tick({"s": 2})
        visited.append(([e.id for e in net._live], [e.id for e in net._fade_start]))
    assert visited[0] == visited[1] == ([], ["s"])


def test_dropped_network_is_freed_and_orphans_accept_writes():
    net = idle_ring(3)
    net.end_tick()
    node, edge = net.node("r0"), net.edge("r0", "r1")
    ref = weakref.ref(net)
    gc.disable()
    try:
        del net
        assert ref() is None              # freed by refcount, no cycle
    finally:
        gc.enable()
    node.activation = 0.5                 # the idle hook must not raise
    edge.weight = 2.0
    assert node.activation == 0.5 and edge.weight == 2.0
