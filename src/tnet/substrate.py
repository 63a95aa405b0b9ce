"""Weighted node/edge substrate with activation dynamics and fixation.

Every element (node or edge) carries a long-term weight and a short-term
activation.  Weights grow when an element is credited, decay slowly when it
is not, and freeze structurally once they cross the fixation threshold: a
fixated element never decays below the threshold and its identity is
immutable.  Activation is fast currency — it rises when signals arrive and
fades multiplicatively every tick.

Signals are small signed integers in ``-3..3``; 0 means absence, negatives
inhibit.  A node receiving a signal gains activation in proportion to its own
weight; a firing node emits along every out-edge; edges relay with one tick
of latency, scaling by their own weight and activation.  A signal returned
against the direction it arrived from attenuates by a floor rule, which is
what guarantees that echoes in cyclic topologies die out.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .errors import FixationError, TopologyError

SIGNAL_MAX = 3


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass
class Params:
    """Global update constants.

    ``dw``            weight credit per observation
    ``boost``         multiplier for contextually supported credits
    ``decay_w``       per-tick weight loss for uncredited, non-fixated elements
    ``theta``         fixation threshold (and post-fixation floor)
    ``beta``          geometric falloff for credits beyond the threshold
    ``w_max``/``a_max`` hard ceilings for weight / activation
    ``decay_a``       multiplicative activation loss per tick
    ``back_factor``   attenuation for signals returned against arrival direction
    ``reset_factor``  fraction of above-threshold excess shed at nightly reset
    ``fire_threshold`` activation needed to fire in deterministic mode
    """

    dw: float = 0.4
    boost: float = 2.0
    decay_w: float = 0.005
    theta: float = 1.0
    beta: float = 0.5
    w_max: float = 3.0
    a_max: float = 1.0
    decay_a: float = 0.2
    back_factor: float = 0.5
    reset_factor: float = 0.8
    fire_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.theta <= self.w_max):
            raise ValueError("theta must lie in (0, w_max]")
        for name in ("beta", "back_factor", "reset_factor", "decay_a"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ValueError(f"{name} must lie in (0, 1)")
        if not (0.0 < self.fire_threshold <= self.a_max):
            raise ValueError("fire_threshold must lie in (0, a_max]")
        for name in ("dw", "boost", "decay_w", "w_max", "a_max"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):     # NaN fails too
                raise ValueError(f"{name} must be finite and strictly positive")


class NodeKind(Enum):
    PLAIN = "plain"
    SENSORY = "sensory"
    CHUNK = "chunk"
    REWARD = "reward"
    EFFECTOR = "effector"


class FiringMode(Enum):
    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class Element:
    """Weight, activation and credit state shared by nodes and edges.

    Built only by :class:`Network`, which registers every new element as
    live.  ``_net`` is a weak reference to that network: it lets an idle
    element put itself back on the live list (see :func:`_wake`) without
    keeping a dropped network alive.
    """

    __slots__ = ("weight", "activation", "fixated", "above_credits", "credited_tick", "_net")

    def __init__(self, net: Network) -> None:
        self.weight = 0.0
        self.activation = 0.0
        self.fixated = False
        self.above_credits = 0      # credits received while at/above theta
        self.credited_tick = -1     # last tick this element was credited
        self._net = net._ref
        net._live.append(self)

    def __repr__(self) -> str:
        return (f"<{self.id} weight={self.weight!r} activation={self.activation!r} "
                f"fixated={self.fixated}>")


class Node(Element):
    __slots__ = ("id", "kind", "_order")

    def __init__(self, net: Network, node_id: str, kind: NodeKind) -> None:
        Element.__init__(self, net)
        self.id = node_id
        self.kind = kind
        self._order = len(net.nodes)    # creation index: fire order within a tick


class Edge(Element):
    __slots__ = ("src", "dst")

    def __init__(self, net: Network, src: str, dst: str) -> None:
        Element.__init__(self, net)
        self.src = src
        self.dst = dst

    @property
    def id(self) -> str:
        return f"{self.src}->{self.dst}"


# the activation slot itself, for idle elements whose class shadows it
_activation_slot = Element.__dict__["activation"]


def _caught_up(element: Element) -> float:
    """Activation of an idle element after the fades it has missed.

    At +0.0 there is nothing to catch up, and no fade can change it.  Any
    other idle activation went fading at a tick recorded in its network's
    ``_fade_start``; each ``end_tick`` since then would have multiplied it
    by the fade factor once.  Those multiplications are applied here one at
    a time, so the value is bit-identical to the eager update; ``fade ** k``
    would not be.  They stop early once ``a * fade == a``: at +0.0, where
    the element leaves the registry, or at the subnormal fixed point, where
    later fades change nothing.  An orphan, whose network has been dropped,
    has no clock and reads the value it held when it was last caught up.
    """
    a = _activation_slot.__get__(element)
    if a == 0.0:
        return a
    net = element._net()
    if net is None:
        return a
    start = net._fade_start
    missed = net.tick_count - start[element]
    if missed > 0:
        fade = 1.0 - net.params.decay_a
        for _ in range(missed):
            faded = a * fade
            if faded == a:
                break
            a = faded
        _activation_slot.__set__(element, a)
        if a == 0.0:
            del start[element]
        else:
            start[element] = net.tick_count
    return a


def _wake(element: Element, name: str, value) -> None:
    """``__setattr__`` of an idle element.  A fading one first catches up
    and leaves the fade registry.  The first write switches the element
    back to its live class, so later writes are plain slot stores, and
    appends it to its network's live list; then the write lands."""
    net = element._net()
    if net is not None:
        if _activation_slot.__get__(element) != 0.0:
            _caught_up(element)
            net._fade_start.pop(element, None)
        net._live.append(element)
    object.__setattr__(element, "__class__", element._awake)
    object.__setattr__(element, name, value)


class _IdleNode(Node):
    __slots__ = ()
    __setattr__ = _wake
    activation = property(_caught_up)
    _awake = Node


class _IdleEdge(Edge):
    __slots__ = ()
    __setattr__ = _wake
    activation = property(_caught_up)
    _awake = Edge


Node._idle = _IdleNode
Edge._idle = _IdleEdge
_creation_order = attrgetter("_order")


@dataclass(slots=True)
class Event:
    """One line of the run log: what happened to which element, when."""
    tick: int
    kind: str           # fire | relay | deliver | update | reset
    element: str
    value: float


# ---------------------------------------------------------------------------
# signal arithmetic (module-level so tests can probe the formulas directly)
# ---------------------------------------------------------------------------

def clamp_signal(value: int) -> int:
    if value > SIGNAL_MAX:
        return SIGNAL_MAX
    if value < -SIGNAL_MAX:
        return -SIGNAL_MAX
    return value


def signal_out(signal: int, weight: float, activation: float, p: Params) -> int:
    """Signal re-emitted by a firing element (node or relaying edge).

    Magnitude scales with weight and activation but is floored at 1: a firing
    element always says *something*; sign is preserved.
    """
    if signal == 0:
        return 0
    mag = abs(signal) * (0.5 + 0.5 * weight / p.w_max) * (0.5 + 0.5 * activation / p.a_max)
    mag = max(1, min(SIGNAL_MAX, round(mag)))
    return mag if signal > 0 else -mag


def signal_back(signal: int, p: Params) -> int:
    """Attenuated strength for the return direction; reaches 0 within few hops."""
    mag = math.floor(abs(signal) * p.back_factor)
    return mag if signal > 0 else -mag


def counter_uniform(seed: int, element: str, tick: int) -> float:
    """Deterministic uniform in [0, 1) keyed by (seed, element, tick).

    Hash-based rather than generator-based so draws are independent of
    iteration order and stable under replay and parallel sweeps.
    """
    digest = hashlib.blake2b(f"{seed}:{element}:{tick}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------

class Network:
    """Sparse directed graph of weighted nodes and edges.

    Adjacency is one dict-of-dict, ``out[src][dst]``.  Creating a directed
    edge always creates its reciprocal at weight 0, so every edge has one:
    ``dst in out[src]`` exactly when ``src in out[dst]``.  The in-edges of
    ``x`` are therefore ``out[y][x]`` for ``y`` in ``out[x]``, in that order,
    and traversal code can assume reverse reachability and filter by
    positive weight when it wants only strengthened links.

    Only *live* elements can change on their own in a way a tick has to
    visit: non-fixated ones holding weight, and those holding activation
    that may fire.  ``_live`` lists them, so a tick costs O(live elements),
    not O(graph).  Every element is born live; :meth:`end_tick` turns one
    that cannot change in a way a tick has to visit idle: at +0.0 or, in
    deterministic mode, fading below the fire threshold (see
    :func:`_caught_up`).  Any attribute write to an idle element makes it
    live again, so callers may keep setting ``weight``, ``activation`` or
    ``fixated`` by hand.  The fade factor is read from ``params`` when an
    element catches up, so ``params`` must not change while elements fade.
    """

    def __init__(self, params: Params | None = None, *, seed: int = 0,
                 mode: FiringMode = FiringMode.DETERMINISTIC) -> None:
        self.params = params if params is not None else Params()
        self.seed = seed
        self.mode = mode
        self.tick_count = 0
        self.nodes: dict[str, Node] = {}
        # chunk nodes in creation order; a node's kind is fixed at creation
        self.chunk_nodes: list[Node] = []
        self.out: dict[str, dict[str, Edge]] = {}
        # relays in flight: (edge, strength, against_arrival)
        self._relays: list[tuple[Edge, int, bool]] = []
        # live elements, in no fixed order; a list costs less memory than a set
        self._live: list[Element] = []
        # fading element -> the tick count its stored activation is current at
        self._fade_start: dict[Element, int] = {}
        self._ref = weakref.ref(self)

    # -- topology ----------------------------------------------------------

    def add_node(self, node_id: str, kind: NodeKind = NodeKind.PLAIN) -> Node:
        if node_id in self.nodes:
            raise TopologyError(f"node {node_id!r} already exists")
        node = Node(self, node_id, kind)
        self.nodes[node_id] = node
        if kind is NodeKind.CHUNK:
            self.chunk_nodes.append(node)
        self.out[node_id] = {}
        return node

    def ensure_node(self, node_id: str, kind: NodeKind = NodeKind.PLAIN) -> Node:
        node = self.nodes.get(node_id)
        return node if node is not None else self.add_node(node_id, kind)

    def has_node(self, node_id: str) -> bool:
        return node_id in self.nodes

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise TopologyError(f"no node {node_id!r}") from None

    def ensure_edge(self, src: str, dst: str) -> Edge:
        """Return the src→dst edge, creating it and its weight-0 reciprocal."""
        if src not in self.nodes or dst not in self.nodes:
            raise TopologyError(f"edge endpoints must exist: {src!r} -> {dst!r}")
        if src == dst:
            raise TopologyError(f"self-edge rejected: {src!r}")
        edge = self.out[src].get(dst)
        if edge is None:
            # under the reciprocal invariant dst->src is missing too
            edge = self.out[src][dst] = Edge(self, src, dst)
            self.out[dst][src] = Edge(self, dst, src)
        return edge

    def edge(self, src: str, dst: str) -> Edge:
        try:
            return self.out[src][dst]
        except KeyError:
            raise TopologyError(f"no edge {src!r} -> {dst!r}") from None

    def has_edge(self, src: str, dst: str) -> bool:
        return src in self.out and dst in self.out[src]

    def out_edges(self, src: str, *, positive: bool = False) -> dict[str, Edge]:
        edges = self.out.get(src)
        if edges is None:
            raise TopologyError(f"no node {src!r}")
        if positive:
            return {dst: e for dst, e in edges.items() if e.weight > 0.0}
        return dict(edges)

    def in_edges(self, dst: str, *, positive: bool = False) -> dict[str, Edge]:
        out = self.out
        sources = out.get(dst)
        if sources is None:
            raise TopologyError(f"no node {dst!r}")
        if positive:
            return {src: e for src in sources if (e := out[src][dst]).weight > 0.0}
        return {src: out[src][dst] for src in sources}

    def edges(self) -> Iterator[Edge]:
        for adjacency in self.out.values():
            yield from adjacency.values()

    def elements(self) -> Iterable[Element]:
        yield from self.nodes.values()
        yield from self.edges()

    # -- weight and activation updates ------------------------------------

    def update_weight(self, element: Element, *, boost: bool = False,
                      amount: float | None = None) -> float:
        """Credit one element and return its new weight.

        Below the threshold the credit is ``amount`` when given, else ``dw``
        (times the boost multiplier when contextually supported); crossing
        the threshold fixates the element permanently.  At or above the
        threshold credits follow the diminishing schedule ``dw * beta^k`` for
        the k-th such credit (k = 1, 2, ...), ignoring boost and amount.  A
        credited element skips weight decay this tick.
        """
        p = self.params
        weight = element.weight
        above = weight >= p.theta
        if above:
            element.above_credits += 1
            weight += p.dw * p.beta ** element.above_credits
        else:
            weight += amount if amount is not None else p.dw * (p.boost if boost else 1.0)
        element.weight = weight = weight if weight < p.w_max else p.w_max
        if not above and weight >= p.theta:
            element.fixated = True
        element.credited_tick = self.tick_count
        return weight

    def transfer_weight(self, element: Element, weight: float) -> None:
        """Overwrite a non-fixated element's weight (trace rewriting)."""
        if element.fixated:
            raise FixationError("fixated elements are immutable")
        element.weight = min(self.params.w_max, max(0.0, weight))

    def bump_activation(self, element: Element, value: int) -> bool:
        """Apply one signal to an element's activation; True if it rose."""
        p = self.params
        if not -SIGNAL_MAX <= value <= SIGNAL_MAX:
            value = clamp_signal(value)
        before = element.activation
        # the gain, then min(a_max, max(0.0, a)) spelled out: each
        # conditional picks the same operand as max/min on ties, ±0.0 and NaN
        a = before + value * (0.2 + 0.3 * element.weight / p.w_max) / 3.0
        a = a if a > 0.0 else 0.0
        element.activation = a = a if a < p.a_max else p.a_max
        return a > before

    # -- firing ------------------------------------------------------------

    def fires(self, node: Node) -> bool:
        if self.mode is FiringMode.DETERMINISTIC:
            return node.activation >= self.params.fire_threshold
        draw = counter_uniform(self.seed, node.id, self.tick_count)
        return draw < node.activation / self.params.a_max

    # -- the tick pipeline -------------------------------------------------

    def tick(self, external: Mapping[str, int] | None = None) -> list[Event]:
        """One global step, in fixed phase order.

        1. relays queued last tick deliver — scaled by the edge, or cut by
           the attenuation floor when the signal runs against its arrival
           direction or lands on an already-firing node (echo) — then
           external signals land on sensory nodes; activations update;
        2. nodes fire — deterministically by threshold, or with probability
           equal to relative activation;
        3. every firing node emits along each of its out-edges; those relays
           are queued and land next tick;
        4. every element whose activation rose this tick is credited; edge
           credits into a fixated destination carry the matched-context boost;
        5. decay: uncredited non-fixated weights shrink, all activations fade.
        """
        p = self.params
        nodes = self.nodes
        events: list[Event] = []
        emit = events.append
        tick = self.tick_count
        fire_threshold = p.fire_threshold
        # relays carry signal_out's strengths, ±1..3, so each echo is a lookup
        back = {s: signal_back(s, p) for s in range(-SIGNAL_MAX, SIGNAL_MAX + 1)}

        inbox: dict[str, int] = {}
        arrived_from: dict[str, set[str]] = {}
        rose: list[Element] = []

        for edge, strength, against in self._relays:
            # Delivering into a node that is already at firing level is an
            # echo (returning or redundant drive): attenuate by the floor
            # rule.  This is what makes waves in directed cycles die out.
            src, dst = edge.src, edge.dst
            if against or nodes[dst].activation >= fire_threshold:
                out = back[strength]
            else:
                out = signal_out(strength, edge.weight, edge.activation, p)
            if out == 0:
                continue
            if self.bump_activation(edge, out):
                rose.append(edge)
            emit(Event(tick, "relay", f"{src}->{dst}", out))
            inbox[dst] = clamp_signal(inbox.get(dst, 0) + out)
            sources = arrived_from.get(dst)
            if sources is None:
                arrived_from[dst] = {src}
            else:
                sources.add(src)
        self._relays = relays = []

        if external:
            for node_id, value in external.items():
                node = self.node(node_id)
                if node.kind is not NodeKind.SENSORY:
                    raise TopologyError(f"external input to non-sensory node {node_id!r}")
                if not isinstance(value, int) or abs(value) > SIGNAL_MAX:
                    raise TopologyError(f"signal {value!r} outside -3..3")
                inbox[node_id] = clamp_signal(inbox.get(node_id, 0) + value)

        for node_id, value in inbox.items():
            node = nodes[node_id]
            if self.bump_activation(node, value):
                rose.append(node)
            emit(Event(tick, "deliver", node_id, value))

        # only live nodes hold activation; creation order keeps event order
        fired = [node for node in self._live
                 if node.activation > 0.0 and type(node) is Node and self.fires(node)]
        fired.sort(key=_creation_order)

        for node in fired:
            drive = inbox.get(node.id, 0)
            if drive == 0:
                # firing on residual activation alone: emit what the
                # activation itself is worth
                drive = max(1, round(SIGNAL_MAX * node.activation / p.a_max))
            emitted = signal_out(drive, node.weight, node.activation, p)
            emit(Event(tick, "fire", node.id, emitted))
            came_from = arrived_from.get(node.id, ())
            for dst, edge in self.out[node.id].items():
                relays.append((edge, emitted, dst in came_from))

        for element in rose:
            if type(element) is Node:
                emit(Event(tick, "update", element.id, self.update_weight(element)))
            else:
                new_w = self.update_weight(element, boost=nodes[element.dst].fixated)
                emit(Event(tick, "update", f"{element.src}->{element.dst}", new_w))

        self.end_tick()
        return events

    def end_tick(self) -> None:
        """Decay phase: uncredited non-fixated weights shrink, activations fade.

        Visits live elements only.  One whose weight cannot decay goes idle
        until its next attribute write when its activation is exactly +0.0
        or, in deterministic mode, lies in (0, ``fire_threshold``): it
        cannot fire, and all that happens to it is the fade, which it
        catches up when read.  In stochastic mode any positive activation
        may fire, so only +0.0 goes idle.
        """
        p = self.params
        tick = self.tick_count
        fade = 1.0 - p.decay_a
        limit = p.fire_threshold if self.mode is FiringMode.DETERMINISTIC else 0.0
        fade_start = self._fade_start
        live: list[Element] = []
        for element in self._live:
            weight = element.weight
            plastic = not element.fixated and weight > 0.0
            if plastic and element.credited_tick != tick:
                element.weight = weight = max(0.0, weight - p.decay_w)
            activation = element.activation
            if activation > 0.0:
                element.activation = activation = activation * fade
            if plastic and weight > 0.0:
                live.append(element)
            elif 0.0 < activation < limit:
                element.__class__ = element._idle
                fade_start[element] = tick + 1
            elif activation == 0.0 and math.copysign(1.0, activation) > 0.0:
                element.__class__ = element._idle
            else:
                # at or above the fire threshold, or negative, -0.0 or NaN,
                # which nightly_reset still has to clear
                live.append(element)
        self._live = live
        self.tick_count += 1

    def quiescent(self) -> bool:
        """True when nothing is in flight and nothing can fire."""
        if self._relays:
            return False
        threshold = self.params.fire_threshold
        return all(e.activation < threshold for e in self._live if type(e) is Node)

    def nightly_reset(self) -> list[Event]:
        """Sleep consolidation: shed above-threshold excess, clear activations.

        Weights above theta relax toward it by ``reset_factor`` of the excess;
        the diminishing-credit counters restart so consolidated elements can
        strengthen again.
        """
        theta, factor = self.params.theta, self.params.reset_factor
        tick = self.tick_count
        events: list[Event] = []

        def shed(element_id: str, element: Element) -> None:
            # an idle element here is fixated, and neither its weight nor
            # its credit count decides its state, so these writes go past
            # its wake hook
            weight = element.weight - (element.weight - theta) * factor
            object.__setattr__(element, "weight", weight)
            object.__setattr__(element, "above_credits", 0)
            events.append(Event(tick, "reset", element_id, weight))

        # the order of elements(), with an edge's id formatted only when needed
        for node_id, node in self.nodes.items():
            if node.weight > theta:
                shed(node_id, node)
        for src, adjacency in self.out.items():
            for dst, edge in adjacency.items():
                if edge.weight > theta:
                    shed(f"{src}->{dst}", edge)
        for element in self._live:      # unregistered idle ones hold +0.0
            element.activation = 0.0
        for element in self._fade_start:
            # cleared, a fading element stays idle at +0.0
            _activation_slot.__set__(element, 0.0)
        self._fade_start.clear()
        return events
