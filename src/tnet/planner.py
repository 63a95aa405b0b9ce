"""Action selection by simulated bidirectional activation passes.

A drive source pushes activation forward through the network while the goal
pushes value backward along reciprocal edges; both flows attenuate
multiplicatively in normalized edge and node weights, so accumulated
activation on a candidate first hop is a proxy for the value of the best
paths through it.  Decisions fire when a candidate crosses an absolute
threshold or leads its competitors by a relative margin; plans chain
decisions greedily until an effector adjacent to the goal is committed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import TopologyError
from .substrate import FiringMode, Network, NodeKind, counter_uniform

_PRUNE = 1e-9   # on cyclic graphs, stop a path when its contribution drops below this
POLICIES = ("absolute", "relative")


@dataclass
class PlannerParams:
    """Thresholds and drive levels for decision making.

    ``t_act``          absolute execution threshold on candidate activation
    ``t_rel``          required lead of best over second-best candidate
    ``max_rounds``     cap on alternating simulation passes
    ``source_strength``  drive signal magnitude, 1..3
    ``goal_value``     strength the goal emits on backward passes
    ``back_uses_forward_weight``  attenuate backward hops by the forward
                       edge's weight instead of the reciprocal's own weight
    """

    t_act: float = 0.6
    t_rel: float = 0.15
    max_rounds: int = 50
    source_strength: int = 1
    goal_value: float = 1.0
    back_uses_forward_weight: bool = False

    def __post_init__(self) -> None:
        for name in ("t_act", "t_rel", "goal_value"):
            if not getattr(self, name) > 0:     # NaN fails too
                raise ValueError(f"{name} must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.source_strength not in (1, 2, 3):
            raise ValueError("source_strength must be 1, 2, or 3")


@dataclass(frozen=True)
class PathQuery:
    source: str
    goal: str
    context: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class Decision:
    chosen: str
    rounds_used: int


def _check_query(net: Network, q: PathQuery) -> None:
    """Raise TopologyError for a node the query names but the net lacks."""
    for node_id in (q.source, q.goal, *q.context):
        net.node(node_id)


def _reachable(net: Network, source: str, goal: str) -> bool:
    frontier = [source]
    seen = {source}
    while frontier:
        node_id = frontier.pop()
        if node_id == goal:
            return True
        for dst in net.out_edges(node_id, positive=True):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return False


_Hop = tuple[str, float, float]     # (other node, hop factor, node factor)


def _relay(net: Network, start: str, *, inward: bool,
           absorb: frozenset[str]) -> tuple[dict[str, list[_Hop]], list[str] | None]:
    """Walk the subgraph that can relay one seed's flow.

    Both directions walk ``out``, as every edge has its reciprocal.  A hop
    from ``node`` to ``other`` is weighted by ``out[node][other]`` or, when
    ``inward``, by the edge into ``node``, ``out[other][node]``.

    Returns each expanded node's hops that pass a positive share (both
    factors > 0), in neighbour order, and a topological order of the
    expanded nodes, or None when the walk meets a cycle.  Hops back into
    ``start`` are dropped, since no simple path revisits it; nodes in
    ``absorb`` are reached but not expanded.
    """
    w_max = net.params.w_max
    nodes = net.nodes
    out = net.out

    def hops_of(node_id: str) -> list[_Hop]:
        found = []
        for other, edge in out[node_id].items():
            if other == start:
                continue
            a = (out[other][node_id] if inward else edge).weight / w_max
            b = nodes[other].weight / w_max
            if a > 0.0 and b > 0.0:
                found.append((other, a, b))
        return found

    hops = {start: hops_of(start)}
    on_path = {start}
    finished: list[str] = []
    acyclic = True
    stack = [(start, iter(hops[start]))]
    while stack:
        node_id, pending = stack[-1]
        for other, _, _ in pending:
            if other in on_path:
                acyclic = False
            elif other not in hops and other not in absorb:
                hops[other] = hops_of(other)
                on_path.add(other)
                stack.append((other, iter(hops[other])))
                break
        else:
            stack.pop()
            on_path.discard(node_id)
            finished.append(node_id)
    return hops, (finished[::-1] if acyclic else None)


def _spread(net: Network, acts: dict[str, float], start: str, amount: float,
            *, backward: bool, use_forward_weight: bool,
            absorb: frozenset[str] = frozenset()) -> None:
    """Accumulate one seed's contribution over all simple paths from it.

    Nodes in ``absorb`` receive flow but do not relay it onward: the source
    absorbs returning value signals, the goal absorbs arriving drive.  When
    the relaying subgraph is acyclic every path is simple, and the sum over
    paths is pushed through it once in topological order.  On a cyclic one
    the simple paths are enumerated, each cut once its contribution drops
    below ``_PRUNE``.  Every contribution is non-negative, so clamping the
    sum at ``a_max`` once equals clamping after each path.
    """
    a_max = net.params.a_max
    acts[start] = min(a_max, acts.get(start, 0.0) + amount)
    hops, order = _relay(net, start, inward=backward and use_forward_weight,
                         absorb=absorb)
    if order is not None:
        flow = {start: amount}
        for node_id in order:
            f = flow[node_id]
            for other, a, b in hops[node_id]:
                flow[other] = flow.get(other, 0.0) + f * a * b
        del flow[start]
        for node_id, f in flow.items():
            acts[node_id] = min(a_max, acts.get(node_id, 0.0) + f)
        return

    # A receiver at a_max stays there (later shares only add), so once every
    # receiver is there the rest of the enumeration cannot change ``acts``;
    # once every receiver off the path is, no extension of the path can.
    unsettled = {other for node_hops in hops.values() for other, _, _ in node_hops
                 if acts.get(other) != a_max}
    seen = {start}

    def visit(node_id: str, contribution: float) -> bool:
        """Relay along every simple extension; True once all are settled."""
        if unsettled <= seen:
            return False
        for other, a, b in hops[node_id]:
            if other in seen:
                continue
            passed = contribution * a * b
            if passed < _PRUNE:
                continue
            level = acts.get(other, 0.0) + passed
            if level < a_max:
                acts[other] = level
            else:
                acts[other] = a_max
                unsettled.discard(other)
                if not unsettled:
                    return True
            if other not in absorb:
                seen.add(other)
                settled = visit(other, passed)
                seen.discard(other)
                if settled:
                    return True
        return False

    visit(start, amount)


def _run_pass(net: Network, q: PathQuery, params: PlannerParams,
              acts: dict[str, float], round_index: int) -> None:
    if round_index % 2 == 1:     # forward pass from drive and context
        drive = params.source_strength / 3.0
        for node_id in (q.source, *sorted(q.context)):
            _spread(net, acts, node_id, drive, backward=False,
                    use_forward_weight=True, absorb=frozenset([q.goal]))
    else:                        # backward pass from the goal
        _spread(net, acts, q.goal, params.goal_value / 3.0, backward=True,
                use_forward_weight=params.back_uses_forward_weight,
                absorb=frozenset([q.source]))


def _seed_activations(net: Network) -> dict[str, float]:
    # current activation is carried in as priming
    return {n.id: n.activation for n in net.nodes.values() if n.activation > 0.0}


def propagate(net: Network, q: PathQuery, rounds: int,
              params: PlannerParams | None = None) -> dict[str, float]:
    """Run alternating forward/backward passes; returns the activation map.

    Read-only on the network: the returned map starts from the nodes'
    current activations (priming) and accumulates simulated flow.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    _check_query(net, q)
    params = params if params is not None else PlannerParams()
    acts = _seed_activations(net)
    for r in range(1, rounds + 1):
        _run_pass(net, q, params, acts, r)
    return acts


def decide(net: Network, q: PathQuery, policy: str = "absolute",
           params: PlannerParams | None = None) -> Decision | None:
    """Pick a first hop from the source, or withhold.

    The absolute policy fires the first candidate to reach ``t_act``; the
    relative policy waits until the best candidate leads the second best by
    ``t_rel``.  Exact ties withhold action in deterministic mode and resolve
    by one fair draw in stochastic mode.  Returns None when ``max_rounds``
    passes decide nothing.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    _check_query(net, q)
    params = params if params is not None else PlannerParams()
    a_max = net.params.a_max
    if not (params.t_act <= a_max and params.t_rel <= a_max):
        raise ValueError("thresholds must not exceed a_max")
    candidates = sorted(net.out_edges(q.source, positive=True))
    if not candidates:
        raise TopologyError(f"source {q.source!r} has no candidate hops")

    acts = _seed_activations(net)
    for r in range(1, params.max_rounds + 1):
        _run_pass(net, q, params, acts, r)
        levels = {c: acts.get(c, 0.0) for c in candidates}
        if policy == "absolute":
            crossed = [c for c in candidates if levels[c] >= params.t_act]
            if crossed:
                best = max(levels[c] for c in crossed)
                top = [c for c in crossed if levels[c] == best]
                if len(top) == 1:
                    return Decision(top[0], r)
                if net.mode is FiringMode.STOCHASTIC:
                    draw = counter_uniform(net.seed, "tie:" + "|".join(sorted(top)),
                                           net.tick_count + r)
                    pick = sorted(top)[int(draw * len(top)) % len(top)]
                    return Decision(pick, r)
                return None     # exact tie: withhold
        else:
            ordered = sorted(levels.values(), reverse=True)
            second = ordered[1] if len(ordered) > 1 else 0.0
            if ordered[0] - second >= params.t_rel:
                best = [c for c in candidates if levels[c] == ordered[0]]
                return Decision(best[0], r)
    return None


def plan(net: Network, q: PathQuery, params: PlannerParams | None = None,
         policy: str = "absolute") -> list[str]:
    """Chain decisions from source toward goal; returns committed hops.

    Commits greedily without backtracking.  The plan is complete when the
    committed hop is an effector with a positive edge onto the goal; an
    empty list is returned when no decision can be made or the goal is the
    source.
    """
    _check_query(net, q)
    params = params if params is not None else PlannerParams()
    if q.source == q.goal or not _reachable(net, q.source, q.goal):
        return []
    committed: list[str] = []
    current = q.source
    visited = {current}
    for _ in range(len(net.nodes)):
        step = PathQuery(source=current, goal=q.goal, context=q.context)
        try:
            decision = decide(net, step, policy, params)
        except TopologyError:
            break
        if decision is None:
            break
        committed.append(decision.chosen)
        node = net.nodes[decision.chosen]
        goal_edge = net.out[decision.chosen].get(q.goal)
        if (node.kind is NodeKind.EFFECTOR and goal_edge is not None
                and goal_edge.weight > 0.0):
            return committed
        if decision.chosen in visited:
            break
        visited.add(decision.chosen)
        current = decision.chosen
    return committed


def generalize(net: Network, overlap_min: int) -> list[tuple[str, str]]:
    """Add edges implied by shared consequences.

    For every ordered node pair (a, b) whose positive out-neighbour sets
    overlap in at least ``overlap_min`` nodes, every consequence of a that b
    lacks gains an edge b→x at initial weight dw.  Returns the added edges;
    a second run adds nothing.
    """
    if overlap_min < 2:
        raise ValueError("overlap_min must be >= 2")
    dw = net.params.dw
    added: list[tuple[str, str]] = []
    node_ids = sorted(net.nodes)
    outs = {nid: set(net.out_edges(nid, positive=True)) for nid in node_ids}
    for a in node_ids:
        for b in node_ids:
            if a == b or len(outs[a] & outs[b]) < overlap_min:
                continue
            for x in sorted(outs[a] - outs[b]):
                if x == b:
                    continue
                edge = net.ensure_edge(b, x)
                if edge.weight > 0.0:
                    continue
                net.transfer_weight(edge, dw)
                added.append((b, x))
    return added


def causal_strength(net: Network, action: str, variant: str, outcome: str) -> float:
    """Normalized weight advantage of action over its variant onto outcome."""
    for node_id in (action, variant, outcome):
        net.node(node_id)   # raises TopologyError for a missing node
    w_max = net.params.w_max

    def w(src: str) -> float:
        edge = net.out[src].get(outcome)
        return edge.weight if edge is not None else 0.0

    return w(action) / w_max - w(variant) / w_max
