"""Innate-structure injection, Hebbian association, reinforcement, and replay.

These are the ways weight enters the network other than stream chunking:
wiring declared at birth (already fixated), repeated co-activation of node
pairs, reward-accelerated association, and internally driven re-activation
of remembered episodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import TopologyError
from .substrate import Network, NodeKind


# ---------------------------------------------------------------------------
# innate structure
# ---------------------------------------------------------------------------

@dataclass
class InnateSpec:
    """Structure present from the start, fixated at declared weights.

    ``nodes``            (label, kind name, initial weight)
    ``edges``            (src label, dst label, initial weight)
    ``reward_bindings``  (reward label, effector label) pairs wired so the
                         reward can drive the action
    """

    nodes: list[tuple[str, str, float]] = field(default_factory=list)
    edges: list[tuple[str, str, float]] = field(default_factory=list)
    reward_bindings: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class Episode:
    """An ordered trace of node activations within one working-memory span."""

    nodes: list[str]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("episode must contain at least one node")


def inject_innate(net: Network, spec: InnateSpec) -> Network:
    """Install declared nodes/edges, fixated at their initial weights.

    Innate weights must be at or above the fixation threshold — being innate
    *means* starting fixated.
    """
    theta = net.params.theta
    seen: set[str] = set()
    for label, kind_name, weight in spec.nodes:
        if label in seen:
            raise TopologyError(f"duplicate innate label {label!r}")
        seen.add(label)
        if weight < theta:
            raise TopologyError(f"innate node {label!r} below theta: {weight!r}")
        node = net.ensure_node(label, NodeKind(kind_name))
        node.weight = min(net.params.w_max, weight)
        node.fixated = True
    declared = {label for label, _, _ in spec.nodes}
    for src, dst, weight in spec.edges:
        if src not in declared or dst not in declared:
            raise TopologyError(f"innate edge references undeclared label: {src!r}->{dst!r}")
        if weight < theta:
            raise TopologyError(f"innate edge {src!r}->{dst!r} below theta: {weight!r}")
        edge = net.ensure_edge(src, dst)
        edge.weight = min(net.params.w_max, weight)
        edge.fixated = True
    for reward, effector in spec.reward_bindings:
        if reward not in declared or effector not in declared:
            raise TopologyError(f"reward binding references undeclared label: "
                                f"{reward!r}->{effector!r}")
        edge = net.ensure_edge(reward, effector)
        if not edge.fixated:
            edge.weight = max(edge.weight, theta)
            edge.fixated = True
    return net


# ---------------------------------------------------------------------------
# association learning
# ---------------------------------------------------------------------------

def hebbian_episode(net: Network, a: str, b: str, reps: int, gap_ticks: int) -> Network:
    """Co-activate ``a`` and ``b`` ``reps`` times, ``gap_ticks`` of silence apart.

    Both directed edges between the pair are credited once per co-activation;
    the silent gaps apply ordinary decay, so sparse co-activation that never
    outpaces decay leaves no trace — repetition acts as a significance test.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    node_a, node_b = net.node(a), net.node(b)
    forward = net.ensure_edge(a, b)
    backward = net.edge(b, a)
    for rep in range(reps):
        net.bump_activation(node_a, 3)
        net.bump_activation(node_b, 3)
        net.update_weight(forward)
        net.update_weight(backward)
        net.update_weight(node_a)
        net.update_weight(node_b)
        net.end_tick()
        if rep < reps - 1:
            for _ in range(gap_ticks):
                net.end_tick()
    return net


def reinforce(net: Network, stimulus: str, reward: str) -> Network:
    """One co-activation trial of a stimulus with a reward node.

    The reward's consolidated weight makes its response strong enough that
    the stimulus→reward edge gains the matched-context boost — this is what
    lets supervised pairs fixate in strictly fewer trials than plain
    Hebbian pairs.
    """
    reward_node = net.node(reward)
    if reward_node.kind is not NodeKind.REWARD:
        raise TopologyError(f"{reward!r} is not a reward node")
    if stimulus == reward:
        raise TopologyError("stimulus and reward must differ")
    stim_node = net.node(stimulus)
    forward = net.ensure_edge(stimulus, reward)
    backward = net.edge(reward, stimulus)
    net.bump_activation(stim_node, 3)
    net.bump_activation(reward_node, 3)
    net.update_weight(forward, boost=True)
    net.update_weight(backward)
    net.update_weight(stim_node)
    net.end_tick()
    return net


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def replay(net: Network, episode: Episode, rounds: int) -> Network:
    """Re-activate an episode internally (no external input) ``rounds`` times.

    Each round walks the remembered sequence, re-crediting its nodes and the
    edges between consecutive entries; afterwards the network runs free ticks
    until the internal echo dies out.  Cyclic episodes terminate because
    return signals attenuate to zero and activation decays below the firing
    threshold.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    for node_id in episode.nodes:
        net.node(node_id)
    for _ in range(rounds):
        previous: str | None = None
        for node_id in episode.nodes:
            node = net.node(node_id)
            net.bump_activation(node, 3)
            net.update_weight(node)
            if previous is not None and previous != node_id:
                edge = net.ensure_edge(previous, node_id)
                net.update_weight(edge)
            previous = node_id
            net.end_tick()
    # let the internal echo run out; bounded because back-signals floor to 0
    # and activation decays geometrically below the firing threshold
    for _ in range(200):
        if net.quiescent():
            break
        net.tick()
    return net
