"""Planner tests: propagation arithmetic, decision policies, plans, queries."""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnet import planner
from tnet.errors import TopologyError
from tnet.planner import (
    Decision,
    PathQuery,
    PlannerParams,
    causal_strength,
    decide,
    generalize,
    plan,
    propagate,
)
from tnet.substrate import FiringMode, Network, NodeKind, Params


def feeder(w_max: float = 1.0) -> Network:
    """Two-course feeder: short weak path A-B-C, longer strong path A-D-E.

    Node weights sit at w_max so hop attenuation is purely edge-driven;
    reciprocals carry the same weight as their forward edges.
    """
    net = Network(Params(w_max=w_max), seed=0)
    for nid in "ABCDE":
        net.add_node(nid)
    net.add_node("feed", NodeKind.EFFECTOR)
    net.add_node("food", NodeKind.REWARD)
    for node in net.nodes.values():
        node.weight = w_max
        node.fixated = True
    for src, dst, w in [("A", "B", 0.9), ("B", "C", 0.8), ("C", "feed", 0.2),
                        ("A", "D", 0.5), ("D", "E", 0.8), ("E", "feed", 0.9),
                        ("feed", "food", w_max)]:
        edge = net.ensure_edge(src, dst)
        edge.weight = w
        edge.fixated = True
        back = net.edge(dst, src)
        back.weight = w
        back.fixated = True
    return net


QUERY = PathQuery("A", "food")


# ---------------------------------------------------------------------------
# parameters and propagation
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        PlannerParams(t_act=0.0)
    with pytest.raises(ValueError):
        PlannerParams(max_rounds=0)
    with pytest.raises(ValueError):
        PlannerParams(source_strength=4)


def test_propagate_requires_known_nodes_and_rounds():
    net = feeder()
    with pytest.raises(TopologyError):
        propagate(net, PathQuery("A", "ghost"), 1)
    with pytest.raises(ValueError):
        propagate(net, QUERY, 0)


def test_single_chain_forward_pass():
    net = Network(Params(), seed=0)
    for nid in ("A", "B", "G"):
        node = net.add_node(nid)
        node.weight = net.params.w_max
        node.fixated = True
    for s, d in (("A", "B"), ("B", "G")):
        edge = net.ensure_edge(s, d)
        edge.weight = net.params.w_max
        edge.fixated = True
    acts = propagate(net, PathQuery("A", "G"), 1)
    # full-weight chain: B receives the entire drive undiminished
    assert acts["B"] == pytest.approx(1.0 / 3.0)
    assert acts["G"] == pytest.approx(1.0 / 3.0)


def test_feeder_forward_pass_favors_heavier_first_hop():
    acts = propagate(feeder(), QUERY, 1)
    assert acts["B"] > acts["D"]
    assert acts["B"] == pytest.approx(0.3192, abs=1e-4)
    assert acts["D"] == pytest.approx(0.2012, abs=1e-4)


def test_feeder_backward_pass_flips_the_ranking():
    acts = propagate(feeder(), QUERY, 2)
    assert acts["D"] > acts["B"]
    assert acts["B"] == pytest.approx(0.3725, abs=1e-4)
    assert acts["D"] == pytest.approx(0.4412, abs=1e-4)


def test_backward_flow_is_absorbed_at_the_source():
    # without source absorption, value returning through A re-enters the
    # B branch (food-feed-E-D-A-B) and inflates B past D
    net = feeder()
    acts = propagate(net, QUERY, 2)
    assert acts["B"] < 0.44


def test_priming_seeds_propagation():
    net = feeder()
    net.node("B").activation = 0.5
    acts = propagate(net, QUERY, 1)
    assert acts["B"] == pytest.approx(0.5 + 0.3192, abs=1e-4)


# ---------------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------------

def test_low_threshold_is_impulsive():
    d = decide(feeder(), QUERY, "absolute", PlannerParams(t_act=0.25))
    assert d == Decision(chosen="B", rounds_used=1)


def test_high_threshold_deliberates_to_the_better_path():
    d = decide(feeder(), QUERY, "absolute", PlannerParams(t_act=0.4))
    assert d == Decision(chosen="D", rounds_used=2)


def test_unknown_policy_is_rejected_before_any_pass():
    with mock.patch.object(planner, "_spread", side_effect=AssertionError("pass ran")):
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            decide(feeder(), QUERY, "bogus")


def test_unreachable_threshold_returns_none():
    assert decide(feeder(), QUERY, "absolute",
                  PlannerParams(t_act=0.999, max_rounds=6)) is None


def test_relative_policy_fires_once_separated():
    # the feeder's first forward pass already separates B from D by ~0.118
    d = decide(feeder(), QUERY, "relative", PlannerParams(t_rel=0.1))
    assert d == Decision(chosen="B", rounds_used=1)


def test_relative_policy_waits_for_slow_separation():
    # candidates pull apart a little more each forward pass; a gap too small
    # for round 1 resolves after more rounds
    net = Network(Params(w_max=1.0), seed=0)
    for nid in ("S", "X", "Y", "G"):
        net.add_node(nid).weight = 1.0
    for s, d, w in (("S", "X", 0.3), ("S", "Y", 0.2),
                    ("X", "G", 1.0), ("Y", "G", 1.0)):
        net.ensure_edge(s, d).weight = w
    d = decide(net, PathQuery("S", "G"), "relative",
               PlannerParams(t_rel=0.08, max_rounds=20))
    assert d is not None
    assert d.chosen == "X"
    assert d.rounds_used > 1


def test_symmetric_paths_withhold_under_relative_policy():
    net = Network(Params(), seed=0)
    for nid in ("S", "X", "Y", "G"):
        node = net.add_node(nid)
        node.weight = net.params.w_max
        node.fixated = True
    for s, d in (("S", "X"), ("S", "Y"), ("X", "G"), ("Y", "G")):
        edge = net.ensure_edge(s, d)
        edge.weight = 1.5
        edge.fixated = True
        net.edge(d, s).weight = 1.5
    assert decide(net, PathQuery("S", "G"), "relative",
                  PlannerParams(t_rel=0.1, max_rounds=8)) is None


def test_exact_tie_withholds_deterministically_but_draws_stochastically():
    def tie_net(mode):
        net = Network(Params(), seed=3, mode=mode)
        for nid in ("S", "X", "Y", "G"):
            node = net.add_node(nid)
            node.weight = net.params.w_max
            node.fixated = True
        for s, d in (("S", "X"), ("S", "Y"), ("X", "G"), ("Y", "G")):
            edge = net.ensure_edge(s, d)
            edge.weight = net.params.w_max
            edge.fixated = True
            net.edge(d, s).weight = net.params.w_max
        return net

    det = decide(tie_net(FiringMode.DETERMINISTIC), PathQuery("S", "G"),
                 "absolute", PlannerParams(t_act=0.3))
    assert det is None
    sto = decide(tie_net(FiringMode.STOCHASTIC), PathQuery("S", "G"),
                 "absolute", PlannerParams(t_act=0.3))
    assert sto is not None and sto.chosen in ("X", "Y")


def test_urgency_weakly_decreases_rounds():
    rounds = []
    for strength in (1, 2, 3):
        d = decide(feeder(), QUERY, "absolute",
                   PlannerParams(t_act=0.4, source_strength=strength))
        assert d is not None
        rounds.append(d.rounds_used)
    assert all(b <= a for a, b in zip(rounds, rounds[1:]))


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def test_plan_chains_to_goal_adjacent_effector():
    assert plan(feeder(), QUERY, PlannerParams(t_act=0.35)) == ["D", "E", "feed"]


def test_plan_empty_when_goal_is_source_or_unreachable():
    net = feeder()
    assert plan(net, PathQuery("A", "A"), PlannerParams(t_act=0.35)) == []
    island = net.add_node("island")
    island.weight = net.params.w_max
    assert plan(net, PathQuery("A", "island"), PlannerParams(t_act=0.35)) == []


def test_every_nonempty_plan_ends_at_effector_with_goal_edge():
    net = feeder()
    hops = plan(net, QUERY, PlannerParams(t_act=0.35))
    assert hops
    last = net.node(hops[-1])
    assert last.kind is NodeKind.EFFECTOR
    assert net.edge(hops[-1], "food").weight > 0.0


# ---------------------------------------------------------------------------
# generalization and causal queries
# ---------------------------------------------------------------------------

def shared_out_net() -> Network:
    net = Network(Params(), seed=0)
    for nid in ("A", "B", "E", "F", "G", "X"):
        net.add_node(nid)
    for s, d in (("A", "E"), ("A", "F"), ("A", "G"), ("A", "X"),
                 ("B", "E"), ("B", "F"), ("B", "G")):
        net.ensure_edge(s, d).weight = 1.0
    return net


def test_generalize_adds_missing_shared_edge():
    net = shared_out_net()
    added = generalize(net, overlap_min=3)
    assert ("B", "X") in added
    assert net.edge("B", "X").weight == pytest.approx(net.params.dw)
    assert net.edge("X", "B").weight == 0.0    # reciprocal at rest


def test_generalize_threshold_and_idempotence():
    net = shared_out_net()
    assert generalize(net, overlap_min=5) == []
    generalize(net, overlap_min=3)
    assert generalize(net, overlap_min=3) == []


def test_causal_strength_hand_values():
    net = Network(Params(w_max=3.0), seed=0)
    for nid in ("act", "var", "out"):
        net.add_node(nid)
    net.ensure_edge("act", "out").weight = 2.7
    net.ensure_edge("var", "out").weight = 0.3
    assert causal_strength(net, "act", "var", "out") == pytest.approx(0.8)
    assert causal_strength(net, "act", "act", "out") == pytest.approx(0.0)
    # missing edges count as zero weight
    assert causal_strength(net, "out", "act", "var") == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# spreading activation against the path-enumerating reference
# ---------------------------------------------------------------------------

def enumerating_spread(net, acts, start, amount, *, backward, use_forward_weight,
                       absorb=frozenset()):
    """Reference for ``_spread``: adds every simple path's contribution,
    multiplied left to right along the path, and cuts a path below
    ``_PRUNE``."""
    p = net.params
    w_max = p.w_max

    def visit(node_id, contribution, seen):
        # every edge has its reciprocal, so out[node_id] lists the
        # in-neighbours too, and out[other][node_id] is the edge into node_id
        for other, edge in net.out[node_id].items():
            if other in seen:
                continue
            if backward and use_forward_weight:
                hop_w = net.out[other][node_id].weight
            else:
                hop_w = edge.weight
            passed = (contribution * (hop_w / w_max)
                      * (net.nodes[other].weight / w_max))
            if passed < planner._PRUNE:
                continue
            acts[other] = min(p.a_max, acts.get(other, 0.0) + passed)
            if other not in absorb:
                visit(other, passed, seen | {other})

    acts[start] = min(p.a_max, acts.get(start, 0.0) + amount)
    visit(start, amount, frozenset([start]))


@contextmanager
def enumerating():
    with mock.patch.object(planner, "_spread", enumerating_spread):
        yield


def outcome(call):
    try:
        return call()
    except (TopologyError, ValueError) as exc:
        return type(exc)


def generic(k: int, low: float, high: float) -> float:
    # distinct draws k give distinct weights with unremarkable mantissas, so
    # that no two candidates tie exactly and no level lands on a threshold
    return low + (high - low) * (k + 0.6180339887498949) / 1_000_001


@st.composite
def planner_cases(draw, acyclic: bool):
    """A network, a query and planner params.

    Acyclic: positive edges follow a random node order, reciprocals stay at
    zero, weights in [0.5, 1] * w_max keep every path above ``_PRUNE``.
    Cyclic: every edge and its reciprocal are positive, and two hubs
    adjacent to every node put a cycle in every pass; weights reach down to
    0.02 * w_max so that ``_PRUNE`` cuts paths.  Or, dense: a complete
    graph on 5-8 nodes with every weight in [theta, w_max], whose receivers
    reach a_max in the first round, so that paths are cut once everything
    off them is settled.
    """
    dense = not acyclic and draw(st.booleans())
    n = draw(st.integers(3, 9) if acyclic else st.integers(5, 8) if dense else st.integers(4, 7))
    ids = [f"n{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if acyclic:
        order = draw(st.permutations(range(n)))
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    else:
        order = list(range(n))
        hubs = [pair for pair in pairs if pair[0] in (1, 2) or pair[1] in (1, 2)]
        chosen = pairs if dense else hubs + draw(st.lists(st.sampled_from(pairs), unique=True))
    size = n + 2 * len(chosen) + 3      # node weights, edge weights, primings
    keys = iter(draw(st.lists(st.integers(0, 1_000_000), min_size=size, max_size=size,
                              unique=True)))
    mode = draw(st.sampled_from(list(FiringMode)))
    net = Network(Params(), seed=draw(st.integers(0, 3)), mode=mode)
    w_max = net.params.w_max
    low = 0.5 if acyclic else net.params.theta / w_max if dense else 0.02
    for nid in ids:
        net.add_node(nid).weight = generic(next(keys), low, 1.0) * w_max
    for i, j in dict.fromkeys(chosen):
        lo, hi = ids[order[i]], ids[order[j]]
        if draw(st.booleans()):
            net.ensure_edge(lo, hi)
        else:
            net.ensure_edge(hi, lo)
        net.edge(lo, hi).weight = generic(next(keys), low, 1.0) * w_max
        if not acyclic:
            net.edge(hi, lo).weight = generic(next(keys), low, 1.0) * w_max
    for nid in draw(st.lists(st.sampled_from(ids), unique=True, max_size=3)):
        net.node(nid).activation = generic(next(keys), 0.0, 0.5) * net.params.a_max
    if acyclic:
        source, goal = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
    else:
        source, goal = ids[0], ids[-1]
    context = frozenset(draw(st.lists(st.sampled_from(ids), max_size=2)))
    params = PlannerParams(
        t_act=draw(st.integers(1, 999)) / 1000 + 1e-4,
        t_rel=draw(st.integers(1, 500)) / 1000 + 1e-4,
        max_rounds=draw(st.integers(1, 6)),
        source_strength=draw(st.integers(1, 3)),
        back_uses_forward_weight=draw(st.booleans()),
    )
    return net, PathQuery(source, goal, context), params


@given(case=planner_cases(acyclic=True))
@settings(max_examples=200, deadline=None)
def test_acyclic_spread_matches_path_enumeration(case):
    net, q, params = case
    for rounds in range(1, 5):
        got = propagate(net, q, rounds, params)
        with enumerating():
            want = propagate(net, q, rounds, params)
        assert set(got) == set(want)
        for node_id, level in want.items():
            assert got[node_id] == pytest.approx(level, abs=1e-12, rel=0)
    for policy in ("absolute", "relative"):
        got = outcome(lambda: decide(net, q, policy, params))
        with enumerating():
            want = outcome(lambda: decide(net, q, policy, params))
        assert got == want


@given(case=planner_cases(acyclic=False))
@settings(max_examples=100, deadline=None)
def test_cyclic_spread_is_identical_to_path_enumeration(case):
    net, q, params = case
    for rounds in range(1, 5):
        got = propagate(net, q, rounds, params)
        with enumerating():
            want = propagate(net, q, rounds, params)
        assert list(got.items()) == list(want.items())
    for policy in ("absolute", "relative"):
        got = outcome(lambda: decide(net, q, policy, params))
        with enumerating():
            want = outcome(lambda: decide(net, q, policy, params))
        assert got == want


def test_relay_routes_by_cycles_beyond_the_start():
    # S->A->B->G with a positive edge B->S: no simple path from S reuses
    # B->S, so the walk stays acyclic; a positive B->A closes a cycle
    net = Network(Params(), seed=0)
    for nid in "SABG":
        net.add_node(nid).weight = 1.0
    for s, d in ("SA", "AB", "BG", "BS"):
        net.ensure_edge(s, d).weight = 1.0
    hops, order = planner._relay(net, "S", inward=False, absorb=frozenset("G"))
    assert order == ["S", "A", "B"]
    assert [other for other, _, _ in hops["B"]] == ["G"]
    net.edge("B", "A").weight = 1.0
    _, order = planner._relay(net, "S", inward=False, absorb=frozenset("G"))
    assert order is None


def test_decide_on_200_node_layered_dag_within_budget():
    # 20 fully connected layers of 10 hold 10**20 source-goal paths, far
    # beyond any enumeration; one pass over the graph is O(nodes + edges)
    rng = random.Random(200)
    net = Network(Params(), seed=0)
    w_max = net.params.w_max
    layers = [["src"]] + [[f"m{d}_{i}" for i in range(10)] for d in range(20)] + [["goal"]]
    for layer in layers:
        for nid in layer:
            net.add_node(nid).weight = rng.uniform(0.5, 1.0) * w_max
    for upper, lower in zip(layers, layers[1:]):
        for a in upper:
            for b in lower:
                net.ensure_edge(a, b).weight = rng.uniform(0.5, 1.0) * w_max
    start = time.perf_counter()
    d = decide(net, PathQuery("src", "goal"), "absolute",
               PlannerParams(t_act=0.9, back_uses_forward_weight=True))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over 1.0s budget"
    assert d is None or d.chosen in layers[1]
