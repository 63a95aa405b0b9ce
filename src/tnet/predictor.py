"""Cue-outcome prediction motif and the prediction-error quantity.

Five nodes cooperate: a cue, a positive and a negative outcome, and one
prediction node per outcome.  The cue drives both prediction nodes in
proportion to its edge weights onto them; when the outcome lands, the gap
between the predicted split and the realized split is the prediction error.
Each trial strengthens the realized path, so repeated consistent outcomes
drive the error toward zero, and a contradicted prediction produces a large
error plus a credit on the corresponding surprise/disappointment cross-edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TopologyError, ZeroDenominatorError
from .substrate import Network

# Resting drive a prediction node receives from an attended cue even before
# any learning; keeps the t1 ratio defined on a fresh motif.
BASE_DRIVE = 0.05

# Trial clock, in ticks after cue injection.
T1_OFFSET = 2
T2_OFFSET = 5


@dataclass(frozen=True)
class PredictionMotif:
    cue: str
    outcome_pos: str
    outcome_neg: str
    pred_pos: str
    pred_neg: str

    def roles(self) -> tuple[str, str, str, str, str]:
        return (self.cue, self.outcome_pos, self.outcome_neg,
                self.pred_pos, self.pred_neg)

    def edge_pairs(self) -> list[tuple[str, str]]:
        return [
            (self.cue, self.pred_pos),
            (self.cue, self.pred_neg),
            (self.pred_pos, self.outcome_pos),
            (self.pred_pos, self.outcome_neg),
            (self.pred_neg, self.outcome_neg),
            (self.pred_neg, self.outcome_pos),
        ]


@dataclass(frozen=True)
class ActivationSnapshot:
    """Node activations read at a named tick."""
    tick: int
    act: dict[str, float]

    def __getitem__(self, node_id: str) -> float:
        return self.act.get(node_id, 0.0)


def build_motif(net: Network, cue: str, outcome_pos: str) -> PredictionMotif:
    """Create or locate the five-node prediction motif around a cue.

    Idempotent.  The reciprocal edges created alongside the listed six give
    pred_pos its required in-edge from the positive outcome.
    """
    net.node(cue), net.node(outcome_pos)    # each raises TopologyError when missing
    if cue == outcome_pos:
        raise TopologyError("cue and outcome must be distinct nodes")
    motif = PredictionMotif(
        cue=cue,
        outcome_pos=outcome_pos,
        outcome_neg=f"no-{outcome_pos}",
        pred_pos=f"pred-{outcome_pos}",
        pred_neg=f"pred-no-{outcome_pos}",
    )
    if len(set(motif.roles())) != 5:
        raise TopologyError("motif roles collide")
    for node_id in motif.roles()[2:]:
        net.ensure_node(node_id)
    for src, dst in motif.edge_pairs():
        net.ensure_edge(src, dst)
    return motif


def validate_motif(net: Network, motif: PredictionMotif) -> None:
    for node_id in motif.roles():
        if not net.has_node(node_id):
            raise TopologyError(f"motif node {node_id!r} missing")
    for src, dst in motif.edge_pairs():
        if not net.has_edge(src, dst):
            raise TopologyError(f"motif edge {src!r} -> {dst!r} missing")
    if not (net.has_edge(motif.cue, motif.pred_pos)
            and net.has_edge(motif.outcome_pos, motif.pred_pos)):
        raise TopologyError("pred_pos must receive from both cue and outcome")


def _share(a: float, b: float) -> float:
    total = a + b
    if total <= 0.0:
        raise ZeroDenominatorError("relative activation undefined: both terms zero")
    return a / total


def prediction_error(s1: ActivationSnapshot, s2: ActivationSnapshot,
                     motif: PredictionMotif) -> float:
    """Predicted positive share at t1 minus realized positive share at t2."""
    predicted = _share(s1[motif.pred_pos], s1[motif.pred_neg])
    realized = _share(s2[motif.outcome_pos], s2[motif.outcome_neg])
    return predicted - realized


def trial(net: Network, motif: PredictionMotif, outcome_present: bool) -> float:
    """One cue-then-outcome trial; returns the trial's prediction error.

    The cue fires, the prediction nodes settle in proportion to their cue
    edges, the outcome is delivered or withheld at the deadline, and the
    realized path is credited.  Cross-edges are credited only when the
    dominant prediction disagreed with the outcome.
    """
    validate_motif(net, motif)
    p = net.params

    net.bump_activation(net.node(motif.cue), 3)
    for _ in range(T1_OFFSET):
        net.end_tick()

    # prediction nodes settle proportionally to their cue in-edge weights
    for pred in (motif.pred_pos, motif.pred_neg):
        drive = BASE_DRIVE + net.edge(motif.cue, pred).weight
        net.node(pred).activation = min(p.a_max, drive)
    s1 = ActivationSnapshot(net.tick_count, {
        motif.pred_pos: net.node(motif.pred_pos).activation,
        motif.pred_neg: net.node(motif.pred_neg).activation,
    })

    for _ in range(T2_OFFSET - T1_OFFSET):
        net.end_tick()
    delivered = motif.outcome_pos if outcome_present else motif.outcome_neg
    net.bump_activation(net.node(delivered), 3)
    s2 = ActivationSnapshot(net.tick_count, {
        motif.outcome_pos: net.node(motif.outcome_pos).activation,
        motif.outcome_neg: net.node(motif.outcome_neg).activation,
    })

    error = prediction_error(s1, s2, motif)
    predicted_food = s1[motif.pred_pos] >= s1[motif.pred_neg]
    if outcome_present:
        net.update_weight(net.edge(motif.cue, motif.pred_pos))
        net.update_weight(net.edge(motif.pred_pos, motif.outcome_pos))
        net.update_weight(net.edge(motif.outcome_pos, motif.pred_pos))
        if not predicted_food:   # surprise
            net.update_weight(net.edge(motif.pred_neg, motif.outcome_pos))
    else:
        net.update_weight(net.edge(motif.cue, motif.pred_neg))
        net.update_weight(net.edge(motif.pred_neg, motif.outcome_neg))
        if predicted_food:       # disappointment
            net.update_weight(net.edge(motif.pred_pos, motif.outcome_neg))
    net.end_tick()
    return error


def run_schedule(net: Network, motif: PredictionMotif,
                 outcomes: list[bool]) -> list[float]:
    """Run a sequence of trials; returns the per-trial errors."""
    return [trial(net, motif, present) for present in outcomes]
