"""Probabilistic transducers and their composition.

A transducer couples an input stream to an output stream through internal
state: for each (state, input symbol) pair it holds a joint distribution over
(next state, output symbol).  Chaining two transducers — the output alphabet
of the first feeding the input alphabet of the second — yields another
transducer on the product state space, with the intermediate symbol
marginalized out.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from .errors import CompositionError, StochasticityError

State = Hashable
Symbol = Hashable

# Row sums may drift by accumulated float error, never more than this.
ROW_SUM_TOL = 1e-9


# ---------------------------------------------------------------------------
# core type
# ---------------------------------------------------------------------------

@dataclass
class Transducer:
    """Finite probabilistic transducer.

    ``table[(state, sym_in)]`` is a dict mapping ``(next_state, sym_out)`` to
    probability.  Every row present must sum to 1 within ``ROW_SUM_TOL``;
    rows may be sparse (zero entries omitted).
    """

    states: tuple[State, ...]
    in_alphabet: tuple[Symbol, ...]
    out_alphabet: tuple[Symbol, ...]
    table: dict[tuple[State, Symbol], dict[tuple[State, Symbol], float]]
    _cum: dict[tuple[State, Symbol], tuple[list[float], list[tuple[State, Symbol]]]] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        states = set(self.states)
        ins = set(self.in_alphabet)
        outs = set(self.out_alphabet)
        for (state, sym), row in self.table.items():
            if state not in states or sym not in ins:
                raise StochasticityError(f"row key {(state, sym)!r} outside declared sets")
            total = 0.0
            for (nxt, out), p in row.items():
                if nxt not in states or out not in outs:
                    raise StochasticityError(f"entry {(nxt, out)!r} outside declared sets")
                if p < 0.0:
                    raise StochasticityError(f"negative probability {p!r} in row {(state, sym)!r}")
                total += p
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise StochasticityError(
                    f"row {(state, sym)!r} sums to {total!r}, expected 1 ± {ROW_SUM_TOL}")

    # -- queries -----------------------------------------------------------

    def distribution(self, state: State, symbol: Symbol) -> dict[tuple[State, Symbol], float]:
        """Joint distribution over (next_state, output) for one step."""
        try:
            return self.table[(state, symbol)]
        except KeyError:
            raise StochasticityError(f"no row for {(state, symbol)!r}") from None

    def _cumulative(self, state: State, symbol: Symbol):
        key = (state, symbol)
        cached = self._cum.get(key)
        if cached is None:
            row = self.distribution(state, symbol)
            outcomes = list(row)
            weights: list[float] = []
            acc = 0.0
            for o in outcomes:
                acc += row[o]
                weights.append(acc)
            weights[-1] = max(weights[-1], 1.0)  # guard the last bin against rounding
            cached = (weights, outcomes)
            self._cum[key] = cached
        return cached

    # -- dynamics ----------------------------------------------------------

    def step(self, state: State, symbol: Symbol,
             rng: random.Random) -> tuple[State, Symbol]:
        """Advance one step, consuming exactly one uniform draw from ``rng``."""
        cum, outcomes = self._cumulative(state, symbol)
        return outcomes[bisect_right(cum, rng.random())]

    def run(self, state: State, symbols: Iterable[Symbol],
            rng: random.Random) -> tuple[State, list[Symbol]]:
        """Feed a symbol sequence; return the final state and the outputs."""
        out: list[Symbol] = []
        for sym in symbols:
            state, produced = self.step(state, sym, rng)
            out.append(produced)
        return state, out

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, alphabet: Sequence[Symbol]) -> "Transducer":
        """Single-state transducer copying input to output."""
        table = {("*", sym): {("*", sym): 1.0} for sym in alphabet}
        return cls(states=("*",), in_alphabet=tuple(alphabet),
                   out_alphabet=tuple(alphabet), table=table)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def compose(first: Transducer, second: Transducer) -> Transducer:
    """Chain ``first`` into ``second``.

    The composite runs on pair states ``(s1, s2)``; the intermediate symbol
    is marginalized:

        P((s1,s2), x -> (t1,t2), z) = sum_y P1(s1,x -> t1,y) * P2(s2,y -> t2,z)
    """
    if set(first.out_alphabet) != set(second.in_alphabet):
        raise CompositionError(
            f"intermediate alphabets differ: {first.out_alphabet!r} vs {second.in_alphabet!r}")

    states = tuple((a, b) for a in first.states for b in second.states)
    table: dict[tuple[State, Symbol], dict[tuple[State, Symbol], float]] = {}
    for (s1, x), row1 in first.table.items():
        for s2 in second.states:
            row: dict[tuple[State, Symbol], float] = {}
            for (t1, y), p1 in row1.items():
                row2 = second.table.get((s2, y))
                if row2 is None:
                    raise CompositionError(
                        f"second transducer has no row for {(s2, y)!r}")
                for (t2, z), p2 in row2.items():
                    key = ((t1, t2), z)
                    row[key] = row.get(key, 0.0) + p1 * p2
            table[((s1, s2), x)] = row
    return Transducer(states=states, in_alphabet=first.in_alphabet,
                      out_alphabet=second.out_alphabet, table=table)
