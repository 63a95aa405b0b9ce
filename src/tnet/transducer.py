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
from itertools import accumulate
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
                if not p >= 0.0:  # also rejects NaN
                    raise StochasticityError(
                        f"probability {p!r} in row {(state, sym)!r} is negative or NaN")
                total += p
            _check_row_sum((state, sym), total)

    # -- queries -----------------------------------------------------------

    def distribution(self, state: State, symbol: Symbol) -> dict[tuple[State, Symbol], float]:
        """Joint distribution over (next_state, output) for one step."""
        try:
            return self.table[(state, symbol)]
        except KeyError:
            raise StochasticityError(f"no row for {(state, symbol)!r}") from None

    def _cumulative(self, key: tuple[State, Symbol]):
        """Build and cache the cumulative weights and outcomes of row ``key``."""
        row = self.distribution(*key)
        probs = list(row.values())
        weights = list(accumulate(probs, initial=0.0))
        del weights[0]
        # Guard against rounding: every bin from the last outcome of positive
        # probability on reaches 1, so no draw lands on a trailing zero.
        last = len(probs) - 1
        while not probs[last] > 0.0:
            last -= 1
        weights[last:] = [max(w, 1.0) for w in weights[last:]]
        cached = self._cum[key] = (weights, list(row))
        return cached

    # -- dynamics ----------------------------------------------------------

    def step(self, state: State, symbol: Symbol,
             rng: random.Random) -> tuple[State, Symbol]:
        """Advance one step, consuming exactly one uniform draw from ``rng``."""
        key = (state, symbol)
        cum, outcomes = self._cum.get(key) or self._cumulative(key)
        return outcomes[bisect_right(cum, rng.random())]

    def run(self, state: State, symbols: Iterable[Symbol],
            rng: random.Random) -> tuple[State, list[Symbol]]:
        """Feed a symbol sequence; return the final state and the outputs.

        Each symbol is one ``step``, inlined: one cache lookup, one draw."""
        cached, draw = self._cum.get, rng.random
        out: list[Symbol] = []
        for sym in symbols:
            key = (state, sym)
            cum, outcomes = cached(key) or self._cumulative(key)
            state, produced = outcomes[bisect_right(cum, draw())]
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

    Each composite entry adds its products in order of row1 entry, then row2
    entry, and each row lists its keys in the order they are first reached;
    no tuple is built or hashed per product.
    """
    if set(first.out_alphabet) != set(second.in_alphabet):
        raise CompositionError(
            f"intermediate alphabets differ: {first.out_alphabet!r} vs {second.in_alphabet!r}")

    # Index second's rows once: each (t2, z) is a column, numbered in order
    # of first appearance, and a row is a list of (column, p2).  A table may
    # have been edited since it was validated, so every key indexed here is
    # checked against the declared sets, once.
    columns: dict[tuple[State, Symbol], int] = {}
    rows2: dict[State, dict[Symbol, list[tuple[int, float]]]] = {s2: {} for s2 in second.states}
    ins2 = set(second.in_alphabet)
    for key, row2 in second.table.items():
        s2, y = key
        if s2 not in rows2 or y not in ins2:
            raise StochasticityError(f"second: row key {key!r} outside declared sets")
        rows2[s2][y] = [(columns.setdefault(o, len(columns)), p2) for o, p2 in row2.items()]
    outs2 = set(second.out_alphabet)
    for t2, z in columns:
        if t2 not in rows2 or z not in outs2:
            raise StochasticityError(f"second: entry {(t2, z)!r} outside declared sets")
    # Composite key ((t1, t2), z) sits at block(t1) + column.
    block = {t1: i * len(columns) for i, t1 in enumerate(first.states)}
    keys = [((t1, t2), z) for t1 in first.states for t2, z in columns]

    ins1 = set(first.in_alphabet)
    table: dict[tuple[State, Symbol], dict[tuple[State, Symbol], float]] = {}
    for (s1, x), row1 in first.table.items():
        if s1 not in block or x not in ins1:
            raise StochasticityError(f"first: row key {(s1, x)!r} outside declared sets")
        try:
            entries = [(block[t1], y, p1) for (t1, y), p1 in row1.items()]
        except KeyError as exc:
            raise StochasticityError(
                f"first: next state {exc.args[0]!r} in row {(s1, x)!r} "
                f"outside declared sets") from None
        for s2 in second.states:
            by_symbol = rows2[s2]
            acc: list[float | None] = [None] * len(keys)
            order: list[int] = []
            for base, y, p1 in entries:
                row2 = by_symbol.get(y)
                if row2 is None:
                    raise CompositionError(
                        f"second transducer has no row for {(s2, y)!r}")
                for column, p2 in row2:
                    i = base + column
                    a = acc[i]
                    if a is None:
                        acc[i] = 0.0 + p1 * p2
                        order.append(i)
                    else:
                        acc[i] = a + p1 * p2
            table[((s1, s2), x)] = {keys[i]: acc[i] for i in order}

    # Keys are declared, as checked above, and entries are products of the
    # probabilities validated at construction, so of the checks in
    # ``validate`` only the row sums remain.
    for key, row in table.items():
        _check_row_sum(key, sum(row.values()))
    composite = object.__new__(Transducer)  # skips the full validate
    composite.__dict__.update(
        states=tuple((a, b) for a in first.states for b in second.states),
        in_alphabet=first.in_alphabet, out_alphabet=second.out_alphabet,
        table=table, _cum={})
    return composite


def _check_row_sum(key: tuple[State, Symbol], total: float) -> None:
    if not abs(total - 1.0) <= ROW_SUM_TOL:  # also rejects NaN
        raise StochasticityError(
            f"row {key!r} sums to {total!r}, expected 1 ± {ROW_SUM_TOL}")
