"""Probabilistic transducers and their composition.

A transducer couples an input stream to an output stream through internal
state: for each (state, input symbol) pair it holds a joint distribution over
(next state, output symbol).  Chaining two transducers — the output alphabet
of the first feeding the input alphabet of the second — yields another
transducer on the product state space, with the intermediate symbol
marginalized out.

A transducer is read-only once built, and holds its rows compiled: each
distinct ``(next_state, out)`` outcome has a position, and a row is the tuple
of its outcome positions (its shape) with their probabilities.  Composition
and sampling work on these rows and on integer state indices.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Sequence

from .errors import CompositionError, StochasticityError

State = Hashable
Symbol = Hashable
Key = tuple[State, Symbol]
# A compiled row: its outcome positions in row order, and their probabilities.
# Rows of one transducer that list the same outcomes share one shape tuple.
Row = tuple[tuple[int, ...], Sequence[float]]

# Row sums may drift by accumulated float error, never more than this.
ROW_SUM_TOL = 1e-9


# ---------------------------------------------------------------------------
# core type
# ---------------------------------------------------------------------------

class _Table(Mapping):
    """Read-only ``(state, sym_in) -> {(next_state, sym_out): p}`` over
    compiled rows.  A row's mapping is built on first read, and is read-only
    too."""

    __slots__ = ("_rows", "_outcomes", "_views")

    def __init__(self, rows: dict[Key, Row], outcomes: list[Key]) -> None:
        self._rows = rows
        self._outcomes = outcomes  # outcome key by position
        self._views: dict[Key, Mapping[Key, float]] = {}

    def __getitem__(self, key: Key) -> Mapping[Key, float]:
        view = self._views.get(key)
        if view is None:
            shape, probs = self._rows[key]
            view = self._views[key] = MappingProxyType(
                dict(zip(map(self._outcomes.__getitem__, shape), probs)))
        return view

    def __contains__(self, key: object) -> bool:
        return key in self._rows

    def __iter__(self) -> Iterator[Key]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({ {key: dict(row) for key, row in self.items()} !r})"


@dataclass(frozen=True)
class Transducer:
    """Finite probabilistic transducer, read-only once built.

    ``table[(state, sym_in)]`` maps ``(next_state, sym_out)`` to probability.
    Every row present must sum to 1 within ``ROW_SUM_TOL``; rows may be
    sparse (zero entries omitted).  The constructor validates the given
    table and compiles a copy of it; ``table`` then reads that copy, and any
    edit raises (``TypeError``, or ``FrozenInstanceError`` for a field), so
    the rows validated are the rows composed and sampled.
    """

    states: tuple[State, ...]
    in_alphabet: tuple[Symbol, ...]
    out_alphabet: tuple[Symbol, ...]
    table: Mapping[Key, Mapping[Key, float]]
    # The next-state index of each outcome position, and each state's index.
    _next: list[int] = field(init=False, repr=False, compare=False)
    _index: dict[State, int] = field(init=False, repr=False, compare=False)
    # ``run``'s samplers, built on first use: per state index and symbol, the
    # cumulative weights with the next-state indices and outputs of the row's
    # shape; those two lists are shared by every row of that shape.
    _samplers: list[dict[Symbol, tuple[list[float], list[int], list[Symbol]]]] = field(
        init=False, repr=False, compare=False)
    _by_shape: dict[tuple[int, ...], tuple[list[int], list[Symbol]]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.validate()
        positions: dict[Key, int] = {}
        shapes: dict[tuple[Key, ...], tuple[int, ...]] = {}  # by the row's outcomes
        rows: dict[Key, Row] = {}
        for key, row in self.table.items():
            listed = tuple(row)
            shape = shapes.get(listed)
            if shape is None:
                shape = shapes[listed] = tuple(
                    positions.setdefault(o, len(positions)) for o in listed)
            rows[key] = (shape, tuple(row.values()))
        index = {s: i for i, s in enumerate(self.states)}
        _install(self, tuple(self.states), tuple(self.in_alphabet), tuple(self.out_alphabet),
                 rows, list(positions), [index[t] for t, _ in positions])

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

    def distribution(self, state: State, symbol: Symbol) -> Mapping[Key, float]:
        """Joint distribution over (next_state, output) for one step."""
        try:
            return self.table[(state, symbol)]
        except KeyError:
            raise StochasticityError(f"no row for {(state, symbol)!r}") from None

    def _sampler(self, i: int, symbol: Symbol) -> tuple[list[float], list[int], list[Symbol]]:
        """Build and cache the sampler of state index ``i`` on ``symbol``."""
        state = self.states[i]
        try:
            shape, probs = self.table._rows[(state, symbol)]
        except KeyError:
            raise StochasticityError(f"no row for {(state, symbol)!r}") from None
        lists = self._by_shape.get(shape)
        if lists is None:
            outcomes = self.table._outcomes
            lists = self._by_shape[shape] = (
                [self._next[k] for k in shape], [outcomes[k][1] for k in shape])
        weights = list(accumulate(probs, initial=0.0))
        del weights[0]
        # Guard against rounding: every bin from the last outcome of positive
        # probability on reaches 1, so no draw lands on a trailing zero.
        last = len(probs) - 1
        while not probs[last] > 0.0:
            last -= 1
        weights[last:] = [max(w, 1.0) for w in weights[last:]]
        sampler = self._samplers[i][symbol] = (weights, *lists)
        return sampler

    # -- dynamics ----------------------------------------------------------

    def step(self, state: State, symbol: Symbol,
             rng: random.Random) -> tuple[State, Symbol]:
        """Advance one step, consuming exactly one uniform draw from ``rng``."""
        state, (produced,) = self.run(state, (symbol,), rng)
        return state, produced

    def run(self, state: State, symbols: Iterable[Symbol],
            rng: random.Random) -> tuple[State, list[Symbol]]:
        """Feed a symbol sequence; return the final state and the outputs.

        The walk runs on state indices: per symbol, one sampler lookup and
        one draw."""
        try:
            i = self._index[state]
        except KeyError:
            for sym in symbols:
                raise StochasticityError(f"no row for {(state, sym)!r}") from None
            return state, []
        samplers, draw = self._samplers, rng.random
        out: list[Symbol] = []
        for sym in symbols:
            try:
                cum, nexts, outs = samplers[i][sym]
            except KeyError:
                cum, nexts, outs = self._sampler(i, sym)
            j = bisect_right(cum, draw())
            i = nexts[j]
            out.append(outs[j])
        return self.states[i], out

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, alphabet: Sequence[Symbol]) -> "Transducer":
        """Single-state transducer copying input to output."""
        table = {("*", sym): {("*", sym): 1.0} for sym in alphabet}
        return cls(states=("*",), in_alphabet=tuple(alphabet),
                   out_alphabet=tuple(alphabet), table=table)


def _install(t: Transducer, states: tuple[State, ...], in_alphabet: tuple[Symbol, ...],
             out_alphabet: tuple[Symbol, ...], rows: dict[Key, Row],
             outcomes: list[Key], next_index: list[int]) -> Transducer:
    """Set every field of ``t`` from its declared sets and compiled rows;
    ``t`` is frozen, so through its ``__dict__``."""
    t.__dict__.update(
        states=states, in_alphabet=in_alphabet, out_alphabet=out_alphabet,
        table=_Table(rows, outcomes), _next=next_index,
        _index={s: i for i, s in enumerate(states)},
        _samplers=[{} for _ in states], _by_shape={})
    return t


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def compose(first: Transducer, second: Transducer) -> Transducer:
    """Chain ``first`` into ``second``.

    The composite runs on pair states ``(s1, s2)``; the intermediate symbol
    is marginalized:

        P((s1,s2), x -> (t1,t2), z) = sum_y P1(s1,x -> t1,y) * P2(s2,y -> t2,z)

    Each composite entry adds its products in order of row1 entry, then row2
    entry, and each row lists its keys in the order they are first reached.
    Both operands are read-only and were validated when built, so no key is
    checked again here.
    """
    if set(first.out_alphabet) != set(second.in_alphabet):
        raise CompositionError(
            f"intermediate alphabets differ: {first.out_alphabet!r} vs {second.in_alphabet!r}")

    # Composite outcome ((t1, t2), z) sits at index(t1) * cols + the position
    # of (t2, z) in second: t1's block.
    outcomes1, next1 = first.table._outcomes, first._next
    rows2, cols = second.table._rows, len(second.table._outcomes)
    # shifted[i2][k]: the row (s2, y) of second for first's outcome k = (t1, y),
    # as (composite position, p2) pairs in t1's block; built on first use.
    shifted: list[list[list[tuple[int, float]] | None]] = [
        [None] * len(outcomes1) for _ in second.states]
    # Per (first-row shape, s2 index): one shifted row per row1 entry, and the
    # order in which the composite row first reaches its positions.
    plans: dict[tuple[tuple[int, ...], int], tuple[list, tuple[int, ...]]] = {}
    shapes: dict[tuple[int, ...], tuple[int, ...]] = {}

    def plan_for(shape1: tuple[int, ...], i2: int) -> tuple[list, tuple[int, ...]]:
        row_plan = []
        for k in shape1:
            pairs = shifted[i2][k]
            if pairs is None:
                s2, y = second.states[i2], outcomes1[k][1]
                row2 = rows2.get((s2, y))
                if row2 is None:
                    raise CompositionError(f"second transducer has no row for {(s2, y)!r}")
                base = next1[k] * cols
                pairs = shifted[i2][k] = [(base + c, p2) for c, p2 in zip(*row2)]
            row_plan.append(pairs)
        order = tuple(dict.fromkeys(i for pairs in row_plan for i, _ in pairs))
        plan = plans[(shape1, i2)] = (row_plan, shapes.setdefault(order, order))
        return plan

    # A zero-filled accumulator adds exactly as a sparse one would: a
    # position's first add is 0.0 + p1 * p2, and unreached positions are
    # never read.
    size = len(first.states) * cols
    rows: dict[Key, Row] = {}
    for (s1, x), (shape1, probs1) in first.table._rows.items():
        for i2, s2 in enumerate(second.states):
            row_plan, order = plans.get((shape1, i2)) or plan_for(shape1, i2)
            acc = [0.0] * size
            for p1, pairs in zip(probs1, row_plan):
                for i, p2 in pairs:
                    acc[i] += p1 * p2
            rows[((s1, s2), x)] = (order, [acc[i] for i in order])

    # Entries are products of the probabilities validated at construction,
    # so of the checks in ``validate`` only the row sums remain.
    for key, (_, values) in rows.items():
        _check_row_sum(key, sum(values))
    n2 = len(second.states)
    return _install(
        object.__new__(Transducer),  # skips the full validate
        tuple((a, b) for a in first.states for b in second.states),
        first.in_alphabet, second.out_alphabet, rows,
        [((t1, t2), z) for t1 in first.states for t2, z in second.table._outcomes],
        [i1 * n2 + t2 for i1 in range(len(first.states)) for t2 in second._next])


def _check_row_sum(key: Key, total: float) -> None:
    if not abs(total - 1.0) <= ROW_SUM_TOL:  # also rejects NaN
        raise StochasticityError(
            f"row {key!r} sums to {total!r}, expected 1 ± {ROW_SUM_TOL}")
