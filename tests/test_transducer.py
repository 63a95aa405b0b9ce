"""Probabilistic transducer unit tests: validation, stepping, composition."""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnet.errors import CompositionError, StochasticityError
from tnet.transducer import ROW_SUM_TOL, Transducer, compose


def random_transducer(rng: random.Random, n_states: int,
                      in_alpha: str, out_alpha: str) -> Transducer:
    """Fully dense random transducer with normalized rows."""
    states = tuple(range(n_states))
    table = {}
    for s in states:
        for x in in_alpha:
            outcomes = [(t, y) for t in states for y in out_alpha]
            raw = [rng.random() + 1e-6 for _ in outcomes]
            total = sum(raw)
            table[(s, x)] = {o: w / total for o, w in zip(outcomes, raw)}
    return Transducer(states=states, in_alphabet=tuple(in_alpha),
                      out_alphabet=tuple(out_alpha), table=table)


def composed_prob_oracle(t1: Transducer, t2: Transducer,
                         s1, s2, x, u1, u2, z) -> float:
    """Brute-force marginalization over the intermediate symbol."""
    total = 0.0
    for y in t1.out_alphabet:
        p1 = t1.table[(s1, x)].get((u1, y), 0.0)
        p2 = t2.table[(s2, y)].get((u2, z), 0.0)
        total += p1 * p2
    return total


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_row_must_sum_to_one():
    with pytest.raises(StochasticityError):
        Transducer(states=("s",), in_alphabet=("a",), out_alphabet=("b",),
                   table={("s", "a"): {("s", "b"): 0.5}})


def test_negative_probability_rejected():
    with pytest.raises(StochasticityError):
        Transducer(states=("s",), in_alphabet=("a",), out_alphabet=("b",),
                   table={("s", "a"): {("s", "b"): 1.5, ("s", "b2"): -0.5}})


def test_nan_probability_rejected():
    with pytest.raises(StochasticityError):
        Transducer(states=("s",), in_alphabet=("a",), out_alphabet=("b", "c"),
                   table={("s", "a"): {("s", "b"): math.nan, ("s", "c"): 1.0}})


def test_identity_copies_input():
    t = Transducer.identity("abc")
    rng = random.Random(0)
    _, out = t.run("*", "abacab", rng)
    assert out == list("abacab")


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_consumes_exactly_one_draw():
    t = random_transducer(random.Random(1), 3, "ab", "xy")
    rng_a = random.Random(42)
    rng_b = random.Random(42)
    state = 0
    for sym in "abba":
        state, _ = t.step(state, sym, rng_a)
        rng_b.random()
    # both generators must now be in the same position
    assert rng_a.random() == rng_b.random()


def test_step_frequencies_match_distribution():
    t = random_transducer(random.Random(5), 2, "a", "xy")
    rng = random.Random(11)
    n = 20_000
    counts: dict = {}
    for _ in range(n):
        outcome = t.step(0, "a", rng)
        counts[outcome] = counts.get(outcome, 0) + 1
    for outcome, p in t.table[(0, "a")].items():
        freq = counts.get(outcome, 0) / n
        se = (p * (1 - p) / n) ** 0.5
        assert abs(freq - p) < 4 * se + 1e-9


class FixedDraw:
    """Stub rng: every draw returns ``value``."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


def test_trailing_zero_outcome_is_never_drawn():
    # The row validates, but its bins only reach 1 - 1e-12: a draw in that
    # gap must land on the last outcome of positive probability, never on
    # the zero-probability outcome after it.
    t = Transducer(states=("s",), in_alphabet=("x",), out_alphabet=("a", "b", "c"),
                   table={("s", "x"): {("s", "a"): 0.1, ("s", "b"): 0.9 - 1e-12,
                                       ("s", "c"): 0.0}})
    draw = 0.9999999999995
    assert t.step("s", "x", FixedDraw(draw)) == ("s", "b")
    assert t.run("s", "xx", FixedDraw(draw)) == ("s", ["b", "b"])


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_alphabet_mismatch_raises():
    t1 = Transducer.identity("ab")
    t2 = Transducer.identity("xy")
    with pytest.raises(CompositionError):
        compose(t1, t2)


# A transducer is read-only once built, so the rows ``compose`` and ``run``
# read are the rows that were validated: every edit raises instead.

def test_replacing_a_row_raises():
    t = Transducer.identity("ab")
    with pytest.raises(TypeError):
        t.table[("*", "a")] = {("zz", "a"): 1.0}
    with pytest.raises(TypeError):
        del t.table[("*", "a")]


def test_setting_an_entry_raises():
    t = Transducer.identity("ab")
    with pytest.raises(TypeError):
        t.table[("*", "a")][("*", "a")] = 1.5


def test_writing_through_a_distribution_raises():
    t = compose(Transducer.identity("ab"), Transducer.identity("ab"))
    row = t.distribution(("*", "*"), "a")
    with pytest.raises(TypeError):
        row[(("*", "*"), "b")] = 0.5
    assert dict(row) == {(("*", "*"), "a"): 1.0}


def test_reassigning_a_field_raises():
    t = Transducer.identity("ab")
    with pytest.raises(FrozenInstanceError):
        t.states = ("*", "q")
    with pytest.raises(FrozenInstanceError):
        t.table = {}


def test_a_row_edited_after_a_run_is_ignored():
    # the transducer holds a copy of the rows it was built from: editing the
    # caller's dict after a run changes neither its table nor its draws
    rows = {("s", "x"): {("s", "a"): 1.0, ("s", "b"): 0.0}}
    t = Transducer(states=("s",), in_alphabet=("x",), out_alphabet=("a", "b"), table=rows)
    assert t.run("s", "xx", FixedDraw(0.5)) == ("s", ["a", "a"])
    rows[("s", "x")][("s", "a")], rows[("s", "x")][("s", "b")] = 0.0, 1.0
    assert dict(t.table[("s", "x")]) == {("s", "a"): 1.0, ("s", "b"): 0.0}
    assert t.run("s", "xx", FixedDraw(0.5)) == ("s", ["a", "a"])
    rows[("s", "x")] = {("s", "b"): 1.0}
    assert t.step("s", "x", FixedDraw(0.5)) == ("s", "a")


def test_compose_identity_is_neutral():
    t = random_transducer(random.Random(9), 3, "ab", "ab")
    ident = Transducer.identity("ab")
    comp = compose(t, ident)
    for (state, x), row in t.table.items():
        comp_row = comp.table[((state, "*"), x)]
        for (nxt, y), p in row.items():
            assert abs(comp_row[((nxt, "*"), y)] - p) < 1e-12


def test_compose_matches_brute_force_oracle():
    rng = random.Random(13)
    for _ in range(20):
        t1 = random_transducer(rng, rng.randint(1, 3), "ab", "uv")
        t2 = random_transducer(rng, rng.randint(1, 3), "uv", "xy")
        comp = compose(t1, t2)
        for (s1, x) in t1.table:
            for s2 in t2.states:
                row = comp.table[((s1, s2), x)]
                assert abs(sum(row.values()) - 1.0) < ROW_SUM_TOL
                for u1 in t1.states:
                    for u2 in t2.states:
                        for z in t2.out_alphabet:
                            want = composed_prob_oracle(t1, t2, s1, s2, x, u1, u2, z)
                            got = row.get(((u1, u2), z), 0.0)
                            assert abs(got - want) < 1e-9


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_composition_rows_remain_stochastic(seed):
    rng = random.Random(seed)
    t1 = random_transducer(rng, 2, "ab", "uv")
    t2 = random_transducer(rng, 2, "uv", "xy")
    comp = compose(t1, t2)
    for row in comp.table.values():
        assert abs(sum(row.values()) - 1.0) < ROW_SUM_TOL
        assert all(p >= 0.0 for p in row.values())


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_composed_run_is_deterministic_under_seed(seed):
    rng = random.Random(seed)
    t1 = random_transducer(rng, 2, "ab", "uv")
    t2 = random_transducer(rng, 2, "uv", "xy")
    comp = compose(t1, t2)
    symbols = "".join(random.Random(seed).choice("ab") for _ in range(50))
    first = comp.run(comp.states[0], symbols, random.Random(99))
    second = comp.run(comp.states[0], symbols, random.Random(99))
    assert first == second


# ---------------------------------------------------------------------------
# differential: compose and run against the plain dict-accumulating versions
# ---------------------------------------------------------------------------

def reference_compose(first: Transducer, second: Transducer) -> Transducer:
    """The former ``compose``: accumulates into the row dict by key, and builds
    the composite through the constructor, so it runs the full ``validate``."""
    if set(first.out_alphabet) != set(second.in_alphabet):
        raise CompositionError(
            f"intermediate alphabets differ: {first.out_alphabet!r} vs {second.in_alphabet!r}")
    states = tuple((a, b) for a in first.states for b in second.states)
    table = {}
    for (s1, x), row1 in first.table.items():
        for s2 in second.states:
            row = {}
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


def reference_run(t: Transducer, state, symbols, rng: random.Random):
    """The former ``run``: per symbol, the row's running sums with only the
    last bin lifted to 1, and one draw.  It differs from ``run`` only on a
    draw between a row's rounded sum and 1 when the row ends in zero entries
    (``test_trailing_zero_outcome_is_never_drawn``)."""
    out = []
    for sym in symbols:
        row = t.table[(state, sym)]
        outcomes, weights, acc = list(row), [], 0.0
        for o in outcomes:
            acc += row[o]
            weights.append(acc)
        weights[-1] = max(weights[-1], 1.0)
        state, produced = outcomes[bisect_right(weights, rng.random())]
        out.append(produced)
    return state, out


def dense_transducer(rng: random.Random, states, ins, outs) -> Transducer:
    """Every outcome in every row, in one order, with integer weights: each
    total is exact, so the rows do not depend on how the interpreter sums
    floats (``sum`` is compensated from Python 3.12 on)."""
    outcomes = [(t, y) for t in states for y in outs]
    table = {}
    for s in states:
        for x in ins:
            raw = [rng.randint(1, 1000) for _ in outcomes]
            total = sum(raw)
            table[(s, x)] = {o: w / total for o, w in zip(outcomes, raw)}
    return Transducer(states=tuple(states), in_alphabet=tuple(ins),
                      out_alphabet=tuple(outs), table=table)


def sparse_transducer(rng: random.Random, states, ins, outs) -> Transducer:
    """Seeded counterpart of ``sparse_transducers``, with every row: rows
    over a random subset of outcomes, in shuffled order, with some explicit
    0.0 entries; the rows themselves are listed in shuffled order."""
    outcomes = [(t, y) for t in states for y in outs]
    keys = [(s, x) for s in states for x in ins]
    rng.shuffle(keys)
    table = {}
    for key in keys:
        picked = rng.sample(outcomes, rng.randint(1, len(outcomes)))
        raw = [rng.randint(0, 5) for _ in picked]
        raw[rng.randrange(len(raw))] += 1  # at least one positive entry
        total = sum(raw)
        table[key] = {o: w / total for o, w in zip(picked, raw)}
    return Transducer(states=tuple(states), in_alphabet=tuple(ins),
                      out_alphabet=tuple(outs), table=table)


@st.composite
def sparse_transducers(draw, states, ins, outs, drop_row=False):
    """Rows over a random subset of outcomes, listed in shuffled order, with
    some explicit 0.0 entries; with ``drop_row``, maybe one row missing."""
    outcomes = [(t, y) for t in states for y in outs]
    table = {}
    for s in states:
        for x in ins:
            keys = draw(st.permutations(outcomes))[:draw(st.integers(1, len(outcomes)))]
            raw = draw(st.lists(st.integers(0, 5), min_size=len(keys), max_size=len(keys)))
            raw[draw(st.integers(0, len(keys) - 1))] += 1  # at least one positive entry
            total = sum(raw)
            table[(s, x)] = {k: w / total for k, w in zip(keys, raw)}
    if drop_row and draw(st.booleans()):
        del table[draw(st.sampled_from(sorted(table)))]
    return Transducer(states=tuple(states), in_alphabet=tuple(ins),
                      out_alphabet=tuple(outs), table=table)


@st.composite
def transducer_pairs(draw):
    """``first`` with every row, ``second`` possibly one row short; the
    intermediate alphabet is listed in a different order on each side."""
    alphabet = st.integers(1, 3).map(lambda n: "abc"[:n])
    ins, mid, outs = draw(alphabet), draw(alphabet), draw(alphabet)
    states1 = list(range(draw(st.integers(1, 4))))
    states2 = list("pqrs"[:draw(st.integers(1, 4))])
    first = draw(sparse_transducers(states1, ins, mid))
    second = draw(sparse_transducers(states2, draw(st.permutations(mid)), outs, drop_row=True))
    return first, second


FLIP = Transducer(
    states=("s",), in_alphabet=("0", "1"), out_alphabet=("0", "1"),
    table={("s", "0"): {("s", "0"): 0.9, ("s", "1"): 0.1},
           ("s", "1"): {("s", "1"): 0.9, ("s", "0"): 0.1}},
)


@given(pair=transducer_pairs(), seed=st.integers(0, 2**32 - 1),
       nest=st.sampled_from([None, "first", "second"]))
@example(pair=(FLIP, FLIP), seed=0, nest=None)
@example(pair=(FLIP, FLIP), seed=0, nest="first")
@example(pair=(FLIP, FLIP), seed=0, nest="second")
@settings(max_examples=150, deadline=None)
def test_compose_and_run_match_reference(pair, seed, nest):
    """With ``nest``, that operand is itself a composite: a seeded sparse
    transducer feeds ``first``, or ``second`` feeds one; the reference then
    composes twice."""
    first, second = pair
    want_first, want_second = first, second
    rng = random.Random(seed)
    if nest == "first":
        head = sparse_transducer(rng, "xy"[:rng.randint(1, 2)], "ab", first.in_alphabet)
        first, want_first = compose(head, first), reference_compose(head, first)
    elif nest == "second":
        tail = sparse_transducer(rng, "xy"[:rng.randint(1, 2)], second.out_alphabet, "ab")
        second, want_second = compose(second, tail), reference_compose(second, tail)
    try:
        want = reference_compose(want_first, want_second)
    except CompositionError as exc:
        with pytest.raises(CompositionError) as got_exc:
            compose(first, second)
        assert str(got_exc.value) == str(exc)
        return
    got = compose(first, second)
    assert got.states == want.states
    assert list(got.table) == list(want.table)
    for key, row in want.table.items():
        assert list(got.table[key].items()) == list(row.items())
    got.validate()

    symbols = random.Random(seed).choices(first.in_alphabet, k=40)
    start = got.states[seed % len(got.states)]
    rng_got, rng_want = random.Random(seed), random.Random(seed)
    assert got.run(start, symbols, rng_got) == reference_run(want, start, symbols, rng_want)
    assert rng_got.getstate() == rng_want.getstate()


# ---------------------------------------------------------------------------
# output digest over seeded chains
# ---------------------------------------------------------------------------

# a behaviour change updates this digest and argues the change in CHANGES.md
TRANSDUCER_DIGEST = "e839304b6f14b61973cad59950dfff35005902759025dddbae42e254d5a2f5e7"


def transducer_digest() -> str:
    """One sha256 over the rows of ``compose(compose(a, b), c)`` and a seeded
    run of it, for seeded dense chains and for sparse tables with shuffled
    rows; the sparse chains list each intermediate alphabet in a different
    order on its two sides."""
    rng = random.Random("transducer-digest")
    digest = hashlib.sha256()
    for i in range(40):
        sizes = [rng.randint(1, 3) for _ in range(3)]
        if i % 2:
            a = dense_transducer(rng, range(sizes[0]), "ab", "uvw")
            b = dense_transducer(rng, range(sizes[1]), "uvw", "xy")
            c = dense_transducer(rng, range(sizes[2]), "xy", "abc")
        else:
            a = sparse_transducer(rng, "pqr"[:sizes[0]], "ab", "uvw")
            b = sparse_transducer(rng, range(sizes[1]), "wuv", "yx")
            c = sparse_transducer(rng, "pqr"[:sizes[2]], "xy", "cab")
        comp = compose(compose(a, b), c)
        for key, row in comp.table.items():
            digest.update(repr((key, list(row.items()))).encode())
        symbols = rng.choices(comp.in_alphabet, k=300)
        start = comp.states[rng.randrange(len(comp.states))]
        digest.update(repr(comp.run(start, symbols, random.Random(i))).encode())
    return digest.hexdigest()


def test_transducer_digest_is_pinned():
    assert transducer_digest() == TRANSDUCER_DIGEST


def test_readme_flip_twice():
    twice = compose(FLIP, FLIP)
    assert twice.table[(("s", "s"), "0")][(("s", "s"), "0")] == pytest.approx(0.82)
