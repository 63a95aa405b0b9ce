"""Probabilistic transducer unit tests: validation, stepping, composition."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
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


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_alphabet_mismatch_raises():
    t1 = Transducer.identity("ab")
    t2 = Transducer.identity("xy")
    with pytest.raises(CompositionError):
        compose(t1, t2)


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
