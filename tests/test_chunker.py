"""Chunker tests: decomposition, allocation, matching, and stream behavior."""

from __future__ import annotations

import hashlib
import random
import string
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnet.chunker import (
    Chunker,
    ChunkerParams,
    Decomposition,
    _between,
    allocate_chunk_node,
    decompose_units,
    match,
    observe_pair,
    order_variants,
)
from tnet.errors import TnetError, TopologyError
from tnet.harness import _event_lines, snapshot_from_net, snapshot_json
from tnet.substrate import Network, NodeKind, Params


def make_net(**overrides) -> Network:
    return Network(Params(**overrides), seed=0)


def run_stream(stream: str, **param_overrides) -> Chunker:
    net = make_net(**param_overrides)
    chunker = Chunker(net, ChunkerParams())
    chunker.observe_stream(stream)
    return chunker


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_invariants():
    with pytest.raises(ValueError):
        ChunkerParams(l_min=1)
    with pytest.raises(ValueError):
        ChunkerParams(buffer_len=3, l_min=2)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_shares_suffix_block():
    d = decompose_units("98136", "28136", l_min=2)
    assert d is not None
    assert d.shared == ("136",)
    assert set(d.blocks_a) == {"98", "136"}
    assert set(d.blocks_b) == {"28", "136"}


def test_decompose_rejects_short_residue():
    # sharing "8136" would strand single-symbol residues; it must lose to "136"
    d = decompose_units("98136", "28136", l_min=2)
    assert "8136" not in d.shared


def test_decompose_identical_spans_stay_whole():
    d = decompose_units("98136", "98136", l_min=2)
    assert d.shared == ("98136",)
    assert d.blocks_a == ("98136",)


def test_decompose_disjoint_spans_returns_none():
    assert decompose_units("abab", "cdcd", l_min=2) is None


def test_decompose_prefers_longer_shared_total():
    d = decompose_units("abcdef", "zzabcdef", l_min=2)
    assert d is not None
    assert d.shared_length == 6


@given(text=st.text(alphabet="abc", min_size=2, max_size=8))
@settings(max_examples=50)
def test_decompose_self_is_total(text):
    d = decompose_units(text, text, l_min=2)
    assert d is not None
    assert d.shared_length == len(text)


def enumerating_tilings(text: str, l_min: int) -> list[tuple[str, ...]]:
    """Reference: every tiling of ``text``, recursively, in lex order."""
    n = len(text)
    if n == 0:
        return [()]
    out = []
    for cut in range(l_min, n + 1):
        if n - cut != 0 and n - cut < l_min:
            continue
        for rest in enumerating_tilings(text[cut:], l_min):
            out.append((text[:cut],) + rest)
    return out


def enumerating_decompose(text_a: str, text_b: str, l_min: int) -> Decomposition | None:
    """Reference: ``decompose_units`` as a plain loop over every pair of tilings."""
    if text_a == text_b:
        return Decomposition((text_a,), (text_a,), (text_a,))
    best = None
    for ta in enumerating_tilings(text_a, l_min):
        counts_a: dict[str, int] = {}
        for block in ta:
            counts_a[block] = counts_a.get(block, 0) + 1
        for tb in enumerating_tilings(text_b, l_min):
            counts_b: dict[str, int] = {}
            for block in tb:
                counts_b[block] = counts_b.get(block, 0) + 1
            shared: list[str] = []
            for block, k in counts_a.items():
                shared.extend([block] * min(k, counts_b.get(block, 0)))
            if not shared:
                continue
            cand = Decomposition(ta, tb, tuple(sorted(shared)))
            if (best is None or cand.shared_length > best.shared_length
                    or (cand.shared_length == best.shared_length
                        and len(cand.shared) > len(best.shared))):
                best = cand
    return best


@st.composite
def unit_pairs(draw):
    alphabet = "abcd"[:draw(st.integers(1, 4))]
    text = st.text(alphabet=alphabet, min_size=0, max_size=12)
    return draw(text), draw(text), draw(st.sampled_from((2, 3)))


@given(pair=unit_pairs())
@example(pair=("baaabaaabbb", "aaabbbabbbab", 2))   # equal length, more blocks wins late
@example(pair=("abab", "cdcd", 2))                   # no common 2-gram
@example(pair=("xxab", "abc", 2))                    # a common gram, no shareable block
@example(pair=("ab", "a", 2))                        # text_b shorter than l_min
@example(pair=("abcab", "abc", 2))                   # "ab" occurs in text_b, in none of its tilings
@example(pair=("hgcfcefghfbebdde", "aadd", 2))       # 610 tilings of text_a, one shareable multiset
@settings(max_examples=300, deadline=None)
def test_decompose_matches_enumerating_reference(pair):
    text_a, text_b, l_min = pair
    got = decompose_units(text_a, text_b, l_min)
    want = enumerating_decompose(text_a, text_b, l_min)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.blocks_a, got.blocks_b, got.shared) == (want.blocks_a, want.blocks_b, want.shared)


def test_decomposition_is_frozen():
    d = decompose_units("98136", "28136", l_min=2)
    with pytest.raises(AttributeError):
        d.shared = ()


def test_closure_decomposes_each_pairing_once(monkeypatch):
    # a two-round closure: the first round splits the trace "behfhee", the
    # second pits "af" against "cg" again
    calls: list[list[tuple[str, str]]] = []
    closure = Chunker._closure

    def traced_closure(self, *window):
        calls.append([])
        return closure(self, *window)

    def traced_decompose(text_a, text_b, l_min):
        calls[-1].append((text_a, text_b))
        return decompose_units(text_a, text_b, l_min)

    monkeypatch.setattr(Chunker, "_closure", traced_closure)
    monkeypatch.setattr("tnet.chunker.decompose_units", traced_decompose)
    run_stream("behfheecgbaeecgaf")
    assert [len(seen) == len(set(seen)) for seen in calls] == [True, True]
    assert set(calls[1]) == {("af", "behfhee"), ("af", "cg"), ("baee", "behfhee"),
                             ("baee", "cg"), ("af", "baee")}


def test_decompose_random_18_symbol_pair_within_budget():
    # two 18-symbol units have 1597 x 1597 tiling pairs; the all-pairs loop
    # above took about 18 s on them on a shared 2-vCPU machine
    rng = random.Random(18)
    text_a, text_b = ("".join(rng.choice("abcdefgh") for _ in range(18)) for _ in range(2))
    start = time.perf_counter()
    dec = decompose_units(text_a, text_b, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over 1.0s budget"
    assert dec is None or sum(map(len, dec.blocks_a)) == 18


def test_decompose_random_32_symbol_pair_within_budget():
    # two 32-symbol units have 1,346,269 tilings each; streaming every
    # tiling of both sides took about 3.7 s on a shared 2-vCPU machine
    rng = random.Random(32)
    text_a, text_b = ("".join(rng.choice("abcdefgh") for _ in range(32)) for _ in range(2))
    start = time.perf_counter()
    dec = decompose_units(text_a, text_b, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over 1.0s budget"
    assert dec is not None and dec.shared_length == 12


# ---------------------------------------------------------------------------
# buffer span lookups
# ---------------------------------------------------------------------------

def joined_between(window: list[tuple[int, str]], start: int, end: int) -> str:
    """Reference: join the symbols whose tick lies in ``start..end``."""
    return "".join(sym for t, sym in window if start <= t <= end)


def scanned_occurs_earlier(buf: list[tuple[int, str]], boundary: int,
                           span_start: int, span_end: int) -> bool:
    """Reference: probe every start after the boundary, joining over the window."""
    text = joined_between(buf, span_start, span_end)
    length = span_end - span_start + 1
    for t0, _ in buf:
        if t0 <= boundary:
            continue
        t1 = t0 + length - 1
        if t1 >= span_start:
            break
        if joined_between(buf, t0, t1) == text:
            return True
    return False


@given(steps=st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 2)), max_size=40))
# the prefix matcher replays a tick that passed without a symbol
@example(steps=[("b", 0), ("b", 0), ("b", 0), ("c", 0), ("a", 0), ("b", 0), ("b", 0), ("a", 1)])
# "ab" first occurs across a tick gap, later without one
@example(steps=[("a", 0), ("b", 1), ("a", 0), ("b", 0), ("a", 0), ("b", 0)])
# a span ending past the window's last tick matches "ab" followed by a gap
@example(steps=[("a", 0), ("b", 0), ("a", 1), ("b", 0)])
@settings(max_examples=60, deadline=None)
def test_span_lookups_match_window_scan_across_tick_gaps(steps):
    net = make_net()
    chunker = Chunker(net, ChunkerParams(buffer_len=8))
    fed: list[tuple[int, str]] = []
    for symbol, gap in steps:
        for _ in range(gap):
            net.end_tick()            # a tick with no symbol: a hole in the buffer
        fed.append((net.tick_count, symbol))
        chunker.observe(symbol)
        buf = fed[-chunker.cp.buffer_len:]
        # the tick list and text kept as symbols arrive and leave
        assert chunker._ticks == [t for t, _ in buf]
        assert chunker._text == "".join(sym for _, sym in buf)
        ticks = range(buf[0][0] - 1, buf[-1][0] + 2)
        for start in ticks:
            for end in ticks:
                assert (_between(chunker._ticks, chunker._text, start, end)
                        == joined_between(buf, start, end))
                if start <= end:
                    assert (chunker._occurs_earlier(start, end)
                            == scanned_occurs_earlier(buf, chunker.boundary, start, end))


# ---------------------------------------------------------------------------
# chunk allocation
# ---------------------------------------------------------------------------

def test_allocate_creates_member_edges():
    net = make_net()
    for sym in "ab":
        net.add_node(sym, NodeKind.SENSORY)
    label = allocate_chunk_node(net, ["a", "b"], "ab")
    assert net.node(label).kind is NodeKind.CHUNK
    assert net.has_edge("a", "ab")
    assert net.has_edge("b", "ab")
    assert net.has_edge("ab", "a")   # reciprocal


def test_allocate_is_idempotent():
    net = make_net()
    for sym in "ab":
        net.add_node(sym, NodeKind.SENSORY)
    allocate_chunk_node(net, ["a", "b"], "ab")
    node = net.node("ab")
    node.weight = 0.9
    allocate_chunk_node(net, ["a", "b"], "ab")
    assert net.node("ab").weight == pytest.approx(0.9)


def test_allocate_rejects_empty_and_stale_groups():
    net = make_net()
    for sym in "ab":
        net.add_node(sym, NodeKind.SENSORY)
    with pytest.raises(TopologyError):
        allocate_chunk_node(net, [], "x")


# ---------------------------------------------------------------------------
# candidate scoring and matching
# ---------------------------------------------------------------------------

def test_match_ranks_exact_over_partial():
    net = make_net()
    for label in ("abcd", "abzz"):
        node = net.add_node(label, NodeKind.CHUNK)
        node.weight = 1.0
    ranked = match(net, "abcd")
    assert ranked[0][0] == "abcd"
    assert ranked[0][1] > ranked[1][1]


def test_match_priming_carries_to_next_call():
    net = make_net()
    for label in ("abcd", "abzz"):
        node = net.add_node(label, NodeKind.CHUNK)
        node.weight = 1.0
    match(net, "ab")                      # primes both equally
    net.node("abzz").activation = 0.9     # strong explicit prime
    ranked = match(net, "abcd")
    assert ranked[0][0] == "abzz"         # prior activation wins the tie-break


# ---------------------------------------------------------------------------
# serial order variants
# ---------------------------------------------------------------------------

def test_order_variants_created_once():
    net = make_net()
    net.add_node("a")
    net.add_node("b")
    sim, ab, ba = order_variants(net, "a", "b")
    assert (sim, ab, ba) == ("a+b", "a>b", "b>a")
    assert order_variants(net, "a", "b") == (sim, ab, ba)
    with pytest.raises(TopologyError):
        order_variants(net, "a", "a")


def test_pure_order_fixates_directional_variant_first():
    net = make_net()
    net.add_node("a")
    net.add_node("b")
    for _ in range(3):
        observe_pair(net, "a", "b", "ab")
    assert net.node("a>b").fixated
    assert not net.node("a+b").fixated
    assert not net.node("b>a").fixated


def test_balanced_orders_fixate_simultaneous_variant_first():
    net = make_net()
    net.add_node("a")
    net.add_node("b")
    for order in ("ab", "ba", "ab", "ba"):
        observe_pair(net, "a", "b", order)
    assert net.node("a+b").fixated
    assert not net.node("a>b").fixated
    assert not net.node("b>a").fixated


# ---------------------------------------------------------------------------
# stream behavior
# ---------------------------------------------------------------------------

def test_plain_repetition_forms_single_chunk():
    chunker = run_stream("756756756")
    assert chunker.fixated_chunks() == {"756"}
    assert chunker.net.node("756").weight == pytest.approx(1.2)


def test_one_pass_leaves_no_permanent_trace():
    chunker = run_stream("75648361")
    net = chunker.net
    assert chunker.fixated_chunks() == set()
    for _ in range(200):
        net.end_tick()
    assert all(e.weight == 0.0 for e in net.elements() if not e.fixated)


def test_known_parts_split_composite():
    # pre-train "back" and "pack" as fixated chunks, then hear "backpack"
    net = make_net()
    chunker = Chunker(net, ChunkerParams())
    chunker.observe_stream("back" * 3)
    chunker.observe_stream("pack" * 3)
    assert {"back", "pack"} <= chunker.fixated_chunks()
    chunker.observe_stream("backpack" * 3)
    assert "backpack" not in chunker.fixated_chunks()
    assert net.edge("back", "pack").weight > 0.0


def test_unknown_composite_chunks_whole():
    chunker = run_stream("backpackbackpackbackpack")
    assert "backpack" in chunker.fixated_chunks()


def test_buffer_respects_window():
    net = make_net()
    chunker = Chunker(net, ChunkerParams(buffer_len=8))
    chunker.observe_stream(string.ascii_lowercase)
    assert len(chunker.buffer_text()) <= 8


def test_tick_symbols_follow_the_window_not_the_stream():
    rng = random.Random(0)
    net = make_net()
    chunker = Chunker(net, ChunkerParams())
    for _ in range(5000):
        chunker.observe(rng.choice("abcdefgh"))
    # the buffer plus the evicted tick and the one before it
    assert len(chunker._tick_sym) <= chunker.cp.buffer_len + 2


def test_events_are_logged_with_ticks():
    chunker = run_stream("756756756")
    assert chunker.events
    ticks = [t for t, _, _, _ in chunker.events]
    assert ticks == sorted(ticks)
    kinds = {k for _, k, _, _ in chunker.events}
    assert "chunk" in kinds


@given(stream=st.text(alphabet="abcd", min_size=0, max_size=60))
@settings(max_examples=40, deadline=None)
def test_arbitrary_streams_never_crash(stream):
    chunker = run_stream(stream)
    assert len(chunker.buffer_text()) <= chunker.cp.buffer_len
    # every fixated chunk is at least l_min long and at/above theta
    for label in chunker.fixated_chunks():
        assert len(label) >= chunker.cp.l_min
        assert chunker.net.node(label).weight >= chunker.net.params.theta


# ---------------------------------------------------------------------------
# behaviour digest over exhaustive small-scope streams
# ---------------------------------------------------------------------------

def canonical_streams(max_len: int, letters: str) -> list[str]:
    """Every stream of 1..max_len symbols over ``letters`` in first-occurrence
    canonical form: each new symbol is the next unused letter."""
    streams: list[str] = []
    level = [("", 0)]
    for _ in range(max_len):
        level = [(s + letters[i], max(used, i + 1))
                 for s, used in level for i in range(min(used + 1, len(letters)))]
        streams += [s for s, _ in level]
    return streams


# streams that raise today, and segment-closure streams that move sequence
# edges during a trace rewrite
DIGEST_EXTRA_STREAMS = ["aaaaaaaabaaab", "aaaaaaaabbaab", "ababababbbabb",
                        "cbdbcacbfhdbfhhcdhbh", "adehedhdadcgedbbegd",
                        "debgdfdefbahdffdh", "cdgahghcdebafhfghgd"]

# a behaviour change updates this digest and argues the change in CHANGES.md
CHUNKER_DIGEST = "b1276667aa2cdd3108bebf28231e320612f8ffe98579a4d7878f5c64acfe511d"


def chunker_digest() -> str:
    """One sha256 over the stream, snapshot bytes and event lines of every
    corpus stream; for a stream that raises, its exception instead."""
    rng = random.Random("chunker-digest")
    corpus = (canonical_streams(12, "ab") + canonical_streams(8, "abc")
              + DIGEST_EXTRA_STREAMS
              + ["".join(rng.choice("abcdefgh") for _ in range(rng.randint(16, 20)))
                 for _ in range(400)])
    digest = hashlib.sha256()
    for stream in corpus:
        digest.update(f"stream {stream}\n".encode())
        chunker = Chunker(make_net(), ChunkerParams())
        try:
            chunker.observe_stream(stream)
        except TnetError as exc:
            digest.update(f"raised {type(exc).__name__}: {exc}\n".encode())
            continue
        digest.update(snapshot_json(snapshot_from_net(chunker.net)).encode())
        for line in _event_lines(chunker.events):
            digest.update(f"{line}\n".encode())
    return digest.hexdigest()


def test_chunker_behaviour_digest_is_pinned():
    assert chunker_digest() == CHUNKER_DIGEST
