"""Online stream segmentation: working-memory buffering and chunk formation.

The chunker watches a symbol stream through a small sliding window and grows
chunk nodes in the network three ways:

* a span that repeats inside the window matures into a chunk once the stream
  stops extending it (repeat tracking);
* a span that walks a known chunk's label commits that chunk the moment the
  match completes (prefix matching), and a partial match against a still-
  plastic trace splits the trace into matched prefix and remainder;
* when a run of never-seen symbols confirms that a data era has ended, the
  spans left between committed chunks are consolidated: co-resident units
  that tile into shared blocks are decomposed (the back/pack effect), the
  rest are chunked whole, and the era's chunk-to-chunk transitions are
  credited as sequence edges.

Weight bookkeeping rides on the substrate: every credit is an
``update_weight`` call, every tick ends with the standard decay phase, so
segmentation competes against forgetting exactly like everything else.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Container
from dataclasses import dataclass
from itertools import combinations

from .errors import TopologyError
from .substrate import Network, NodeKind

# ---------------------------------------------------------------------------
# parameters and small records
# ---------------------------------------------------------------------------


@dataclass
class ChunkerParams:
    """Working-memory constants.

    ``buffer_len``    sliding-window size W, in symbols
    ``l_min``         minimum chunk length; shorter spans are never chunked
    """

    buffer_len: int = 24
    l_min: int = 2

    def __post_init__(self) -> None:
        if self.l_min < 2:
            raise ValueError("l_min must be >= 2")
        if self.buffer_len < 2 * self.l_min:
            raise ValueError("buffer_len must be >= 2*l_min")


@dataclass(frozen=True)
class Commit:
    """One committed chunk occurrence in the stream."""
    label: str
    start: int
    end: int


@dataclass(frozen=True)
class Unit:
    """An unconsolidated span between committed chunks."""
    text: str
    start: int
    end: int


def _between(ticks: list[int], text: str, start: int, end: int) -> str:
    """The symbols at ticks ``start..end``, both ends included, of a window
    given as its tick list and its text.

    Window ticks strictly increase, so those symbols are one slice of the
    text, found by bisecting the ticks.
    """
    return text[bisect_left(ticks, start):bisect_right(ticks, end)]


@dataclass
class _Prefix:
    """State of the active label-walking match."""
    start: int
    text: str
    last_completed: Commit | None = None


# ---------------------------------------------------------------------------
# standalone operations
# ---------------------------------------------------------------------------

def _first_tilings(text: str, l_min: int,
                   shareable: Container[str]) -> dict[tuple[str, ...], tuple[str, ...]]:
    """The first tiling of ``text`` (lex order: shortest first block first)
    for each sorted tuple of its ``shareable`` blocks, in the order those
    first tilings come; every block is at least l_min long.

    Tilings are ordered by their block lengths, so the first tiling of a
    suffix for a key is the shortest head block whose rest has a tiling
    for the key less that head, then the first such tiling; the maps are
    built bottom-up, one per suffix.
    """
    n = len(text)
    firsts: list[dict[tuple[str, ...], tuple[str, ...]]] = [{} for _ in range(n)] + [{(): ()}]
    for i in range(n - l_min, -1, -1):
        found = firsts[i]
        for j in range(i + l_min, n + 1):
            head = text[i:j]
            shared = head in shareable
            for key, rest in firsts[j].items():
                if shared:
                    key = tuple(sorted(key + (head,)))
                if key not in found:
                    found[key] = (head,) + rest
    return firsts[0]


@dataclass(frozen=True)
class Decomposition:
    blocks_a: tuple[str, ...]
    blocks_b: tuple[str, ...]
    shared: tuple[str, ...]

    @property
    def shared_length(self) -> int:
        return sum(len(b) for b in self.shared)


def decompose_units(text_a: str, text_b: str, l_min: int) -> Decomposition | None:
    """Best joint tiling of two spans into blocks with maximal shared length.

    Both tilings must be exact (no leftover symbols) and every block must be
    at least ``l_min`` long; shorter residues invalidate a tiling, which is
    what rejects e.g. a shared "8136" between "98136"/"28136" in favour of
    the shared "136" with residues "98"/"28".  Returns None when no tiling
    shares anything.  Ties prefer more shared blocks, then leftmost (lex
    enumeration order: ``text_a``'s tiling first, then ``text_b``'s).

    The search is exact, but it skips what cannot change the answer.
    A pairing's outcome depends only on the multiset of blocks the two
    tilings could share, and the first tiling with a multiset wins every
    tie against later ones, so each side builds only its first tiling per
    multiset (``_first_tilings``), never the others.
    Each tiling of ``text_a`` is paired only with the tilings of ``text_b``
    that hold one of its blocks, in enumeration order, and is skipped
    outright when even sharing all such blocks could not beat the best
    pairing so far.

    Every shared block is at least ``l_min`` long, so it starts with an
    ``l_min``-gram of both spans: with no such common gram, or no tiling of
    ``text_b`` holding a block of ``text_a``, nothing is enumerated further.
    """
    if text_a == text_b:
        block = (text_a,)
        return Decomposition(block, block, block)
    if not any(text_b[i:i + l_min] in text_a for i in range(len(text_b) - l_min + 1)):
        return None
    tilings_b: list[tuple[str, ...]] = []
    counts_b: list[Counter[str]] = []
    holders: dict[str, list[int]] = {}       # block -> tilings of b holding it
    for key, tb in _first_tilings(text_b, l_min, text_a).items():
        if key:
            for block in dict.fromkeys(key):
                holders.setdefault(block, []).append(len(tilings_b))
            tilings_b.append(tb)
            counts_b.append(Counter(key))
    if not holders:
        return None
    best: Decomposition | None = None
    best_len = best_count = 0
    for key, ta in _first_tilings(text_a, l_min, holders).items():
        if not key:
            continue
        counts_a = Counter(key)
        bound_len = sum(map(len, key))
        if bound_len < best_len or (bound_len == best_len and len(key) <= best_count):
            continue
        for k in sorted(set().union(*(holders[b] for b in counts_a))):
            counts = counts_b[k]
            shared = [block for block, m in counts_a.items()
                      for _ in range(min(m, counts.get(block, 0)))]
            length = sum(map(len, shared))
            if length > best_len or (length == best_len and len(shared) > best_count):
                best_len, best_count = length, len(shared)
                best = Decomposition(ta, tilings_b[k], tuple(sorted(shared)))
                if (length, len(shared)) == (bound_len, len(key)):
                    break
    return best


def allocate_chunk_node(net: Network, members: list[str], label: str) -> str:
    """Locate or create the chunk node bound to an ordered member group.

    Idempotent: a second call with the same label returns the same node.
    Creates in-edges from every member (with weight-0 reciprocals).
    """
    if not members:
        raise TopologyError("chunk allocation needs at least one member")
    if net.has_node(label):
        return label
    net.add_node(label, NodeKind.CHUNK)
    for member in dict.fromkeys(members):
        if member != label:
            net.ensure_edge(member, label)
    return label


def match(net: Network, fragment: str, prime: float = 0.5) -> list[tuple[str, float]]:
    """Rank chunk nodes by their response to a fragment.

    Response = prior activation + match strength, where match strength is the
    best shared-substring length normalized by the longer of fragment and
    label, scaled by ``prime``.  Exact matches beat partial matches at equal
    prior; higher prior breaks ties.  Side effect: responding chunks gain the
    match contribution as activation (priming).
    """
    results: list[tuple[str, float, float]] = []
    for node in net.chunk_nodes:
        if node.weight <= 0.0:
            continue
        label = node.id
        best = 0
        for length in range(min(len(fragment), len(label)), 0, -1):
            found = any(fragment[i:i + length] in label
                        for i in range(len(fragment) - length + 1))
            if found:
                best = length
                break
        if best == 0:
            continue
        strength = prime * best / max(len(fragment), len(label))
        prior = node.activation
        node.activation = min(net.params.a_max, prior + strength)
        results.append((label, prior + strength, prior))
    results.sort(key=lambda r: (-r[1], -r[2], r[0]))
    return [(label, response) for label, response, _ in results]


def order_variants(net: Network, a: str, b: str) -> tuple[str, str, str]:
    """Ensure the three order-coding chunk nodes for a pair.

    Returns (simultaneous, a-then-b, b-then-a) node ids.  The directional
    variants respond fully only to their own order; the simultaneous variant
    responds to any pairing, slightly staggered.
    """
    if a == b:
        raise TopologyError("order variants need two distinct nodes")
    net.node(a), net.node(b)
    ids = (f"{a}+{b}", f"{a}>{b}", f"{b}>{a}")
    for node_id in ids:
        if not net.has_node(node_id):
            net.add_node(node_id, NodeKind.CHUNK)
            net.ensure_edge(a, node_id)
            net.ensure_edge(b, node_id)
    return ids


# A pair event one tick apart resolves cleanly for the matching directional
# variant; the order-insensitive variant integrates either order with a
# one-tick stagger loss.
STAGGER_FACTOR = 0.75


def observe_pair(net: Network, a: str, b: str, order: str) -> None:
    """Feed one pair event: ``order`` is 'ab', 'ba', or 'sim'.

    The matching variant is credited fully, the simultaneous variant at the
    stagger factor (or fully for a simultaneous event, with the directional
    variants staggered).  One tick elapses.
    """
    sim, ab, ba = order_variants(net, a, b)
    p = net.params
    full, partial = p.dw, p.dw * STAGGER_FACTOR
    if order == "ab":
        credits = {ab: full, sim: partial}
    elif order == "ba":
        credits = {ba: full, sim: partial}
    elif order == "sim":
        credits = {sim: full, ab: partial, ba: partial}
    else:
        raise ValueError(f"unknown order {order!r}")
    for node_id, amount in credits.items():
        node = net.node(node_id)
        below = node.weight < p.theta
        net.update_weight(node, amount=amount)
        if below:
            net.bump_activation(node, 3)
    net.end_tick()


# ---------------------------------------------------------------------------
# the online chunker
# ---------------------------------------------------------------------------

class Chunker:
    """Single-writer online segmenter over one network and one buffer."""

    def __init__(self, net: Network, params: ChunkerParams | None = None) -> None:
        self.net = net
        self.cp = params if params is not None else ChunkerParams()
        # the buffer's ticks and its text, kept as symbols arrive and leave
        self._ticks: list[int] = []
        self._text: str = ""
        self.boundary: int = -1          # last consolidated stream position
        self.chain: list[Commit] = []
        self.pending: str | None = None
        self.pending_units: list[Unit] = []
        self.raw_starts: list[int] = []
        self.prefix: _Prefix | None = None
        self.quiet: int = 0
        self._tick_sym: dict[int, str] = {}
        self._sym_count: dict[str, int] = {}
        self._last_wild: bool = False
        self._wild_snapshot: tuple[list[int], str] | None = None
        self._prev_sym: str | None = None
        self.events: list[tuple[int, str, str, float]] = []

    # -- public API --------------------------------------------------------

    def observe(self, symbol: str) -> None:
        """Consume one stream symbol; exactly one tick elapses."""
        net = self.net
        tick = net.tick_count
        wild = not net.has_node(symbol)

        # Two first-occurrence symbols in a row confirm a noise run: the data
        # era is over, consolidate what it left behind.  The window evaluated
        # is the snapshot taken before the first noise symbol landed — the
        # era's evidence, untouched by eviction.
        if wild and self._last_wild and self._has_content():
            window = (self._wild_snapshot if self._wild_snapshot is not None
                      else (self._ticks, self._text))
            self._closure(*window)
        if wild:
            self._wild_snapshot = (self._ticks.copy(), self._text)
        else:
            self._wild_snapshot = None
        self._last_wild = wild

        self._ticks.append(tick)
        self._text += symbol
        self._tick_sym[tick] = symbol
        while len(self._ticks) > self.cp.buffer_len:
            evicted = self._ticks.pop(0)
            self._text = self._text[1:]
            # noise trimming reads one tick before the oldest tick of the
            # wild snapshot, which may still start at the evicted tick
            while (oldest := next(iter(self._tick_sym))) < evicted - 1:
                del self._tick_sym[oldest]
        self._sym_count[symbol] = self._sym_count.get(symbol, 0) + 1

        node = net.ensure_node(symbol, NodeKind.SENSORY)
        net.update_weight(node)
        net.bump_activation(node, 3)
        if self._prev_sym is not None and self._prev_sym != symbol:
            edge = net.ensure_edge(self._prev_sym, symbol)
            net.update_weight(edge)
        self._prev_sym = symbol

        self._prefix_step(symbol, tick)
        self._raw_step(symbol, tick)
        net.end_tick()

    def flush(self) -> None:
        """Stream end: resolve open matches and consolidate the final era."""
        self._finalize_prefix()
        if self._has_content():
            self._closure(self._ticks, self._text)
        self.raw_starts.clear()
        self.quiet = 0
        self._prev_sym = None
        self._last_wild = False
        self._wild_snapshot = None

    def observe_stream(self, symbols: str) -> None:
        for symbol in symbols:
            self.observe(symbol)
        self.flush()

    def fixated_chunks(self) -> set[str]:
        return {n.id for n in self.net.chunk_nodes if n.fixated}

    def buffer_text(self) -> str:
        return self._text

    # -- internals: matching -----------------------------------------------

    def _positive_labels(self) -> list[str]:
        return [n.id for n in self.net.chunk_nodes if n.weight > 0.0]

    def _log(self, kind: str, element: str, value: float) -> None:
        self.events.append((self.net.tick_count, kind, element, value))

    def _has_content(self) -> bool:
        if self.chain or self.pending or self.pending_units:
            return True
        return len(self._tail_span(self._ticks)) >= self.cp.l_min

    def _prefix_step(self, symbol: str, tick: int) -> None:
        labels = self._positive_labels()
        if self.prefix is None:
            if tick > self.boundary and any(l.startswith(symbol) for l in labels):
                self.prefix = _Prefix(start=tick, text=symbol)
                self._check_complete(labels, tick)
            return
        extended = self.prefix.text + symbol
        if any(l.startswith(extended) for l in labels):
            self.prefix.text = extended
            self._check_complete(labels, tick)
            return
        self._diverge(symbol, tick, labels)

    def _check_complete(self, labels: list[str], tick: int) -> None:
        run = self.prefix
        if run is None or run.text not in labels:
            return
        longer = any(l != run.text and l.startswith(run.text) for l in labels)
        occurrence = Commit(run.text, run.start, tick)
        if longer:
            run.last_completed = occurrence   # keep walking; commit on divergence
        else:
            self.prefix = None
            self._commit(occurrence)

    def _diverge(self, symbol: str, tick: int, labels: list[str]) -> None:
        run = self.prefix
        assert run is not None
        self.prefix = None
        matched, l_min = run.text, self.cp.l_min
        if run.last_completed is not None:
            done = run.last_completed
            self._commit(done)
            # re-feed what the abandoned extension consumed
            self._replay(done.end + 1, tick)
        elif len(matched) >= l_min and (traces := [
                l for l in labels
                if l.startswith(matched) and len(l) - len(matched) >= l_min
                and not self.net.node(l).fixated]):
            trace = max(traces, key=lambda l: (self.net.node(l).weight, l))
            self._split_trace(trace, matched, run.start, tick - 1)
        elif len(matched) > 1:
            # nothing to salvage: retry the match from inside the failed span
            self._replay(run.start + 1, tick)
        # then the diverging symbol itself
        self._prefix_step(symbol, tick)

    def _replay(self, start: int, end: int) -> None:
        """Re-feed the buffered symbols at ticks ``start..end-1`` to the
        matcher; a tick that passed without a symbol has nothing to re-feed."""
        for t, sym in zip(self._ticks, self._text):
            if start <= t < end:
                self._prefix_step(sym, t)

    def _split_trace(self, trace: str, matched: str, start: int, end: int) -> None:
        """Partial match against a plastic trace rewrites it into two blocks.

        Both blocks inherit the trace's weight and earn a boosted rewrite
        credit; the trace itself is emptied.  The observed prefix block is
        committed at its position.
        """
        net = self.net
        remainder = trace[len(matched):]
        trace_node = net.node(trace)
        inherited = trace_node.weight
        for block in (matched, remainder):
            self._inherit(self._ensure_chunk(block), inherited)
            self._credit_chunk(block, boost=True, occurrence=False)
        edge = net.ensure_edge(matched, remainder)
        net.update_weight(edge, boost=True)
        self._transfer_sequence_edges(trace, first=matched, last=remainder)
        net.transfer_weight(trace_node, 0.0)
        self._log("split", trace, inherited)
        self._commit(Commit(matched, start, end))

    def _finalize_prefix(self) -> None:
        run = self.prefix
        self.prefix = None
        if run is None:
            return
        labels = self._positive_labels()
        if run.text in labels:
            self._commit(Commit(run.text, run.start,
                                run.start + len(run.text) - 1))
        elif run.last_completed is not None:
            self._commit(run.last_completed)

    # -- internals: repeat tracking ----------------------------------------

    def _occurs_earlier(self, span_start: int, span_end: int) -> bool:
        """Is there a non-overlapping earlier copy of the span, after the
        boundary, inside the buffer?

        A copy is a hit of the span's text whose symbols fill the same number
        of ticks as the span, with no more and no fewer ticks between them.
        """
        ticks, buffered = self._ticks, self._text
        text = _between(ticks, buffered, span_start, span_end)
        length = span_end - span_start + 1
        i = buffered.find(text, bisect_right(ticks, self.boundary)) if text else -1
        while i >= 0 and (t1 := ticks[i] + length - 1) < span_start:
            if bisect_right(ticks, t1, i) == i + len(text):
                return True
            i = buffered.find(text, i + 1)
        return False

    def _raw_step(self, symbol: str, tick: int) -> None:
        l_min = self.cp.l_min
        survivors: list[int] = []
        proposal: str | None = None
        for start in self.raw_starts:
            if start <= self.boundary:
                continue
            if self._occurs_earlier(start, tick):
                survivors.append(start)
                continue
            dead_len = tick - start        # span without the new symbol
            if dead_len >= l_min:
                pattern = _between(self._ticks, self._text, start, tick - 1)
                if len(pattern) == dead_len and (proposal is None or dead_len > len(proposal)):
                    proposal = pattern
        if tick > self.boundary and self._occurs_earlier(tick, tick):
            survivors.append(tick)
        self.raw_starts = survivors

        if proposal is not None and (self.pending is None or len(proposal) > len(self.pending)):
            self.pending = proposal
            self.quiet = 0
        if self.pending is not None:
            longest_live = max((tick - s + 1 for s in survivors), default=0)
            if longest_live > len(self.pending):
                self.pending = None
                self.quiet = 0
            elif longest_live >= l_min:
                self.quiet = 0
            else:
                self.quiet += 1
                if self.quiet >= l_min:
                    self._commit_pending(self._ticks, self._text)
        else:
            self.quiet = 0

    def _commit_pending(self, ticks: list[int], text: str) -> None:
        pattern = self.pending
        self.pending = None
        self.quiet = 0
        if pattern is None:
            return
        length = len(pattern)
        pos = 0
        while pos < len(ticks):
            t0 = ticks[pos]
            if t0 <= self.boundary:
                pos += 1
                continue
            t1 = t0 + length - 1
            if _between(ticks, text, t0, t1) == pattern and t1 <= ticks[-1]:
                self._commit(Commit(pattern, t0, t1))
                pos += length
            else:
                pos += 1

    # -- internals: committing ---------------------------------------------

    def _ensure_chunk(self, label: str):
        """The chunk node labelled ``label``, allocated on first use."""
        if not self.net.has_node(label):
            allocate_chunk_node(self.net, list(label), label)
        return self.net.node(label)

    def _inherit(self, element, weight: float) -> None:
        """Add ``weight`` to a plastic element; a fixated one keeps its own."""
        if not element.fixated:
            self.net.transfer_weight(element, element.weight + weight)

    def _credit_chunk(self, label: str, *, boost: bool, occurrence: bool = True) -> None:
        """One weight credit to a chunk node and its member edges."""
        net = self.net
        node = self._ensure_chunk(label)
        net.update_weight(node, boost=boost)
        net.bump_activation(node, 3)
        for member in dict.fromkeys(label):
            if member != label and net.has_node(member):
                net.update_weight(net.edge(member, label))
        self._log("chunk", label, node.weight)
        if node.fixated and occurrence:
            self._log("fixate", label, node.weight)

    def _commit(self, occurrence: Commit) -> None:
        """Book one chunk occurrence: credit, record, advance the boundary."""
        if occurrence.start <= self.boundary:
            return
        net = self.net
        node = self._ensure_chunk(occurrence.label)
        boost = (node.weight < net.params.theta
                 and self._preceded_by_fixated_entry(self.chain, occurrence.start))
        # the gap this commit closes off becomes a pending unit
        if self.chain and occurrence.start > self.chain[-1].end + 1:
            self._record_gap_unit(self.chain[-1].end + 1, occurrence.start - 1)
        self._credit_chunk(occurrence.label, boost=boost)
        self.chain.append(occurrence)
        self.boundary = occurrence.end

    def _record_gap_unit(self, start: int, end: int) -> None:
        unit = self._unit(self._trim_noise(start, end, self._ticks), self._ticks, self._text)
        if unit is not None:
            self.pending_units.append(unit)

    def _unit(self, span: list[int], ticks: list[int], text: str) -> Unit | None:
        """The unit over ``span``, a run of consecutive ticks of the window
        given as ``ticks`` and ``text``, if it is at least l_min long."""
        if span and span[-1] - span[0] + 1 >= self.cp.l_min:
            return Unit(_between(ticks, text, span[0], span[-1]), span[0], span[-1])
        return None

    def _wild_at(self, tick: int) -> bool:
        """A tick is wild while its symbol has been seen at most once so far."""
        sym = self._tick_sym.get(tick)
        return sym is not None and self._sym_count.get(sym, 0) <= 1

    def _trim_noise(self, start: int, end: int, ticks: list[int]) -> list[int]:
        """Drop noise ticks from a window's ``ticks`` in ``start..end``; keep
        the longest contiguous run.

        A one-off symbol next to another one-off symbol is noise; an isolated
        one flanked by recurring symbols is data.
        """
        keep: list[int] = []
        for t in ticks[bisect_left(ticks, start):bisect_right(ticks, end)]:
            if self._wild_at(t) and (self._wild_at(t - 1) or self._wild_at(t + 1)):
                continue
            keep.append(t)
        best: list[int] = []
        run: list[int] = []
        for t in keep:
            if run and t != run[-1] + 1:
                if len(run) > len(best):
                    best = run
                run = []
            run.append(t)
        if len(run) > len(best):
            best = run
        return best

    def _tail_span(self, ticks: list[int]) -> list[int]:
        if not ticks:
            return []
        return self._trim_noise(self.boundary + 1, ticks[-1], ticks)

    # -- internals: closure -------------------------------------------------

    def _transfer_sequence_edges(self, trace: str, *, first: str, last: str) -> None:
        """Move a rewritten trace's chunk-to-chunk edges onto its blocks."""
        net = self.net
        for src, edge in list(net.in_edges(trace, positive=True).items()):
            if net.nodes[src].kind is NodeKind.CHUNK and src not in (first, last):
                self._inherit(net.ensure_edge(src, first), edge.weight)
                net.transfer_weight(edge, 0.0)
        for dst, edge in list(net.out_edges(trace, positive=True).items()):
            if net.nodes[dst].kind is NodeKind.CHUNK and dst not in (first, last):
                self._inherit(net.ensure_edge(last, dst), edge.weight)
                net.transfer_weight(edge, 0.0)

    def _rewrite_trace(self, trace: str, tiling: tuple[str, ...]) -> None:
        """Decompose a plastic trace into blocks that inherit its weight."""
        net = self.net
        trace_node = net.node(trace)
        inherited = trace_node.weight
        for block in tiling:
            self._inherit(self._ensure_chunk(block), inherited)
            self._credit_chunk(block, boost=True, occurrence=False)
        for left, right in zip(tiling, tiling[1:]):
            if left != right:
                edge = net.ensure_edge(left, right)
                net.update_weight(edge, boost=True)
        self._transfer_sequence_edges(trace, first=tiling[0], last=tiling[-1])
        net.transfer_weight(trace_node, 0.0)
        self._log("split", trace, inherited)

    def _closure(self, ticks: list[int], buffered: str) -> None:
        """Era consolidation over a window snapshot, given as its tick list
        and its text."""
        net = self.net
        if self.pending is not None:
            self._commit_pending(ticks, buffered)
        units, self.pending_units = self.pending_units, []
        tail = self._unit(self._tail_span(ticks), ticks, buffered)
        if tail is not None:
            units.append(tail)

        groups: dict[str, list[Unit]] = {}
        for unit in units:
            groups.setdefault(unit.text, []).append(unit)

        entries: list[Commit] = list(self.chain)

        # Decomposition: pit unit groups against each other and against
        # still-plastic traces; the pairing sharing the most material wins.
        # Trace pairings are preferred on ties — a known trace explaining a
        # new span beats two new spans explaining each other.
        tilings: dict[str, tuple[str, ...]] = {}
        # decompose_units is pure: each pairing is decomposed once per closure
        decomposed: dict[tuple[str, str], Decomposition | None] = {}
        while True:
            undecided = [text for text in sorted(groups) if text not in tilings]
            if not undecided:
                break
            traces = [trace for trace in sorted(self._positive_labels())
                      if not net.node(trace).fixated and trace not in groups]
            # a trace pairing must split the unit, a unit pairing either
            # unit; every key differs, so visiting order cannot matter
            pairings = [(1, text, trace) for text in undecided for trace in traces]
            pairings += [(0, a, b) for a, b in combinations(undecided, 2)]
            best: tuple | None = None
            for is_trace, text_a, text_b in pairings:
                if (text_a, text_b) not in decomposed:
                    decomposed[text_a, text_b] = decompose_units(text_a, text_b, self.cp.l_min)
                dec = decomposed[text_a, text_b]
                if dec is None or len(dec.blocks_a) == 1 and (is_trace or len(dec.blocks_b) == 1):
                    continue
                key = (dec.shared_length, len(dec.shared), is_trace, text_a, text_b)
                if best is None or key > best[0]:
                    best = (key, dec)
            if best is None:
                break
            (_, _, is_trace, text_a, text_b), dec = best
            tilings[text_a] = dec.blocks_a
            if is_trace:
                self._rewrite_trace(text_b, dec.blocks_b)
            else:
                tilings[text_b] = dec.blocks_b

        for text in sorted(groups):
            occurrences = sorted(groups[text], key=lambda u: u.start)
            if text in tilings:
                for unit in occurrences:
                    pos = unit.start
                    for block in tilings[text]:
                        self._credit_chunk(block, boost=True)
                        entries.append(Commit(block, pos, pos + len(block) - 1))
                        pos += len(block)
            elif len(occurrences) >= 2:
                for unit in occurrences:
                    self._credit_chunk(text, boost=False)
                    entries.append(Commit(text, unit.start, unit.end))
            else:
                unit = occurrences[0]
                boost = self._preceded_by_fixated_entry(entries, unit.start)
                self._credit_chunk(text, boost=boost)
                entries.append(Commit(text, unit.start, unit.end))

        entries.sort(key=lambda c: c.start)
        for left, right in zip(entries, entries[1:]):
            if left.label != right.label and left.end + 1 == right.start:
                edge = net.ensure_edge(left.label, right.label)
                net.update_weight(edge)
                self._log("sequence", edge.id, edge.weight)

        if entries:
            self.boundary = max(self.boundary, entries[-1].end)
        if units:
            self.boundary = max(self.boundary, max(u.end for u in units))
        self.chain = []
        self.raw_starts = []
        self.prefix = None
        self.quiet = 0
        self._log("closure", "era", float(len(entries)))

    def _preceded_by_fixated_entry(self, entries: list[Commit], start: int) -> bool:
        for commit in entries:
            if commit.end == start - 1:
                node = self.net.nodes.get(commit.label)
                if node is not None and node.fixated:
                    return True
        return False
