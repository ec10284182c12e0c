"""Network computation models: a DAG with sources, one sink, and a target function.

A :class:`NetworkModel` bundles a finite directed acyclic multigraph, an
ordered list of source nodes, a single sink node, a finite alphabet
``{0, ..., q-1}`` shared by all sources, the target function as a flat value
table over source tuples, and a strictly positive joint source distribution.
Symbols observed at the sources are i.i.d. across shots, so a block of k
observations is a k-row matrix with one column per source.

The cut machinery lives here as well: for an edge set C,
:func:`analyze_cut` computes which sources can feed C (K), which sources
are disconnected from the sink once C is removed (I), and the
side-information remainder (J = K - I).  :func:`enumerate_strong_partitions`
lists the partitions of a cut set whose blocks each disconnect at least one
source while staying pairwise non-interfering (no block disconnects a source
that can feed another block); those partitions are what the bound machinery
iterates over.

Both enumerations work on bitmasks.  A per-model context, built once from
one topological order (Kahn's algorithm) and kept on the model, answers
every directed-graph question: building it is the acyclicity check, one
backward pass finds the nodes that feed the sink, and it holds each edge's
K as a source mask and computes I of an edge mask in one O(E) forward pass,
cached by mask in a memo that is emptied at ``I_CACHE_CAP`` masks.  It also
shares one frozenset per source mask among all cut sets and partitions, and
keeps the vertex tables that :mod:`chargraph` builds once per source order
(:func:`model_memo`), emptied at the same cap.
Cut sets stream: :func:`enumerate_cut_sets` checks its arguments and the
edge cap at once, then yields each cut set as it is reached, so a consumer
can stop, or refuse, before the rest is built.  I only grows as a cut
grows, so the walk skips every extension of an edge set whose I stays empty
even with all the edges that could still join it.

The strong-partition search emits the one-block partition first.  Call
a source's carrier E_s the set of cut edges whose K holds it.  The search
rests on one lemma: for B inside C, every source s of I(C) with E_s inside
B is in I(B), since a path from s that avoids B must cross C at an edge
that s feeds.  Conversely, non-interference keeps a source of I(B_a) out of
the other blocks' K, so every edge that carries it lies in B_a: each block
of a strong partition has I(B_a) = {s in I(C) : E_s inside B_a}.  So two
blocks need two sources of I(C) with disjoint carriers, and the search
looks for more than one block only when |I(C)| >= 2 and two such sources
exist; it runs on the edge mask and I that the cut walk already holds.
It then assigns the cut's edges, in sorted id order, to blocks by
backtracking, which yields restricted-growth-string order.  It prunes a
branch on three sound grounds:

* block cap: I of a block lies inside its K and is non-empty, and
  non-interference makes the blocks' I pairwise disjoint subsets of I(C),
  so there are at most |I(C)| blocks;
* interference: I and K only grow as edges join a block, so two partial
  blocks that interfere stay interfering.  Only the block that just grew
  can start to interfere, so each step asks for one I;
* lookahead: a block can only gain the unassigned edges and the other
  blocks' K only grows, so every completion leaves the block with an empty
  or interfering I unless some source of I(C) lies outside the other
  blocks' current K.  By the lemma that set is I(block + unassigned edges)
  minus the other blocks' K, and it needs no I lookup.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .errors import (
    BadDistribution,
    ConstantFunction,
    CycleDetected,
    NotACutSet,
    SinkHasOutEdge,
    SizeCapError,
    SourceHasInEdge,
    TooLarge,
    UnknownEdgeId,
    UnreachableNode,
    UsageError,
)

T = TypeVar("T")

Assignment = tuple[tuple[int, ...], ...]
"""One k-shot observation block: a k-tuple of symbols per source, source-major."""


class Edge(NamedTuple):
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class NetworkModel:
    """Immutable network description.

    ``function_table`` lists the target value for every source tuple in
    lexicographic order with the first source most significant.
    ``distribution`` is aligned the same way and must be strictly positive.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    sources: tuple[str, ...]
    sink: str
    alphabet_size: int
    function_table: tuple[Hashable, ...]
    distribution: tuple[float, ...]

    def __getstate__(self) -> dict:
        # The cut context and its I memo are rebuilt on first use by the copy.
        return {k: v for k, v in self.__dict__.items() if k != "_context"}

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def symbols(self) -> range:
        return range(self.alphabet_size)

    def in_edges(self, node: str) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.head == node)

    def arg_index(self, xs: Sequence[int]) -> int:
        """Row index of a full source tuple, first source most significant."""
        idx = 0
        for x in xs:
            idx = idx * self.alphabet_size + x
        return idx

    def f_rows(self, columns: Mapping[str, tuple[int, ...]], k: int) -> tuple[Hashable, ...]:
        """Row-wise target values for a k-shot block keyed by source id."""
        cols = [columns[s] for s in self.sources]
        return tuple(
            self.function_table[self.arg_index([c[r] for c in cols])] for r in range(k)
        )


class CutAnalysis(NamedTuple):
    """Source sets attached to an edge set C.

    ``k_set`` holds the sources with a directed path (possibly of length
    zero) to the tail of some edge of C, ``i_set`` the sources disconnected
    from the sink once C is deleted, and ``j_set`` their difference: sources
    that can feed C but still reach the sink without it.
    """

    cut: tuple[str, ...]
    k_set: frozenset[str]
    i_set: frozenset[str]
    j_set: frozenset[str]
    is_global: bool

    @property
    def is_cut_set(self) -> bool:
        return bool(self.i_set)


class StrongPartition(NamedTuple):
    """A partition of a cut set into pairwise non-interfering blocks.

    Every block disconnects at least one source on its own, and no source
    disconnected by one block can feed a different block.  ``i_sets`` is
    aligned with ``blocks``; ``l_set`` collects the sources disconnected by
    the whole cut but by none of the blocks individually.
    """

    cut: CutAnalysis
    blocks: tuple[tuple[str, ...], ...]
    i_sets: tuple[frozenset[str], ...]
    l_set: frozenset[str]

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def is_trivial(self) -> bool:
        return len(self.blocks) == 1


# -- construction and serialization ------------------------------------------


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool); otherwise raise UsageError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return value


def json_list(value, what: str) -> list:
    """``value`` if it is a JSON list; otherwise raise UsageError."""
    if not isinstance(value, list):
        raise UsageError(f"{what} must be a list, got {value!r}")
    return value


def json_numbers(value, what: str) -> list:
    """``value`` if it is a JSON list of numbers (not bools); otherwise raise UsageError."""
    for x in json_list(value, what):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise UsageError(f"{what} entries must be numbers, got {x!r}")
    return value


def model_from_dict(doc: Mapping) -> NetworkModel:
    """Build a model from its JSON document form.  Schema errors raise UsageError."""
    try:
        q = json_int(doc["alphabet"], "alphabet")
        nodes = tuple(str(n) for n in json_list(doc["nodes"], "nodes"))
        edges = tuple(
            Edge(str(e["id"]), str(e["tail"]), str(e["head"]))
            for e in json_list(doc["edges"], "edges")
        )
        sources = tuple(str(s) for s in json_list(doc["sources"], "sources"))
        sink = str(doc["sink"])
        table = tuple(json_list(doc["function"], "function"))
        dist = tuple(float(p) for p in json_numbers(doc["distribution"], "distribution"))
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed model document: {exc}") from exc

    if q < 2:
        raise UsageError("alphabet size must be at least 2")
    for n, v in enumerate(table):
        if not isinstance(v, Hashable):
            raise UsageError(f"function table entry {n} must be a JSON scalar, got {v!r}")
    if len(set(nodes)) != len(nodes):
        raise UsageError("duplicate node names")
    if len({e.id for e in edges}) != len(edges):
        raise UsageError("duplicate edge ids")
    known = set(nodes)
    for e in edges:
        if e.tail not in known or e.head not in known:
            raise UsageError(f"edge {e.id} references unknown node")
    if not sources:
        raise UsageError("at least one source is required")
    if len(set(sources)) != len(sources):
        raise UsageError("duplicate sources")
    if any(s not in known for s in sources) or sink not in known:
        raise UsageError("sources and sink must be nodes")
    if sink in sources:
        raise UsageError("the sink cannot be a source")
    # The size is written as a power: q^s in decimal can pass the int-to-str
    # digit limit.  As q >= 2, an s at or past a length's bit length gives a
    # q^s over it, so that power is never formed.
    s = len(sources)
    for what, entries in (("function table", table), ("distribution", dist)):
        if s >= len(entries).bit_length() or q**s != len(entries):
            raise UsageError(f"{what} must have {q}^{s} entries, got {len(entries)}")
    return NetworkModel(nodes, edges, sources, sink, q, table, dist)


def model_to_dict(model: NetworkModel) -> dict:
    return {
        "alphabet": model.alphabet_size,
        "nodes": list(model.nodes),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in model.edges],
        "sources": list(model.sources),
        "sink": model.sink,
        "function": list(model.function_table),
        "distribution": list(model.distribution),
    }


def read_json(path: str):
    """The JSON document in a UTF-8 file; a bad file raises UsageError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc


def load_model(path: str) -> NetworkModel:
    return model_from_dict(read_json(path))


# -- validation ---------------------------------------------------------------


def validate(model: NetworkModel) -> NetworkModel:
    """Check the structural and probabilistic invariants; return the model.

    Check order matters for documented diagnostics: sink out-edges are
    reported before source in-edges, cycles, and reachability.  The cycle
    and reachability checks come from the model's bitmask context, so a
    valid model keeps it for the cut machinery.
    """
    if model.sink in model.sources:
        raise UsageError("the sink cannot be a source")
    for e in model.edges:
        if e.tail == model.sink:
            raise SinkHasOutEdge(e.id)
    for e in model.edges:
        if e.head in model.sources:
            raise SourceHasInEdge(f"{e.id} enters source {e.head}")
    feeds_sink = _context(model).feeds_sink()
    for n in model.nodes:
        if n not in feeds_sink:
            raise UnreachableNode(n)
    total = 0.0
    for p in model.distribution:
        if not p > 0.0:
            raise BadDistribution(f"mass {p} is not strictly positive")
        total += p
    if abs(total - 1.0) > 1e-12:
        raise BadDistribution(f"mass sums to {total!r}")
    if len(set(model.function_table)) < 2:
        raise ConstantFunction("target function takes a single value")
    return model


# -- per-model bitmask context ----------------------------------------------------


def _topological_order(model: NetworkModel) -> tuple[str, ...]:
    """Kahn's algorithm; raise CycleDetected naming one cycle if there is one.

    Ready nodes are taken first in, first out, starting in ``model.nodes``
    order, and each node's successors in the order of their first edge, so
    the order depends on the model alone.
    """
    indegree = dict.fromkeys(model.nodes, 0)
    successors: dict[str, dict[str, int]] = {n: {} for n in model.nodes}
    for e in model.edges:
        indegree[e.head] += 1
        out = successors[e.tail]
        out[e.head] = out.get(e.head, 0) + 1
    order = [n for n in model.nodes if not indegree[n]]
    for n in order:  # grows while it is walked
        for head, count in successors[n].items():
            indegree[head] -= count
            if not indegree[head]:
                order.append(head)
    if len(order) == len(model.nodes):
        return tuple(order)
    # Every left-over node keeps an in-edge from another left-over node, so
    # walking such in-edges backwards must revisit a node: that closes a cycle.
    left = {n for n, d in indegree.items() if d}
    back: dict[str, str] = {}
    for e in model.edges:
        if e.tail in left:
            back.setdefault(e.head, e.tail)
    walk = [next(n for n in model.nodes if n in left)]
    while walk[-1] not in walk[:-1]:
        walk.append(back[walk[-1]])
    cycle = walk[walk.index(walk[-1]) + 1 :][::-1]
    first = cycle.index(min(cycle, key=model.nodes.index))
    raise CycleDetected(" -> ".join(cycle[first:] + cycle[:first]))


# Most I values, and most shared vertex tables, one model context keeps memoized.
I_CACHE_CAP = 1 << 14


class _Context:
    """Bitmask view of one model, built once from a topological order.

    Building it is the package's acyclicity check.  Edge ``model.edges[b]``
    is bit ``b`` of an edge mask and source ``model.sources[s]`` is bit
    ``s`` of a source mask.  ``k_edge[b]`` is K of edge ``b`` alone, so K of
    an edge set is the OR over its edges.
    """

    def __init__(self, model: NetworkModel):
        self.topo = _topological_order(model)
        pos = {n: i for i, n in enumerate(self.topo)}
        self.all_sources = (1 << len(model.sources)) - 1
        self.bit = {e.id: b for b, e in enumerate(model.edges)}
        # (tail, edge bit, head) by the topological position of the tail: one
        # pass in this order sees every node's in-edges before its out-edges.
        self._flow = sorted(
            (pos[e.tail], 1 << b, pos[e.head]) for b, e in enumerate(model.edges)
        )
        self._seed = [0] * len(self.topo)
        for s, name in enumerate(model.sources):
            self._seed[pos[name]] = 1 << s
        self._sink = pos[model.sink]
        reach = self._reach(0)
        self.k_edge = tuple(reach[pos[e.tail]] for e in model.edges)
        # The carrier of source s: the edges whose K holds s.
        self.carrier = tuple(
            sum(1 << b for b, k in enumerate(self.k_edge) if k >> s & 1)
            for s in range(len(model.sources))
        )
        self._i_cache: dict[int, int] = {}
        self.tables: dict[Hashable, object] = {}
        # The cut set the walk yielded last, with its edge mask and I: the
        # strong-partition search on that same object starts from them.
        self.walked: tuple[CutAnalysis | None, int, int] = (None, 0, 0)
        self.sets = _SourceSets(model.sources)

    def _reach(self, cut: int) -> list[int]:
        """Per node (topological index), the sources reaching it around ``cut``."""
        reach = list(self._seed)
        for tail, bit, head in self._flow:
            if not cut & bit:
                reach[head] |= reach[tail]
        return reach

    def feeds_sink(self) -> frozenset[str]:
        """The nodes with a directed path, possibly of length zero, to the sink."""
        feeds = [False] * len(self.topo)
        feeds[self._sink] = True
        # Backwards, every edge out of a node comes before the node's in-edges.
        for tail, _, head in reversed(self._flow):
            feeds[tail] |= feeds[head]
        return frozenset(n for n, f in zip(self.topo, feeds) if f)

    def i_mask(self, cut: int) -> int:
        """I of an edge mask: the sources that no longer reach the sink.

        Memoized: the cut walk stores I of every edge set it reaches and
        the strong-partition search reads them back.  The memo is emptied
        when it reaches ``I_CACHE_CAP`` masks.
        """
        i = self._i_cache.get(cut)
        if i is None:
            if len(self._i_cache) >= I_CACHE_CAP:
                self._i_cache.clear()
            i = self._i_cache[cut] = self.all_sources & ~self._reach(cut)[self._sink]
        return i

    def splits(self, cut: int, i: int) -> bool:
        """Whether two sources of ``i`` have disjoint carriers inside ``cut``."""
        carriers: list[int] = []
        for s, c in enumerate(self.carrier):
            if i >> s & 1:
                c &= cut
                for d in carriers:
                    if not c & d:
                        return True
                carriers.append(c)
        return False

    def analysis(self, ids: tuple[str, ...], k: int, i: int) -> CutAnalysis:
        sets = self.sets
        return CutAnalysis(ids, sets[k], sets[i], sets[k & ~i], i == self.all_sources)


class _SourceSets(dict):
    """Source mask -> the frozenset of its sources, one shared set per mask."""

    def __init__(self, sources: tuple[str, ...]):
        super().__init__()
        self.sources = sources

    def __missing__(self, mask: int) -> frozenset[str]:
        sources = self[mask] = frozenset(s for b, s in enumerate(self.sources) if mask >> b & 1)
        return sources


def model_memo(model: NetworkModel, key: Hashable, make: Callable[[], T]) -> T:
    """``make()``, made once per ``key`` and kept in the model's context.

    The table is emptied when it holds ``I_CACHE_CAP`` entries, before the
    new one joins, so a long-lived process keeps no table of a dropped
    model and a bounded number of a live one.
    """
    tables = _context(model).tables
    try:
        return tables[key]
    except KeyError:
        value = make()
        if len(tables) >= I_CACHE_CAP:
            tables.clear()
        tables[key] = value
        return value


def _context(model: NetworkModel) -> _Context:
    """The model's bitmask context, built on first use and kept on the model."""
    try:
        return model.__dict__["_context"]
    except KeyError:
        ctx = _Context(model)
        object.__setattr__(model, "_context", ctx)
        return ctx


# -- cut analysis -------------------------------------------------------------


EDGE_CAP = 20
"""Most edges a model may have for its cut sets to be enumerated."""


def analyze_cut(model: NetworkModel, cut: Iterable[str]) -> CutAnalysis:
    """Classify the sources relative to the edge set ``cut``."""
    ids = tuple(sorted(set(cut)))
    ctx = _context(model)
    mask = k = 0
    for eid in ids:
        b = ctx.bit.get(eid)
        if b is None:
            raise UnknownEdgeId(eid)
        mask |= 1 << b
        k |= ctx.k_edge[b]
    return ctx.analysis(ids, k, ctx.i_mask(mask))


def enumerate_cut_sets(model: NetworkModel, max_size: int | None = None) -> Iterator[CutAnalysis]:
    """All cut sets up to ``max_size`` edges, in lexicographic edge-id order.

    The cut sets stream: each is analysed when the iterator reaches it.
    Enumeration is exponential in the edge count, so models with more than
    ``EDGE_CAP`` edges are refused, before the first cut set.
    """
    m = len(model.edges)
    if m > EDGE_CAP:
        raise TooLarge(f"{m} edges exceeds the cut enumeration cap of {EDGE_CAP}")
    if max_size is None:
        max_size = m
    if not 1 <= max_size <= m:
        raise UsageError(f"max_size must be in 1..{m}")
    return _cut_sets(_context(model), max_size)


def _cut_sets(ctx: _Context, max_size: int) -> Iterator[CutAnalysis]:
    ids = sorted(ctx.bit)
    m = len(ids)
    bits = [1 << ctx.bit[eid] for eid in ids]
    kbits = [ctx.k_edge[ctx.bit[eid]] for eid in ids]
    later = [0] * (m + 1)  # later[j]: the mask of edges j.. in id order
    for j in range(m - 1, -1, -1):
        later[j] = later[j + 1] | bits[j]
    i_mask, analysis = ctx.i_mask, ctx.analysis

    # Depth-first over subsets, children in increasing id order: a preorder
    # walk lists sorted id tuples lexicographically, prefixes first.  Below
    # a set whose I is empty, only a subtree whose largest set has a
    # non-empty I can hold a cut set.  The current set is ``mask`` plus
    # edge j, ``chosen`` holds its ids, and ``stack`` holds (j, mask, K) of
    # each set on the path to it.
    chosen: list[str] = []
    stack: list[tuple[int, int, int]] = []
    j = mask = k = 0
    while True:
        if j == m:
            if not stack:
                return
            chosen.pop()
            j, mask, k = stack.pop()
            j += 1
            continue
        sub = mask | bits[j]
        i = i_mask(sub)
        chosen.append(ids[j])
        if i:
            cut = analysis(tuple(chosen), k | kbits[j], i)
            ctx.walked = cut, sub, i
            yield cut
        if len(chosen) < max_size and (i or i_mask(sub | later[j + 1])):
            stack.append((j, mask, k))
            mask, k = sub, k | kbits[j]
        else:
            chosen.pop()
        j += 1


_NO_SOURCES: frozenset[str] = frozenset()


def enumerate_strong_partitions(
    model: NetworkModel, cut: CutAnalysis | Iterable[str]
) -> list[StrongPartition]:
    """All strong partitions of a cut set, the one-block partition first.

    Partitions are generated in restricted-growth-string order over the
    sorted edge ids, which is a canonical total order; within a partition the
    blocks are ordered by their least edge id.  The search and its pruning
    are described in the module docstring.
    """
    if not isinstance(cut, CutAnalysis):
        cut = analyze_cut(model, cut)
    if not cut.i_set:
        raise NotACutSet(",".join(cut.cut))
    out = [StrongPartition(cut, (cut.cut,), (cut.i_set,), _NO_SOURCES)]
    cap = len(cut.i_set)
    if cap < 2:
        return out
    ctx = _context(model)
    ids = cut.cut
    walked = ctx.walked
    if walked[0] is cut:
        whole, i_cut = walked[1], walked[2]
    else:
        whole = sum(1 << ctx.bit[eid] for eid in ids)
        i_cut = ctx.i_mask(whole)
    if not ctx.splits(whole, i_cut):
        return out
    n = len(ids)
    bits = [1 << ctx.bit[eid] for eid in ids]
    kbits = [ctx.k_edge[ctx.bit[eid]] for eid in ids]
    i_mask, sets = ctx.i_mask, ctx.sets
    masks: list[int] = []  # edge mask of each open block
    ks: list[int] = []  # K of each open block
    i_s: list[int] = []  # I of each open block

    def viable(b: int) -> bool:
        # Lookahead: each block needs a source of I(C) that no other block
        # feeds.  A source fed by no block yet serves any block; otherwise
        # each block needs one that it alone feeds.
        seen = twice = 0
        for k in ks:
            twice |= seen & k
            seen |= k
        if not i_cut & ~seen:
            alone = i_cut & ~twice
            for k in ks:
                if not alone & k:
                    return False
        # Interference: block b changed, so only its pairs are checked.
        ib = i_s[b] = i_mask(masks[b])
        kb = ks[b]
        for a in range(len(masks)):
            if a != b and (ib & ks[a] or i_s[a] & kb):
                return False
        return True

    def emit() -> None:
        union = 0
        for i in i_s:
            union |= i
        blocks = tuple(tuple(eid for eid, bit in zip(ids, bits) if mask & bit) for mask in masks)
        out.append(StrongPartition(cut, blocks, tuple(sets[i] for i in i_s), sets[i_cut & ~union]))

    # The one-block partition is already in ``out``, so its leaf is skipped.
    def extend(j: int) -> None:
        if j == n:
            if len(masks) > 1:
                emit()
            return
        bit, kbit = bits[j], kbits[j]
        opened = len(masks)
        for b in range(min(opened + 1, cap)):
            if b == opened:
                masks.append(bit)
                ks.append(kbit)
                i_s.append(0)
            else:
                saved = masks[b], ks[b], i_s[b]
                masks[b] |= bit
                ks[b] |= kbit
            if viable(b):
                extend(j + 1)
            if b == opened:
                masks.pop()
                ks.pop()
                i_s.pop()
            else:
                masks[b], ks[b], i_s[b] = saved

    extend(0)
    return out


# -- assignment helpers shared by the equivalence and graph layers ------------


def enumerate_assignments(q: int, n_sources: int, k: int) -> Iterator[Assignment]:
    """All k-shot blocks over ``n_sources`` sources, lexicographically.

    The flattened symbol string is source-major (all k symbols of the first
    source, then the second, and so on), which fixes the canonical order used
    everywhere: vertex enumeration, class members, serialized labels.
    """
    width = n_sources * k
    for flat in itertools.product(range(q), repeat=width):
        yield tuple(flat[i * k : (i + 1) * k] for i in range(n_sources))


DOMAIN_CAP = 2**20
"""Most k-shot blocks over all sources a class computation may range over."""


def block_count(
    q: int, n_sources: int, k: int, cap: int, what: str, error: type[SizeCapError]
) -> int:
    """The q^(n_sources*k) blocks :func:`enumerate_assignments` yields, if at most ``cap``.

    k below 1 raises UsageError and a count over ``cap`` raises ``error``,
    naming the blocks ``what``.  Every validated model has q >= 2, so an
    exponent at or past the cap's bit length is over it: such a power is
    never formed.
    """
    if k < 1:
        raise UsageError("k must be at least 1")
    width = n_sources * k
    if width >= cap.bit_length() or q**width > cap:
        raise error(f"{q}^({k}*{n_sources}) {what} exceed the cap of {cap}")
    return q**width


def restrict_sources(model: NetworkModel, subset: Iterable[str]) -> tuple[str, ...]:
    """The subset of sources in model source order; unknown names raise."""
    subset = set(subset)
    unknown = subset - set(model.sources)
    if unknown:
        raise UsageError(f"unknown sources: {sorted(unknown)}")
    return tuple(s for s in model.sources if s in subset)


def format_assignment(assignment: Assignment, q: int) -> str:
    """Canonical string form of a block: flattened symbols, source-major."""
    if q <= 10:
        return "".join(str(sym) for col in assignment for sym in col)
    return ",".join(str(sym) for col in assignment for sym in col)


def parse_assignment(text: str, q: int, n_sources: int, k: int) -> Assignment:
    """The block whose :func:`format_assignment` form is ``text``; else UsageError."""
    try:
        symbols = [int(c) for c in (text if q <= 10 else text.split(","))]
    except ValueError:
        raise UsageError(f"{text!r} is not a block of symbols") from None
    if len(symbols) != n_sources * k or any(not 0 <= v < q for v in symbols):
        raise UsageError(f"{text!r} does not fit {n_sources} sources at k={k}")
    return tuple(tuple(symbols[i * k : (i + 1) * k]) for i in range(n_sources))

