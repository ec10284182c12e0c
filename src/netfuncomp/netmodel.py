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
one topological order (Kahn's algorithm) and cached, answers every
directed-graph question: building it is the acyclicity check, one backward
pass finds the nodes that feed the sink, and it holds each edge's K as a
source mask and computes I of an edge mask in one O(E) forward pass, cached
by mask.  The strong-partition search assigns the cut's edges, in sorted id
order, to blocks by backtracking, which yields restricted-growth-string
order.  It prunes a branch on three sound grounds:

* block cap: I of a block lies inside its K and is non-empty, and
  non-interference makes the blocks' I pairwise disjoint subsets of I(C),
  so there are at most |I(C)| blocks;
* interference: I and K only grow as edges join a block, so two partial
  blocks that interfere stay interfering;
* lookahead: a block can only gain the unassigned edges and the other
  blocks' K only grows, so if I(block + unassigned edges) lies inside the
  other blocks' current K, every completion leaves the block with an empty
  or interfering I.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    BadDistribution,
    ConstantFunction,
    CycleDetected,
    NotACutSet,
    SinkHasOutEdge,
    SourceHasInEdge,
    TooLarge,
    UnknownEdgeId,
    UnreachableNode,
    UsageError,
)

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

    def __hash__(self) -> int:
        # Models key every cache in the package; hash the tables only once.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash(
                (
                    self.nodes,
                    self.edges,
                    self.sources,
                    self.sink,
                    self.alphabet_size,
                    self.function_table,
                    self.distribution,
                )
            )
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # String hashes differ between interpreters; never ship a stored one.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    @property
    def symbols(self) -> range:
        return range(self.alphabet_size)

    def edge_by_id(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise UnknownEdgeId(edge_id)

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

    def distribution_fractions(self) -> tuple[Fraction, ...]:
        """The joint distribution lifted to exact rationals."""
        return tuple(Fraction(p) for p in self.distribution)


@dataclass(frozen=True)
class CutAnalysis:
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


@dataclass(frozen=True)
class StrongPartition:
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
    size = q ** len(sources)
    if len(table) != size:
        raise UsageError(f"function table must have {size} entries, got {len(table)}")
    if len(dist) != size:
        raise UsageError(f"distribution must have {size} entries, got {len(dist)}")
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


def load_model(path: str) -> NetworkModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc
    return model_from_dict(doc)


# -- validation ---------------------------------------------------------------


def validate(model: NetworkModel) -> NetworkModel:
    """Check the structural and probabilistic invariants; return the model.

    Check order matters for documented diagnostics: sink out-edges are
    reported before source in-edges, cycles, and reachability.  The cycle
    and reachability checks come from the model's bitmask context, so a
    valid model leaves it cached for the cut machinery.
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
        self.sources = model.sources
        self.all_sources = (1 << len(model.sources)) - 1
        self.bit = {e.id: b for b, e in enumerate(model.edges)}
        # Edges by the topological position of their tails: one pass in this
        # order sees every node's in-edges before its out-edges.
        self._flow = sorted(
            (pos[e.tail], b, pos[e.head]) for b, e in enumerate(model.edges)
        )
        self._seed = [0] * len(self.topo)
        for s, name in enumerate(model.sources):
            self._seed[pos[name]] = 1 << s
        self._sink = pos[model.sink]
        reach = self._reach(0)
        self.k_edge = tuple(reach[pos[e.tail]] for e in model.edges)
        self._i_cache: dict[int, int] = {}

    def _reach(self, cut: int) -> list[int]:
        """Per node (topological index), the sources reaching it around ``cut``."""
        reach = list(self._seed)
        for tail, b, head in self._flow:
            if not cut >> b & 1:
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
        """I of an edge mask: the sources that no longer reach the sink."""
        i = self._i_cache.get(cut)
        if i is None:
            i = self._i_cache[cut] = self.all_sources & ~self._reach(cut)[self._sink]
        return i

    def source_set(self, mask: int) -> frozenset[str]:
        return frozenset(s for b, s in enumerate(self.sources) if mask >> b & 1)

    def analysis(self, ids: tuple[str, ...], k: int, i: int) -> CutAnalysis:
        k_set = self.source_set(k)
        i_set = self.source_set(i)
        return CutAnalysis(
            cut=ids,
            k_set=k_set,
            i_set=i_set,
            j_set=k_set - i_set,
            is_global=i == self.all_sources,
        )


@lru_cache(maxsize=32)
def _context(model: NetworkModel) -> _Context:
    return _Context(model)


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


def enumerate_cut_sets(model: NetworkModel, max_size: int | None = None) -> list[CutAnalysis]:
    """All cut sets up to ``max_size`` edges, in lexicographic edge-id order.

    Enumeration is exponential in the edge count, so models with more than
    ``EDGE_CAP`` edges are refused.
    """
    m = len(model.edges)
    if m > EDGE_CAP:
        raise TooLarge(f"{m} edges exceeds the cut enumeration cap of {EDGE_CAP}")
    if max_size is None:
        max_size = m
    if not 1 <= max_size <= m:
        raise UsageError(f"max_size must be in 1..{m}")
    ctx = _context(model)
    ids = sorted(ctx.bit)
    bits = [1 << ctx.bit[eid] for eid in ids]
    kbits = [ctx.k_edge[ctx.bit[eid]] for eid in ids]
    chosen: list[str] = []
    out: list[CutAnalysis] = []

    # Depth-first over subsets, children in increasing id order: a preorder
    # walk lists sorted id tuples lexicographically, prefixes first.
    def extend(start: int, mask: int, k: int) -> None:
        for j in range(start, m):
            chosen.append(ids[j])
            sub, sub_k = mask | bits[j], k | kbits[j]
            i = ctx.i_mask(sub)
            if i:
                out.append(ctx.analysis(tuple(chosen), sub_k, i))
            if len(chosen) < max_size:
                extend(j + 1, sub, sub_k)
            chosen.pop()

    extend(0, 0, 0)
    return out


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
    if not cut.is_cut_set:
        raise NotACutSet(",".join(cut.cut))
    ctx = _context(model)
    i_mask = ctx.i_mask
    ids = cut.cut
    n = len(ids)
    bits = [1 << ctx.bit[eid] for eid in ids]
    kbits = [ctx.k_edge[ctx.bit[eid]] for eid in ids]
    unassigned = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        unassigned[j] = unassigned[j + 1] | bits[j]
    cap = len(cut.i_set)
    masks: list[int] = []  # edge mask of each open block
    ks: list[int] = []  # K mask of each open block
    out: list[StrongPartition] = []

    def viable(b: int, free: int) -> bool:
        ib, kb = i_mask(masks[b]), ks[b]
        for a in range(len(masks)):
            if a != b and (ib & ks[a] or i_mask(masks[a]) & kb):
                return False
        for a in range(len(masks)):
            others = 0
            for c in range(len(masks)):
                if c != a:
                    others |= ks[c]
            if not i_mask(masks[a] | free) & ~others:
                return False
        return True

    def emit() -> None:
        i_sets = tuple(ctx.source_set(i_mask(mask)) for mask in masks)
        blocks = tuple(
            tuple(eid for eid, bit in zip(ids, bits) if mask & bit) for mask in masks
        )
        out.append(
            StrongPartition(
                cut=cut,
                blocks=blocks,
                i_sets=i_sets,
                l_set=cut.i_set.difference(*i_sets),
            )
        )

    def extend(j: int) -> None:
        if j == n:
            emit()
            return
        opened = len(masks)
        for b in range(min(opened + 1, cap)):
            if b == opened:
                masks.append(bits[j])
                ks.append(kbits[j])
            else:
                saved = masks[b], ks[b]
                masks[b] |= bits[j]
                ks[b] |= kbits[j]
            if viable(b, unassigned[j + 1]):
                extend(j + 1)
            if b == opened:
                masks.pop()
                ks.pop()
            else:
                masks[b], ks[b] = saved

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


def assignment_count(q: int, n_sources: int, k: int) -> int:
    return q ** (n_sources * k)


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

