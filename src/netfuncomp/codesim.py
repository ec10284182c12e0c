"""Concrete variable-length network codes and their simulation.

A :class:`UDCode` is one table form of a code: each edge's distinct
codewords, one integer array of word ids per edge (indexed by the tail
source's k-column for a source edge, by the upstream word ids otherwise)
and a decoder array at the sink that points to rows of target-value ids.
:func:`evaluate` sweeps every input block through those arrays, checks
zero-error recovery of the target function, verifies each edge's image set
with the Sardinas-Patterson test, and accumulates expected codeword lengths
under the i.i.d. extension of the source distribution.  Strings are parsed
in one place, :func:`code_from_dict`, which reads the JSON form of a code:
codewords must be JSON strings, and ``""`` is the key of an edge whose tail
has no in-edges.

Symbol-level strategies enter through :class:`FixedScheme`: batch edge
functions of the source blocks together with a batch value decoder.
:func:`huffman_transform` turns a scheme into a UDCode by Huffman coding
each edge's image distribution, which keeps every edge's expected length
within one bit of the image entropy and is exactly optimal for dyadic
images.  The built-in :func:`diamond_scheme` routes half of the shared
source's block through each relay of the diamond network so both relay
edges carry a partial sum.

Whether a code's cut words color a characteristic graph, one of the
paper's claims, is checked by a per-block test oracle in
``tests/oracles.py`` rather than here.

Every sweep walks the q^(k*s) blocks in one order, source 0 most
significant and then shot 0, in numpy chunks of ``CHUNK_BLOCKS`` blocks
(:func:`_sweep`).  A sweep builds one ``(q^k, k)`` table of the digits of
every source column; a chunk's source symbols and its per-shot row indices
are gathers from that table and from per-source place-value tables.  Only
when q^k exceeds ``CHUNK_BLOCKS`` (one source at large k) does each chunk
divide its columns' digits out instead, so no table outgrows a chunk.
``netmodel.block_count`` refuses a sweep of more than ``MAX_BLOCKS`` blocks
with DomainTooLarge before any scheme call or allocation.  A scheme's values
become dense ids in order of first occurrence (:func:`_first_ids`: a
direct-address table when a chunk's codes span at most
``SPAN_CHUNKS * CHUNK_BLOCKS`` values, a sort otherwise); the value ids of
an edge are its word ids.  The block probability is
multiplied shot by shot.  Expected lengths are summed block by block in
sweep order by a running ``np.cumsum`` that starts from the total so far,
and image masses by ``np.add.at``, so each float equals the one a
per-block loop gives.  Errors name the first failing block in sweep order
and, within it, the first edge in topological order; an edge fails before
the decoder.
"""
from __future__ import annotations

import bisect
import dataclasses
import heapq
import itertools
import math
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DomainMismatch,
    DomainTooLarge,
    EmptyWord,
    OddK,
    UsageError,
)
from .netmodel import (
    Edge,
    NetworkModel,
    _context,
    block_count,
    json_int,
    parse_assignment,
)

# Largest sweep, in blocks, that any simulation accepts.
MAX_BLOCKS = 1 << 24
# Blocks per numpy chunk of a sweep; bounds the sweep's working arrays.
CHUNK_BLOCKS = 1 << 14
# Widest code span, in chunks, that _first_ids tables directly; the diamond's
# sink codes span 216^2 = 46,656 values at k = 6.
SPAN_CHUNKS = 4


def sardinas_patterson(words: Iterable[str]) -> bool:
    """True when the word set is uniquely decodable.

    Iterates dangling suffixes: the first round strips each codeword from
    the codewords it prefixes, and each later round strips codewords from
    the suffixes and the suffixes from codewords.  The set is uniquely
    decodable exactly when no round produces a codeword (equivalently, the
    empty suffix).  In sorted order the codewords that a string properly
    prefixes form a run right after it, and the codewords that properly
    prefix it are set lookups of its prefixes at the codeword lengths.
    Later rounds use both; the first uses the runs alone, since the lookup
    from the longer word of a pair would find the pair again.
    """
    code = set(words)
    if not code:
        raise UsageError("empty code")
    for w in code:
        if w == "":
            raise EmptyWord("codes must not contain the empty word")
        if set(w) - {"0", "1"}:
            raise UsageError(f"non-binary codeword {w!r}")
    ordered = sorted(code)
    lengths = sorted({len(w) for w in code})

    def extensions(s: str) -> Iterator[str]:
        """What is left of each codeword that ``s`` properly prefixes."""
        j = bisect.bisect_right(ordered, s)
        while j < len(ordered) and ordered[j].startswith(s):
            yield ordered[j][len(s):]
            j += 1

    def dangling(s: str) -> Iterator[str]:
        yield from extensions(s)
        for n in lengths:
            if n >= len(s):
                break
            if s[:n] in code:
                yield s[n:]

    # Between two codewords, the run after the shorter one finds the pair.
    frontier = {d for w in code for d in extensions(w)}
    seen: set[str] = set()
    while frontier:
        if not frontier.isdisjoint(code):
            return False
        seen |= frontier
        frontier = {d for s in frontier for d in dangling(s)} - seen
    return True


def _is_ud(eid: str, words: Sequence[str]) -> bool:
    """:func:`sardinas_patterson` on one edge's words; a rejected set names the edge."""
    try:
        return sardinas_patterson(words)
    except (EmptyWord, UsageError) as exc:
        raise type(exc)(f"edge {eid}: {exc}") from None


def _huffman(dist: Mapping[Hashable, float]) -> dict[Hashable, str]:
    """Binary Huffman code over a value distribution, deterministic ties."""
    items = sorted(dist.items(), key=lambda kv: str(kv[0]))
    if not items:
        raise UsageError("cannot code an empty distribution")
    if len(items) == 1:
        return {items[0][0]: "0"}
    counter = itertools.count()
    heap: list[tuple[float, int, tuple]] = [
        (p, next(counter), ("leaf", v)) for v, p in items
    ]
    heapq.heapify(heap)
    while len(heap) > 1:
        pa, _, ta = heapq.heappop(heap)
        pb, _, tb = heapq.heappop(heap)
        heapq.heappush(heap, (pa + pb, next(counter), ("node", ta, tb)))
    words: dict[Hashable, str] = {}

    def assign(tree: tuple, prefix: str) -> None:
        if tree[0] == "node":
            assign(tree[1], prefix + "0")
            assign(tree[2], prefix + "1")
        else:
            words[tree[1]] = prefix

    assign(heap[0][2], "")
    return words


@dataclasses.dataclass(frozen=True, eq=False)
class UDCode:
    """Integer tables for one variable-length code: per-edge encoders plus a decoder.

    ``words[e]`` lists edge e's distinct codewords; a word id is a position
    in it.  ``tables[e]`` is an int32 array of word ids, -1 where the table
    has no entry.  A source edge's array is indexed by the tail source's
    k-column (base q, shot 0 most significant).  Any other edge's array is
    indexed by the mixed-radix index of its upstream word ids, in ascending
    in-edge-id order with the first in-edge most significant.  ``decoder``
    is indexed the same way by the sink's in-edges and holds row numbers of
    ``outputs``, an ``(m, k)`` int32 array of target-value ids: the model's
    function values numbered in order of first appearance in its table, -1
    for a value the function never takes.
    """

    k: int
    words: Mapping[str, tuple[str, ...]]
    tables: Mapping[str, np.ndarray]
    decoder: np.ndarray
    outputs: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class FixedScheme:
    """Symbol-level edge functions plus a value decoder, before binary coding.

    Both work on batches of n blocks.  An edge function receives a tuple,
    in model source order, of one ``(n, k)`` integer array per source (row
    b holds that source's k-column in block b) and returns an ``(n, d)``
    integer array-like: row b is the edge's value in block b, compared and
    Huffman coded as a tuple of d ints.  The decoder receives a dict from
    each sink in-edge id to an ``(m, d)`` array of values, one row per
    distinct sink input (at most ``CHUNK_BLOCKS`` of them per call), and
    returns an ``(m, k)`` integer array-like of target values.
    """

    name: str
    k: int
    edge_functions: Mapping[str, Callable[[tuple], np.ndarray]]
    decoder: Callable[[Mapping[str, np.ndarray]], np.ndarray]


@dataclasses.dataclass(frozen=True, eq=False)
class RateReport:
    k: int
    admissible: bool
    edge_lengths: Mapping[str, float]
    edge_rates: Mapping[str, float]
    max_rate: float
    non_ud_edges: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "admissible": self.admissible,
            "edge_lengths": dict(self.edge_lengths),
            "edge_rates": dict(self.edge_rates),
            "max_rate": self.max_rate,
            "non_ud_edges": list(self.non_ud_edges),
        }


def _edges_in_topo_order(model: NetworkModel) -> list[Edge]:
    order = {n: i for i, n in enumerate(_context(model).topo)}
    return sorted(model.edges, key=lambda e: (order[e.tail], e.id))


def _in_ids(model: NetworkModel, node: str) -> tuple[str, ...]:
    return tuple(sorted(e.id for e in model.in_edges(node)))


# -- the shared block sweep ---------------------------------------------------


def _digits(index: np.ndarray, q: int, k: int) -> np.ndarray:
    """The ``(n, k)`` base-q digits of each index, most significant first."""
    return np.stack([index // q ** (k - 1 - r) % q for r in range(k)], axis=1)


@dataclasses.dataclass(frozen=True, eq=False)
class _Chunk:
    """Consecutive blocks of a sweep as arrays over the block axis."""

    symbols: Callable[[np.ndarray], np.ndarray]  # column indices to (n, k) digits
    cols: tuple[np.ndarray, ...]  # per source: column index in [0, q^k)
    rows: np.ndarray  # (k, n): per shot, row index into the model tables
    p: np.ndarray  # block probability

    @property
    def n(self) -> int:
        return len(self.p)

    def xs(self) -> tuple[np.ndarray, ...]:
        """Per source, the ``(n, k)`` symbols of each block's column."""
        return tuple(self.symbols(c) for c in self.cols)


def _sweep(model: NetworkModel, k: int) -> Iterator[_Chunk]:
    q, s = model.alphabet_size, model.num_sources
    total = block_count(q, s, k, MAX_BLOCKS, "source blocks", DomainTooLarge)
    width = q**k
    if width <= CHUNK_BLOCKS:
        digits = _digits(np.arange(width, dtype=np.int64), q, k)
        symbols = digits.__getitem__
        # Per source, its share of each shot's row index: digit times place value.
        places = [(digits.T * q ** (s - 1 - i)).astype(np.int32) for i in range(s)]

        def shot_rows(cols: tuple[np.ndarray, ...]) -> np.ndarray:
            rows = np.take(places[0], cols[0], axis=1)
            for place, c in zip(places[1:], cols[1:]):
                rows += np.take(place, c, axis=1)
            return rows

    else:
        # More columns than a chunk has blocks (one source at large k): a
        # table of them all would outgrow the chunks, so each is divided out.
        def symbols(cols: np.ndarray) -> np.ndarray:
            return _digits(cols.astype(np.int64), q, k)

        def shot_rows(cols: tuple[np.ndarray, ...]) -> np.ndarray:
            rows = np.zeros((k, len(cols[0])), dtype=np.int64)
            for c in cols:
                rows = rows * q + symbols(c).T
            return rows

    dist = np.asarray(model.distribution, dtype=np.float64)

    def chunk(start: int) -> _Chunk:
        block = np.arange(start, min(start + CHUNK_BLOCKS, total), dtype=np.int32)
        cols = tuple(block // width ** (s - 1 - i) % width for i in range(s))
        rows = shot_rows(cols)
        # Shot by shot, as a per-block loop multiplies from 1.0 (1.0 times
        # the first factor is exact).  A copy, so the chunk keeps one shot
        # of probabilities rather than all k.
        shots = dist[rows]
        p = shots[0].copy()
        for factor in shots[1:]:
            p *= factor
        return _Chunk(symbols, cols, rows, p)

    # Each chunk is built in a call, so between chunks the sweep holds none
    # of its arrays.
    for start in range(0, total, CHUNK_BLOCKS):
        yield chunk(start)


def _stack(parts: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Per-block tuples of ids as an ``(n, len(parts))`` array."""
    if not parts:
        return np.zeros((n, 0), dtype=np.int64)
    return np.stack(parts, axis=1)


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """One integer per row of an integer array, equal exactly when the rows are."""
    n, d = rows.shape
    if d == 0:
        return np.zeros(n, dtype=np.int64)
    lo = int(rows.min())
    radix = int(rows.max()) - lo + 1
    if radix**d >= 1 << 62:
        return np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    codes = np.zeros(n, dtype=np.int64)
    for j in range(d):
        codes *= radix
        codes += rows[:, j]
        codes -= lo
    return codes


def _first_ids(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct code first occurs, and every code's rank by that order.

    ``first`` is increasing and ``codes[first[rank]] == codes``.  Codes that
    span at most ``SPAN_CHUNKS * CHUNK_BLOCKS`` values are tabled directly;
    wider ones are sorted.
    """
    lo = int(codes.min())
    span = int(codes.max()) - lo + 1
    if span > SPAN_CHUNKS * CHUNK_BLOCKS:
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(len(first), dtype=np.int32)
        rank[order] = np.arange(len(first), dtype=np.int32)
        return first[order], rank[inverse.reshape(-1)]
    n = len(codes)
    at = codes - lo
    pos = np.full(span, n, dtype=np.int32)
    np.minimum.at(pos, at, np.arange(n, dtype=np.int32))
    is_first = np.zeros(n, dtype=bool)
    is_first[pos[pos < n]] = True
    first = np.flatnonzero(is_first)
    # The table now maps each code's offset to its rank; unseen offsets are never read.
    pos[at[first]] = np.arange(len(first), dtype=np.int32)
    return first, pos[at]


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer array, in order of first occurrence."""
    return rows[_first_ids(_row_codes(rows))[0]]


class _Interner:
    """Dense ids for integer rows in order of first occurrence, across chunks."""

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        first, rank = _first_ids(_row_codes(rows))
        ids = self.ids
        found = [ids.setdefault(row, len(ids)) for row in map(tuple, rows[first].tolist())]
        return np.array(found, dtype=np.int32)[rank]


class _FirstValue:
    """The first value id seen for each key, to check a value is a function of its key."""

    def __init__(self) -> None:
        self.first = np.full(0, -1, dtype=np.int32)

    def violation(self, keys: np.ndarray, values: np.ndarray) -> int | None:
        """Position of the first value that differs from its key's first value."""
        top = int(keys.max()) + 1
        if top > len(self.first):
            grown = np.full(max(top, 2 * len(self.first)), -1, dtype=np.int32)
            grown[: len(self.first)] = self.first
            self.first = grown
        at = _first_ids(keys)[0]
        uniq = keys[at]
        new = self.first[uniq] < 0
        self.first[uniq[new]] = values[at[new]]
        bad = np.flatnonzero(self.first[keys] != values)
        return int(bad[0]) if bad.size else None


def _add_in_order(acc: np.ndarray, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``acc[index[b]] += values[b]`` block by block, growing ``acc`` as needed."""
    top = int(index.max()) + 1
    if top > len(acc):
        acc = np.concatenate([acc, np.zeros(top - len(acc))])
    np.add.at(acc, index, values)
    return acc


def _index(parts: Sequence[np.ndarray], radix: Sequence[int], n: int) -> np.ndarray:
    """Mixed-radix index of n tuples of word ids, the first part most significant.

    The index is -1 where any part is -1.
    """
    at = np.zeros(n, dtype=np.int64)
    valid = np.ones(n, dtype=bool)
    for ids, r in zip(parts, radix):
        valid &= ids >= 0
        at = at * r + ids
    return np.where(valid, at, -1)


def _word_table(
    parts: Sequence[np.ndarray], ids: np.ndarray, radix: Sequence[int], what: str
) -> np.ndarray:
    """An int32 table over upstream word tuples: ``ids`` at each entry's index, -1 elsewhere.

    Entries with a -1 part (a word the upstream edge never carries) are left out.
    """
    size = math.prod(radix)
    if size > MAX_BLOCKS:
        raise DomainTooLarge(
            f"{what} keys span {size} upstream word tuples, above the cap of {MAX_BLOCKS}"
        )
    at = _index(parts, radix, len(ids))
    keep = at >= 0
    table = np.full(size, -1, dtype=np.int32)
    table[at[keep]] = np.asarray(ids, dtype=np.int32)[keep]
    return table


def _lookup(
    table: np.ndarray, parts: Sequence[np.ndarray], radix: Sequence[int], n: int
) -> np.ndarray:
    """Per block, the table entry at the upstream word ids; -1 where an upstream id is -1."""
    at = _index(parts, radix, n)
    return np.where(at >= 0, table[at], -1)


def _target_ids(model: NetworkModel) -> dict[Hashable, int]:
    """The model's function values, numbered in order of first appearance in its table."""
    return {v: i for i, v in enumerate(dict.fromkeys(model.function_table))}


def _check_table(table: object, shape: tuple[int, ...], top: int, what: str) -> None:
    """Refuse a table that is not an integer array of ``shape`` with ids in [-1, top)."""
    if (
        not isinstance(table, np.ndarray)
        or table.shape != shape
        or table.dtype.kind not in "iu"
        or (table.size and (table.min() < -1 or table.max() >= top))
    ):
        raise DomainMismatch(
            f"{what} does not fit the model: it needs shape {shape} and ids in [-1, {top})"
        )


def _missing_entry(
    model: NetworkModel, code: UDCode, chunk: _Chunk, ids: Mapping[str, np.ndarray], b: int
) -> DomainMismatch:
    """The error for the first table with no entry at block b.

    Edges come in topological order, then the decoder.
    """

    def key_words(node: str) -> tuple:
        return tuple(code.words[d][ids[d][b]] for d in _in_ids(model, node))

    for e in _edges_in_topo_order(model):
        if ids[e.id][b] >= 0:
            continue
        if e.tail in model.sources:
            key = tuple(chunk.xs()[model.sources.index(e.tail)][b].tolist())
        else:
            key = key_words(e.tail)
        return DomainMismatch(f"edge {e.id} has no entry for {key!r}")
    return DomainMismatch(f"decoder has no entry for {key_words(model.sink)!r}")


def evaluate(model: NetworkModel, code: UDCode) -> RateReport:
    """Exhaustively simulate a code: correctness, UD images, expected lengths.

    Every source block in the k-shot domain is swept.  A non-UD edge image
    does not stop the sweep; the offending edges are reported in the result.
    A code whose tables do not fit the model raises DomainMismatch.
    """
    k = code.k
    edges = _edges_in_topo_order(model)
    if set(code.tables) != {e.id for e in edges} or set(code.words) != set(code.tables):
        raise DomainMismatch("code must define exactly one encoder per edge")
    q = model.alphabet_size
    block_count(q, model.num_sources, k, MAX_BLOCKS, "source blocks", DomainTooLarge)
    source_pos = {s: i for i, s in enumerate(model.sources)}
    in_ids = {n: _in_ids(model, n) for n in model.nodes}
    radix = {n: [len(code.words[d]) for d in ids] for n, ids in in_ids.items()}
    for e in edges:
        size = q**k if e.tail in source_pos else math.prod(radix[e.tail])
        _check_table(code.tables[e.id], (size,), len(code.words[e.id]), f"edge {e.id} table")
    sink_ids = in_ids[model.sink]
    target = _target_ids(model)
    _check_table(code.decoder, (math.prod(radix[model.sink]),), len(code.outputs), "decoder table")
    rows = np.shape(code.outputs)[:1]
    _check_table(code.outputs, (*rows, k), len(target), "decoder output table")
    non_ud = [e.id for e in edges if not _is_ud(e.id, code.words[e.id])]
    row_target = np.array([target[v] for v in model.function_table], dtype=np.int32)
    word_len = {
        e.id: np.array([len(w) for w in code.words[e.id]], dtype=np.int64) for e in edges
    }
    lengths = {e.id: 0.0 for e in model.edges}
    admissible = True
    for chunk in _sweep(model, k):
        ids: dict[str, np.ndarray] = {}
        for e in edges:
            table = code.tables[e.id]
            if e.tail in source_pos:
                ids[e.id] = table[chunk.cols[source_pos[e.tail]]]
            else:
                upstream = [ids[d] for d in in_ids[e.tail]]
                ids[e.id] = _lookup(table, upstream, radix[e.tail], chunk.n)
        dec = _lookup(code.decoder, [ids[d] for d in sink_ids], radix[model.sink], chunk.n)
        missing = np.flatnonzero(np.min([*ids.values(), dec], axis=0) < 0)
        if missing.size:
            raise _missing_entry(model, code, chunk, ids, int(missing[0]))
        for eid, w in ids.items():
            # A running sum adds block by block, in sweep order.
            running = chunk.p * word_len[eid][w]
            running[0] += lengths[eid]
            lengths[eid] = float(np.cumsum(running, out=running)[-1])
        truth = row_target[chunk.rows].T
        admissible = admissible and bool((code.outputs[dec] == truth).all())
        # Free this chunk's arrays before the sweep builds the next one.
        del chunk, ids, dec, truth
    rates = {eid: length / k for eid, length in lengths.items()}
    return RateReport(
        k=k,
        admissible=admissible,
        edge_lengths=lengths,
        edge_rates=rates,
        max_rate=max(rates.values()),
        non_ud_edges=tuple(non_ud),
    )


def _scheme_rows(value: object, n: int, what: str) -> np.ndarray:
    rows = np.asarray(value)
    if rows.ndim != 2 or len(rows) != n or rows.dtype.kind not in "biu":
        raise UsageError(
            f"{what} must give an ({n}, d) integer array, got shape "
            f"{rows.shape} of {rows.dtype}"
        )
    return rows.astype(np.int64, copy=False)


def _scheme_images(
    model: NetworkModel,
    scheme: FixedScheme,
    k: int,
    source_pos: Mapping[str, int],
    in_ids: Mapping[str, tuple[str, ...]],
) -> tuple[dict, dict, dict, dict, np.ndarray]:
    """One sweep of a scheme, checking that it is locally realizable.

    Returns four dicts by edge id: value rows to value ids, the image mass
    of each value id, upstream value ids to key ids (non-source edges), and
    the first value id of each key (a column index for source edges).  Then
    the distinct sink inputs, as rows of value ids in sink in-edge order.
    """
    edges = _edges_in_topo_order(model)
    values = {e.id: _Interner() for e in edges}
    mass = {e.id: np.zeros(0) for e in edges}
    keys = {e.id: _Interner() for e in edges if e.tail not in source_pos}
    first = {e.id: _FirstValue() for e in edges}
    sink: list[np.ndarray] = []
    for chunk in _sweep(model, k):
        xs = chunk.xs()
        vids: dict[str, np.ndarray] = {}
        failed: tuple[int, str] | None = None
        for e in edges:
            # One expression, so no name keeps the scheme's rows past their interning.
            vid = vids[e.id] = values[e.id](
                _scheme_rows(scheme.edge_functions[e.id](xs), chunk.n, f"edge function {e.id}")
            )
            if e.tail in source_pos:
                key = chunk.cols[source_pos[e.tail]]
            else:
                key = keys[e.id](_stack([vids[d] for d in in_ids[e.tail]], chunk.n))
            b = first[e.id].violation(key, vid)
            if b is not None and (failed is None or b < failed[0]):
                failed = (b, e.id)
            mass[e.id] = _add_in_order(mass[e.id], vid, chunk.p)
        if failed is not None:
            raise DomainMismatch(
                f"edge {failed[1]} value is not a function of its local input"
            )
        sink.append(_distinct_rows(_stack([vids[d] for d in in_ids[model.sink]], chunk.n)))
        # Free this chunk's arrays before the sweep builds the next one.
        del chunk, xs, vids
    return values, mass, keys, first, _distinct_rows(np.concatenate(sink))


def huffman_transform(model: NetworkModel, scheme: FixedScheme) -> UDCode:
    """Binary-code a symbol-level scheme edge by edge with Huffman words.

    The sweep records each edge's image distribution under the i.i.d.
    k-shot source law, checks that the scheme is locally realizable (each
    edge's value must be a function of what that edge can see), and emits
    the composed lookup tables.  A scheme whose edge functions are not
    keyed by exactly the model's edge ids raises DomainMismatch.
    """
    if set(scheme.edge_functions) != {e.id for e in model.edges}:
        raise DomainMismatch("scheme must define exactly one edge function per edge")
    k = scheme.k
    q = model.alphabet_size
    source_pos = {s: i for i, s in enumerate(model.sources)}
    in_ids = {n: _in_ids(model, n) for n in model.nodes}
    sink_ids = in_ids[model.sink]
    values, mass, keys, first, dec_keys = _scheme_images(model, scheme, k, source_pos, in_ids)
    # Per edge, the Huffman word and the value row of each value id; a word
    # id is therefore the value id.
    words: dict[str, tuple[str, ...]] = {}
    value_rows: dict[str, np.ndarray] = {}
    for e in model.edges:
        dist = dict(zip(values[e.id].ids, mass[e.id].tolist()))
        huff = _huffman(dist)
        words[e.id] = tuple(huff[v] for v in dist)
        value_rows[e.id] = np.array(list(dist), dtype=np.int64)
    radix = {n: [len(words[d]) for d in ids] for n, ids in in_ids.items()}
    tables: dict[str, np.ndarray] = {}
    for e in model.edges:
        seen = first[e.id].first
        if e.tail in source_pos:
            # The sweep sees every column; the array may have grown past them.
            tables[e.id] = seen[: q**k]
        else:
            rows = keys[e.id].ids
            key_ids = np.array(list(rows), dtype=np.int64).reshape(len(rows), len(radix[e.tail]))
            tables[e.id] = _word_table(key_ids.T, seen[: len(rows)], radix[e.tail], f"edge {e.id}")
    m = len(dec_keys)
    target = _target_ids(model)
    outputs = np.empty((m, k), dtype=np.int32)
    # The decoder sees the sink inputs a chunk at a time, as the edge
    # functions see the blocks, so no array it is given or returns
    # outgrows a chunk.
    for start in range(0, m, CHUNK_BLOCKS):
        batch = dec_keys[start : start + CHUNK_BLOCKS]
        n = len(batch)
        got = np.asarray(
            scheme.decoder({d: value_rows[d][batch[:, j]] for j, d in enumerate(sink_ids)})
        )
        if got.shape != (n, k) or got.dtype.kind not in "iu":
            raise UsageError(
                f"scheme decoder must give a ({n}, {k}) integer array, got shape "
                f"{got.shape} of {got.dtype}"
            )
        at, rank = _first_ids(got.reshape(-1))
        ids = [target.get(v, -1) for v in got.reshape(-1)[at].tolist()]
        outputs[start : start + n] = np.array(ids, dtype=np.int32)[rank].reshape(n, k)
    return UDCode(
        k=k,
        words=words,
        tables=tables,
        decoder=_word_table(dec_keys.T, np.arange(m), radix[model.sink], "decoder"),
        outputs=outputs,
    )


def diamond_scheme(k: int) -> FixedScheme:
    """The split-relay strategy for the diamond network (even k only).

    The first source goes to the left relay whole and the third to the
    right relay whole; the shared middle source sends its first k/2 shots
    left and the rest right.  Each relay forwards partial sums where it can,
    so the sink adds the two relay blocks shot by shot.
    """
    if k < 2 or k % 2 != 0:
        raise OddK(f"the split scheme needs a positive even k, got {k}")
    half = k // 2

    def e5(xs: tuple) -> np.ndarray:
        x1, x2 = xs[0], xs[1]
        return np.concatenate([x1[:, :half] + x2[:, :half], x1[:, half:]], axis=1)

    def e6(xs: tuple) -> np.ndarray:
        x2, x3 = xs[1], xs[2]
        return np.concatenate([x3[:, :half], x2[:, half:] + x3[:, half:]], axis=1)

    functions = {
        "e1": lambda xs: xs[0],
        "e2": lambda xs: xs[1][:, :half],
        "e3": lambda xs: xs[1][:, half:],
        "e4": lambda xs: xs[2],
        "e5": e5,
        "e6": e6,
    }

    def decode(values: Mapping[str, np.ndarray]) -> np.ndarray:
        return values["e5"] + values["e6"]

    return FixedScheme("diamond-split", k, functions, decode)


# -- code tables from JSON ----------------------------------------------------


def code_from_dict(model: NetworkModel, doc: Mapping) -> UDCode:
    """The code a JSON document describes, as tables over ``model``.

    This is the only reader of codewords and table keys.  A source edge's
    keys are k-columns written like ``format_assignment``.  Any other
    edge's keys, and the decoder's, join the upstream words with commas in
    ascending in-edge-id order; ``""`` is the empty key of an edge whose
    tail has no in-edges.  Codewords must be strings, and each decoder
    entry is a list of target values.  Entries whose key has the wrong
    length or names a word the upstream edge never carries match no block
    and are dropped.
    """
    try:
        k = json_int(doc["k"], "code document: k")
        enc_doc = doc["encoders"]
        dec_doc = doc["decoder"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed code document: {exc}") from exc
    if k < 1:
        raise UsageError(f"code document: k must be at least 1, got {k}")
    if not isinstance(enc_doc, Mapping):
        raise UsageError("code document: encoders must be an object")
    if not isinstance(dec_doc, Mapping):
        raise UsageError("code document: decoder must be an object")

    def word_key(key: str) -> tuple[str, ...]:
        return tuple(key.split(",")) if key else ()

    q = model.alphabet_size
    words: dict[str, tuple[str, ...]] = {}
    keys: dict[str, list] = {}
    for e in model.edges:
        if e.id not in enc_doc:
            raise UsageError(f"code document is missing edge {e.id}")
        if not isinstance(enc_doc[e.id], Mapping):
            raise UsageError(f"code document: edge {e.id} table must be an object")
        keys[e.id] = []
        for key, w in enc_doc[e.id].items():
            if not isinstance(w, str):
                raise UsageError(f"code document: edge {e.id} word {w!r} must be a string")
            if e.tail in model.sources:
                try:
                    keys[e.id].append(model.arg_index(parse_assignment(key, q, 1, k)[0]))
                except UsageError as exc:
                    raise UsageError(f"edge {e.id}: source key {exc}") from None
            else:
                keys[e.id].append(word_key(key))
        words[e.id] = tuple(dict.fromkeys(enc_doc[e.id].values()))
    target = _target_ids(model)
    rows: dict[tuple, int] = {}
    dec_rows = []
    for key, out in dec_doc.items():
        if not isinstance(out, list):
            raise UsageError(f"code document: decoder entry {key!r} must be a list")
        try:
            ids = tuple(target.get(v, -1) for v in out)
        except TypeError:  # an unhashable value equals no target value
            ids = ()
        dec_rows.append(rows.setdefault(ids if len(ids) == k else (-1,) * k, len(rows)))
    block_count(q, model.num_sources, k, MAX_BLOCKS, "source blocks", DomainTooLarge)

    def table(node: str, entries: Sequence[tuple], ids: Sequence[int], what: str) -> np.ndarray:
        upstream = [words[d] for d in _in_ids(model, node)]
        fits = [len(key) == len(upstream) for key in entries]
        entries = list(itertools.compress(entries, fits))
        parts = []
        for j, ws in enumerate(upstream):
            pos = {w: i for i, w in enumerate(ws)}
            parts.append(np.array([pos.get(key[j], -1) for key in entries], dtype=np.int64))
        kept = np.asarray(ids, dtype=np.int32)[np.asarray(fits, dtype=bool)]
        return _word_table(parts, kept, [len(ws) for ws in upstream], what)

    tables: dict[str, np.ndarray] = {}
    for e in model.edges:
        wid = {w: i for i, w in enumerate(words[e.id])}
        ids = [wid[w] for w in enc_doc[e.id].values()]
        if e.tail in model.sources:
            tables[e.id] = np.full(q**k, -1, dtype=np.int32)
            tables[e.id][keys[e.id]] = ids
        else:
            tables[e.id] = table(e.tail, keys[e.id], ids, f"edge {e.id}")
    return UDCode(
        k=k,
        words=words,
        tables=tables,
        decoder=table(model.sink, list(map(word_key, dec_doc)), dec_rows, "decoder"),
        outputs=np.array(list(rows), dtype=np.int32).reshape(len(rows), k),
    )
