"""Concrete variable-length network codes and their simulation.

A :class:`UDCode` stores one lookup table per edge mapping that edge's
inputs (the tail source's k-shot column for a source edge, the upstream
codewords otherwise) to binary words, plus a decoder table at the sink.
:func:`evaluate` sweeps every input block, checks zero-error recovery of
the target function, verifies each edge's image set with the
Sardinas-Patterson test, and accumulates expected codeword lengths under
the i.i.d. extension of the source distribution.

Symbol-level strategies enter through :class:`FixedScheme`: batch edge
functions of the source blocks together with a batch value decoder.
:func:`huffman_transform` turns a scheme into a UDCode by Huffman coding
each edge's image distribution, which keeps every edge's expected length
within one bit of the image entropy and is exactly optimal for dyadic
images.  The built-in :func:`diamond_scheme` routes half of the shared
source's block through each relay of the diamond network so both relay
edges carry a partial sum.

Every sweep walks the q^(k*s) blocks in one order, source 0 most
significant and then shot 0, in numpy chunks of ``CHUNK_BLOCKS`` blocks
(:func:`_sweep`).  Sweeps above ``MAX_BLOCKS`` blocks raise DomainTooLarge
before any scheme call or allocation.  A code's tables become integer
lookup arrays over word ids; a scheme's values become dense ids in order
of first occurrence.  The block probability is multiplied shot by shot and
every expected length and image mass is summed block by block in sweep
order (``np.add.at``), so each float equals the one a per-block loop gives.
Errors name the first failing block in sweep order and, within it, the
first edge in topological order; an edge fails before the decoder.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import chargraph, pgraph
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
    StrongPartition,
    _context,
    format_assignment,
    json_int,
    parse_assignment,
)

# Largest sweep, in blocks, that any simulation accepts.
MAX_BLOCKS = 1 << 24
# Blocks per numpy chunk of a sweep; bounds the sweep's working arrays.
CHUNK_BLOCKS = 1 << 14


def sardinas_patterson(words: Iterable[str]) -> bool:
    """True when the word set is uniquely decodable.

    Iterates dangling suffixes: starting from the proper suffixes produced
    by one codeword prefixing another, each round strips codewords from
    suffixes and suffixes from codewords; the set is uniquely decodable
    exactly when no round produces a codeword (equivalently, the empty
    suffix).
    """
    code = set(words)
    if not code:
        raise UsageError("empty code")
    for w in code:
        if w == "":
            raise EmptyWord("codes must not contain the empty word")
        if set(w) - {"0", "1"}:
            raise UsageError(f"non-binary codeword {w!r}")

    def dangling(a: str, b: str) -> str | None:
        return b[len(a):] if b.startswith(a) and len(b) > len(a) else None

    seen: set[str] = set()
    frontier: set[str] = set()
    for u, v in itertools.permutations(code, 2):
        d = dangling(u, v)
        if d is not None:
            frontier.add(d)
    while frontier:
        nxt: set[str] = set()
        for s in frontier:
            if s in code:
                return False
            for w in code:
                d = dangling(s, w)
                if d is not None:
                    nxt.add(d)
                d = dangling(w, s)
                if d is not None:
                    nxt.add(d)
        seen |= frontier
        frontier = nxt - seen
    return True


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
    """Tables for one variable-length code: per-edge encoders plus a decoder.

    Source-edge tables are keyed by the tail source's k-column; other edges
    are keyed by the tuple of upstream words in ascending in-edge-id order,
    which is also the decoder's key convention at the sink.
    """

    k: int
    encoders: Mapping[str, Mapping]
    decoder: Mapping[tuple, tuple]


@dataclasses.dataclass(frozen=True, eq=False)
class FixedScheme:
    """Symbol-level edge functions plus a value decoder, before binary coding.

    Both work on batches of n blocks.  An edge function receives a tuple,
    in model source order, of one ``(n, k)`` integer array per source (row
    b holds that source's k-column in block b) and returns an ``(n, d)``
    integer array-like: row b is the edge's value in block b, compared and
    Huffman coded as a tuple of d ints.  The decoder receives a dict from
    each sink in-edge id to an ``(m, d)`` array of values, one row per
    distinct sink input, and returns an ``(m, k)`` array-like of target
    values.
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


def _block_count(model: NetworkModel, k: int) -> int:
    """Blocks in the k-shot domain; refuses k < 1 and sweeps above the cap."""
    if k < 1:
        raise UsageError(f"k must be at least 1, got {k}")
    q, s = model.alphabet_size, model.num_sources
    # q >= 2, so any k at or past the cap's bit length is over it.
    if k >= MAX_BLOCKS.bit_length() or q ** (k * s) > MAX_BLOCKS:
        raise DomainTooLarge(
            f"k={k} means {q}^{k * s} source blocks, above the cap of {MAX_BLOCKS}"
        )
    return q ** (k * s)


def _digits(index: np.ndarray, q: int, k: int) -> np.ndarray:
    """The ``(n, k)`` base-q digits of each index, most significant first."""
    return np.stack([index // q ** (k - 1 - r) % q for r in range(k)], axis=1)


@dataclasses.dataclass(frozen=True, eq=False)
class _Chunk:
    """Consecutive blocks of a sweep as arrays over the block axis."""

    q: int
    k: int
    cols: tuple[np.ndarray, ...]  # per source: column index in [0, q^k)
    rows: tuple[np.ndarray, ...]  # per shot: row index into the model tables
    p: np.ndarray  # block probability

    @property
    def n(self) -> int:
        return len(self.p)

    def xs(self) -> tuple[np.ndarray, ...]:
        """Per source, the ``(n, k)`` symbols of each block's column."""
        return tuple(_digits(c.astype(np.int64), self.q, self.k) for c in self.cols)


def _sweep(model: NetworkModel, k: int) -> Iterator[_Chunk]:
    total = _block_count(model, k)
    q, s = model.alphabet_size, model.num_sources
    width = q**k
    dist = np.asarray(model.distribution, dtype=np.float64)
    for start in range(0, total, CHUNK_BLOCKS):
        block = np.arange(start, min(start + CHUNK_BLOCKS, total), dtype=np.int32)
        cols = tuple(block // width ** (s - 1 - i) % width for i in range(s))
        rows = []
        for r in range(k):
            row = np.zeros(len(block), dtype=np.int32)
            for c in cols:
                row = row * q + c // q ** (k - 1 - r) % q
            rows.append(row)
        p = np.ones(len(block))
        for row in rows:
            p = p * dist[row]
        yield _Chunk(q, k, cols, tuple(rows), p)


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
        codes = codes * radix + (rows[:, j] - lo)
    return codes


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer array, in order of first occurrence."""
    _, first = np.unique(_row_codes(rows), return_index=True)
    return rows[np.sort(first)]


class _Interner:
    """Dense ids for integer rows in order of first occurrence, across chunks."""

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        _, first, inverse = np.unique(
            _row_codes(rows), return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        ids = self.ids
        found = [
            ids.setdefault(row, len(ids))
            for row in map(tuple, rows[first[order]].tolist())
        ]
        lut = np.empty(len(first), dtype=np.int32)
        lut[order] = found
        return lut[inverse.reshape(-1)]


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
        uniq, at = np.unique(keys, return_index=True)
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


def _first_missing(n: int, parts: Iterable[np.ndarray]) -> int | None:
    """The first block at which any of the id arrays is -1."""
    missing = np.zeros(n, dtype=bool)
    for ids in parts:
        missing |= ids < 0
    return int(np.argmax(missing)) if missing.any() else None


class _WordLut:
    """A table keyed by tuples of upstream words, as an array over word ids.

    Upstream word ids combine into one mixed-radix index; the array holds
    the entry's value id where the table has an entry and -1 elsewhere.
    Blocks whose upstream ids are already -1 stay -1.
    """

    def __init__(
        self,
        keys: Sequence[Hashable],
        value_ids: Sequence[int],
        upstream: Sequence[Sequence[str]],
        what: str,
    ):
        self.radix = [len(words) for words in upstream]
        size = math.prod(self.radix)
        if size > MAX_BLOCKS:
            raise DomainTooLarge(
                f"{what} keys span {size} upstream word tuples, above the cap of {MAX_BLOCKS}"
            )
        fits = [isinstance(key, tuple) and len(key) == len(upstream) for key in keys]
        keys = list(itertools.compress(keys, fits))
        at = np.zeros(len(keys), dtype=np.int64)
        valid = np.ones(len(keys), dtype=bool)
        for j, words in enumerate(upstream):
            # A word the upstream edge never carries marks an unreachable entry.
            pos = {w: i for i, w in enumerate(words)}
            col = np.array([pos.get(key[j], -1) for key in keys], dtype=np.int64)
            valid &= col >= 0
            at = at * len(words) + col
        kept = np.asarray(value_ids, dtype=np.int32)[np.asarray(fits, dtype=bool)]
        self.lut = np.full(size, -1, dtype=np.int32)
        self.lut[at[valid]] = kept[valid]

    def __call__(self, parts: Sequence[np.ndarray], n: int) -> np.ndarray:
        at = np.zeros(n, dtype=np.int64)
        valid = np.ones(n, dtype=bool)
        for ids, radix in zip(parts, self.radix):
            valid &= ids >= 0
            at = at * radix + ids
        return np.where(valid, self.lut[np.where(valid, at, 0)], -1)


class _Encoders:
    """A code's encoder tables as integer lookup arrays over word ids."""

    def __init__(self, model: NetworkModel, code: UDCode):
        q, k = model.alphabet_size, code.k
        _block_count(model, k)
        self.edges = _edges_in_topo_order(model)
        self.source_pos = {s: i for i, s in enumerate(model.sources)}
        self.in_ids = {n: _in_ids(model, n) for n in model.nodes}
        self.words: dict[str, list[str]] = {}
        self.luts: dict[str, np.ndarray | _WordLut] = {}
        for e in self.edges:
            table = code.encoders.get(e.id, {})
            words = list(dict.fromkeys(table.values()))
            wid = {w: i for i, w in enumerate(words)}.__getitem__
            self.words[e.id] = words
            if e.tail in self.source_pos:
                lut = np.full(q**k, -1, dtype=np.int32)
                for key, w in table.items():
                    if (
                        isinstance(key, tuple)
                        and len(key) == k
                        and all(isinstance(x, int) and 0 <= x < q for x in key)
                    ):
                        lut[model.arg_index(key)] = wid(w)
                self.luts[e.id] = lut
            else:
                self.luts[e.id] = _WordLut(
                    list(table),
                    [wid(w) for w in table.values()],
                    [self.words[d] for d in self.in_ids[e.tail]],
                    f"edge {e.id}",
                )

    def forward(self, chunk: _Chunk) -> dict[str, np.ndarray]:
        """Word id per block on every edge; -1 where a table has no entry."""
        ids: dict[str, np.ndarray] = {}
        for e in self.edges:
            lut = self.luts[e.id]
            if e.tail in self.source_pos:
                ids[e.id] = lut[chunk.cols[self.source_pos[e.tail]]]
            else:
                ids[e.id] = lut([ids[d] for d in self.in_ids[e.tail]], chunk.n)
        return ids

    def key_words(self, ids: Mapping[str, np.ndarray], upstream: Sequence[str], b: int) -> tuple:
        """The words the upstream edges carry at block b."""
        return tuple(self.words[d][ids[d][b]] for d in upstream)

    def raise_missing(self, chunk: _Chunk, ids: Mapping[str, np.ndarray], b: int) -> None:
        """Raise for the first edge in topological order with no entry at block b."""
        for e in self.edges:
            if ids[e.id][b] >= 0:
                continue
            if e.tail in self.source_pos:
                key = tuple(chunk.xs()[self.source_pos[e.tail]][b].tolist())
            else:
                key = self.key_words(ids, self.in_ids[e.tail], b)
            raise DomainMismatch(f"edge {e.id} has no entry for {key!r}")


def _output_ids(outputs: Iterable, target: Mapping[Hashable, int], k: int) -> np.ndarray:
    """Decoder outputs as ``(m, k)`` target-value ids, -1 where no value matches."""
    known: dict[tuple, list[int]] = {}
    rows = []
    for out in outputs:
        out = tuple(out)
        try:
            ids = known.get(out)
            if ids is None:
                ids = known[out] = [target.get(v, -1) for v in out]
        except TypeError:  # an unhashable value equals no target value
            ids = [-1] * k
        rows.append(ids if len(ids) == k else [-1] * k)
    return np.array(rows, dtype=np.int32).reshape(len(rows), k)


def evaluate(model: NetworkModel, code: UDCode) -> RateReport:
    """Exhaustively simulate a code: correctness, UD images, expected lengths.

    Every source block in the k-shot domain is swept.  A non-UD edge image
    does not stop the sweep; the offending edges are reported in the result.
    """
    k = code.k
    if set(code.encoders) != {e.id for e in model.edges}:
        raise DomainMismatch("code must define exactly one encoder per edge")
    edges = _edges_in_topo_order(model)
    non_ud = []
    for e in edges:
        image = set(code.encoders[e.id].values())
        if not sardinas_patterson(image):
            non_ud.append(e.id)
    enc = _Encoders(model, code)
    sink_ids = enc.in_ids[model.sink]
    decoder = _WordLut(
        list(code.decoder),
        range(len(code.decoder)),
        [enc.words[d] for d in sink_ids],
        "decoder",
    )
    target: dict[Hashable, int] = {}
    row_target = np.array(
        [target.setdefault(v, len(target)) for v in model.function_table], dtype=np.int32
    )
    outputs = _output_ids(code.decoder.values(), target, k)
    word_len = {
        e.id: np.array([len(w) for w in enc.words[e.id]], dtype=np.int64) for e in edges
    }
    lengths = {e.id: np.zeros(1) for e in model.edges}
    admissible = True
    for chunk in _sweep(model, k):
        ids = enc.forward(chunk)
        dec = decoder([ids[d] for d in sink_ids], chunk.n)
        b = _first_missing(chunk.n, [*ids.values(), dec])
        if b is not None:
            enc.raise_missing(chunk, ids, b)
            key = enc.key_words(ids, sink_ids, b)
            raise DomainMismatch(f"decoder has no entry for {key!r}")
        slot = np.zeros(chunk.n, dtype=np.intp)
        for eid, w in ids.items():
            np.add.at(lengths[eid], slot, chunk.p * word_len[eid][w])
        truth = np.stack([row_target[row] for row in chunk.rows], axis=1)
        admissible = admissible and bool((outputs[dec] == truth).all())
    total = {eid: float(acc[0]) for eid, acc in lengths.items()}
    rates = {eid: length / k for eid, length in total.items()}
    return RateReport(
        k=k,
        admissible=admissible,
        edge_lengths=total,
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


def _word_tuples(ids: np.ndarray, words: Sequence[Sequence[str]]) -> list[tuple]:
    """Each row of an ``(m, c)`` array of value ids as the tuple of the c edges' words."""
    columns = [[ws[i] for i in ids[:, j].tolist()] for j, ws in enumerate(words)]
    return list(zip(*columns)) if columns else [()] * len(ids)


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
            rows = _scheme_rows(
                scheme.edge_functions[e.id](xs), chunk.n, f"edge function {e.id}"
            )
            vid = vids[e.id] = values[e.id](rows)
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
    return values, mass, keys, first, _distinct_rows(np.concatenate(sink))


def huffman_transform(model: NetworkModel, scheme: FixedScheme) -> UDCode:
    """Binary-code a symbol-level scheme edge by edge with Huffman words.

    The sweep records each edge's image distribution under the i.i.d.
    k-shot source law, checks that the scheme is locally realizable (each
    edge's value must be a function of what that edge can see), and emits
    the composed lookup tables.
    """
    k = scheme.k
    q = model.alphabet_size
    source_pos = {s: i for i, s in enumerate(model.sources)}
    in_ids = {n: _in_ids(model, n) for n in model.nodes}
    sink_ids = in_ids[model.sink]
    values, mass, keys, first, dec_keys = _scheme_images(model, scheme, k, source_pos, in_ids)
    # Per edge, the Huffman word and the value row of each value id.
    words: dict[str, list[str]] = {}
    value_rows: dict[str, np.ndarray] = {}
    for e in model.edges:
        dist = dict(zip(values[e.id].ids, mass[e.id].tolist()))
        huff = _huffman(dist)
        words[e.id] = [huff[v] for v in dist]
        value_rows[e.id] = np.array(list(dist), dtype=np.int64)
    encoders: dict[str, dict] = {}
    for e in model.edges:
        seen = first[e.id].first
        if e.tail in source_pos:
            cols = np.flatnonzero(seen >= 0)
            encoders[e.id] = {
                tuple(col): words[e.id][v]
                for col, v in zip(_digits(cols, q, k).tolist(), seen[cols].tolist())
            }
        else:
            upstream = in_ids[e.tail]
            rows = keys[e.id].ids
            key_ids = np.array(list(rows), dtype=np.int64).reshape(len(rows), len(upstream))
            encoders[e.id] = dict(
                zip(
                    _word_tuples(key_ids, [words[d] for d in upstream]),
                    [words[e.id][v] for v in seen[: len(rows)].tolist()],
                )
            )
    outputs = np.asarray(
        scheme.decoder(
            {d: value_rows[d][dec_keys[:, j]] for j, d in enumerate(sink_ids)}
        )
    )
    if outputs.ndim != 2 or len(outputs) != len(dec_keys):
        raise UsageError(
            f"scheme decoder must give a ({len(dec_keys)}, k) array, got shape "
            f"{outputs.shape}"
        )
    # Equal outputs share one tuple; slices keep the list form of the array small.
    canon: dict[tuple, tuple] = {}
    targets = [
        canon.setdefault(out, out)
        for start in range(0, len(outputs), CHUNK_BLOCKS)
        for out in map(tuple, outputs[start : start + CHUNK_BLOCKS].tolist())
    ]
    decoder = dict(zip(_word_tuples(dec_keys, [words[d] for d in sink_ids]), targets))
    return UDCode(k=k, encoders=encoders, decoder=decoder)


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


def cut_coloring_check(model: NetworkModel, code: UDCode, partition: StrongPartition) -> bool:
    """Whether the code's cut words color the characteristic graph at the code's k.

    The tuple of words carried by the cut edges is computed for every input
    block and projected onto the graph's vertices; the check passes when
    every edge of the graph receives two distinct tuples.  Cut words that
    depend on sources outside the cut's K set mean ``partition.cut`` does
    not belong to ``model``, which raises UsageError.
    """
    k, cut = code.k, partition.cut
    cg = chargraph.build(model, partition, k)
    enc = _Encoders(model, code)
    order_pos = [enc.source_pos[s] for s in cg.order]
    width = model.alphabet_size**k
    colors = _Interner()
    first = _FirstValue()
    for chunk in _sweep(model, k):
        ids = enc.forward(chunk)
        missing = _first_missing(chunk.n, ids.values())
        color = colors(_stack([ids[eid] for eid in cut.cut], chunk.n))
        # The vertex index of a block: its K-set columns in mixed radix,
        # the order in which chargraph enumerates its assignments.
        vertex = np.zeros(chunk.n, dtype=np.int64)
        for p in order_pos:
            vertex = vertex * width + chunk.cols[p]
        clash = first.violation(vertex, color)
        if clash is not None and (missing is None or clash < missing):
            raise UsageError(
                f"cut {','.join(cut.cut)} carries words that depend on sources "
                "outside its K set; the cut analysis does not match the model"
            )
        if missing is not None:
            enc.raise_missing(chunk, ids, missing)
    return pgraph.is_coloring(cg.graph, dict(zip(cg.graph.vertices, first.first.tolist())))


# -- JSON round trip for code tables ------------------------------------------


def code_to_dict(model: NetworkModel, code: UDCode) -> dict:
    """JSON form of a code; source-edge keys are written like ``format_assignment``."""
    q = model.alphabet_size
    source_names = set(model.sources)
    enc_doc: dict[str, dict] = {}
    for e in model.edges:
        table = code.encoders[e.id]
        if e.tail in source_names:
            enc_doc[e.id] = {
                format_assignment((key,), q): w for key, w in sorted(table.items())
            }
        else:
            enc_doc[e.id] = {",".join(key): w for key, w in sorted(table.items())}
    dec_doc = {",".join(key): list(out) for key, out in sorted(code.decoder.items())}
    return {"k": code.k, "encoders": enc_doc, "decoder": dec_doc}


def code_from_dict(model: NetworkModel, doc: Mapping) -> UDCode:
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
    q = model.alphabet_size
    source_names = set(model.sources)
    encoders: dict[str, dict] = {}
    for e in model.edges:
        if e.id not in enc_doc:
            raise UsageError(f"code document is missing edge {e.id}")
        if not isinstance(enc_doc[e.id], Mapping):
            raise UsageError(f"code document: edge {e.id} table must be an object")
        table = {}
        for key, w in enc_doc[e.id].items():
            if e.tail in source_names:
                try:
                    table[parse_assignment(key, q, 1, k)[0]] = str(w)
                except UsageError as exc:
                    raise UsageError(f"edge {e.id}: source key {exc}") from None
            else:
                table[tuple(key.split(","))] = str(w)
        encoders[e.id] = table
    decoder = {}
    for key, out in dec_doc.items():
        if not isinstance(out, list):
            raise UsageError(f"code document: decoder entry {key!r} must be a list")
        decoder[tuple(key.split(","))] = tuple(out)
    return UDCode(k=k, encoders=encoders, decoder=decoder)
