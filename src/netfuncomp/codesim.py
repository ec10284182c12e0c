"""Concrete variable-length network codes and their simulation.

A :class:`UDCode` stores one lookup table per edge mapping that edge's
inputs (the tail source's k-shot column for a source edge, the upstream
codewords otherwise) to binary words, plus a decoder table at the sink.
:func:`evaluate` sweeps every input block, checks zero-error recovery of
the target function, verifies each edge's image set with the
Sardinas-Patterson test, and accumulates expected codeword lengths under
the i.i.d. extension of the source distribution.

Symbol-level strategies enter through :class:`FixedScheme`: per-edge
functions of the source block together with a value decoder.
:func:`huffman_transform` turns a scheme into a UDCode by Huffman coding
each edge's image distribution, which keeps every edge's expected length
within one bit of the image entropy and is exactly optimal for dyadic
images.  The built-in :func:`diamond_scheme` routes half of the shared
source's block through each relay of the diamond network so both relay
edges carry a partial sum.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

from . import chargraph
from .errors import (
    DomainMismatch,
    EmptyWord,
    OddK,
    UsageError,
)
from .netmodel import (
    CutAnalysis,
    Edge,
    NetworkModel,
    StrongPartition,
    _context,
    format_assignment,
)


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


@dataclass(frozen=True, eq=False)
class UDCode:
    """Tables for one variable-length code: per-edge encoders plus a decoder.

    Source-edge tables are keyed by the tail source's k-column; other edges
    are keyed by the tuple of upstream words in ascending in-edge-id order,
    which is also the decoder's key convention at the sink.
    """

    k: int
    encoders: Mapping[str, Mapping]
    decoder: Mapping[tuple, tuple]


@dataclass(frozen=True, eq=False)
class FixedScheme:
    """Symbol-level edge functions plus a value decoder, before binary coding.

    Edge functions receive the full source block as a tuple of k-columns in
    model source order; the decoder receives the sink in-edge values keyed
    by edge id and must return the k target values.
    """

    name: str
    k: int
    edge_functions: Mapping[str, Callable[[tuple], Hashable]]
    decoder: Callable[[Mapping[str, Hashable]], tuple]


@dataclass(frozen=True, eq=False)
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


def _row_probs(model: NetworkModel) -> dict[tuple[int, ...], float]:
    return {
        xs: model.distribution[idx]
        for idx, xs in enumerate(
            itertools.product(model.symbols, repeat=model.num_sources)
        )
    }


def _forward(
    model: NetworkModel,
    code: UDCode,
    xs: tuple[tuple[int, ...], ...],
    edges: list[Edge],
    source_pos: dict[str, int],
    in_ids: dict[str, tuple[str, ...]],
) -> dict[str, str]:
    y: dict[str, str] = {}
    for e in edges:
        if e.tail in source_pos:
            key = xs[source_pos[e.tail]]
        else:
            key = tuple(y[d] for d in in_ids[e.tail])
        try:
            y[e.id] = code.encoders[e.id][key]
        except KeyError:
            raise DomainMismatch(f"edge {e.id} has no entry for {key!r}") from None
    return y


def evaluate(model: NetworkModel, code: UDCode) -> RateReport:
    """Exhaustively simulate a code: correctness, UD images, expected lengths.

    Every source block in the k-shot domain is swept.  A non-UD edge image
    does not stop the sweep; the offending edges are reported in the result.
    """
    k = code.k
    if set(code.encoders) != {e.id for e in model.edges}:
        raise DomainMismatch("code must define exactly one encoder per edge")
    edges = _edges_in_topo_order(model)
    source_pos = {s: i for i, s in enumerate(model.sources)}
    in_ids = {n: _in_ids(model, n) for n in model.nodes}
    non_ud = []
    for e in edges:
        image = set(code.encoders[e.id].values())
        if not sardinas_patterson(image):
            non_ud.append(e.id)
    row_prob = _row_probs(model)
    table = model.function_table
    q = model.alphabet_size
    lengths = {e.id: 0.0 for e in model.edges}
    admissible = True
    sink_ids = in_ids[model.sink]
    columns = list(itertools.product(range(q), repeat=k))
    for xs in itertools.product(columns, repeat=model.num_sources):
        p = 1.0
        truth = []
        for r in range(k):
            row = tuple(col[r] for col in xs)
            p *= row_prob[row]
            truth.append(table[model.arg_index(row)])
        y = _forward(model, code, xs, edges, source_pos, in_ids)
        for eid, w in y.items():
            lengths[eid] += p * len(w)
        dec_key = tuple(y[d] for d in sink_ids)
        try:
            got = code.decoder[dec_key]
        except KeyError:
            raise DomainMismatch(f"decoder has no entry for {dec_key!r}") from None
        if tuple(got) != tuple(truth):
            admissible = False
    rates = {eid: length / k for eid, length in lengths.items()}
    return RateReport(
        k=k,
        admissible=admissible,
        edge_lengths=lengths,
        edge_rates=rates,
        max_rate=max(rates.values()),
        non_ud_edges=tuple(non_ud),
    )


def huffman_transform(
    model: NetworkModel, scheme: FixedScheme, k: int | None = None
) -> UDCode:
    """Binary-code a symbol-level scheme edge by edge with Huffman words.

    The sweep records each edge's image distribution under the i.i.d.
    k-shot source law, checks that the scheme is locally realizable (each
    edge's value must be a function of what that edge can see), and emits
    the composed lookup tables.
    """
    if k is None:
        k = scheme.k
    if k != scheme.k:
        raise UsageError(f"scheme is for k={scheme.k}, requested k={k}")
    q = model.alphabet_size
    edges = _edges_in_topo_order(model)
    source_pos = {s: i for i, s in enumerate(model.sources)}
    in_ids = {n: _in_ids(model, n) for n in model.nodes}
    sink_ids = in_ids[model.sink]
    row_prob = _row_probs(model)
    image_dist: dict[str, dict[Hashable, float]] = {e.id: {} for e in model.edges}
    source_map: dict[str, dict] = {e.id: {} for e in model.edges if e.tail in source_pos}
    comp_map: dict[str, dict] = {e.id: {} for e in model.edges if e.tail not in source_pos}
    dec_vals: dict[tuple, tuple] = {}
    columns = list(itertools.product(range(q), repeat=k))
    for xs in itertools.product(columns, repeat=model.num_sources):
        p = 1.0
        for r in range(k):
            p *= row_prob[tuple(col[r] for col in xs)]
        vals: dict[str, Hashable] = {}
        for e in edges:
            v = scheme.edge_functions[e.id](xs)
            vals[e.id] = v
            d = image_dist[e.id]
            d[v] = d.get(v, 0.0) + p
            if e.tail in source_pos:
                key = xs[source_pos[e.tail]]
                prev = source_map[e.id].setdefault(key, v)
            else:
                key = tuple(vals[d_id] for d_id in in_ids[e.tail])
                prev = comp_map[e.id].setdefault(key, v)
            if prev != v:
                raise DomainMismatch(
                    f"edge {e.id} value is not a function of its local input"
                )
        dec_key = tuple(vals[d_id] for d_id in sink_ids)
        if dec_key not in dec_vals:
            dec_vals[dec_key] = tuple(scheme.decoder({d_id: vals[d_id] for d_id in sink_ids}))
    words = {eid: _huffman(dist) for eid, dist in image_dist.items()}
    encoders: dict[str, dict] = {}
    for e in model.edges:
        if e.tail in source_pos:
            encoders[e.id] = {
                key: words[e.id][v] for key, v in source_map[e.id].items()
            }
        else:
            upstream = in_ids[e.tail]
            encoders[e.id] = {
                tuple(words[d_id][vd] for d_id, vd in zip(upstream, key)): words[e.id][v]
                for key, v in comp_map[e.id].items()
            }
    decoder = {
        tuple(words[d_id][vd] for d_id, vd in zip(sink_ids, key)): out
        for key, out in dec_vals.items()
    }
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

    def e5(xs: tuple) -> tuple:
        x1, x2 = xs[0], xs[1]
        return tuple(x1[i] + x2[i] for i in range(half)) + x1[half:]

    def e6(xs: tuple) -> tuple:
        x2, x3 = xs[1], xs[2]
        return x3[:half] + tuple(x2[i] + x3[i] for i in range(half, k))

    functions = {
        "e1": lambda xs: xs[0],
        "e2": lambda xs: xs[1][:half],
        "e3": lambda xs: xs[1][half:],
        "e4": lambda xs: xs[2],
        "e5": e5,
        "e6": e6,
    }

    def decode(values: Mapping[str, Hashable]) -> tuple:
        y5, y6 = values["e5"], values["e6"]
        return tuple(a + b for a, b in zip(y5, y6))

    return FixedScheme("diamond-split", k, functions, decode)


def cut_coloring_check(
    model: NetworkModel,
    code: UDCode,
    cut: CutAnalysis,
    partition: StrongPartition,
    k: int,
) -> bool:
    """Whether the code's cut words color the k-shot characteristic graph.

    The tuple of words carried by the cut edges is computed for every input
    block and projected onto the graph's vertices; the check passes when
    every edge of the graph receives two distinct tuples.  Cut words that
    depend on sources outside the cut's K set mean ``cut`` does not belong
    to ``model``, which raises UsageError.
    """
    if k != code.k:
        raise UsageError(f"code is for k={code.k}, requested k={k}")
    cg = chargraph.build(model, cut, partition, k)
    edges = _edges_in_topo_order(model)
    source_pos = {s: i for i, s in enumerate(model.sources)}
    in_ids = {n: _in_ids(model, n) for n in model.nodes}
    order_pos = [source_pos[s] for s in cg.order]
    cut_ids = cut.cut
    q = model.alphabet_size
    colors: dict[tuple, tuple] = {}
    columns = list(itertools.product(range(q), repeat=k))
    for xs in itertools.product(columns, repeat=model.num_sources):
        y = _forward(model, code, xs, edges, source_pos, in_ids)
        word = tuple(y[eid] for eid in cut_ids)
        key = tuple(xs[p] for p in order_pos)
        prev = colors.setdefault(key, word)
        if prev != word:
            raise UsageError(
                f"cut {','.join(cut_ids)} carries words that depend on sources "
                "outside its K set; the cut analysis does not match the model"
            )
    label = {asg: lbl for asg, lbl in zip(cg.assignments, cg.graph.vertices)}
    coloring = {label[asg]: colors[asg] for asg in cg.assignments}
    return all(coloring[u] != coloring[v] for u, v in cg.graph.edges())


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
        k = int(doc["k"])
        enc_doc = doc["encoders"]
        dec_doc = doc["decoder"]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed code document: {exc}") from exc
    q = model.alphabet_size
    source_names = set(model.sources)
    encoders: dict[str, dict] = {}
    for e in model.edges:
        if e.id not in enc_doc:
            raise UsageError(f"code document is missing edge {e.id}")
        table = {}
        for key, w in enc_doc[e.id].items():
            if e.tail in source_names:
                symbols = key if q <= 10 else key.split(",")
                try:
                    table[tuple(int(c) for c in symbols)] = str(w)
                except ValueError:
                    raise UsageError(
                        f"edge {e.id}: source key {key!r} is not a block of symbols"
                    ) from None
            else:
                table[tuple(key.split(","))] = str(w)
        encoders[e.id] = table
    decoder = {
        tuple(key.split(",")): tuple(out) for key, out in dec_doc.items()
    }
    return UDCode(k=k, encoders=encoders, decoder=decoder)
