"""Reference constructions for the paper's side claims.

The calculator never runs these; tests use them to check what the paper
states about the graphs it builds:

* graph operations: complement, the AND/OR products of probabilistic
  graphs, projection onto a vertex subset and contraction of an autonomous
  set to one vertex (the substitution lemma), and each vertex's exact
  probability, its mass over the graph's scale;
* the sandwich: the k-shot characteristic graph sits between the k-fold
  AND and OR powers of the single-shot graph;
* additivity of clique entropy over AND products;
* admissibility of a distribution for the improved bound at one pair, and
  the null space of its marginal constraints by SVD;
* cut words that color the characteristic graph, by a per-block loop;
* unique decodability by the Sardinas-Patterson test with an all-pairs
  first round;
* a code's integer tables expanded into dict tables, the form the
  per-block references read, and the JSON form of those tables, the
  inverse of ``codesim.code_from_dict``.

Every failure raises ``UsageError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from netfuncomp import bounds, chargraph, codesim, entropy
from netfuncomp.errors import DomainMismatch, UsageError
from netfuncomp.netmodel import NetworkModel, StrongPartition, format_assignment
from netfuncomp.pgraph import ProbGraph, _bits, _complement_masks


# -- graph operations -----------------------------------------------------------


def complement(g: ProbGraph) -> ProbGraph:
    co = _complement_masks(g.adjacency_masks())
    edges = [(g.vertices[i], g.vertices[j]) for i in range(g.n) for j in _bits(co[i]) if j > i]
    return ProbGraph(g.vertices, edges, g.dist, g.scale)


def probabilities(g: ProbGraph) -> list[Fraction]:
    """Each vertex's exact probability: its mass over the graph's scale."""
    return [Fraction(m) / g.scale for m in g.dist]


def _product(graphs: Sequence[ProbGraph], conjunctive: bool) -> ProbGraph:
    if not graphs:
        raise UsageError("product of zero graphs")
    index_combos = list(itertools.product(*(range(g.n) for g in graphs)))
    verts = [
        tuple(g.vertices[i] for g, i in zip(graphs, combo)) for combo in index_combos
    ]
    dist = [
        math.prod(g.dist[i] for g, i in zip(graphs, combo)) for combo in index_combos
    ]
    adjs = [g.adjacency_masks() for g in graphs]
    edges = []
    for a in range(len(index_combos)):
        ca = index_combos[a]
        for b in range(a + 1, len(index_combos)):
            cb = index_combos[b]
            hit = False
            ok = True
            for adj, ia, ib in zip(adjs, ca, cb):
                if ia == ib:
                    continue
                if adj[ia] >> ib & 1:
                    hit = True
                elif conjunctive:
                    ok = False
                    break
            if conjunctive:
                if ok:
                    edges.append((verts[a], verts[b]))
            elif hit:
                edges.append((verts[a], verts[b]))
    return ProbGraph(verts, edges, dist, math.prod(g.scale for g in graphs))


def and_product(graphs: Sequence[ProbGraph]) -> ProbGraph:
    """Conjunctive power: distinct tuples joined iff every differing coordinate is."""
    return _product(graphs, conjunctive=True)


def or_product(graphs: Sequence[ProbGraph]) -> ProbGraph:
    """Disjunctive power: distinct tuples joined iff some differing coordinate is."""
    return _product(graphs, conjunctive=False)


def project(g: ProbGraph, subset: Iterable) -> ProbGraph:
    """Induced subgraph with the distribution renormalized to ``subset``."""
    wanted = set(subset)
    keep = [v for v in g.vertices if v in wanted]
    if not keep:
        raise UsageError("projection onto an empty vertex set")
    mass = g.mass(keep)
    if mass == 0:
        raise UsageError("projection target has zero probability")
    kept = set(keep)
    edges = [(u, v) for u, v in g.edges() if u in kept and v in kept]
    dist = [g.dist[g.index(v)] / mass for v in keep]
    return ProbGraph(keep, edges, dist)


def outside_neighborhood(g: ProbGraph, subset: Iterable) -> frozenset | None:
    """The common neighborhood outside ``subset``, or None if members disagree."""
    wanted = set(subset)
    members = [v for v in g.vertices if v in wanted]
    inside = set(members)
    common: frozenset | None = None
    for v in members:
        outside = frozenset(u for u in g.neighbors(v) if u not in inside)
        if common is None:
            common = outside
        elif common != outside:
            return None
    return common if common is not None else frozenset()


def replace(g: ProbGraph, subset: Iterable, new_label) -> ProbGraph:
    """Contract an autonomous set to one vertex carrying its total mass."""
    wanted = set(subset)
    members = [v for v in g.vertices if v in wanted]
    if not members:
        raise UsageError("cannot replace an empty vertex set")
    common = outside_neighborhood(g, members)
    if common is None:
        raise UsageError("members disagree on their outside neighborhood")
    mass = g.mass(members)
    if mass == 0:
        raise UsageError("replaced set has zero probability")
    inside = set(members)
    if new_label in set(g.vertices) - inside:
        raise UsageError(f"label {new_label!r} already present")
    slot = g.index(members[0])
    verts = []
    dist = []
    for i, v in enumerate(g.vertices):
        if i == slot:
            verts.append(new_label)
            dist.append(mass)
        elif v not in inside:
            verts.append(v)
            dist.append(g.dist[i])
    edges = [(u, v) for u, v in g.edges() if u not in inside and v not in inside]
    edges.extend((new_label, u) for u in common)
    return ProbGraph(verts, edges, dist, g.scale)


# -- entropies ------------------------------------------------------------------


def shannon_entropy(dist: Sequence) -> float:
    """Entropy of a probability vector, in bits."""
    total = sum(dist)
    if any(p < 0 for p in dist) or abs(total - 1) > 1e-9:
        raise UsageError(f"not a distribution (sum {float(total)!r})")
    return entropy._entropy_of_masses(list(dist))


def clique_entropy_product_check(graphs: Sequence[ProbGraph]) -> dict:
    """Clique entropy of the AND product versus the sum over factors."""
    prod_res = entropy.clique_entropy(and_product(graphs))
    parts = [entropy.clique_entropy(g) for g in graphs]
    sum_value = sum(r.value for r in parts)
    return {
        "product_value": prod_res.value,
        "sum_value": sum_value,
        "delta": prod_res.value - sum_value,
        "product_method": prod_res.method,
        "factor_values": [r.value for r in parts],
    }


# -- characteristic graphs and bounds ----------------------------------------------


@dataclass(frozen=True)
class SandwichReport:
    """Edge-set comparison of the k-shot graph against the k-fold powers."""

    k: int
    and_inside_k: bool
    k_inside_or: bool
    counterexample: tuple[str, str] | None
    and_edges: int
    k_edges: int
    or_edges: int

    @property
    def ok(self) -> bool:
        return self.and_inside_k and self.k_inside_or


def sandwich_check(model: NetworkModel, partition: StrongPartition, k: int) -> SandwichReport:
    """Check that the k-shot graph sits between the AND and OR powers.

    Both powers are built from the single-shot graph with the generic
    product operations, relabeled shot-wise to k-shot vertex labels, and
    compared edge set against edge set.
    """
    if not 1 <= k <= 3:
        raise UsageError("sandwich comparison is supported for k in 1..3")
    g1 = chargraph.build(model, partition, 1)
    gk = chargraph.build(model, partition, k)
    and_g = and_product([g1.graph] * k)
    or_g = or_product([g1.graph] * k)

    label_of = {}
    q = model.alphabet_size
    by_label = {lbl: asg for lbl, asg in zip(g1.graph.vertices, g1.assignments)}
    for combo in and_g.vertices:
        shots = [by_label[lbl] for lbl in combo]
        merged = tuple(
            tuple(shots[r][ci][0] for r in range(k)) for ci in range(len(g1.order))
        )
        label_of[combo] = format_assignment(merged, q)

    def edge_set(g: ProbGraph, relabel: bool) -> set[frozenset[str]]:
        out = set()
        for u, v in g.edges():
            if relabel:
                out.add(frozenset((label_of[u], label_of[v])))
            else:
                out.add(frozenset((u, v)))
        return out

    and_edges = edge_set(and_g, relabel=True)
    or_edges = edge_set(or_g, relabel=True)
    k_edges = edge_set(gk.graph, relabel=False)

    counter = None
    and_in_k = and_edges <= k_edges
    if not and_in_k:
        counter = tuple(sorted(next(iter(and_edges - k_edges))))
    k_in_or = k_edges <= or_edges
    if counter is None and not k_in_or:
        counter = tuple(sorted(next(iter(k_edges - or_edges))))
    return SandwichReport(
        k, and_in_k, k_in_or, counter, len(and_edges), len(k_edges), len(or_edges)
    )


def is_pc_equivalent(
    phat: Sequence[float],
    model: NetworkModel,
    partition: StrongPartition,
    *,
    tol: float = 1e-9,
) -> bool:
    """Whether ``phat`` is admissible for the improved bound at this pair.

    ``phat`` is indexed like the single-shot characteristic graph vertices
    (all blocks over I and J in canonical order).  It must be a strictly
    positive distribution matching the source distribution's marginal on
    every block scope.
    """
    graph = bounds._Graph(model, partition)
    p = np.asarray(phat, dtype=float)
    if p.shape != graph.base.shape:
        raise UsageError(f"expected {graph.base.size} masses, got {p.shape}")
    if np.any(np.isnan(p)) or abs(float(p.sum()) - 1.0) > tol or np.any(p < -tol):
        raise UsageError("not a probability vector")
    if np.any(p <= 0):
        return False
    m = graph.rows
    return bool(np.max(np.abs(m @ p - m @ graph.base)) <= tol)


def null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``rows``, by a full SVD.

    The reference for ``bounds._Graph.null``: the rank counts the singular
    values above the usual tolerance, ``max(shape) * eps * s_max``.
    """
    if rows.size == 0:
        return np.eye(rows.shape[1])
    _, s, vh = np.linalg.svd(rows)
    tol = max(rows.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    return vh[rank:].T.copy()


# -- codes ------------------------------------------------------------------------


def blocks(model: NetworkModel, k: int):
    """Every k-shot source block, one column per source, in sweep order."""
    columns = list(itertools.product(range(model.alphabet_size), repeat=k))
    return itertools.product(columns, repeat=model.num_sources)


@dataclass(frozen=True)
class CodeTables:
    """A code as dict tables, the form the per-block references read.

    ``encoders[e]`` maps a source edge's k-column, or any other edge's
    tuple of upstream words in ascending in-edge-id order, to edge e's
    word; ``decoder`` maps the tuple of sink input words to the k target
    values.
    """

    k: int
    encoders: dict
    decoder: dict


def code_tables(model: NetworkModel, code: codesim.UDCode) -> CodeTables:
    """A code's integer tables expanded into dict tables.

    Decoder entries are listed in order of the output row they point to,
    and a target-value id of -1 (no value of the function) becomes None.
    """
    q, k = model.alphabet_size, code.k
    # Index -1 picks the appended None.
    values = [*dict.fromkeys(model.function_table), None]

    def word_keys(node: str):
        return itertools.product(*(code.words[d] for d in codesim._in_ids(model, node)))

    encoders = {}
    for e in model.edges:
        if e.tail in model.sources:
            keys = itertools.product(range(q), repeat=k)
        else:
            keys = word_keys(e.tail)
        table = zip(keys, code.tables[e.id].tolist())
        encoders[e.id] = {key: code.words[e.id][i] for key, i in table if i >= 0}
    entries = [(row, key) for key, row in zip(word_keys(model.sink), code.decoder.tolist())]
    outputs = code.outputs.tolist()
    decoder = {
        key: tuple(values[i] for i in outputs[row])
        for row, key in sorted(entries, key=lambda entry: entry[0])
        if row >= 0
    }
    return CodeTables(k, encoders, decoder)


def ref_forward(model: NetworkModel, tables: CodeTables, xs) -> dict[str, str]:
    """The word on every edge for one source block, by table lookup."""
    edges = codesim._edges_in_topo_order(model)
    source_pos = {s: i for i, s in enumerate(model.sources)}
    y = {}
    for e in edges:
        if e.tail in source_pos:
            key = xs[source_pos[e.tail]]
        else:
            key = tuple(y[d] for d in codesim._in_ids(model, e.tail))
        try:
            y[e.id] = tables.encoders[e.id][key]
        except KeyError:
            raise DomainMismatch(f"edge {e.id} has no entry for {key!r}") from None
    return y


def ref_cut_coloring_check(
    model: NetworkModel, code: codesim.UDCode, partition: StrongPartition
) -> bool:
    """Whether the code's cut words color the characteristic graph at the code's k.

    Cut words that depend on sources outside the cut's K set mean
    ``partition.cut`` does not belong to ``model``, which raises UsageError.
    """
    k, cut = code.k, partition.cut
    cg = chargraph.build(model, partition, k)
    tables = code_tables(model, code)
    source_pos = {s: i for i, s in enumerate(model.sources)}
    colors = {}
    for xs in blocks(model, k):
        y = ref_forward(model, tables, xs)
        word = tuple(y[eid] for eid in cut.cut)
        if colors.setdefault(tuple(xs[source_pos[s]] for s in cg.order), word) != word:
            raise UsageError("the cut analysis does not match the model")
    coloring = {lbl: colors[asg] for asg, lbl in zip(cg.assignments, cg.graph.vertices)}
    return all(coloring[u] != coloring[v] for u, v in cg.graph.edges())


def ref_sardinas_patterson(words: Iterable[str]) -> bool:
    """Whether a set of nonempty binary words is uniquely decodable.

    Dangling suffixes start from every ordered pair of codewords where one
    prefixes the other; the set is uniquely decodable exactly when no round
    produces a codeword.
    """
    code = set(words)

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


def tables_to_dict(model: NetworkModel, tables: CodeTables) -> dict:
    """JSON form of dict tables; source-edge keys are written like ``format_assignment``."""
    q = model.alphabet_size
    enc_doc: dict[str, dict] = {}
    for e in model.edges:
        table = tables.encoders[e.id]
        if e.tail in model.sources:
            enc_doc[e.id] = {
                format_assignment((key,), q): w for key, w in sorted(table.items())
            }
        else:
            enc_doc[e.id] = {",".join(key): w for key, w in sorted(table.items())}
    dec_doc = {",".join(key): list(out) for key, out in sorted(tables.decoder.items())}
    return {"k": tables.k, "encoders": enc_doc, "decoder": dec_doc}


def code_to_dict(model: NetworkModel, code: codesim.UDCode) -> dict:
    """JSON form of a code, the inverse of ``codesim.code_from_dict``."""
    return tables_to_dict(model, code_tables(model, code))
