"""Characteristic graphs of a cut under a strong partition.

Vertices are the k-shot blocks over the separated sources I and the
side-information sources J, weighted by the i.i.d. extension of the source
distribution marginalized to those sources.  Two distinct blocks sharing
the same side information are joined when a code crossing the cut must
tell them apart:

* they are not interchangeable on I given that side information, or
* they are interchangeable, agree on the leftover set L, and some
  partition block sees non-interchangeable sub-blocks.

Any valid coloring of this graph is a lower bound witness for what the cut
must carry, and its clique entropy divided by the cut size is the basic
rate bound contributed by the pair.

Construction routes every adjacency decision through the equivalence-class
partitions, which also yields per-vertex layer coordinates: side
information fiber, global class, leftover block, and the per-block class
tuple (the bracket).  :func:`layer_report` re-derives the four-layer
nesting from the finished adjacency alone, using only generic component
machinery, and cross-checks it against those coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import equiv, pgraph
from .errors import TooLarge, UsageError
from .netmodel import (
    Assignment,
    CutAnalysis,
    NetworkModel,
    StrongPartition,
    assignment_count,
    enumerate_assignments,
    format_assignment,
    restrict_sources,
)

VERTEX_CAP = 2**14
"""Most vertices a characteristic graph may have."""


class LayerCoord(NamedTuple):
    """Structural coordinates of one vertex."""

    fiber: int  # index of its side-information block
    cls: int  # index of its global class within the fiber
    leftover: int  # index of its block on the leftover set L
    bracket: tuple[int, ...]  # per-partition-block class indices


@dataclass(frozen=True)
class CharGraph:
    """A built characteristic graph plus its structural bookkeeping.

    ``order`` lists the I and J sources in model order; every assignment is
    coordinate-aligned with it.  ``graph`` vertex labels are the canonical
    flattened strings of those assignments, in enumeration order.
    """

    graph: pgraph.ProbGraph
    partition: StrongPartition
    k: int
    order: tuple[str, ...]
    assignments: tuple[Assignment, ...]
    layers: tuple[LayerCoord, ...]

    @property
    def cut(self) -> CutAnalysis:
        return self.partition.cut


def build(model: NetworkModel, partition: StrongPartition, k: int = 1) -> CharGraph:
    """Construct the k-shot characteristic graph of a strong partition of a cut."""
    if k < 1:
        raise UsageError("k must be at least 1")
    cut = partition.cut
    q = model.alphabet_size
    i_tuple = restrict_sources(model, cut.i_set)
    j_tuple = restrict_sources(model, cut.j_set)
    l_tuple = restrict_sources(model, partition.l_set)
    order = restrict_sources(model, cut.i_set | cut.j_set)
    n_vertices = assignment_count(q, len(order), k)
    if n_vertices > VERTEX_CAP:
        raise TooLarge(f"{n_vertices} vertices exceed the cap of {VERTEX_CAP}")

    i_pos = [order.index(s) for s in i_tuple]
    j_pos = [order.index(s) for s in j_tuple]
    l_pos = [order.index(s) for s in l_tuple]
    ell_pos = [
        [order.index(s) for s in restrict_sources(model, iset)]
        for iset in partition.i_sets
    ]

    marginal = _marginal_fractions(model, order)
    assignments = tuple(enumerate_assignments(q, len(order), k))
    labels = tuple(format_assignment(a, q) for a in assignments)
    dist = []
    for a in assignments:
        p = Fraction(1)
        for r in range(k):
            p *= marginal[tuple(col[r] for col in a)]
        dist.append(p)

    j_blocks = list(enumerate_assignments(q, len(j_tuple), k))
    fiber_of_aj = {a_j: fi for fi, a_j in enumerate(j_blocks)}
    l_blocks = list(enumerate_assignments(q, len(l_tuple), k))
    leftover_of_al = {a_l: li for li, a_l in enumerate(l_blocks)}

    layers: list[LayerCoord] = []
    fibers: dict[int, list[int]] = {}
    class_index_of_fiber: dict[int, dict[Assignment, int]] = {}
    block_indices_of: dict[tuple[int, int], list[dict[Assignment, int]]] = {}
    for vid, a in enumerate(assignments):
        a_j = tuple(a[p] for p in j_pos)
        a_l = tuple(a[p] for p in l_pos)
        b_i = tuple(a[p] for p in i_pos)
        fi = fiber_of_aj[a_j]
        li = leftover_of_al[a_l]
        if fi not in class_index_of_fiber:
            class_index_of_fiber[fi] = equiv.i_aj_classes(
                model, i_tuple, j_tuple, a_j, k
            ).class_index()
        key = (fi, li)
        if key not in block_indices_of:
            block_indices_of[key] = [
                equiv.il_al_aj_classes(model, partition, ell, a_l, a_j, k).class_index()
                for ell in range(partition.m)
            ]
        bracket = tuple(
            block_indices_of[key][ell][tuple(a[p] for p in ell_pos[ell])]
            for ell in range(partition.m)
        )
        layers.append(LayerCoord(fi, class_index_of_fiber[fi][b_i], li, bracket))
        fibers.setdefault(fi, []).append(vid)

    edges = []
    for members in fibers.values():
        for ai in range(len(members)):
            u = members[ai]
            lu = layers[u]
            for bi in range(ai + 1, len(members)):
                v = members[bi]
                lv = layers[v]
                if lu.cls != lv.cls:
                    edges.append((labels[u], labels[v]))
                elif lu.leftover == lv.leftover and lu.bracket != lv.bracket:
                    edges.append((labels[u], labels[v]))

    graph = pgraph.ProbGraph(labels, edges, dist)
    return CharGraph(graph, partition, k, order, assignments, tuple(layers))


def _marginal_fractions(
    model: NetworkModel, order: tuple[str, ...]
) -> dict[tuple[int, ...], Fraction]:
    """Exact single-shot marginal of the source distribution on ``order``."""
    pos = [model.sources.index(s) for s in order]
    out: dict[tuple[int, ...], Fraction] = {}
    dist = model.distribution_fractions()
    for idx, xs in enumerate(
        itertools.product(model.symbols, repeat=model.num_sources)
    ):
        key = tuple(xs[p] for p in pos)
        out[key] = out.get(key, Fraction(0)) + dist[idx]
    return out


@dataclass(frozen=True)
class LayerReport:
    """Outcome of re-deriving the four-layer nesting from adjacency alone."""

    fibers_isolated: bool
    classes_completely_connected: bool
    leftover_isolated: bool
    brackets_completely_connected: bool
    bracket_interiors_empty: bool

    @property
    def ok(self) -> bool:
        return (
            self.fibers_isolated
            and self.classes_completely_connected
            and self.leftover_isolated
            and self.brackets_completely_connected
            and self.bracket_interiors_empty
        )


def layer_report(cg: CharGraph) -> LayerReport:
    """Verify the nested layer structure on the actual graph.

    Levels are checked with generic graph machinery: fibers must be unions
    of connected components; within a fiber, distinct classes must be fully
    joined; within a class, distinct leftover blocks must be unjoined;
    within a leftover block, distinct brackets must be fully joined and each
    bracket must induce no edges at all.
    """
    g = cg.graph
    lay = cg.layers
    adj = g.adjacency_masks()
    n = g.n

    fibers_ok = True
    classes_ok = True
    leftover_ok = True
    brackets_ok = True
    interiors_ok = True
    for u in range(n):
        for v in pgraph._bits(adj[u]):
            if v <= u:
                continue
            if lay[u].fiber != lay[v].fiber:
                fibers_ok = False
            elif lay[u].cls == lay[v].cls:
                if lay[u].leftover != lay[v].leftover:
                    leftover_ok = False
                elif lay[u].bracket == lay[v].bracket:
                    interiors_ok = False
    for u in range(n):
        for v in range(u + 1, n):
            if lay[u].fiber != lay[v].fiber:
                continue
            joined = bool(adj[u] >> v & 1)
            if lay[u].cls != lay[v].cls:
                if not joined:
                    classes_ok = False
            elif lay[u].leftover == lay[v].leftover and lay[u].bracket != lay[v].bracket:
                if not joined:
                    brackets_ok = False
    return LayerReport(fibers_ok, classes_ok, leftover_ok, brackets_ok, interiors_ok)


def clique_number_via_decomposition(cg: CharGraph) -> int:
    """Clique number from the layer nesting (single-shot graphs only).

    Fibers contribute independently, classes within a fiber are fully
    joined so their contributions add, leftover blocks within a class are
    unjoined so the best one wins, and within a leftover block the cliques
    are exactly one vertex per bracket.
    """
    if cg.k != 1:
        raise UsageError("layer counting applies to single-shot graphs only")
    per_fiber_class: dict[tuple[int, int], dict[int, set[tuple[int, ...]]]] = {}
    for coord in cg.layers:
        by_leftover = per_fiber_class.setdefault((coord.fiber, coord.cls), {})
        by_leftover.setdefault(coord.leftover, set()).add(coord.bracket)
    fiber_totals: dict[int, int] = {}
    for (fiber, _cls), by_leftover in per_fiber_class.items():
        best = max(len(brackets) for brackets in by_leftover.values())
        fiber_totals[fiber] = fiber_totals.get(fiber, 0) + best
    return max(fiber_totals.values())


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
    g1 = build(model, partition, 1)
    gk = build(model, partition, k)
    and_g = pgraph.and_product([g1.graph] * k)
    or_g = pgraph.or_product([g1.graph] * k)

    label_of = {}
    q = model.alphabet_size
    by_label = {lbl: asg for lbl, asg in zip(g1.graph.vertices, g1.assignments)}
    for combo in and_g.vertices:
        shots = [by_label[lbl] for lbl in combo]
        merged = tuple(
            tuple(shots[r][ci][0] for r in range(k)) for ci in range(len(g1.order))
        )
        label_of[combo] = format_assignment(merged, q)

    def edge_set(g: pgraph.ProbGraph, relabel: bool) -> set[frozenset[str]]:
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
