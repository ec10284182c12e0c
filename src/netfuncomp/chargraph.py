"""Characteristic graphs of a cut under a strong partition.

Vertices are the k-shot blocks over the separated sources I and the
side-information sources J, weighted by the i.i.d. extension of the source
distribution marginalized to those sources.  The weights are exact: integer
numerators over the graph's ``scale``, the k-th power of the common
power-of-two denominator of the model's floats.  Two distinct blocks sharing
the same side information are joined when a code crossing the cut must
tell them apart:

* they are not interchangeable on I given that side information, or
* they are interchangeable, agree on the leftover set L, and some
  partition block sees non-interchangeable sub-blocks.

Any valid coloring of this graph is a lower bound witness for what the cut
must carry, and its clique entropy divided by the cut size is the basic
rate bound contributed by the pair.

Construction looks each vertex up in the equivalence-class partitions and
records its layer coordinates: side-information fiber, class, leftover
block, and the per-block class tuple (the bracket).  :func:`layer_masks`
turns those coordinates into four nested vertex masks per vertex, kept on
the graph for its consumers, and a vertex's adjacency is the rest of its
fiber outside its class plus the rest of its leftover block outside its
bracket.  :func:`layer_report` checks the finished adjacency against the
same masks, one mask identity per layer property and vertex.  The paper's claim that the k-shot graph
sits between the k-fold AND and OR powers of the single-shot graph is
checked by the test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    ``masks`` is :func:`layer_masks` of ``layers``.
    """

    graph: pgraph.ProbGraph
    partition: StrongPartition
    k: int
    order: tuple[str, ...]
    assignments: tuple[Assignment, ...]
    layers: tuple[LayerCoord, ...]
    masks: tuple[tuple[int, ...], ...]

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

    marginal, denominator = _marginal_numerators(model, order)
    assignments = tuple(enumerate_assignments(q, len(order), k))
    labels = tuple(format_assignment(a, q) for a in assignments)
    dist = []
    for a in assignments:
        p = 1
        for r in range(k):
            p *= marginal[tuple(col[r] for col in a)]
        dist.append(p)

    j_blocks = list(enumerate_assignments(q, len(j_tuple), k))
    fiber_of_aj = {a_j: fi for fi, a_j in enumerate(j_blocks)}
    l_blocks = list(enumerate_assignments(q, len(l_tuple), k))
    leftover_of_al = {a_l: li for li, a_l in enumerate(l_blocks)}

    layers: list[LayerCoord] = []
    class_index_of_fiber: dict[int, dict[Assignment, int]] = {}
    block_indices_of: dict[tuple[int, int], list[dict[Assignment, int]]] = {}
    for a in assignments:
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

    masks = layer_masks(layers)
    adj = [(f & ~c) | (lo & ~b) for f, c, lo, b in zip(*masks)]
    graph = pgraph.ProbGraph.from_masks(labels, adj, dist, denominator**k)
    return CharGraph(graph, partition, k, order, assignments, tuple(layers), masks)


def layer_masks(layers: Sequence[LayerCoord]) -> tuple[tuple[int, ...], ...]:
    """Per-vertex bitmasks of the four nested layers: (F, C, L, B).

    ``F[v]`` holds the vertices in v's fiber, ``C[v]`` those that also share
    its class, ``L[v]`` those that also share its leftover block and ``B[v]``
    those that also share its bracket, so ``B[v] <= L[v] <= C[v] <= F[v]``
    as vertex sets.  One pass per depth groups the vertices by coordinate
    prefix.
    """
    out = []
    for depth in range(1, 5):
        groups: dict[tuple, int] = {}
        for vid, coord in enumerate(layers):
            key = coord[:depth]
            groups[key] = groups.get(key, 0) | 1 << vid
        out.append(tuple(groups[coord[:depth]] for coord in layers))
    return tuple(out)


def _marginal_numerators(
    model: NetworkModel, order: tuple[str, ...]
) -> tuple[dict[tuple[int, ...], int], int]:
    """Exact single-shot marginal on ``order``: integer numerators and their denominator.

    Every float is an integer over a power of two, so the largest of those
    powers is a common denominator of the whole distribution.
    """
    ratios = [p.as_integer_ratio() for p in model.distribution]
    denominator = max(d for _, d in ratios)
    pos = [model.sources.index(s) for s in order]
    out: dict[tuple[int, ...], int] = {}
    for (n, d), xs in zip(
        ratios, itertools.product(model.symbols, repeat=model.num_sources)
    ):
        key = tuple(xs[p] for p in pos)
        out[key] = out.get(key, 0) + n * (denominator // d)
    return out, denominator


@dataclass(frozen=True)
class LayerReport:
    """Which of the four-layer nesting properties the adjacency satisfies."""

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
    """Check the nested layer structure against the finished adjacency.

    With ``adj`` a vertex's adjacency mask and F, C, L, B its
    :func:`layer_masks` (``cg.masks``), each property is one mask identity
    per vertex: fibers are unjoined (``adj & ~F == 0``), distinct classes in
    a fiber are fully joined (``F & ~C`` inside ``adj``), distinct leftover
    blocks in a class are unjoined (``adj & C & ~L == 0``), distinct
    brackets in a leftover block are fully joined (``L & ~B`` inside
    ``adj``) and a bracket induces no edges (``adj & B == 0``).
    """
    rows = list(zip(cg.graph.adjacency_masks(), *cg.masks))
    return LayerReport(
        fibers_isolated=all(a & ~f == 0 for a, f, _, _, _ in rows),
        classes_completely_connected=all(f & ~c & ~a == 0 for a, f, c, _, _ in rows),
        leftover_isolated=all(a & c & ~lo == 0 for a, _, c, lo, _ in rows),
        brackets_completely_connected=all(lo & ~b & ~a == 0 for a, _, _, lo, b in rows),
        bracket_interiors_empty=all(a & b == 0 for a, _, _, _, b in rows),
    )


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
