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

Construction records each vertex's layer coordinates: side-information
fiber, class, leftover block, and the per-block class tuple (the bracket).
They come from passes over the vertices in enumeration order, not from the
class partitions of :mod:`equiv`, which define them and serve as the
reference (``ref_layers`` in ``tests/oracles.py``).  The fiber and leftover
passes key each vertex by its J and L block.  The class pass keys it by
its fiber and its target values over every completion of the sources
outside I and J.  One bracket pass per partition block keys it by its fiber,
its leftover block and the classes of the vertices that replace the other
blocks' separated sources by each choice.  Each pass numbers the keys by
first appearance, which is the partitions' least-member order because the
vertices enumerate lexicographically.

Most passes depend on less than the whole partition, so the graphs of one
model share them: a build keeps them with the model
(``netmodel.model_memo``, emptied at ``netmodel.I_CACHE_CAP`` entries) and
makes each once.  Per source order and k: the marginal numerators, the
vertex enumeration, labels and masses, and the class keys.  Per (order, J):
the fibers and the class ranks.  Per (order, L): the leftover table.  Per
(order, positions of the other blocks' separated sources): the bracket
bases, each vertex's base and the offsets of the choices.  Only the bracket
ranks, the layer masks, the adjacency and the graph itself stay per graph.

:func:`layer_masks` turns the coordinates into four nested vertex masks per
vertex, kept on the graph for its consumers, and a vertex's adjacency is
the rest of its fiber outside its class plus the rest of its leftover block
outside its bracket.
:func:`layer_report` checks the finished adjacency against the same masks,
one mask identity per layer property and vertex.  The paper's claim that
the k-shot graph sits between the k-fold AND and OR powers of the
single-shot graph is checked by the test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence, TypeVar

from . import pgraph
from .errors import DomainTooLarge, TooLarge, UsageError
from .netmodel import (
    DOMAIN_CAP,
    Assignment,
    CutAnalysis,
    NetworkModel,
    StrongPartition,
    block_count,
    enumerate_assignments,
    format_assignment,
    model_memo,
    restrict_sources,
)

T = TypeVar("T")

VERTEX_CAP = 2**14
"""Most vertices a characteristic graph may have."""

REPORT_EDGE_CAP = 2**20
"""Most edges a ``chargraph`` report or DOT export may list."""


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
    """Construct the k-shot characteristic graph of a strong partition of a cut.

    ``netmodel.block_count`` refuses k below 1, then graphs of more than
    ``VERTEX_CAP`` vertices, then models whose k-shot domain exceeds
    ``netmodel.DOMAIN_CAP`` blocks, all before any vertex is enumerated.
    """
    order = restrict_sources(model, partition.cut.i_set | partition.cut.j_set)
    q = model.alphabet_size
    block_count(q, len(order), k, VERTEX_CAP, "vertices", TooLarge)
    block_count(q, model.num_sources, k, DOMAIN_CAP, "blocks", DomainTooLarge)

    vertices = model_memo(model, ("vertices", order, k), lambda: _vertices(model, order, k))
    layers = _layer_coords(model, partition, order, k, vertices.class_keys)
    masks = layer_masks(layers)
    adj = [(f & ~c) | (lo & ~b) for f, c, lo, b in zip(*masks)]
    graph = pgraph.ProbGraph.from_masks(vertices.labels, adj, vertices.dist, vertices.scale)
    return CharGraph(graph, partition, k, order, vertices.assignments, layers, masks)


class _Vertices(NamedTuple):
    """What every graph on one source order at k shots shares."""

    assignments: tuple[Assignment, ...]
    labels: tuple[str, ...]
    dist: tuple[int, ...]
    scale: int
    class_keys: list[tuple[int, ...]]  # per vertex, its value rows' per-shot ids


def _vertices(model: NetworkModel, order: tuple[str, ...], k: int) -> _Vertices:
    """The vertices over ``order``: blocks, labels, exact masses and class keys.

    A vertex's class within its fiber is keyed by its target values over
    every completion of the sources outside I and J.  Completions range
    over each shot independently, so the key is the tuple of per-shot ids of
    the single-shot value rows.
    """
    q, n = model.alphabet_size, len(order)
    marginal, denominator = _marginal_numerators(model, order)
    assignments = tuple(enumerate_assignments(q, n, k))
    labels = tuple(format_assignment(a, q) for a in assignments)
    dist = []
    for a in assignments:
        p = 1
        for r in range(k):
            p *= marginal[tuple(col[r] for col in a)]
        dist.append(p)

    at = {s: q ** (model.num_sources - 1 - i) for i, s in enumerate(model.sources)}

    def rows_at(sources: Iterable[str]) -> Iterable[int]:
        """Row offsets in ``model.function_table`` of every block on ``sources``."""
        return map(sum, itertools.product(*([x * at[s] for x in range(q)] for s in sources)))

    function_table = model.function_table
    starts = list(rows_at(order))
    completions = rows_at(s for s in model.sources if s not in order)
    value_rows = zip(*([function_table[b + c] for b in starts] for c in completions))
    row_ids: dict[tuple, int] = {}
    shot_ids = [row_ids.setdefault(row, len(row_ids)) for row in value_rows]
    width = q**k
    shots = (
        _table(n, width, lambda p, d: d // q ** (k - 1 - r) % q * q ** (n - 1 - p))
        for r in range(k)
    )
    class_keys = list(zip(*(map(shot_ids.__getitem__, shot) for shot in shots)))
    return _Vertices(assignments, labels, tuple(dist), denominator**k, class_keys)


def _table(n: int, width: int, value: Callable[[int, int], int]) -> list[int]:
    """Per vertex of n digits in base ``width``, the sum of ``value(position, digit)``."""
    digits = ([value(p, d) for d in range(width)] for p in range(n))
    return list(map(sum, itertools.product(*digits)))


def _layer_coords(
    model: NetworkModel,
    partition: StrongPartition,
    order: tuple[str, ...],
    k: int,
    class_keys: Sequence[tuple[int, ...]],
) -> tuple[LayerCoord, ...]:
    """Every vertex's layer coordinates, in passes over positional digit tables.

    A vertex is n = |I | J| digits in base q^k, one k-shot column per source
    of ``order``, and its index is those digits read most significant
    first.  Each pass is a table over the vertices in that order, built by
    summing per-digit values.  The fiber and leftover tables hold the index
    of the vertex's J and L block, and the class table ranks the vertices'
    class keys (:func:`_vertices`) within their fibers.  A vertex's bracket
    entry for a partition block is keyed by the classes of the vertices
    that keep its digits off the other blocks' separated sources and take
    each choice on them: index offsets from its base, the vertex with those
    digits zero.

    Every table but the bracket ranks is shared with the model's other
    graphs (see the module docstring).

    Classes and brackets are numbered by first appearance.  The vertices
    enumerate lexicographically, so the first vertex with a given block on
    some of the sources is zero on the others, and blocks first appear in
    lexicographic order: the least-member order of the ``equiv`` partitions
    that define these coordinates.
    """
    n, width = len(order), model.alphabet_size**k
    cut = partition.cut
    index = {s: i for i, s in enumerate(order)}
    place = [width ** (n - 1 - p) for p in range(n)]

    def block_index(sources: Iterable[str]) -> list[int]:
        pos = sorted(index[s] for s in sources)
        weight = {p: width ** (len(pos) - 1 - i) for i, p in enumerate(pos)}
        return _table(n, width, lambda p, d: d * weight.get(p, 0))

    def shared(what: Hashable, make: Callable[[], T]) -> T:
        return model_memo(model, (what, order, k), make)

    def fibers_and_classes() -> tuple[list[int], list[int]]:
        fibers = block_index(cut.j_set)
        return fibers, _ranks(fibers, class_keys)

    def bracket_slots(others: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
        """The bases, each vertex's base as a position in them, and the offsets."""
        base_of = _table(n, width, lambda p, d: 0 if p in others else d * place[p])
        offsets = list(
            map(sum, itertools.product(*([d * place[p] for d in range(width)] for p in others)))
        )
        bases = [v for v, base in enumerate(base_of) if v == base]
        slot = {base: i for i, base in enumerate(bases)}
        return bases, [slot[base] for base in base_of], offsets

    fibers, classes = shared(("classes", cut.j_set), fibers_and_classes)
    leftovers = shared(("leftovers", partition.l_set), lambda: block_index(partition.l_set))
    brackets = []
    for iset in partition.i_sets:
        others = tuple(sorted(index[s] for s in cut.i_set - iset - partition.l_set))
        bases, slots, offsets = shared(("brackets", others), lambda: bracket_slots(others))
        ranks = _ranks(
            ((fibers[v], leftovers[v]) for v in bases),
            (tuple(classes[v + off] for off in offsets) for v in bases),
        )
        brackets.append(map(ranks.__getitem__, slots))
    return tuple(map(LayerCoord, fibers, classes, leftovers, zip(*brackets)))


def _ranks(groups: Iterable[Hashable], keys: Iterable[Hashable]) -> list[int]:
    """Each key's rank among the distinct keys of its group, by first appearance."""
    ids: dict[tuple, int] = {}
    first = [ids.setdefault(pair, len(ids)) for pair in zip(groups, keys)]
    counts: dict[Hashable, int] = {}
    rank = []
    for group, _ in ids:
        rank.append(counts.get(group, 0))
        counts[group] = rank[-1] + 1
    return [rank[i] for i in first]


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
