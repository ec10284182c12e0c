"""Probabilistic graphs: finite simple graphs with a vertex distribution.

These carry everything the entropy layer needs: complement, AND/OR graph
powers, conditioning on a vertex subset, contraction of an autonomous set
to a single vertex, and the split detection that drives the recursive
entropy decomposition.  Exact maximum clique and maximum-weight independent
set solvers live here too; both are branch-and-bound over bitmask adjacency
and are deterministic, including their tie-breaking.

Vertex labels are opaque hashables with a fixed order; all algorithms work
on indices into that order, so two graphs built from the same input compare
and iterate identically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import EmptyList, NotAutonomous, TooLarge, UsageError, ZeroMass

Label = Hashable


class ProbGraph:
    """Simple undirected graph plus a probability mass per vertex.

    Masses may be floats or exact Fractions; they must be nonnegative and
    sum to one within 1e-12.  Loops are rejected; parallel edges collapse.
    """

    __slots__ = ("vertices", "dist", "_index", "_adj")

    def __init__(
        self,
        vertices: Iterable[Label],
        edges: Iterable[tuple[Label, Label]],
        dist: Sequence,
    ):
        self.vertices = tuple(vertices)
        if not self.vertices:
            raise UsageError("a graph needs at least one vertex")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise UsageError("duplicate vertex labels")
        self.dist = tuple(dist)
        if len(self.dist) != len(self.vertices):
            raise UsageError("distribution length does not match vertex count")
        total = sum(self.dist)
        if any(p < 0 for p in self.dist) or abs(total - 1) > 1e-12:
            raise UsageError(f"vertex masses must be nonnegative and sum to 1, got {float(total)!r}")
        adj = [0] * len(self.vertices)
        for u, v in edges:
            i, j = self._index[u], self._index[v]
            if i == j:
                raise UsageError(f"loop at vertex {u!r}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self._adj = tuple(adj)

    # low-level views

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: Label) -> int:
        return self._index[v]

    def adjacency_masks(self) -> tuple[int, ...]:
        return self._adj

    def adjacent(self, u: Label, v: Label) -> bool:
        return bool(self._adj[self._index[u]] >> self._index[v] & 1)

    def neighbors(self, v: Label) -> tuple[Label, ...]:
        m = self._adj[self._index[v]]
        return tuple(self.vertices[i] for i in _bits(m))

    def edges(self) -> list[tuple[Label, Label]]:
        out = []
        for i in range(self.n):
            for j in _bits(self._adj[i]):
                if j > i:
                    out.append((self.vertices[i], self.vertices[j]))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def mass(self, vs: Iterable[Label]):
        return sum(self.dist[self._index[v]] for v in vs)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _complement_masks(adj: Sequence[int]) -> list[int]:
    """Adjacency masks of the complement graph."""
    full = (1 << len(adj)) - 1
    return [full & ~m & ~(1 << i) for i, m in enumerate(adj)]


def complement(g: ProbGraph) -> ProbGraph:
    co = _complement_masks(g.adjacency_masks())
    edges = [(g.vertices[i], g.vertices[j]) for i in range(g.n) for j in _bits(co[i]) if j > i]
    return ProbGraph(g.vertices, edges, g.dist)


def _product(graphs: Sequence[ProbGraph], conjunctive: bool) -> ProbGraph:
    if not graphs:
        raise EmptyList("product of zero graphs")
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
    return ProbGraph(verts, edges, dist)


def and_product(graphs: Sequence[ProbGraph]) -> ProbGraph:
    """Conjunctive power: distinct tuples joined iff every differing coordinate is."""
    return _product(graphs, conjunctive=True)


def or_product(graphs: Sequence[ProbGraph]) -> ProbGraph:
    """Disjunctive power: distinct tuples joined iff some differing coordinate is."""
    return _product(graphs, conjunctive=False)


def project(g: ProbGraph, subset: Iterable[Label]) -> ProbGraph:
    """Induced subgraph with the distribution renormalized to ``subset``."""
    wanted = set(subset)
    keep = [v for v in g.vertices if v in wanted]
    if not keep:
        raise UsageError("projection onto an empty vertex set")
    mass = g.mass(keep)
    if mass == 0:
        raise ZeroMass("projection target has zero probability")
    kept = set(keep)
    edges = [(u, v) for u, v in g.edges() if u in kept and v in kept]
    dist = [g.dist[g.index(v)] / mass for v in keep]
    return ProbGraph(keep, edges, dist)


def outside_neighborhood(g: ProbGraph, subset: Iterable[Label]) -> frozenset[Label] | None:
    """The common neighborhood outside ``subset``, or None if members disagree."""
    wanted = set(subset)
    members = [v for v in g.vertices if v in wanted]
    inside = set(members)
    common: frozenset[Label] | None = None
    for v in members:
        outside = frozenset(u for u in g.neighbors(v) if u not in inside)
        if common is None:
            common = outside
        elif common != outside:
            return None
    return common if common is not None else frozenset()


def replace(g: ProbGraph, subset: Iterable[Label], new_label: Label) -> ProbGraph:
    """Contract an autonomous set to one vertex carrying its total mass."""
    wanted = set(subset)
    members = [v for v in g.vertices if v in wanted]
    if not members:
        raise UsageError("cannot replace an empty vertex set")
    common = outside_neighborhood(g, members)
    if common is None:
        raise NotAutonomous("members disagree on their outside neighborhood")
    mass = g.mass(members)
    if mass == 0:
        raise ZeroMass("replaced set has zero probability")
    inside = set(members)
    if new_label in set(g.vertices) - inside:
        raise UsageError(f"label {new_label!r} already present")
    slot = g.index(members[0])
    verts: list[Label] = []
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
    return ProbGraph(verts, edges, dist)


@dataclass(frozen=True)
class AutonomousSplit:
    """Result of split detection: block lists are orderd by least vertex index."""

    kind: str | None  # "Isolated" | "CompletelyConnected" | None
    blocks: tuple[tuple[Label, ...], ...]


def _components(adj: Sequence[int], mask: int) -> list[int]:
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            for i in _bits(frontier):
                nxt |= adj[i] & mask & ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        rest &= ~comp
    return comps


def autonomous_split(g: ProbGraph) -> AutonomousSplit:
    """Detect a disjoint-union or join structure.

    If the graph is disconnected the connected components form autonomous,
    pairwise isolated blocks; otherwise, if the complement is disconnected,
    its components form autonomous, pairwise completely connected blocks.
    A connected graph with connected complement yields kind None.
    """
    full = (1 << g.n) - 1
    comps = _components(g.adjacency_masks(), full)
    if len(comps) > 1:
        return AutonomousSplit("Isolated", _blocks_of(g, comps))
    comps = _components(_complement_masks(g.adjacency_masks()), full)
    if len(comps) > 1:
        return AutonomousSplit("CompletelyConnected", _blocks_of(g, comps))
    return AutonomousSplit(None, ((tuple(g.vertices)),))


def _blocks_of(g: ProbGraph, comps: list[int]) -> tuple[tuple[Label, ...], ...]:
    blocks = [tuple(g.vertices[i] for i in _bits(m)) for m in comps]
    blocks.sort(key=lambda b: g.index(b[0]))
    return tuple(blocks)


def clique_number(g: ProbGraph) -> int:
    """Exact maximum clique size via branch and bound with pivoting."""
    if g.n > 64:
        raise TooLarge(f"{g.n} vertices; exact clique search is capped at 64")
    adj = g.adjacency_masks()
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            if size > best:
                best = size
            return
        if size + cand.bit_count() <= best:
            return
        pivot = -1
        pivot_deg = -1
        for i in _bits(cand):
            d = (cand & adj[i]).bit_count()
            if d > pivot_deg:
                pivot_deg = d
                pivot = i
        branch = cand & ~adj[pivot]
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            expand(size + 1, cand & adj[v])
            cand ^= low
            branch ^= low
            if size + cand.bit_count() <= best:
                return

    expand(0, (1 << g.n) - 1)
    return best


def max_weight_independent_set(
    g: ProbGraph, weights: Mapping[Label, float] | Sequence[float]
) -> frozenset[Label]:
    """Exact maximum-weight independent set for nonnegative weights.

    Among optimal sets the first in lexicographic vertex-index order wins,
    so identical inputs always return the identical set.
    """
    if isinstance(weights, Mapping):
        w = [float(weights[v]) for v in g.vertices]
    else:
        w = [float(x) for x in weights]
        if len(w) != g.n:
            raise UsageError("weight vector length does not match vertex count")
    if any(x < 0 for x in w):
        raise UsageError("weights must be nonnegative")
    _, mask = _mwis_mask(g.adjacency_masks(), w)
    return frozenset(g.vertices[i] for i in _bits(mask))


def _mwis_mask(adj: Sequence[int], weights: Sequence[float]) -> tuple[float, int]:
    """Branch and bound on bitmasks; include-first search keeps ties canonical."""
    n = len(weights)
    best_w = -1.0
    best_mask = 0

    def rest_weight(mask: int) -> float:
        return sum(weights[i] for i in _bits(mask))

    def go(avail: int, cur_mask: int, cur_w: float) -> None:
        nonlocal best_w, best_mask
        if not avail:
            if cur_w > best_w:
                best_w = cur_w
                best_mask = cur_mask
            return
        if cur_w + rest_weight(avail) <= best_w:
            return
        low = avail & -avail
        v = low.bit_length() - 1
        go(avail & ~adj[v] & ~low, cur_mask | low, cur_w + weights[v])
        go(avail ^ low, cur_mask, cur_w)

    go((1 << n) - 1, 0, 0.0)
    return best_w, best_mask


def is_coloring(g: ProbGraph, coloring: Mapping[Label, Hashable]) -> bool:
    """True when every edge of the graph receives two distinct colors."""
    return all(coloring[u] != coloring[v] for u, v in g.edges())


def to_dot(g: ProbGraph, name: str = "G") -> str:
    """Graphviz form with masses as vertex labels."""
    lines = [f"graph {name} {{"]
    for i, v in enumerate(g.vertices):
        lines.append(f'  n{i} [label="{v} ({float(g.dist[i]):.6g})"];')
    for u, v in g.edges():
        lines.append(f"  n{g.index(u)} -- n{g.index(v)};")
    lines.append("}")
    return "\n".join(lines)
