"""Probabilistic graphs: finite simple graphs with a vertex distribution.

A :class:`ProbGraph` holds its adjacency as one bitmask per vertex.  The
entropy layer works on those masks directly: complement masks, connected
components (the split detection of its recursive decomposition) and an
exact maximum-weight independent set, a deterministic branch and bound
that is the Frank-Wolfe linear oracle.  :func:`to_dot` writes the Graphviz
form that ``chargraph --dot`` exports.

Vertex labels are opaque hashables with a fixed order; all algorithms work
on indices into that order, so two graphs built from the same input compare
and iterate identically.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .errors import UsageError

Label = Hashable


class ProbGraph:
    """Simple undirected graph plus a probability mass per vertex.

    A vertex's probability is its mass over ``scale``.
    :func:`chargraph.build` gives integer masses over a power-of-two
    ``scale``, so products of source probabilities stay exact; other graphs
    use floats or Fractions with the default ``scale`` of 1.  The scale
    must be positive, and the masses nonnegative and summing to ``scale``
    within a relative 1e-12, an exact test for integer masses.  Loops are
    rejected; parallel edges collapse.
    """

    __slots__ = ("vertices", "dist", "scale", "_index", "_adj")

    def __init__(
        self,
        vertices: Iterable[Label],
        edges: Iterable[tuple[Label, Label]],
        dist: Sequence,
        scale: int = 1,
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
        # The checks are written so that a NaN, false under every comparison,
        # fails them.
        if not scale > 0:
            raise UsageError(f"the mass scale must be positive, got {scale!r}")
        self.scale = scale
        for v, p in zip(self.vertices, self.dist):
            if p < 0:
                raise UsageError(f"vertex {v!r} has the negative mass {float(p / scale)!r}")
        total = sum(self.dist)
        if not abs(total - scale) * 10**12 <= scale:
            raise UsageError(
                f"vertex masses must be nonnegative and sum to 1, got {float(total / scale)!r}"
            )
        adj = [0] * len(self.vertices)
        for u, v in edges:
            for w in (u, v):
                if w not in self._index:
                    raise UsageError(f"edge ({u!r}, {v!r}) names the unlisted vertex {w!r}")
            i, j = self._index[u], self._index[v]
            if i == j:
                raise UsageError(f"loop at vertex {u!r}")
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self._adj = tuple(adj)

    @classmethod
    def from_masks(
        cls, vertices: Iterable[Label], masks: Iterable[int], dist: Sequence, scale: int = 1
    ) -> "ProbGraph":
        """A graph from one adjacency bitmask per vertex, symmetric and loop-free."""
        g = cls(vertices, (), dist, scale)
        g._adj = tuple(masks)
        return g

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
        """Each edge once, as (u, v) with u before v, ordered by u then v."""
        vs = self.vertices
        out = []
        for i, row in enumerate(self._adj):
            u, above = vs[i], i + 1
            # Only the bits above i: the shifted row is shorter to walk.
            out.extend((u, vs[above + j]) for j in _bits(row >> above))
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


def _components(adj: Sequence[int], mask: int) -> list[int]:
    """Components of the subgraph that ``mask`` induces, by lowest vertex."""
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


def _mwis_mask(adj: Sequence[int], weights: Sequence[float]) -> tuple[float, int]:
    """Exact maximum-weight independent set for nonnegative weights: (weight, mask).

    Branch and bound on bitmasks; the include-first search keeps ties
    canonical, so identical inputs always return the identical set.
    """
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


def to_dot(g: ProbGraph, name: str = "G") -> str:
    """Graphviz form with masses as vertex labels."""
    lines = [f"graph {name} {{"]
    for i, v in enumerate(g.vertices):
        lines.append(f'  n{i} [label="{v} ({float(g.dist[i] / g.scale):.6g})"];')
    for u, v in g.edges():
        lines.append(f"  n{g.index(u)} -- n{g.index(v)};")
    lines.append("}")
    return "\n".join(lines)
