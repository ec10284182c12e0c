"""Graph entropies over probabilistic graphs, in bits.

Three quantities are computed here.  Chromatic entropy minimizes the entropy
of a proper coloring and is brute-forced over partitions into independent
sets.  Clique entropy maximizes conditional entropy given a clique
containing the vertex and is evaluated exactly whenever the graph
decomposes recursively into disjoint unions and joins:

* no edges: 0
* complete: the Shannon entropy of the vertex distribution
* disconnected: the mass-weighted sum over components
* complement disconnected: the weighted sum over join blocks, each paying
  an extra ``-log2`` of its conditional mass

Koerner graph entropy minimizes mutual information between a vertex and an
independent set containing it.  Clique entropy plus the complement's
Koerner entropy equals the Shannon entropy, so graph entropy is the Shannon
entropy less the clique entropy of the complement: one recursion serves
both.  The recursion is the package's only split detection: each node of
the :class:`DecompositionTree` certificate it emits names the split it
found (``IsolatedSplit`` for components, ``CCSplit`` for join blocks), and
the tree's shape depends only on adjacency.

A piece the recursion cannot split is an ``Opaque`` node, the only place
where numerics run.  By the same identity its clique entropy is its Shannon
entropy less the Koerner entropy of its complement, and by LP duality that
Koerner entropy is the minimum of ``-sum p(z) log2 a(z)`` over the vertex
packing polytope.  Fully corrective Frank-Wolfe finds it: Newton steps
re-fit the weights of the active independent sets, and an exact
maximum-weight independent set oracle adds sets until its duality gap,
which bounds the error of the value, is at most ``FW_GAP_TOL`` = 1e-9 bits.
The node carries that gap.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoConvergence, TooLarge
from .pgraph import ProbGraph, _bits, _complement_masks, _components, _mwis_mask

METHOD_EXACT = "ExactDecomposition"
METHOD_NUMERIC = "NumericFallback"
METHOD_BRUTE = "BruteForce"

FALLBACK_CAP = 20
"""Most vertices of a subgraph whose clique entropy falls back on numerics."""

DEPTH_CAP = 200
"""Most levels of a decomposition tree.  The decomposition, ``to_dict`` and
the report writer recurse once per level, so this keeps them well inside
Python's default recursion limit."""

FW_GAP_TOL = 1e-9
"""Duality gap, in bits, at which the Frank-Wolfe solve stops."""

FW_MAX_ITER = 2_000
"""Frank-Wolfe iterations (oracle calls plus Newton steps) before NoConvergence."""

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class DecompositionTree:
    """Certificate node for the clique entropy recursion.

    ``vertex_ids`` index into the root graph's vertex order.  ``value`` is
    the clique entropy of the induced subgraph under its renormalized
    distribution, in bits.  Split nodes carry one child per block.  ``gap``
    is the largest Frank-Wolfe gap of an ``Opaque`` node in the subtree, and
    None when the subtree is exact.
    """

    kind: str  # EmptyLeaf | CompleteLeaf | IsolatedSplit | CCSplit | Opaque
    vertex_ids: tuple[int, ...]
    value: float
    children: tuple["DecompositionTree", ...] = ()
    gap: float | None = None

    def to_dict(self, labels: Sequence) -> dict:
        """JSON form, naming each vertex by ``labels[vertex id]``."""
        shown = [labels[i] for i in self.vertex_ids]
        out = {"kind": self.kind, "vertices": shown, "value": self.value}
        if self.children:
            out["children"] = [c.to_dict(labels) for c in self.children]
        if self.kind == "Opaque":
            out["gap"] = self.gap
        return out


@dataclass(frozen=True)
class EntropyResult:
    value: float
    method: str
    certificate: object | None = None


def _entropy_of_masses(masses: Sequence) -> float:
    total = sum(masses)
    acc = 0.0
    for m in masses:
        if m > 0:
            r = m / total
            acc -= r * math.log2(r)
    return acc


def _subgraph_masks(adj: Sequence[int], ids: Sequence[int]) -> list[int]:
    pos = {v: i for i, v in enumerate(ids)}
    out = []
    for v in ids:
        m = 0
        rest = adj[v]
        for u in _bits(rest):
            if u in pos:
                m |= 1 << pos[u]
        out.append(m)
    return out


def _decompose(
    adj: Sequence[int],
    co: Sequence[int],
    masses: Sequence,
    mask: int,
    level: int = 1,
) -> DecompositionTree:
    """Decompose the subgraph that ``mask`` induces, in root coordinates.

    ``adj`` and ``co`` are the root graph's adjacency and complement masks.
    Every node intersects them with its own vertex mask, so the recursion
    never re-indexes a subgraph: components of ``adj`` within ``mask`` are
    an ``IsolatedSplit``, components of ``co`` within it a ``CCSplit``.
    Only an ``Opaque`` node re-indexes, to hand its complement to the
    Frank-Wolfe solve.  ``level`` is the node's level in the tree, the root's
    being 1; a node deeper than ``DEPTH_CAP`` levels raises TooLarge.
    """
    if level > DEPTH_CAP:
        raise TooLarge(f"decomposition deeper than the depth cap of {DEPTH_CAP} levels")
    ids = tuple(_bits(mask))
    n = len(ids)
    edge_bits = sum((adj[i] & mask).bit_count() for i in ids) // 2
    if edge_bits == 0:
        return DecompositionTree("EmptyLeaf", ids, 0.0)
    if edge_bits == n * (n - 1) // 2:
        return DecompositionTree("CompleteLeaf", ids, _entropy_of_masses([masses[i] for i in ids]))
    for kind, graph in (("IsolatedSplit", adj), ("CCSplit", co)):
        comps = _components(graph, mask)
        if len(comps) > 1:
            return _split_node(kind, adj, co, masses, ids, comps, level)
    if n > FALLBACK_CAP:
        raise TooLarge(
            f"opaque subgraph with {n} vertices exceeds the numeric fallback cap of {FALLBACK_CAP}"
        )
    sub = [masses[i] for i in ids]
    total = sum(sub)
    co_value, gap = _fw_min_log_mass(_subgraph_masks(co, ids), [m / total for m in sub])
    h = _entropy_of_masses(sub)
    return DecompositionTree("Opaque", ids, h - co_value, (), gap)


def _split_node(kind, adj, co, masses, ids, comps, level) -> DecompositionTree:
    children = [_decompose(adj, co, masses, comp, level + 1) for comp in comps]
    total = sum(masses[i] for i in ids)
    value = 0.0
    for child in children:
        bm = sum(masses[i] for i in child.vertex_ids)
        ratio = bm / total
        value += ratio * child.value
        if kind == "CCSplit":
            value -= ratio * math.log2(ratio)
    gap = max((c.gap for c in children if c.gap is not None), default=None)
    return DecompositionTree(kind, ids, value, tuple(children), gap)


def _clique_result(g: ProbGraph, complement: bool) -> EntropyResult:
    """Clique entropy of ``g``; with ``complement``, Shannon less the complement's.

    Zero-mass vertices are dropped up front; they cannot change the value.
    The method is exact when the tree bottoms out in empty and complete
    leaves only, and a numeric fallback otherwise; its ``gap`` is then the
    largest ``Opaque`` gap.
    """
    adj = g.adjacency_masks()
    co = _complement_masks(adj)
    if complement:
        adj, co = co, adj
    support = sum(1 << i for i, m in enumerate(g.dist) if m > 0)
    tree = _decompose(adj, co, g.dist, support)
    value = _entropy_of_masses(g.dist) - tree.value if complement else tree.value
    method = METHOD_EXACT if tree.gap is None else METHOD_NUMERIC
    return EntropyResult(value, method, tree)


def clique_entropy(g: ProbGraph) -> EntropyResult:
    """Clique entropy with a decomposition certificate.

    An opaque subgraph above ``FALLBACK_CAP`` vertices or a tree deeper
    than ``DEPTH_CAP`` levels raises TooLarge.  A
    characteristic graph's masses are integers over its scale: they stay
    exact until each ratio ``m / total``, one correctly rounded division.
    """
    return _clique_result(g, complement=False)


def graph_entropy(g: ProbGraph) -> EntropyResult:
    """Koerner graph entropy: the Shannon entropy less the complement's clique entropy.

    The certificate is the complement's decomposition tree, so Frank-Wolfe
    runs only inside its ``Opaque`` nodes and the method is exact when it
    has none.  The complement's tree has the caps of :func:`clique_entropy`.
    """
    return _clique_result(g, complement=True)


def _fw_min_log_mass(adj: Sequence[int], probs: Sequence[float]) -> tuple[float, float]:
    """Minimize F(a) = -sum_i p_i log2 a_i over the vertex packing polytope.

    Fully corrective Frank-Wolfe (Holloway 1974).  The active independent
    sets are the rows of ``sets``, starting with the singletons, and
    ``a = lam @ sets``.  With ``w = p / (a ln 2)``, a set's gap is
    ``w(S) - 1 / ln 2``.  Each iteration takes one step on ``lam``:

    * while an active set's gap exceeds ``FW_GAP_TOL``, an
      equality-constrained Newton step (Boyd and Vandenberghe, sec. 10.2),
      solved for those gaps with the Hessian scaled to a unit diagonal so
      that sets of tiny weight keep their precision;
    * otherwise the oracle finds the maximum-weight independent set S*.
      Since ``w . a = 1 / ln 2`` and F is convex, its gap bounds
      F(a) - min F.  At most ``FW_GAP_TOL`` ends the solve; otherwise a
      Frank-Wolfe step toward S* brings S* in.

    A step stops where a weight reaches 0, and that set leaves.  The
    backtracking accepts a step within ``8 eps`` of the start value, as a
    smaller change is rounding.  ``probs`` must be non-empty and positive.

    Returns (value in bits, final gap).
    """
    n = len(probs)
    p = np.asarray(probs, dtype=float)
    sets = np.eye(n)
    lam = np.full(n, 1.0 / n)

    def phi(weights: np.ndarray) -> float:
        a = weights @ sets
        return -float(p @ np.log(a)) if a.min() > 0 else math.inf

    for _ in range(FW_MAX_ITER):
        a = lam @ sets
        r = p / a
        if (sets @ r).max() - 1.0 <= FW_GAP_TOL * _LN2:
            best, mask = _mwis_mask(adj, (r / _LN2).tolist())
            gap = best - 1.0 / _LN2
            if gap <= FW_GAP_TOL:
                return -float(p @ np.log2(a)), gap
            sets = np.vstack([sets, [(mask >> i) & 1 for i in range(n)]])
            d = np.append(-lam, 1.0)
            lam = np.append(lam, 0.0)
        else:
            hess = (sets * (r / a)) @ sets.T
            scale = np.append(1.0 / np.sqrt(np.diag(hess)), 1.0)
            kkt = np.ones((len(scale), len(scale)))
            kkt[:-1, :-1] = hess
            kkt[-1, -1] = 0.0
            kkt *= np.outer(scale, scale)
            rhs = scale * np.append(sets @ r - 1.0, 0.0)
            d = (scale * np.linalg.lstsq(kkt, rhs, rcond=None)[0])[:-1]
        ratio = np.divide(lam, -d, out=np.full(len(lam), math.inf), where=d < 0)
        j = int(np.argmin(ratio))
        alpha = min(1.0, float(ratio[j]))
        start = phi(lam)
        new = lam + alpha * d
        if alpha == ratio[j]:
            new[j] = 0.0
        while phi(new) > start + 8 * sys.float_info.epsilon * max(1.0, abs(start)):
            alpha *= 0.5
            new = lam + alpha * d
        keep = new > 0
        sets, lam = sets[keep], new[keep] / new[keep].sum()
    raise NoConvergence(f"no gap within {FW_GAP_TOL:g} bits after {FW_MAX_ITER} iterations")


def chromatic_entropy(g: ProbGraph) -> EntropyResult:
    """Minimum coloring entropy by exhaustive search over proper partitions.

    Zero-mass vertices are dropped first (they can always take a fresh
    color).  Every partition of the remaining vertices into independent sets
    is enumerated, so the graph is capped at 12 vertices.
    """
    masses = [p / g.scale for p in g.dist]
    ids = [i for i, m in enumerate(masses) if m > 0]
    if len(ids) > 12:
        raise TooLarge(f"{len(ids)} positive-mass vertices; coloring search is capped at 12")
    adj = g.adjacency_masks()
    best = math.inf
    best_blocks: tuple[tuple[int, ...], ...] = ()
    block_masks: list[int] = []
    block_mass: list[float] = []

    def rec(pos: int) -> None:
        nonlocal best, best_blocks
        if pos == len(ids):
            h = _entropy_of_masses(block_mass)
            if h < best:
                best = h
                best_blocks = tuple(
                    tuple(i for i in _bits(m)) for m in block_masks
                )
            return
        v = ids[pos]
        for b in range(len(block_masks)):
            if block_masks[b] & adj[v]:
                continue
            block_masks[b] |= 1 << v
            block_mass[b] += float(masses[v])
            rec(pos + 1)
            block_masks[b] &= ~(1 << v)
            block_mass[b] -= float(masses[v])
        block_masks.append(1 << v)
        block_mass.append(float(masses[v]))
        rec(pos + 1)
        block_masks.pop()
        block_mass.pop()

    rec(0)
    blocks = tuple(tuple(g.vertices[i] for i in blk) for blk in best_blocks)
    return EntropyResult(best, METHOD_BRUTE, blocks)
