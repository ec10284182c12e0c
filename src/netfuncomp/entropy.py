"""Graph entropies over probabilistic graphs, in bits.

Three quantities are computed here.  Chromatic entropy minimizes the entropy
of a proper coloring and is brute-forced over partitions into independent
sets.  Koerner graph entropy minimizes mutual information between a vertex
and an independent set containing it; by LP duality it equals the minimum of
``-sum p(z) log2 a(z)`` over the vertex packing polytope, which is solved
numerically by an away-step Frank-Wolfe method whose linear oracle is an
exact maximum-weight independent set.  Clique entropy maximizes conditional
entropy given a clique containing the vertex and is evaluated exactly
whenever the graph decomposes recursively into disjoint unions and joins:

* no edges: 0
* complete: the Shannon entropy of the vertex distribution
* disconnected: the mass-weighted sum over components
* complement disconnected: the weighted sum over join blocks, each paying
  an extra ``-log2`` of its conditional mass

A graph this recursion cannot exhaust falls back on the complement identity
(clique entropy plus the complement's Koerner entropy equals the Shannon
entropy) with the Koerner side computed numerically.  The recursion is the
package's only split detection: each node of the
:class:`DecompositionTree` certificate it emits names the split it found
(``IsolatedSplit`` for components, ``CCSplit`` for join blocks), and the
tree's shape depends only on adjacency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NoConvergence, TooLarge
from .pgraph import ProbGraph, _bits, _complement_masks, _components, _mwis_mask

METHOD_EXACT = "ExactDecomposition"
METHOD_NUMERIC = "NumericFallback"
METHOD_BRUTE = "BruteForce"

FALLBACK_CAP = 20
"""Most vertices of a subgraph whose clique entropy falls back on numerics."""

FW_GAP_TOL = 1e-7
"""Duality gap, in bits, at which the Frank-Wolfe solve stops."""

FW_MAX_ITER = 100_000
"""Frank-Wolfe iterations before NoConvergence is raised."""

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class DecompositionTree:
    """Certificate node for the clique entropy recursion.

    ``vertex_ids`` index into the root graph's vertex order.  ``value`` is
    the clique entropy of the induced subgraph under its renormalized
    distribution, in bits.  Split nodes carry one child per block.
    """

    kind: str  # EmptyLeaf | CompleteLeaf | IsolatedSplit | CCSplit | Opaque
    vertex_ids: tuple[int, ...]
    value: float
    children: tuple["DecompositionTree", ...] = ()

    def has_opaque(self) -> bool:
        return self.kind == "Opaque" or any(c.has_opaque() for c in self.children)

    def leaf_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}

        def walk(node: "DecompositionTree") -> None:
            counts[node.kind] = counts.get(node.kind, 0) + 1
            for c in node.children:
                walk(c)

        walk(self)
        return counts

    def to_dict(self, labels: Sequence) -> dict:
        """JSON form, naming each vertex by ``labels[vertex id]``."""
        shown = [labels[i] for i in self.vertex_ids]
        out = {"kind": self.kind, "vertices": shown, "value": self.value}
        if self.children:
            out["children"] = [c.to_dict(labels) for c in self.children]
        return out


@dataclass(frozen=True)
class EntropyResult:
    value: float
    method: str
    certificate: object | None = None


@dataclass(frozen=True)
class FwTrace:
    iterations: int
    gap: float


def _entropy_of_masses(masses: Sequence) -> float:
    total = sum(masses)
    acc = 0.0
    for m in masses:
        if m > 0:
            r = float(m / total) if isinstance(m, Fraction) else float(m) / float(total)
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
    masses: Sequence,
    ids: tuple[int, ...],
    cap: int,
) -> DecompositionTree:
    n = len(ids)
    sub = _subgraph_masks(adj, ids)
    edge_bits = sum(m.bit_count() for m in sub) // 2
    if edge_bits == 0:
        return DecompositionTree("EmptyLeaf", ids, 0.0)
    if edge_bits == n * (n - 1) // 2:
        return DecompositionTree("CompleteLeaf", ids, _entropy_of_masses([masses[i] for i in ids]))
    full = (1 << n) - 1
    comps = _components(sub, full)
    if len(comps) > 1:
        return _split_node("IsolatedSplit", adj, masses, ids, comps, cap)
    co = _complement_masks(sub)
    comps = _components(co, full)
    if len(comps) > 1:
        return _split_node("CCSplit", adj, masses, ids, comps, cap)
    if n > cap:
        raise TooLarge(
            f"opaque subgraph with {n} vertices exceeds the numeric fallback cap of {cap}"
        )
    h = _entropy_of_masses([masses[i] for i in ids])
    co_value, _, _ = _fw_min_log_mass(co, _normalized([masses[i] for i in ids]))
    return DecompositionTree("Opaque", ids, h - co_value)


def _split_node(kind, adj, masses, ids, comps, cap) -> DecompositionTree:
    children = []
    blocks = []
    for comp in sorted(comps, key=lambda c: (c & -c).bit_length()):
        block = tuple(ids[i] for i in _bits(comp))
        blocks.append(block)
        children.append(_decompose(adj, masses, block, cap))
    total = sum(masses[i] for i in ids)
    value = 0.0
    for block, child in zip(blocks, children):
        bm = sum(masses[i] for i in block)
        if bm == 0:
            continue
        ratio = float(bm / total) if isinstance(bm, Fraction) else float(bm) / float(total)
        value += ratio * child.value
        if kind == "CCSplit":
            value -= ratio * math.log2(ratio)
    return DecompositionTree(kind, ids, value, tuple(children))


def clique_entropy(g: ProbGraph) -> EntropyResult:
    """Clique entropy with a decomposition certificate.

    Zero-mass vertices are dropped up front; they cannot change the value.
    The method is exact when the recursion bottoms out in empty and complete
    leaves only, and a numeric fallback otherwise; an opaque subgraph above
    ``FALLBACK_CAP`` vertices raises TooLarge.  Fraction masses are kept
    exact all the way to the final log.
    """
    masses = list(g.dist)
    ids = tuple(i for i, m in enumerate(masses) if m > 0)
    tree = _decompose(g.adjacency_masks(), masses, ids, FALLBACK_CAP)
    method = METHOD_NUMERIC if tree.has_opaque() else METHOD_EXACT
    return EntropyResult(tree.value, method, tree)


def graph_entropy(g: ProbGraph) -> EntropyResult:
    """Koerner graph entropy.

    When the complement decomposes exactly, the complement identity gives
    the value in closed form; otherwise away-step Frank-Wolfe minimizes
    ``-sum p log2 a`` over the vertex packing polytope to ``FW_GAP_TOL`` bits.
    """
    if g.n > 20:
        raise TooLarge(f"{g.n} vertices; graph entropy is capped at 20")
    masses = list(g.dist)
    ids = tuple(i for i, m in enumerate(masses) if m > 0)
    co = _complement_masks(g.adjacency_masks())
    try:
        # With a cap of 0 every opaque subgraph raises, so a tree is exact.
        tree = _decompose(co, masses, ids, 0)
    except TooLarge:
        tree = None
    if tree is not None:
        h = _entropy_of_masses([masses[i] for i in ids])
        return EntropyResult(h - tree.value, METHOD_EXACT, tree)
    sub = _subgraph_masks(g.adjacency_masks(), ids)
    probs = _normalized([masses[i] for i in ids])
    value, iters, gap = _fw_min_log_mass(sub, probs)
    return EntropyResult(value, METHOD_NUMERIC, FwTrace(iters, gap))


def _normalized(masses: Sequence) -> list[float]:
    total = sum(masses)
    return [float(m / total) if isinstance(m, Fraction) else float(m) / float(total) for m in masses]


def _fw_min_log_mass(adj: Sequence[int], probs: Sequence[float]) -> tuple[float, int, float]:
    """Minimize F(a) = -sum_i p_i log2 a_i over the vertex packing polytope.

    The polytope is the convex hull of independent-set indicator vectors, so
    the linear minimization oracle is a maximum-weight independent set with
    weights p_i / (a_i ln 2).  Away steps over the active vertex set give
    linear convergence; the line search solves phi'(gamma) = 0 by bisection,
    staying strictly inside the region where F is finite.

    Returns (value in bits, iterations used, final duality gap).
    """
    n = len(probs)
    if n == 0:
        return 0.0, 0, 0.0
    active: dict[int, float] = {1 << i: 1.0 / n for i in range(n)}
    a = [1.0 / n] * n

    def objective() -> float:
        return -sum(p * math.log2(x) for p, x in zip(probs, a))

    for it in range(1, FW_MAX_ITER + 1):
        w = [p / (x * _LN2) for p, x in zip(probs, a)]
        _, s_mask = _mwis_mask(adj, w)
        wa = sum(wi * ai for wi, ai in zip(w, a))
        fw_gap = sum(w[i] for i in _bits(s_mask)) - wa
        if fw_gap < FW_GAP_TOL:
            return objective(), it, fw_gap
        away_mask, away_alpha = min(
            active.items(), key=lambda kv: (sum(w[i] for i in _bits(kv[0])), kv[0])
        )
        away_gap = wa - sum(w[i] for i in _bits(away_mask))
        use_away = away_gap > fw_gap and away_alpha < 1.0
        if use_away:
            gamma_max = away_alpha / (1.0 - away_alpha)
            direction = _direction(n, a, away_mask, away=True)
        else:
            gamma_max = 1.0
            direction = _direction(n, a, s_mask, away=False)
        gamma = _line_search(probs, a, direction, gamma_max)
        if gamma <= 0.0:
            return objective(), it, fw_gap
        for i in range(n):
            a[i] += gamma * direction[i]
            if a[i] < 1e-300:
                a[i] = 1e-300
        if use_away:
            for m in list(active):
                active[m] *= 1.0 + gamma
            active[away_mask] -= gamma
        else:
            for m in list(active):
                active[m] *= 1.0 - gamma
            active[s_mask] = active.get(s_mask, 0.0) + gamma
        for m in list(active):
            if active[m] <= 1e-15:
                del active[m]
        if it % 128 == 0:
            total = sum(active.values())
            for m in active:
                active[m] /= total
            a = [0.0] * n
            for m, al in active.items():
                for i in _bits(m):
                    a[i] += al
            for i in range(n):
                if a[i] < 1e-300:
                    a[i] = 1e-300
    raise NoConvergence(f"duality gap still {fw_gap:.3g} after {FW_MAX_ITER} iterations")


def _direction(n: int, a: Sequence[float], mask: int, *, away: bool) -> list[float]:
    d = [0.0] * n
    for i in _bits(mask):
        d[i] = 1.0
    if away:
        return [ai - di for ai, di in zip(a, d)]
    return [di - ai for di, ai in zip(d, a)]


def _line_search(
    probs: Sequence[float], a: Sequence[float], d: Sequence[float], gamma_max: float
) -> float:
    """Exact minimization of phi(g) = F(a + g d) on [0, gamma_max] by bisection."""
    hi = gamma_max
    for p, ai, di in zip(probs, a, d):
        if p > 0 and di < 0:
            bound = -ai / di
            if bound < hi:
                hi = bound
    hi *= 1 - 1e-12
    if hi <= 0:
        return 0.0

    def dphi(gamma: float) -> float:
        acc = 0.0
        for p, ai, di in zip(probs, a, d):
            if p > 0 and di != 0.0:
                acc -= p * di / (ai + gamma * di)
        return acc

    if dphi(hi) <= 0:
        return hi
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dphi(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def chromatic_entropy(g: ProbGraph) -> EntropyResult:
    """Minimum coloring entropy by exhaustive search over proper partitions.

    Zero-mass vertices are dropped first (they can always take a fresh
    color).  Every partition of the remaining vertices into independent sets
    is enumerated, so the graph is capped at 12 vertices.
    """
    masses = [p for p in g.dist]
    ids = [i for i, m in enumerate(masses) if m > 0]
    if len(ids) > 12:
        raise TooLarge(f"{len(ids)} positive-mass vertices; coloring search is capped at 12")
    if not ids:
        return EntropyResult(0.0, METHOD_BRUTE, ())
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
