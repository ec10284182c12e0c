"""Shared generators and brute-force oracles.

Everything here recomputes results straight from first principles, without
touching the package's fast paths: cut classification by hand-rolled BFS,
the strong-partition filter over all set partitions (as a set, and in
restricted-growth-string order with the index sets), the characteristic
graph's edge predicate by explicit quantification over completions, maximum
cliques and independent sets by subset enumeration, minimum-entropy
colorings by partition enumeration, and the improved bound's optimum by an
exhaustive grid over low-dimensional feasible slices.  Tests compare the
library against these oracles on small random instances.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from netfuncomp.errors import OptimizerFailed
from netfuncomp.netmodel import CutAnalysis, Edge, NetworkModel, StrongPartition, validate
from netfuncomp.pgraph import ProbGraph


# -- random instances ----------------------------------------------------------


def random_model(rng: random.Random, max_sources: int = 3, max_edges: int = 8) -> NetworkModel:
    """A random valid binary model: every node reaches the sink, f nonconstant."""
    n_sources = rng.randint(1, max_sources)
    n_mid = rng.randint(0, 2)
    sources = [f"s{i + 1}" for i in range(n_sources)]
    mids = [f"v{i + 1}" for i in range(n_mid)]
    nodes = sources + mids + ["t"]
    later = {node: nodes[i + 1 :] for i, node in enumerate(nodes)}

    edges: list[tuple[str, str]] = []
    for node in sources + mids:
        heads = [h for h in later[node] if h not in sources]
        edges.append((node, rng.choice(heads)))
    while len(edges) < max_edges and rng.random() < 0.6:
        tail = rng.choice(sources + mids)
        heads = [h for h in later[tail] if h not in sources]
        edges.append((tail, rng.choice(heads)))

    size = 2**n_sources
    table = [rng.randrange(2) for _ in range(size)]
    while len(set(table)) < 2:
        table = [rng.randrange(2) for _ in range(size)]
    weights = [rng.uniform(0.2, 1.0) for _ in range(size)]
    total = sum(weights)
    dist = [w / total for w in weights]
    dist[-1] = 1.0 - sum(dist[:-1])

    return validate(
        NetworkModel(
            nodes=tuple(nodes),
            edges=tuple(Edge(f"e{i + 1}", t, h) for i, (t, h) in enumerate(edges)),
            sources=tuple(sources),
            sink="t",
            alphabet_size=2,
            function_table=tuple(table),
            distribution=tuple(dist),
        )
    )


def random_graph(rng: random.Random, max_n: int = 8, min_n: int = 1) -> ProbGraph:
    """A random graph on 1..max_n vertices with a strictly positive distribution."""
    n = rng.randint(min_n, max_n)
    density = rng.uniform(0.1, 0.9)
    vertices = [f"z{i}" for i in range(n)]
    edges = [
        (vertices[i], vertices[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    weights = [rng.uniform(0.1, 1.0) for _ in range(n)]
    total = sum(weights)
    dist = [w / total for w in weights]
    dist[-1] = 1.0 - sum(dist[:-1])
    return ProbGraph(vertices, edges, dist)


# -- cut machinery oracles -----------------------------------------------------


def _reachable(model: NetworkModel, start: str, removed: frozenset[str]) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for e in model.edges:
            if e.id not in removed and e.tail == u and e.head not in seen:
                seen.add(e.head)
                stack.append(e.head)
    return seen


def brute_cut_sets(model: NetworkModel, cut_ids) -> tuple[set[str], set[str], set[str]]:
    """(K, I, J) for an edge set, from scratch."""
    ids = frozenset(cut_ids)
    tails = {model.edge_by_id(eid).tail for eid in ids}
    k_set = {
        s
        for s in model.sources
        if tails & _reachable(model, s, frozenset())
    }
    i_set = {
        s for s in model.sources if model.sink not in _reachable(model, s, ids)
    }
    return k_set, i_set, k_set - i_set


def set_partitions(items: list):
    """All partitions of ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_strong_partitions(model: NetworkModel, cut_ids) -> set[frozenset[frozenset[str]]]:
    """The strong partitions of a cut set, by filtering every set partition."""
    out = set()
    for blocks in set_partitions(sorted(cut_ids)):
        analyses = [brute_cut_sets(model, b) for b in blocks]
        if any(not i for _, i, _ in analyses):
            continue
        clash = False
        for a in range(len(blocks)):
            for b in range(len(blocks)):
                if a != b and analyses[a][1] & analyses[b][0]:
                    clash = True
        if not clash:
            out.add(frozenset(frozenset(b) for b in blocks))
    return out


def restricted_growth_strings(n: int):
    """All restricted growth strings of length n, lexicographically."""
    if n == 0:
        return
    rgs = [0] * n
    top = [0] * n  # top[i] = max(rgs[: i + 1])
    while True:
        yield tuple(rgs)
        i = n - 1
        while i > 0 and rgs[i] > top[i - 1]:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        top[i] = max(top[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            top[j] = top[i]


def _strong(sets: list[tuple[frozenset[str], frozenset[str]]]) -> bool:
    """Every block separates a source; no block separates one feeding another."""
    for a, (_, i) in enumerate(sets):
        if not i:
            return False
        for b, (k, _) in enumerate(sets):
            if a != b and i & k:
                return False
    return True


def rgs_strong_partitions(model: NetworkModel, analysis: CutAnalysis) -> list[StrongPartition]:
    """The strong partitions of a cut set, in restricted-growth-string order.

    Every set partition of the sorted edge ids is generated as a restricted
    growth string, its blocks ordered by least edge id, and kept when every
    block separates a source and no block separates a source that feeds
    another block.  Block sets come from ``brute_cut_sets``; blocks are
    keyed by bitmasks over the cut's positions only to keep this fast.
    """
    ids = analysis.cut
    memo: dict[int, tuple[frozenset[str], frozenset[str]]] = {}
    out = []
    for rgs in restricted_growth_strings(len(ids)):
        masks = [0] * (max(rgs) + 1)
        for pos, b in enumerate(rgs):
            masks[b] |= 1 << pos
        sets = []
        for mask in masks:
            if mask not in memo:
                k, i, _ = brute_cut_sets(model, [e for p, e in enumerate(ids) if mask >> p & 1])
                memo[mask] = (frozenset(k), frozenset(i))
            sets.append(memo[mask])
        if not _strong(sets):
            continue
        i_sets = tuple(i for _, i in sets)
        out.append(
            StrongPartition(
                cut=analysis,
                blocks=tuple(
                    tuple(e for p, e in enumerate(ids) if mask >> p & 1) for mask in masks
                ),
                i_sets=i_sets,
                l_set=analysis.i_set - frozenset().union(*i_sets),
            )
        )
    return out


# -- characteristic graph oracle -----------------------------------------------


def _columns(q: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(q), repeat=k))


def _f_rows(model: NetworkModel, cols: dict, k: int) -> tuple:
    return tuple(
        model.function_table[model.arg_index([cols[s][r] for s in model.sources])]
        for r in range(k)
    )


def brute_i_equivalent(model, i_tuple, j_tuple, b, b_prime, a_j, k) -> bool:
    """Interchangeability of two I-blocks under every completion."""
    fixed = set(i_tuple) | set(j_tuple)
    rest = [s for s in model.sources if s not in fixed]
    for d in itertools.product(_columns(model.alphabet_size, k), repeat=len(rest)):
        cols = dict(zip(i_tuple, b)) | dict(zip(j_tuple, a_j)) | dict(zip(rest, d))
        cols_p = dict(zip(i_tuple, b_prime)) | dict(zip(j_tuple, a_j)) | dict(zip(rest, d))
        if _f_rows(model, cols, k) != _f_rows(model, cols_p, k):
            return False
    return True


def brute_block_equivalent(model, partition, ell, b, b_prime, a_l, a_j, k) -> bool:
    """Block-level interchangeability: other blocks range freely, L pinned."""
    cut = partition.cut
    i_tuple = [s for s in model.sources if s in cut.i_set]
    j_tuple = [s for s in model.sources if s in cut.j_set]
    ell_tuple = [s for s in model.sources if s in partition.i_sets[ell]]
    l_tuple = [s for s in model.sources if s in partition.l_set]
    others = [
        s for s in i_tuple if s not in set(ell_tuple) and s not in set(l_tuple)
    ]
    q = model.alphabet_size
    for c in itertools.product(_columns(q, k), repeat=len(others)):
        base = dict(zip(l_tuple, a_l)) | dict(zip(others, c))
        full = {**base, **dict(zip(ell_tuple, b))}
        full_p = {**base, **dict(zip(ell_tuple, b_prime))}
        bi = tuple(full[s] for s in i_tuple)
        bi_p = tuple(full_p[s] for s in i_tuple)
        if not brute_i_equivalent(model, i_tuple, j_tuple, bi, bi_p, a_j, k):
            return False
    return True


def brute_char_edges(model, partition, k) -> set[frozenset]:
    """Edge set of the characteristic graph straight from the definition.

    Vertices are assignments over I then J in model source order; returned
    edges are frozensets of assignment pairs.
    """
    cut = partition.cut
    i_tuple = [s for s in model.sources if s in cut.i_set]
    j_tuple = [s for s in model.sources if s in cut.j_set]
    order = [s for s in model.sources if s in cut.i_set | cut.j_set]
    l_tuple = [s for s in model.sources if s in partition.l_set]
    q = model.alphabet_size
    verts = list(itertools.product(_columns(q, k), repeat=len(order)))

    def split(v):
        cols = dict(zip(order, v))
        x_i = tuple(cols[s] for s in i_tuple)
        x_j = tuple(cols[s] for s in j_tuple)
        x_l = tuple(cols[s] for s in l_tuple)
        per_block = [
            tuple(cols[s] for s in model.sources if s in partition.i_sets[ell])
            for ell in range(partition.m)
        ]
        return x_i, x_j, x_l, per_block

    edges = set()
    for u, v in itertools.combinations(verts, 2):
        ui, uj, ul, ub = split(u)
        vi, vj, vl, vb = split(v)
        if uj != vj:
            continue
        if not brute_i_equivalent(model, i_tuple, j_tuple, ui, vi, uj, k):
            edges.add(frozenset((u, v)))
        elif ul == vl and any(
            not brute_block_equivalent(model, partition, ell, ub[ell], vb[ell], ul, uj, k)
            for ell in range(partition.m)
        ):
            edges.add(frozenset((u, v)))
    return edges


# -- graph oracles --------------------------------------------------------------


def brute_clique_number(g: ProbGraph) -> int:
    best = 1
    verts = list(g.vertices)
    for size in range(2, g.n + 1):
        found = False
        for combo in itertools.combinations(verts, size):
            if all(g.adjacent(u, v) for u, v in itertools.combinations(combo, 2)):
                found = True
                break
        if not found:
            break
        best = size
    return best


def brute_max_weight_independent_set(g: ProbGraph, weights: dict) -> float:
    best = 0.0
    verts = list(g.vertices)
    for size in range(0, g.n + 1):
        for combo in itertools.combinations(verts, size):
            if any(g.adjacent(u, v) for u, v in itertools.combinations(combo, 2)):
                continue
            best = max(best, sum(weights[v] for v in combo))
    return best


def brute_chromatic_entropy(g: ProbGraph) -> float:
    """Minimum coloring entropy over every partition into independent sets."""
    ids = [v for v, p in zip(g.vertices, g.dist) if p > 0]
    best = math.inf
    for blocks in set_partitions(ids):
        if any(
            g.adjacent(u, v)
            for blk in blocks
            for u, v in itertools.combinations(blk, 2)
        ):
            continue
        h = 0.0
        for blk in blocks:
            mass = float(g.mass(blk))
            h -= mass * math.log2(mass)
        best = min(best, h)
    return best


# -- improved-bound oracle ------------------------------------------------------


GRID_POINTS = 81
GRID_MAX_DIM = 3


def grid_scan(graph) -> tuple[float, bool] | None:
    """Exhaustive scan of the feasible box of a ``bounds._Graph`` at grid resolution.

    Returns the best grid value and whether it sits on the box edge or near
    the floor, or None when the box cannot be bounded.  Raises
    OptimizerFailed when a grid point beats the certified optimum.  Meant
    for graphs with at most ``GRID_MAX_DIM`` free dimensions.
    """
    from scipy.optimize import linprog

    base, null, objective, floor = graph.base, graph.null, graph.objective, graph.floor
    dim = null.shape[1]
    a_ub = -null
    b_ub = base - floor
    boxes = []
    for i in range(dim):
        c = np.zeros(dim)
        c[i] = 1.0
        lo = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * dim, method="highs")
        hi = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * dim, method="highs")
        if not (lo.success and hi.success):
            return None
        boxes.append((float(lo.fun), float(-hi.fun)))
    axes = [np.linspace(lo, hi, GRID_POINTS) for lo, hi in boxes]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    edge = np.zeros(points.shape[0], dtype=bool)
    for i, (lo, hi) in enumerate(boxes):
        edge |= (points[:, i] == lo) | (points[:, i] == hi)
    best_val = -math.inf
    best_t: np.ndarray | None = None
    best_on_edge = False
    chunk = 32768
    for off in range(0, points.shape[0], chunk):
        ts = points[off : off + chunk]
        p = base[None, :] + ts @ null.T
        ok = p.min(axis=1) >= floor - 1e-15
        if not ok.any():
            continue
        vals = np.where(ok, objective(np.maximum(p, floor)), -np.inf)
        j = int(np.argmax(vals))
        if float(vals[j]) > best_val:
            best_val = float(vals[j])
            best_t = ts[j].copy()
            best_on_edge = bool(edge[off + j])
    if best_t is None:
        return None
    best = graph.optimum
    if best_val > best.value + best.gap + 1e-12:
        raise OptimizerFailed(
            f"grid value {best_val!r} exceeds the certified optimum {best.value!r} + {best.gap:.3g}"
        )
    near_floor = bool(np.min(base + null @ best_t) <= 10 * floor)
    return best_val, best_on_edge or near_floor
