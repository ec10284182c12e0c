"""Computing-rate lower bounds from cut/partition pairs.

Three bounds are computed, each as a maximum over (cut set, strong
partition) pairs:

* basic: clique entropy of the pair's single-shot characteristic graph
  divided by the cut size;
* improved: the same quantity maximized over every full-support
  distribution with the original marginals on each block's scope (the
  separated set of the block, the leftover set, and the side information);
* fixed length: log2 of the pair's distinguishability count divided by the
  cut size (a converse for fixed-length codes).

The improved bound's feasible set is an affine slice of the simplex.  Its
tangent space is computed by singular value decomposition of the marginal
constraint matrix; the objective is re-evaluated through the cached
decomposition tree of the characteristic graph, whose shape depends only on
adjacency, so candidate distributions never rebuild the graph.  Coordinate
ascent with a scanned golden-section line search runs from the base
distribution plus a batch of seeded random starts; an optional grid oracle
cross-checks low-dimensional slices and flags suprema that appear to sit on
the positivity boundary.

Pair evaluations are independent; set NETFUNC_THREADS to evaluate them in a
process pool.  Results are deterministic either way: random starts are
seeded per (pair, start) and reports keep enumeration order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import chargraph, entropy, equiv
from .errors import (
    BadDist,
    InfeasibleSpec,
    OptimizerFailed,
    SearchSpaceExceeded,
    UsageError,
)
from .netmodel import (
    CutAnalysis,
    NetworkModel,
    StrongPartition,
    enumerate_cut_sets,
    enumerate_strong_partitions,
    restrict_sources,
)

PairKey = tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]


@dataclass(frozen=True)
class SearchConfig:
    """Limits for the pair enumeration."""

    max_cut_size: int | None = None
    edge_cap: int = 20
    pair_cap: int = 20_000
    pairs: tuple[PairKey, ...] | None = None


@dataclass(frozen=True)
class OptConfig:
    """Settings for the improved-bound distribution search."""

    starts: int = 32
    seed: int = 0
    gain_tol: float = 1e-9
    min_mass: float = 1e-9
    max_sweeps: int = 200
    grid_oracle: bool = False
    grid_points: int = 81
    grid_max_dim: int = 3


@dataclass(frozen=True)
class PairResult:
    cut: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]
    value: float
    method: str
    details: dict = field(compare=False)

    def key(self) -> PairKey:
        return (self.cut, self.blocks)


@dataclass(frozen=True)
class BoundReport:
    kind: str
    value: float
    witness_cut: tuple[str, ...]
    witness_blocks: tuple[tuple[str, ...], ...]
    pairs: tuple[PairResult, ...]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "witness": {
                "cut": list(self.witness_cut),
                "blocks": [list(b) for b in self.witness_blocks],
            },
            "pairs": [
                {
                    "cut": list(p.cut),
                    "blocks": [list(b) for b in p.blocks],
                    "value": p.value,
                    "method": p.method,
                    **p.details,
                }
                for p in self.pairs
            ],
        }


def pair_key(partition: StrongPartition) -> PairKey:
    return (partition.cut.cut, partition.blocks)


def enumerate_pairs(
    model: NetworkModel, search: SearchConfig | None = None
) -> list[StrongPartition]:
    """All (cut set, strong partition) pairs under the search limits."""
    search = search or SearchConfig()
    cuts = enumerate_cut_sets(model, search.max_cut_size, edge_cap=search.edge_cap)
    pairs: list[StrongPartition] = []
    for cut in cuts:
        pairs.extend(enumerate_strong_partitions(model, cut))
        if len(pairs) > search.pair_cap:
            raise SearchSpaceExceeded(
                f"more than {search.pair_cap} cut/partition pairs; restrict max_cut_size"
            )
    if search.pairs is not None:
        wanted = set(search.pairs)
        pairs = [p for p in pairs if pair_key(p) in wanted]
        missing = wanted - {pair_key(p) for p in pairs}
        if missing:
            raise UsageError(f"requested pairs not found: {sorted(missing)}")
    return pairs


def _run_pairs(worker: Callable, payloads: list) -> list[PairResult]:
    threads = os.environ.get("NETFUNC_THREADS", "")
    try:
        nworkers = int(threads) if threads else 1
    except ValueError:
        raise UsageError(f"NETFUNC_THREADS must be an integer, got {threads!r}")
    if nworkers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            return list(pool.map(worker, payloads))
    return [worker(p) for p in payloads]


def _report(kind: str, results: list[PairResult]) -> BoundReport:
    if not results:
        raise UsageError("no cut/partition pairs to evaluate")
    top = max(r.value for r in results)
    witness = min((r for r in results if r.value == top), key=lambda r: r.key())
    return BoundReport(
        kind=kind,
        value=witness.value,
        witness_cut=witness.cut,
        witness_blocks=witness.blocks,
        pairs=tuple(results),
    )


# -- basic bound --------------------------------------------------------------


def _basic_worker(payload: tuple[NetworkModel, StrongPartition]) -> PairResult:
    model, partition = payload
    cg = chargraph.build(model, partition.cut, partition, 1)
    res = entropy.clique_entropy(cg.graph)
    value = res.value / len(partition.cut.cut)
    tree = res.certificate
    return PairResult(
        cut=partition.cut.cut,
        blocks=partition.blocks,
        value=value,
        method=res.method,
        details={
            "clique_entropy": res.value,
            "leaf_counts": tree.leaf_counts() if tree is not None else {},
        },
    )


def basic_lower_bound(
    model: NetworkModel,
    search: SearchConfig | None = None,
    *,
    pairs: Sequence[StrongPartition] | None = None,
) -> BoundReport:
    """Max over pairs of single-shot clique entropy over cut size.

    ``pairs``, when given, is the list ``enumerate_pairs(model, search)``
    returns; callers computing several bounds enumerate it once.
    """
    if pairs is None:
        pairs = enumerate_pairs(model, search)
    results = _run_pairs(_basic_worker, [(model, p) for p in pairs])
    return _report("basic", results)


# -- improved bound -----------------------------------------------------------


def _compile_tree(
    tree: entropy.DecompositionTree, n: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Flatten a decomposition tree into a closed-form mass functional.

    Telescoping the recursion turns the value into a signed sum of
    ``m log2 m`` terms over fixed vertex subsets (complete leaves,
    completely-connected nodes and their blocks) minus the same terms over
    the complete leaves' individual vertices, all divided by the total mass.
    The returned callable scores a whole batch of candidate rows at once;
    one matrix product replaces one tree walk per candidate.
    """
    rows: list[np.ndarray] = []
    coefs: list[float] = []
    leaf_vertices: list[int] = []

    def indicator(ids: Sequence[int]) -> np.ndarray:
        row = np.zeros(n)
        row[list(ids)] = 1.0
        return row

    def walk(node: entropy.DecompositionTree) -> None:
        if node.kind == "CompleteLeaf":
            rows.append(indicator(node.vertex_ids))
            coefs.append(1.0)
            leaf_vertices.extend(node.vertex_ids)
        elif node.kind == "CCSplit":
            rows.append(indicator(node.vertex_ids))
            coefs.append(1.0)
            for child in node.children:
                rows.append(indicator(child.vertex_ids))
                coefs.append(-1.0)
                walk(child)
        elif node.kind == "IsolatedSplit":
            for child in node.children:
                walk(child)
        elif node.kind == "Opaque":
            raise OptimizerFailed("cannot compile an opaque decomposition")

    walk(tree)
    subset_t = (np.array(rows) if rows else np.zeros((0, n))).T
    sign = np.array(coefs)
    root = indicator(tree.vertex_ids)
    sel = np.array(sorted(leaf_vertices), dtype=int)

    def evaluate(p: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(p)
        m = batch @ subset_t
        acc = (m * np.log2(np.maximum(m, 1e-300))) @ sign
        pv = batch[:, sel]
        acc -= np.sum(pv * np.log2(np.maximum(pv, 1e-300)), axis=1)
        out = acc / (batch @ root)
        return out[0] if p.ndim == 1 else out

    return evaluate


def _constraint_rows(
    model: NetworkModel, cg: chargraph.CharGraph
) -> np.ndarray:
    """Indicator rows: one per (block scope, scope assignment) marginal."""
    partition = cg.partition
    order = cg.order
    rows: list[np.ndarray] = []
    for ell in range(partition.m):
        scope = restrict_sources(
            model,
            set(partition.i_sets[ell]) | set(partition.l_set) | set(cg.cut.j_set),
        )
        pos = [order.index(s) for s in scope]
        groups: dict[tuple, list[int]] = {}
        for vid, a in enumerate(cg.assignments):
            key = tuple(a[p] for p in pos)
            groups.setdefault(key, []).append(vid)
        for key in sorted(groups):
            row = np.zeros(len(cg.assignments))
            row[groups[key]] = 1.0
            rows.append(row)
    return np.array(rows)


def is_pc_equivalent(
    phat: Sequence[float],
    model: NetworkModel,
    cut: CutAnalysis,
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
    cg = chargraph.build(model, cut, partition, 1)
    p = np.asarray(phat, dtype=float)
    if p.shape != (len(cg.assignments),):
        raise BadDist(f"expected {len(cg.assignments)} masses, got {p.shape}")
    if np.any(np.isnan(p)) or abs(float(p.sum()) - 1.0) > tol or np.any(p < -tol):
        raise BadDist("not a probability vector")
    if np.any(p <= 0):
        return False
    base = np.array([float(x) for x in cg.graph.dist])
    m = _constraint_rows(model, cg)
    return bool(np.max(np.abs(m @ p - m @ base)) <= tol)


def _null_space(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.eye(m.shape[1])
    _, s, vh = np.linalg.svd(m)
    tol = max(m.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    return vh[rank:].T.copy()


_SCAN_POINTS = 17
_SCAN_ROUNDS = 8


def _ascend_batch(
    base: np.ndarray,
    null: np.ndarray,
    t0: np.ndarray,
    score: Callable[[np.ndarray], np.ndarray],
    opt: OptConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate ascent on every start at once, in lockstep sweeps.

    Starts are independent trajectories; batching only amortizes the
    evaluator calls.  Each coordinate line search scans a shrinking bracket:
    the feasible interval is sampled, the bracket around the best point is
    resampled, and after a fixed number of rounds the interval is below
    1e-8 of its original width.  Rows of ``t0`` are start points; returns
    the final points and their objective values.
    """
    t = t0.copy()
    n_starts, dim = t.shape
    lin = np.linspace(0.0, 1.0, _SCAN_POINTS)
    rows = np.arange(n_starts)
    vals = score(base[None, :] + t @ null.T)
    for _ in range(opt.max_sweeps):
        sweep_start = vals.copy()
        for i in range(dim):
            col = null[:, i]
            p = base[None, :] + t @ null.T
            lo = np.full(n_starts, -np.inf)
            hi = np.full(n_starts, np.inf)
            pos = col > 1e-15
            neg = col < -1e-15
            if pos.any():
                lo = ((opt.min_mass - p[:, pos]) / col[pos]).max(axis=1)
            if neg.any():
                hi = ((opt.min_mass - p[:, neg]) / col[neg]).min(axis=1)
            valid = (lo < hi) & np.isfinite(lo) & np.isfinite(hi)
            if not valid.any():
                continue
            a = np.where(valid, lo, 0.0)
            b = np.where(valid, hi, 0.0)
            x_best = np.zeros(n_starts)
            v_best = vals.copy()
            for _round in range(_SCAN_ROUNDS):
                xs = a[:, None] + (b - a)[:, None] * lin[None, :]
                cand = p[:, None, :] + xs[:, :, None] * col[None, None, :]
                v = score(
                    np.maximum(cand.reshape(-1, base.size), opt.min_mass)
                ).reshape(n_starts, _SCAN_POINTS)
                j = v.argmax(axis=1)
                xj = xs[rows, j]
                vj = v[rows, j]
                better = vj > v_best
                x_best = np.where(better, xj, x_best)
                v_best = np.where(better, vj, v_best)
                a = xs[rows, np.maximum(j - 1, 0)]
                b = xs[rows, np.minimum(j + 1, _SCAN_POINTS - 1)]
            take = valid & (v_best > vals)
            if take.any():
                t[take, i] += x_best[take]
                vals = np.where(take, v_best, vals)
        if float((vals - sweep_start).max()) < opt.gain_tol:
            break
    return t, vals


def _improved_worker(
    payload: tuple[NetworkModel, StrongPartition, int, OptConfig],
) -> PairResult:
    model, partition, pair_index, opt = payload
    cut = partition.cut
    cg = chargraph.build(model, cut, partition, 1)
    res = entropy.clique_entropy(cg.graph)
    tree = res.certificate
    if tree is None or tree.has_opaque():
        raise OptimizerFailed("characteristic graph did not decompose exactly")
    base = np.array([float(x) for x in cg.graph.dist])
    n = base.size
    size = len(cut.cut)
    if np.min(base) < opt.min_mass:
        raise InfeasibleSpec(
            "base distribution has an atom below the optimizer's minimum mass"
        )
    evaluator = _compile_tree(tree, n)

    def score(p: np.ndarray) -> np.ndarray:
        return evaluator(np.maximum(p, opt.min_mass))

    base_value = float(score(base))
    details: dict = {"base_value": base_value / size}

    m = _constraint_rows(model, cg)
    null = _null_space(m)
    dim = null.shape[1]
    details["feasible_dimension"] = int(dim)
    if dim == 0:
        details["opt_dist"] = [float(x) for x in base]
        return PairResult(
            cut.cut, partition.blocks, base_value / size, "FixedPoint", details
        )

    t0 = np.zeros((opt.starts + 1, dim))
    for start in range(opt.starts):
        rng = np.random.default_rng([opt.seed, pair_index, start])
        t = rng.uniform(-1.0, 1.0, dim)
        for _ in range(60):
            if np.min(base + null @ t) >= opt.min_mass:
                break
            t *= 0.5
        else:
            t = np.zeros(dim)
        t0[start + 1] = t
    t_final, vals = _ascend_batch(base, null, t0, score, opt)
    top = int(np.argmax(vals))
    best_val = float(vals[top])
    best_t = t_final[top]
    details["ascent_value"] = best_val / size

    if opt.grid_oracle and dim <= opt.grid_max_dim:
        grid_val, grid_t, boundary = _grid_scan(base, null, opt, score)
        if grid_val is not None:
            details["grid_value"] = grid_val / size
            details["boundary_suspect"] = boundary
            if grid_val > best_val:
                best_val, best_t = grid_val, grid_t
    p_best = np.maximum(base + null @ best_t, opt.min_mass)
    residual = float(np.max(np.abs(m @ p_best - m @ base)))
    if residual > 1e-10 or abs(float(p_best.sum()) - 1.0) > 1e-12 or np.any(p_best <= 0):
        raise OptimizerFailed(
            f"optimum violates feasibility (marginal residual {residual:.3g})"
        )
    details["opt_dist"] = [float(x) for x in p_best]
    details["starts"] = opt.starts
    details["marginal_residual"] = residual
    return PairResult(
        cut.cut, partition.blocks, best_val / size, "CoordinateAscent", details
    )


def _grid_scan(
    base: np.ndarray,
    null: np.ndarray,
    opt: OptConfig,
    score: Callable[[np.ndarray], np.ndarray],
) -> tuple[float | None, np.ndarray | None, bool]:
    """Exhaustive scan of the feasible box at grid resolution."""
    from scipy.optimize import linprog

    dim = null.shape[1]
    a_ub = -null
    b_ub = base - opt.min_mass
    boxes = []
    for i in range(dim):
        c = np.zeros(dim)
        c[i] = 1.0
        lo = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * dim, method="highs")
        hi = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * dim, method="highs")
        if not (lo.success and hi.success):
            return None, None, False
        boxes.append((float(lo.fun), float(-hi.fun)))
    axes = [np.linspace(lo, hi, opt.grid_points) for lo, hi in boxes]
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
        ok = p.min(axis=1) >= opt.min_mass - 1e-15
        if not ok.any():
            continue
        vals = np.where(ok, score(np.maximum(p, opt.min_mass)), -np.inf)
        j = int(np.argmax(vals))
        if float(vals[j]) > best_val:
            best_val = float(vals[j])
            best_t = ts[j].copy()
            best_on_edge = bool(edge[off + j])
    if best_t is None:
        return None, None, False
    near_floor = bool(np.min(base + null @ best_t) <= 10 * opt.min_mass)
    return best_val, best_t, best_on_edge or near_floor


def improved_lower_bound(
    model: NetworkModel,
    search: SearchConfig | None = None,
    opt: OptConfig | None = None,
    *,
    pairs: Sequence[StrongPartition] | None = None,
) -> BoundReport:
    """Basic bound maximized over marginal-preserving full-support distributions.

    Reports the best strictly positive distribution found per pair.  The
    supremum may sit on the positivity boundary; when the grid oracle is on
    it flags pairs where that appears to happen.  ``pairs`` is as for
    :func:`basic_lower_bound`.
    """
    opt = opt or OptConfig()
    if pairs is None:
        pairs = enumerate_pairs(model, search)
    payloads = [(model, p, i, opt) for i, p in enumerate(pairs)]
    results = _run_pairs(_improved_worker, payloads)
    return _report("improved", results)


# -- fixed-length bound -------------------------------------------------------


def _fixed_worker(payload: tuple[NetworkModel, StrongPartition]) -> PairResult:
    model, partition = payload
    count = equiv.n_C(model, partition)
    value = math.log2(count) / len(partition.cut.cut)
    return PairResult(
        cut=partition.cut.cut,
        blocks=partition.blocks,
        value=value,
        method="Counting",
        details={"count": count},
    )


def fixed_length_bound(
    model: NetworkModel,
    search: SearchConfig | None = None,
    *,
    pairs: Sequence[StrongPartition] | None = None,
) -> BoundReport:
    """Max over pairs of log2 distinguishability count over cut size.

    ``pairs`` is as for :func:`basic_lower_bound`.
    """
    if pairs is None:
        pairs = enumerate_pairs(model, search)
    results = _run_pairs(_fixed_worker, [(model, p) for p in pairs])
    return _report("fixed_length", results)
