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

The characteristic graph of a pair depends only on (I, J, L, I_1..I_m), and
many pairs share one.  A run builds each distinct graph once; every pair
with its key reuses the graph, its clique entropy and, for the improved
bound, its marginal constraints and objective.

A single-shot graph nests four layers per vertex: side-information fiber F,
class C, leftover block L and bracket B.  Fibers are unjoined, classes in a
fiber fully joined, leftover blocks in a class unjoined, and brackets in a
leftover block fully joined with no edges inside (see
:func:`chargraph.layer_report`), so the clique entropy is
H(C|F) + H(B|F,C,L).  The improved bound maximizes that closed form.  Its
feasible set is an affine slice of the simplex whose tangent space is
computed by singular value decomposition of the marginal constraint matrix.
Coordinate ascent with a scanned golden-section line search runs from the
base distribution plus a batch of random starts seeded per (pair, start);
an optional grid oracle cross-checks low-dimensional slices and flags
suprema that appear to sit on the positivity boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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


class _Graph:
    """One distinct single-shot characteristic graph of a run.

    Every pair with the same (I, J, L, I_1..I_m) shares it; what a bound
    needs beyond the graph is derived on first use.
    """

    def __init__(self, model: NetworkModel, partition: StrongPartition):
        self.model = model
        self.cg = chargraph.build(model, partition.cut, partition, 1)

    @cached_property
    def clique(self) -> entropy.EntropyResult:
        return entropy.clique_entropy(self.cg.graph)

    @cached_property
    def rows(self) -> np.ndarray:
        return _constraint_rows(self.model, self.cg)

    @cached_property
    def null(self) -> np.ndarray:
        return _null_space(self.rows)

    @cached_property
    def objective(self) -> Callable[[np.ndarray], np.ndarray]:
        return _layer_objective(self.cg)


def _graphs(model: NetworkModel) -> Callable[[StrongPartition], _Graph]:
    """A lookup that builds each distinct characteristic graph once."""
    built: dict[tuple, _Graph] = {}

    def graph_of(pair: StrongPartition) -> _Graph:
        # i_sets stays ordered: brackets and constraint rows follow it.
        key = (pair.cut.i_set, pair.cut.j_set, pair.l_set, pair.i_sets)
        if key not in built:
            built[key] = _Graph(model, pair)
        return built[key]

    return graph_of


def lower_bounds(
    model: NetworkModel,
    search: SearchConfig | None = None,
    opt: OptConfig | None = None,
    *,
    pairs: Sequence[StrongPartition] | None = None,
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """The basic, improved and fixed-length reports from one pass over the pairs.

    Each report equals the one its own function returns; ``pairs`` is as
    for :func:`basic_lower_bound`.
    """
    opt = opt or OptConfig()
    if pairs is None:
        pairs = enumerate_pairs(model, search)
    graph_of = _graphs(model)
    basic, improved, fixed = [], [], []
    for index, pair in enumerate(pairs):
        graph = graph_of(pair)
        basic.append(_basic(pair, graph))
        improved.append(_improved(pair, index, graph, opt))
        fixed.append(_fixed(model, pair))
    return (
        _report("basic", basic),
        _report("improved", improved),
        _report("fixed_length", fixed),
    )


# -- basic bound --------------------------------------------------------------


def _basic(pair: StrongPartition, graph: _Graph) -> PairResult:
    res = graph.clique
    tree = res.certificate
    return PairResult(
        cut=pair.cut.cut,
        blocks=pair.blocks,
        value=res.value / len(pair.cut.cut),
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
    graph_of = _graphs(model)
    return _report("basic", [_basic(p, graph_of(p)) for p in pairs])


# -- improved bound -----------------------------------------------------------


def _layer_objective(cg: chargraph.CharGraph) -> Callable[[np.ndarray], np.ndarray]:
    """Clique entropy of a single-shot graph as a function of vertex masses.

    H(C|F) + H(B|F,C,L) times the total mass is the sum of ``m log2 m`` over
    the fiber groups, minus it over the (fiber, class) groups, plus it over
    the (fiber, class, leftover) groups, minus it over the full-coordinate
    groups.  A vertex set that is a group on two adjacent levels cancels and
    is dropped.  The returned callable scores a whole batch of candidate
    rows with one matrix product.
    """
    signs: dict[tuple[int, ...], int] = {}
    for depth, sign in enumerate((1, -1, 1, -1), start=1):
        groups: dict[tuple, list[int]] = {}
        for vid, coord in enumerate(cg.layers):
            groups.setdefault(coord[:depth], []).append(vid)
        for members in groups.values():
            key = tuple(members)
            signs[key] = signs.get(key, 0) + sign
    kept = [(ids, c) for ids, c in signs.items() if c]
    subset_t = np.zeros((len(cg.layers), len(kept)))
    for col, (ids, _) in enumerate(kept):
        subset_t[list(ids), col] = 1.0
    coef = np.array([c for _, c in kept], dtype=float)

    def evaluate(p: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(p)
        m = batch @ subset_t
        out = (m * np.log2(np.maximum(m, 1e-300))) @ coef / batch.sum(axis=1)
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


def _improved(
    pair: StrongPartition, index: int, graph: _Graph, opt: OptConfig
) -> PairResult:
    base = np.array([float(x) for x in graph.cg.graph.dist])
    size = len(pair.cut.cut)
    if np.min(base) < opt.min_mass:
        raise InfeasibleSpec(
            "base distribution has an atom below the optimizer's minimum mass"
        )
    objective = graph.objective

    def score(p: np.ndarray) -> np.ndarray:
        return objective(np.maximum(p, opt.min_mass))

    base_value = float(score(base))
    details: dict = {"base_value": base_value / size}

    null = graph.null
    dim = null.shape[1]
    details["feasible_dimension"] = int(dim)
    if dim == 0:
        details["opt_dist"] = [float(x) for x in base]
        return PairResult(
            pair.cut.cut, pair.blocks, base_value / size, "FixedPoint", details
        )

    t0 = np.zeros((opt.starts + 1, dim))
    for start in range(opt.starts):
        rng = np.random.default_rng([opt.seed, index, start])
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
    rows = graph.rows
    residual = float(np.max(np.abs(rows @ p_best - rows @ base)))
    if residual > 1e-10 or abs(float(p_best.sum()) - 1.0) > 1e-12 or np.any(p_best <= 0):
        raise OptimizerFailed(
            f"optimum violates feasibility (marginal residual {residual:.3g})"
        )
    details["opt_dist"] = [float(x) for x in p_best]
    details["starts"] = opt.starts
    details["marginal_residual"] = residual
    return PairResult(
        pair.cut.cut, pair.blocks, best_val / size, "CoordinateAscent", details
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
    graph_of = _graphs(model)
    return _report(
        "improved", [_improved(p, i, graph_of(p), opt) for i, p in enumerate(pairs)]
    )


# -- fixed-length bound -------------------------------------------------------


def _fixed(model: NetworkModel, pair: StrongPartition) -> PairResult:
    count = equiv.n_C(model, pair)
    value = math.log2(count) / len(pair.cut.cut)
    return PairResult(
        cut=pair.cut.cut,
        blocks=pair.blocks,
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
    return _report("fixed_length", [_fixed(model, p) for p in pairs])
