"""Computing-rate lower bounds from cut/partition pairs.

Three bounds are computed, each as a maximum over (cut set, strong
partition) pairs:

* basic: clique entropy of the pair's single-shot characteristic graph
  divided by the cut size;
* improved: the same quantity maximized over every full-support
  distribution with the original marginals on each block's scope (the
  separated set of the block, the leftover set, and the side information);
* fixed length: log2 of the pair's distinguishability count divided by the
  cut size (a converse for fixed-length codes).  The count is the clique
  number of the single-shot graph, read off its layer nesting once per
  distinct graph; :func:`equiv.n_C` counts it from the class definitions
  and serves as the reference.

The characteristic graph of a pair depends only on (I, J, L, I_1..I_m), and
many pairs share one.  A run builds each distinct graph once; every pair
with its key reuses the graph, its clique entropy and clique number and,
for the improved bound, its marginal constraints, objective and optimum.
A pair reports its graph's value divided by its cut size.

A single-shot graph nests four layers per vertex: side-information fiber F,
class C, leftover block L and bracket B.  Fibers are unjoined, classes in a
fiber fully joined, leftover blocks in a class unjoined, and brackets in a
leftover block fully joined with no edges inside (see
:func:`chargraph.layer_report`), so the clique entropy is
H(C|F) + H(B|F,C,L).  The improved bound maximizes that closed form f over
the distributions p that keep every block's marginal and put at least a
floor on every vertex, ``MIN_MASS`` or, when the base distribution has a
smaller atom, half that atom: a polytope ``base + N t``, where N is an
orthonormal basis of the null space of the marginal constraint matrix.
Conditional entropy is concave in the joint distribution (Cover and Thomas,
ch. 2) and both joints are linear in p, so f is concave.  One deterministic
damped Newton solve on the log-barrier problem (Boyd and Vandenberghe,
sec. 11.3) follows the barrier path in t, with gradient and Hessian in
closed form.  For any lam >= 0, concavity and ||q - p|| <= sqrt(2) between
distributions bound max f - f(p) by lam.(p - floor) +
sqrt(2) ||N^T (grad f(p) + lam)||; an optimum whose bound exceeds
``MAX_GAP`` raises OptimizerFailed, so every reported optimum carries its
own certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import chargraph, entropy
from .errors import (
    BadDist,
    OptimizerFailed,
    SearchSpaceExceeded,
    UsageError,
)
from .netmodel import (
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
    pairs: tuple[PairKey, ...] | None = None


PAIR_CAP = 20_000
"""Most cut/partition pairs a run enumerates before it is refused."""


MIN_MASS = 1e-9
"""Floor on every atom of an improved-bound distribution, unless the base
distribution of the graph has a smaller atom: then the floor is half that atom."""

MAX_GAP = 1e-9
"""Largest optimality certificate an improved-bound optimum may carry."""

_BARRIER_PATH = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
_MAX_NEWTON = 50
_RESTARTS = 3
_FULL_STEP = 1e-8
_NEAR_FLOOR = 1e-6
_CURVATURE_RTOL = 1e-13


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
    pairs: list[StrongPartition] = []
    for cut in enumerate_cut_sets(model, search.max_cut_size):
        pairs.extend(enumerate_strong_partitions(model, cut))
        if len(pairs) > PAIR_CAP:
            raise SearchSpaceExceeded(
                f"more than {PAIR_CAP} cut/partition pairs; restrict max_cut_size"
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
        self.cg = chargraph.build(model, partition, 1)
        self.base = np.array([float(x) for x in self.cg.graph.dist])
        self.floor = MIN_MASS if self.base.min() > MIN_MASS else float(self.base.min()) / 2

    @cached_property
    def clique(self) -> entropy.EntropyResult:
        return entropy.clique_entropy(self.cg.graph)

    @cached_property
    def count(self) -> int:
        return chargraph.clique_number_via_decomposition(self.cg)

    @cached_property
    def rows(self) -> np.ndarray:
        return _constraint_rows(self.model, self.cg)

    @cached_property
    def null(self) -> np.ndarray:
        return _null_space(self.rows)

    @cached_property
    def objective(self) -> _LayerObjective:
        return _LayerObjective(self.cg)

    @cached_property
    def optimum(self) -> _Optimum:
        return _solve(self)


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


# -- improved bound -----------------------------------------------------------


class _LayerObjective:
    """Clique entropy of a single-shot graph as a function of vertex masses.

    H(C|F) + H(B|F,C,L) times the total mass is the sum of ``m log2 m`` over
    the fiber groups, minus it over the (fiber, class) groups, plus it over
    the (fiber, class, leftover) groups, minus it over the full-coordinate
    groups.  A vertex set that is a group on two adjacent levels cancels and
    is dropped.  With ``groups`` the vertex-by-group indicator matrix and
    ``coef`` the signs, the group masses are ``m = p @ groups``.  Calling the
    objective scores a whole batch of candidate rows with one matrix product.
    """

    def __init__(self, cg: chargraph.CharGraph):
        signs: dict[tuple[int, ...], int] = {}
        for depth, sign in enumerate((1, -1, 1, -1), start=1):
            groups: dict[tuple, list[int]] = {}
            for vid, coord in enumerate(cg.layers):
                groups.setdefault(coord[:depth], []).append(vid)
            for members in groups.values():
                key = tuple(members)
                signs[key] = signs.get(key, 0) + sign
        kept = [(ids, c) for ids, c in signs.items() if c]
        self.groups = np.zeros((len(cg.layers), len(kept)))
        for col, (ids, _) in enumerate(kept):
            self.groups[list(ids), col] = 1.0
        self.coef = np.array([c for _, c in kept], dtype=float)

    def __call__(self, p: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(p)
        m = batch @ self.groups
        out = (m * np.log2(np.maximum(m, 1e-300))) @ self.coef / batch.sum(axis=1)
        return out[0] if p.ndim == 1 else out

    def derivatives(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian of ``sum(coef * m log2 m)`` at a positive ``p``."""
        m = p @ self.groups
        grad = self.groups @ (self.coef * (np.log2(m) + 1 / math.log(2)))
        hess = (self.groups * (self.coef / (m * math.log(2)))) @ self.groups.T
        return grad, hess


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
    graph = _Graph(model, partition)
    p = np.asarray(phat, dtype=float)
    if p.shape != graph.base.shape:
        raise BadDist(f"expected {graph.base.size} masses, got {p.shape}")
    if np.any(np.isnan(p)) or abs(float(p.sum()) - 1.0) > tol or np.any(p < -tol):
        raise BadDist("not a probability vector")
    if np.any(p <= 0):
        return False
    m = graph.rows
    return bool(np.max(np.abs(m @ p - m @ graph.base)) <= tol)


def _null_space(m: np.ndarray) -> np.ndarray:
    if m.size == 0:
        return np.eye(m.shape[1])
    _, s, vh = np.linalg.svd(m)
    tol = max(m.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    return vh[rank:].T.copy()


@dataclass(frozen=True)
class _Optimum:
    """A maximizer ``p``: the maximum is at most ``value + gap``."""

    value: float
    p: np.ndarray
    gap: float
    residual: float


def _maximize(
    objective: _LayerObjective,
    start: np.ndarray,
    null: np.ndarray,
    floor: float,
    path: Sequence[float] = _BARRIER_PATH,
) -> np.ndarray:
    """Maximize ``f + mu * sum(log(p - floor))`` from ``start``, for each mu of ``path``.

    Steps keep 1% of every slack and backtrack to a quarter of the predicted
    gain, except below a Newton decrement of ``_FULL_STEP``, where gains are
    below the resolution of objective values near 1.  Directions with
    curvature under ``_CURVATURE_RTOL`` of the largest are frozen: near the
    floor, rounding in the 1/mu barrier curvature swamps a flat face's mu.
    """
    def barrier(q: np.ndarray, mu: float) -> float:
        return float(objective(q)) + mu * float(np.sum(np.log(q - floor)))

    p = start.copy()
    for mu in path:
        for _ in range(_MAX_NEWTON):
            slack = p - floor
            grad, hess = objective.derivatives(p)
            g = null.T @ (grad + mu / slack)
            curv, vecs = np.linalg.eigh((null.T * (mu / slack**2)) @ null - null.T @ hess @ null)
            keep = curv > _CURVATURE_RTOL * curv[-1]
            coef = (vecs[:, keep].T @ g) / curv[keep]
            step = vecs[:, keep] @ coef
            decrement = float(coef @ (curv[keep] * coef))
            d = null @ step
            toward = d < 0
            alpha = 1.0
            if toward.any():
                alpha = min(1.0, 0.99 * float(np.min(slack[toward] / -d[toward])))
            if decrement <= _FULL_STEP**2:
                p = p + alpha * d
                break
            start = barrier(p, mu)
            while alpha > 1e-12 and barrier(p + alpha * d, mu) < start + 0.25 * alpha * decrement:
                alpha *= 0.5
            p = p + alpha * d
    return p


def _certificate(
    objective: _LayerObjective, p: np.ndarray, null: np.ndarray, floor: float
) -> float:
    """The module docstring's bound on max f - f(p), for the better of two lam.

    One is the last barrier weight over the slack; the other is least
    squares on the atoms within ``_NEAR_FLOOR`` of the floor, clipped at 0.
    """
    slack = p - floor
    grad, _ = objective.derivatives(p)

    def bound(lam: np.ndarray) -> float:
        return float(lam @ slack) + math.sqrt(2) * float(np.linalg.norm(null.T @ (grad + lam)))

    lam = np.zeros_like(p)
    near = slack <= _NEAR_FLOOR
    if near.any():
        fit = np.linalg.lstsq(null.T[:, near], -(null.T @ grad), rcond=None)[0]
        lam[near] = np.maximum(fit, 0.0)
    return min(bound(_BARRIER_PATH[-1] / slack), bound(lam))


def _solve(graph: _Graph) -> _Optimum:
    """The certified optimum, restarting Newton at the last weight if needed.

    Near the floor the barrier's curvature can make the decrement test pass
    while the reduced gradient is still far from zero, which leaves the
    certificate above ``MAX_GAP``.  Up to ``_RESTARTS`` more passes at the
    last barrier weight, each from the previous point, resume the progress;
    every pass's point is checked for feasibility before it is certified.
    """
    base, floor = graph.base, graph.floor
    objective = graph.objective
    null = graph.null
    if null.shape[1] == 0:
        return _Optimum(float(objective(base)), base, 0.0, 0.0)
    rows = graph.rows
    p = _maximize(objective, base, null, floor)
    for restart in range(_RESTARTS + 1):
        if restart:
            p = _maximize(objective, p, null, floor, _BARRIER_PATH[-1:])
        residual = float(np.max(np.abs(rows @ p - rows @ base)))
        if residual > 1e-10 or abs(float(p.sum()) - 1.0) > 1e-12 or np.any(p <= floor):
            raise OptimizerFailed(
                f"optimum violates feasibility (marginal residual {residual:.3g})"
            )
        gap = _certificate(objective, p, null, floor)
        if gap <= MAX_GAP:
            return _Optimum(float(objective(p)), p, gap, residual)
    raise OptimizerFailed(f"optimality gap {gap:.3g} exceeds {MAX_GAP:g}")


def _improved(pair: StrongPartition, graph: _Graph) -> PairResult:
    size = len(pair.cut.cut)
    best = graph.optimum
    dim = graph.null.shape[1]
    details: dict = {
        "base_value": float(graph.objective(graph.base)) / size,
        "feasible_dimension": int(dim),
        "opt_dist": [float(x) for x in best.p],
    }
    if dim == 0:
        return PairResult(pair.cut.cut, pair.blocks, best.value / size, "FixedPoint", details)
    details["gap"] = best.gap / size
    details["marginal_residual"] = best.residual
    return PairResult(pair.cut.cut, pair.blocks, best.value / size, "BarrierNewton", details)


# -- fixed-length bound -------------------------------------------------------


def _fixed(pair: StrongPartition, graph: _Graph) -> PairResult:
    count = graph.count
    value = math.log2(count) / len(pair.cut.cut)
    return PairResult(
        cut=pair.cut.cut,
        blocks=pair.blocks,
        value=value,
        method="Counting",
        details={"count": count},
    )


# -- entry points -------------------------------------------------------------

_PAIR_RESULT = {"basic": _basic, "improved": _improved, "fixed_length": _fixed}


def _bounds(
    model: NetworkModel, search: SearchConfig | None, kinds: Sequence[str]
) -> tuple[BoundReport, ...]:
    """One report per kind from one pass over the pairs and their distinct graphs."""
    graph_of = _graphs(model)
    results: dict[str, list[PairResult]] = {kind: [] for kind in kinds}
    for pair in enumerate_pairs(model, search):
        graph = graph_of(pair)
        for kind in kinds:
            results[kind].append(_PAIR_RESULT[kind](pair, graph))
    return tuple(_report(kind, results[kind]) for kind in kinds)


def lower_bounds(
    model: NetworkModel, search: SearchConfig | None = None
) -> tuple[BoundReport, BoundReport, BoundReport]:
    """The basic, improved and fixed-length reports, each equal to its own function's."""
    return _bounds(model, search, ("basic", "improved", "fixed_length"))


def basic_lower_bound(model: NetworkModel, search: SearchConfig | None = None) -> BoundReport:
    """Max over pairs of single-shot clique entropy over cut size."""
    return _bounds(model, search, ("basic",))[0]


def improved_lower_bound(model: NetworkModel, search: SearchConfig | None = None) -> BoundReport:
    """Basic bound maximized over marginal-preserving full-support distributions.

    Reports per pair the certified optimum over distributions whose atoms
    are all at least the graph's floor (``MIN_MASS``, or half the smallest
    base atom if that is smaller), with its optimality gap.
    """
    return _bounds(model, search, ("improved",))[0]


def fixed_length_bound(model: NetworkModel, search: SearchConfig | None = None) -> BoundReport:
    """Max over pairs of log2 distinguishability count over cut size."""
    return _bounds(model, search, ("fixed_length",))[0]
