"""Computing-rate lower bounds from cut/partition pairs.

Three bounds are computed, each as a maximum over (cut set, strong
partition) pairs:

* basic: clique entropy of the pair's single-shot characteristic graph
  divided by the cut size, read off the graph's layer nesting;
* improved: the same quantity maximized over every full-support
  distribution with the original marginals on each block's scope (the
  separated set of the block, the leftover set, and the side information);
* fixed length: log2 of the pair's distinguishability count divided by the
  cut size (a converse for fixed-length codes).  The count is the clique
  number of the single-shot graph, read off its layer nesting once per
  distinct graph; :func:`equiv.n_C` counts it from the class definitions
  and serves as the reference.

The characteristic graph of a pair depends only on (I, J, L, I_1..I_m), and
many pairs share one.  A run builds each distinct graph once, and every
pair with its key reuses it.  Graphs of different keys can still pose the
same problem: two block orders of the same I-sets, or keys that only
relabel the sources.  So the values are computed once per content
(``_Graph.content``): the vertex masses with their scale, the layer masks
``cg.masks`` and the set of block scopes, as bitmasks over ``cg.order``.
The masses fix the base distribution and the floor.  The masks fix the
layer objective, the clique entropy and the clique number, and, through
the vertex count, every vertex's symbols.  The scopes fix the supports of
the contrast basis below, so N and the feasible dimension, and the
marginal rows up to their order.  The first graph of each content computes
every value and solves the improved bound; its twins report them.  A pair
reports its graph's value divided by its cut size and the index of its
graph in the report's ``graphs``, which lists each distinct graph once, in
order of first appearance, with its own key and its undivided details.

A single-shot graph nests four layers per vertex: side-information fiber F,
class C, leftover block L and bracket B.  Fibers are unjoined, classes in a
fiber fully joined, leftover blocks in a class unjoined, and brackets in a
leftover block fully joined with no edges inside (see
:func:`chargraph.layer_report`), so the clique entropy is
H(C|F) + H(B|F,C,L).  That nesting is an exact decomposition, disjoint
unions at fibers and leftover blocks and joins at classes and brackets, so
the basic bound is this closed form f at the base distribution; the
recursive decomposition of :mod:`entropy` is the reference it is tested
against.  The improved bound maximizes f over the distributions p that
keep every block's marginal and put at least a floor on every vertex,
``MIN_MASS`` or, when the base distribution has a smaller atom, half that
atom: a polytope ``base + N t``, where N is an orthonormal basis of the
directions that keep every marginal.

The vertices are the whole alphabet product over I | J, so the ANOVA
decomposition (Bishop, Fienberg and Holland, *Discrete Multivariate
Analysis*, 1975) gives N in closed form.  Its columns are the products,
over the sources, of orthonormal Helmert rows: a contrast row on each
source of a support S and the constant row elsewhere, for every S that lies
in no block scope I_l | L | J.  Such a column sums to zero over a source of
S outside the scope, so it keeps every marginal.  The products whose
support lies in a scope have linearly independent marginals on it, so a
direction that keeps every marginal has no component along them.  The
feasible dimension d is therefore a count, (q - 1)^|S| per such S, with no
rank tolerance, and N is built as n x d.  A rigid graph, with d = 0, has
the base as its only feasible point: its improved value is its basic
value, and it builds no constraint rows or solve.

Conditional entropy is concave in the joint distribution (Cover and Thomas,
ch. 2) and both joints are linear in p, so f is concave.  Deterministic
damped Newton on the log-barrier problem (Boyd and Vandenberghe, sec. 11.3)
follows a two-weight barrier path in t, mu = 1e-6 then 1e-12
(``_BARRIER_PATH``): the first weight carries the start into the interior
near the optimum, and the second alone fails on some optima that sit on
the floor.  Gradient and Hessian are in closed form and are formed directly
in the d null-space coordinates, so no n x n matrix is built.  A run's
graphs are small and many, so their first Newton pass is one stacked pass:
the graphs with d > 0 are grouped by vertex count n, and each group is cut
into stacks of at most ``_STACK_ELEMENTS`` elements b * n * max(d, K) for b
graphs with K objective groups, so a big graph solves as a stack of one
and memory stays bounded.  In a stack the null bases are padded with zero
columns to the largest d, which the curvature freeze drops, and the
objectives with coefficient-0 groups of positive mass; gradients, reduced
Hessians, their ``eigh``, step lengths and backtracking are 3-D arrays.  A
graph leaves its stack once its Newton decrement passes, and the graphs
still stepping stay a leading slice of the stacked arrays.  Restarts, and
a graph solved on its own, run the same pass on a stack of one.  After the
pass each graph is certified in order of first appearance, so a run that
fails names its first failing graph.  The backtracking line search
(sec. 9.2) asks for a quarter of the predicted gain but forgives the
rounding of barrier values: a step within ``8 eps`` of that target is
taken.  For any lam >= 0, concavity and
||q - p|| <= sqrt(2) between distributions bound max f - f(p) by
lam.(p - floor) + sqrt(2) ||N^T (grad f(p) + lam)||; an optimum whose bound exceeds
``MAX_GAP`` raises OptimizerFailed, so every reported optimum carries its
own certificate.  With lam = 0 the bound is sqrt(2) ||N^T grad f(p)||, and
it holds at any feasible p, the base included: f(q) <= f(p) + grad f(p).(q - p)
by concavity, and q - p = N t with ||t|| = ||q - p|| <= sqrt(2).  So before
its first Newton step a stack computes that bound at the base for every
graph at once, from the cached ``N^T groups``, and a graph whose base meets
``MAX_GAP`` leaves the stack unmoved: the base is already an optimum within
the gap, which :func:`_solve` certifies again.  On the diamond 6 of the 7
graphs a run solves leave this way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import chargraph, entropy
from .errors import OptimizerFailed, SearchSpaceExceeded, UsageError
from .netmodel import (
    NetworkModel,
    StrongPartition,
    enumerate_cut_sets,
    enumerate_strong_partitions,
)
from .pgraph import _bits

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

_BARRIER_PATH = (1e-6, 1e-12)
_MAX_NEWTON = 50
_RESTARTS = 3
_FULL_STEP = 1e-8
_NEAR_FLOOR = 1e-6
_CURVATURE_RTOL = 1e-13
_EPS = float(np.finfo(float).eps)
# Most elements b * n * max(d, K) of one Newton stack: b graphs of n vertices,
# feasible dimension d and K objective groups.
_STACK_ELEMENTS = 1 << 13
# Below this slack the first barrier weight's curvature mu / s^2 is no finite float.
_MIN_SLACK = math.sqrt(_BARRIER_PATH[0] / float(np.finfo(float).max))


class PairResult(NamedTuple):
    cut: tuple[str, ...]
    blocks: tuple[tuple[str, ...], ...]
    value: float
    method: str
    graph: int  # index into the report's ``graphs``

    def key(self) -> PairKey:
        return (self.cut, self.blocks)


@dataclass(frozen=True)
class BoundReport:
    kind: str
    value: float
    witness_cut: tuple[str, ...]
    witness_blocks: tuple[tuple[str, ...], ...]
    pairs: tuple[PairResult, ...]
    graphs: tuple[dict, ...]  # per distinct graph: its key as source lists, and details


def pair_key(partition: StrongPartition) -> PairKey:
    return (partition.cut.cut, partition.blocks)


def enumerate_pairs(
    model: NetworkModel, search: SearchConfig | None = None
) -> list[StrongPartition]:
    """All (cut set, strong partition) pairs under the search limits.

    The cut sets stream, so a search of more than ``PAIR_CAP`` pairs is
    refused as soon as the count passes the cap.
    """
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


def _report(kind: str, results: list[PairResult], graphs: tuple[dict, ...]) -> BoundReport:
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
        graphs=graphs,
    )


class _Graph:
    """One distinct single-shot characteristic graph of a run.

    Every pair with the same (I, J, L, I_1..I_m) shares it; what a bound
    needs beyond the graph is derived on first use.
    """

    def __init__(self, model: NetworkModel, partition: StrongPartition):
        self.model = model
        self.cg = chargraph.build(model, partition, 1)

    @cached_property
    def base(self) -> np.ndarray:
        """The source distribution on the vertices."""
        g = self.cg.graph
        return np.array([m / g.scale for m in g.dist])

    @cached_property
    def floor(self) -> float:
        low = float(self.base.min())
        return MIN_MASS if low > MIN_MASS else low / 2

    @cached_property
    def content(self) -> tuple:
        """Masses, layer masks and the set of block scopes: all that the bounds read.

        Graphs of equal content pose the same problems whatever their key
        (see the module docstring).
        """
        g = self.cg.graph
        return (g.scale, g.dist, self.cg.masks, frozenset(self.scopes))

    @cached_property
    def basic(self) -> float:
        """The clique entropy: the layer objective at the base distribution."""
        return float(self.objective(self.base))

    @cached_property
    def count(self) -> int:
        return chargraph.clique_number_via_decomposition(self.cg)

    @cached_property
    def scopes(self) -> tuple[int, ...]:
        """Each block's scope I_l | L | J, as a bitmask over ``cg.order``."""
        partition, order = self.cg.partition, self.cg.order
        shared = partition.l_set | self.cg.cut.j_set
        return tuple(
            sum(1 << pos for pos, s in enumerate(order) if s in i_set or s in shared)
            for i_set in partition.i_sets
        )

    @cached_property
    def symbols(self) -> np.ndarray:
        """Every vertex's symbol, one row per source of ``cg.order``."""
        return np.array(self.cg.assignments)[:, :, 0].T

    @cached_property
    def rows(self) -> np.ndarray:
        """Indicator rows: one per (block scope, scope assignment) marginal.

        A scope's assignments are numbered in mixed radix, first source most
        significant, so its rows follow their sorted order.
        """
        q = self.model.alphabet_size
        out = []
        for scope in self.scopes:
            index = np.zeros(self.symbols.shape[1], dtype=np.int64)
            for pos, row in enumerate(self.symbols):
                if scope >> pos & 1:
                    index = index * q + row
            out.append(np.arange(q ** scope.bit_count())[:, None] == index)
        return np.vstack(out).astype(float)

    @cached_property
    def supports(self) -> tuple[int, ...]:
        """Source sets, as bitmasks over ``cg.order``, that lie in no block scope."""
        return tuple(
            support
            for support in range(1 << len(self.cg.order))
            if all(support & ~scope for scope in self.scopes)
        )

    @cached_property
    def dim(self) -> int:
        """The feasible dimension: (q - 1)^|S| contrast tensors per support S."""
        q = self.model.alphabet_size
        return sum((q - 1) ** support.bit_count() for support in self.supports)

    @cached_property
    def null(self) -> np.ndarray:
        """Orthonormal basis of the feasible directions, one column per contrast tensor.

        Each column is a product over the sources of one row of the
        orthonormal Helmert matrix, read at the vertex's symbol: the
        constant row off the support, a contrast row on it.
        """
        q, symbols = self.model.alphabet_size, self.symbols
        contrasts = _helmert(q)[1:]
        n = symbols.shape[1]
        columns = [np.zeros((0, n))]
        for support in self.supports:
            block = np.full((1, n), q ** ((support.bit_count() - len(symbols)) / 2))
            for pos, row in enumerate(symbols):
                if support >> pos & 1:
                    block = (block[:, None, :] * contrasts[:, row]).reshape(-1, n)
            columns.append(block)
        return np.vstack(columns).T

    @cached_property
    def objective(self) -> _LayerObjective:
        return _LayerObjective(self.cg)

    @cached_property
    def reduced(self) -> np.ndarray:
        """The objective's groups in null-space coordinates: ``null.T @ groups``."""
        return self.null.T @ self.objective.groups

    @cached_property
    def optimum(self) -> _Optimum:
        """Set by :func:`_solve_all` for a run's first graph of each content.

        A graph asked alone is solved as a stack of one.
        """
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


def _basic(graph: _Graph) -> tuple[float, str]:
    # The layer nesting is itself an exact decomposition of the graph.
    return graph.basic, entropy.METHOD_EXACT


def _basic_details(graph: _Graph) -> dict:
    levels = ("fibers", "classes", "leftover_blocks", "brackets")
    return {
        "clique_entropy": graph.basic,
        "layer_counts": {name: len(set(level)) for name, level in zip(levels, graph.cg.masks)},
    }


# -- improved bound -----------------------------------------------------------


class _LayerObjective:
    """Clique entropy of a single-shot graph as a function of vertex masses.

    H(C|F) + H(B|F,C,L) times the total mass is the sum of ``m log2 m`` over
    the fiber groups, minus it over the (fiber, class) groups, plus it over
    the (fiber, class, leftover) groups, minus it over the full-coordinate
    groups, each group one distinct mask of the graph's
    :func:`chargraph.layer_masks` at its depth.  A vertex set that is a
    group on two adjacent levels cancels and is dropped.  With ``groups``
    the vertex-by-group indicator matrix and ``coef`` the signs, the group
    masses are ``m = p @ groups``.  Calling the objective scores a whole
    batch of candidate rows with one matrix product.
    """

    def __init__(self, cg: chargraph.CharGraph):
        signs: dict[int, int] = {}
        for masks, sign in zip(cg.masks, (1, -1, 1, -1)):
            for mask in dict.fromkeys(masks):
                signs[mask] = signs.get(mask, 0) + sign
        kept = [(mask, c) for mask, c in signs.items() if c]
        self.groups = np.zeros((len(cg.layers), len(kept)))
        for col, (mask, _) in enumerate(kept):
            self.groups[list(_bits(mask)), col] = 1.0
        self.coef = np.array([c for _, c in kept], dtype=float)

    def __call__(self, p: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(p)
        m = batch @ self.groups
        out = (m * np.log2(np.maximum(m, 1e-300))) @ self.coef / batch.sum(axis=1)
        return out[0] if p.ndim == 1 else out

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """Gradient of ``sum(coef * m log2 m)`` at a positive ``p``."""
        return self.groups @ (self.coef * (np.log2(p @ self.groups) + 1 / math.log(2)))


def _helmert(q: int) -> np.ndarray:
    """The orthonormal Helmert matrix: a constant row, then q - 1 contrast rows.

    Contrast row j is 1 on the first j symbols and -j on symbol j, scaled to
    unit length (Bishop, Fienberg and Holland, 1975).
    """
    h = np.zeros((q, q))
    h[0] = 1 / math.sqrt(q)
    for j in range(1, q):
        h[j, :j] = 1.0
        h[j, j] = -j
        h[j] /= math.sqrt(j * (j + 1))
    return h


@dataclass(frozen=True)
class _Optimum:
    """A maximizer ``p``: the maximum is at most ``value + gap``."""

    value: float
    p: np.ndarray
    gap: float
    residual: float


def _stacks(graphs: Sequence[_Graph]) -> list[list[_Graph]]:
    """The graphs grouped by vertex count, each group cut into stacks under the budget.

    A stack closes before the graph that would take its b * n * max(d, K)
    past ``_STACK_ELEMENTS``, so a graph that alone exceeds it is a stack of one.
    """
    by_size: dict[int, list[_Graph]] = {}
    for graph in graphs:
        by_size.setdefault(graph.base.size, []).append(graph)
    stacks = []
    for n, group in by_size.items():
        stack: list[_Graph] = []
        width = 0
        for graph in group:
            own = max(graph.dim, graph.objective.coef.size)
            if stack and (len(stack) + 1) * n * max(width, own) > _STACK_ELEMENTS:
                stacks.append(stack)
                stack, width = [], 0
            stack.append(graph)
            width = max(width, own)
        stacks.append(stack)
    return stacks


def _maximize(
    stack: Sequence[_Graph], p: np.ndarray, path: Sequence[float] = _BARRIER_PATH
) -> np.ndarray:
    """Maximize ``f + mu * sum(log(p - floor))`` for each mu of ``path``, all graphs at once.

    ``stack`` is one of :func:`_stacks`, and row i of ``p`` is the start of
    graph i; the maximizers come back in the same rows.

    The stack's b graphs share the vertex count n.  Each null basis is
    padded with zero columns to the stack's largest d, and each objective
    with coefficient-0 groups of all vertices, which have positive mass; a
    padded coordinate has zero curvature, so the freeze below drops it.
    Each Newton step is solved in the d null-space coordinates: gradient
    ``N^T (grad f + mu / s)`` and negative Hessian ``(N^T mu / s^2) N -
    (G_r w) G_r^T``, with ``G_r = N^T groups`` cached on the graph and
    ``w = coef / (m ln 2)``.  Directions with curvature under
    ``_CURVATURE_RTOL`` of the largest are frozen: near the floor, rounding
    in the 1/mu barrier curvature swamps a flat face's mu.

    A step keeps 1% of every slack and backtracks until the barrier gains a
    quarter of the predicted ``alpha * lam^2`` (Boyd and Vandenberghe,
    sec. 9.2), less ``8 eps`` of the start value: a gain below the rounding
    of barrier values cannot be seen, and demanding it would halve alpha to
    nothing.  Below a Newton decrement of ``_FULL_STEP`` the step is taken
    and the graph leaves the stack until the next weight.  On a path from
    the first weight, whose starts are the bases, a graph whose start meets
    the certificate with lam = 0 (see the module docstring) leaves before
    the first step and for every weight; a restart's start has already
    failed ``_certificate``, and it steps.  The graphs still
    stepping are kept as a leading slice of the stacked arrays, which are
    reordered only when a graph leaves.
    """
    b, n = p.shape
    width = max(g.dim for g in stack)
    groups_k = max(g.objective.coef.size for g in stack)
    null, reduced = np.zeros((b, n, width)), np.zeros((b, width, groups_k))
    groups, coef = np.ones((b, n, groups_k)), np.zeros((b, groups_k))
    for i, graph in enumerate(stack):
        dim, k = graph.dim, graph.objective.coef.size
        null[i, :, :dim], reduced[i, :dim, :k] = graph.null, graph.reduced
        groups[i, :, :k], coef[i, :k] = graph.objective.groups, graph.objective.coef
    floor = np.array([[g.floor] for g in stack])
    order = np.arange(b)
    arrays = (null, reduced, groups, coef, floor, order, p.copy())
    ln2 = math.log(2)

    def barrier(q: np.ndarray, mu: float) -> np.ndarray:
        m = (q[:, None, :] @ groups)[:, 0]
        f = ((m * np.log2(m))[:, None, :] @ coef[:, :, None])[:, 0, 0] / q.sum(axis=1)
        return f + mu * np.log(q - floor).sum(axis=1)

    # A pass from the first weight starts at the base: a graph whose base
    # meets the certificate with lam = 0 takes no Newton step at any weight.
    m = (p[:, None, :] @ groups)[:, 0]
    g = (reduced @ (coef * (np.log2(m) + 1 / ln2))[:, :, None])[:, :, 0]
    stationary = math.sqrt(2) * np.linalg.norm(g, axis=1) <= MAX_GAP
    stationary &= path[0] == _BARRIER_PATH[0]
    moved = np.argsort(stationary, kind="stable")
    for a in arrays:
        a[:] = a[moved]
    stepping = b - int(stationary.sum())
    for mu in path:
        live = stepping
        for _ in range(_MAX_NEWTON):
            if not live:
                break
            null, reduced, groups, coef, floor, _, q = (a[:live] for a in arrays)
            slack = q - floor
            m = (q[:, None, :] @ groups)[:, 0]
            null_t = null.transpose(0, 2, 1)
            g = (reduced @ (coef * (np.log2(m) + 1 / ln2))[:, :, None])[:, :, 0] + (
                null_t @ (mu / slack)[:, :, None]
            )[:, :, 0]
            curv, vecs = np.linalg.eigh(
                (null_t * (mu / slack**2)[:, None, :]) @ null
                - (reduced * (coef / (m * ln2))[:, None, :]) @ reduced.transpose(0, 2, 1)
            )
            keep = curv > _CURVATURE_RTOL * curv[:, -1:]
            coef_step = (vecs.transpose(0, 2, 1) @ g[:, :, None])[:, :, 0] / np.where(
                keep, curv, np.inf
            )
            decrement = (coef_step * curv * coef_step).sum(axis=1)
            d = (null @ (vecs @ coef_step[:, :, None]))[:, :, 0]
            # inf / 0 is inf with no warning, so only steps toward the floor bind.
            room = np.where(d < 0, slack, np.inf) / np.abs(d)
            alpha = np.minimum(1.0, 0.99 * room.min(axis=1))
            done = decrement <= _FULL_STEP**2
            short = ~done & (alpha > 1e-12)
            if short.any():
                value = barrier(q, mu)
                target = value - 8 * _EPS * np.maximum(1.0, np.abs(value))
                while True:
                    short &= barrier(q + alpha[:, None] * d, mu) < target + 0.25 * alpha * decrement
                    if not short.any():
                        break
                    alpha[short] *= 0.5
                    short &= alpha > 1e-12
            q += alpha[:, None] * d
            if done.any():
                # Converged graphs move behind the ones still stepping.
                moved = np.argsort(done, kind="stable")
                for a in arrays:
                    a[:live] = a[:live][moved]
                live -= int(done.sum())
    out = np.empty_like(p)
    out[order] = arrays[-1]
    return out


def _certificate(
    objective: _LayerObjective, p: np.ndarray, null: np.ndarray, floor: float
) -> float:
    """The module docstring's bound on max f - f(p), for the better of two lam.

    One is the last barrier weight over the slack; the other is least
    squares on the atoms within ``_NEAR_FLOOR`` of the floor, clipped at 0.
    """
    slack = p - floor
    grad = objective.gradient(p)

    def bound(lam: np.ndarray) -> float:
        return float(lam @ slack) + math.sqrt(2) * float(np.linalg.norm(null.T @ (grad + lam)))

    lam = np.zeros_like(p)
    near = slack <= _NEAR_FLOOR
    if near.any():
        fit = np.linalg.lstsq(null.T[:, near], -(null.T @ grad), rcond=None)[0]
        lam[near] = np.maximum(fit, 0.0)
    return min(bound(_BARRIER_PATH[-1] / slack), bound(lam))


def _solve_all(graphs: Sequence[_Graph]) -> None:
    """Certify every graph's optimum, with one stacked Newton pass for the first attempt.

    A run passes the first graph of each content, in order of first
    appearance; a twin takes its first graph's optimum, so it fails exactly
    when that graph fails.  Graphs that :func:`_solve` refuses before any
    Newton step are left out of the pass; the graphs are then certified in
    the order given, so the first failure raised is that of the run's first
    failing graph.
    """
    first: dict[_Graph, np.ndarray] = {}
    for stack in _stacks([g for g in graphs if g.dim and not _too_small(g)]):
        first.update(zip(stack, _maximize(stack, np.array([g.base for g in stack]))))
    for graph in graphs:
        graph.optimum = _solve(graph, first.get(graph))


def _too_small(graph: _Graph) -> bool:
    return float(graph.base.min()) - graph.floor < _MIN_SLACK


def _solve(graph: _Graph, p: np.ndarray | None = None) -> _Optimum:
    """The certified optimum, restarting Newton at the last weight if needed.

    ``p`` is the result of the first Newton pass from the base, if one was
    taken in a stack; otherwise the graph takes it as a stack of one.  A
    base that met the certificate with lam = 0 comes back unmoved and is
    certified here like any other point; if rounding lifts its certificate
    over ``MAX_GAP``, the restarts step from it.
    Near the floor the barrier's curvature can make the decrement test pass
    while the reduced gradient is still far from zero, which leaves the
    certificate above ``MAX_GAP``.  Up to ``_RESTARTS`` more passes at the
    last barrier weight, each from the previous point, resume the progress;
    every pass's point is checked for feasibility before it is certified.
    A failure names the pair that built the graph as a ``--pairs`` entry.
    The value reported is max(f(p), f(base)), the base being the basic
    value's point and winning ties, so the improved value is never below
    the basic one; when the base wins, the gap found at p still certifies
    it, since max f <= f(p) + gap <= f(base) + gap.  A rigid graph, of
    dimension 0, has the base as its only feasible point: its optimum is the
    basic value, with no constraint rows or solve.
    """
    if not graph.dim:
        return _Optimum(graph.basic, graph.base, 0.0, 0.0)
    base, floor = graph.base, graph.floor
    if _too_small(graph):
        raise OptimizerFailed(
            f"{_pair_text(graph)}: atom {float(base.min()):.3g} is too small for the barrier"
        )
    objective, null, rows = graph.objective, graph.null, graph.rows
    if p is None:
        p = _maximize([graph], base[None])[0]
    for restart in range(_RESTARTS + 1):
        if restart:
            p = _maximize([graph], p[None], _BARRIER_PATH[-1:])[0]
        residual = float(np.max(np.abs(rows @ p - rows @ base)))
        if residual > 1e-10 or abs(float(p.sum()) - 1.0) > 1e-12 or np.any(p <= floor):
            raise OptimizerFailed(
                f"{_pair_text(graph)}: optimum violates feasibility"
                f" (marginal residual {residual:.3g})"
            )
        gap = _certificate(objective, p, null, floor)
        if gap <= MAX_GAP:
            value = float(objective(p))
            if value <= graph.basic:
                # Rounding put p at or a few ulps below the feasible base.
                return _Optimum(graph.basic, base, gap, 0.0)
            return _Optimum(value, p, gap, residual)
    raise OptimizerFailed(f"{_pair_text(graph)}: optimality gap {gap:.3g} exceeds {MAX_GAP:g}")


def _pair_text(graph: _Graph) -> str:
    partition = graph.cg.partition
    entry = {"cut": list(partition.cut.cut), "blocks": [list(b) for b in partition.blocks]}
    return f"pair {json.dumps(entry)}"


def _improved(graph: _Graph) -> tuple[float, str]:
    return graph.optimum.value, "BarrierNewton" if graph.dim else "FixedPoint"


def _improved_details(graph: _Graph) -> dict:
    best = graph.optimum
    details: dict = {
        "improved_value": best.value,
        "base_value": graph.basic,
        "feasible_dimension": graph.dim,
        "opt_dist": [float(x) for x in best.p],
    }
    if graph.dim:
        details["gap"] = best.gap
        details["marginal_residual"] = best.residual
    return details


# -- fixed-length bound -------------------------------------------------------


def _fixed(graph: _Graph) -> tuple[float, str]:
    return math.log2(graph.count), "Counting"


def _fixed_details(graph: _Graph) -> dict:
    return {"count": graph.count}


# -- entry points -------------------------------------------------------------

# Per kind: the graph's undivided value and method, and its details.
_KINDS = {
    "basic": (_basic, _basic_details),
    "improved": (_improved, _improved_details),
    "fixed_length": (_fixed, _fixed_details),
}


def _key_lists(graph: _Graph) -> dict:
    """A graph's key (I, J, L, I_1..I_m) as sorted source lists; I_1..I_m keep their order."""
    partition = graph.cg.partition
    return {
        "i_set": sorted(partition.cut.i_set),
        "j_set": sorted(partition.cut.j_set),
        "l_set": sorted(partition.l_set),
        "i_sets": [sorted(s) for s in partition.i_sets],
    }


def _bounds(
    model: NetworkModel, search: SearchConfig | None, kinds: Sequence[str]
) -> tuple[BoundReport, ...]:
    """One report per kind from one pass over the pairs and their distinct graphs."""
    graph_of = _graphs(model)
    pairs = [(pair, graph_of(pair)) for pair in enumerate_pairs(model, search)]
    index: dict[_Graph, int] = {}  # distinct graphs in order of first appearance
    for _, graph in pairs:
        index.setdefault(graph, len(index))
    # The first graph of each content computes every value for its twins.
    firsts: dict[tuple, _Graph] = {}
    first_of = {graph: firsts.setdefault(graph.content, graph) for graph in index}
    if "improved" in kinds:
        _solve_all(list(firsts.values()))
    results: dict[str, list[PairResult]] = {kind: [] for kind in kinds}
    for pair, graph in pairs:
        n, size = index[graph], len(pair.cut.cut)
        for kind in kinds:
            value, method = _KINDS[kind][0](first_of[graph])
            results[kind].append(PairResult(pair.cut.cut, pair.blocks, value / size, method, n))
    keys = [_key_lists(g) for g in index]
    return tuple(
        _report(
            kind,
            results[kind],
            tuple({**k, **_KINDS[kind][1](first_of[g])} for k, g in zip(keys, index)),
        )
        for kind in kinds
    )


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
