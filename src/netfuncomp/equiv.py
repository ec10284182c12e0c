"""Equivalence classes of source observations, and the induced counting bound.

Two k-shot blocks on a source set I are interchangeable given a fixed block
on the side-information set J when substituting one for the other never
changes the target value, whatever the remaining sources observe.  The
classes of that relation are the coarsest information any code crossing the
cut must preserve.  For a strong partition with blocks C_1..C_m the same
idea localizes: a block on the separated set of C_l is tested with the
leftover set L pinned and all other separated sets ranging freely.

Classes are computed by signature grouping: each block maps to the tuple of
target values over every completion, enumerated in canonical order, and two
blocks are equivalent exactly when their signatures agree.  k-shot classes
are always computed from this definition directly, never assumed to factor
across shots.

The counting layer stacks these partitions: for a class Cl of the global
relation and a pinned L-block, it counts the tuples of per-block classes
whose combined blocks all land inside Cl.  Maximized over the pinned block,
summed over Cl, and maximized over side information, that count is the
clique number of the single-shot characteristic graph.  The bound layer
reads that clique number off the graph's layer nesting; :func:`n_C` is the
reference it is tested against.

This module is the definition-level reference, not the bound path:
``chargraph.build`` numbers the same classes in passes over its vertices
without calling anything here, and the tests compare its layers with these
partitions.  :func:`i_aj_classes` is also the backend of the ``classes``
command, which computes one partition per process, so nothing here is
cached: every call recomputes its partition from the definition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainTooLarge, NotAClass, OverlappingSets, UsageError
from .netmodel import (
    DOMAIN_CAP,
    Assignment,
    NetworkModel,
    StrongPartition,
    block_count,
    enumerate_assignments,
    restrict_sources,
)


@dataclass(frozen=True)
class EquivPartition:
    """A partition of all k-shot blocks over ``sources`` into classes.

    ``sources`` fixes the coordinate order of every member (a subset of the
    model's sources, in model order).  Classes are sorted by their least
    member and each class lists its members in ascending order.
    """

    sources: tuple[str, ...]
    k: int
    classes: tuple[tuple[Assignment, ...], ...]

    def class_index(self) -> dict[Assignment, int]:
        return {member: ci for ci, cls in enumerate(self.classes) for member in cls}

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _check_aj(j_sources: tuple[str, ...], a_j: Assignment, k: int, q: int) -> None:
    if len(a_j) != len(j_sources):
        raise UsageError(f"side-information block must cover {len(j_sources)} sources")
    for col in a_j:
        if len(col) != k or any(not 0 <= s < q for s in col):
            raise UsageError("side-information block has a malformed column")


def _group_by_signature(
    members: Iterable[Assignment], signature
) -> tuple[tuple[Assignment, ...], ...]:
    groups: dict[tuple, list[Assignment]] = {}
    for b in members:
        groups.setdefault(signature(b), []).append(b)
    classes = [tuple(ms) for ms in groups.values()]
    classes.sort(key=lambda cls: cls[0])
    return tuple(classes)


def i_aj_classes(
    model: NetworkModel,
    i_sources: Iterable[str],
    j_sources: Iterable[str],
    a_j: Assignment = (),
    k: int = 1,
) -> EquivPartition:
    """Classes of k-shot blocks on I, interchangeable given the J block ``a_j``.

    Two blocks are equivalent when the row-wise target values agree for
    every completion of the remaining sources.  With I empty the result is
    the single class holding the empty block.
    """
    i_tuple = restrict_sources(model, i_sources)
    j_tuple = restrict_sources(model, j_sources)
    if set(i_tuple) & set(j_tuple):
        raise OverlappingSets("I and J share sources")
    q = model.alphabet_size
    _check_aj(j_tuple, a_j, k, q)
    block_count(q, model.num_sources, k, DOMAIN_CAP, "blocks", DomainTooLarge)
    rest = tuple(s for s in model.sources if s not in set(i_tuple) | set(j_tuple))
    completions = list(enumerate_assignments(q, len(rest), k))
    fixed = dict(zip(j_tuple, a_j))

    def signature(b: Assignment) -> tuple:
        cols = dict(zip(i_tuple, b))
        cols.update(fixed)
        out = []
        for d in completions:
            cols.update(zip(rest, d))
            out.append(model.f_rows(cols, k))
        return tuple(out)

    members = enumerate_assignments(q, len(i_tuple), k)
    return EquivPartition(i_tuple, k, _group_by_signature(members, signature))


def il_al_aj_classes(
    model: NetworkModel,
    partition: StrongPartition,
    block_index: int,
    a_l: Assignment,
    a_j: Assignment = (),
    k: int = 1,
) -> EquivPartition:
    """Classes of k-shot blocks on the separated set of one partition block.

    The leftover set L is pinned to ``a_l`` and the other blocks' separated
    sets range freely: two blocks are equivalent when every such choice
    assembles to interchangeable full blocks on I.  For a one-block
    partition this collapses to the global relation restricted to L pinned,
    which for empty L is the global relation itself.
    """
    if not 0 <= block_index < partition.m:
        raise UsageError(f"block index {block_index} out of range")
    cut = partition.cut
    i_tuple = restrict_sources(model, cut.i_set)
    j_tuple = restrict_sources(model, cut.j_set)
    l_tuple = restrict_sources(model, partition.l_set)
    q = model.alphabet_size
    _check_aj(l_tuple, a_l, k, q)
    _check_aj(j_tuple, a_j, k, q)
    block_count(q, model.num_sources, k, DOMAIN_CAP, "blocks", DomainTooLarge)
    ell_tuple = restrict_sources(model, partition.i_sets[block_index])
    others = restrict_sources(
        model,
        set(i_tuple) - set(ell_tuple) - set(l_tuple),
    )
    base = i_aj_classes(model, i_tuple, j_tuple, a_j, k)
    base_index = base.class_index()
    choices = list(enumerate_assignments(q, len(others), k))
    pinned = dict(zip(l_tuple, a_l))

    def signature(b: Assignment) -> tuple:
        cols = dict(zip(ell_tuple, b))
        cols.update(pinned)
        out = []
        for c in choices:
            cols.update(zip(others, c))
            member = tuple(cols[s] for s in i_tuple)
            out.append(base_index[member])
        return tuple(out)

    members = enumerate_assignments(q, len(ell_tuple), k)
    return EquivPartition(ell_tuple, k, _group_by_signature(members, signature))


def count_N(
    model: NetworkModel,
    partition: StrongPartition,
    cl: Iterable[Assignment],
    a_l: Assignment,
    a_j: Assignment = (),
    k: int = 1,
) -> int:
    """Number of per-block class tuples whose assembled blocks all sit in ``cl``.

    ``cl`` must be one of the global classes for ``a_j``; anything else
    raises NotAClass.  Every assembled combination pins L to ``a_l``.
    """
    cut = partition.cut
    i_tuple = restrict_sources(model, cut.i_set)
    j_tuple = restrict_sources(model, cut.j_set)
    base = i_aj_classes(model, i_tuple, j_tuple, a_j, k)
    cl_norm = tuple(sorted(cl))
    if cl_norm not in base.classes:
        raise NotAClass("not a class of the global relation for this side information")
    cl_set = set(cl_norm)
    l_tuple = restrict_sources(model, partition.l_set)
    block_parts = [
        il_al_aj_classes(model, partition, ell, a_l, a_j, k) for ell in range(partition.m)
    ]
    pinned = dict(zip(l_tuple, a_l))
    count = 0
    for combo in itertools.product(*(bp.classes for bp in block_parts)):
        inside = True
        for members in itertools.product(*combo):
            cols = dict(pinned)
            for bp, member in zip(block_parts, members):
                cols.update(zip(bp.sources, member))
            assembled = tuple(cols[s] for s in i_tuple)
            if assembled not in cl_set:
                inside = False
                break
        if inside:
            count += 1
    return count


def count_N_max(
    model: NetworkModel,
    partition: StrongPartition,
    cl: Iterable[Assignment],
    a_j: Assignment = (),
    k: int = 1,
) -> int:
    """``count_N`` maximized over the pinned block on the leftover set L."""
    q = model.alphabet_size
    l_tuple = restrict_sources(model, partition.l_set)
    cl_norm = tuple(sorted(cl))
    return max(
        count_N(model, partition, cl_norm, a_l, a_j, k)
        for a_l in enumerate_assignments(q, len(l_tuple), k)
    )


def n_C(model: NetworkModel, partition: StrongPartition) -> int:
    """Single-shot distinguishability count of a cut under one strong partition.

    Maximized over side information: the sum over global classes of the
    largest per-class combination count.  Equals the clique number of the
    single-shot characteristic graph.
    """
    cut = partition.cut
    q = model.alphabet_size
    i_tuple = restrict_sources(model, cut.i_set)
    j_tuple = restrict_sources(model, cut.j_set)
    best = 0
    for a_j in enumerate_assignments(q, len(j_tuple), 1):
        base = i_aj_classes(model, i_tuple, j_tuple, a_j, 1)
        total = sum(
            count_N_max(model, partition, cls, a_j, 1) for cls in base.classes
        )
        best = max(best, total)
    return best
