"""Characteristic graph construction against the direct edge predicate.

The frozen anchor is the diamond sink cut under its nontrivial partition:
the graph on {0,1}^3 whose classes are the sum levels, fully joined across
classes, and joined inside a class only when the middle source agrees and a
block differs (exactly 001-100 and 011-110).  Construction is also compared
with the quantifier-based oracle on random models, the four-layer check
passes on built graphs and flags exactly the layer a one-edge change
breaks, and the k-shot graph is sandwiched between the conjunctive and
disjunctive powers.  The layer coordinates of the vertex passes equal the
ones looked up in the class partitions of ``equiv`` (``ref_layers``).
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import brute_char_edges, brute_clique_number, random_model
from netfuncomp import bounds, chargraph, errors, netmodel
from netfuncomp.examples import diamond_model
from netfuncomp.pgraph import ProbGraph
from oracles import probabilities, ref_layers, sandwich_check


@pytest.fixture(scope="module")
def diamond():
    return diamond_model()


@pytest.fixture(scope="module")
def partitions(diamond):
    return netmodel.enumerate_strong_partitions(diamond, ["e5", "e6"])


def _edge_labels(cg):
    return {frozenset(e) for e in cg.graph.edges()}


def test_diamond_nontrivial_graph_is_frozen(diamond, partitions):
    _, nontrivial = partitions
    cg = chargraph.build(diamond, nontrivial)
    assert cg.order == ("s1", "s2", "s3")
    assert cg.graph.vertices == tuple(
        f"{a}{b}{c}" for a in "01" for b in "01" for c in "01"
    )
    assert all(p == Fraction(1, 8) for p in probabilities(cg.graph))

    classes = [["000"], ["001", "010", "100"], ["011", "101", "110"], ["111"]]
    expected = set()
    for ca, cb in itertools.combinations(classes, 2):
        expected |= {frozenset((u, v)) for u in ca for v in cb}
    expected |= {frozenset(("001", "100")), frozenset(("011", "110"))}
    assert _edge_labels(cg) == expected
    assert cg.graph.edge_count() == 24


def test_diamond_trivial_graph_has_no_intra_class_edges(diamond, partitions):
    trivial, _ = partitions
    cg = chargraph.build(diamond, trivial)
    classes = [["000"], ["001", "010", "100"], ["011", "101", "110"], ["111"]]
    expected = set()
    for ca, cb in itertools.combinations(classes, 2):
        expected |= {frozenset((u, v)) for u in ca for v in cb}
    assert _edge_labels(cg) == expected


def test_side_information_cut_splits_into_fibers(diamond):
    cut = netmodel.analyze_cut(diamond, ["e5"])
    part = netmodel.enumerate_strong_partitions(diamond, cut)[0]
    cg = chargraph.build(diamond, part)
    assert cg.order == ("s1", "s2")
    assert _edge_labels(cg) == {frozenset(("00", "10")), frozenset(("01", "11"))}
    assert [float(p) for p in probabilities(cg.graph)] == [0.25] * 4


def test_construction_matches_quantifier_oracle_on_diamond(diamond, partitions):
    for part in partitions:
        for k in (1, 2):
            cg = chargraph.build(diamond, part, k)
            label = dict(zip(cg.graph.vertices, cg.assignments))
            got = {
                frozenset((label[u], label[v])) for u, v in cg.graph.edges()
            }
            assert got == brute_char_edges(diamond, part, k)


def test_construction_matches_quantifier_oracle_on_random_models():
    rng = random.Random(67)
    checked = 0
    for _ in range(12):
        model = random_model(rng)
        cuts = netmodel.enumerate_cut_sets(model, min(2, len(model.edges)))
        for cut in itertools.islice(cuts, 3):
            for part in netmodel.enumerate_strong_partitions(model, cut)[:2]:
                cg = chargraph.build(model, part, 1)
                label = dict(zip(cg.graph.vertices, cg.assignments))
                got = {
                    frozenset((label[u], label[v])) for u, v in cg.graph.edges()
                }
                assert got == brute_char_edges(model, part, 1)
                checked += 1
    assert checked >= 20


@pytest.mark.parametrize("k", [1, 2, 3])
def test_layers_match_the_class_partitions_on_diamond(diamond, k):
    pairs = bounds.enumerate_pairs(diamond)
    assert len(pairs) == 118
    for part in pairs:
        assert chargraph.build(diamond, part, k).layers == ref_layers(diamond, part, k)


def _ternary_diamond(seed):
    """The diamond over alphabet 3 with a seeded random target table."""
    rng = random.Random(seed)
    rows = list(itertools.product(range(3), repeat=3))
    return netmodel.validate(dataclasses.replace(
        diamond_model(),
        alphabet_size=3,
        function_table=tuple(rng.randrange(3) for _ in rows),
        distribution=(1 / len(rows),) * len(rows),
    ))


def test_layers_match_the_class_partitions_on_random_models():
    rng = random.Random(229)
    models = [random_model(rng) for _ in range(12)] + [_ternary_diamond(5)]
    checked = 0
    for model in models:
        for part in bounds.enumerate_pairs(model)[:8]:
            for k in (1, 2):
                assert chargraph.build(model, part, k).layers == ref_layers(model, part, k)
            checked += 1
    assert checked >= 40


def test_layer_report_holds_on_diamond(diamond, partitions):
    for part in partitions:
        for k in (1, 2):
            cg = chargraph.build(diamond, part, k)
            report = chargraph.layer_report(cg)
            assert report.ok, report


@pytest.mark.parametrize(
    "cut, blocks, u, v, broken",
    [
        (["e5"], 1, "00", "01", "fibers_isolated"),
        (["e5"], 1, "00", "10", "classes_completely_connected"),
        (["e5", "e6"], 2, "001", "010", "leftover_isolated"),
        (["e5", "e6"], 2, "001", "100", "brackets_completely_connected"),
        (["e5", "e6"], 1, "001", "010", "bracket_interiors_empty"),
    ],
    ids=["across-fibers", "between-classes", "between-leftovers", "between-brackets", "in-bracket"],
)
def test_layer_report_flags_exactly_the_broken_layer(diamond, cut, blocks, u, v, broken):
    # Toggle one vertex pair: an added edge where a layer forbids one, or a
    # removed edge where a layer requires one.  Only the cut e5,e6 graph
    # with the single block e5,e6 has a bracket of more than one vertex.
    part = next(
        p for p in netmodel.enumerate_strong_partitions(diamond, cut) if len(p.blocks) == blocks
    )
    cg = chargraph.build(diamond, part)
    assert chargraph.layer_report(cg).ok
    g = cg.graph
    edges = set(map(frozenset, g.edges())) ^ {frozenset((u, v))}
    tampered = dataclasses.replace(
        cg, graph=ProbGraph(g.vertices, map(tuple, edges), g.dist, g.scale)
    )
    report = chargraph.layer_report(tampered)
    flags = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    assert flags == {name: name != broken for name in flags}


def test_layer_coordinates_partition_vertices(diamond, partitions):
    _, nontrivial = partitions
    cg = chargraph.build(diamond, nontrivial)
    by_class = {}
    for label, coord in zip(cg.graph.vertices, cg.layers):
        by_class.setdefault((coord.fiber, coord.cls), []).append(label)
    groups = sorted(sorted(g) for g in by_class.values())
    assert groups == [
        ["000"],
        ["001", "010", "100"],
        ["011", "101", "110"],
        ["111"],
    ]


def test_clique_number_via_layers_matches_search(diamond, partitions):
    trivial, nontrivial = partitions
    for part, expected in [(trivial, 4), (nontrivial, 6)]:
        cg = chargraph.build(diamond, part)
        assert chargraph.clique_number_via_decomposition(cg) == expected
        assert brute_clique_number(cg.graph) == expected


def test_clique_number_via_layers_rejects_multishot(diamond, partitions):
    _, nontrivial = partitions
    cg = chargraph.build(diamond, nontrivial, 2)
    with pytest.raises(errors.UsageError):
        chargraph.clique_number_via_decomposition(cg)


def test_sandwich_on_diamond(diamond, partitions):
    for part in partitions:
        report = sandwich_check(diamond, part, 2)
        assert report.ok
        assert report.and_edges <= report.k_edges <= report.or_edges


def test_sandwich_rejects_large_k(diamond, partitions):
    trivial, _ = partitions
    with pytest.raises(errors.UsageError):
        sandwich_check(diamond, trivial, 4)


def test_vertex_cap(diamond, partitions):
    trivial, _ = partitions
    with pytest.raises(errors.TooLarge):
        chargraph.build(diamond, trivial, 5)


def test_vertex_masses_are_marginals():
    rng = random.Random(71)
    for _ in range(8):
        model = random_model(rng)
        cut = next(netmodel.enumerate_cut_sets(model))
        part = netmodel.enumerate_strong_partitions(model, cut)[0]
        cg = chargraph.build(model, part, 1)
        pos = [model.sources.index(s) for s in cg.order]
        for a, mass in zip(cg.assignments, probabilities(cg.graph)):
            want = sum(
                p
                for xs, p in zip(
                    itertools.product(model.symbols, repeat=model.num_sources),
                    model.distribution,
                )
                if all(xs[p_] == a[ci][0] for ci, p_ in enumerate(pos))
            )
            assert float(mass) == pytest.approx(want, abs=1e-12)


def _fraction_masses(model, cg):
    """Each vertex's probability as the product of exact Fraction marginals."""
    pos = [model.sources.index(s) for s in cg.order]
    marginal = {}
    for xs, p in zip(
        itertools.product(model.symbols, repeat=model.num_sources), model.distribution
    ):
        key = tuple(xs[i] for i in pos)
        marginal[key] = marginal.get(key, 0) + Fraction(p)
    return [
        math.prod((marginal[tuple(col[r] for col in a)] for r in range(cg.k)), start=Fraction(1))
        for a in cg.assignments
    ]


def test_integer_masses_equal_the_fraction_products(diamond):
    # A subnormal cell puts the common denominator at 2^1074 (2^2148 at k = 2).
    tiny = netmodel.validate(dataclasses.replace(
        diamond, distribution=(0.25, 5e-324) + diamond.distribution[2:]
    ))
    rng = random.Random(211)
    models = [diamond, tiny] + [random_model(rng) for _ in range(6)]
    for model in models:
        for cut in list(netmodel.enumerate_cut_sets(model))[:3]:
            part = netmodel.enumerate_strong_partitions(model, cut)[-1]
            for k in (1, 2):
                cg = chargraph.build(model, part, k)
                assert probabilities(cg.graph) == _fraction_masses(model, cg)
                assert all(isinstance(m, int) for m in cg.graph.dist)
    cg = chargraph.build(tiny, netmodel.enumerate_strong_partitions(tiny, ["e5", "e6"])[0], 2)
    assert cg.graph.scale == 2**2148
    assert min(probabilities(cg.graph)) == Fraction(5e-324) ** 2
