"""Characteristic graph construction against the direct edge predicate.

The frozen anchor is the diamond sink cut under its nontrivial partition:
the graph on {0,1}^3 whose classes are the sum levels, fully joined across
classes, and joined inside a class only when the middle source agrees and a
block differs (exactly 001-100 and 011-110).  Construction is also compared
with the quantifier-based oracle on random models, the four-layer structure
is re-derived from adjacency, and the k-shot graph is sandwiched between
the conjunctive and disjunctive powers.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import brute_char_edges, random_model
from netfuncomp import chargraph, errors, netmodel, pgraph
from netfuncomp.examples import diamond_model


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
    assert all(p == Fraction(1, 8) for p in cg.graph.dist)

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
    assert [float(p) for p in cg.graph.dist] == [0.25] * 4


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
        for cut in cuts[:3]:
            for part in netmodel.enumerate_strong_partitions(model, cut)[:2]:
                cg = chargraph.build(model, part, 1)
                label = dict(zip(cg.graph.vertices, cg.assignments))
                got = {
                    frozenset((label[u], label[v])) for u, v in cg.graph.edges()
                }
                assert got == brute_char_edges(model, part, 1)
                checked += 1
    assert checked >= 20


def test_layer_report_holds_on_diamond(diamond, partitions):
    for part in partitions:
        for k in (1, 2):
            cg = chargraph.build(diamond, part, k)
            report = chargraph.layer_report(cg)
            assert report.ok, report


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
        assert pgraph.clique_number(cg.graph) == expected


def test_clique_number_via_layers_rejects_multishot(diamond, partitions):
    _, nontrivial = partitions
    cg = chargraph.build(diamond, nontrivial, 2)
    with pytest.raises(errors.UsageError):
        chargraph.clique_number_via_decomposition(cg)


def test_sandwich_on_diamond(diamond, partitions):
    for part in partitions:
        report = chargraph.sandwich_check(diamond, part, 2)
        assert report.ok
        assert report.and_edges <= report.k_edges <= report.or_edges


def test_sandwich_rejects_large_k(diamond, partitions):
    trivial, _ = partitions
    with pytest.raises(errors.UsageError):
        chargraph.sandwich_check(diamond, trivial, 4)


def test_vertex_cap(diamond, partitions):
    trivial, _ = partitions
    with pytest.raises(errors.TooLarge):
        chargraph.build(diamond, trivial, 5)


def test_vertex_masses_are_marginals():
    rng = random.Random(71)
    for _ in range(8):
        model = random_model(rng)
        cut = netmodel.enumerate_cut_sets(model)[0]
        part = netmodel.enumerate_strong_partitions(model, cut)[0]
        cg = chargraph.build(model, part, 1)
        pos = [model.sources.index(s) for s in cg.order]
        for a, mass in zip(cg.assignments, cg.graph.dist):
            want = sum(
                p
                for xs, p in zip(
                    itertools.product(model.symbols, repeat=model.num_sources),
                    model.distribution,
                )
                if all(xs[p_] == a[ci][0] for ci, p_ in enumerate(pos))
            )
            assert float(mass) == pytest.approx(want, abs=1e-12)
