"""Probabilistic graphs and the graph oracles the tests build on.

The weighted independent set solver is branch-and-bound; random graphs are
cross-checked against plain subset enumeration, and the subset-enumeration
clique number against it on the complement.  Split detection is read off
the clique entropy certificate.  The product, projection, and replacement
oracles in ``oracles.py`` are pinned on small hand graphs.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import brute_clique_number, brute_max_weight_independent_set, random_graph
from netfuncomp import errors, pgraph
from netfuncomp.entropy import clique_entropy
from netfuncomp.pgraph import ProbGraph, _bits, _complement_masks, _mwis_mask
from oracles import and_product, complement, or_product, project, replace


def _path4():
    return ProbGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")], [0.25] * 4)


def _cycle5():
    v = "abcde"
    edges = [(v[i], v[(i + 1) % 5]) for i in range(5)]
    return ProbGraph(v, edges, [0.2] * 5)


def test_construction_rejects_bad_input():
    with pytest.raises(errors.UsageError):
        ProbGraph([], [], [])
    with pytest.raises(errors.UsageError):
        ProbGraph("aa", [], [0.5, 0.5])
    with pytest.raises(errors.UsageError):
        ProbGraph("ab", [("a", "a")], [0.5, 0.5])
    with pytest.raises(errors.UsageError):
        ProbGraph("ab", [], [0.7, 0.7])
    # Zero masses over a zero scale would pass the sum check.
    for scale in (0, 0.0):
        with pytest.raises(errors.UsageError, match="the mass scale must be positive"):
            ProbGraph(["a", "b"], [("a", "b")], [0, 0], scale=scale)


def test_the_first_negative_mass_is_named():
    with pytest.raises(errors.UsageError, match=r"^vertex 'b' has the negative mass -1\.0$"):
        ProbGraph("abc", [], [3, -1, -1])
    # Masses over a scale are named as probabilities.
    with pytest.raises(errors.UsageError, match=r"^vertex 'c' has the negative mass -0\.5$"):
        ProbGraph("abc", [], [6, 0, -2], scale=4)


def test_edge_to_an_unlisted_vertex_is_refused():
    with pytest.raises(errors.UsageError, match=r"edge \(1, 3\) names the unlisted vertex 3"):
        ProbGraph([1, 2], [(1, 3)], [0.5, 0.5])
    with pytest.raises(errors.UsageError, match=r"edge \('x', 'a'\) names the unlisted vertex 'x'"):
        ProbGraph("ab", [("x", "a")], [0.5, 0.5])


def test_parallel_edges_collapse():
    g = ProbGraph("ab", [("a", "b"), ("b", "a")], [0.5, 0.5])
    assert g.edge_count() == 1
    assert g.adjacent("a", "b") and g.adjacent("b", "a")


def test_complement_is_an_involution():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng)
        cc = complement(complement(g))
        assert cc.adjacency_masks() == g.adjacency_masks()
        assert cc.vertices == g.vertices


def test_and_or_products_match_direct_predicate():
    rng = random.Random(11)
    for _ in range(10):
        g1 = random_graph(rng, max_n=3)
        g2 = random_graph(rng, max_n=3)
        g_and = and_product([g1, g2])
        g_or = or_product([g1, g2])
        for (u1, u2), (v1, v2) in itertools.combinations(g_and.vertices, 2):
            d1 = u1 != v1
            d2 = u2 != v2
            a1 = d1 and g1.adjacent(u1, v1)
            a2 = d2 and g2.adjacent(u2, v2)
            expect_and = (not d1 or a1) and (not d2 or a2)
            expect_or = a1 or a2
            assert g_and.adjacent((u1, u2), (v1, v2)) == expect_and
            assert g_or.adjacent((u1, u2), (v1, v2)) == expect_or
            p = g_and.dist[g_and.index((u1, u2))]
            assert p == pytest.approx(
                g1.dist[g1.index(u1)] * g2.dist[g2.index(u2)]
            )


def test_project_renormalizes():
    g = ProbGraph("abc", [("a", "b")], [0.5, 0.25, 0.25])
    sub = project(g, ["a", "b"])
    assert sub.vertices == ("a", "b")
    assert sub.dist == (0.5 / 0.75, 0.25 / 0.75)
    assert sub.adjacent("a", "b")


def test_replace_contracts_autonomous_set():
    # a and b share the outside neighborhood {c}
    g = ProbGraph("abcd", [("a", "c"), ("b", "c"), ("a", "b"), ("c", "d")], [0.25] * 4)
    h = replace(g, ["a", "b"], "u")
    assert set(h.vertices) == {"u", "c", "d"}
    assert h.mass(["u"]) == 0.5
    assert h.adjacent("u", "c") and not h.adjacent("u", "d")
    with pytest.raises(errors.UsageError):
        replace(g, ["a", "d"], "w")


def test_autonomous_split_kinds():
    two_parts = ProbGraph("abcd", [("a", "b"), ("c", "d")], [0.25] * 4)
    split = clique_entropy(two_parts).certificate
    assert split.kind == "IsolatedSplit"
    assert [c.vertex_ids for c in split.children] == [(0, 1), (2, 3)]

    split = clique_entropy(complement(two_parts)).certificate
    assert split.kind == "CCSplit"
    assert [c.vertex_ids for c in split.children] == [(0, 1), (2, 3)]

    assert clique_entropy(_cycle5()).certificate.kind == "Opaque"


def test_clique_number_on_known_graphs():
    assert brute_clique_number(_path4()) == 2
    assert brute_clique_number(_cycle5()) == 2
    k4 = ProbGraph("abcd", itertools.combinations("abcd", 2), [0.25] * 4)
    assert brute_clique_number(k4) == 4


def test_clique_number_matches_oracle():
    # A clique is an independent set of the complement.
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng)
        size, _ = _mwis_mask(_complement_masks(g.adjacency_masks()), [1.0] * g.n)
        assert size == brute_clique_number(g)


def test_mwis_matches_oracle_weight():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng)
        weights = {v: rng.uniform(0.0, 2.0) for v in g.vertices}
        _, mask = _mwis_mask(g.adjacency_masks(), [weights[v] for v in g.vertices])
        picked = [g.vertices[i] for i in _bits(mask)]
        assert all(
            not g.adjacent(u, v) for u, v in itertools.combinations(sorted(picked), 2)
        )
        got = sum(weights[v] for v in picked)
        assert got == pytest.approx(brute_max_weight_independent_set(g, weights))


def test_fraction_masses_are_preserved():
    g = ProbGraph("ab", [("a", "b")], [Fraction(1, 3), Fraction(2, 3)])
    assert g.mass(["a", "b"]) == 1
    sub = project(g, ["a"])
    assert sub.dist == (Fraction(1, 1),)


def test_to_dot_mentions_every_vertex_and_edge():
    g = _path4()
    dot = pgraph.to_dot(g, name="p4")
    assert "graph p4 {" in dot
    assert dot.count("--") == 3
    for i in range(4):
        assert f"n{i}" in dot
