"""Graph entropy values and identities.

Frozen anchors: on the uniform five-cycle the Koerner entropy is log2(5/2)
(vertex-transitive, independence number 2), the clique entropy is exactly 1
bit by the complement identity, and the best coloring uses color classes of
sizes 2/2/1.  The uniform seven-cycle pins log2(7/3).  Everything else is
identities on random graphs: complement identity, the entropy chain, the
clique-number ceiling, substitution on planted autonomous sets, and
additivity over conjunctive products.
"""

import itertools
import math
import random

import pytest

from conftest import brute_chromatic_entropy, random_graph
from netfuncomp import entropy, errors, pgraph
from netfuncomp.entropy import (
    METHOD_EXACT,
    METHOD_NUMERIC,
    chromatic_entropy,
    clique_entropy,
    graph_entropy,
    shannon_entropy,
)
from netfuncomp.pgraph import ProbGraph


def _cycle(n):
    verts = [f"z{i}" for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return ProbGraph(verts, edges, [1.0 / n] * n)


def _complete(n, dist=None):
    verts = [f"z{i}" for i in range(n)]
    return ProbGraph(verts, itertools.combinations(verts, 2), dist or [1.0 / n] * n)


def _empty(n, dist=None):
    verts = [f"z{i}" for i in range(n)]
    return ProbGraph(verts, [], dist or [1.0 / n] * n)


def test_shannon_entropy():
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-15)
    assert shannon_entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-15)
    assert shannon_entropy([1.0]) == 0.0
    with pytest.raises(errors.BadDist):
        shannon_entropy([0.3, 0.3])


def test_empty_and_complete_graphs_are_exact():
    dist = [0.5, 0.2, 0.2, 0.1]
    h = shannon_entropy(dist)
    for g, expected in [(_empty(4, dist), 0.0), (_complete(4, dist), h)]:
        cl = clique_entropy(g)
        assert cl.method == METHOD_EXACT
        assert cl.value == expected
        ka = graph_entropy(g)
        assert ka.method == METHOD_EXACT
        assert ka.value == expected
        ch = chromatic_entropy(g)
        assert ch.value == expected


def test_pentagon_values():
    c5 = _cycle(5)
    ka = graph_entropy(c5)
    assert ka.method == METHOD_NUMERIC
    assert ka.value == pytest.approx(math.log2(2.5), abs=1e-6)
    cl = clique_entropy(c5)
    assert cl.method == METHOD_NUMERIC
    assert cl.value == pytest.approx(1.0, abs=1e-6)
    ch = chromatic_entropy(c5)
    assert ch.value == pytest.approx(shannon_entropy([0.4, 0.4, 0.2]), abs=1e-12)
    assert sorted(len(b) for b in ch.certificate) == [1, 2, 2]


def test_heptagon_graph_entropy():
    assert graph_entropy(_cycle(7)).value == pytest.approx(math.log2(7 / 3), abs=1e-6)


def test_chromatic_entropy_matches_partition_oracle():
    rng = random.Random(23)
    for _ in range(25):
        g = random_graph(rng, max_n=7)
        assert chromatic_entropy(g).value == pytest.approx(
            brute_chromatic_entropy(g), abs=1e-12
        )


def test_complement_identity():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng)
        h = shannon_entropy(g.dist)
        lhs = graph_entropy(pgraph.complement(g)).value + clique_entropy(g).value
        assert lhs == pytest.approx(h, abs=2e-6)


def test_entropy_chain():
    rng = random.Random(37)
    for _ in range(30):
        g = random_graph(rng)
        lo = clique_entropy(g).value
        mid = graph_entropy(g).value
        hi = chromatic_entropy(g).value
        assert lo <= mid + 1e-5
        assert mid <= hi + 1e-5


def test_clique_entropy_below_log_clique_number():
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng)
        assert clique_entropy(g).value <= math.log2(pgraph.clique_number(g)) + 1e-9


def test_substitution_on_planted_autonomous_set():
    rng = random.Random(43)
    for _ in range(20):
        g = random_graph(rng, max_n=5, min_n=2)
        # blow one vertex up into a clone set sharing its outside neighborhood
        target = g.vertices[rng.randrange(g.n)]
        clones = [f"c{i}" for i in range(rng.randint(2, 3))]
        outside = g.neighbors(target)
        verts = [v for v in g.vertices if v != target] + clones
        edges = [(u, v) for u, v in g.edges() if target not in (u, v)]
        edges += [(c, u) for c in clones for u in outside]
        edges += [
            (a, b)
            for a, b in itertools.combinations(clones, 2)
            if rng.random() < 0.5
        ]
        mass = g.dist[g.index(target)]
        shares = [rng.uniform(0.2, 1.0) for _ in clones]
        shares = [s / sum(shares) * mass for s in shares]
        shares[-1] = mass - sum(shares[:-1])
        dist = [g.dist[g.index(v)] for v in verts[: g.n - 1]] + shares
        big = ProbGraph(verts, edges, dist)

        whole = clique_entropy(big).value
        contracted = clique_entropy(pgraph.replace(big, clones, "u")).value
        inner = clique_entropy(pgraph.project(big, clones)).value
        assert whole == pytest.approx(contracted + mass * inner, abs=1e-5)


def test_and_product_additivity():
    rng = random.Random(47)
    for _ in range(15):
        g1 = random_graph(rng, max_n=4)
        g2 = random_graph(rng, max_n=4)
        report = entropy.clique_entropy_product_check([g1, g2])
        assert abs(report["delta"]) < 1e-5


def test_cographs_decompose_exactly():
    rng = random.Random(53)

    def cograph_edges(verts):
        if len(verts) <= 1:
            return []
        cutpoint = rng.randint(1, len(verts) - 1)
        left, right = verts[:cutpoint], verts[cutpoint:]
        edges = cograph_edges(left) + cograph_edges(right)
        if rng.random() < 0.5:
            edges += [(u, v) for u in left for v in right]
        return edges

    for _ in range(20):
        n = rng.randint(2, 8)
        verts = [f"z{i}" for i in range(n)]
        edges = cograph_edges(verts)
        dist = [rng.uniform(0.1, 1.0) for _ in range(n)]
        dist = [d / sum(dist) for d in dist]
        assert clique_entropy(ProbGraph(verts, edges, dist)).method == METHOD_EXACT


def test_size_caps():
    with pytest.raises(errors.TooLarge):
        clique_entropy(_cycle(21))
    with pytest.raises(errors.TooLarge):
        graph_entropy(_empty(21))
    with pytest.raises(errors.TooLarge):
        chromatic_entropy(_empty(13))


def test_certificate_serialization():
    g = ProbGraph("abc", [("a", "b")], [0.5, 0.25, 0.25])
    res = clique_entropy(g)
    doc = res.certificate.to_dict(list(g.vertices))
    assert doc["kind"] == "IsolatedSplit"
    assert {child["kind"] for child in doc["children"]} == {"CompleteLeaf", "EmptyLeaf"}
    assert doc["vertices"] == ["a", "b", "c"]
