"""Graph entropy values and identities.

Frozen anchors: on the uniform five-cycle the Koerner entropy is log2(5/2)
(vertex-transitive, independence number 2), the clique entropy is exactly 1
bit by the complement identity, and the best coloring uses color classes of
sizes 2/2/1.  The uniform seven-cycle pins log2(7/3).  On every uniform odd
cycle C_n the Koerner entropy is log2 of the fractional chromatic number,
log2(2n/(n-1)) (Simonyi 1995), so the numeric fallback is held to its gap
on C5 through C19.  Uniform threshold graphs, whose decomposition is a
chain one vertex per level, pin the depth cap against a recurrence that
peels one vertex at a time.  Everything else is
identities on random graphs: complement identity (graph entropy is the
Shannon entropy less the complement's clique entropy, to the bit, and a
wheel's hub splits off its complement's tree), the entropy chain, the
clique-number ceiling, substitution on planted autonomous sets,
additivity over conjunctive products, and that zero-mass vertices change
neither a value nor the vertices a certificate names.
"""

import itertools
import math
import random

import pytest

from conftest import brute_chromatic_entropy, brute_clique_number, random_graph, threshold_edges
from netfuncomp import errors
from netfuncomp.entropy import (
    DEPTH_CAP,
    METHOD_EXACT,
    METHOD_NUMERIC,
    DecompositionTree,
    _entropy_of_masses,
    chromatic_entropy,
    clique_entropy,
    graph_entropy,
)
from netfuncomp.pgraph import ProbGraph
from oracles import clique_entropy_product_check, complement, project, replace, shannon_entropy


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
    with pytest.raises(errors.UsageError):
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
    assert ka.value == pytest.approx(math.log2(2.5), abs=1e-9)
    cl = clique_entropy(c5)
    assert cl.method == METHOD_NUMERIC
    assert cl.value == pytest.approx(1.0, abs=1e-9)
    ch = chromatic_entropy(c5)
    assert ch.value == pytest.approx(shannon_entropy([0.4, 0.4, 0.2]), abs=1e-12)
    assert sorted(len(b) for b in ch.certificate) == [1, 2, 2]


def test_heptagon_graph_entropy():
    assert graph_entropy(_cycle(7)).value == pytest.approx(math.log2(7 / 3), abs=1e-9)


@pytest.mark.parametrize("n", [5, 7, 9, 13, 19])
def test_odd_cycle_fallback_meets_closed_forms(n):
    g = _cycle(n)
    ka = graph_entropy(g)
    cl = clique_entropy(g)
    assert ka.method == cl.method == METHOD_NUMERIC
    assert ka.value == pytest.approx(math.log2(2 * n / (n - 1)), abs=1e-9)
    assert cl.value == pytest.approx(1.0, abs=1e-9)
    assert ka.certificate.gap <= 1e-9
    assert cl.certificate.kind == "Opaque" and cl.certificate.gap <= 1e-9
    assert cl.certificate.to_dict(list(g.vertices))["gap"] == cl.certificate.gap


def test_wheel_graph_entropy_splits_off_the_hub():
    # C5 joined to a hub: the complement is C5 plus an isolated hub, so the
    # numeric solve runs on the 5-vertex piece only.
    c5 = _cycle(5)
    verts = list(c5.vertices) + ["hub"]
    g = ProbGraph(verts, c5.edges() + [(v, "hub") for v in c5.vertices], [1 / 6] * 6)
    ka = graph_entropy(g)
    assert ka.method == METHOD_NUMERIC
    root = ka.certificate
    assert root.kind == "IsolatedSplit"
    (opaque,) = [c for c in root.children if c.kind == "Opaque"]
    assert len(opaque.vertex_ids) == 5 and opaque.gap <= 1e-9
    expected = shannon_entropy([5 / 6, 1 / 6]) + 5 / 6 * math.log2(5 / 2)
    assert ka.value == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(math.log2(6) - 5 / 6, abs=1e-12)


def test_graph_entropy_is_shannon_less_complement_clique_entropy():
    rng = random.Random(61)
    methods = set()
    for _ in range(60):
        g = random_graph(rng, max_n=9)
        ka = graph_entropy(g)
        cl = clique_entropy(complement(g))
        assert ka.value == _entropy_of_masses(g.dist) - cl.value
        assert ka.method == cl.method
        methods.add(ka.method)
    assert methods == {METHOD_EXACT, METHOD_NUMERIC}


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
        lhs = graph_entropy(complement(g)).value + clique_entropy(g).value
        assert lhs == pytest.approx(h, abs=2e-9)


def test_entropy_chain():
    rng = random.Random(37)
    for _ in range(30):
        g = random_graph(rng)
        lo = clique_entropy(g).value
        mid = graph_entropy(g).value
        hi = chromatic_entropy(g).value
        assert lo <= mid + 1e-9
        assert mid <= hi + 1e-9


def test_clique_entropy_below_log_clique_number():
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(rng)
        assert clique_entropy(g).value <= math.log2(brute_clique_number(g)) + 1e-9


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
        contracted = clique_entropy(replace(big, clones, "u")).value
        inner = clique_entropy(project(big, clones)).value
        assert whole == pytest.approx(contracted + mass * inner, abs=3e-9)


def test_and_product_additivity():
    rng = random.Random(47)
    for _ in range(15):
        g1 = random_graph(rng, max_n=4)
        g2 = random_graph(rng, max_n=4)
        report = clique_entropy_product_check([g1, g2])
        assert abs(report["delta"]) < 3e-9


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


def _certificate_ids(node):
    yield from node.vertex_ids
    for child in node.children:
        yield from _certificate_ids(child)


def test_zero_mass_vertices_change_nothing():
    rng = random.Random(59)
    graphs = [_cycle(5), _cycle(7)] + [random_graph(rng, max_n=9, min_n=3) for _ in range(30)]
    for g in graphs:
        zero = set(rng.sample(range(g.n), rng.randint(1, g.n - 2)))
        kept = [i for i in range(g.n) if i not in zero]
        weights = [rng.uniform(0.1, 1.0) for _ in kept]
        dist = [0.0] * g.n
        for i, w in zip(kept, weights):
            dist[i] = w / sum(weights)
        padded = ProbGraph(g.vertices, g.edges(), dist)
        labels = [g.vertices[i] for i in kept]
        induced = ProbGraph(
            labels,
            [(u, v) for u, v in g.edges() if u in labels and v in labels],
            [dist[i] for i in kept],
        )
        for entropy in (clique_entropy, graph_entropy):
            res = entropy(padded)
            want = entropy(induced)
            assert (res.value, res.method) == (want.value, want.method)
            if isinstance(res.certificate, DecompositionTree):
                assert zero.isdisjoint(_certificate_ids(res.certificate))


def test_size_caps():
    with pytest.raises(errors.TooLarge):
        clique_entropy(_cycle(21))
    with pytest.raises(errors.TooLarge):
        graph_entropy(_cycle(21))
    with pytest.raises(errors.TooLarge):
        chromatic_entropy(_empty(13))
    # Graph entropy has no vertex cap of its own: only an opaque piece is capped.
    assert graph_entropy(_empty(21)).value == 0.0


def _threshold(n):
    return ProbGraph(range(n), threshold_edges(n), [1.0 / n] * n)


def _threshold_recurrence(n):
    """Clique entropy of the uniform threshold graph on n vertices, one vertex at a time.

    Vertex m - 1 of the graph on m vertices is a component of its own when m
    is odd and a join block of its own when m is even; the block of mass 1/m
    adds the binary entropy h(1/m).
    """
    h = 0.0
    for m in range(2, n + 1):
        rest = (m - 1) / m
        h *= rest
        if m % 2 == 0:
            h -= rest * math.log2(rest) + math.log2(1 / m) / m
    return h


def _levels(tree):
    levels, nodes = 0, [tree]
    while nodes:
        levels += 1
        nodes = [c for t in nodes for c in t.children]
    return levels


def test_threshold_graphs_decompose_down_to_the_depth_cap():
    assert _threshold_recurrence(300) == pytest.approx(4.12374435266291, abs=1e-12)
    n = DEPTH_CAP + 1
    res = clique_entropy(_threshold(n))
    assert _levels(res.certificate) == DEPTH_CAP
    assert res.method == METHOD_EXACT
    assert abs(res.value - _threshold_recurrence(n)) <= 1e-12
    assert _levels(graph_entropy(_threshold(n)).certificate) == DEPTH_CAP
    for compute in (clique_entropy, graph_entropy):
        with pytest.raises(errors.TooLarge, match=f"depth cap of {DEPTH_CAP} levels"):
            compute(_threshold(n + 1))


def test_certificate_serialization():
    g = ProbGraph("abc", [("a", "b")], [0.5, 0.25, 0.25])
    res = clique_entropy(g)
    doc = res.certificate.to_dict(list(g.vertices))
    assert doc["kind"] == "IsolatedSplit"
    assert {child["kind"] for child in doc["children"]} == {"CompleteLeaf", "EmptyLeaf"}
    assert doc["vertices"] == ["a", "b", "c"]
