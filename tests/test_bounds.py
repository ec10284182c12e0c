"""Lower-bound computations on the diamond network and random models.

Frozen diamond values, all at the sink cut with the two-block partition:
basic = 7/4 - (3/8)log2(3), improved = (1/2)log2(5) at the distribution
putting 0.15 on the six odd-parity-of-(x1,x3) points and 0.1 elsewhere,
fixed length = (1 + log2(3))/2 from the count 6.  The ordering
basic <= improved <= fixed length must hold on every pair.
"""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from conftest import GRID_MAX_DIM, grid_scan, random_model
from netfuncomp import bounds, chargraph, entropy, equiv, errors, netmodel, pgraph
from netfuncomp.bounds import SearchConfig
from netfuncomp.examples import diamond_model, layered_sum_model, single_edge_model

BASIC = 7 / 4 - (3 / 8) * math.log2(3)
IMPROVED = 0.5 * math.log2(5)
FIXED = (1 + math.log2(3)) / 2
WITNESS_CUT = ("e5", "e6")
WITNESS_BLOCKS = (("e5",), ("e6",))
OPT_ATOMS = [0.1, 0.15, 0.1, 0.15, 0.15, 0.1, 0.15, 0.1]


@pytest.fixture(scope="module")
def diamond():
    return diamond_model()


@pytest.fixture(scope="module")
def basic_report(diamond):
    return bounds.basic_lower_bound(diamond)


@pytest.fixture(scope="module")
def improved_report(diamond):
    return bounds.improved_lower_bound(diamond)


@pytest.fixture(scope="module")
def fixed_report(diamond):
    return bounds.fixed_length_bound(diamond)


def test_pair_enumeration_count(diamond):
    assert len(bounds.enumerate_pairs(diamond)) == 118


def test_basic_bound_frozen(basic_report):
    assert basic_report.value == pytest.approx(BASIC, abs=1e-12)
    assert basic_report.witness_cut == WITNESS_CUT
    assert basic_report.witness_blocks == WITNESS_BLOCKS
    top = next(p for p in basic_report.pairs if p.key() == (WITNESS_CUT, WITNESS_BLOCKS))
    assert top.method == "ExactDecomposition"
    assert top.details["clique_entropy"] == pytest.approx(
        7 / 2 - (3 / 4) * math.log2(3), abs=1e-12
    )


def test_every_basic_pair_decomposes_exactly(basic_report):
    assert all(p.method == "ExactDecomposition" for p in basic_report.pairs)


def test_improved_bound_frozen(improved_report):
    assert improved_report.value == pytest.approx(IMPROVED, abs=1e-4)
    assert improved_report.witness_cut == WITNESS_CUT
    assert improved_report.witness_blocks == WITNESS_BLOCKS
    top = next(
        p for p in improved_report.pairs if p.key() == (WITNESS_CUT, WITNESS_BLOCKS)
    )
    assert top.method == "BarrierNewton"
    assert top.details["feasible_dimension"] == 2
    got = top.details["opt_dist"]
    assert max(abs(a - b) for a, b in zip(got, OPT_ATOMS)) < 1e-3


def test_improved_optimum_is_admissible(diamond, improved_report):
    top = next(
        p for p in improved_report.pairs if p.key() == (WITNESS_CUT, WITNESS_BLOCKS)
    )
    part = netmodel.enumerate_strong_partitions(diamond, WITNESS_CUT)[1]
    assert bounds.is_pc_equivalent(top.details["opt_dist"], diamond, part, tol=1e-8)
    assert bounds.is_pc_equivalent(OPT_ATOMS, diamond, part)
    skewed = [0.2, 0.05, 0.1, 0.15, 0.15, 0.1, 0.15, 0.1]
    assert not bounds.is_pc_equivalent(skewed, diamond, part)
    with pytest.raises(errors.BadDist):
        bounds.is_pc_equivalent([0.5, 0.5], diamond, part)


def test_grid_oracle_agrees_on_witness_pair(diamond):
    search = SearchConfig(pairs=((WITNESS_CUT, WITNESS_BLOCKS),))
    report = bounds.improved_lower_bound(diamond, search)
    (pair,) = bounds.enumerate_pairs(diamond, search)
    grid_value, _ = grid_scan(bounds._graphs(diamond)(pair))
    assert abs(grid_value / len(WITNESS_CUT) - report.pairs[0].value) < 1e-3
    assert report.value == pytest.approx(IMPROVED, abs=1e-4)


def test_fixed_length_bound_frozen(fixed_report):
    assert fixed_report.value == pytest.approx(FIXED, abs=1e-12)
    assert fixed_report.witness_cut == WITNESS_CUT
    assert fixed_report.witness_blocks == WITNESS_BLOCKS
    top = next(p for p in fixed_report.pairs if p.key() == (WITNESS_CUT, WITNESS_BLOCKS))
    assert top.details["count"] == 6


def test_ordering_on_every_diamond_pair(basic_report, improved_report, fixed_report):
    for b, i, f in zip(basic_report.pairs, improved_report.pairs, fixed_report.pairs):
        assert b.key() == i.key() == f.key()
        assert b.value <= i.value + 1e-6
        assert i.value <= f.value + 1e-6


def test_single_edge_bounds():
    model = single_edge_model()
    assert bounds.basic_lower_bound(model).value == pytest.approx(1.0, abs=1e-12)
    improved = bounds.improved_lower_bound(model)
    assert improved.value == pytest.approx(1.0, abs=1e-12)
    # one source pinned by its own marginal: nothing to optimize
    assert improved.pairs[0].method == "FixedPoint"
    assert bounds.fixed_length_bound(model).value == pytest.approx(1.0, abs=1e-12)


def test_biased_single_edge_basic_value():
    model = single_edge_model(distribution=(0.75, 0.25))
    expected = 2 - 0.75 * math.log2(3)
    assert bounds.basic_lower_bound(model).value == pytest.approx(expected, abs=1e-12)


def test_search_restrictions(diamond, monkeypatch):
    search = SearchConfig(pairs=((WITNESS_CUT, WITNESS_BLOCKS),))
    report = bounds.basic_lower_bound(diamond, search)
    assert len(report.pairs) == 1
    assert report.value == pytest.approx(BASIC, abs=1e-12)

    with monkeypatch.context() as patch, pytest.raises(errors.SearchSpaceExceeded):
        patch.setattr(bounds, "PAIR_CAP", 10)
        bounds.enumerate_pairs(diamond)
    with pytest.raises(errors.UsageError):
        bounds.enumerate_pairs(
            diamond, SearchConfig(pairs=((("e9",), (("e9",),)),))
        )


def test_max_cut_size_limits_pairs(diamond):
    report = bounds.basic_lower_bound(diamond, SearchConfig(max_cut_size=1))
    assert all(len(p.cut) == 1 for p in report.pairs)
    assert report.value == pytest.approx(1.0, abs=1e-12)


def test_improved_is_deterministic(diamond):
    search = SearchConfig(pairs=((WITNESS_CUT, WITNESS_BLOCKS),))
    a = bounds.improved_lower_bound(diamond, search)
    b = bounds.improved_lower_bound(diamond, search)
    assert a.value == b.value
    assert a.pairs[0].details["opt_dist"] == b.pairs[0].details["opt_dist"]


def _distinct_graphs(model):
    graph_of = bounds._graphs(model)
    graphs = {}
    for pair in bounds.enumerate_pairs(model):
        graph = graph_of(pair)
        graphs[id(graph)] = graph
    return list(graphs.values())


def _feasible_points(graph, centre, draws, count):
    """Points ``centre + s d`` along random feasible directions, every atom >= MIN_MASS.

    The step ``s`` runs log-uniformly from 1e-9 of the room to the floor up
    to all of it, so the points probe both the neighbourhood of ``centre``
    and the far side of the slice.
    """
    d = draws.normal(size=(count, graph.null.shape[1])) @ graph.null.T
    room = centre - bounds.MIN_MASS
    reach = np.where(d < 0, room / np.where(d < 0, -d, 1.0), np.inf).min(axis=1)
    scale = reach * 10.0 ** draws.uniform(-9, 0, count) * 0.999
    return centre + scale[:, None] * d


def test_improved_optimum_is_certified(diamond):
    rng = random.Random(97)
    models = [diamond] + [random_model(rng) for _ in range(4)]
    # The 26th draw of seed 601 has a graph whose optimum puts an atom on
    # the floor, where the barrier leaves its largest error.
    rng = random.Random(601)
    models.append([random_model(rng) for _ in range(26)][-1])
    draws = np.random.default_rng(13)
    solved = gridded = at_floor = 0
    for model in models:
        for graph in _distinct_graphs(model):
            if graph.null.shape[1] == 0:
                continue
            best = graph.optimum
            assert best.gap <= 1e-9
            at_floor += bool(best.p.min() < 2 * bounds.MIN_MASS)
            ceiling = best.value + best.gap + 1e-12
            for centre in (graph.base, best.p):
                points = _feasible_points(graph, centre, draws, 150)
                assert points.min() >= bounds.MIN_MASS
                assert np.abs(graph.rows @ points.T - (graph.rows @ graph.base)[:, None]).max() < 1e-12
                assert graph.objective(points).max() <= ceiling
            solved += 1
            if graph.null.shape[1] <= GRID_MAX_DIM:
                grid_value, _ = grid_scan(graph)
                assert grid_value <= ceiling
                gridded += 1
    assert solved > 21 and gridded > 10 and at_floor >= 1


def test_ordering_on_random_models():
    rng = random.Random(73)
    for _ in range(8):
        model = random_model(rng)
        basic = bounds.basic_lower_bound(model)
        improved = bounds.improved_lower_bound(model)
        fixed = bounds.fixed_length_bound(model)
        for b, i, f in zip(basic.pairs, improved.pairs, fixed.pairs):
            assert b.value <= i.value + 1e-6
            assert i.value <= f.value + 1e-6


def test_report_serialization(basic_report):
    doc = basic_report.to_dict()
    assert doc["kind"] == "basic"
    assert doc["witness"]["cut"] == ["e5", "e6"]
    assert len(doc["pairs"]) == 118
    assert doc["pairs"][0].keys() >= {"cut", "blocks", "value", "method"}


def _pair_graphs(model):
    for pair in bounds.enumerate_pairs(model):
        yield chargraph.build(model, pair, 1)


def test_layer_objective_matches_clique_entropy(diamond):
    rng = random.Random(83)
    models = [diamond] + [random_model(rng) for _ in range(6)]
    masses_rng = np.random.default_rng(7)
    checked = 0
    for model in models:
        for cg in _pair_graphs(model):
            g = cg.graph
            objective = bounds._LayerObjective(cg)
            base = np.array([float(p) for p in g.dist])
            assert objective(base) == pytest.approx(entropy.clique_entropy(g).value, abs=1e-12)
            batch = masses_rng.uniform(0.05, 1.0, (3, g.n))
            batch /= batch.sum(axis=1, keepdims=True)
            for masses, value in zip(batch, objective(batch)):
                reweighted = pgraph.ProbGraph(g.vertices, g.edges(), masses.tolist())
                assert value == pytest.approx(
                    entropy.clique_entropy(reweighted).value, abs=1e-12
                )
            checked += 1
    assert checked > 118


def test_lower_bounds_builds_each_distinct_graph_once(diamond, monkeypatch):
    calls = {"build": 0, "clique_entropy": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(chargraph, "build", counted("build", chargraph.build))
    monkeypatch.setattr(
        entropy, "clique_entropy", counted("clique_entropy", entropy.clique_entropy)
    )
    monkeypatch.setattr(bounds, "_solve", counted("solve", bounds._solve))
    basic, improved, _ = bounds.lower_bounds(diamond)
    assert len(basic.pairs) == len(improved.pairs) == 118
    assert calls == {"build": 21, "clique_entropy": 21, "solve": 21}


def test_lower_bounds_matches_separate_bounds(
    diamond, basic_report, improved_report, fixed_report
):
    joint = bounds.lower_bounds(diamond)
    assert [r.to_dict() for r in joint] == [
        basic_report.to_dict(), improved_report.to_dict(), fixed_report.to_dict()
    ]
    rng = random.Random(89)
    for _ in range(3):
        model = random_model(rng)
        separate = (
            bounds.basic_lower_bound(model),
            bounds.improved_lower_bound(model),
            bounds.fixed_length_bound(model),
        )
        joint = bounds.lower_bounds(model)
        assert [r.to_dict() for r in joint] == [r.to_dict() for r in separate]


def test_layer_count_matches_class_count_on_every_pair(diamond):
    rng = random.Random(101)
    models = [diamond, layered_sum_model()] + [random_model(rng) for _ in range(4)]
    checked = 0
    for model in models:
        graph_of = bounds._graphs(model)
        for pair in bounds.enumerate_pairs(model):
            assert graph_of(pair).count == equiv.n_C(model, pair)
            checked += 1
    assert checked > 118 + 1134


def test_lower_bounds_never_counts_classes(diamond, monkeypatch):
    calls = []
    n_c = equiv.n_C

    def counted(*args):
        calls.append(args)
        return n_c(*args)

    monkeypatch.setattr(equiv, "n_C", counted)
    *_, fixed = bounds.lower_bounds(diamond)
    assert fixed.value == pytest.approx(FIXED, abs=1e-12)
    assert calls == []


def _sum_diamond(q):
    """The diamond topology computing x1 + x2 + x3 over alphabet q, uniform law."""
    rows = list(itertools.product(range(q), repeat=3))
    return netmodel.validate(dataclasses.replace(
        diamond_model(),
        alphabet_size=q,
        function_table=tuple(map(sum, rows)),
        distribution=(1 / len(rows),) * len(rows),
    ))


def _tiny_mass_diamond(eps):
    """The diamond with its first two source tuples at masses 1/4 - eps and eps."""
    model = diamond_model()
    return netmodel.validate(dataclasses.replace(
        model, distribution=(0.25 - eps, eps) + model.distribution[2:]
    ))


@pytest.mark.parametrize(
    "model",
    [_sum_diamond(4), _tiny_mass_diamond(1e-12), _tiny_mass_diamond(1e-15)],
    ids=["sum-q4", "tiny-mass-1e-12", "tiny-mass-1e-15"],
)
def test_hard_models_get_certified_bounds(model):
    basic, improved, fixed = bounds.lower_bounds(model)
    for b, i, f in zip(basic.pairs, improved.pairs, fixed.pairs):
        assert i.details.get("gap", 0.0) <= 1e-9
        assert b.value <= i.value + 1e-9
        assert i.value <= f.value + 1e-9


def test_tiny_mass_lowers_only_its_graphs_floor():
    model = _tiny_mass_diamond(1e-12)
    floors = set()
    for graph in _distinct_graphs(model):
        assert graph.optimum.p.min() > graph.floor
        floors.add(graph.floor)
    assert floors == {bounds.MIN_MASS, 1e-12 / 2}
    basic, improved, fixed = bounds.lower_bounds(model)
    assert basic.value == pytest.approx(1.07781953113394, abs=1e-12)
    assert improved.value == pytest.approx(1.19919318798019, abs=1e-12)
    assert fixed.value == pytest.approx(FIXED, abs=1e-12)
