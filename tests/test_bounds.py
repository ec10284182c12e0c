"""Lower-bound computations on the diamond network and random models.

Frozen diamond values, all at the sink cut with the two-block partition:
basic = 7/4 - (3/8)log2(3), improved = (1/2)log2(5) at the distribution
putting 0.15 on the six odd-parity-of-(x1,x3) points and 0.1 elsewhere,
fixed length = (1 + log2(3))/2 from the count 6.  The ordering
basic <= improved <= fixed length must hold on every pair.
"""

import dataclasses
import itertools
import json
import math
import random

import numpy as np
import pytest

from conftest import GRID_MAX_DIM, grid_scan, random_model
from netfuncomp import bounds, chargraph, entropy, equiv, errors, netmodel, pgraph
from netfuncomp.bounds import SearchConfig
from netfuncomp.examples import diamond_model, layered_sum_model, single_edge_model
from oracles import is_pc_equivalent, null_space, probabilities

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
    witness = basic_report.graphs[top.graph]
    assert witness["clique_entropy"] == pytest.approx(7 / 2 - (3 / 4) * math.log2(3), abs=1e-12)
    assert witness["layer_counts"] == {
        "fibers": 1,
        "classes": 4,
        "leftover_blocks": 6,
        "brackets": 8,
    }


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
    assert improved_report.graphs[top.graph]["feasible_dimension"] == 2
    got = improved_report.graphs[top.graph]["opt_dist"]
    assert max(abs(a - b) for a, b in zip(got, OPT_ATOMS)) < 1e-3


def test_improved_optimum_is_admissible(diamond, improved_report):
    top = next(
        p for p in improved_report.pairs if p.key() == (WITNESS_CUT, WITNESS_BLOCKS)
    )
    part = netmodel.enumerate_strong_partitions(diamond, WITNESS_CUT)[1]
    assert is_pc_equivalent(
        improved_report.graphs[top.graph]["opt_dist"], diamond, part, tol=1e-8
    )
    assert is_pc_equivalent(OPT_ATOMS, diamond, part)
    skewed = [0.2, 0.05, 0.1, 0.15, 0.15, 0.1, 0.15, 0.1]
    assert not is_pc_equivalent(skewed, diamond, part)
    with pytest.raises(errors.UsageError):
        is_pc_equivalent([0.5, 0.5], diamond, part)


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
    assert fixed_report.graphs[top.graph]["count"] == 6


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
    assert a.graphs[a.pairs[0].graph]["opt_dist"] == b.graphs[b.pairs[0].graph]["opt_dist"]


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


def _pair_graphs(model):
    for pair in bounds.enumerate_pairs(model):
        yield chargraph.build(model, pair, 1)


def test_layer_objective_matches_clique_entropy(diamond):
    rng = random.Random(83)
    models = [diamond, layered_sum_model()] + [random_model(rng) for _ in range(6)]
    masses_rng = np.random.default_rng(7)
    checked = 0
    for model in models:
        for cg in _pair_graphs(model):
            g = cg.graph
            objective = bounds._LayerObjective(cg)
            base = np.array([float(p) for p in probabilities(g)])
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
    calls = {"build": 0, "layer_masks": 0, "clique_entropy": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(chargraph, "build", counted("build", chargraph.build))
    monkeypatch.setattr(chargraph, "layer_masks", counted("layer_masks", chargraph.layer_masks))
    monkeypatch.setattr(
        entropy, "clique_entropy", counted("clique_entropy", entropy.clique_entropy)
    )
    monkeypatch.setattr(bounds, "_solve", counted("solve", bounds._solve))
    basic, improved, _ = bounds.lower_bounds(diamond)
    assert len(basic.pairs) == len(improved.pairs) == 118
    # 13 of the 21 graphs differ in content; each twin takes its first's values.
    assert calls == {"build": 21, "layer_masks": 21, "clique_entropy": 0, "solve": 13}


def test_lower_bounds_matches_separate_bounds(
    diamond, basic_report, improved_report, fixed_report
):
    joint = bounds.lower_bounds(diamond)
    assert joint == (basic_report, improved_report, fixed_report)
    rng = random.Random(89)
    for _ in range(3):
        model = random_model(rng)
        separate = (
            bounds.basic_lower_bound(model),
            bounds.improved_lower_bound(model),
            bounds.fixed_length_bound(model),
        )
        joint = bounds.lower_bounds(model)
        assert joint == separate


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


def _draw(seed, n):
    """The n-th ``random_model`` draw of ``random.Random(seed)``."""
    rng = random.Random(seed)
    return [random_model(rng) for _ in range(n)][-1]


# The two binary draws have interior optima whose last Newton decrements
# fall where a quarter of the predicted gain is below the rounding of
# barrier values; a line search that demands that gain stalls on them.
# The 1e-10 diamond is the one input here that makes the line search halve
# its step.
@pytest.mark.parametrize(
    "model",
    [_sum_diamond(4), _tiny_mass_diamond(1e-10), _tiny_mass_diamond(1e-12),
     _tiny_mass_diamond(1e-15), _draw(1001, 18), _draw(1004, 25)],
    ids=["sum-q4", "tiny-mass-1e-10", "tiny-mass-1e-12", "tiny-mass-1e-15", "binary-1001-18",
         "binary-1004-25"],
)
def test_hard_models_get_certified_bounds(model):
    basic, improved, fixed = bounds.lower_bounds(model)
    for b, i, f in zip(basic.pairs, improved.pairs, fixed.pairs):
        assert improved.graphs[i.graph].get("gap", 0.0) <= 1e-9
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


@pytest.fixture(scope="module")
def suite(diamond):
    """The diamond and the 50 draws of the acceptance-6 suite (seed 601)."""
    rng = random.Random(601)
    return [diamond] + [random_model(rng) for _ in range(50)]


def test_contrast_basis_spans_the_svd_null_space(suite):
    # Every distinct graph of the suite, then of the uniform sum diamonds.
    counts = []
    for models in (suite, [_sum_diamond(q) for q in (3, 4, 5)]):
        graphs = [g for model in models for g in _distinct_graphs(model)]
        for graph in graphs:
            null, rows = graph.null, graph.rows
            assert null.shape == null_space(rows).shape == (graph.base.size, graph.dim)
            assert np.abs(null.T @ null - np.eye(graph.dim)).max(initial=0.0) <= 1e-12
            assert np.abs(rows @ null).max(initial=0.0) <= 1e-12
        counts.append((len(graphs), sum(g.dim == 0 for g in graphs)))
    assert counts[0] == (503, 278)


def test_stacked_solve_matches_stacks_of_one(suite):
    # Every distinct graph of the suite, then of the uniform sum diamonds.
    widest = 0
    for model in suite + [_sum_diamond(q) for q in (3, 4, 5)]:
        graphs = _distinct_graphs(model)
        widest = max([widest] + [len(s) for s in bounds._stacks([g for g in graphs if g.dim])])
        bounds._solve_all(graphs)
        for graph in graphs:
            best = graph.optimum
            assert best.gap <= bounds.MAX_GAP
            assert best.value >= graph.basic
            if graph.dim:
                alone = bounds._Graph(model, graph.cg.partition).optimum
                assert abs(best.value - alone.value) <= 1e-12
    assert widest > 1


def test_graphs_of_equal_content_share_a_certified_optimum(suite, monkeypatch):
    # A run solves the first graph of each content (masses, layer masks,
    # scopes) and reports its optimum for the twins.  Every graph's reported
    # point must still be certified on its own objective, null basis, rows
    # and floor, and match its own stack-of-one solve.
    calls = {"solve": 0, "first_pass": 0}
    solve, maximize = bounds._solve, bounds._maximize

    def counted_solve(*args):
        calls["solve"] += 1
        return solve(*args)

    def counted_maximize(stack, p, path=bounds._BARRIER_PATH):
        calls["first_pass"] += len(stack) if path == bounds._BARRIER_PATH else 0
        return maximize(stack, p, path)

    counts, twins = [], 0
    for models in (suite, *([_sum_diamond(q)] for q in (3, 4, 5))):
        calls.update(solve=0, first_pass=0)
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_solve", counted_solve)
            patch.setattr(bounds, "_maximize", counted_maximize)
            reports = [bounds.lower_bounds(model)[1] for model in models]
        counts.append(dict(calls))
        for model, improved in zip(models, reports):
            seen = set()
            for graph, entry in zip(_distinct_graphs(model), improved.graphs, strict=True):
                twins += graph.content in seen
                seen.add(graph.content)
                if not graph.dim:
                    assert entry["improved_value"] == graph.basic
                    continue
                p = np.array(entry["opt_dist"])
                assert bounds._certificate(graph.objective, p, graph.null, graph.floor) <= (
                    bounds.MAX_GAP
                )
                assert np.abs(graph.rows @ p - graph.rows @ graph.base).max() <= 1e-10
                assert abs(graph.optimum.value - entry["improved_value"]) <= 1e-12
    # Without sharing: 225 first-pass graphs and 503 solves on the suite,
    # 11 first-pass graphs on each sum diamond.
    assert counts == [{"solve": 461, "first_pass": 187}] + [{"solve": 13, "first_pass": 7}] * 3
    assert twins == 503 - 461 + 3 * 8


def test_stationary_bases_take_no_newton_step(diamond, monkeypatch):
    # Six of the diamond's seven first-pass graphs meet the certificate with
    # lam = 0 at the base, sqrt(2) ||N^T grad f(base)|| <= MAX_GAP, and leave
    # their stack unchanged; only the interior optimum of the witness's
    # content steps (its first graph is a twin of the witness pair's).
    still, batches = {}, []
    maximize, eigh = bounds._maximize, np.linalg.eigh

    def first_pass(stack, p, path=bounds._BARRIER_PATH):
        out = maximize(stack, p, path)
        if path == bounds._BARRIER_PATH:
            still.update((g, np.array_equal(a, b)) for g, a, b in zip(stack, out, p))
        return out

    def counted_eigh(a):
        batches.append(len(a))
        return eigh(a)

    monkeypatch.setattr(bounds, "_maximize", first_pass)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    _, improved, _ = bounds.lower_bounds(diamond)
    assert sorted(still.values()) == [False] + [True] * 6
    (stepped,) = [g for g, kept in still.items() if not kept]
    search = SearchConfig(pairs=((WITNESS_CUT, WITNESS_BLOCKS),))
    witness = bounds.enumerate_pairs(diamond, search)
    assert stepped.content == bounds._Graph(diamond, witness[0]).content
    assert batches and set(batches) == {1}
    assert improved.value == pytest.approx(IMPROVED, abs=1e-12)
    solved = [g for g in improved.graphs if g["feasible_dimension"]]
    assert len(solved) == 11
    assert all(g["gap"] <= bounds.MAX_GAP and g["marginal_residual"] <= 1e-10 for g in solved)
    for graph, kept in still.items():
        if kept:
            assert graph.optimum.p is graph.base and graph.optimum.gap <= bounds.MAX_GAP


@pytest.mark.parametrize(
    "eps, reason",
    [(1e-100, "optimality gap 70.3 exceeds 1e-09"),
     (1e-140, "optimality gap 185 exceeds 1e-09"),
     (1e-300, "atom 1e-300 is too small for the barrier")],
)
def test_first_failing_graph_in_order_of_appearance_is_named(eps, reason):
    # 8 of the 21 graphs fail; the first to appear has d = 3, and the one
    # after it, with d = 2, fails with another gap.
    model = _tiny_mass_diamond(eps)
    failing = []
    for graph in _distinct_graphs(model):
        try:
            graph.optimum
        except errors.OptimizerFailed:
            failing.append(graph.dim)
    assert failing[:2] == [3, 2] and len(failing) == 8
    pair = {"cut": ["e1", "e2", "e3", "e4"], "blocks": [["e1", "e2", "e3"], ["e4"]]}
    with pytest.raises(errors.OptimizerFailed) as failed:
        bounds.lower_bounds(model)
    assert str(failed.value) == f"pair {json.dumps(pair)}: {reason}"


@pytest.fixture(scope="module")
def suite_reports(suite):
    return [bounds.lower_bounds(model) for model in suite]


def test_rigid_pairs_report_the_basic_value(suite_reports):
    rigid = 0
    for basic, improved, _ in suite_reports:
        for b, i in zip(basic.pairs, improved.pairs):
            if improved.graphs[i.graph]["feasible_dimension"] == 0:
                assert (i.value, i.method) == (b.value, "FixedPoint")
                rigid += 1
    assert rigid > 0


def test_improved_is_never_below_basic_on_the_suite(suite, suite_reports):
    # On 29 pairs of draws 12 and 22 the float objective at the certified
    # point fell a few ulps below its value at the base; those graphs
    # report the base, with the gap found at the point.
    pairs = 0
    for basic, improved, _ in suite_reports:
        for b, i in zip(basic.pairs, improved.pairs):
            assert i.value >= b.value
            pairs += 1
    assert pairs == 3603
    basic, improved, _ = suite_reports[12]
    b, i = basic.pairs[2], improved.pairs[2]
    assert b.key() == (("e1", "e2"), (("e1",), ("e2",)))
    assert i.value == b.value == 0.4998789573504133
    details = improved.graphs[i.graph]
    assert details["improved_value"] == details["base_value"]
    assert 0 < details["gap"] <= bounds.MAX_GAP
    assert details["marginal_residual"] == 0.0
    graph = bounds._Graph(suite[12], bounds.enumerate_pairs(suite[12])[2])
    assert details["opt_dist"] == graph.base.tolist()


def test_lower_bounds_builds_no_class_partitions(diamond, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bound path asked equiv for a class partition")

    monkeypatch.setattr(equiv, "i_aj_classes", refuse)
    monkeypatch.setattr(equiv, "il_al_aj_classes", refuse)
    basic, improved, fixed = bounds.lower_bounds(diamond)
    assert basic.value == pytest.approx(BASIC, abs=1e-12)
    assert improved.value == pytest.approx(IMPROVED, abs=1e-6)
    assert fixed.value == pytest.approx(FIXED, abs=1e-12)


def test_subnormal_cell_bounds_without_overflow():
    # Masses over 2^1074 are exact integers; only the barrier refuses the atom.
    model = _tiny_mass_diamond(5e-324)
    near = bounds.basic_lower_bound(_tiny_mass_diamond(1e-30)).value
    assert bounds.basic_lower_bound(model).value == pytest.approx(near, abs=1e-12)
    assert bounds.fixed_length_bound(model).value == pytest.approx(FIXED, abs=1e-12)
    with pytest.raises(errors.OptimizerFailed, match="atom 4.94e-324 is too small for the barrier"):
        bounds.improved_lower_bound(model)
