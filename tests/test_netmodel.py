"""Model validation, cut classification, and strong-partition enumeration.

The diamond network fixes the frozen expectations: which sources each cut
feeds and separates, and which partitions of a cut pass the two strong
conditions.  Random DAGs are then checked against the brute-force oracles
in conftest.
"""

import dataclasses
import itertools
import json
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import brute_cut_sets, brute_strong_partitions, random_model, rgs_strong_partitions
from netfuncomp import bounds, errors, netmodel
from netfuncomp.examples import diamond_model, layered_sum_model
from netfuncomp.netmodel import Edge, NetworkModel


def _model(edges, sources, nodes=None, table=(0, 1), dist=(0.5, 0.5), sink="t"):
    nodes = nodes or sorted({n for e in edges for n in (e[1], e[2])})
    return NetworkModel(
        nodes=tuple(nodes),
        edges=tuple(Edge(*e) for e in edges),
        sources=tuple(sources),
        sink=sink,
        alphabet_size=2,
        function_table=table,
        distribution=dist,
    )


# -- validation -----------------------------------------------------------------


def test_diamond_validates():
    model = diamond_model()
    assert netmodel.validate(model) is model


def test_cycle_detected():
    shapes = [
        ([("e1", "s1", "a"), ("e2", "a", "b"), ("e3", "b", "a"), ("e4", "b", "t")], "a -> b"),
        # Node a lies behind the cycle, so the search meets it first.
        (
            [("e1", "s1", "b"), ("e2", "b", "c"), ("e3", "c", "d"), ("e4", "d", "b"),
             ("e5", "d", "a"), ("e6", "a", "t")],
            "b -> c -> d",
        ),
        ([("e1", "s1", "a"), ("e2", "a", "a"), ("e3", "a", "t")], "a"),
    ]
    for edges, cycle in shapes:
        with pytest.raises(errors.CycleDetected) as exc:
            netmodel.validate(_model(edges, ["s1"]))
        assert str(exc.value) == cycle


def test_source_in_edge_rejected():
    m = _model([("e1", "s1", "s2"), ("e2", "s2", "t")], ["s1", "s2"],
               table=(0, 1, 1, 0), dist=(0.25,) * 4)
    with pytest.raises(errors.SourceHasInEdge):
        netmodel.validate(m)


def test_sink_out_edge_rejected():
    m = _model([("e1", "s1", "t"), ("e2", "t", "a"), ("e3", "a", "t")], ["s1"])
    with pytest.raises(errors.SinkHasOutEdge):
        netmodel.validate(m)


def test_unreachable_node_rejected():
    m = _model([("e1", "s1", "t"), ("e2", "s1", "a")], ["s1"])
    with pytest.raises(errors.UnreachableNode):
        netmodel.validate(m)


def test_context_order_is_topological():
    rng = random.Random(29)
    models = [diamond_model(), layered_sum_model()] + [random_model(rng) for _ in range(25)]
    for model in models:
        topo = netmodel._context(model).topo
        assert sorted(topo) == sorted(model.nodes)
        pos = {n: i for i, n in enumerate(topo)}
        assert all(pos[e.tail] < pos[e.head] for e in model.edges)


def test_distribution_must_be_positive_and_normalized():
    m = _model([("e1", "s1", "t")], ["s1"], dist=(1.0, 0.0))
    with pytest.raises(errors.BadDistribution):
        netmodel.validate(m)
    m = _model([("e1", "s1", "t")], ["s1"], dist=(0.6, 0.6))
    with pytest.raises(errors.BadDistribution):
        netmodel.validate(m)


def test_constant_function_rejected():
    m = _model([("e1", "s1", "t")], ["s1"], table=(1, 1))
    with pytest.raises(errors.ConstantFunction):
        netmodel.validate(m)


def test_round_trip_through_dict():
    model = diamond_model()
    doc = netmodel.model_to_dict(model)
    again = netmodel.model_from_dict(doc)
    assert again == model


def test_malformed_documents_raise_usage_error():
    with pytest.raises(errors.UsageError):
        netmodel.model_from_dict({"alphabet": 2})
    doc = netmodel.model_to_dict(diamond_model())
    doc["function"] = doc["function"][:-1]
    with pytest.raises(errors.UsageError):
        netmodel.model_from_dict(doc)


# -- cut classification ----------------------------------------------------------


def test_diamond_global_cut():
    model = diamond_model()
    a = netmodel.analyze_cut(model, ["e5", "e6"])
    assert a.i_set == {"s1", "s2", "s3"}
    assert a.j_set == frozenset()
    assert a.is_global and a.is_cut_set


def test_diamond_side_information_cut():
    model = diamond_model()
    a = netmodel.analyze_cut(model, ["e5"])
    assert a.i_set == {"s1"}
    assert a.k_set == {"s1", "s2"}
    assert a.j_set == {"s2"}
    assert not a.is_global


def test_non_cut_edge_set():
    model = diamond_model()
    a = netmodel.analyze_cut(model, ["e1"])
    # s1 still reaches t through nothing else, so e1 alone does cut s1
    assert a.i_set == {"s1"}
    b = netmodel.analyze_cut(model, ["e2"])
    assert b.i_set == frozenset() and not b.is_cut_set


def test_unknown_edge_id():
    with pytest.raises(errors.UnknownEdgeId):
        netmodel.analyze_cut(diamond_model(), ["e9"])


def test_enumerate_cut_sets_orders_lexicographically():
    model = diamond_model()
    analyses = netmodel.enumerate_cut_sets(model, max_size=1)
    assert [a.cut for a in analyses] == [("e1",), ("e4",), ("e5",), ("e6",)]
    assert all(a.is_cut_set for a in analyses)


def test_enumerate_cut_sets_matches_oracle_on_diamond():
    model = diamond_model()
    analyses = netmodel.enumerate_cut_sets(model)
    for a in analyses:
        k, i, j = brute_cut_sets(model, a.cut)
        assert (a.k_set, a.i_set, a.j_set) == (k, i, j)
        assert i
    # completeness: every subset with nonempty oracle I appears
    ids = sorted(e.id for e in model.edges)
    expected = sum(
        1
        for r in range(1, 7)
        for c in itertools.combinations(ids, r)
        if brute_cut_sets(model, c)[1]
    )
    assert len(analyses) == expected


def test_cut_monotonicity_on_random_dags():
    rng = random.Random(7)
    for _ in range(30):
        model = random_model(rng)
        ids = sorted(e.id for e in model.edges)
        small = rng.sample(ids, rng.randint(1, len(ids)))
        extra = rng.sample(ids, rng.randint(0, len(ids)))
        big = set(small) | set(extra)
        a = netmodel.analyze_cut(model, small)
        b = netmodel.analyze_cut(model, big)
        assert a.i_set <= b.i_set
        assert a.k_set <= b.k_set
        assert a.i_set <= a.k_set and a.j_set == a.k_set - a.i_set


# -- strong partitions ------------------------------------------------------------


def test_diamond_sink_cut_has_exactly_two_strong_partitions():
    model = diamond_model()
    parts = netmodel.enumerate_strong_partitions(model, ["e5", "e6"])
    assert parts[0].is_trivial
    assert [p.blocks for p in parts] == [(("e5", "e6"),), (("e5",), ("e6",))]
    nontrivial = parts[1]
    assert nontrivial.i_sets == (frozenset({"s1"}), frozenset({"s3"}))
    assert nontrivial.l_set == {"s2"}


def test_strong_partition_index_sets_partition_i():
    model = diamond_model()
    for analysis in netmodel.enumerate_cut_sets(model):
        for part in netmodel.enumerate_strong_partitions(model, analysis):
            pieces = list(part.i_sets) + [part.l_set]
            union = set()
            for piece in pieces:
                assert not (union & piece)
                union |= piece
            assert union == analysis.i_set
            assert all(i for i in part.i_sets)


def test_not_a_cut_set_raises():
    with pytest.raises(errors.NotACutSet):
        netmodel.enumerate_strong_partitions(diamond_model(), ["e2"])


def _random_dags():
    """(model, max cut size) for the random DAGs checked against the oracles."""
    rng = random.Random(21)
    out = []
    for _ in range(25):
        model = random_model(rng)
        out.append((model, min(4, len(model.edges))))
    return out


def test_strong_partitions_match_oracle_on_random_dags():
    checked = 0
    for model, cap in _random_dags():
        for analysis in netmodel.enumerate_cut_sets(model, max_size=cap):
            got = {
                frozenset(frozenset(b) for b in p.blocks)
                for p in netmodel.enumerate_strong_partitions(model, analysis)
            }
            assert got == brute_strong_partitions(model, analysis.cut)
            checked += 1
    assert checked > 50


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(lambda: [(diamond_model(), None)], id="diamond"),
        pytest.param(lambda: [(layered_sum_model(), None)], id="layered-sum"),
        pytest.param(_random_dags, id="random-dags"),
    ],
)
def test_strong_partitions_match_rgs_oracle_in_order(cases):
    checked = 0
    for model, cap in cases():
        for analysis in netmodel.enumerate_cut_sets(model, max_size=cap):
            got = netmodel.enumerate_strong_partitions(model, analysis)
            assert got == rgs_strong_partitions(model, analysis)
            assert all(p.m <= len(analysis.i_set) for p in got)
            checked += 1
    assert checked > 0


def _layered_12_edge_model():
    """The layered sum network plus cross edges s1 -> a2 and s3 -> a1."""
    model = layered_sum_model()
    extra = (Edge("e11", "s1", "a2"), Edge("e12", "s3", "a1"))
    return netmodel.validate(dataclasses.replace(model, edges=model.edges + extra))


@pytest.mark.parametrize(
    "make, cuts, pairs",
    [(layered_sum_model, 973, 1134), (_layered_12_edge_model, 3461, 3486)],
    ids=["layered-sum", "layered-12-edge"],
)
def test_layered_cut_and_pair_counts(make, cuts, pairs):
    model = make()
    assert len(netmodel.enumerate_cut_sets(model)) == cuts
    assert len(bounds.enumerate_pairs(model)) == pairs


def test_model_hash_is_stable_and_not_pickled():
    model = diamond_model()
    twin = netmodel.model_from_dict(netmodel.model_to_dict(model))
    assert hash(model) == hash(model) == hash(twin)
    clone = pickle.loads(pickle.dumps(model))
    assert "_hash" not in clone.__dict__
    assert clone == model and hash(clone) == hash(model)


def test_model_context_cache_stays_bounded():
    bound = netmodel._context.cache_info().maxsize
    assert bound is not None
    rng = random.Random(5)
    seen = set()
    while len(seen) <= bound + 5:
        model = random_model(rng)
        seen.add(model)
        netmodel.enumerate_cut_sets(model)
    assert netmodel._context.cache_info().currsize <= bound


# -- dependencies ------------------------------------------------------------------


def test_cli_import_leaves_networkx_unloaded():
    src = Path(netmodel.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, netfuncomp.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_cli_commands_leave_scipy_unloaded(tmp_path):
    model = tmp_path / "diamond.json"
    model.write_text(json.dumps(netmodel.model_to_dict(diamond_model())))
    # A 5-cycle does not decompose, so entropy takes its numeric fallback.
    graph = tmp_path / "pentagon.json"
    ring = ["a", "b", "c", "d", "e"]
    graph.write_text(json.dumps(
        {"vertices": ring, "edges": [[ring[i - 1], ring[i]] for i in range(5)], "dist": [0.2] * 5}
    ))
    runs = [
        ["example", "diamond", "--bounds"],
        ["bounds", str(model)],
        ["cuts", str(model)],
        ["entropy", str(graph)],
        ["simulate", "--builtin", "diamond", "--k", "2"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from netfuncomp import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(*codes, 'scipy' in sys.modules)\n"
    )
    src = Path(netmodel.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"] * len(runs) + ["False"]


def test_declared_runtime_dependency_is_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in doc["project"]["dependencies"]]
    assert names == ["numpy"]


# -- assignment helpers ------------------------------------------------------------


def test_assignment_enumeration_order_and_count():
    blocks = list(netmodel.enumerate_assignments(2, 2, 2))
    assert len(blocks) == netmodel.assignment_count(2, 2, 2) == 16
    assert blocks[0] == ((0, 0), (0, 0))
    assert blocks[1] == ((0, 0), (0, 1))
    assert blocks[-1] == ((1, 1), (1, 1))
    assert netmodel.format_assignment(blocks[5], 2) == "0101"


@pytest.mark.parametrize("q", [2, 11])
def test_assignment_text_round_trips(q):
    for n_sources, k in ((1, 1), (1, 3), (3, 1)):
        for block in netmodel.enumerate_assignments(q, n_sources, k):
            text = netmodel.format_assignment(block, q)
            assert netmodel.parse_assignment(text, q, n_sources, k) == block
    wrong_length = "0" * 4 if q == 2 else "0,0,0,0"
    for text in ("x", "0a1", wrong_length, str(q)):
        with pytest.raises(errors.UsageError, match=repr(text)):
            netmodel.parse_assignment(text, q, 3, 1)


def test_restrict_sources_keeps_model_order():
    model = diamond_model()
    assert netmodel.restrict_sources(model, {"s3", "s1"}) == ("s1", "s3")
    with pytest.raises(errors.UsageError):
        netmodel.restrict_sources(model, {"s9"})
