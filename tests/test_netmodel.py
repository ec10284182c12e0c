"""Model validation, cut classification, and strong-partition enumeration.

The diamond network fixes the frozen expectations: which sources each cut
feeds and separates, and which partitions of a cut pass the two strong
conditions.  Random DAGs are then checked against the brute-force oracles
in conftest.
"""

import dataclasses
import gc
import itertools
import json
import os
import pickle
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import (
    brute_cut_sets,
    brute_strong_partitions,
    grown_layered_doc,
    random_model,
    rgs_strong_partitions,
)
from netfuncomp import bounds, chargraph, errors, netmodel
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


def test_sink_as_source_rejected():
    # The loader refuses this document first; a hand-built model reaches validate.
    m = _model([("e1", "s1", "t")], ["s1", "t"], table=(0, 1, 1, 0), dist=(0.25,) * 4)
    with pytest.raises(errors.UsageError, match="^the sink cannot be a source$"):
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


def test_table_length_check_forms_no_power_past_the_length():
    # (10^9)^(10^5) alone takes about 0.3 s to form; a table of 2 entries
    # refuses any s of 2 or more from the exponent.
    class Alphabet(int):
        def __pow__(self, other):
            raise AssertionError(f"formed {int(self)}^{other}")

    sources = [f"s{i}" for i in range(10**5)]
    doc = {
        "alphabet": Alphabet(10**9),
        "nodes": [*sources, "t"],
        "edges": [{"id": f"e{i}", "tail": s, "head": "t"} for i, s in enumerate(sources)],
        "sources": sources,
        "sink": "t",
        "function": [0, 1],
        "distribution": [0.5, 0.5],
    }
    with pytest.raises(errors.UsageError) as info:
        netmodel.model_from_dict(doc)
    assert str(info.value) == "function table must have 1000000000^100000 entries, got 2"


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
    analyses = list(netmodel.enumerate_cut_sets(model, max_size=1))
    assert [a.cut for a in analyses] == [("e1",), ("e4",), ("e5",), ("e6",)]
    assert all(a.is_cut_set for a in analyses)


def test_enumerate_cut_sets_matches_oracle_on_diamond():
    model = diamond_model()
    analyses = list(netmodel.enumerate_cut_sets(model))
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


def _four_source_dags():
    """(model, max cut size) for random DAGs with up to four sources and ten edges."""
    rng = random.Random(33)
    out = []
    for _ in range(20):
        model = random_model(rng, max_sources=4, max_edges=10)
        out.append((model, min(5, len(model.edges))))
    return out


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(lambda: [(diamond_model(), None)], id="diamond"),
        pytest.param(lambda: [(layered_sum_model(), None)], id="layered-sum"),
        pytest.param(_random_dags, id="random-dags"),
        pytest.param(_four_source_dags, id="four-source-dags"),
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


def _root_test(model, analysis) -> bool:
    """Whether the strong-partition search looks past the one-block partition."""
    ctx = netmodel._context(model)
    mask = sum(1 << ctx.bit[eid] for eid in analysis.cut)
    return ctx.splits(mask, ctx.i_mask(mask))


@pytest.mark.parametrize(
    "cases",
    [
        pytest.param(lambda: [(diamond_model(), None)], id="diamond"),
        # The brute oracle walks every set partition, so the layered models
        # stop at five-edge cuts; the RGS test above covers every
        # layered-sum cut.
        pytest.param(lambda: [(layered_sum_model(), 5)], id="layered-sum"),
        pytest.param(lambda: [(_layered_12_edge_model(), 5)], id="layered-12-edge"),
        pytest.param(_random_dags, id="random-dags"),
    ],
)
def test_every_splittable_cut_passes_the_root_test(cases):
    splittable = 0
    for model, cap in cases():
        for analysis in netmodel.enumerate_cut_sets(model, max_size=cap):
            if any(len(p) > 1 for p in brute_strong_partitions(model, analysis.cut)):
                assert _root_test(model, analysis), analysis.cut
                splittable += 1
    assert splittable > 0


def test_root_test_sends_106_layered_sum_cuts_to_the_search():
    model = layered_sum_model()
    cuts = list(netmodel.enumerate_cut_sets(model))
    assert len(cuts) == 973
    assert sum(_root_test(model, c) for c in cuts) == 106


def test_carrier_lemma_on_random_dags():
    # E_s is the carrier of source s: the cut edges whose K holds s.
    checked = 0
    for model, cap in _random_dags():
        k_of = {e.id: brute_cut_sets(model, [e.id])[0] for e in model.edges}
        for analysis in netmodel.enumerate_cut_sets(model, max_size=cap):
            cut = analysis.cut

            def carried_inside(block):
                return {
                    s for s in analysis.i_set if all(e in block for e in cut if s in k_of[e])
                }

            for r in range(1, len(cut) + 1):
                for block in itertools.combinations(cut, r):
                    assert carried_inside(block) <= brute_cut_sets(model, block)[1]
            for partition in brute_strong_partitions(model, cut):
                for block in partition:
                    assert carried_inside(block) == brute_cut_sets(model, block)[1]
                    checked += 1
    assert checked > 100


def test_partition_search_fast_paths_on_the_layered_sum(monkeypatch):
    model = layered_sum_model()
    lookups = []
    i_mask = netmodel._Context.i_mask

    def counted(self, cut):
        lookups.append(cut)
        return i_mask(self, cut)

    monkeypatch.setattr(netmodel._Context, "i_mask", counted)
    single = searched = pairs = 0
    for analysis in netmodel.enumerate_cut_sets(model):
        before = len(lookups)
        pairs += len(netmodel.enumerate_strong_partitions(model, analysis))
        used = len(lookups) - before
        if len(analysis.i_set) == 1:
            assert used == 0, analysis.cut
            single += 1
        searched += used
    assert single == 207 and pairs == 1134
    # Only the interference test looks up I, once per step: 1,459 lookups here.
    assert searched <= 6124


@pytest.mark.parametrize(
    "make, cuts, pairs",
    [(layered_sum_model, 973, 1134), (_layered_12_edge_model, 3461, 3486)],
    ids=["layered-sum", "layered-12-edge"],
)
def test_layered_cut_and_pair_counts(make, cuts, pairs):
    model = make()
    assert len(list(netmodel.enumerate_cut_sets(model))) == cuts
    assert len(bounds.enumerate_pairs(model)) == pairs


def test_model_hash_is_stable_and_not_pickled():
    model = diamond_model()
    twin = netmodel.model_from_dict(netmodel.model_to_dict(model))
    assert hash(model) == hash(model) == hash(twin)
    # A pickled model leaves its context behind: the walk's I memo does not
    # grow the pickle, and the copy builds a context of its own.
    size = len(pickle.dumps(model))
    cuts = list(netmodel.enumerate_cut_sets(model))
    assert len(pickle.dumps(model)) == size
    clone = pickle.loads(pickle.dumps(model))
    assert clone == model and hash(clone) == hash(model)
    assert "_context" not in vars(clone)
    assert list(netmodel.enumerate_cut_sets(clone)) == cuts
    assert netmodel._context(clone) is not netmodel._context(model)


def test_each_model_keeps_its_own_context(monkeypatch):
    built = []
    init = netmodel._Context.__init__

    def counted(self, model):
        built.append(None)
        init(self, model)

    monkeypatch.setattr(netmodel._Context, "__init__", counted)
    model = layered_sum_model()
    first = netmodel._context(model)
    cuts = list(netmodel.enumerate_cut_sets(model))
    assert netmodel._context(model) is first and len(built) == 1
    twin = netmodel.model_from_dict(netmodel.model_to_dict(model))
    assert twin == model
    assert list(netmodel.enumerate_cut_sets(twin)) == cuts
    assert len(built) == 2 and netmodel._context(twin) is not first
    # Nothing outside the model keeps its context alive.
    dropped = weakref.ref(first)
    del model, first
    gc.collect()
    assert dropped() is None


def _xor_parallel_model(n: int) -> NetworkModel:
    """Sources s1 and s2 joined to the sink by n parallel edges, alternating, XOR target."""
    edges = [(f"e{j}", "s1" if j % 2 else "s2", "t") for j in range(1, n + 1)]
    return _model(edges, ("s1", "s2"), table=(0, 1, 1, 0), dist=(0.25,) * 4)


def test_cut_walk_matches_a_brute_force_filter():
    model = _xor_parallel_model(12)
    ids = sorted(e.id for e in model.edges)
    want = []
    for c in sorted(c for r in range(1, 13) for c in itertools.combinations(ids, r)):
        k, i, j = brute_cut_sets(model, c)
        if i:
            want.append((c, k, i, j))
    got = [(a.cut, a.k_set, a.i_set, a.j_set) for a in netmodel.enumerate_cut_sets(model)]
    assert got == want and len(got) == 127


def test_cut_walk_skips_subtrees_without_cut_sets(monkeypatch):
    model = netmodel.validate(_xor_parallel_model(netmodel.EDGE_CAP))
    calls = []
    reach = netmodel._Context._reach

    def counted(self, cut):
        calls.append(cut)
        return reach(self, cut)

    monkeypatch.setattr(netmodel._Context, "_reach", counted)
    assert sum(1 for _ in netmodel.enumerate_cut_sets(model)) == 2047
    # A walk over every edge subset would take 2^20 - 1 passes.
    assert len(calls) < 20_000


def test_i_memo_stays_under_its_cap():
    # Streaming every cut set of the 18-edge model asks for I of all 2^18 - 1 masks.
    model = netmodel.model_from_dict(grown_layered_doc(2))
    assert sum(1 for _ in netmodel.enumerate_cut_sets(model)) == 252_301
    assert 0 < len(netmodel._context(model)._i_cache) <= netmodel.I_CACHE_CAP


def test_partition_search_is_unchanged_when_the_i_memo_empties(monkeypatch):
    model = layered_sum_model()
    want = bounds.enumerate_pairs(model)
    memo = netmodel._context(model)._i_cache
    memo.clear()
    monkeypatch.setattr(netmodel, "I_CACHE_CAP", 5)
    assert bounds.enumerate_pairs(model) == want
    assert len(memo) <= 5


def _graph_fields(cg):
    g = cg.graph
    return (
        cg.order, cg.assignments, cg.layers, cg.masks, g.vertices, g.dist, g.scale,
        g.adjacency_masks(),
    )


def _fresh(model):
    """The same model with no context, so no shared vertex table."""
    return dataclasses.replace(model)


def test_shared_vertex_tables_build_what_a_fresh_model_builds():
    # Every pair is built on one model that has built every earlier pair, and
    # on a model of its own; the graphs must agree field by field.
    rng = random.Random(601)
    models = [diamond_model(), layered_sum_model()] + [random_model(rng) for _ in range(50)]
    pairs = 0
    for model in models:
        for pair in bounds.enumerate_pairs(model):
            shared = chargraph.build(model, pair)
            assert _graph_fields(shared) == _graph_fields(chargraph.build(_fresh(model), pair))
            pairs += 1
        assert netmodel._context(model).tables
    assert pairs == 1134 + 3603  # the layered sum, the diamond and the 50 draws


def test_shared_vertex_tables_stay_under_the_cap(monkeypatch):
    model = diamond_model()
    tables = netmodel._context(model).tables
    monkeypatch.setattr(netmodel, "I_CACHE_CAP", 3)
    for pair in bounds.enumerate_pairs(model):
        for k in (1, 2):
            want = chargraph.build(_fresh(model), pair, k)
            assert _graph_fields(chargraph.build(model, pair, k)) == _graph_fields(want)
            assert 0 < len(tables) <= 3


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
    assert len(blocks) == netmodel.block_count(2, 2, 2, 16, "blocks", errors.DomainTooLarge) == 16
    assert blocks[0] == ((0, 0), (0, 0))
    assert blocks[1] == ((0, 0), (0, 1))
    assert blocks[-1] == ((1, 1), (1, 1))
    assert netmodel.format_assignment(blocks[5], 2) == "0101"


@pytest.mark.parametrize("k", [0, -1])
def test_block_count_refuses_k_below_1(k):
    with pytest.raises(errors.UsageError, match="^k must be at least 1$"):
        netmodel.block_count(2, 3, k, netmodel.DOMAIN_CAP, "blocks", errors.DomainTooLarge)


def test_block_count_accepts_the_cap_and_refuses_one_past_it():
    # The power decides 3^4 against 81 and 80; the bit length refuses 2^21 over 2^21 - 1.
    assert netmodel.block_count(3, 2, 2, 81, "blocks", errors.DomainTooLarge) == 81
    with pytest.raises(errors.DomainTooLarge, match=r"^3\^\(2\*2\) blocks exceed the cap of 80$"):
        netmodel.block_count(3, 2, 2, 80, "blocks", errors.DomainTooLarge)
    assert netmodel.block_count(2, 3, 7, 2**21, "vertices", errors.TooLarge) == 2**21
    with pytest.raises(errors.TooLarge, match=r"^2\^\(7\*3\) vertices exceed the cap of 2097151$"):
        netmodel.block_count(2, 3, 7, 2**21 - 1, "vertices", errors.TooLarge)


def test_block_count_of_no_sources_is_one():
    assert netmodel.block_count(5, 0, 3, 1, "blocks", errors.DomainTooLarge) == 1


def test_block_count_refuses_a_huge_k_without_forming_the_power():
    # 3^(3 * 10^18) has no memory to live in: the refusal must come first.
    message = r"^3\^\(1000000000000000000\*3\) blocks exceed the cap of 1048576$"
    with pytest.raises(errors.DomainTooLarge, match=message):
        netmodel.block_count(3, 3, 10**18, netmodel.DOMAIN_CAP, "blocks", errors.DomainTooLarge)


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
