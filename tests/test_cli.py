"""End-to-end CLI behavior: envelopes, exit codes, determinism.

Every invocation goes through ``main(argv)`` in process; stdout is parsed
back from JSON.  Reports must be byte-identical across repeated runs with
the same inputs, usage problems must exit 2 with a one-line diagnostic on
stderr, and size-cap violations must exit 3.
"""

import ast
import contextlib
import enum
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conftest import grown_layered_doc, random_model, threshold_edges
from netfuncomp import bounds, chargraph, cli, codesim, entropy, netmodel, pgraph
from netfuncomp.examples import diamond_model, layered_sum_model, single_edge_model
from oracles import code_to_dict


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    diamond = base / "diamond.json"
    diamond.write_text(json.dumps(netmodel.model_to_dict(diamond_model())))
    single = base / "single.json"
    single.write_text(json.dumps(netmodel.model_to_dict(single_edge_model())))
    cyclic = base / "cyclic.json"
    doc = netmodel.model_to_dict(diamond_model())
    doc["nodes"].append("v3")
    doc["edges"].append({"id": "e7", "tail": "v1", "head": "v3"})
    doc["edges"].append({"id": "e8", "tail": "v3", "head": "v1"})
    cyclic.write_text(json.dumps(doc))
    broken = base / "broken.json"
    broken.write_text("{not json")
    pentagon = base / "pentagon.json"
    pentagon.write_text(
        json.dumps(
            {
                "vertices": ["a", "b", "c", "d", "e"],
                "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]],
                "dist": [0.2] * 5,
            }
        )
    )
    return {
        "diamond": str(diamond),
        "single": str(single),
        "cyclic": str(cyclic),
        "broken": str(broken),
        "pentagon": str(pentagon),
        "base": base,
    }


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_validate_reports_model_shape(capsys, paths):
    rc, out, err = run(capsys, "validate", paths["diamond"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["tool"] == "netfuncomp"
    assert doc["command"] == "validate"
    assert doc["result"]["valid"] is True
    assert doc["result"]["edges"] == 6
    assert doc["result"]["sources"] == ["s1", "s2", "s3"]


def test_broken_json_exits_2(capsys, paths):
    rc, out, err = run(capsys, "validate", paths["broken"])
    assert rc == 2
    assert out == ""
    assert err.startswith("netfuncomp: UsageError:")


def test_cyclic_model_exits_2(capsys, paths):
    rc, _, err = run(capsys, "validate", paths["cyclic"])
    assert rc == 2
    assert err.startswith("netfuncomp: CycleDetected:")


def test_cuts_lists_strong_partitions(capsys, paths):
    rc, out, _ = run(capsys, "cuts", paths["diamond"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["count"] == len(result["cut_sets"])
    by_cut = {tuple(c["cut"]): c for c in result["cut_sets"]}
    assert ("e2",) not in by_cut
    sink_cut = by_cut[("e5", "e6")]
    assert sink_cut["global"] is True
    assert sink_cut["i_set"] == ["s1", "s2", "s3"]
    assert sink_cut["strong_partitions"] == [[["e5", "e6"]], [["e5"], ["e6"]]]
    side = by_cut[("e5",)]
    assert side["i_set"] == ["s1"] and side["j_set"] == ["s2"]


def test_classes_with_side_information(capsys, paths):
    rc, out, _ = run(
        capsys, "classes", paths["diamond"], "--i", "s1", "--j", "s2", "--aj", "0"
    )
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["num_classes"] == 2
    assert result["classes"] == [["0"], ["1"]]


def test_classes_with_an_empty_j_is_classes_without_j(capsys, paths):
    omitted = run(capsys, "classes", paths["diamond"], "--i", "s1,s2")
    assert omitted[0] == 0
    assert run(capsys, "classes", paths["diamond"], "--i", "s1,s2", "--j", "") == omitted


@pytest.mark.parametrize(
    "given, canonical",
    [
        (["--cut", " e6, e5 ,"], ["--cut", "e5,e6"]),
        (["--cut", "e5,e6", "--blocks", "e6 / e5"], ["--cut", "e5,e6", "--blocks", "e5/e6"]),
        (["--cut", "e4,e3,e2,e1", "--blocks", "e4/e3,e1,e2"],
         ["--cut", "e1,e2,e3,e4", "--blocks", "e1,e2,e3/e4"]),
    ],
)
def test_chargraph_id_lists_are_normalised(capsys, paths, given, canonical):
    want = run(capsys, "chargraph", paths["diamond"], *canonical)
    assert want[0] == 0
    assert run(capsys, "chargraph", paths["diamond"], *given) == want


def test_chargraph_layers_and_dot_export(capsys, paths):
    dot_dir = str(paths["base"] / "dots")
    rc, out, _ = run(
        capsys,
        "chargraph",
        paths["diamond"],
        "--cut",
        "e5,e6",
        "--blocks",
        "e5/e6",
        "--dot",
        dot_dir,
    )
    assert rc == 0
    result = json.loads(out)["result"]
    assert len(result["graph"]["vertices"]) == 8
    assert len(result["graph"]["edges"]) == 24
    assert result["graph"]["dist"] == [0.125] * 8
    assert result["layer_certificate"]["ok"] is True
    assert os.path.exists(os.path.join(dot_dir, "chargraph_e5_e6_k1.dot"))


def _forbid_vertex_passes(monkeypatch):
    def vertex_pass(*args):
        raise AssertionError("a vertex pass ran before the caps")

    for name in ("_marginal_numerators", "enumerate_assignments", "_layer_coords"):
        monkeypatch.setattr(chargraph, name, vertex_pass)


def test_chargraph_size_cap_exits_3(capsys, monkeypatch, paths):
    _forbid_vertex_passes(monkeypatch)
    rc, out, err = run(
        capsys, "chargraph", paths["diamond"], "--cut", "e5,e6", "--k", "8"
    )
    assert (rc, out) == (3, "")
    assert err == "netfuncomp: TooLarge: 2^(8*3) vertices exceed the cap of 16384\n"


def test_chargraph_domain_cap_refuses_before_any_vertex_pass(capsys, monkeypatch, paths):
    # Cut e5 at k = 7 has exactly VERTEX_CAP vertices, over 2^21 blocks.
    cap = chargraph.VERTEX_CAP
    assert netmodel.block_count(2, 2, 7, cap, "vertices", chargraph.TooLarge) == cap
    _forbid_vertex_passes(monkeypatch)
    rc, out, err = run(capsys, "chargraph", paths["diamond"], "--cut", "e5", "--k", "7")
    assert (rc, out) == (3, "")
    assert err == "netfuncomp: DomainTooLarge: 2^(7*3) blocks exceed the cap of 1048576\n"


@pytest.fixture(scope="module")
def sum_q3(paths):
    """The diamond over {0, 1, 2} with the sum target, as a model file."""
    doc = netmodel.model_to_dict(diamond_model())
    sums = [a + b + c for a in range(3) for b in range(3) for c in range(3)]
    doc.update(alphabet=3, function=sums, distribution=[1 / 27] * 27)
    path = paths["base"] / "sum_q3.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "model,argv,message",
    [
        (
            "diamond",
            ["chargraph", "--cut", "e5,e6", "--k", "5000"],
            "TooLarge: 2^(5000*3) vertices exceed the cap of 16384",
        ),
        (
            "sum_q3",
            ["chargraph", "--cut", "e5,e6", "--k", "1000000"],
            "TooLarge: 3^(1000000*3) vertices exceed the cap of 16384",
        ),
        (
            "sum_q3",
            ["classes", "--i", "s1", "--k", "3000000"],
            "DomainTooLarge: 3^(3000000*3) blocks exceed the cap of 1048576",
        ),
    ],
    ids=["chargraph-diamond", "chargraph-sum-q3", "classes-sum-q3"],
)
def test_huge_k_is_refused_before_the_power_is_formed(capsys, paths, sum_q3, model, argv, message):
    # Each block count has thousands of digits or more: printing one would
    # pass the int-to-str limit, and forming 3^9000000 alone takes seconds.
    model_path = sum_q3 if model == "sum_q3" else paths[model]
    assert run(capsys, argv[0], model_path, *argv[1:]) == (3, "", f"netfuncomp: {message}\n")


def test_chargraph_report_edge_cap_exits_3(capsys, paths):
    # k = 4 on the sink cut has 8,316,928 edges; k = 3 has 127,680.
    dot_dir = paths["base"] / "dots_k4"
    for extra in ([], ["--dot", str(dot_dir)]):
        rc, out, err = run(
            capsys, "chargraph", paths["diamond"], "--cut", "e5,e6", "--blocks", "e5/e6",
            "--k", "4", *extra,
        )
        assert (rc, out) == (3, "")
        assert err == "netfuncomp: TooLarge: 8316928 edges exceed the report cap of 1048576\n"
    assert not dot_dir.exists()


def test_chargraph_report_edge_cap_is_inclusive(capsys, monkeypatch, paths):
    # The sink cut's two-block graph has 24 edges.
    argv = ["chargraph", paths["diamond"], "--cut", "e5,e6", "--blocks", "e5/e6"]
    monkeypatch.setattr(chargraph, "REPORT_EDGE_CAP", 24)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and len(json.loads(out)["result"]["graph"]["edges"]) == 24
    monkeypatch.setattr(chargraph, "REPORT_EDGE_CAP", 23)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (3, "", "netfuncomp: TooLarge: 24 edges exceed the report cap of 23\n")


def test_entropy_on_pentagon(capsys, paths):
    rc, out, _ = run(capsys, "entropy", paths["pentagon"])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["clique_entropy"] == pytest.approx(1.0, abs=1e-9)
    assert result["graph_entropy"] == pytest.approx(math.log2(2.5), abs=1e-9)
    assert result["chromatic_entropy"] == pytest.approx(
        1.0 + math.log2(2.5) - 0.8, abs=1e-9
    )
    assert result["certificate"]["kind"] == "Opaque"
    gap = result["certificate"]["gap"]
    assert gap <= 1e-9
    assert result["status"]["clique"] == f"ok (gap {gap:.3g} bits)"
    assert result["status"]["graph"].startswith("ok (gap ")
    assert result["status"]["chromatic"] == "ok"


def _graph_file(base, name, vertices, edges):
    dist = [1 / len(vertices)] * len(vertices)
    path = base / f"{name}.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges, "dist": dist}))
    return str(path), pgraph.ProbGraph(vertices, edges, dist)


def test_entropy_reports_capped_chromatic_entropy(capsys, paths):
    left, right = [f"a{i}" for i in range(6)], [f"b{i}" for i in range(7)]
    path, g = _graph_file(
        paths["base"], "k6_7", left + right, [[u, v] for u in left for v in right]
    )
    rc, out, _ = run(capsys, "entropy", path)
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["chromatic_entropy"] is None
    assert result["methods"]["chromatic"] is None
    assert result["status"]["chromatic"].startswith("capped: 13 positive-mass vertices")
    assert result["status"]["graph"] == result["status"]["clique"] == "ok"
    assert result["clique_entropy"] == pytest.approx(entropy.clique_entropy(g).value, abs=1e-12)
    assert result["graph_entropy"] == pytest.approx(entropy.graph_entropy(g).value, abs=1e-12)


def test_entropy_with_every_quantity_capped_exits_3(capsys, paths):
    cycle = [f"v{i}" for i in range(21)]
    path, _ = _graph_file(
        paths["base"], "cycle21", cycle, [[cycle[i - 1], cycle[i]] for i in range(21)]
    )
    rc, out, err = run(capsys, "entropy", path)
    assert rc == 3
    assert out == ""
    assert err.startswith("netfuncomp: TooLarge:")


def test_entropy_at_the_depth_cap_is_reported(capsys, paths):
    n = entropy.DEPTH_CAP + 1
    path, g = _graph_file(paths["base"], f"threshold{n}", list(range(n)), threshold_edges(n))
    rc, out, err = run(capsys, "entropy", path)
    assert rc == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["status"]["chromatic"].startswith("capped: ")
    assert result["status"]["graph"] == result["status"]["clique"] == "ok"
    assert result["clique_entropy"] == pytest.approx(entropy.clique_entropy(g).value, abs=1e-12)


@pytest.mark.parametrize("n", [entropy.DEPTH_CAP + 2, 340, 400])
def test_entropy_past_the_depth_cap_exits_3_in_one_line(capsys, paths, n):
    path, _ = _graph_file(paths["base"], f"threshold{n}", list(range(n)), threshold_edges(n))
    rc, out, err = run(capsys, "entropy", path)
    assert rc == 3 and out == ""
    assert err.startswith("netfuncomp: TooLarge: chromatic entropy capped: ")
    assert err.count(f"depth cap of {entropy.DEPTH_CAP} levels") == 2
    assert err.count("\n") == 1


def test_bad_side_information_block_exits_2(capsys, paths):
    rc, out, err = run(
        capsys, "classes", paths["diamond"], "--i", "s1", "--j", "s2", "--aj", "x"
    )
    assert rc == 2 and out == ""
    assert err.startswith("netfuncomp: UsageError: assignment 'x'")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "k,rc,message",
    [
        ("0", 2, "UsageError: k must be at least 1"),
        ("30", 3, "DomainTooLarge: 2^(30*3) blocks exceed the cap of 1048576"),
    ],
)
def test_classes_checks_k_before_the_side_information_block(capsys, paths, k, rc, message):
    argv = ("classes", paths["diamond"], "--i", "s1", "--j", "s2", "--aj", "0", "--k", k)
    assert run(capsys, *argv) == (rc, "", f"netfuncomp: {message}\n")


def test_bounds_without_a_cut_set_in_reach_exits_2(capsys, paths):
    # Two parallel edges from the one source: no single edge is a cut set.
    model = {
        "alphabet": 2,
        "nodes": ["s", "t"],
        "edges": [{"id": "a", "tail": "s", "head": "t"}, {"id": "b", "tail": "s", "head": "t"}],
        "sources": ["s"],
        "sink": "t",
        "function": [0, 1],
        "distribution": [0.5, 0.5],
    }
    path = paths["base"] / "parallel.json"
    path.write_text(json.dumps(model))
    assert run(capsys, "bounds", str(path), "--max-cut-size", "1") == (
        2, "", "netfuncomp: UsageError: no cut/partition pairs to evaluate\n"
    )
    rc, out, _ = run(capsys, "cuts", str(path), "--max-cut-size", "1")
    assert rc == 0 and json.loads(out)["result"]["count"] == 0


@pytest.mark.parametrize(
    "argv,doc,message",
    [
        (["bounds", "{diamond}", "--max-cut-size", "0"], None, "max_size must be in 1..6"),
        (["chargraph", "{diamond}", "--cut", ","], None, "empty cut"),
        (
            ["chargraph", "{diamond}", "--cut", "e5,e6", "--blocks", "e5/e6", "--k", "0"],
            None,
            "k must be at least 1",
        ),
        (
            ["chargraph", "{diamond}", "--cut", "e5,e6", "--blocks", "e5/e6", "--k", "-1"],
            None,
            "k must be at least 1",
        ),
        (
            ["chargraph", "{diamond}", "--cut", "e1,e2", "--blocks", "e1/e2"],
            None,
            "e1/e2 is not a strong partition of ('e1', 'e2')",
        ),
        (
            ["chargraph", "{diamond}", "--cut", "e5,e6", "--blocks", ""],
            None,
            "'' is not a strong partition of ('e5', 'e6')",
        ),
        (
            ["bounds", "{diamond}", "--pairs", "{file}"],
            {"cut": ["e5", "e6"], "blocks": [["e5"], ["e6"]]},
            "--pairs file must hold a JSON list",
        ),
        (
            ["entropy", "{file}"],
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "dist": [1.0]},
            "distribution length does not match vertex count",
        ),
        (
            ["entropy", "{file}"],
            {"vertices": ["a", "b"], "edges": [["a", "b"]]},
            "malformed graph document: 'dist'",
        ),
        (
            ["entropy", "{file}"],
            {"vertices": [1, 2], "edges": [], "dist": [float("nan"), 1]},
            "vertex masses must be nonnegative and sum to 1, got nan",
        ),
        (
            ["entropy", "{file}"],
            {"vertices": [1, 2, 3], "edges": [], "dist": [2, -1, -1]},
            "vertex 2 has the negative mass -1.0",
        ),
        (
            ["entropy", "{file}"],
            {"vertices": [1, 2], "edges": [[1, 3]], "dist": [0.5, 0.5]},
            "edge (1, 3) names the unlisted vertex 3",
        ),
        (["simulate", "--builtin", "nope"], None, "unknown builtin scheme 'nope'"),
        (["simulate", "--code", "{file}"], {}, "simulate --code needs a model file"),
    ],
    ids=[
        "max-cut-size-0",
        "empty-cut",
        "chargraph-k-0",
        "chargraph-k-negative",
        "weak-blocks",
        "empty-blocks",
        "pairs-not-a-list",
        "short-dist",
        "no-dist",
        "nan-mass",
        "negative-mass",
        "edge-to-unlisted-vertex",
        "unknown-builtin",
        "code-without-model",
    ],
)
def test_refused_arguments_exit_2(capsys, paths, argv, doc, message):
    path = paths["base"] / "refused.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, *(a.format(diamond=paths["diamond"], file=path) for a in argv))
    assert rc == 2 and out == ""
    assert err.startswith(f"netfuncomp: UsageError: {message}")
    assert err.count("\n") == 1


def test_entropy_edge_with_three_ends_exits_2(capsys, paths):
    good = {"vertices": ["a", "b", "c"], "edges": [["a", "b"]], "dist": [0.5, 0.25, 0.25]}
    path = paths["base"] / "three_ends.json"
    for changes in (
        {"edges": [["a", "b", "c"]]},
        {"edges": ["ab"]},
        {"vertices": "ab", "dist": [0.5, 0.5]},
        {"vertices": ["a", "b"], "dist": [True, False]},
    ):
        path.write_text(json.dumps({**good, **changes}))
        rc, out, err = run(capsys, "entropy", str(path))
        assert rc == 2 and out == ""
        assert err.startswith("netfuncomp: UsageError: malformed graph document")
        assert err.count("\n") == 1


_DIAMOND_EDGES = netmodel.model_to_dict(diamond_model())["edges"]


def _model_file(base, name, **changes):
    doc = {**netmodel.model_to_dict(diamond_model()), **changes}
    path = base / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"function": [[0], 1, 1, 0, 1, 0, 0, 1]}, "function table entry 0 must be a JSON scalar"),
        ({"alphabet": 2.5}, "alphabet must be an integer"),
        ({"alphabet": "2"}, "alphabet must be an integer"),
        ({"distribution": ["0.125"] * 8}, "distribution entries must be numbers"),
        ({"distribution": [True] + [0.125] * 7}, "distribution entries must be numbers"),
        ({"function": "01121223"}, "function must be a list"),
        ({"sources": "s1"}, "sources must be a list"),
        ({"alphabet": 1}, "alphabet size must be at least 2"),
        ({"nodes": ["s1", "s2", "s3", "v1", "v2", "t", "s1"]}, "duplicate node names"),
        ({"edges": _DIAMOND_EDGES + _DIAMOND_EDGES[:1]}, "duplicate edge ids"),
        (
            {"edges": _DIAMOND_EDGES + [{"id": "e7", "tail": "v1", "head": "x"}]},
            "edge e7 references unknown node",
        ),
        ({"sources": []}, "at least one source is required"),
        ({"sources": ["s1", "s2", "s2"]}, "duplicate sources"),
        ({"sink": "x"}, "sources and sink must be nodes"),
        ({"sources": ["s1", "s2", "x"]}, "sources and sink must be nodes"),
        ({"sources": ["s1", "s2", "t"]}, "the sink cannot be a source"),
        ({"distribution": [0.25] * 4}, "distribution must have 2^3 entries, got 4"),
    ],
    ids=[
        "list-function-entry",
        "fractional-alphabet",
        "string-alphabet",
        "string-distribution-entries",
        "bool-distribution-entry",
        "string-function",
        "string-sources",
        "unary-alphabet",
        "duplicate-node",
        "duplicate-edge-id",
        "edge-to-unknown-node",
        "no-sources",
        "duplicate-source",
        "sink-not-a-node",
        "source-not-a-node",
        "sink-as-source",
        "short-distribution",
    ],
)
def test_malformed_model_document_exits_2(capsys, paths, changes, message):
    path = _model_file(paths["base"], "malformed_model", **changes)
    rc, out, err = run(capsys, "validate", path)
    assert rc == 2 and out == ""
    assert err.startswith(f"netfuncomp: UsageError: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("q,n_sources", [(10**9, 500), (2, 5000)])
def test_model_whose_table_size_has_thousands_of_digits_exits_2(capsys, paths, q, n_sources):
    # q^s in decimal would pass the int-to-str digit limit, so it is written as a power.
    sources = [f"s{i}" for i in range(n_sources)]
    path = paths["base"] / "huge_table.json"
    path.write_text(json.dumps({
        "alphabet": q,
        "nodes": [*sources, "t"],
        "edges": [{"id": f"e{i}", "tail": s, "head": "t"} for i, s in enumerate(sources)],
        "sources": sources,
        "sink": "t",
        "function": [0, 1],
        "distribution": [0.5, 0.5],
    }))
    message = f"function table must have {q}^{n_sources} entries, got 2"
    assert run(capsys, "validate", str(path)) == (2, "", f"netfuncomp: UsageError: {message}\n")


def test_cut_enumeration_over_the_edge_cap_exits_3(capsys, paths):
    # One source feeding the sink over 21 parallel edges: valid, one edge too many.
    edges = [{"id": f"e{i:02d}", "tail": "s", "head": "t"} for i in range(netmodel.EDGE_CAP + 1)]
    path = paths["base"] / "wide.json"
    path.write_text(json.dumps({
        "alphabet": 2, "nodes": ["s", "t"], "edges": edges, "sources": ["s"], "sink": "t",
        "function": [0, 1], "distribution": [0.5, 0.5],
    }))
    rc, out, err = run(capsys, "validate", str(path))
    assert rc == 0 and json.loads(out)["result"]["edges"] == 21
    for command in ("cuts", "bounds"):
        rc, out, err = run(capsys, command, str(path))
        assert rc == 3 and out == ""
        assert err.startswith("netfuncomp: TooLarge: 21 edges")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["bounds", "cuts"])
def test_pair_search_over_the_cap_is_refused_before_the_work(capsys, monkeypatch, paths, command):
    doc = grown_layered_doc(2)
    assert len(doc["edges"]) == 18
    path = paths["base"] / "layered_18.json"
    path.write_text(json.dumps(doc))
    enumerated = []
    partitions = bounds.enumerate_strong_partitions

    def counted(model, cut):
        parts = partitions(model, cut)
        enumerated.append(len(parts))
        return parts

    monkeypatch.setattr(bounds, "enumerate_strong_partitions", counted)
    rc, out, err = run(capsys, command, str(path))
    assert rc == 3 and out == ""
    assert err.startswith(f"netfuncomp: SearchSpaceExceeded: more than {bounds.PAIR_CAP} ")
    assert err.count("\n") == 1
    assert bounds.PAIR_CAP < sum(enumerated) <= bounds.PAIR_CAP + 1


def test_grid_oracle_flag_is_gone(capsys, paths):
    for argv in (["bounds", paths["diamond"]], ["example", "diamond", "--bounds"]):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--grid-oracle"])
        assert info.value.code == 2
        _, err = capsys.readouterr()
        assert "unrecognized arguments: --grid-oracle" in err


def test_bounds_csv_on_single_edge(capsys, paths):
    rc, out, _ = run(capsys, "bounds", paths["single"], "--csv")
    assert rc == 0
    assert out == "cut,blocks,basic,improved,fixed_length\ne1,e1,1,1,1\n"


def test_bounds_reports_are_byte_identical(capsys, paths):
    rc1, out1, _ = run(capsys, "bounds", paths["diamond"])
    rc2, out2, _ = run(capsys, "bounds", paths["diamond"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["result"]["basic"] == pytest.approx(
        7 / 4 - (3 / 8) * math.log2(3), abs=1e-12
    )
    assert doc["result"]["witness"]["basic"]["cut"] == ["e5", "e6"]
    assert len(doc["result"]["pairs"]) == 118


def test_bounds_report_lists_each_graph_once(capsys, paths):
    rc, out, _ = run(capsys, "bounds", paths["diamond"])
    assert rc == 0
    result = json.loads(out)["result"]
    rows, graphs = result["pairs"], result["graphs"]
    assert len(rows) == 118 and len(graphs) == 21
    keys = [(e["i_set"], e["j_set"], e["l_set"], e["i_sets"]) for e in graphs]
    assert len(set(map(json.dumps, keys))) == 21
    for row in rows:
        assert 0 <= row["graph"] < len(graphs)
        entry, size = graphs[row["graph"]], len(row["cut"])
        assert abs(row["basic"] - entry["clique_entropy"] / size) <= 1e-12
        assert abs(row["improved"] - entry["improved_value"] / size) <= 1e-12
        assert abs(row["fixed_length"] - math.log2(entry["count"]) / size) <= 1e-12
    assert all(entry.get("gap", 0.0) <= 1e-9 for entry in graphs)


def test_simulate_builtin_scheme(capsys):
    rc, out, _ = run(capsys, "simulate", "--builtin", "diamond", "--k", "2")
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["admissible"] is True
    assert result["max_rate"] == 1.25
    assert result["non_ud_edges"] == []


def test_simulate_code_file(capsys, paths):
    model = diamond_model()
    code = codesim.huffman_transform(model, codesim.diamond_scheme(2))
    code_path = paths["base"] / "code.json"
    code_path.write_text(json.dumps(code_to_dict(model, code)))
    rc, out, _ = run(capsys, "simulate", paths["diamond"], "--code", str(code_path))
    assert rc == 0
    assert json.loads(out)["result"]["max_rate"] == 1.25


def test_simulate_code_with_an_unhashable_decoder_value_is_not_admissible(capsys, paths):
    # A list in a decoder output equals no target value, so the entry is wrong.
    model = diamond_model()
    doc = code_to_dict(model, codesim.huffman_transform(model, codesim.diamond_scheme(2)))
    doc["decoder"][next(iter(doc["decoder"]))] = [[0], 1]
    code_path = paths["base"] / "unhashable_decoder.json"
    code_path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "simulate", paths["diamond"], "--code", str(code_path))
    assert rc == 0
    assert json.loads(out)["result"]["admissible"] is False


def test_simulate_code_with_bad_source_key_exits_2(capsys, paths):
    model = diamond_model()
    good = code_to_dict(model, codesim.huffman_transform(model, codesim.diamond_scheme(2)))
    code_path = paths["base"] / "bad_code.json"
    # Not a symbol, one symbol short of k = 2, and a symbol outside q = 2.
    for key in ("a", "0", "20"):
        doc = json.loads(json.dumps(good))
        doc["encoders"]["e1"][key] = "0"
        code_path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "simulate", paths["diamond"], "--code", str(code_path))
        assert rc == 2 and out == ""
        assert err.startswith(f"netfuncomp: UsageError: edge e1: source key {key!r}")
        assert err.count("\n") == 1


def _bad_decoder_list(doc):
    doc["decoder"] = list(doc["decoder"].items())


def _bad_decoder_entry(doc):
    doc["decoder"][next(iter(doc["decoder"]))] = 3


def _bad_encoder_table(doc):
    doc["encoders"]["e5"] = list(doc["encoders"]["e5"].values())


def _bad_k(doc):
    doc["k"] = 0


def _fractional_k(doc):
    doc["k"] = 2.7


def _encoders_list(doc):
    doc["encoders"] = list(doc["encoders"].values())


def _numeric_words(doc):
    # JSON numbers are not codewords, even when their digits are binary.
    doc["encoders"]["e1"] = {key: int(w) for key, w in doc["encoders"]["e1"].items()}


def _builtin_reference(doc):
    # The builtin scheme is named with --builtin; a code file holds tables only.
    doc.clear()
    doc.update(builtin="diamond", k=2)


@pytest.mark.parametrize(
    "corrupt",
    [
        _bad_decoder_list,
        _bad_decoder_entry,
        _bad_encoder_table,
        _bad_k,
        _fractional_k,
        _encoders_list,
        _numeric_words,
        _builtin_reference,
    ],
)
def test_simulate_malformed_code_document_exits_2(capsys, paths, corrupt):
    model = diamond_model()
    doc = code_to_dict(model, codesim.huffman_transform(model, codesim.diamond_scheme(2)))
    corrupt(doc)
    code_path = paths["base"] / f"{corrupt.__name__}.json"
    code_path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "simulate", paths["diamond"], "--code", str(code_path))
    assert rc == 2 and out == ""
    assert err.startswith("netfuncomp: UsageError: ")
    assert err.count("\n") == 1


def test_simulate_code_with_numeric_words_names_the_edge(capsys, paths):
    code_path = paths["base"] / "numeric_words.json"
    doc = {"k": 1, "encoders": {"e1": {"0": 0, "1": 10}}, "decoder": {}}
    code_path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "simulate", paths["single"], "--code", str(code_path))
    assert rc == 2 and out == ""
    assert err == "netfuncomp: UsageError: code document: edge e1 word 0 must be a string\n"


def _empty_e3_table(doc):
    doc["encoders"]["e3"] = {}


def _first_e5_word_as(word):
    def corrupt(doc):
        table = doc["encoders"]["e5"]
        old = next(iter(table.values()))
        doc["encoders"]["e5"] = {key: word if w == old else w for key, w in table.items()}

    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_empty_e3_table, "UsageError: edge e3: empty code"),
        (_first_e5_word_as("2"), "UsageError: edge e5: non-binary codeword '2'"),
        (_first_e5_word_as(""), "EmptyWord: edge e5: codes must not contain the empty word"),
    ],
    ids=["empty-code", "non-binary-word", "empty-word"],
)
def test_simulate_code_check_names_the_edge(capsys, paths, corrupt, message):
    model = diamond_model()
    doc = code_to_dict(model, codesim.huffman_transform(model, codesim.diamond_scheme(2)))
    corrupt(doc)
    code_path = paths["base"] / "bad_words.json"
    code_path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "simulate", paths["diamond"], "--code", str(code_path))
    assert rc == 2 and out == ""
    assert err == f"netfuncomp: {message}\n"


def test_simulate_code_for_another_alphabet_exits_2(capsys, paths):
    # Built over {0, 1}, the k = 2 code has no word for a column holding a 2;
    # the first such column in sweep order is the third source's (0, 2).
    doc = netmodel.model_to_dict(diamond_model())
    sums = [a + b + c for a in range(3) for b in range(3) for c in range(3)]
    doc.update(alphabet=3, function=sums, distribution=[1 / 27] * 27)
    model_path = paths["base"] / "ternary_diamond.json"
    model_path.write_text(json.dumps(doc))
    model = diamond_model()
    code_path = paths["base"] / "binary_code.json"
    code_path.write_text(
        json.dumps(code_to_dict(model, codesim.huffman_transform(model, codesim.diamond_scheme(2))))
    )
    rc, out, err = run(capsys, "simulate", str(model_path), "--code", str(code_path))
    assert rc == 2 and out == ""
    assert err == "netfuncomp: DomainMismatch: edge e4 has no entry for (0, 2)\n"


def test_simulate_over_the_block_cap_exits_3(capsys):
    rc, out, err = run(capsys, "simulate", "--builtin", "diamond", "--k", "10")
    assert rc == 3 and out == ""
    assert err.startswith("netfuncomp: DomainTooLarge: ")
    assert err.count("\n") == 1


def test_simulate_code_whose_decoder_keys_span_too_many_word_tuples_exits_3(capsys, paths):
    # 4,200 words on each of e5 and e6 span 4,200^2 = 17,640,000 decoder keys,
    # past MAX_BLOCKS = 2^24.  Their one-word keys fit no relay's two in-edges,
    # so the relay tables stay empty and only the decoder outgrows the cap.
    model = diamond_model()
    doc = code_to_dict(model, codesim.huffman_transform(model, codesim.diamond_scheme(2)))
    for eid in ("e5", "e6"):
        doc["encoders"][eid] = {f"x{i}": format(i, "013b") for i in range(4200)}
    code_path = paths["base"] / "wide_decoder.json"
    code_path.write_text(json.dumps(doc))
    message = "decoder keys span 17640000 upstream word tuples, above the cap of 16777216"
    assert run(capsys, "simulate", paths["diamond"], "--code", str(code_path)) == (
        3, "", f"netfuncomp: DomainTooLarge: {message}\n"
    )


def test_python_dash_m_runs_the_cli(capsys):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    argv = ["simulate", "--builtin", "diamond", "--k", "2"]
    done = subprocess.run(
        [sys.executable, "-m", "netfuncomp", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and done.stdout == out


def test_closed_stdout_exits_141_quietly():
    # The layered-sum report (about 0.5 MB) outgrows a 64 KiB pipe buffer,
    # so the writer is still writing when the reader goes away.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "netfuncomp", "example", "layered-sum", "--bounds"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141 and err == b""


def test_traced_names_resolve():
    # bench/tracing.py wraps package functions by name; a rename would break --trace 1.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "tracing.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets)
    ]
    assert wrapped
    for module, name in wrapped:
        assert hasattr(importlib.import_module(f"netfuncomp.{module}"), name), (module, name)
    model = diamond_model()
    part = netmodel.enumerate_strong_partitions(model, ("e5", "e6"))[1]
    assert chargraph.build(model, part).cut is part.cut


def _names(node) -> set[str]:
    """Every ``Name`` id and ``Attribute`` attr under ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_shipped_definition_has_a_caller():
    # Test-only oracles live in tests/oracles.py; the package ships what the
    # CLI, module-level code or the benchmark's traced names can reach.
    root = Path(__file__).resolve().parents[1]
    tracing = ast.parse((root / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in tracing.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets)
    ]
    defs: dict[str, list] = {}
    referenced = {name for _, name in wrapped}
    for path in sorted((root / "src" / "netfuncomp").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((f"{path.stem}.{node.name}", node))
                if (path.stem, node.name) == ("cli", "main"):
                    referenced |= _names(node)
            else:
                referenced |= _names(node)
    reached: set[str] = set()
    while True:
        fresh = (referenced & defs.keys()) - reached
        if not fresh:
            break
        reached |= fresh
        for name in fresh:
            for _, node in defs[name]:
                referenced |= _names(node)
    unreached = sorted(q for name in defs.keys() - reached for q, _ in defs[name])
    assert not unreached, "no caller: " + ", ".join(unreached)


def test_simulate_requires_a_code_source(capsys, paths):
    rc, _, err = run(capsys, "simulate", paths["diamond"])
    assert rc == 2
    assert err.startswith("netfuncomp: UsageError:")


def test_example_without_bounds(capsys):
    for name, edges in [("single-edge", 1), ("layered-sum", 10)]:
        rc, out, _ = run(capsys, "example", name)
        assert rc == 0
        doc = json.loads(out)
        assert doc["result"]["model"]["alphabet"] == 2
        assert len(doc["result"]["model"]["edges"]) == edges
        assert "bounds" not in doc["result"]


def test_unknown_example_exits_2(capsys):
    rc, _, err = run(capsys, "example", "heptagon")
    assert rc == 2
    assert err.startswith("netfuncomp: UsageError:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("netfuncomp ")


def test_spelled_out_calls_skip_argparse(paths):
    # Building an argparse parser imports locale; a well-formed call needs neither.
    runs = [
        ["validate", paths["diamond"]],
        ["cuts", paths["single"], "--max-cut-size", "1"],
        ["classes", paths["diamond"], "--i", "s1", "--j", "s2", "--aj", "0"],
        ["chargraph", paths["diamond"], "--cut", "e5,e6", "--blocks", "e5/e6"],
        ["entropy", paths["pentagon"]],
        ["bounds", paths["single"], "--csv"],
        ["simulate", "--builtin", "diamond", "--k", "2"],
        ["example", "single-edge", "--bounds"],
    ]
    assert sorted(argv[0] for argv in runs) == sorted(cli._COMMANDS)
    code = (
        "import contextlib, io, json, sys\n"
        "from netfuncomp import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(*codes, 'argparse' in sys.modules, 'locale' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"] * len(runs) + ["False", "False"]


SPELLED_OUT = [
    ["validate", "m.json"],
    ["validate", ""],
    ["bounds", "cuts"],
    ["cuts", "m.json"],
    ["cuts", "--max-cut-size", "2", "m.json"],
    ["cuts", "m.json", "--max-cut-size", "+3"],
    ["cuts", "m.json", "--max-cut-size", " 3"],
    ["cuts", "m.json", "--max-cut-size", "1", "--max-cut-size", "04"],
    ["classes", "m.json", "--i", "s1"],
    ["classes", "m.json", "--i", ""],
    ["classes", "--i", "s1,s2", "--j", "s3", "--aj", "01", "--k", "2", "m.json"],
    ["classes", "m.json", "--k", "3", "--i", "s1", "--k", "1", "--i", "s2"],
    ["chargraph", "m.json", "--cut", "e5,e6"],
    ["chargraph", "--cut", "e5,e6", "--blocks", "e5/e6", "--k", "2", "--dot", "out", "m.json"],
    ["entropy", "g.json"],
    ["bounds", "m.json"],
    ["bounds", "--csv", "m.json"],
    ["bounds", "m.json", "--csv", "--csv"],
    ["bounds", "m.json", "--pairs", "p.json", "--csv", "--max-cut-size", "2"],
    ["simulate"],
    ["simulate", "--builtin", "diamond"],
    ["simulate", "m.json", "--builtin", "diamond", "--k", "6"],
    ["simulate", "--k", "2", "--builtin", "diamond", "m.json"],
    ["simulate", "--code", "c.json", "m.json"],
    ["example", "diamond"],
    ["example", "diamond", "--bounds"],
    ["example", "--bounds", "diamond", "--max-cut-size", "2"],
]

DECLINED = [
    [],
    ["-h"],
    ["--help"],
    ["bounds", "m.json", "-h"],
    ["--version"],
    ["bounds", "m.json", "--version"],
    ["nope", "m.json"],
    ["bounds"],
    ["bounds", "a.json", "b.json"],
    ["simulate", "a.json", "b.json"],
    ["bounds", "m.json", "--max", "3"],
    ["bounds", "m.json", "--max-cut-size=3"],
    ["bounds", "m.json", "--max-cut-size", "-1"],
    ["bounds", "m.json", "--max-cut-size", "x"],
    ["classes", "m.json", "--i", "s1", "--k", "x"],
    ["classes", "m.json", "--i"],
    ["classes", "m.json"],
    ["chargraph", "m.json"],
    ["bounds", "m.json", "--pairs"],
    ["bounds", "m.json", "--bogus"],
    ["bounds", "m.json", "--grid-oracle"],
    ["bounds", "--", "m.json"],
    ["bounds", "-"],
]


@pytest.mark.parametrize("argv", SPELLED_OUT, ids=" ".join)
def test_spelled_out_parse_matches_argparse(argv):
    args = cli._parse_spelled_out(argv)
    assert args is not None
    assert vars(args) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_other_argv_is_left_to_argparse(argv):
    assert cli._parse_spelled_out(argv) is None


def test_pairs_file_restricts_search(capsys, paths):
    pairs_path = paths["base"] / "pairs.json"
    pairs_path.write_text(
        json.dumps([{"cut": ["e5", "e6"], "blocks": [["e5"], ["e6"]]}])
    )
    rc, out, _ = run(
        capsys, "bounds", paths["diamond"], "--pairs", str(pairs_path)
    )
    assert rc == 0
    result = json.loads(out)["result"]
    assert len(result["pairs"]) == 1
    assert result["improved"] == pytest.approx(0.5 * math.log2(5), abs=1e-4)


def test_pairs_entry_in_any_order_selects_the_canonical_pair(capsys, paths):
    results = []
    for cut, blocks in (
        (["e1", "e2", "e3", "e4"], [["e1", "e2", "e3"], ["e4"]]),
        (["e4", "e2", "e3", "e1"], [["e4"], ["e3", "e1", "e2"]]),
    ):
        pairs_path = paths["base"] / "ordered_pairs.json"
        pairs_path.write_text(json.dumps([{"cut": cut, "blocks": blocks}]))
        rc, out, _ = run(capsys, "bounds", paths["diamond"], "--pairs", str(pairs_path))
        assert rc == 0
        results.append(json.loads(out)["result"])
    assert results[0] == results[1]
    [row] = results[1]["pairs"]
    assert row["cut"] == ["e1", "e2", "e3", "e4"]
    assert row["blocks"] == [["e1", "e2", "e3"], ["e4"]]


@pytest.mark.parametrize(
    "entries",
    [
        [{"cut": ["e5", "e6"]}],
        [{"blocks": [["e5"], ["e6"]]}],
        [{"cut": "e5,e6", "blocks": [["e5"], ["e6"]]}],
        [{"cut": ["e5", "e6"], "blocks": ["e5", "e6"]}],
        ["e5"],
    ],
)
def test_malformed_pairs_entry_exits_2(capsys, paths, entries):
    pairs_path = paths["base"] / "bad_pairs.json"
    pairs_path.write_text(json.dumps(entries))
    rc, out, err = run(capsys, "bounds", paths["diamond"], "--pairs", str(pairs_path))
    assert rc == 2 and out == ""
    assert err.startswith("netfuncomp: UsageError: --pairs entry 0")
    assert err.count("\n") == 1


def test_optimizer_failure_names_its_pair(capsys, monkeypatch, paths):
    monkeypatch.setattr(bounds, "MAX_GAP", 0.0)
    rc, out, err = run(capsys, "bounds", paths["diamond"])
    assert rc == 2 and out == "" and err.count("\n") == 1
    prefix = "netfuncomp: OptimizerFailed: pair "
    assert err.startswith(prefix)
    entry, _ = json.JSONDecoder().raw_decode(err[len(prefix):])
    assert json.dumps(entry["cut"]) in err
    pairs_path = paths["base"] / "failed_pair.json"
    pairs_path.write_text(json.dumps([entry]))
    assert run(capsys, "bounds", paths["diamond"], "--pairs", str(pairs_path)) == (2, "", err)


def test_simulate_builtin_defaults_to_k_2(capsys):
    rc, out, _ = run(capsys, "simulate", "--builtin", "diamond")
    assert rc == 0
    assert json.loads(out)["config"] == {"model": None, "builtin": "diamond", "k": 2}


def test_simulate_builtin_with_code_exits_2(capsys, paths):
    # Refused before the code file is read: this one does not exist.
    missing = str(paths["base"] / "missing_code.json")
    rc, out, err = run(
        capsys, "simulate", paths["diamond"], "--builtin", "diamond", "--k", "2", "--code", missing
    )
    assert rc == 2 and out == ""
    assert err == "netfuncomp: UsageError: simulate takes --builtin NAME or --code FILE, not both\n"


def test_simulate_code_with_k_exits_2(capsys, paths):
    model = diamond_model()
    code_path = paths["base"] / "k2_code.json"
    code_path.write_text(
        json.dumps(code_to_dict(model, codesim.huffman_transform(model, codesim.diamond_scheme(2))))
    )
    rc, out, err = run(capsys, "simulate", paths["diamond"], "--code", str(code_path), "--k", "2")
    assert rc == 2 and out == ""
    assert err.startswith("netfuncomp: UsageError: --k applies to --builtin only")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{bad}"],
        ["bounds", "{bad}"],
        ["entropy", "{bad}"],
        ["simulate", "{diamond}", "--code", "{bad}"],
        ["bounds", "{diamond}", "--pairs", "{bad}"],
    ],
    ids=["validate-model", "bounds-model", "entropy-graph", "simulate-code", "bounds-pairs"],
)
def test_non_utf8_input_exits_2(capsys, paths, argv):
    bad = paths["base"] / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
    rc, out, err = run(capsys, *(a.format(bad=bad, diamond=paths["diamond"]) for a in argv))
    assert rc == 2 and out == ""
    assert err.startswith(f"netfuncomp: UsageError: {bad}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{bad}"],
        ["entropy", "{bad}"],
        ["simulate", "{diamond}", "--code", "{bad}"],
        ["bounds", "{diamond}", "--pairs", "{bad}"],
    ],
    ids=["model", "entropy-graph", "simulate-code", "bounds-pairs"],
)
@pytest.mark.parametrize("content", ["{not json", None], ids=["broken", "missing"])
def test_file_diagnostics_name_the_file(capsys, paths, argv, content):
    bad = paths["base"] / "bad_input.json"
    if content is None:
        bad.unlink(missing_ok=True)
    else:
        bad.write_text(content)
    rc, out, err = run(capsys, *(a.format(bad=bad, diamond=paths["diamond"]) for a in argv))
    assert rc == 2 and out == ""
    assert err.startswith("netfuncomp: UsageError: ") and str(bad) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("model", ["single", "two-sources"])
def test_builtin_scheme_on_a_model_it_does_not_fit_exits_2(capsys, paths, model):
    path = paths["single"]
    if model == "two-sources":
        # The diamond's six edge ids, with s3's edge moved to s1.
        edges = netmodel.model_to_dict(diamond_model())["edges"]
        edges[3] = {"id": "e4", "tail": "s1", "head": "v2"}
        path = _model_file(
            paths["base"], "two_sources", nodes=["s1", "s2", "v1", "v2", "t"], edges=edges,
            sources=["s1", "s2"], function=[0, 1, 1, 2], distribution=[0.25] * 4,
        )
    rc, out, err = run(capsys, "simulate", path, "--builtin", "diamond")
    assert rc == 2 and out == ""
    assert err.startswith("netfuncomp: UsageError: the diamond scheme needs a model with three")
    assert err.count("\n") == 1


# -- the report writer against the json module ---------------------------------


def _round_floats(doc):
    """The rounded deep copy the reports were once printed from."""
    if isinstance(doc, float):
        return float(f"{doc:.15g}")
    if isinstance(doc, dict):
        return {k: _round_floats(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_round_floats(v) for v in doc]
    return doc


def _oracle(doc) -> str:
    return json.dumps(_round_floats(doc), sort_keys=True, indent=2)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class _Str(str):
    pass


class _Dict(dict):
    pass


class _Edge(NamedTuple):
    tail: str
    head: str


_SHARED = {"b": [0.1 + 0.2, None], "a": {"c": 1}}
_IDS = ("e1", "e2")

EDGE_DOCUMENTS = {
    "special-floats": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2, 1 / 3],
    "finite-floats": [-0.0, 5e-324, 1e16, 0.1 + 0.2, 1 / 3, 2.0**70, 123456789.123456789],
    "float-scalars": {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "zero": -0.0,
                      "tiny": 5e-324, "big": 1e16, "sum": 0.1 + 0.2},
    "numpy-floats": [np.float64(1 / 3), np.float64(0.1) + np.float64(0.2), 0.5],
    "numpy-float-scalar": {"x": np.float64(2 / 3), "nan": np.float64(math.nan)},
    "floats-with-bools-and-none": [0.5, True, None, False, 1e-7],
    "strs-with-bools-and-none": ["a", None, True, "b", False],
    "ints": [1, True, 0, False, -(2**70), _Level.HIGH],
    "empty-containers": {"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": [{}, []]}},
    "tuples": (1, (2.5, "x"), ((),), [(0.1, 0.2)], ("a", "b")),
    "strings": ["é", "☃", "\x00\x1f\x7f", 'q"uote\\back', "\n\t\r", "\ud83d", ""],
    "string-keys": {"é": 1, "b\n": 2, "": 3, "a": {"z": None, "y": [True]}},
    "scalars": [None, True, 0.1 + 0.2, "x", 3],
    "shared-dicts": {"x": [_SHARED, _SHARED], "y": _SHARED, "z": [[_SHARED, {}], _SHARED["a"]]},
    # A list or tuple led by a str is joined at once, or item by item when
    # a later item is not a str.
    "str-then-int": ["a", 1],
    "str-then-none": ("a", None),
    "str-subclass-items": [["a", _Str("b")], [_Str("c"), "d"], (_Str("e"),)],
    "named-tuple-of-strs": [_Edge("s1", "v1"), [_Edge("v1", "t")], {"e": _Edge("a", "b")}],
    "named-tuple-str-then-int": [_Edge("a", 1), _Edge("b", None)],
    # Lists of str sequences are joined at once unless an item is not one.
    "str-sequences": [["a", "b"], (), ("c",), []],
    "str-sequences-led-by-empty": [[], ["a"], ("b", "c")],
    "str-sequences-with-bare-str": [["a"], "bc", ["d"]],
    "str-sequences-with-dict": [["a"], {"b": "c"}],
    "str-sequences-with-int": [["a"], ["b", 2], ("c",)],
    "str-sequences-led-by-non-str": [[1, "a"], ["b"]],
    # Str sequences nest to any depth, lists and tuples mixed, with an empty
    # sequence at every depth.
    "str-sequences-3-deep": [[("a", "b"), []], ((), ["c"]), [], [("d",)]],
    "str-sequences-4-deep": ([[("a",), []], ()], [[()], [["b", "c"], ("d",)]], (), [[]], ([], [[]])),
    "str-then-list": ["a", ["b", "c"]],
    "list-then-str": [("a",), "b"],
    "nested-str-then-list": [[["a"], ["b", ["c"]]], [("d",)]],
    "nested-list-then-str": [(["a"], "b"), [["c"]]],
    "nested-str-sequences-with-float": [[["a"], ["b"]], [["c"], [0.5]]],
    # Records spell each distinct tuple value once: tuples that are equal
    # but spell differently, or hold a list, must still be written right.
    "records-sharing-a-tuple": [{"a": _IDS, "b": _IDS}, {"a": _IDS, "b": ("e1",)},
                                {"a": ("e1", "e2"), "b": _IDS}, {"a": (), "b": _IDS}],
    "records-at-two-depths-sharing-a-tuple": {"a": [{"t": _IDS}, {"t": _IDS}],
                                              "b": [{"r": [{"t": _IDS}]}, {"r": []}]},
    "records-tuple-holding-a-list": [{"t": (["a"], ["b", "c"])}, {"t": (["a"], ["b", "c"])},
                                     {"t": ("x", [1])}, {"t": ([], ())}],
    "records-equal-tuples": [{"t": (True,)}, {"t": (1,)}, {"t": (1.0,)}, {"t": (0.0,)},
                             {"t": (-0.0,)}, {"t": (_Str("a"),)}, {"t": ("a",)}],
    "records-mixed-floats": [{"x": 0.0, "y": -0.0, "z": [0.0, -0.0, 0.5]},
                             {"x": -0.0, "y": 0.0, "z": [-0.0, 0.0, 0.5]},
                             {"x": math.nan, "y": np.float64(0.1) + np.float64(0.2), "z": [math.nan]},
                             {"x": math.inf, "y": -math.inf, "z": [math.inf, -math.inf, 0.0]},
                             {"x": np.float64(-0.0), "y": 0.1 + 0.2, "z": [np.float64(0.0), -0.0]},
                             {"x": 0.1 + 0.2, "y": np.float64(0.0), "z": []}],
    "records-bool-next-to-int": [{"v": True}, {"v": 1}, {"v": False}, {"v": 0}, {"v": 1.0},
                                 {"v": True}],
    # Records that share a key set spell their keys once.
    "records": [{"b": [1, 2], "a": "x", "c": None}, {"c": True, "a": "y", "b": []}],
    "records-one-differs": [{"a": 1, "b": 2}, {"a": 3, "c": 4}, {"a": 5, "b": 6}],
    "records-with-dict-subclass": [{"a": 1}, _Dict(a=2), {"a": 3}],
    "records-with-empty-dict": [{"a": 1}, {}, {"a": 2}],
    "records-led-by-empty-dict": [{}, {}],
    "records-special-floats": [{"x": math.nan, "y": -0.0}, {"x": math.inf, "y": -math.inf},
                               {"x": 0.1 + 0.2, "y": 1e16}],
    "records-nested": [{"r": [{"a": ("b",)}, {"a": ()}]}, {"r": [{"a": [[]]}]}],
}


@pytest.mark.parametrize("doc", EDGE_DOCUMENTS.values(), ids=EDGE_DOCUMENTS.keys())
def test_writer_matches_json_on_edge_cases(doc):
    assert cli._dumps(doc) == _oracle(doc)
    for item in doc.values() if isinstance(doc, dict) else doc:
        assert cli._dumps(item) == _oracle(item)


@pytest.mark.parametrize("doc", [{"a": object()}, [np.int64(1)], {(1, 2): 3}])
def test_writer_refuses_what_json_refuses(doc):
    with pytest.raises(TypeError):
        _oracle(doc)
    with pytest.raises(TypeError):
        cli._dumps(doc)


NON_STR_KEYS = {
    "int-keys": {10: "ten", 2: "two", -1: [0.5], _Level.LOW: 0.1 + 0.2},
    "float-keys": {0.1 + 0.2: 1, 1e16: 2, -0.0: 3},
    "bool-keys": {True: 1, False: 0},
    "none-key": {None: 1},
    "int-key-in-a-later-record": [{"a": 1}, {"a": 2}, {"a": 3, 4: "four"}],
    "int-keys-in-every-record": [{1: "a"}, {1: "b"}],
}


@pytest.mark.parametrize("doc", NON_STR_KEYS.values(), ids=NON_STR_KEYS.keys())
def test_writer_refuses_keys_that_are_not_strings(doc):
    with pytest.raises(TypeError):
        cli._dumps(doc)
    with pytest.raises(TypeError):
        cli._dumps({"result": [doc]})


def _random_document(rng: random.Random, depth: int = 0):
    """A JSON-able document of every kind the writer has a path for."""
    kinds = ["str", "int", "bool", "none", "float", "special"]
    if depth < 4:
        kinds += ["list", "tuple", "dict", "strs", "str-sequences", "records"] * 2
    kind = rng.choice(kinds)
    if kind == "str":
        return rng.choice(["", "a", "bc", "é", 'q"', "\n", "\ud83d", "e12"])
    if kind == "int":
        return rng.choice([0, 1, -7, 2**70, rng.randrange(-1000, 1000)])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "none":
        return None
    if kind == "float":
        return rng.choice([0.1 + 0.2, -0.0, 5e-324, 1e16, 1 / 3, rng.uniform(-1e3, 1e3)])
    if kind == "special":
        return rng.choice([math.nan, math.inf, -math.inf])
    if kind in ("list", "tuple"):
        items = [_random_document(rng, depth + 1) for _ in range(rng.randrange(5))]
        return items if kind == "list" else tuple(items)
    if kind == "dict":
        return {rng.choice("abcdef"): _random_document(rng, depth + 1) for _ in range(rng.randrange(4))}
    if kind == "strs":
        items = [rng.choice(["a", "b", "é", ""]) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.3:  # a member that is not a str
            items.insert(rng.randrange(1, len(items) + 1), _random_document(rng, 4))
        return items if rng.random() < 0.5 else tuple(items)
    if kind == "str-sequences":
        return _str_sequence(rng, rng.randrange(2, 5))
    keys = rng.sample("abcdef", rng.randrange(1, 4))
    records = [{k: _random_document(rng, depth + 1) for k in keys} for _ in range(rng.randrange(1, 4))]
    if rng.random() < 0.3:  # one record with another key set
        records[rng.randrange(len(records))][rng.choice("uvw")] = None
    return records


def _str_sequence(rng: random.Random, depth: int):
    """Strs nested ``depth`` deep in lists and tuples, any of them empty, now and then with another item."""
    if depth == 0:
        return rng.choice(["x", "y", "é", ""])
    items = [_str_sequence(rng, depth - 1) for _ in range(rng.randrange(4))]
    if rng.random() < 0.1:
        items.insert(rng.randrange(len(items) + 1), _random_document(rng, 3))
    return items if rng.random() < 0.5 else tuple(items)


def test_writer_matches_json_on_random_documents():
    rng = random.Random(3030)
    for _ in range(400):
        doc = _random_document(rng)
        assert cli._dumps(doc) == _oracle(doc), doc


TUPLE_GRAPH = {"vertices": [["a", 0], ["a", 1], ["b", 0]], "edges": [[["a", 0], ["b", 0]]],
               "dist": [0.5, 0.25, 0.25]}


def test_every_report_matches_json(monkeypatch, capsys, paths):
    base = paths["base"]
    layered = base / "layered.json"
    layered.write_text(json.dumps(netmodel.model_to_dict(layered_sum_model())))
    graph = base / "tuple_graph.json"
    graph.write_text(json.dumps(TUPLE_GRAPH))
    rng = random.Random(1010)
    drawn = []
    for n in range(4):
        path = base / f"drawn{n}.json"
        path.write_text(json.dumps(netmodel.model_to_dict(random_model(rng))))
        drawn.append(["bounds", str(path)])
    d = paths["diamond"]
    argvs = [
        ["validate", d],
        ["bounds", d],
        ["bounds", str(layered)],
        ["cuts", str(layered)],
        ["classes", d, "--i", "s1", "--j", "s2", "--aj", "0"],
        ["chargraph", d, "--cut", "e5,e6", "--blocks", "e5/e6", "--k", "2"],
        ["chargraph", d, "--cut", "e5"],
        ["entropy", paths["pentagon"]],
        ["entropy", str(graph)],
        ["simulate", "--builtin", "diamond", "--k", "4"],
        ["example", "layered-sum"],
        ["example", "diamond", "--bounds"],
        *drawn,
    ]
    docs = []
    write = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda doc: docs.append(doc) or write(doc))
    for argv in argvs:
        rc, out, err = run(capsys, *argv)
        assert rc == 0, err
        assert out == write(docs[-1]) + "\n"
    assert len(docs) == len(argvs)
    for argv, doc in zip(argvs, docs):
        assert write(doc) == _oracle(doc), argv


# -- garbage-collector scope of a call ------------------------------------------


@pytest.mark.parametrize("caller", ["plain", "frozen", "gc-disabled"])
@pytest.mark.parametrize(
    "argv,code",
    [
        (["validate", "{diamond}"], 0),
        (["validate", "{broken}"], 2),
        (["chargraph", "{diamond}", "--cut", "e5,e6", "--k", "5000"], 3),
    ],
    ids=["exit-0", "exit-2", "exit-3"],
)
def test_main_freezes_the_heap_for_its_call_only(monkeypatch, capsys, paths, argv, code, caller):
    # The call runs with the objects that predate it frozen, and leaves the
    # collector as it found it; a caller's own freeze stays in place.
    seen = []
    load = cli._load
    monkeypatch.setattr(cli, "_load", lambda path: seen.append(gc.get_freeze_count()) or load(path))
    enabled = gc.isenabled()
    if caller == "frozen":
        gc.freeze()
    elif caller == "gc-disabled":
        gc.disable()
    try:
        before = gc.get_freeze_count(), gc.isenabled()
        rc, _, _ = run(capsys, *(a.format(**paths) for a in argv))
        after = gc.get_freeze_count(), gc.isenabled()
    finally:
        if caller == "frozen":
            gc.unfreeze()
        if enabled:
            gc.enable()
    assert rc == code
    assert after == before
    assert seen[0] > 0
    if caller == "frozen":
        assert before[0] > 0 and seen[0] == before[0]
    else:
        assert before[0] == 0


# -- golden report digests ----------------------------------------------------

DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"

# Exact-valued reports, and the two bounds reports the benchmark and the
# suite time: their improved-bound floats come from a dense eigensolver, so
# a BLAS build that rounds differently may move their last digits.
DIGEST_CALLS = [
    ["validate", "diamond.json"],
    ["classes", "diamond.json", "--i", "s1", "--j", "s2", "--aj", "0"],
    ["cuts", "layered_sum.json"],
    ["chargraph", "diamond.json", "--cut", "e5,e6", "--blocks", "e5/e6", "--k", "2"],
    ["chargraph", "diamond.json", "--cut", "e5"],
    ["entropy", "graph.json"],
    ["simulate", "--builtin", "diamond", "--k", "4"],
    ["example", "layered-sum"],
    # The benchmark's diamond-sim-k6 call, and the same sweep of 16 chunks
    # under a non-dyadic law, whose rates depend on the order of every addition.
    ["simulate", "--builtin", "diamond", "--k", "6"],
    ["simulate", "skewed_diamond.json", "--builtin", "diamond", "--k", "6"],
    # The benchmark's diamond-bounds call, and the layered sum's bounds
    # report (1,134 pair rows over 30 graphs).
    ["example", "diamond", "--bounds"],
    ["bounds", "layered_sum.json"],
]


def report_digests(base: Path) -> dict[str, str]:
    """SHA-256 of the stdout of every ``DIGEST_CALLS`` entry, run from ``base``.

    Regenerate the stored file (after a deliberate report change) with
    ``PYTHONPATH=src:tests python -c "import json, pathlib, tempfile, test_cli;
    print(json.dumps(test_cli.report_digests(pathlib.Path(tempfile.mkdtemp())), indent=2))"``.
    """
    for name, model in (("diamond.json", diamond_model()), ("layered_sum.json", layered_sum_model())):
        (base / name).write_text(json.dumps(netmodel.model_to_dict(model)))
    skewed = netmodel.model_to_dict(diamond_model())
    skewed["distribution"] = [w / 31 for w in (3, 1, 4, 1, 5, 9, 2, 6)]
    (base / "skewed_diamond.json").write_text(json.dumps(skewed))
    (base / "graph.json").write_text(json.dumps(TUPLE_GRAPH))
    digests = {}
    cwd = os.getcwd()
    os.chdir(base)
    try:
        for argv in DIGEST_CALLS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(argv))
            assert rc == 0, argv
            digests[" ".join(argv)] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    finally:
        os.chdir(cwd)
    return digests


def test_reports_match_golden_digests(tmp_path):
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert report_digests(tmp_path) == stored
