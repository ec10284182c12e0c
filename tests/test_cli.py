"""End-to-end CLI behavior: envelopes, exit codes, determinism.

Every invocation goes through ``main(argv)`` in process; stdout is parsed
back from JSON.  Reports must be byte-identical across repeated runs with
the same inputs, usage problems must exit 2 with a one-line diagnostic on
stderr, and size-cap violations must exit 3.
"""

import ast
import contextlib
import enum
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

import numpy as np
import pytest

from conftest import random_model
from netfuncomp import chargraph, cli, codesim, entropy, netmodel, pgraph
from netfuncomp.examples import diamond_model, layered_sum_model, single_edge_model


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


def test_chargraph_size_cap_exits_3(capsys, paths):
    rc, _, err = run(
        capsys, "chargraph", paths["diamond"], "--cut", "e5,e6", "--k", "8"
    )
    assert rc == 3
    assert err.startswith("netfuncomp: TooLarge:")


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


def test_bad_side_information_block_exits_2(capsys, paths):
    rc, out, err = run(
        capsys, "classes", paths["diamond"], "--i", "s1", "--j", "s2", "--aj", "x"
    )
    assert rc == 2 and out == ""
    assert err.startswith("netfuncomp: UsageError: assignment 'x'")
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
    ],
    ids=[
        "list-function-entry",
        "fractional-alphabet",
        "string-alphabet",
        "string-distribution-entries",
        "bool-distribution-entry",
        "string-function",
        "string-sources",
    ],
)
def test_malformed_model_document_exits_2(capsys, paths, changes, message):
    path = _model_file(paths["base"], "malformed_model", **changes)
    rc, out, err = run(capsys, "validate", path)
    assert rc == 2 and out == ""
    assert err.startswith(f"netfuncomp: UsageError: {message}")
    assert err.count("\n") == 1


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
    code_path.write_text(json.dumps(codesim.code_to_dict(model, code)))
    rc, out, _ = run(capsys, "simulate", paths["diamond"], "--code", str(code_path))
    assert rc == 0
    assert json.loads(out)["result"]["max_rate"] == 1.25


def test_simulate_code_with_bad_source_key_exits_2(capsys, paths):
    model = diamond_model()
    good = codesim.code_to_dict(model, codesim.huffman_transform(model, codesim.diamond_scheme(2)))
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
        _builtin_reference,
    ],
)
def test_simulate_malformed_code_document_exits_2(capsys, paths, corrupt):
    model = diamond_model()
    doc = codesim.code_to_dict(model, codesim.huffman_transform(model, codesim.diamond_scheme(2)))
    corrupt(doc)
    code_path = paths["base"] / f"{corrupt.__name__}.json"
    code_path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "simulate", paths["diamond"], "--code", str(code_path))
    assert rc == 2 and out == ""
    assert err.startswith("netfuncomp: UsageError: ")
    assert err.count("\n") == 1


def test_simulate_over_the_block_cap_exits_3(capsys):
    rc, out, err = run(capsys, "simulate", "--builtin", "diamond", "--k", "10")
    assert rc == 3 and out == ""
    assert err.startswith("netfuncomp: DomainTooLarge: ")
    assert err.count("\n") == 1


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
        json.dumps(codesim.code_to_dict(model, codesim.huffman_transform(model, codesim.diamond_scheme(2))))
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
    assert err.startswith("netfuncomp: invalid input file: ")
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
    "int-keys": {10: "ten", 2: "two", -1: [0.5], _Level.LOW: 0.1 + 0.2},
    "float-keys": {0.1 + 0.2: 1, 1e16: 2, -0.0: 3},
    "bool-keys": {True: 1, False: 0},
    "scalars": [None, True, 0.1 + 0.2, "x", 3],
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


# -- golden report digests ----------------------------------------------------

DIGESTS = Path(__file__).resolve().parent / "data" / "report_digests.json"

# Exact-valued reports only: the improved bound's floats come from a dense
# eigensolver and may move in the last digits across BLAS builds.
DIGEST_CALLS = [
    ["validate", "diamond.json"],
    ["classes", "diamond.json", "--i", "s1", "--j", "s2", "--aj", "0"],
    ["cuts", "layered_sum.json"],
    ["chargraph", "diamond.json", "--cut", "e5,e6", "--blocks", "e5/e6", "--k", "2"],
    ["chargraph", "diamond.json", "--cut", "e5"],
    ["entropy", "graph.json"],
    ["simulate", "--builtin", "diamond", "--k", "4"],
    ["example", "layered-sum"],
]


def report_digests(base: Path) -> dict[str, str]:
    """SHA-256 of the stdout of every ``DIGEST_CALLS`` entry, run from ``base``.

    Regenerate the stored file (after a deliberate report change) with
    ``PYTHONPATH=src:tests python -c "import json, pathlib, tempfile, test_cli;
    print(json.dumps(test_cli.report_digests(pathlib.Path(tempfile.mkdtemp())), indent=2))"``.
    """
    for name, model in (("diamond.json", diamond_model()), ("layered_sum.json", layered_sum_model())):
        (base / name).write_text(json.dumps(netmodel.model_to_dict(model)))
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
