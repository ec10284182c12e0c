"""Code simulation: unique decodability, the split-relay scheme, Huffman rates.

The split scheme on the diamond network at k = 2 must be admissible with
exact dyadic Huffman rates (source edges 1.0, half-block edges 0.5, relay
edges 1.25) and its relay words must properly color the characteristic
graph of the sink cut under both strong partitions.
"""

import json

import pytest

from netfuncomp import codesim, errors, netmodel
from netfuncomp.codesim import FixedScheme, UDCode
from netfuncomp.examples import diamond_model, single_edge_model


@pytest.fixture(scope="module")
def diamond():
    return diamond_model()


@pytest.fixture(scope="module")
def diamond_code(diamond):
    return codesim.huffman_transform(diamond, codesim.diamond_scheme(2))


def test_sardinas_patterson_frozen_sets():
    assert codesim.sardinas_patterson({"0", "10", "11"})
    assert codesim.sardinas_patterson({"0", "01", "11"})
    assert not codesim.sardinas_patterson({"0", "01", "10"})
    assert codesim.sardinas_patterson({"00", "01", "10", "11"})
    assert codesim.sardinas_patterson({"0"})


def test_sardinas_patterson_rejects_bad_input():
    with pytest.raises(errors.EmptyWord):
        codesim.sardinas_patterson({"0", ""})
    with pytest.raises(errors.UsageError):
        codesim.sardinas_patterson(set())
    with pytest.raises(errors.UsageError):
        codesim.sardinas_patterson({"0", "2"})


def test_diamond_scheme_rates_at_k2(diamond, diamond_code):
    report = codesim.evaluate(diamond, diamond_code)
    assert report.admissible
    assert report.non_ud_edges == ()
    assert report.edge_rates["e1"] == 1.0
    assert report.edge_rates["e4"] == 1.0
    assert report.edge_rates["e2"] == 0.5
    assert report.edge_rates["e3"] == 0.5
    assert report.edge_rates["e5"] == 1.25
    assert report.edge_rates["e6"] == 1.25
    assert report.max_rate == 1.25
    assert report.to_dict()["k"] == 2


def test_diamond_scheme_rates_stable_at_k4(diamond):
    code = codesim.huffman_transform(diamond, codesim.diamond_scheme(4))
    report = codesim.evaluate(diamond, code)
    assert report.admissible
    assert report.max_rate == 1.25
    assert report.edge_rates["e2"] == 0.5


def test_diamond_scheme_rejects_odd_k():
    for k in (0, 1, 3):
        with pytest.raises(errors.OddK):
            codesim.diamond_scheme(k)


def test_cut_words_color_the_characteristic_graph(diamond, diamond_code):
    cut = netmodel.analyze_cut(diamond, ("e5", "e6"))
    for part in netmodel.enumerate_strong_partitions(diamond, cut):
        assert codesim.cut_coloring_check(diamond, diamond_code, cut, part, 2)
    with pytest.raises(errors.UsageError):
        codesim.cut_coloring_check(diamond, diamond_code, cut, part, 1)


def test_cut_coloring_check_rejects_cut_of_another_model(diamond, diamond_code):
    # e5 carries s2's symbols through v1, so a K set of {s1} alone is wrong.
    forged = netmodel.CutAnalysis(
        cut=("e5",),
        k_set=frozenset({"s1"}),
        i_set=frozenset({"s1"}),
        j_set=frozenset(),
        is_global=False,
    )
    part = netmodel.StrongPartition(
        cut=forged, blocks=(("e5",),), i_sets=(frozenset({"s1"}),), l_set=frozenset()
    )
    with pytest.raises(errors.UsageError, match="does not match the model"):
        codesim.cut_coloring_check(diamond, diamond_code, forged, part, 2)


def test_corrupt_decoder_entry_breaks_admissibility(diamond, diamond_code):
    decoder = dict(diamond_code.decoder)
    key = next(iter(decoder))
    decoder[key] = (99, 99)
    bad = UDCode(k=2, encoders=diamond_code.encoders, decoder=decoder)
    report = codesim.evaluate(diamond, bad)
    assert not report.admissible
    assert report.non_ud_edges == ()


def test_non_ud_edge_is_reported_not_raised():
    model = single_edge_model()
    code = UDCode(
        k=1,
        encoders={"e1": {(0,): "0", (1,): "00"}},
        decoder={("0",): (0,), ("00",): (1,)},
    )
    report = codesim.evaluate(model, code)
    assert report.non_ud_edges == ("e1",)
    assert report.admissible
    assert report.edge_rates["e1"] == 1.5


def test_evaluate_rejects_wrong_edge_set(diamond, diamond_code):
    encoders = dict(diamond_code.encoders)
    del encoders["e3"]
    with pytest.raises(errors.DomainMismatch):
        codesim.evaluate(diamond, UDCode(2, encoders, diamond_code.decoder))


def test_unrealizable_scheme_is_rejected(diamond):
    base = codesim.diamond_scheme(2)
    functions = dict(base.edge_functions)
    # the left relay never sees the third source
    functions["e5"] = lambda xs: xs[2]
    bad = FixedScheme("bad", 2, functions, base.decoder)
    with pytest.raises(errors.DomainMismatch):
        codesim.huffman_transform(diamond, bad)


def test_huffman_transform_k_mismatch(diamond):
    with pytest.raises(errors.UsageError):
        codesim.huffman_transform(diamond, codesim.diamond_scheme(2), k=4)


def test_code_round_trips_through_json(diamond, diamond_code):
    doc = json.loads(json.dumps(codesim.code_to_dict(diamond, diamond_code)))
    code = codesim.code_from_dict(diamond, doc)
    report = codesim.evaluate(diamond, code)
    assert report.admissible
    assert report.max_rate == 1.25


def test_code_from_dict_rejects_missing_edge(diamond, diamond_code):
    doc = codesim.code_to_dict(diamond, diamond_code)
    del doc["encoders"]["e6"]
    with pytest.raises(errors.UsageError):
        codesim.code_from_dict(diamond, doc)
    with pytest.raises(errors.UsageError):
        codesim.code_from_dict(diamond, {"k": 2})


def test_code_over_large_alphabet_round_trips_through_json():
    model = single_edge_model(q=12)
    words = {i: format(i, "04b") for i in range(12)}
    code = UDCode(
        k=1,
        encoders={"e1": {(i,): w for i, w in words.items()}},
        decoder={(w,): (i,) for i, w in words.items()},
    )
    doc = json.loads(json.dumps(codesim.code_to_dict(model, code)))
    assert "10" in doc["encoders"]["e1"]
    report = codesim.evaluate(model, codesim.code_from_dict(model, doc))
    assert report.admissible
    assert report.max_rate == 4.0
