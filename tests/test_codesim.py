"""Code simulation: unique decodability, the split-relay scheme, Huffman rates.

The split scheme on the diamond network at k = 2 must be admissible with
exact dyadic Huffman rates (source edges 1.0, half-block edges 0.5, relay
edges 1.25) and its relay words must properly color the characteristic
graph of the sink cut under both strong partitions.

The chunked numpy sweep is checked bit for bit against a per-block loop
kept here as the reference: same floats, same tables, same verdicts and
the same DomainMismatch messages, also when chunk boundaries fall inside
the domain.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from netfuncomp import chargraph, codesim, errors, netmodel
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
    for part in netmodel.enumerate_strong_partitions(diamond, ("e5", "e6")):
        assert codesim.cut_coloring_check(diamond, diamond_code, part)


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
        codesim.cut_coloring_check(diamond, diamond_code, part)


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


# -- the per-block reference loop ----------------------------------------------


def _one_block(fn, xs):
    """A batch edge function applied to the single block ``xs``, as a tuple of ints."""
    return tuple(np.asarray(fn(tuple(np.array([col]) for col in xs)))[0].tolist())


def _one_key(decoder, values):
    """A batch decoder applied to one sink input, as a tuple of ints."""
    return tuple(np.asarray(decoder({d: np.array([v]) for d, v in values.items()}))[0].tolist())


def _blocks(model, k):
    columns = list(itertools.product(range(model.alphabet_size), repeat=k))
    return itertools.product(columns, repeat=model.num_sources)


def _block_prob(model, xs, k):
    p = 1.0
    for r in range(k):
        p *= model.distribution[model.arg_index([col[r] for col in xs])]
    return p


def _ref_forward(model, code, xs):
    edges = codesim._edges_in_topo_order(model)
    source_pos = {s: i for i, s in enumerate(model.sources)}
    y = {}
    for e in edges:
        if e.tail in source_pos:
            key = xs[source_pos[e.tail]]
        else:
            key = tuple(y[d] for d in codesim._in_ids(model, e.tail))
        try:
            y[e.id] = code.encoders[e.id][key]
        except KeyError:
            raise errors.DomainMismatch(f"edge {e.id} has no entry for {key!r}") from None
    return y


def ref_evaluate(model, code):
    k = code.k
    edges = codesim._edges_in_topo_order(model)
    non_ud = tuple(
        e.id for e in edges if not codesim.sardinas_patterson(set(code.encoders[e.id].values()))
    )
    sink_ids = codesim._in_ids(model, model.sink)
    lengths = {e.id: 0.0 for e in model.edges}
    admissible = True
    for xs in _blocks(model, k):
        p = _block_prob(model, xs, k)
        truth = model.f_rows(dict(zip(model.sources, xs)), k)
        y = _ref_forward(model, code, xs)
        for eid, w in y.items():
            lengths[eid] += p * len(w)
        dec_key = tuple(y[d] for d in sink_ids)
        try:
            got = code.decoder[dec_key]
        except KeyError:
            raise errors.DomainMismatch(f"decoder has no entry for {dec_key!r}") from None
        if tuple(got) != tuple(truth):
            admissible = False
    rates = {eid: length / k for eid, length in lengths.items()}
    return codesim.RateReport(k, admissible, lengths, rates, max(rates.values()), non_ud)


def ref_huffman_transform(model, scheme):
    k = scheme.k
    edges = codesim._edges_in_topo_order(model)
    source_pos = {s: i for i, s in enumerate(model.sources)}
    in_ids = {n: codesim._in_ids(model, n) for n in model.nodes}
    sink_ids = in_ids[model.sink]
    image = {e.id: {} for e in model.edges}
    local = {e.id: {} for e in model.edges}
    dec_vals = {}
    for xs in _blocks(model, k):
        p = _block_prob(model, xs, k)
        vals = {}
        for e in edges:
            v = vals[e.id] = _one_block(scheme.edge_functions[e.id], xs)
            image[e.id][v] = image[e.id].get(v, 0.0) + p
            if e.tail in source_pos:
                key = xs[source_pos[e.tail]]
            else:
                key = tuple(vals[d] for d in in_ids[e.tail])
            if local[e.id].setdefault(key, v) != v:
                raise errors.DomainMismatch(
                    f"edge {e.id} value is not a function of its local input"
                )
        dec_key = tuple(vals[d] for d in sink_ids)
        if dec_key not in dec_vals:
            dec_vals[dec_key] = _one_key(scheme.decoder, dict(zip(sink_ids, dec_key)))
    words = {eid: codesim._huffman(dist) for eid, dist in image.items()}
    encoders = {}
    for e in model.edges:
        if e.tail in source_pos:
            encoders[e.id] = {key: words[e.id][v] for key, v in local[e.id].items()}
        else:
            encoders[e.id] = {
                tuple(words[d][vd] for d, vd in zip(in_ids[e.tail], key)): words[e.id][v]
                for key, v in local[e.id].items()
            }
    decoder = {
        tuple(words[d][vd] for d, vd in zip(sink_ids, key)): out
        for key, out in dec_vals.items()
    }
    return UDCode(k=k, encoders=encoders, decoder=decoder)


def ref_cut_coloring_check(model, code, partition):
    k, cut = code.k, partition.cut
    cg = chargraph.build(model, partition, k)
    source_pos = {s: i for i, s in enumerate(model.sources)}
    colors = {}
    for xs in _blocks(model, k):
        y = _ref_forward(model, code, xs)
        word = tuple(y[eid] for eid in cut.cut)
        if colors.setdefault(tuple(xs[source_pos[s]] for s in cg.order), word) != word:
            raise errors.UsageError("the cut analysis does not match the model")
    coloring = {lbl: colors[asg] for asg, lbl in zip(cg.assignments, cg.graph.vertices)}
    return all(coloring[u] != coloring[v] for u, v in cg.graph.edges())


def _same_report(got, want):
    assert repr(got.to_dict()) == repr(want.to_dict())


def _single_scheme():
    """The acceptance-8 one-shot scheme: the left relay adds s1 and s2."""
    return FixedScheme(
        "diamond-single",
        1,
        {
            "e1": lambda xs: xs[0],
            "e2": lambda xs: xs[1],
            "e3": lambda xs: xs[1],
            "e4": lambda xs: xs[2],
            "e5": lambda xs: tuple(a + b for a, b in zip(xs[0], xs[1])),
            "e6": lambda xs: xs[2],
        },
        lambda values: tuple(a + b for a, b in zip(values["e5"], values["e6"])),
    )


@pytest.fixture(scope="module")
def skewed(diamond):
    """The diamond under a non-dyadic source law."""
    weights = [3, 1, 4, 1, 5, 9, 2, 6]
    return dataclasses.replace(
        diamond, distribution=tuple(w / sum(weights) for w in weights)
    )


@pytest.mark.parametrize(
    "scheme,chunk",
    [
        (codesim.diamond_scheme(2), None),
        (codesim.diamond_scheme(2), 5),
        (codesim.diamond_scheme(4), None),
        (codesim.diamond_scheme(4), 1000),
        (_single_scheme(), None),
        (_single_scheme(), 3),
    ],
    ids=["k2", "k2-chunk5", "k4", "k4-chunk1000", "single-k1", "single-k1-chunk3"],
)
def test_sweep_matches_the_per_block_loop(monkeypatch, diamond, skewed, scheme, chunk):
    if chunk is not None:
        monkeypatch.setattr(codesim, "CHUNK_BLOCKS", chunk)
    for model in (skewed, diamond):
        code = codesim.huffman_transform(model, scheme)
        want = ref_huffman_transform(model, scheme)
        assert code.encoders == want.encoders
        assert code.decoder == want.decoder
        _same_report(codesim.evaluate(model, code), ref_evaluate(model, want))
    if scheme.k > 2:
        return
    for cut in netmodel.enumerate_cut_sets(skewed):
        for part in netmodel.enumerate_strong_partitions(skewed, cut):
            assert codesim.cut_coloring_check(skewed, code, part) == ref_cut_coloring_check(
                skewed, want, part
            )


def test_sweep_matches_the_loop_with_a_relay_that_has_no_inputs(monkeypatch):
    # v0 has no in-edges: its edge's table and the encoder keys above it hold ().
    e = netmodel.Edge
    model = netmodel.NetworkModel(
        nodes=("s1", "s2", "v0", "v1", "t"),
        edges=(e("e1", "s1", "v1"), e("e2", "s2", "v1"), e("e3", "v0", "t"), e("e4", "v1", "t")),
        sources=("s1", "s2"),
        sink="t",
        alphabet_size=3,
        function_table=tuple(a + b for a in range(3) for b in range(3)),
        distribution=tuple(w / 45 for w in range(1, 10)),
    )
    netmodel.validate(model)
    scheme = FixedScheme(
        "sum-at-v1",
        2,
        {
            "e1": lambda xs: xs[0],
            "e2": lambda xs: xs[1],
            "e3": lambda xs: np.zeros((len(xs[0]), 0), dtype=int),
            "e4": lambda xs: xs[0] + xs[1],
        },
        lambda values: values["e4"],
    )
    monkeypatch.setattr(codesim, "CHUNK_BLOCKS", 10)
    code = codesim.huffman_transform(model, scheme)
    want = ref_huffman_transform(model, scheme)
    assert code.encoders == want.encoders and code.encoders["e3"] == {(): "0"}
    assert code.decoder == want.decoder
    _same_report(codesim.evaluate(model, code), ref_evaluate(model, want))
    assert codesim.evaluate(model, code).admissible


def test_row_codes_separate_wide_rows():
    # 7^23 > 2^62: the mixed-radix code would overflow, so rows are compared whole.
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 7, size=(40, 23))
    rows[20:] = rows[:20]
    codes = codesim._row_codes(rows)
    for i in range(40):
        for j in range(40):
            assert (codes[i] == codes[j]) == bool((rows[i] == rows[j]).all())


def test_sweep_matches_the_loop_on_a_corrupt_code(monkeypatch, skewed):
    monkeypatch.setattr(codesim, "CHUNK_BLOCKS", 7)
    code = codesim.huffman_transform(skewed, codesim.diamond_scheme(2))
    decoder = dict(code.decoder)
    decoder[next(iter(decoder))] = (99, 99)
    encoders = dict(code.encoders, e1={key: "0" + w for key, w in code.encoders["e1"].items()})
    bad = UDCode(2, encoders, decoder)
    report = codesim.evaluate(skewed, UDCode(2, code.encoders, decoder))
    assert not report.admissible
    _same_report(report, ref_evaluate(skewed, UDCode(2, code.encoders, decoder)))
    with pytest.raises(errors.DomainMismatch) as got:
        codesim.evaluate(skewed, bad)
    with pytest.raises(errors.DomainMismatch) as want:
        ref_evaluate(skewed, bad)
    assert str(got.value) == str(want.value)


def _drop(table, index):
    keys = sorted(table)
    return {key: w for key, w in table.items() if key != keys[index]}


def _unrealizable_twice():
    """Both relays read a shot of s2 they never see; e6 fails at block 8, e5 at 12."""
    base = codesim.diamond_scheme(2)
    functions = dict(base.edge_functions)
    functions["e5"] = lambda xs: xs[1][:, 1:] * xs[1][:, :1]
    functions["e6"] = lambda xs: xs[1][:, :1]
    return FixedScheme("bad", 2, functions, base.decoder)


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("case", ["source", "relay", "decoder", "unrealizable"])
def test_domain_mismatch_messages_match_the_loop(monkeypatch, diamond_code, skewed, case, chunk):
    if chunk is not None:
        monkeypatch.setattr(codesim, "CHUNK_BLOCKS", chunk)
    enc, dec = diamond_code.encoders, diamond_code.decoder
    if case == "unrealizable":
        calls = [
            lambda: codesim.huffman_transform(skewed, _unrealizable_twice()),
            lambda: ref_huffman_transform(skewed, _unrealizable_twice()),
        ]
    else:
        if case == "source":
            bad = UDCode(2, dict(enc, e3=_drop(enc["e3"], 2)), dec)
        elif case == "relay":
            bad = UDCode(2, dict(enc, e5=_drop(enc["e5"], 7)), dec)
        else:
            bad = UDCode(2, enc, _drop(dec, 11))
        calls = [lambda: codesim.evaluate(skewed, bad), lambda: ref_evaluate(skewed, bad)]
    messages = []
    for call in calls:
        with pytest.raises(errors.DomainMismatch) as info:
            call()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    if case == "source":
        assert messages[0] == "edge e3 has no entry for (1, 0)"
    if case == "unrealizable":
        assert messages[0] == "edge e6 value is not a function of its local input"


def test_sweep_cap_refuses_before_any_scheme_call(diamond):
    calls = []
    base = codesim.diamond_scheme(10)

    def counted(eid, fn):
        return lambda xs: calls.append(eid) or fn(xs)

    functions = {eid: counted(eid, fn) for eid, fn in base.edge_functions.items()}
    scheme = FixedScheme("counted", 10, functions, base.decoder)
    with pytest.raises(errors.DomainTooLarge):
        codesim.huffman_transform(diamond, scheme)
    assert calls == []
    with pytest.raises(errors.DomainTooLarge):
        codesim.evaluate(diamond, UDCode(9, {e.id: {(0,): "0"} for e in diamond.edges}, {}))
    with pytest.raises(errors.UsageError):
        codesim.evaluate(diamond, UDCode(0, {e.id: {(): "0"} for e in diamond.edges}, {}))
