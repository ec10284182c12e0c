"""Code simulation: unique decodability, the split-relay scheme, Huffman rates.

The split scheme on the diamond network at k = 2 must be admissible with
exact dyadic Huffman rates (source edges 1.0, half-block edges 0.5, relay
edges 1.25) and its relay words must properly color the characteristic
graph of the sink cut under both strong partitions (checked by the
per-block coloring oracle in ``oracles.py``).

The chunked numpy sweep is checked bit for bit against a per-block loop
kept here as the reference: same floats, same tables, same verdicts and
the same DomainMismatch messages, also when chunk boundaries fall inside
the domain.  The reference reads and writes dict tables; a code's integer
tables reach it through ``oracles.code_tables``, and dict tables become a
code through the JSON document that ``codesim.code_from_dict`` reads.
"""

import dataclasses
import json
import random
import time
import tracemalloc

import numpy as np
import pytest

from netfuncomp import codesim, errors, netmodel
from netfuncomp.codesim import FixedScheme, UDCode
from netfuncomp.examples import diamond_model, single_edge_model
from oracles import (
    CodeTables,
    blocks,
    code_tables,
    code_to_dict,
    ref_cut_coloring_check,
    ref_forward,
    ref_sardinas_patterson,
    tables_to_dict,
)


@pytest.fixture(scope="module")
def diamond():
    return diamond_model()


@pytest.fixture(scope="module")
def diamond_code(diamond):
    return codesim.huffman_transform(diamond, codesim.diamond_scheme(2))


def _from_tables(model, tables):
    """The code that dict tables describe, read back from their JSON form."""
    return codesim.code_from_dict(model, tables_to_dict(model, tables))


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


def _random_word_sets(rng):
    """Seeded binary word sets: random ones, Huffman codes, and long shared prefixes."""

    def bits(n):
        return "".join(rng.choice("01") for _ in range(n))

    for _ in range(150):
        yield {bits(rng.randint(1, 5)) for _ in range(rng.randint(1, 7))}
    for _ in range(60):
        dist = {i: rng.random() for i in range(rng.randint(1, 12))}
        yield set(codesim._huffman(dist).values())
    for _ in range(150):
        stem = bits(rng.randint(8, 20))
        words = {stem + bits(rng.randint(0, 3)) for _ in range(rng.randint(1, 5))}
        words |= {stem[: rng.randint(1, len(stem))] for _ in range(rng.randint(0, 2))}
        yield words | {bits(rng.randint(1, 4)) for _ in range(rng.randint(0, 3))}


def test_sardinas_patterson_matches_the_all_pairs_oracle():
    verdicts = []
    for words in _random_word_sets(random.Random(18)):
        verdicts.append(codesim.sardinas_patterson(words))
        assert verdicts[-1] == ref_sardinas_patterson(words), sorted(words)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_sardinas_patterson_is_fast_on_a_code_that_is_not_prefix_free():
    # Reversed Huffman words are suffix-free, so every round has suffixes to strip.
    rng = random.Random(19)
    huffman = codesim._huffman({i: rng.random() for i in range(16384)})
    words = {w[::-1] for w in huffman.values()}
    ordered = sorted(words)
    assert any(v.startswith(u) for u, v in zip(ordered, ordered[1:]))
    t0 = time.perf_counter()
    assert codesim.sardinas_patterson(words)
    assert time.perf_counter() - t0 < 5.0


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
        assert ref_cut_coloring_check(diamond, diamond_code, part)


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
        ref_cut_coloring_check(diamond, diamond_code, part)


def test_corrupt_decoder_entry_breaks_admissibility(diamond, diamond_code):
    tables = code_tables(diamond, diamond_code)
    decoder = dict(tables.decoder)
    key = next(iter(decoder))
    decoder[key] = (99, 99)
    bad = _from_tables(diamond, dataclasses.replace(tables, decoder=decoder))
    report = codesim.evaluate(diamond, bad)
    assert not report.admissible
    assert report.non_ud_edges == ()


def test_non_ud_edge_is_reported_not_raised():
    model = single_edge_model()
    code = UDCode(
        k=1,
        words={"e1": ("0", "00")},
        tables={"e1": np.array([0, 1], dtype=np.int32)},
        decoder=np.array([0, 1], dtype=np.int32),
        outputs=np.array([[0], [1]], dtype=np.int32),
    )
    report = codesim.evaluate(model, code)
    assert report.non_ud_edges == ("e1",)
    assert report.admissible
    assert report.edge_rates["e1"] == 1.5


def test_evaluate_rejects_wrong_edge_set(diamond, diamond_code):
    tables = dict(diamond_code.tables)
    del tables["e3"]
    with pytest.raises(errors.DomainMismatch, match="one encoder per edge"):
        codesim.evaluate(diamond, dataclasses.replace(diamond_code, tables=tables))


@pytest.fixture(scope="module")
def ternary_diamond(diamond):
    """The diamond over the alphabet {0, 1, 2}."""
    return netmodel.validate(
        dataclasses.replace(
            diamond,
            alphabet_size=3,
            function_table=tuple(a + b + c for a in range(3) for b in range(3) for c in range(3)),
            distribution=(1 / 27,) * 27,
        )
    )


def test_evaluate_refuses_tables_that_do_not_fit_the_model(diamond, ternary_diamond, diamond_code):
    short = dict(diamond_code.words, e5=diamond_code.words["e5"][:1])
    cases = [
        (ternary_diamond, diamond_code, "edge e1 table does not fit the model"),
        (diamond, dataclasses.replace(diamond_code, k=4), "edge e1 table does not fit the model"),
        (diamond, dataclasses.replace(diamond_code, words=short), "edge e5 table does not fit"),
        (
            diamond,
            dataclasses.replace(diamond_code, outputs=diamond_code.outputs[:, :1]),
            "decoder output table does not fit",
        ),
    ]
    for model, code, message in cases:
        with pytest.raises(errors.DomainMismatch, match=message) as info:
            codesim.evaluate(model, code)
        assert info.value.exit_code == 2


def test_scheme_for_other_edges_is_rejected(diamond):
    # The diamond scheme names e1..e6; the single-edge model has only e1.
    with pytest.raises(errors.DomainMismatch, match="one edge function per edge"):
        codesim.huffman_transform(single_edge_model(), codesim.diamond_scheme(2))
    functions = dict(codesim.diamond_scheme(2).edge_functions, e7=lambda xs: xs[0])
    with pytest.raises(errors.DomainMismatch, match="one edge function per edge"):
        codesim.huffman_transform(diamond, FixedScheme("extra", 2, functions, lambda v: v["e5"]))


def test_unrealizable_scheme_is_rejected(diamond):
    base = codesim.diamond_scheme(2)
    functions = dict(base.edge_functions)
    # the left relay never sees the third source
    functions["e5"] = lambda xs: xs[2]
    bad = FixedScheme("bad", 2, functions, base.decoder)
    with pytest.raises(errors.DomainMismatch):
        codesim.huffman_transform(diamond, bad)


def test_scheme_edge_function_must_give_rows(diamond):
    base = codesim.diamond_scheme(2)
    functions = dict(base.edge_functions, e1=lambda xs: xs[0][:, 0])
    message = r"^edge function e1 must give an \(64, d\) integer array, got shape \(64,\) of int"
    with pytest.raises(errors.UsageError, match=message):
        codesim.huffman_transform(diamond, FixedScheme("flat", 2, functions, base.decoder))


def test_code_round_trips_through_json(diamond, diamond_code):
    doc = json.loads(json.dumps(code_to_dict(diamond, diamond_code)))
    code = codesim.code_from_dict(diamond, doc)
    report = codesim.evaluate(diamond, code)
    assert report.admissible
    assert report.max_rate == 1.25


def test_code_from_dict_rejects_missing_edge(diamond, diamond_code):
    doc = code_to_dict(diamond, diamond_code)
    del doc["encoders"]["e6"]
    with pytest.raises(errors.UsageError):
        codesim.code_from_dict(diamond, doc)
    with pytest.raises(errors.UsageError):
        codesim.code_from_dict(diamond, {"k": 2})


def test_code_over_large_alphabet_round_trips_through_json():
    model = single_edge_model(q=12)
    ids = np.arange(12, dtype=np.int32)
    code = UDCode(
        k=1,
        words={"e1": tuple(format(i, "04b") for i in range(12))},
        tables={"e1": ids},
        decoder=ids,
        outputs=ids.reshape(12, 1),
    )
    doc = json.loads(json.dumps(code_to_dict(model, code)))
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


def _block_prob(model, xs, k):
    p = 1.0
    for r in range(k):
        p *= model.distribution[model.arg_index([col[r] for col in xs])]
    return p


def ref_evaluate(model, tables):
    k = tables.k
    edges = codesim._edges_in_topo_order(model)
    non_ud = tuple(
        e.id for e in edges if not codesim.sardinas_patterson(set(tables.encoders[e.id].values()))
    )
    sink_ids = codesim._in_ids(model, model.sink)
    lengths = {e.id: 0.0 for e in model.edges}
    admissible = True
    for xs in blocks(model, k):
        p = _block_prob(model, xs, k)
        truth = model.f_rows(dict(zip(model.sources, xs)), k)
        y = ref_forward(model, tables, xs)
        for eid, w in y.items():
            lengths[eid] += p * len(w)
        dec_key = tuple(y[d] for d in sink_ids)
        try:
            got = tables.decoder[dec_key]
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
    for xs in blocks(model, k):
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
    return CodeTables(k, encoders, decoder)


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
        (codesim.diamond_scheme(4), 10),
        (_single_scheme(), None),
        (_single_scheme(), 3),
    ],
    ids=["k2", "k2-chunk5", "k4", "k4-chunk1000", "k4-chunk10", "single-k1", "single-k1-chunk3"],
)
def test_sweep_matches_the_per_block_loop(monkeypatch, diamond, skewed, scheme, chunk):
    if chunk is not None:
        monkeypatch.setattr(codesim, "CHUNK_BLOCKS", chunk)
    for model in (skewed, diamond):
        code = codesim.huffman_transform(model, scheme)
        want = ref_huffman_transform(model, scheme)
        assert code_tables(model, code) == want
        _same_report(codesim.evaluate(model, code), ref_evaluate(model, want))


def _inputless_relay():
    """A sum network whose relay v0 has no in-edges, and a scheme for it at k = 2."""
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
    return model, scheme


def test_sweep_matches_the_loop_with_a_relay_that_has_no_inputs(monkeypatch):
    # v0 has no in-edges: its edge's table and the encoder keys above it hold ().
    model, scheme = _inputless_relay()
    monkeypatch.setattr(codesim, "CHUNK_BLOCKS", 10)
    code = codesim.huffman_transform(model, scheme)
    want = ref_huffman_transform(model, scheme)
    got = code_tables(model, code)
    assert got == want and got.encoders["e3"] == {(): "0"}
    _same_report(codesim.evaluate(model, code), ref_evaluate(model, want))
    assert codesim.evaluate(model, code).admissible


def test_code_file_keys_a_relay_that_has_no_inputs_by_the_empty_string(tmp_path):
    model, scheme = _inputless_relay()
    code = codesim.huffman_transform(model, scheme)
    doc = code_to_dict(model, code)
    assert doc["encoders"]["e3"] == {"": "0"}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    from_file = codesim.code_from_dict(model, netmodel.read_json(str(path)))
    report = codesim.evaluate(model, from_file)
    assert report.admissible
    _same_report(report, codesim.evaluate(model, code))


def _wide_scheme():
    """The k = 2 split scheme with values scaled by -10^6 or 10^6 and shifted."""
    w = 10**6

    def e5(xs):
        x1, x2 = xs[0], xs[1]
        return np.concatenate([-(x1[:, :1] + x2[:, :1]) * w, x1[:, 1:] * w - 3], axis=1)

    def e6(xs):
        x2, x3 = xs[1], xs[2]
        return np.concatenate([-x3[:, :1] * w, (x2[:, 1:] + x3[:, 1:]) * w + 11], axis=1)

    def decode(values):
        v5, v6 = values["e5"], values["e6"]
        return np.stack(
            [-v5[:, 0] // w - v6[:, 0] // w, (v5[:, 1] + 3) // w + (v6[:, 1] - 11) // w], axis=1
        )

    functions = {
        "e1": lambda xs: -xs[0] * w - 5,
        "e2": lambda xs: xs[1][:, :1],
        "e3": lambda xs: xs[1][:, 1:] * -w,
        "e4": lambda xs: xs[2],
        "e5": e5,
        "e6": e6,
    }
    return FixedScheme("diamond-wide", 2, functions, decode)


@pytest.mark.parametrize("chunk", [5, 7])
def test_sweep_matches_the_loop_on_wide_negative_values(monkeypatch, diamond, skewed, chunk):
    # Narrow codes are tabled directly and wide ones sorted; chunks of 5 or 7
    # of the 64 blocks make values first appear in a later chunk.
    monkeypatch.setattr(codesim, "CHUNK_BLOCKS", chunk)
    wide = []
    first_ids = codesim._first_ids

    def spied(codes):
        span = int(codes.max()) - int(codes.min()) + 1
        wide.append(span > codesim.SPAN_CHUNKS * codesim.CHUNK_BLOCKS)
        return first_ids(codes)

    monkeypatch.setattr(codesim, "_first_ids", spied)
    for model in (skewed, diamond):
        code = codesim.huffman_transform(model, _wide_scheme())
        want = ref_huffman_transform(model, _wide_scheme())
        got = code_tables(model, code)
        assert got.encoders == want.encoders
        # Both list the sink inputs in order of first occurrence.
        assert list(got.decoder.items()) == list(want.decoder.items())
        report = codesim.evaluate(model, code)
        assert report.admissible
        _same_report(report, ref_evaluate(model, want))
    assert True in wide and False in wide


@pytest.mark.parametrize("scale", [1, -(10**6)], ids=["tabled", "sorted"])
def test_first_ids_list_first_occurrences_in_order(scale):
    codes = np.random.default_rng(18).integers(-40, 40, size=500) * scale
    span = int(codes.max()) - int(codes.min()) + 1
    assert (span > codesim.SPAN_CHUNKS * codesim.CHUNK_BLOCKS) == (scale != 1)
    first_at: dict[int, int] = {}
    for i, c in enumerate(codes.tolist()):
        first_at.setdefault(c, i)
    rank = {c: r for r, c in enumerate(first_at)}
    got_first, got_rank = codesim._first_ids(codes)
    assert got_first.tolist() == list(first_at.values())
    assert got_rank.tolist() == [rank[c] for c in codes.tolist()]


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
    tables = code_tables(skewed, codesim.huffman_transform(skewed, codesim.diamond_scheme(2)))
    decoder = dict(tables.decoder)
    decoder[next(iter(decoder))] = (99, 99)
    wrong = dataclasses.replace(tables, decoder=decoder)
    e1 = {key: "0" + w for key, w in tables.encoders["e1"].items()}
    bad = dataclasses.replace(wrong, encoders=dict(tables.encoders, e1=e1))
    report = codesim.evaluate(skewed, _from_tables(skewed, wrong))
    assert not report.admissible
    _same_report(report, ref_evaluate(skewed, wrong))
    with pytest.raises(errors.DomainMismatch) as got:
        codesim.evaluate(skewed, _from_tables(skewed, bad))
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
    tables = code_tables(skewed, diamond_code)
    enc, dec = tables.encoders, tables.decoder
    if case == "unrealizable":
        calls = [
            lambda: codesim.huffman_transform(skewed, _unrealizable_twice()),
            lambda: ref_huffman_transform(skewed, _unrealizable_twice()),
        ]
    else:
        if case == "source":
            bad = CodeTables(2, dict(enc, e3=_drop(enc["e3"], 2)), dec)
        elif case == "relay":
            bad = CodeTables(2, dict(enc, e5=_drop(enc["e5"], 7)), dec)
        else:
            bad = CodeTables(2, enc, _drop(dec, 11))
        calls = [
            lambda: codesim.evaluate(skewed, _from_tables(skewed, bad)),
            lambda: ref_evaluate(skewed, bad),
        ]
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


def test_one_source_sweep_tables_no_more_than_a_chunk():
    # 2^22 columns: a table of all their digits would take 739 MB.
    tracemalloc.start()
    try:
        chunk = next(codesim._sweep(single_edge_model(), 22))
        (symbols,) = chunk.xs()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert symbols.shape == (codesim.CHUNK_BLOCKS, 22)
    assert peak < 32 << 20


def test_k6_diamond_simulation_holds_one_chunk_at_a_time(diamond):
    # 2^18 blocks and 46,656 sink inputs.  A sweep that holds two chunks'
    # arrays at a chunk boundary, with a decoder given every sink input in
    # one call, traces 9.5 MB in huffman_transform and 5.1 MB in evaluate.
    tracemalloc.start()
    try:
        code = codesim.huffman_transform(diamond, codesim.diamond_scheme(6))
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        codesim.evaluate(diamond, code)
        sweep = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert build < 7 << 20
    assert sweep < 4.5 * (1 << 20)


def test_decoder_sees_sink_inputs_a_chunk_at_a_time(monkeypatch, diamond):
    base = codesim.diamond_scheme(4)
    whole = codesim.huffman_transform(diamond, base)
    batches = []

    def decoder(values):
        batches.append(len(values["e5"]))
        return base.decoder(values)

    monkeypatch.setattr(codesim, "CHUNK_BLOCKS", 10)
    counted = FixedScheme("counted", 4, base.edge_functions, decoder)
    code = codesim.huffman_transform(diamond, counted)
    assert max(batches) == 10 and sum(batches) == len(whole.outputs) > 10
    assert np.array_equal(code.outputs, whole.outputs)
    assert np.array_equal(code.decoder, whole.decoder)

    def wide(values):
        return np.zeros((len(values["e5"]), 5), dtype=np.int64)

    message = r"must give a \(10, 4\) integer array, got shape \(10, 5\)"
    with pytest.raises(errors.UsageError, match=message):
        codesim.huffman_transform(diamond, FixedScheme("wide", 4, base.edge_functions, wide))


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
    one = np.zeros(1, dtype=np.int32)

    def tiny(k):
        words = {e.id: ("0",) for e in diamond.edges}
        return UDCode(k, words, {e.id: one for e in diamond.edges}, one, np.zeros((1, k)))

    with pytest.raises(errors.DomainTooLarge):
        codesim.evaluate(diamond, tiny(9))
    with pytest.raises(errors.UsageError):
        codesim.evaluate(diamond, tiny(0))
