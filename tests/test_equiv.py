"""Equivalence classes and the distinguishability counts they induce.

On the diamond network with the arithmetic sum, the single-shot global
classes are the level sets of x1+x2+x3 (sizes 1/3/3/1), the nontrivial
partition's block relations are full resolution on x1 and on x3, and the
combination counts per class/leftover pin the frozen total of 6 against the
trivial partition's 4.
"""

import random

import pytest

from conftest import random_model
from netfuncomp import equiv, errors, netmodel
from netfuncomp.examples import diamond_model


def _col(*symbols):
    return tuple((s,) for s in symbols)


@pytest.fixture(scope="module")
def diamond():
    return diamond_model()


@pytest.fixture(scope="module")
def partitions(diamond):
    trivial, nontrivial = netmodel.enumerate_strong_partitions(diamond, ["e5", "e6"])
    return trivial, nontrivial


def test_global_classes_are_sum_levels(diamond):
    part = equiv.i_aj_classes(diamond, ("s1", "s2", "s3"), ())
    assert part.num_classes == 4
    assert part.classes == (
        (_col(0, 0, 0),),
        (_col(0, 0, 1), _col(0, 1, 0), _col(1, 0, 0)),
        (_col(0, 1, 1), _col(1, 0, 1), _col(1, 1, 0)),
        (_col(1, 1, 1),),
    )


def test_side_information_classes(diamond):
    for a_j in [((0,),), ((1,),)]:
        part = equiv.i_aj_classes(diamond, ("s1",), ("s2",), a_j)
        assert part.num_classes == 2
        assert part.sources == ("s1",)


def test_empty_i_gives_single_empty_class(diamond):
    part = equiv.i_aj_classes(diamond, (), ("s1",), ((0,),))
    assert part.classes == (((),),)


def test_block_relations_fully_resolve(diamond, partitions):
    _, nontrivial = partitions
    for ell in range(2):
        for a_l in [((0,),), ((1,),)]:
            part = equiv.il_al_aj_classes(diamond, nontrivial, ell, a_l)
            assert part.num_classes == 2


def test_combination_counts_per_class(diamond, partitions):
    _, nontrivial = partitions
    base = equiv.i_aj_classes(diamond, ("s1", "s2", "s3"), ())
    counts_at = {}
    for a_l in [((0,),), ((1,),)]:
        counts_at[a_l[0][0]] = [
            equiv.count_N(diamond, nontrivial, cls, a_l) for cls in base.classes
        ]
    # x2 pinned to 0: sums 0..3 need (x1,x3) pairs from {0,1}^2
    assert counts_at[0] == [1, 2, 1, 0]
    assert counts_at[1] == [0, 1, 2, 1]
    maxima = [equiv.count_N_max(diamond, nontrivial, cls) for cls in base.classes]
    assert maxima == [1, 2, 2, 1]


def test_frozen_counts(diamond, partitions):
    trivial, nontrivial = partitions
    assert equiv.n_C(diamond, nontrivial) == 6
    assert equiv.n_C(diamond, trivial) == 4
    assert equiv.n_C_f(diamond, trivial.cut) == 6


def test_count_rejects_non_classes(diamond, partitions):
    _, nontrivial = partitions
    with pytest.raises(errors.NotAClass):
        equiv.count_N(diamond, nontrivial, (_col(0, 0, 0), _col(1, 1, 1)), ((0,),))


def test_k_shot_classes_count(diamond):
    part = equiv.i_aj_classes(diamond, ("s1", "s2", "s3"), (), k=2)
    # rows are independent, so classes pair the per-row sum levels
    assert part.num_classes == 16


def test_k_shot_classes_factor_across_rows():
    rng = random.Random(61)
    for _ in range(10):
        model = random_model(rng)
        sources = list(model.sources)
        rng.shuffle(sources)
        n_i = rng.randint(1, len(sources))
        i_sources = tuple(s for s in model.sources if s in sources[:n_i])
        j_sources = tuple(s for s in model.sources if s in sources[n_i:])
        for a_j_rows in [
            tuple((0,) * len(j_sources)),
            tuple((1,) * len(j_sources)),
        ]:
            single = {
                row: equiv.i_aj_classes(
                    model, i_sources, j_sources, tuple((s,) for s in a_j_rows)
                ).class_index()
                for row in [0]
            }[0]
            a_j2 = tuple((s, s) for s in a_j_rows)
            double = equiv.i_aj_classes(model, i_sources, j_sources, a_j2, k=2)
            index2 = double.class_index()
            members = list(index2)
            for x in members[:20]:
                for y in members[:20]:
                    rows_equal = all(
                        single[tuple((col[r],) for col in x)]
                        == single[tuple((col[r],) for col in y)]
                        for r in range(2)
                    )
                    assert (index2[x] == index2[y]) == rows_equal


def test_domain_cap(diamond):
    # 2^(7*3) blocks over the diamond's three sources exceed DOMAIN_CAP = 2^20.
    with pytest.raises(errors.DomainTooLarge):
        equiv.i_aj_classes(diamond, ("s1", "s2", "s3"), (), k=7)


def test_overlapping_sets_rejected(diamond):
    with pytest.raises(errors.OverlappingSets):
        equiv.i_aj_classes(diamond, ("s1",), ("s1",))


def test_malformed_side_information_rejected(diamond):
    with pytest.raises(errors.UsageError):
        equiv.i_aj_classes(diamond, ("s1",), ("s2",), ((0, 1),))


def test_package_caches_are_bounded():
    import importlib
    import pkgutil

    import netfuncomp

    cached = []
    for info in pkgutil.iter_modules(netfuncomp.__path__):
        module = importlib.import_module(f"netfuncomp.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_parameters", None)):
                cached.append(name)
                assert obj.cache_parameters()["maxsize"] is not None, name
    assert {"_i_aj_cached", "_il_cached"} <= set(cached)
