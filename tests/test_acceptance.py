"""Acceptance checks for the delivered bound and simulation machinery.

One test per delivery criterion, each printing a single summary line
(ACCEPTANCE n PASS/FAIL) with the headline numbers and its runtime, so a
plain pytest run yields a nine-line scorecard.  Tolerances and budgets are
stated inline next to each check.
"""

import itertools
import json
import math
import random
import time

import pytest

from conftest import (
    brute_clique_number,
    brute_strong_partitions,
    grid_scan,
    random_graph,
    random_model,
)
from netfuncomp import bounds, chargraph, cli, codesim, equiv, netmodel
from netfuncomp.codesim import FixedScheme
from netfuncomp.entropy import clique_entropy, graph_entropy, chromatic_entropy
from netfuncomp.examples import diamond_model
from netfuncomp.pgraph import ProbGraph
from oracles import (
    clique_entropy_product_check,
    complement,
    is_pc_equivalent,
    project,
    ref_cut_coloring_check,
    replace,
    sandwich_check,
    shannon_entropy,
)

BASIC = 7 / 4 - (3 / 8) * math.log2(3)
IMPROVED = 0.5 * math.log2(5)
FIXED = (1 + math.log2(3)) / 2
OPT_ATOMS = [0.1, 0.15, 0.1, 0.15, 0.15, 0.1, 0.15, 0.1]


def _report(capsys, n, checks, detail):
    failed = [label for label, ok in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {n} {verdict}: {detail}")
    assert not failed, f"failed checks: {failed}"


@pytest.fixture(scope="module")
def diamond():
    return diamond_model()


@pytest.fixture(scope="module")
def diamond_partitions(diamond):
    return netmodel.enumerate_strong_partitions(diamond, ("e5", "e6"))


def test_acceptance_1_diamond_basic_bound(capsys, diamond):
    t0 = time.perf_counter()
    rc = cli.main(["example", "diamond", "--bounds"])
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    result = doc["result"]["bounds"]
    witness = result["witness"]["basic"]
    report = bounds.basic_lower_bound(diamond)
    checks = [
        ("exit code", rc == 0),
        ("value within 1e-12", abs(result["basic"] - BASIC) <= 1e-12),
        ("witness cut", witness["cut"] == ["e5", "e6"]),
        ("witness blocks", witness["blocks"] == [["e5"], ["e6"]]),
        (
            "exact decomposition on every pair",
            all(p.method == "ExactDecomposition" for p in report.pairs),
        ),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    _report(capsys, 1, checks, f"basic={result['basic']:.12f} t={elapsed:.2f}s")


def test_acceptance_2_diamond_intermediate_values(capsys, diamond, diamond_partitions):
    parts = diamond_partitions
    cg = chargraph.build(diamond, parts[1], 1)
    by_label = {}
    for label in ("001", "010", "100"), ("011", "101", "110"):
        by_label[label] = clique_entropy(project(cg.graph, label)).value
    full = clique_entropy(cg.graph).value
    expected_full = 7 / 2 - (3 / 4) * math.log2(3)
    lo = by_label[("001", "010", "100")]
    hi = by_label[("011", "101", "110")]
    checks = [
        ("middle class exactly 2/3", lo == 2 / 3),
        ("upper class exactly 2/3", hi == 2 / 3),
        ("full graph within 1e-12", abs(full - expected_full) <= 1e-12),
    ]
    _report(capsys, 2, checks, f"restrictions={lo:.12f},{hi:.12f} full={full:.12f}")


def test_acceptance_3_diamond_improved_bound(capsys, diamond, diamond_partitions):
    t0 = time.perf_counter()
    report = bounds.improved_lower_bound(diamond)
    elapsed = time.perf_counter() - t0
    top = next(
        p
        for p in report.pairs
        if p.key() == (("e5", "e6"), (("e5",), ("e6",)))
    )
    atoms = top.details["opt_dist"]
    atom_err = max(abs(a - b) for a, b in zip(atoms, OPT_ATOMS))
    parts = diamond_partitions
    grid_value, _ = grid_scan(bounds._graphs(diamond)(parts[1]))
    grid_gap = abs(grid_value / len(top.cut) - top.value)
    checks = [
        ("value within 1e-4", abs(report.value - IMPROVED) <= 1e-4),
        ("optimum atoms within 1e-3", atom_err <= 1e-3),
        ("optimum is admissible", is_pc_equivalent(atoms, diamond, parts[1], tol=1e-6)),
        ("grid oracle within 1e-3", grid_gap <= 1e-3),
        ("runtime < 30 s", elapsed < 30.0),
    ]
    _report(
        capsys,
        3,
        checks,
        f"improved={report.value:.9f} atom_err={atom_err:.1e} grid_gap={grid_gap:.1e} t={elapsed:.2f}s",
    )


def test_acceptance_4_diamond_fixed_length_bound(capsys, diamond, diamond_partitions):
    t0 = time.perf_counter()
    parts = diamond_partitions
    count = equiv.n_C(diamond, parts[1])
    report = bounds.fixed_length_bound(diamond)
    cliques = [
        brute_clique_number(chargraph.build(diamond, part, 1).graph)
        for part in parts
    ]
    counts = [equiv.n_C(diamond, part) for part in parts]
    elapsed = time.perf_counter() - t0
    checks = [
        ("count is exactly 6", count == 6),
        ("bound within 1e-12", abs(report.value - FIXED) <= 1e-12),
        ("count equals clique number on both partitions", counts == cliques),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    _report(
        capsys, 4, checks, f"count={count} bound={report.value:.12f} t={elapsed:.2f}s"
    )


def test_acceptance_5_diamond_code_simulation(capsys, diamond):
    t0 = time.perf_counter()
    rows = []
    ok = []
    for k in (2, 4, 6):
        code = codesim.huffman_transform(diamond, codesim.diamond_scheme(k))
        rep = codesim.evaluate(diamond, code)
        r = rep.edge_rates
        ok.append(
            (
                f"k={k}",
                rep.admissible
                and not rep.non_ud_edges
                and rep.max_rate <= 5 / 4 + 1 / k
                and r["e1"] == r["e4"] <= 1 + 1 / k
                and r["e2"] == r["e3"] <= 0.5 + 1 / k,
            )
        )
        rows.append(f"k={k}:R={rep.max_rate:g}")
    elapsed = time.perf_counter() - t0
    ok.append(("runtime < 60 s", elapsed < 60.0))
    _report(capsys, 5, ok, " ".join(rows) + f" t={elapsed:.1f}s")


def test_acceptance_6_bound_ordering(capsys, diamond):
    t0 = time.perf_counter()
    rng = random.Random(601)
    models = [diamond] + [random_model(rng) for _ in range(50)]
    worst = 0.0
    pairs_seen = 0
    ordered = True
    for model in models:
        basic = bounds.basic_lower_bound(model)
        improved = bounds.improved_lower_bound(model)
        fixed = bounds.fixed_length_bound(model)
        for b, i, f in zip(basic.pairs, improved.pairs, fixed.pairs):
            assert b.key() == i.key() == f.key()
            pairs_seen += 1
            worst = max(worst, b.value - i.value, i.value - f.value)
            if b.value > i.value + 1e-6 or i.value > f.value + 1e-6:
                ordered = False
    elapsed = time.perf_counter() - t0
    checks = [("basic <= improved <= fixed within 1e-6", ordered)]
    _report(
        capsys,
        6,
        checks,
        f"models=51 pairs={pairs_seen} worst_violation={worst:.1e} t={elapsed:.1f}s",
    )


def test_acceptance_7_entropy_property_suite(capsys):
    t0 = time.perf_counter()
    rng = random.Random(701)
    worst = {"identity": 0.0, "chain": 0.0, "clique_cap": 0.0, "subst": 0.0, "and": 0.0}
    exact_special = True
    for _ in range(200):
        g = random_graph(rng, max_n=8)
        h = shannon_entropy(g.dist)
        omega = clique_entropy(g).value
        kappa = graph_entropy(g).value
        chi = chromatic_entropy(g).value
        kappa_c = graph_entropy(complement(g)).value
        worst["identity"] = max(worst["identity"], abs(kappa_c + omega - h))
        worst["chain"] = max(worst["chain"], omega - kappa, kappa - chi)
        worst["clique_cap"] = max(
            worst["clique_cap"], omega - math.log2(brute_clique_number(g))
        )

        base = random_graph(rng, max_n=5, min_n=2)
        target = base.vertices[rng.randrange(base.n)]
        clones = [f"c{i}" for i in range(rng.randint(2, 3))]
        outside = base.neighbors(target)
        verts = [v for v in base.vertices if v != target] + clones
        edges = [(u, v) for u, v in base.edges() if target not in (u, v)]
        edges += [(c, u) for c in clones for u in outside]
        edges += [
            (a, b) for a, b in itertools.combinations(clones, 2) if rng.random() < 0.5
        ]
        mass = base.dist[base.index(target)]
        shares = [rng.uniform(0.2, 1.0) for _ in clones]
        shares = [s / sum(shares) * mass for s in shares]
        shares[-1] = mass - sum(shares[:-1])
        dist = [base.dist[base.index(v)] for v in verts[: base.n - 1]] + shares
        big = ProbGraph(verts, edges, dist)
        whole = clique_entropy(big).value
        contracted = clique_entropy(replace(big, clones, "u")).value
        inner = clique_entropy(project(big, clones)).value
        worst["subst"] = max(worst["subst"], abs(whole - contracted - mass * inner))

        pair = [random_graph(rng, max_n=4), random_graph(rng, max_n=4)]
        worst["and"] = max(
            worst["and"], abs(clique_entropy_product_check(pair)["delta"])
        )

        n = rng.randint(1, 8)
        w = [rng.uniform(0.1, 1.0) for _ in range(n)]
        d = [x / sum(w) for x in w]
        d[-1] = 1.0 - sum(d[:-1])
        names = [f"z{i}" for i in range(n)]
        empty = ProbGraph(names, [], d)
        complete = ProbGraph(
            names, list(itertools.combinations(names, 2)), d
        )
        hd = shannon_entropy(d)
        exact_special = exact_special and (
            clique_entropy(empty).value == 0.0
            and graph_entropy(empty).value == 0.0
            and chromatic_entropy(empty).value == 0.0
            and clique_entropy(complete).value == hd
            and graph_entropy(complete).value == hd
            and chromatic_entropy(complete).value == hd
        )
    elapsed = time.perf_counter() - t0
    checks = [
        ("complement identity < 2e-9", worst["identity"] < 2e-9),
        ("entropy chain within 1e-9", worst["chain"] <= 1e-9),
        ("clique entropy under log clique number + 1e-9", worst["clique_cap"] <= 1e-9),
        ("substitution within 3e-9", worst["subst"] <= 3e-9),
        ("product additivity within 3e-9", worst["and"] <= 3e-9),
        ("empty and complete graphs exact", exact_special),
        ("runtime < 5 min", elapsed < 300.0),
    ]
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report(capsys, 7, checks, f"graphs=200 {detail} t={elapsed:.1f}s")


def test_acceptance_8_structural_suite(capsys, diamond, diamond_partitions):
    t0 = time.perf_counter()
    parts = diamond_partitions
    layer_ok = True
    sandwich_ok = True

    def check_layers(model, part, ks=(1, 2)):
        nonlocal layer_ok
        for k in ks:
            cg = chargraph.build(model, part, k)
            layer_ok = layer_ok and chargraph.layer_report(cg).ok

    for part in parts:
        check_layers(diamond, part)
        sandwich_ok = sandwich_ok and sandwich_check(diamond, part, 2).ok

    rng = random.Random(801)
    models_checked = 0
    while models_checked < 20:
        model = random_model(rng)
        cuts = netmodel.enumerate_cut_sets(model, min(2, len(model.edges)))
        if not cuts:
            continue
        pair_budget = 2
        for c in cuts:
            for part in netmodel.enumerate_strong_partitions(model, c):
                check_layers(model, part)
                sandwich_ok = sandwich_ok and sandwich_check(model, part, 2).ok
                pair_budget -= 1
                if pair_budget == 0:
                    break
            if pair_budget == 0:
                break
        models_checked += 1

    single = FixedScheme(
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
    coloring_ok = True
    for scheme in (single, codesim.diamond_scheme(2)):
        code = codesim.huffman_transform(diamond, scheme)
        coloring_ok = coloring_ok and codesim.evaluate(diamond, code).admissible
        for part in parts:
            coloring_ok = coloring_ok and ref_cut_coloring_check(diamond, code, part)
    elapsed = time.perf_counter() - t0
    checks = [
        ("sandwich holds at k=2", sandwich_ok),
        ("cut words color the graphs at k=1,2", coloring_ok),
        ("layer structure on every graph", layer_ok),
        ("runtime < 2 min", elapsed < 120.0),
    ]
    _report(capsys, 8, checks, f"models=20+diamond t={elapsed:.1f}s")


def test_acceptance_9_partition_machinery(capsys, diamond, diamond_partitions):
    t0 = time.perf_counter()
    parts = diamond_partitions
    got = {frozenset(frozenset(b) for b in p.blocks) for p in parts}
    expected = {
        frozenset({frozenset({"e5", "e6"})}),
        frozenset({frozenset({"e5"}), frozenset({"e6"})}),
    }
    rng = random.Random(901)
    instances = 0
    agree = True
    while instances < 100:
        model = random_model(rng)
        for analysis in netmodel.enumerate_cut_sets(model, min(3, len(model.edges))):
            lib = {
                frozenset(frozenset(b) for b in p.blocks)
                for p in netmodel.enumerate_strong_partitions(model, analysis)
            }
            agree = agree and lib == brute_strong_partitions(model, analysis.cut)
            instances += 1
            if instances == 100:
                break
    elapsed = time.perf_counter() - t0
    checks = [
        ("diamond partitions are exactly the two expected", got == expected),
        ("library matches the brute-force filter", agree),
        ("runtime < 1 min", elapsed < 60.0),
    ]
    _report(capsys, 9, checks, f"instances={instances} t={elapsed:.1f}s")
