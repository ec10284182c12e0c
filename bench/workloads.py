"""The benchmark's workloads: the CLI calls of one operation and their checks.

An operation is a list of ``netfuncomp`` command lines, each run in its own
forked child (see ``forkserver``).  A workload's check receives the captured
stdout of every call in order and returns ``None`` when all outputs are
correct, or a one-line reason.  Checks read only the JSON the CLI printed;
they never import the package, so the harness process stays cold.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DATA = Path(__file__).resolve().parent / "data"
LAYERED_MODEL = DATA / "layered_sum.json"

# Ordering slack of acceptance 6, and the slack allowed for the improved
# bound to fall below its stored reference.
ORDER_TOL = 1e-6
# Basic and fixed-length values are exact up to the CLI's 15-digit rounding.
EXACT_TOL = 1e-12

DIAMOND_BASIC = 7 / 4 - (3 / 8) * math.log2(3)
DIAMOND_IMPROVED = 0.5 * math.log2(5)
DIAMOND_FIXED = (1 + math.log2(3)) / 2
DIAMOND_K6_RATES = {"e1": 1.0, "e2": 0.5, "e3": 0.5, "e4": 1.0, "e5": 1.25, "e6": 1.25}

DEFAULT_SUITE_SEED = 601
SUITE_DRAWS = 50


@dataclass
class Workload:
    name: str
    calls: list[list[str]]
    check: Callable[[list[str]], str | None]


# -- diamond-bounds -----------------------------------------------------------


def _check_diamond_bounds(outputs: list[str]) -> str | None:
    result = json.loads(outputs[0])["result"]["bounds"]
    if abs(result["basic"] - DIAMOND_BASIC) > 1e-12:
        return f"basic {result['basic']!r} != 7/4 - (3/8) log2 3"
    if abs(result["improved"] - DIAMOND_IMPROVED) > 1e-4:
        return f"improved {result['improved']!r} not within 1e-4 of log2(5)/2"
    if abs(result["fixed_length"] - DIAMOND_FIXED) > 1e-12:
        return f"fixed_length {result['fixed_length']!r} != (1 + log2 3)/2"
    witness = result["witness"]["basic"]
    if witness != {"cut": ["e5", "e6"], "blocks": [["e5"], ["e6"]]}:
        return f"basic witness {witness!r} is not cut e5,e6 with blocks e5/e6"
    return None


def diamond_bounds() -> Workload:
    return Workload(
        "diamond-bounds", [["example", "diamond", "--bounds"]], _check_diamond_bounds
    )


# -- random-suite -------------------------------------------------------------


def random_model_doc(rng: random.Random, max_sources: int = 3, max_edges: int = 8) -> dict:
    """A random valid binary model document: every node reaches the sink, f nonconstant.

    The same draws, in the same order, as the acceptance-6 generator, so
    ``random.Random(601)`` yields that suite's 50 models.
    """
    n_sources = rng.randint(1, max_sources)
    n_mid = rng.randint(0, 2)
    sources = [f"s{i + 1}" for i in range(n_sources)]
    mids = [f"v{i + 1}" for i in range(n_mid)]
    nodes = sources + mids + ["t"]
    later = {node: nodes[i + 1 :] for i, node in enumerate(nodes)}

    edges: list[tuple[str, str]] = []
    for node in sources + mids:
        heads = [h for h in later[node] if h not in sources]
        edges.append((node, rng.choice(heads)))
    while len(edges) < max_edges and rng.random() < 0.6:
        tail = rng.choice(sources + mids)
        heads = [h for h in later[tail] if h not in sources]
        edges.append((tail, rng.choice(heads)))

    size = 2**n_sources
    table = [rng.randrange(2) for _ in range(size)]
    while len(set(table)) < 2:
        table = [rng.randrange(2) for _ in range(size)]
    weights = [rng.uniform(0.2, 1.0) for _ in range(size)]
    total = sum(weights)
    dist = [w / total for w in weights]
    dist[-1] = 1.0 - sum(dist[:-1])

    return {
        "alphabet": 2,
        "nodes": nodes,
        "edges": [{"id": f"e{i + 1}", "tail": t, "head": h} for i, (t, h) in enumerate(edges)],
        "sources": sources,
        "sink": "t",
        "function": table,
        "distribution": dist,
    }


def write_suite(workdir: Path, suite_seed: int) -> dict[str, Path]:
    """Write the diamond plus the seeded draws as model files; name -> path."""
    out_dir = workdir / f"random_suite_{suite_seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"m00": DATA / "diamond.json"}
    rng = random.Random(suite_seed)
    for i in range(1, SUITE_DRAWS + 1):
        path = out_dir / f"m{i:02d}.json"
        path.write_text(json.dumps(random_model_doc(rng), indent=2) + "\n", encoding="utf-8")
        paths[f"m{i:02d}"] = path
    return paths


def pair_key(row: dict) -> str:
    return ",".join(row["cut"]) + "|" + "/".join(",".join(b) for b in row["blocks"])


def suite_values(output: str) -> dict[str, list[float]]:
    """Per-pair [basic, improved, fixed_length] from one ``bounds`` report."""
    rows = json.loads(output)["result"]["pairs"]
    return {pair_key(r): [r["basic"], r["improved"], r["fixed_length"]] for r in rows}


def load_suite_reference(suite_seed: int) -> dict[str, dict[str, list[float]]] | None:
    doc = json.loads((DATA / "random_suite_reference.json").read_text(encoding="utf-8"))
    return doc["models"] if doc["suite_seed"] == suite_seed else None


def _suite_check(names: list[str], reference: dict | None) -> Callable[[list[str]], str | None]:
    def check(outputs: list[str]) -> str | None:
        total = 0
        for name, out in zip(names, outputs):
            got = suite_values(out)
            total += len(got)
            for key, (b, i, f) in got.items():
                if b > i + ORDER_TOL or i > f + ORDER_TOL:
                    return f"{name} {key}: basic {b} <= improved {i} <= fixed {f} fails"
            if reference is None:
                continue
            want = reference[name]
            if set(got) != set(want):
                return f"{name}: pair set differs from the reference"
            for key, (b, i, f) in got.items():
                rb, ri, rf = want[key]
                if abs(b - rb) > EXACT_TOL or abs(f - rf) > EXACT_TOL:
                    return f"{name} {key}: basic/fixed {b}/{f} != reference {rb}/{rf}"
                if i < ri - ORDER_TOL:
                    return f"{name} {key}: improved {i} below reference {ri}"
        if reference is not None:
            if sorted(names) != sorted(reference):
                return "the operation did not cover the reference's models"
            expected = sum(len(v) for v in reference.values())
            if total != expected:
                return f"{total} pairs, reference has {expected}"
        return None

    return check


def random_suite(
    workdir: Path,
    seed: int,
    suite_seed: int = DEFAULT_SUITE_SEED,
    reference: dict | None = None,
    names: list[str] | None = None,
) -> Workload:
    """``bounds FILE`` on the diamond and the seeded draws, in seed-shuffled order.

    ``reference`` defaults to the stored one for ``suite_seed`` (none for an
    unrecorded seed, which leaves only the ordering check); ``names``
    restricts the operation to some of the models.
    """
    paths = write_suite(workdir, suite_seed)
    if reference is None:
        reference = load_suite_reference(suite_seed)
    order = sorted(paths) if names is None else sorted(names)
    random.Random(seed).shuffle(order)
    calls = [["bounds", str(paths[n])] for n in order]
    return Workload("random-suite", calls, _suite_check(order, reference))


# -- layered-cuts -------------------------------------------------------------


def result_digest(output: str) -> str:
    """SHA-256 of the report's ``result`` section in canonical JSON."""
    result = json.loads(output)["result"]
    canon = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _layered_check(reference: dict) -> Callable[[list[str]], str | None]:
    def check(outputs: list[str]) -> str | None:
        result = json.loads(outputs[0])["result"]
        pairs = sum(len(c["strong_partitions"]) for c in result["cut_sets"])
        if (result["count"], pairs) != (reference["cuts"], reference["pairs"]):
            return f"{result['count']} cuts and {pairs} pairs, want {reference['cuts']} and {reference['pairs']}"
        if result_digest(outputs[0]) != reference["result_sha256"]:
            return "result section differs from the reference"
        return None

    return check


def load_layered_reference() -> dict:
    return json.loads((DATA / "layered_cuts_reference.json").read_text(encoding="utf-8"))


def layered_cuts(reference: dict | None = None) -> Workload:
    if reference is None:
        reference = load_layered_reference()
    return Workload("layered-cuts", [["cuts", str(LAYERED_MODEL)]], _layered_check(reference))


# -- diamond-sim-k6 -----------------------------------------------------------


def _check_sim(outputs: list[str]) -> str | None:
    report = json.loads(outputs[0])["result"]
    if report["admissible"] is not True:
        return "the scheme is not admissible"
    if report["non_ud_edges"]:
        return f"non-UD edges {report['non_ud_edges']}"
    if report["edge_rates"] != DIAMOND_K6_RATES:
        return f"edge rates {report['edge_rates']} != {DIAMOND_K6_RATES}"
    return None


def diamond_sim_k6() -> Workload:
    return Workload(
        "diamond-sim-k6", [["simulate", "--builtin", "diamond", "--k", "6"]], _check_sim
    )


NAMES = ("diamond-bounds", "random-suite", "layered-cuts", "diamond-sim-k6")


def make(name: str, workdir: Path, seed: int, suite_seed: int = DEFAULT_SUITE_SEED) -> Workload:
    if name == "diamond-bounds":
        return diamond_bounds()
    if name == "random-suite":
        return random_suite(workdir, seed, suite_seed)
    if name == "layered-cuts":
        return layered_cuts()
    if name == "diamond-sim-k6":
        return diamond_sim_k6()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
