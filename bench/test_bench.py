"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run real CLI calls through the fork server on the cheapest inputs
(the diamond and two small random-suite models), about half a minute in all.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from forkserver import ForkServer  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_every_metric_with_its_unit(trace, section):
    done = _bench("--workload", "diamond-bounds", "--seed", "1", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())
    # a traced run also checks that tracing left stdout byte-identical
    assert (doc["correct"], doc["failed"]) == (True, 0)
    assert doc["attempted"] == 1 + trace
    for name in want:
        assert name in done.stderr


def test_wrong_stored_reference_counts_as_a_failed_operation(tmp_path):
    names = ["m01", "m02"]
    stored = workloads.load_suite_reference(workloads.DEFAULT_SUITE_SEED)
    reference = {name: stored[name] for name in names}
    wrong = copy.deepcopy(reference)
    first = next(iter(wrong["m01"]))
    wrong["m01"][first][0] += 0.5
    with ForkServer(str(run.SRC)) as server:
        for ref, failed in ((reference, 0), (wrong, 1)):
            workload = workloads.random_suite(tmp_path, seed=0, reference=ref, names=names)
            tally = run.Tally(workload.name)
            run.run_untraced(server, workload, 0.0, tally, run.SpeedClock())
            assert (tally.attempted, tally.failed) == (1, failed)


def test_checks_reject_wrong_values():
    diamond = {"result": {"bounds": {
        "basic": workloads.DIAMOND_BASIC,
        "improved": workloads.DIAMOND_IMPROVED - 2e-4,
        "fixed_length": workloads.DIAMOND_FIXED,
        "witness": {"basic": {"cut": ["e5", "e6"], "blocks": [["e5"], ["e6"]]}},
    }}}
    assert "improved" in workloads.diamond_bounds().check([json.dumps(diamond)])
    rates = dict(workloads.DIAMOND_K6_RATES, e5=1.5)
    sim = {"result": {"admissible": True, "non_ud_edges": [], "edge_rates": rates}}
    assert "edge rates" in workloads.diamond_sim_k6().check([json.dumps(sim)])
    cuts = {"result": {"count": 973, "cut_sets": []}}
    assert "pairs" in workloads.layered_cuts().check([json.dumps(cuts)])


def test_warm_package_cache_stops_the_fork_server():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from netfuncomp import examples, netmodel\n"
        "netmodel.validate(examples.diamond_model())\n"
        "from forkserver import ForkServer\n"
        "with ForkServer(sys.argv[2]) as server:\n"
        "    server.call(['example', 'diamond'], False)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(BENCH), str(run.SRC)],
        capture_output=True, text=True,
    )
    assert done.returncode != 0
    assert "caches hold" in done.stderr


def test_without_package_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "diamond-bounds", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
