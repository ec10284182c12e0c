"""Regenerate the stored references of random-suite and layered-cuts.

    python3 bench/make_references.py

The references define what every later run counts as correct, so run this
only on code whose outputs are known to be right.  It writes
``data/random_suite_reference.json`` (per-pair basic, improved and
fixed-length values of every suite model) and
``data/layered_cuts_reference.json`` (cut and pair counts plus a digest of
the ``result`` section of ``cuts``).
"""

from __future__ import annotations

import json
import sys

import workloads
from forkserver import ForkServer
from run import SRC, WORKDIR, call_failure


def _stdout(server: ForkServer, argv: list[str]) -> str:
    reply = server.call(argv, trace=False)
    failure = call_failure(reply)
    if failure:
        raise SystemExit(f"{' '.join(argv)}: {failure}")
    return reply["stdout"]


def main() -> int:
    seed = workloads.DEFAULT_SUITE_SEED
    suite = workloads.write_suite(WORKDIR, seed)
    with ForkServer(str(SRC)) as server:
        models = {
            name: workloads.suite_values(_stdout(server, ["bounds", str(path)]))
            for name, path in sorted(suite.items())
        }
        layered = _stdout(server, ["cuts", str(workloads.LAYERED_MODEL)])
    (workloads.DATA / "random_suite_reference.json").write_text(
        json.dumps({"suite_seed": seed, "models": models}, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    result = json.loads(layered)["result"]
    reference = {
        "cuts": result["count"],
        "pairs": sum(len(c["strong_partitions"]) for c in result["cut_sets"]),
        "result_sha256": workloads.result_digest(layered),
    }
    (workloads.DATA / "layered_cuts_reference.json").write_text(
        json.dumps(reference, indent=2) + "\n", encoding="utf-8"
    )
    print(f"{sum(len(v) for v in models.values())} suite pairs; layered {reference}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
