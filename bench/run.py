"""The netfuncomp benchmark: CLI workloads timed end to end, or traced by layer.

    python3 bench/run.py --workload diamond-bounds --seed 1 --seconds 10 --trace 0

Run from a checkout; the package is imported from its ``src`` directory.
The load is a closed loop with one client: the next operation starts when
the previous one has returned.  Each CLI call of an operation runs in a
child forked from a process that has just imported ``netfuncomp.cli`` (see
``forkserver``), so caches start empty as in a fresh CLI process.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median time
to import ``netfuncomp.cli`` in fresh interpreters; ``wall_s``, the median
wall time of one operation inside ``cli.main``, summed over its calls; and
``peak_rss_mb``, the median over operations of the largest peak resident
memory of a call child.  Both times are in seconds at a reference host
speed: each measured interval is scaled by a calibration loop timed just
before and after it (see ``SpeedClock``).
``--trace 1`` alternates untraced and traced operations, checks that tracing
leaves every call's stdout byte-identical, and reports per-layer medians over
the traced ones (see ``tracing``); the last traced operation's spans go to
``.bench_work/``.

Every output is checked (see ``workloads``).  An operation fails when a call
raises, exits non-zero or fails its check; ``fail_ratio`` is failed over
attempted operations.  A human-readable table goes to stderr; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Without the package sources the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads
from forkserver import ForkServer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 5
# Seconds one calibration chunk takes at the reference speed (about its
# median on a 2-core x86-64 VM with Python 3.11).
CHUNK_REF_S = 0.016
# Each calibration runs at least this many chunks, and at least this share
# of the interval it follows, so long calls get a steadier reference.
MIN_CHUNKS = 5
CALIBRATION_SHARE = 0.05

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import netfuncomp.cli; print(time.perf_counter() - t)"
)


def _calibration_chunk() -> None:
    # A working set of a few MB, so that interference in the shared caches
    # slows the loop as much as it slows the CLI.
    table = {}
    for i in range(40_000):
        table[(i * 7919) % 100_003] = (i, float(i))
    total = 0.0
    for key in range(0, 100_003, 3):
        entry = table.get(key)
        if entry:
            total += entry[1]


def calibrate(chunks: int) -> float:
    """Median seconds of one calibration chunk on this host now.

    The median keeps a short burst of interference from moving the result.
    """
    gc.disable()
    try:
        times = []
        for _ in range(chunks):
            start = time.perf_counter()
            _calibration_chunk()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    finally:
        gc.enable()


class SpeedClock:
    """Converts seconds measured on this host to seconds at the reference speed.

    On a shared host the same code runs tens of percent faster or slower from
    one minute to the next, with no steal time to account for it.  Each
    measured interval is scaled by ``CHUNK_REF_S`` over the mean of the
    calibrations taken just before and just after it: host drift cancels,
    while a change in the measured code shows in full.
    """

    def __init__(self):
        self._last = calibrate(MIN_CHUNKS)

    def scale(self, seconds: float) -> float:
        """Scale an interval that ended just now."""
        chunks = max(MIN_CHUNKS, round(CALIBRATION_SHARE * seconds / CHUNK_REF_S))
        after = calibrate(chunks)
        factor = 2 * CHUNK_REF_S / (self._last + after)
        self._last = after
        return seconds * factor


def measure_setup(clock: SpeedClock, repeats: int = SETUP_REPEATS) -> float:
    """Median time to import ``netfuncomp.cli`` in fresh interpreters.

    One untimed import first writes the bytecode cache, as an install would.
    """
    times = []
    for i in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
            check=True, capture_output=True, text=True,
        )
        scaled = clock.scale(float(done.stdout))
        if i:
            times.append(scaled)
    return statistics.median(times)


def call_failure(reply: dict) -> str | None:
    if "crashed" in reply:
        return reply["crashed"]
    if reply["error"]:
        return reply["error"].strip().splitlines()[-1]
    if reply["exit"] != 0:
        return f"exit code {reply['exit']}: {reply['stderr'].strip()}"
    return None


def run_operation(
    server: ForkServer, workload: workloads.Workload, trace: bool, clock: SpeedClock | None = None
):
    """Run every call of one operation; return (replies, failure reason or None).

    With a clock, each reply also gets ``ref_s``, its wall time at the
    reference speed.
    """
    replies = []
    for argv in workload.calls:
        reply = server.call(argv, trace)
        if clock is not None:
            reply["ref_s"] = clock.scale(reply.get("wall_s", 0.0))
        replies.append(reply)
    for reply in replies:
        failure = call_failure(reply)
        if failure:
            return replies, failure
    try:
        return replies, workload.check([r["stdout"] for r in replies])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return replies, f"unreadable output: {exc!r}"


class Tally:
    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failed = 0

    def record(self, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failed += 1
            print(f"bench: {self.name} operation {self.attempted} failed: {failure}", file=sys.stderr)


def _op_wall(replies: list[dict], key: str = "wall_s") -> float:
    return sum(r.get(key, 0.0) for r in replies)


def run_untraced(
    server: ForkServer, workload: workloads.Workload, seconds: float, tally: Tally, clock: SpeedClock
) -> dict:
    walls, clock_walls, rss = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        replies, failure = run_operation(server, workload, trace=False, clock=clock)
        tally.record(failure)
        walls.append(_op_wall(replies, "ref_s"))
        clock_walls.append(_op_wall(replies))
        rss.append(max(r.get("maxrss_kb", 0) for r in replies) / 1024)
        if time.perf_counter() >= deadline:
            break
    return {"wall_s": walls, "wall_clock_s": clock_walls, "peak_rss_mb": rss}


def _stdout_change(baseline: list[dict], replies: list[dict]) -> str | None:
    for i, (a, b) in enumerate(zip(baseline, replies)):
        if a.get("stdout") != b.get("stdout"):
            return f"call {i} stdout differs with tracing on"
    return None


def run_traced(server: ForkServer, workload: workloads.Workload, seconds: float, tally: Tally) -> dict:
    """Alternate untraced and traced operations; per-layer samples per traced one."""
    deadline = time.perf_counter() + seconds
    baseline = None
    untraced, traced, per_op, spans = [], [], [], []
    while True:
        replies, failure = run_operation(server, workload, trace=False)
        tally.record(failure)
        baseline = baseline or replies
        untraced.append(_op_wall(replies))
        replies, failure = run_operation(server, workload, trace=True)
        tally.record(failure or _stdout_change(baseline, replies))
        traces = [r["trace"] for r in replies if "trace" in r]
        if len(traces) == len(replies):
            per_op.append(tracing.op_metrics(traces))
            traced.append(_op_wall(replies))
            spans = [s for t in traces for s in t["spans"]]
        if time.perf_counter() >= deadline:
            break
    WORKDIR.mkdir(exist_ok=True)
    with open(WORKDIR / f"spans_{workload.name}.jsonl", "w", encoding="utf-8") as fh:
        fh.write('{"fields": ["name", "id", "parent", "start", "end", "request"]}\n')
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    samples = {name: [op[name] for op in per_op] for name in per_op[0]} if per_op else {}
    if traced:
        samples["trace.overhead"] = [statistics.median(traced) / statistics.median(untraced)]
    return samples


def _summary(samples: list[float]) -> str:
    if len(samples) < 2:
        return f"n={len(samples)}"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"n={len(samples)} q1={q1:.6g} q3={q3:.6g} min={min(samples):.6g} max={max(samples):.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0, help="orders the random-suite calls")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--suite-seed", type=int, default=workloads.DEFAULT_SUITE_SEED,
        help="seed of the random-suite model draws",
    )
    args = parser.parse_args(argv)

    if not (SRC / "netfuncomp" / "cli.py").is_file():
        print(f"bench: no netfuncomp sources under {SRC}", file=sys.stderr)
        return 2
    if "netfuncomp" in sys.modules:
        print("bench: the harness process must not import netfuncomp", file=sys.stderr)
        return 2
    os.environ.pop("NETFUNC_THREADS", None)

    workload = workloads.make(args.workload, WORKDIR, args.seed, args.suite_seed)
    tally = Tally(workload.name)
    if args.trace:
        units = tracing.metric_units()
        with ForkServer(str(SRC)) as server:
            samples = run_traced(server, workload, args.seconds, tally)
    else:
        units = END_TO_END_UNITS
        clock = SpeedClock()
        setup_s = measure_setup(clock)
        with ForkServer(str(SRC)) as server:
            samples = run_untraced(server, workload, args.seconds, tally, clock)
        samples["setup_s"] = [setup_s]

    metrics = {}
    for name, unit in units.items():
        values = samples.get(name) or [0.0]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:45s} {value:<14.6g} {unit:6s} {_summary(values)}", file=sys.stderr)
    if "wall_clock_s" in samples:
        clock_walls = samples["wall_clock_s"]
        print(f"{'wall_s before host-speed scaling':45s} {statistics.median(clock_walls):<14.6g} "
              f"{'s':6s} {_summary(clock_walls)}", file=sys.stderr)
    fail_ratio = tally.failed / tally.attempted
    print(f"{'fail_ratio':45s} {fail_ratio:<14.6g} {'1':6s} attempted={tally.attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
