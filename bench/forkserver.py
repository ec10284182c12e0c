"""Run each CLI call in a child forked from a freshly imported package.

``ForkServer`` forks a server process that imports ``netfuncomp.cli`` and
then does nothing but fork: every call runs in a child of that untouched
state, so every ``lru_cache`` keyed on a model starts empty, as in a fresh
CLI process, without interpreter start-up in the timing.  Before each fork
the server checks that every cache in the package is still empty.  The
harness process itself never imports the package.

A call child times ``netfuncomp.cli.main`` with stdout and stderr captured,
reads its own peak resident memory, and sends back one JSON document; with
tracing on it first wraps the package's layers (see ``tracing``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import struct
import sys
import time
import traceback

import tracing

_HEADER = struct.Struct("!Q")


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _read_exact(fd: int, n: int) -> bytes | None:
    chunks = []
    while n:
        chunk = os.read(fd, min(n, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _send(fd: int, data: bytes) -> None:
    _write_all(fd, _HEADER.pack(len(data)) + data)


def _recv(fd: int) -> bytes | None:
    header = _read_exact(fd, _HEADER.size)
    if header is None:
        return None
    return _read_exact(fd, _HEADER.unpack(header)[0])


def cached_entries() -> int:
    """Entries held by the ``functools`` caches of every imported package module."""
    total = 0
    for name, module in list(sys.modules.items()):
        if name == "netfuncomp" or name.startswith("netfuncomp."):
            for obj in vars(module).values():
                info = getattr(obj, "cache_info", None)
                if callable(info):
                    total += info().currsize
    return total


def _run_call(request: dict) -> dict:
    cli = sys.modules["netfuncomp.cli"]
    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer(request["id"])
        tracing.install(tracer)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(request["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            error = traceback.format_exc()
        wall_s = time.perf_counter() - start
    reply = {
        "exit": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "wall_s": wall_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        reply["trace"] = tracer.report()
    return reply


def _serve(src: str, requests: int, replies: int) -> None:
    sys.path.insert(0, src)
    import netfuncomp.cli  # noqa: F401  (the state every call child starts from)

    while (raw := _recv(requests)) is not None:
        entries = cached_entries()
        if entries:
            raise RuntimeError(f"package caches hold {entries} entries before a fork")
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            status = 1
            try:
                _write_all(w, json.dumps(_run_call(json.loads(raw))).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        chunks = []
        while chunk := os.read(r, 1 << 20):
            chunks.append(chunk)
        os.close(r)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            chunks = [json.dumps({"crashed": f"call child exited with status {status}"}).encode()]
        _send(replies, b"".join(chunks))


class ForkServer:
    """The server process; use as a context manager so it is always reaped."""

    def __init__(self, src: str):
        req_r, req_w = os.pipe()
        rep_r, rep_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            os.close(req_w)
            os.close(rep_r)
            status = 1
            try:
                _serve(src, req_r, rep_w)
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(req_r)
        os.close(rep_w)
        self.pid, self._requests, self._replies = pid, req_w, rep_r
        self._next_id = 0

    def call(self, argv: list[str], trace: bool) -> dict:
        """Run one CLI call in a fresh child and return its reply."""
        request = {"argv": argv, "trace": trace, "id": self._next_id}
        self._next_id += 1
        _send(self._requests, json.dumps(request).encode())
        raw = _recv(self._replies)
        if raw is None:
            raise RuntimeError("the fork server stopped")
        return json.loads(raw)

    def close(self) -> None:
        os.close(self._requests)
        os.close(self._replies)
        os.waitpid(self.pid, 0)

    def __enter__(self) -> ForkServer:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
