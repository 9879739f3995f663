"""Self-test of the benchmark's own machinery (no program needed).

    python3 perfbench/selftest.py

1. Coordinated omission: the open-loop sender streams point frames at a
   stub server that stalls mid-run. Requests due during the stall must
   carry the stall in their latency (timed from when they were due, not
   from when the stub got round to them), and the generator must report
   its own lateness (``loadgen.late_p99_ms``) and call the run valid.
2. A generator that falls behind its tick budget (its event loop is
   blocked mid-run) must be flagged invalid.
3. ``BENCHMARK.json`` lists exactly the per-layer metrics, with the same
   units, that ``interaction_map.json`` maps to layers.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import struct
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import openloop as ol  # noqa: E402
from common import BENCH_DIR, ROOT  # noqa: E402

RATE = 2000.0
SECONDS = 1.0
STALL_AT, STALL_S = 0.3, 0.2
_RESP = struct.Struct("<BBHId")


class StallingStub:
    """Answers every point frame at once, except inside the stall window
    (offsets from the generator's clock), when it answers nothing."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.handlers = []

    async def handle(self, reader, writer):
        self.handlers.append(asyncio.current_task())
        pending = b""
        while True:
            chunk = await reader.read(1 << 16)
            if not chunk:
                break
            pending += chunk
            now = time.perf_counter() - self.t0
            if STALL_AT <= now < STALL_AT + STALL_S:
                await asyncio.sleep(STALL_AT + STALL_S - now)
            n = len(pending) // ol.FRAME
            frames = np.frombuffer(pending[:n * ol.FRAME],
                                   dtype=ol.POINT_DTYPE)
            pending = pending[n * ol.FRAME:]
            writer.write(b"".join(_RESP.pack(ol.MAGIC, 0x40, 0, 0, float(e))
                                  for e in frames["edge"]))
        writer.close()


async def drive(block_loop_at=None) -> ol.Run:
    n = int(RATE * SECONDS)
    due = np.arange(n) / RATE
    payload = ol.encode_points(np.full(n, 1), np.zeros(n), np.arange(n),
                               np.zeros(n))
    t0 = ol.start_clock(0.05)
    stub = StallingStub(t0)
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    reader, writer = await asyncio.open_connection(host, port)
    if block_loop_at is not None:
        loop = asyncio.get_running_loop()
        loop.call_at(loop.time() + (t0 - time.perf_counter()) + block_loop_at,
                     time.sleep, 0.1)
    try:
        return await ol.drive_binary(reader, writer, payload, due, t0, 2.0)
    finally:
        writer.close()
        await asyncio.wait(stub.handlers, timeout=5.0)   # they see EOF
        server.close()
        await server.wait_closed()


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        sys.exit(1)


def main() -> int:
    run = asyncio.run(drive())
    check(bool(run.answered.all()), "every request answered")
    check(bool((run.value == np.arange(len(run.due))).all()),
          "answers correlate FIFO")
    in_stall = (run.due >= STALL_AT + 0.01) & (run.due < STALL_AT + STALL_S - 0.01)
    owed = STALL_AT + STALL_S - run.due[in_stall]
    check(bool((run.latency[in_stall] >= owed - 0.002).all()),
          "requests due in the stall carry the rest of the stall")
    check(np.quantile(run.latency, 0.99) >= 0.5 * STALL_S,
          "p99 shows the stall")
    check(float(run.late.max()) < 0.25 * STALL_S,
          "the generator kept sending during the stall")
    check(0.0 <= run.late_p99_s() < ol.TICK_BUDGET_S and run.valid(),
          f"late p99 reported ({run.late_p99_s() * 1e3:.2f} ms) and valid")

    behind = asyncio.run(drive(block_loop_at=0.5))
    check(not behind.valid(),
          f"a blocked generator is invalid (late p99 "
          f"{behind.late_p99_s() * 1e3:.0f} ms > budget)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    with open(os.path.join(BENCH_DIR, "interaction_map.json")) as f:
        layer_map = json.load(f)
    mapped = {k: v["unit"] for k, v in layer_map["per_layer"].items()}
    check(bench == mapped, "BENCHMARK.json per_layer matches the layer map")
    with open(os.path.join(BENCH_DIR, "serving.py")) as f:
        limit = re.search(r"^CAPACITY_P99_LIMIT_MS = ([0-9.]+)", f.read(), re.M)
    check(limit is not None and float(limit.group(1)) == layer_map[
              "capacity_p99_limit_ms"],
          "the capacity limit in serving.py is the one the map records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
