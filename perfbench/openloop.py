"""Open-loop senders: send on a schedule, time from when each was due.

A closed-loop client waits for an answer before sending again, so a
stalled server silently receives less load and its stall vanishes from
the latencies (coordinated omission). These senders instead send every
request at its pre-drawn due time whatever the server is doing — a
stalled peer just lets the transport buffer fill — and time each answer
from the moment it was *due*. The generator's own lateness (actual send
time minus due time) is recorded too: when it exceeds the tick budget
the generator, not the server, set the pace, and the run is invalid.

Correlation is FIFO on each connection, as the service answers in
request order. Binary frames follow the program's wire protocol v1;
the few bytes of framing are written out here so the benchmark does not
depend on the program's own client code.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

MAGIC = 0xB7
ESCAPE = 0x7E
POINT_DTYPE = np.dtype([("magic", "u1"), ("type", "u1"), ("iid", "<u2"),
                        ("edge", "<u4"), ("weight", "<f8")])
RESP_DTYPE = np.dtype([("magic", "u1"), ("type", "u1"), ("shard", "<u2"),
                       ("generation", "<u4"), ("value", "<f8")])
FRAME = 16
_HEADER = struct.Struct("<BBHI")

#: a request sent later than this after its due time means the
#: generator could not keep the schedule: the run is flagged invalid
TICK_BUDGET_S = 0.025
#: never sleep longer than this between schedule checks
_MAX_NAP_S = 0.002

#: point-query op codes and the response statuses the benchmark reads
OP_CODES = {"sensitivity": 1, "survives": 2, "replacement_edge": 3,
            "entry_threshold": 4}
ST_OK, ST_TYPE, ST_SHED, ST_SHED_ROUTER, ST_ERROR = 0, 1, 5, 6, 9
ST_UNANSWERED = 0xFF


def escape_frame(obj: Dict) -> bytes:
    body = json.dumps(obj).encode()
    return _HEADER.pack(MAGIC, ESCAPE, 0, len(body)) + body


async def read_escape(reader: asyncio.StreamReader) -> Dict:
    head = await reader.readexactly(8)
    magic, kind, _, length = _HEADER.unpack(head)
    if magic != MAGIC or kind != ESCAPE:
        raise ConnectionError(f"expected an escape frame, got 0x{kind:02x}")
    return json.loads(await reader.readexactly(length))


async def binary_hello(reader, writer) -> Dict[str, int]:
    """Flip a fresh connection to binary; returns name -> symbol id."""
    writer.write(escape_frame({"op": "hello", "wire": 1}))
    await writer.drain()
    resp = await read_escape(reader)
    if not resp.get("ok"):
        raise ConnectionError(f"binary hello refused: {resp}")
    return {k: int(v) for k, v in resp["result"]["symbols"].items()}


def encode_points(op, iid, edge, weight) -> bytes:
    arr = np.zeros(len(op), dtype=POINT_DTYPE)
    arr["magic"] = MAGIC
    arr["type"] = op
    arr["iid"] = iid
    arr["edge"] = edge
    arr["weight"] = weight
    return arr.tobytes()


@dataclass
class Run:
    """What one open-loop stream observed (offsets in seconds)."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray                  # NaN = never answered
    status: np.ndarray
    value: np.ndarray
    extra: List = field(default_factory=list)   # per-request payloads

    @property
    def latency(self) -> np.ndarray:
        return self.done - self.due

    @property
    def late(self) -> np.ndarray:
        return self.sent - self.due

    @property
    def answered(self) -> np.ndarray:
        return ~np.isnan(self.done)

    def late_p99_s(self) -> float:
        sent = self.late[~np.isnan(self.sent)]
        return float(np.quantile(sent, 0.99)) if len(sent) else 0.0

    def valid(self) -> bool:
        """False when the generator fell behind its tick budget."""
        return (not np.isnan(self.sent).any()
                and self.late_p99_s() <= TICK_BUDGET_S)


async def _send_on_schedule(writer, chunks, due: np.ndarray,
                            sent: np.ndarray, t0: float) -> None:
    """Write ``chunks[i]`` at ``due[i]``; never waits for the peer.

    ``chunks`` is a bytes object of fixed-size records (binary) or a
    list of lines. Requests already due are written in one call, so a
    late tick catches up in one burst instead of drifting further.
    """
    n = len(due)
    fixed = isinstance(chunks, (bytes, bytearray, memoryview))
    view = memoryview(chunks) if fixed else None
    i = 0
    clock = time.perf_counter
    while i < n:
        now = clock() - t0
        j = int(np.searchsorted(due, now, side="right"))
        if j > i:
            if fixed:
                writer.write(view[i * FRAME:j * FRAME])
            else:
                writer.write(b"".join(chunks[i:j]))
            sent[i:j] = now
            i = j
            if writer.is_closing():
                return
        if i < n:
            await asyncio.sleep(min(_MAX_NAP_S,
                                    max(0.0, due[i] - (clock() - t0))))


async def _recv_frames(reader, n: int, done: np.ndarray, out: bytearray,
                       t0: float) -> None:
    k = 0
    pending = b""
    clock = time.perf_counter
    while k < n:
        chunk = await reader.read(1 << 16)
        if not chunk:
            return
        now = clock() - t0
        pending += chunk
        cnt = min(len(pending) // FRAME, n - k)
        if cnt:
            out[k * FRAME:(k + cnt) * FRAME] = pending[:cnt * FRAME]
            done[k:k + cnt] = now
            pending = pending[cnt * FRAME:]
            k += cnt


async def _recv_lines(reader, n: int, done: np.ndarray, lines: List,
                      t0: float) -> None:
    clock = time.perf_counter
    for k in range(n):
        line = await reader.readline()
        if not line:
            return
        done[k] = clock() - t0
        lines[k] = line


async def _run_both(sender, receiver, deadline_s: float) -> None:
    """Run sender + receiver; stop the receiver at the deadline."""
    tasks = [asyncio.ensure_future(sender), asyncio.ensure_future(receiver)]
    try:
        await asyncio.wait(tasks, timeout=deadline_s)
    finally:
        for t in tasks:
            if not t.done():
                t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for t in tasks:
            if not t.cancelled() and t.exception() is not None:
                if not isinstance(t.exception(), (ConnectionError, OSError)):
                    raise t.exception()


def start_clock(lead_s: float = 0.005) -> float:
    return time.perf_counter() + lead_s


async def drive_binary(reader, writer, payload: bytes, due: np.ndarray,
                       t0: float, drain_s: float) -> Run:
    """Stream pre-encoded 16-byte point frames open loop."""
    n = len(due)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    out = bytearray(n * FRAME)
    horizon = (t0 - time.perf_counter()) + (float(due[-1]) if n else 0.0)
    await _run_both(_send_on_schedule(writer, payload, due, sent, t0),
                    _recv_frames(reader, n, done, out, t0),
                    horizon + drain_s)
    resp = np.frombuffer(bytes(out), dtype=RESP_DTYPE)
    status = np.where(np.isnan(done), ST_UNANSWERED,
                      resp["type"] & 0x0F).astype(np.uint8)
    return Run(due=due, sent=sent, done=done, status=status,
               value=resp["value"].astype(np.float64))


def json_status_value(resp: Dict):
    """Map a JSON read answer onto the binary ``(status, value)`` pair."""
    if resp.get("ok"):
        v = resp.get("result")
        if v is None:
            return ST_OK, -1.0          # bridge: no replacement edge
        return ST_OK, float(v)
    if resp.get("shed"):
        return (ST_SHED_ROUTER if resp.get("where") == "router"
                else ST_SHED), 0.0
    if resp.get("error_kind") == "type":
        return ST_TYPE, 0.0
    return ST_ERROR, 0.0


async def drive_lines(reader, writer, lines: List[bytes], due: np.ndarray,
                      t0: float, drain_s: float) -> Run:
    """Stream JSON-lines requests open loop; ``extra`` holds each answer
    as a parsed dict (``None`` if it never came)."""
    n = len(due)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    got: List[Optional[bytes]] = [None] * n
    horizon = (t0 - time.perf_counter()) + (float(due[-1]) if n else 0.0)
    await _run_both(_send_on_schedule(writer, lines, due, sent, t0),
                    _recv_lines(reader, n, done, got, t0),
                    horizon + drain_s)
    parsed = [None if line is None else json.loads(line) for line in got]
    return Run(due=due, sent=sent, done=done,
               status=np.full(n, ST_UNANSWERED, dtype=np.uint8),
               value=np.zeros(n), extra=parsed)


def as_reads(run: Run) -> Run:
    """Fill ``status``/``value`` of a JSON read run from its answers."""
    for k, resp in enumerate(run.extra):
        if resp is not None:
            run.status[k], run.value[k] = json_status_value(resp)
    return run
