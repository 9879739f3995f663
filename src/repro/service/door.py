"""The client-facing TCP door shared by the service and the router tier.

One listener speaks two protocols, chosen per connection by its very
first byte: :data:`~repro.service.wire.MAGIC` (``0xB7``) can never open
a JSON request and ``{`` can never open a binary frame, so JSON-lines
clients and binary clients share a port untouched.

Both protocols run the same pipelined, in-order loop. The reader keeps
pulling requests and dispatches each as its own task; one writer
awaits those tasks strictly in arrival order and writes one answer per
request. Clients may keep many requests in flight on one connection —
the response order IS the request order, so no ids are needed for
correlation — which is what lets a micro-batching shard fill its
batches from a single TCP peer, and what the router's byte-counted
worker links are built on. A serial one-request-at-a-time client
observes a plain request/response protocol.

An owner (:class:`~repro.service.server.SensitivityService`,
:class:`~repro.service.router.RouterTier`) supplies only what differs:
``handle_request`` (parsed dispatch for JSON lines and escape frames)
and ``_answer_points`` for a run of point frames.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Optional

from . import wire

__all__ = ["FrontDoor"]


def _answered(resp: Dict) -> "asyncio.Future":
    fut = asyncio.get_running_loop().create_future()
    fut.set_result(resp)
    return fut


def _drop(order: asyncio.Queue) -> None:
    """Cancel every queued request; nothing is left to answer in order."""
    while not order.empty():
        item = order.get_nowait()
        if item is not None:
            item[0].cancel()


class FrontDoor:
    """Connection tracking, protocol sniff and the in-order writer."""

    #: In-flight pipelined requests allowed per connection before the
    #: reader stops pulling new ones (per-shard queues bound the real
    #: backlog; this only stops one connection from hogging the loop).
    PIPELINE_LIMIT = 1024

    #: bytes pulled per read on a binary connection (a few thousand
    #: point frames per syscall when the client pipelines deeply)
    READ_SIZE = 1 << 16

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        #: per-protocol accounting of this door
        self.wire = {"json": wire.WireMetrics(),
                     "binary": wire.WireMetrics()}

    async def _open_door(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)

    @property
    def tcp_address(self) -> Optional[tuple]:
        """Actual ``(host, port)`` once TCP is up (port 0 resolves here)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """Block until a ``shutdown`` request (or ``stop()``) arrives."""
        await self._shutdown.wait()

    async def _close_door(self) -> None:
        """Stop listening, then close every open connection and wait
        for its handler, so none is cancelled at loop teardown."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # -- one connection ----------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._conn_writers.add(writer)
        try:
            try:
                first = await reader.readexactly(1)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                return
            if first[0] == wire.MAGIC:
                wm = self.wire["binary"]
                requests = self._read_frames(reader, first, wm)
                encode = self._frame_encoder(wm)
            else:
                wm = self.wire["json"]
                requests = self._read_lines(reader, first, wm)
                encode = self._line_encoder(wm)
            wm.connections += 1
            await self._pipeline(requests, writer, wm, encode)
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _pipeline(self, requests, writer, wm, encode) -> None:
        """Queue each request's work in arrival order; one writer
        answers them in that order."""
        order: asyncio.Queue = asyncio.Queue(maxsize=self.PIPELINE_LIMIT)
        wtask = asyncio.get_running_loop().create_task(
            self._write_in_order(order, writer, wm, encode))
        try:
            async for item in requests:
                if wtask.done():
                    item[0].cancel()
                    break
                await order.put(item)
        finally:
            await requests.aclose()
            if not wtask.done():
                try:
                    order.put_nowait(None)
                except asyncio.QueueFull:
                    # writer stalled against a full pipeline (dead peer
                    # mid-drain): nothing left to deliver in order
                    wtask.cancel()
            try:
                await wtask
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass  # peer vanished mid-write: drop queued answers
            while not order.empty():
                item = order.get_nowait()
                if item is not None:
                    item[0].cancel()
                    try:
                        await item[0]
                    except (asyncio.CancelledError, Exception):  # noqa: BLE001
                        pass

    async def _write_in_order(self, order: asyncio.Queue, writer, wm,
                              encode) -> None:
        """Await each request's work in order and write its answer.

        Encoding sits inside the guarded step: an answer that cannot be
        encoded becomes a structured error, not a dead writer. A writer
        that fails anyway (peer gone mid-write, cancelled) closes the
        transport, so a reader parked in ``read`` returns instead of
        waiting on a writer that is gone. The other exits are the
        reader's end-of-stream marker and ``shutdown``.
        """
        try:
            while (item := await order.get()) is not None:
                work, is_shutdown = item
                try:
                    payload = encode(await work)
                except Exception as exc:  # noqa: BLE001 - answer, don't die
                    payload = encode({"ok": False,
                                      "error": f"{type(exc).__name__}: {exc}"})
                wm.bytes_out += len(payload)
                writer.write(payload)
                await writer.drain()
                if is_shutdown:
                    self._shutdown.set()
                    return
        except BaseException:
            writer.close()
            _drop(order)  # frees a reader blocked on a full queue
            raise

    # -- JSON lines ----------------------------------------------------------------

    async def _read_lines(self, reader: asyncio.StreamReader, first: bytes,
                          wm: wire.WireMetrics):
        """One request object per line, parsed dispatch for every op."""
        loop = asyncio.get_running_loop()
        while True:
            try:
                line = first + await reader.readline()
            except (ConnectionError, OSError):
                return
            first = b""
            if not line:
                return
            wm.frames_in += 1
            wm.bytes_in += len(line)
            try:
                t0 = time.perf_counter_ns()
                req = json.loads(line)
                wm.record_decode(1, time.perf_counter_ns() - t0)
                wm.json_decodes += 1
                if not isinstance(req, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                yield (_answered({"ok": False,
                                  "error": f"bad request: {exc}"}), False)
                continue
            is_shutdown = req.get("op") == "shutdown"
            yield loop.create_task(self.handle_request(req)), is_shutdown
            if is_shutdown:
                return

    @staticmethod
    def _line_encoder(wm: wire.WireMetrics):
        def encode(resp: Dict) -> bytes:
            t0 = time.perf_counter_ns()
            payload = wire.dumps_line(resp)
            wm.record_encode(1, time.perf_counter_ns() - t0)
            wm.json_encodes += 1
            wm.frames_out += 1
            return payload
        return encode

    # -- binary frames -------------------------------------------------------------

    async def _read_frames(self, reader: asyncio.StreamReader, first: bytes,
                           wm: wire.WireMetrics):
        """Batched binary reads: the unit of work is a *run* of frames.

        Contiguous 16-byte point frames go to ``_answer_points`` as one
        payload; escape frames dispatch individually. A framing
        violation (bad magic — e.g. a JSON client that negotiated
        binary — unknown type, oversized length) answers with a
        structured escape error and ends the connection; it never hangs
        and never kills the handler task.
        """
        loop = asyncio.get_running_loop()
        buf = bytearray(first)
        try:
            while True:
                try:
                    data = await reader.read(self.READ_SIZE)
                except (ConnectionError, OSError):
                    return
                if not data:
                    return
                buf += data
                while buf:
                    run = wire.point_run_length(buf)
                    if run:
                        payload = bytes(buf[:run * wire.POINT_LEN])
                        del buf[:run * wire.POINT_LEN]
                        wm.frames_in += run
                        wm.bytes_in += len(payload)
                        yield (loop.create_task(self._answer_points(payload)),
                               False)
                        continue
                    length = wire.frame_length(buf)
                    if length is None or len(buf) < length:
                        break  # incomplete frame: wait for more bytes
                    frame = bytes(buf[:length])
                    del buf[:length]
                    wm.frames_in += 1
                    wm.bytes_in += length
                    if frame[1] == wire.ESCAPE:
                        wm.json_decodes += 1
                        req = wire.decode_escape(frame)
                        is_shutdown = req.get("op") == "shutdown"
                        yield (loop.create_task(self.handle_request(req)),
                               is_shutdown)
                        if is_shutdown:
                            return
                    else:
                        raise wire.WireError(
                            f"frame type 0x{frame[1]:02x} is not a request")
        except wire.WireError as exc:
            yield (_answered({"ok": False,
                              "error": f"wire protocol error: {exc}",
                              "error_kind": "protocol"}), False)

    @staticmethod
    def _frame_encoder(wm: wire.WireMetrics):
        def encode(resp) -> bytes:
            if isinstance(resp, dict):  # an escape answer
                wm.json_encodes += 1
                wm.frames_out += 1
                return wire.encode_escape(resp)
            return resp  # point answers count their own frames
        return encode
