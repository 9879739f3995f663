"""Streaming structural ingest: batched graph mutations under load.

The point-update write path (:meth:`InstanceUpdater.apply`) re-prices
one existing edge. This module is the *structural* write path: clients
stream ``add_edge`` / ``remove_edge`` / ``reprice`` ops over the same
TCP protocol (wire op ``update_batch``) and a per-instance
:class:`StreamIngestor` turns the stream into generations:

* **bounded queue** — each wire request enqueues its op list with a
  future; a queue past ``depth`` pending requests answers
  ``{"ok": false, "shed": true}`` immediately (the same shed contract
  as the read path: overload is a cheap structured answer, not an
  ever-growing backlog).
* **cross-request coalescing** — the drain loop empties whatever is
  queued *behind* the batch it is about to apply and folds those
  requests' ops in, so a burst of small wire batches becomes one
  rebuild. Op-level coalescing (last-op-wins per edge, removes
  terminal) happens in :func:`~repro.graph.mutations.coalesce_ops`
  inside the apply; every absorbed request resolves with the shared
  :class:`~repro.service.updates.BatchReport`.
* **classified rebuild** — the apply runs on a worker thread under the
  instance's update lock. :func:`~repro.graph.mutations.apply_ops`
  repairs the MST exactly and reports whether the batch touched the
  candidate tree; non-tree-only batches take the scoped splice path
  (only delta rows of the per-edge stages recompute — see
  ``InstanceUpdater._prime_scoped``), tree-affecting batches replay
  honestly through the narrowed fingerprint scopes.
* **one generation swap per batch** — after the apply the service
  re-plans its edge-range shards for the new ``m`` and swaps the
  shard/batcher tuples in one synchronous block, so concurrent
  ``submit_nowait`` callers see either the old generation or the new
  one, never a mix. Queries queued against the old generation drain on
  the oracle they were routed to.

:class:`~repro.service.metrics.StreamMetrics` tracks batch sizes,
coalesce ratios, scoped-vs-full replay counts and p50/p99 apply
latency; it is folded into the ``metrics`` wire op per instance.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Sequence

from ..errors import ServiceError
from .metrics import StreamMetrics
from .supervision import STOP_DEADLINE_S

__all__ = ["StreamIngestor"]


class StreamIngestor:
    """Per-instance bounded ingest queue + coalescing drain loop."""

    def __init__(self, service, instance: str, depth: int = 64):
        self.service = service
        self.instance = instance
        self.depth = max(1, int(depth))
        self.metrics = StreamMetrics()
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: Optional[asyncio.Task] = None
        #: the group ``_apply`` is rebuilding (answered by ``stop`` if
        #: the rebuild is cancelled)
        self._inflight: List = []
        self._closing = False

    # -- client side -----------------------------------------------------------

    async def submit(self, ops: Sequence[Dict]) -> Dict:
        """Enqueue one wire request's ops; resolves with its BatchReport.

        Sheds (``{"ok": false, "shed": true}``) when ``depth`` requests
        are already pending — the caller backs off, the queue stays
        bounded, and reads keep their latency budget.
        """
        if self._closing:
            return {"ok": False, "error": "ingestor is stopped"}
        if not isinstance(ops, (list, tuple)) or not ops:
            return {"ok": False, "error": "update_batch needs a non-empty "
                                          "list of ops"}
        if self._queue.qsize() >= self.depth:
            self.metrics.shed += 1
            return {"ok": False, "shed": True,
                    "error": f"ingest queue for {self.instance!r} is full "
                             f"({self.depth} pending batches)"}
        fut = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((list(ops), fut, time.perf_counter()))
        self.start()
        return await fut

    # -- worker side -----------------------------------------------------------

    def start(self) -> None:
        if self._task is None and not self._closing:
            self._task = asyncio.get_running_loop().create_task(self._drain())

    async def stop(self) -> List[str]:
        """Drain pending batches for up to :data:`STOP_DEADLINE_S`, then
        cancel the loop.

        Every request the drain did not answer — still queued, or in the
        group being applied when the cancel landed — resolves with
        ``{"ok": false, "error": "service shut down"}``. A cancelled
        rebuild's worker thread runs to completion unobserved.
        Returns the loop's name if it was still running
        :data:`STOP_DEADLINE_S` after its cancel.
        """
        self._closing = True
        missed: List[str] = []
        task, self._task = self._task, None
        if task is not None:
            self._queue.put_nowait(None)
            _, late = await asyncio.wait({task}, timeout=STOP_DEADLINE_S)
            if late:
                task.cancel()
                _, late = await asyncio.wait({task},
                                             timeout=STOP_DEADLINE_S)
            if late:
                missed.append(f"ingestor:{self.instance}")
        # the in-flight group, then racers that lost to _closing
        pending = [fut for _ops, fut, _t in self._inflight]
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if item is not None:
                pending.append(item[1])
        for fut in pending:
            if not fut.done():
                fut.set_result({"ok": False, "error": "service shut down"})
        return missed

    async def _drain(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                return
            group = [item]
            # coalesce across requests: whatever queued up while the
            # previous batch was rebuilding rides this one
            while not self._queue.empty():
                nxt = self._queue.get_nowait()
                if nxt is None:
                    await self._apply(group)
                    return
                group.append(nxt)
            await self._apply(group)

    async def _apply(self, group: List) -> None:
        ops = [op for req_ops, _fut, _t0 in group for op in req_ops]
        t0 = min(t for _ops, _fut, t in group)
        self._inflight = group
        try:
            resp = await self.service._apply_structural(self.instance, ops)
        except ServiceError as exc:
            resp = {"ok": False, "error": str(exc), "error_kind": exc.kind}
        except Exception as exc:  # noqa: BLE001 - answer, don't kill the loop
            resp = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if resp.get("report") is not None:
            self.metrics.record(resp.pop("report"), requests=len(group),
                                latency_s=time.perf_counter() - t0)
        resp["coalesced_requests"] = len(group)
        for _ops, fut, _t in group:
            if not fut.done():
                fut.set_result(resp)
