"""Micro-batching: point queries in, vectorised oracle calls out.

One :class:`MicroBatcher` per shard. ``submit`` enqueues a point query
and returns a future; the worker task wakes on the first submit, takes
everything queued by then (up to ``max_batch``) and dispatches it as
grouped ``*_bulk`` oracle calls on ONE ``(generation, oracle)``
snapshot. Nothing waits on a timer: a query that arrives alone is
answered alone at once, and batches grow with load — every query
submitted while the loop was busy elsewhere (a pipelined client's
burst, a decoded run of frames, the other connections' reads) rides
the next dispatch. Answers are bit-identical to point queries — the
bulk kernels are the same comparisons — so batching is purely a
throughput lever: its amortised per-query cost is one future + one
queue hop instead of a full dispatch.

Backpressure is a bounded queue: a full queue sheds the query at
submit time (:class:`ServiceOverloaded`), which the server surfaces as
a structured load-shed response rather than unbounded latency.

Writers get their share of the interpreter lock on purpose. A rebuild
runs on a worker thread in the same process; a loop that always has a
batch ready re-takes the lock on every zero-timeout poll, so the
waiting thread never sees a stalled switch and never asks for one
(the GIL convoy). While its service has a write-path thread in flight
(:class:`WriterThreads`), a batcher therefore idles for one
``sys.getswitchinterval()`` after each dispatch; otherwise it never
waits.

``max_batch`` counts queue items, not queries: a scalar ``submit`` is
one item, and so is each ``submit_vector`` group (a decoded binary
run's (instance, op, shard) group), however many queries it carries.
``max_batch=1`` therefore degenerates to one dispatch per scalar query
(the E13 baseline, which isolates exactly the micro-batching win) but
still dispatches a vector group whole.
"""

from __future__ import annotations

import asyncio
import sys
import time
from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ValidationError
from .shards import OracleShard
from .supervision import STOP_DEADLINE_S
from .wire import (ST_INTERNAL, ST_OK, ST_RANGE, ST_TYPE)

__all__ = ["MicroBatcher", "ServiceOverloaded", "WriterThreads",
           "QUERY_OPS"]

#: The four point-query operations (read path).
QUERY_OPS = ("sensitivity", "survives", "replacement_edge",
             "entry_threshold")

class ServiceOverloaded(Exception):
    """Raised at submit time when a shard's queue is at its bound."""


class WriterThreads:
    """Write-path threads one service has in flight; its batchers read it.

    ``with writers:`` brackets each rebuild or snapshot load the
    service runs on a worker thread, around the await on that thread.
    While the count is non-zero, every batcher of that service hands
    the interpreter lock over after each dispatch (see
    :meth:`MicroBatcher._run`). Only the event loop's thread counts and
    reads it, so it needs no lock.
    """

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def __enter__(self) -> None:
        self.n += 1

    def __exit__(self, *exc) -> None:
        self.n -= 1


def _resolve(fut, payload) -> None:
    """Resolve a query future, tolerating client-side cancellation.

    A client that stopped waiting (e.g. an ``asyncio.wait_for`` timeout)
    leaves a *cancelled* — hence done — future in the batch; calling
    ``set_result`` on it raises ``InvalidStateError``, which the broad
    per-op handler would then convert into spurious ``internal`` errors
    for every healthy query co-batched with it. Dropping the orphaned
    answer is correct: nobody is listening.
    """
    if not fut.done():
        fut.set_result(payload)


class MicroBatcher:
    """Collects point queries for one shard and dispatches them bulk."""

    def __init__(self, shard: OracleShard, *, max_batch: int = 512,
                 queue_depth: int = 4096,
                 writers: Optional[WriterThreads] = None):
        if max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        self.shard = shard
        self.max_batch = int(max_batch)
        self.queue_depth = max(1, int(queue_depth))
        self.writers = writers if writers is not None else WriterThreads()
        # a plain deque + wake event instead of asyncio.Queue: submit
        # and drain are the per-query hot path (every queue hop is paid
        # even at occupancy 1), and Queue's waiter machinery costs
        # several times a deque append
        self._items: deque = deque()
        self._n_queued = 0  # queries queued; a vector item counts len(edges)
        self._wake = asyncio.Event()
        self._nap: Optional[asyncio.Future] = None  #: the hand-off wait
        self._task: Optional[asyncio.Task] = None
        self._closing = False

    @property
    def depth(self) -> int:
        """Currently queued (not yet dispatched) queries.

        Vector submissions count every query they carry — the router's
        backpressure shed watches this number, and a 512-row columnar
        frame is 512 queries' worth of queue, not one.
        """
        return self._n_queued

    # -- client side -----------------------------------------------------------

    def submit(self, op: str, edge: int, weight: Optional[float] = None
               ) -> "asyncio.Future":
        """Enqueue one point query.

        The returned future resolves to ``(generation, ok, value,
        error_kind)`` — ``error_kind`` is ``None`` on success, else one
        of ``"type"`` (wrong edge kind for the op), ``"range"`` (edge
        index out of range), ``"bad-request"`` or ``"internal"``, so
        consumers classify failures structurally instead of matching
        error strings.
        """
        if self._closing:
            raise ServiceOverloaded("service is shutting down")
        if self._task is None:
            raise ValidationError(
                "shard worker not running — call `await service.start()` "
                "before querying"
            )
        if self._n_queued >= self.queue_depth:
            self.shard.metrics.shed += 1
            raise ServiceOverloaded(
                f"shard {self.shard.spec.shard_id} queue full "
                f"({self.queue_depth})"
            )
        fut = asyncio.get_running_loop().create_future()
        self._items.append((op, int(edge), weight, fut,
                            time.perf_counter()))
        self._n_queued += 1
        self._wake.set()
        return fut

    def submit_vector(self, op: str, edges: np.ndarray,
                      weights: Optional[np.ndarray] = None
                      ) -> "asyncio.Future":
        """Enqueue one already-columnar group of point queries.

        The binary wire path decodes a whole pipelined read into
        columns; this is its entry point — one queue item, one future,
        zero per-query boxing. The future resolves to ``(generation,
        statuses, values)``: a ``u8`` status per row (wire status
        codes; ``ST_OK`` rows carry their answer in ``values``, range
        errors carry the edge bound) computed by exactly the same
        pre-filters and bulk kernels as :meth:`submit`, so answers are
        bit-identical to the scalar path.

        The whole group sheds as one unit when it does not fit in the
        remaining queue budget — the wire layer surfaces that as one
        shed status per row, mirroring what per-query submits against
        a full queue would have produced.
        """
        if self._closing:
            raise ServiceOverloaded("service is shutting down")
        if self._task is None:
            raise ValidationError(
                "shard worker not running — call `await service.start()` "
                "before querying"
            )
        n = len(edges)
        if self._n_queued + n > self.queue_depth:
            self.shard.metrics.shed += n
            raise ServiceOverloaded(
                f"shard {self.shard.spec.shard_id} queue full "
                f"({self.queue_depth})"
            )
        fut = asyncio.get_running_loop().create_future()
        self._items.append((op, np.asarray(edges, dtype=np.int64),
                            weights, fut, time.perf_counter()))
        self._n_queued += n
        self._wake.set()
        return fut

    # -- worker side -----------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> bool:
        """Drain queued queries for up to :data:`STOP_DEADLINE_S`, then
        cancel the worker.

        A hand-off wait in progress ends at once. Every query the drain
        did not dispatch raises the :class:`ServiceOverloaded` that
        ``submit`` raises while the batcher is closing. Returns ``True``
        if the worker was still running :data:`STOP_DEADLINE_S` after
        its cancel.
        """
        task, self._task = self._task, None
        if task is None:
            return False
        self._closing = True
        self._wake.set()
        if self._nap is not None:
            _resolve(self._nap, None)
        _, late = await asyncio.wait({task}, timeout=STOP_DEADLINE_S)
        if late:
            task.cancel()
            _, late = await asyncio.wait({task}, timeout=STOP_DEADLINE_S)
        while self._items:
            fut = self._items.popleft()[3]
            if not fut.done():
                fut.set_exception(ServiceOverloaded("service is shutting down"))
        self._n_queued = 0
        return bool(late)

    async def _run(self) -> None:
        items = self._items
        while True:
            if not items:
                if self._closing:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            n = min(len(items), self.max_batch)
            batch = [items.popleft() for _ in range(n)]
            self._n_queued -= sum(
                len(it[1]) if isinstance(it[1], np.ndarray) else 1
                for it in batch)
            self._dispatch(batch)
            if self.writers.n and not self._closing:
                await self._hand_off()
            else:
                # yield between back-to-back full batches so submitters
                # (and the rest of the loop) are never starved
                await asyncio.sleep(0)

    async def _hand_off(self) -> None:
        """Idle for one switch interval so a write-path thread runs.

        Awaits a plain future that a timer or :meth:`stop` resolves — no
        ``asyncio.wait_for``, whose cancel can be dropped on
        Python < 3.12.
        """
        loop = asyncio.get_running_loop()
        self._nap = nap = loop.create_future()
        timer = loop.call_later(sys.getswitchinterval(), _resolve, nap, None)
        try:
            await nap
        finally:
            timer.cancel()
            self._nap = None

    def _dispatch(self, batch: List[Tuple]) -> None:
        generation, oracle = self.shard.snapshot()  # one consistent read
        n_queries = 0
        by_op = {}
        for pos, item in enumerate(batch):
            if isinstance(item[1], np.ndarray):
                n_queries += len(item[1])
                self._dispatch_vector(item, generation, oracle)
            else:
                n_queries += 1
                by_op.setdefault(item[0], []).append(pos)
        for op, positions in by_op.items():
            try:
                self._dispatch_op(op, positions, batch, generation, oracle)
            except Exception as exc:  # noqa: BLE001 - answer, don't die
                for pos in positions:
                    _resolve(batch[pos][3],
                             (generation, False,
                              f"{type(exc).__name__}: {exc}", "internal"))
        done = time.perf_counter()
        # p50/p99 come from a stride sample (full batches would spend
        # more time bookkeeping latencies than serving large batches)
        step = max(1, len(batch) // 32)
        lats = np.array([done - item[4] for item in batch[::step]])
        self.shard.metrics.record_batch(n_queries, lats)

    def _dispatch_op(self, op: str, positions: List[int],
                     batch: List[Tuple], generation: int, oracle) -> None:
        edges = np.array([batch[p][1] for p in positions], dtype=np.int64)
        if len(edges) and (edges.min() < 0 or edges.max() >= len(oracle)):
            self._edge_range_errors(positions, batch, generation, oracle)
            positions = [p for p in positions
                         if 0 <= batch[p][1] < len(oracle)]
            edges = np.array([batch[p][1] for p in positions],
                             dtype=np.int64)
        if not len(edges):
            return
        if op == "sensitivity":
            vals = oracle.sensitivity_bulk(edges).tolist()
            for p, v in zip(positions, vals):
                _resolve(batch[p][3], (generation, True, v, None))
        elif op == "survives":
            ws = [batch[p][2] for p in positions]
            if None in ws:
                for p, w in zip(list(positions), ws):
                    if w is None:
                        _resolve(batch[p][3],
                                 (generation, False,
                                  "survives needs a weight", "bad-request"))
                positions = [p for p, w in zip(positions, ws)
                             if w is not None]
                ws = [w for w in ws if w is not None]
                edges = np.array([batch[p][1] for p in positions],
                                 dtype=np.int64)
                if not len(edges):
                    return
            vals = oracle.survives_bulk(
                edges, np.array(ws, dtype=np.float64)).tolist()
            for p, v in zip(positions, vals):
                _resolve(batch[p][3], (generation, True, v, None))
        elif op == "replacement_edge":
            self._typed(positions, batch, generation, oracle, edges,
                        want_tree=True,
                        bulk=lambda e: oracle.replacement_edge_bulk(e),
                        wrap=lambda v: None if v < 0 else int(v))
        elif op == "entry_threshold":
            self._typed(positions, batch, generation, oracle, edges,
                        want_tree=False,
                        bulk=lambda e: oracle.entry_threshold_bulk(e),
                        wrap=float)
        else:
            raise ValidationError(f"unknown query op {op!r}")

    def _dispatch_vector(self, item: Tuple, generation: int,
                         oracle) -> None:
        """Answer one columnar group with wire status codes per row.

        Semantics mirror :meth:`_dispatch_op` exactly — range
        pre-filter first (the status row carries the edge bound so the
        client can reconstruct the service's error string verbatim),
        then the tree/non-tree kind check for the typed ops, then the
        same bulk kernels on the surviving rows. A kernel exception
        answers the in-range rows as internal errors instead of
        killing the worker.
        """
        op, edges, weights, fut, _t0 = item
        n = len(edges)
        statuses = np.zeros(n, dtype=np.uint8)
        values = np.zeros(n, dtype=np.float64)
        in_range = (edges >= 0) & (edges < len(oracle))
        if not in_range.all():
            statuses[~in_range] = ST_RANGE
            values[~in_range] = float(len(oracle))  # the bound, for the msg
        idx = np.flatnonzero(in_range)
        e = edges[idx]
        try:
            if op == "sensitivity":
                values[idx] = oracle.sensitivity_bulk(e)
            elif op == "survives":
                values[idx] = oracle.survives_bulk(
                    e, np.asarray(weights, dtype=np.float64)[idx])
            elif op == "replacement_edge" or op == "entry_threshold":
                want_tree = op == "replacement_edge"
                mask = oracle.tree_mask[e]
                ok = mask if want_tree else ~mask
                bad = idx[~ok]
                if len(bad):
                    statuses[bad] = ST_TYPE
                    self.shard.metrics.type_errors += len(bad)
                good = idx[ok]
                if len(good):
                    values[good] = (oracle.replacement_edge_bulk(e[ok])
                                    if want_tree
                                    else oracle.entry_threshold_bulk(e[ok]))
            else:
                raise ValidationError(f"unknown query op {op!r}")
        except Exception:  # noqa: BLE001 - answer, don't die
            statuses[idx] = ST_INTERNAL
            values[idx] = 0.0
        assert ST_OK == 0  # zeros() above == "row answered fine"
        _resolve(fut, (generation, statuses, values))

    def _typed(self, positions, batch, generation, oracle, edges, *,
               want_tree: bool, bulk, wrap) -> None:
        """Tree-only / non-tree-only ops: split out wrong-kind queries."""
        mask = oracle.tree_mask[edges]
        ok = mask if want_tree else ~mask
        kind = "tree" if want_tree else "non-tree"
        for p, good in zip(positions, ok):
            if not good:
                self.shard.metrics.type_errors += 1
                _resolve(batch[p][3],
                         (generation, False,
                          f"edge {batch[p][1]} is not a {kind} edge", "type"))
        keep = [p for p, good in zip(positions, ok) if good]
        if not keep:
            return
        vals = bulk(edges[ok])
        for p, v in zip(keep, vals):
            _resolve(batch[p][3], (generation, True, wrap(v), None))

    def _edge_range_errors(self, positions, batch, generation, oracle):
        for p in positions:
            e = batch[p][1]
            if not 0 <= e < len(oracle):
                _resolve(batch[p][3],
                         (generation, False,
                          f"edge index {e} out of range [0, {len(oracle)})",
                          "range"))
