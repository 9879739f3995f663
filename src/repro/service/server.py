"""The asyncio query service: sharded, micro-batching, updateable.

One :class:`SensitivityService` hosts any number of named graph
instances. Per instance it keeps the authoritative weights, an
:class:`~repro.pipeline.ArtifactStore` (for incremental rebuilds), and
``shards`` edge-range :class:`~repro.service.shards.OracleShard`
workers, each fronted by a
:class:`~repro.service.batching.MicroBatcher`. Reads route by edge
index to a shard queue and come back micro-batched; writes serialise
through the instance's update lock and either patch in place
(oracle-preserving) or rebuild + atomically swap a new oracle
generation (see :mod:`repro.service.updates`). Rebuilds run on a
worker thread, so the event loop keeps serving reads from the old
generation throughout.

Two front doors share one dispatch path:

* in-process: :class:`ServiceClient` (tests, benchmarks, embedding) —
  no serialisation, plain dicts;
* TCP (:class:`~repro.service.door.FrontDoor`): JSON lines — one
  request object per line, one response per line, ``id`` echoed when
  present (``python -m repro serve`` + :mod:`repro.service.loadgen`);
  non-finite floats use Python's JSON extension (``Infinity``/``NaN``
  literals), matching the stdlib on both ends — or binary frames
  (:mod:`repro.service.wire`) on the same port.

Wire ops: the four point queries (``sensitivity`` / ``survives`` /
``replacement_edge`` / ``entry_threshold``), ``update``,
``update_batch`` (streamed structural ops — see
:mod:`repro.service.streaming`), ``metrics``, ``depth``,
``instances``, ``ping``, ``shutdown``. Overload is a structured
``{"ok": false, "shed": true}`` response, not an ever-growing queue.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import ServiceError, ValidationError
from ..graph.graph import WeightedGraph
from ..mpc import MPCConfig
from ..oracle import SensitivityOracle
from ..pipeline import ArtifactStore
from . import wire
from .batching import (QUERY_OPS, MicroBatcher, ServiceOverloaded,
                       WriterThreads)
from .door import FrontDoor
from .metrics import merged_latency
from .shards import OracleShard, ShardSpec, plan_shards, route
from .streaming import StreamIngestor
from .updates import BatchReport, InstanceUpdater, UpdateReport

__all__ = ["ServiceConfig", "SensitivityService", "ServiceClient"]

_U64 = np.dtype("<u8")
_SHIFT32 = np.uint64(32)


@dataclass
class ServiceConfig:
    """Deployment knobs for one service process."""

    shards: int = 2                  #: edge-range shards per instance
    max_batch: int = 512             #: most queries one dispatch takes
    queue_depth: int = 4096          #: per-shard bound before shedding
    engine: str = "local"            #: pipeline engine for (re)builds
    oracle_labels: bool = True       #: treat rooting/DFS as black boxes
    config: Optional[MPCConfig] = None
    cache_dir: Optional[str] = None  #: persistent artifact store
    mmap_dir: Optional[str] = None   #: share oracle snapshots via mmap
    stream_depth: int = 64           #: pending structural batches before shed
    host: str = "127.0.0.1"
    port: int = 7464


@dataclass
class _Instance:
    name: str
    updater: InstanceUpdater
    shards: List[OracleShard]
    batchers: List[MicroBatcher]
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    ingestor: Optional[StreamIngestor] = None  #: created on first batch

    @property
    def specs(self) -> List[ShardSpec]:
        return [s.spec for s in self.shards]


class SensitivityService(FrontDoor):
    """Front-end + shard pool + write path for N graph instances."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.instances: Dict[str, _Instance] = {}
        self.started_at: Optional[float] = None
        self._started = False
        super().__init__()
        #: binary frames carry instance names as dense u16 ids
        self.wire_symbols = wire.WireSymbols()
        #: rebuilds and snapshot loads in flight on worker threads
        self.writers = WriterThreads()

    # -- instance lifecycle ----------------------------------------------------

    def add_instance(self, name: str, graph: WeightedGraph,
                     oracle: Optional[SensitivityOracle] = None) -> None:
        """Register ``name`` and build (or adopt) its first generation.

        The graph is copied — the service owns the authoritative
        weights from here on. With ``oracle`` given the build is
        skipped (it must belong to this graph).
        """
        if name in self.instances:
            raise ValidationError(f"instance {name!r} already registered")
        cfg = self.config
        graph = graph.copy()
        store = (ArtifactStore(cache_dir=cfg.cache_dir)
                 if cfg.cache_dir is not None else ArtifactStore())
        if oracle is None:
            updater = InstanceUpdater.build(
                name, graph, engine=cfg.engine, config=cfg.config,
                oracle_labels=cfg.oracle_labels, store=store,
                mmap_dir=cfg.mmap_dir,
            )
        else:
            updater = InstanceUpdater(
                name, graph, oracle, engine=cfg.engine, config=cfg.config,
                oracle_labels=cfg.oracle_labels, store=store,
                mmap_dir=cfg.mmap_dir,
            )
        specs = plan_shards(graph.m, cfg.shards)
        oracles = updater.shard_oracles(len(specs))
        shards = [OracleShard(spec, orc) for spec, orc in zip(specs, oracles)]
        self.instances[name] = _Instance(
            name=name, updater=updater, shards=shards,
            batchers=self._new_batchers(shards))

    def _new_batchers(self, shards: List[OracleShard]) -> List[MicroBatcher]:
        """One batcher per shard, started if the service is running."""
        cfg = self.config
        batchers = [MicroBatcher(s, max_batch=cfg.max_batch,
                                 queue_depth=cfg.queue_depth,
                                 writers=self.writers)
                    for s in shards]
        if self._started:
            for b in batchers:
                b.start()
        return batchers

    async def _retire(self, name: str,
                      batchers: List[MicroBatcher]) -> List[str]:
        """Stop ``batchers`` (each drains its queue first); returns the
        ones still running ``STOP_DEADLINE_S`` after their cancel."""
        late = await asyncio.gather(*(b.stop() for b in batchers))
        return [f"batcher:{name}/{b.shard.spec.shard_id}"
                for b, missed in zip(batchers, late) if missed]

    # -- lifecycle -------------------------------------------------------------

    async def start(self, serve_tcp: bool = False) -> None:
        """Start shard workers (and, optionally, the TCP front door)."""
        self._started = True
        self.started_at = time.perf_counter()
        for inst in self.instances.values():
            for b in inst.batchers:
                b.start()
        if serve_tcp:
            await self._open_door(self.config.host, self.config.port)

    async def stop(self) -> Dict:
        """Close the door, then drain every shard queue and stop workers.

        Returns ``{"missed_deadline": [...]}``: ingest loops and
        batchers still running ``STOP_DEADLINE_S`` after their cancel.
        """
        await self._close_door()
        missed: List[str] = []
        for inst in self.instances.values():
            if inst.ingestor is not None:
                missed += await inst.ingestor.stop()
            missed += await self._retire(inst.name, inst.batchers)
        self._started = False
        self._shutdown.set()
        return {"missed_deadline": missed}

    # -- read path -------------------------------------------------------------

    def _instance(self, name: Optional[str]) -> _Instance:
        if name is None and len(self.instances) == 1:
            return next(iter(self.instances.values()))
        if name not in self.instances:
            raise ValidationError(
                f"unknown instance {name!r} "
                f"(have: {sorted(self.instances)})"
            )
        return self.instances[name]

    def submit_nowait(self, op: str, edge: int,
                      weight: Optional[float] = None,
                      instance: Optional[str] = None) -> "asyncio.Future":
        """Pipelined fast path: enqueue without awaiting.

        Returns the shard future resolving to ``(generation, ok,
        value, error_kind)``. This is how a multiplexing in-process
        client keeps
        hundreds of point queries in flight (the wire analogue is
        HTTP/2-style pipelining); the batcher sees exactly the same
        queue items as :meth:`query`. Raises
        :class:`~repro.service.batching.ServiceOverloaded` on a full
        queue and :class:`~repro.errors.ValidationError` on a bad
        instance/edge/op.
        """
        if op not in QUERY_OPS:
            raise ValidationError(f"unknown query op {op!r}")
        inst = self._instance(instance)
        shard_i = route(inst.specs, int(edge))
        return inst.batchers[shard_i].submit(op, edge, weight)

    async def query(self, op: str, edge: int,
                    weight: Optional[float] = None,
                    instance: Optional[str] = None) -> Dict:
        """One point query; resolves when its micro-batch dispatches."""
        if op not in QUERY_OPS:
            return {"ok": False, "error": f"unknown query op {op!r}"}
        try:
            inst = self._instance(instance)
            shard_i = route(inst.specs, int(edge))
        except (ValidationError, TypeError, ValueError) as exc:
            return {"ok": False, "error": str(exc)}
        try:
            fut = inst.batchers[shard_i].submit(op, edge, weight)
            # a stop sheds what it did not dispatch, as submit would
            generation, ok, value, error_kind = await fut
        except ServiceOverloaded as exc:
            return {"ok": False, "shed": True, "error": str(exc)}
        except ValidationError as exc:  # e.g. service not started
            return {"ok": False, "error": str(exc)}
        resp = {"ok": ok, "generation": generation, "shard": shard_i}
        resp["result" if ok else "error"] = value
        if error_kind is not None:
            resp["error_kind"] = error_kind
        return resp

    # -- write path ------------------------------------------------------------

    async def update(self, edge: int, weight: float,
                     instance: Optional[str] = None) -> Dict:
        """Commit ``w(edge) := weight`` (serialised per instance).

        Rebuilds run on a worker thread so reads keep flowing from the
        old generation; the swap is atomic per shard.
        """
        try:
            inst = self._instance(instance)
            edge = int(edge)
            weight = float(weight)
            if not 0 <= edge < inst.updater.graph.m:
                raise ValidationError(
                    f"edge index {edge} out of range "
                    f"[0, {inst.updater.graph.m})"
                )
        except (ValidationError, TypeError, ValueError) as exc:
            return {"ok": False, "error": str(exc)}
        async with inst.lock:
            try:
                with self.writers:
                    report: UpdateReport = await asyncio.get_running_loop() \
                        .run_in_executor(None, inst.updater.apply,
                                         inst.shards, edge, weight)
            except ServiceError as exc:
                return {"ok": False, "error": str(exc),
                        "error_kind": exc.kind}
        out = report.to_dict()
        out["ok"] = report.action != "rejected"
        return out

    # -- streaming structural write path ---------------------------------------

    async def update_batch(self, ops, instance: Optional[str] = None) -> Dict:
        """Stream one batch of structural ops through the ingestor.

        The per-instance :class:`StreamIngestor` bounds, coalesces and
        serialises structural batches; concurrent callers may find
        their ops folded into a single rebuild (the response then
        carries ``coalesced_requests > 1`` and the shared report).
        """
        try:
            inst = self._instance(instance)
        except ValidationError as exc:
            return {"ok": False, "error": str(exc)}
        if inst.ingestor is None:
            inst.ingestor = StreamIngestor(self, inst.name,
                                           depth=self.config.stream_depth)
        return await inst.ingestor.submit(ops)

    async def _apply_structural(self, instance: str, ops) -> Dict:
        """Apply one coalesced op batch and install the new generation.

        Runs on the ingestor's drain loop: the rebuild happens on a
        worker thread under the instance update lock (reads keep
        flowing from the old generation), then the shard plan for the
        new edge count and the new shard/batcher tuples are swapped in
        **synchronously** — ``submit_nowait`` reads specs and batchers
        with no await between them, so it sees old or new, never a mix.
        Old batchers drain their queued queries on the generation they
        were routed to before stopping; any that miss the stop deadline
        are named in ``missed_deadline``.
        """
        inst = self.instances[instance]
        async with inst.lock:
            with self.writers:
                report: BatchReport = await asyncio.get_running_loop() \
                    .run_in_executor(None, inst.updater.apply_batch,
                                     list(ops))
            old_batchers: List[MicroBatcher] = []
            if report.action == "rebuilt":
                old_batchers = self._install_generation(inst, report)
        missed = await self._retire(inst.name, old_batchers)
        out = report.to_dict()
        out["ok"] = report.action != "rejected"
        if missed:
            out["missed_deadline"] = missed
        out["report"] = report  # for StreamMetrics; popped by the ingestor
        return out

    def _install_generation(self, inst: _Instance,
                            report: BatchReport) -> List[MicroBatcher]:
        """Re-plan shards for the new ``m`` and swap — synchronously.

        Returns the superseded batchers for the caller to drain/stop
        outside the instance lock.
        """
        updater = inst.updater
        specs = plan_shards(updater.graph.m, self.config.shards)
        old_batchers = self._reshard(inst, specs,
                                     updater.shard_oracles(len(specs)),
                                     updater.generation)
        report.snapshot_path = updater.snapshot_path
        report.snapshot_digest = updater.snapshot_digest
        return old_batchers

    def _reshard(self, inst: _Instance, specs: List[ShardSpec], oracles,
                 generation: int) -> List[MicroBatcher]:
        """Swap in one shard per spec and fresh batchers — synchronously.

        ``submit_nowait`` reads specs and batchers with no await between
        them, so it sees old or new, never a mix. Returns the superseded
        batchers for the caller to retire outside the instance lock.
        """
        shards = [OracleShard(spec, orc, generation=generation)
                  for spec, orc in zip(specs, oracles)]
        # shard counters survive the reshard (positionally: the shard
        # count only shrinks when m collapses below cfg.shards)
        for new, old in zip(shards, inst.shards):
            new.metrics = old.metrics
        old_batchers = inst.batchers
        inst.shards = shards
        inst.batchers = self._new_batchers(shards)
        for s in shards:
            s.metrics.swaps += 1
        return old_batchers

    # -- introspection ---------------------------------------------------------

    def describe_instances(self) -> Dict:
        return {
            name: {
                "n": inst.updater.graph.n,
                "m": inst.updater.graph.m,
                "m_tree": inst.updater.graph.m_tree,
                "generation": inst.updater.generation,
                "shards": [
                    {"shard": s.spec.shard_id, "edge_lo": s.spec.edge_lo,
                     "edge_hi": s.spec.edge_hi}
                    for s in inst.shards
                ],
            }
            for name, inst in self.instances.items()
        }

    def metrics(self) -> Dict:
        uptime = (time.perf_counter() - self.started_at
                  if self.started_at is not None else 0.0)
        per_instance = {}
        total_queries = total_shed = 0
        reservoirs = []
        for name, inst in self.instances.items():
            shard_snaps = [s.metrics.snapshot(uptime) for s in inst.shards]
            total_queries += sum(s["queries"] for s in shard_snaps)
            total_shed += sum(s["shed"] for s in shard_snaps)
            reservoirs.extend(s.metrics.latency for s in inst.shards)
            per_instance[name] = {
                "generation": inst.updater.generation,
                "shards": shard_snaps,
                "updates": inst.updater.metrics.snapshot(),
                "store": inst.updater.store.stats(),
            }
            if inst.ingestor is not None:
                per_instance[name]["stream"] = inst.ingestor.metrics.snapshot()
        return {
            "uptime_s": round(uptime, 3),
            "queries": total_queries,
            "qps": round(total_queries / uptime, 1) if uptime else 0.0,
            "shed": total_shed,
            # service-wide percentiles: pooled shard reservoirs, not a
            # percentile of per-shard percentiles (which composes wrong)
            "latency": merged_latency(reservoirs),
            "wire": {proto: wm.snapshot()
                     for proto, wm in self.wire.items()},
            "instances": per_instance,
        }

    def queue_depths(self) -> Dict:
        """Per-instance queued-query totals — the backpressure signal.

        The router polls this (wire op ``depth``) and sheds at its own
        tier before forwarding once an instance's fraction of its total
        queue bound crosses the shed watermark.
        """
        out = {}
        for name, inst in self.instances.items():
            queued = sum(b.depth for b in inst.batchers)
            bound = sum(b.queue_depth for b in inst.batchers)
            out[name] = {
                "queued": queued,
                "bound": bound,
                "fraction": round(queued / bound, 4) if bound else 0.0,
                "generation": inst.updater.generation,
            }
        return out

    # -- dispatch --------------------------------------------------------------

    async def handle_request(self, req: Dict) -> Dict:
        """Dispatch one already-parsed request object (shared path)."""
        op = req.get("op")
        if op in QUERY_OPS:
            resp = await self.query(op, req.get("edge", -1),
                                    weight=req.get("weight"),
                                    instance=req.get("instance"))
        elif op == "update":
            resp = await self.update(req.get("edge", -1),
                                     req.get("weight", float("nan")),
                                     instance=req.get("instance"))
        elif op == "update_batch":
            resp = await self.update_batch(req.get("ops"),
                                           instance=req.get("instance"))
        elif op == "metrics":
            resp = {"ok": True, "result": self.metrics()}
        elif op == "depth":
            resp = {"ok": True, "result": self.queue_depths()}
        elif op == "instances":
            resp = {"ok": True, "result": self.describe_instances()}
        elif op == "ping":
            resp = {"ok": True, "result": "pong"}
        elif op == "hello":
            resp = self.hello(req)
        elif op == "shutdown":
            resp = {"ok": True, "result": "bye"}
        else:
            resp = {"ok": False, "error": f"unknown op {op!r}"}
        if "id" in req:
            resp["id"] = req["id"]
        return resp

    def hello(self, req: Dict) -> Dict:
        """Binary-protocol negotiation: intern names, return the table.

        With an explicit ``instances`` list the names are interned *in
        the given order* — the router uses this to dictate its own
        global id order to every worker, so relayed frames never need
        id rewriting. Without one, every currently registered instance
        is interned in sorted order (what a standalone client wants).
        Ids are dense, append-only and process-global, so repeated
        hellos only ever extend the table.
        """
        names = req.get("instances")
        if names is None:
            names = sorted(self.instances)
        try:
            symbols = self.wire_symbols.intern_all(str(n) for n in names)
        except wire.WireError as exc:
            return {"ok": False, "error": str(exc)}
        return {"ok": True,
                "result": {"wire": wire.WIRE_VERSION, "symbols": symbols}}

    async def _answer_columns(self, arr: np.ndarray):
        """Answer one decoded run of point queries, columnar end to end.

        Returns ``(statuses, resp)``: a wire status per row and the
        ``RESP_DTYPE`` rows (``shard``, ``generation``, ``value``) that
        go with them. The run splits into one vector submission per
        ``(instance, op, shard)`` group in one pass: a stable sort on a
        packed ``(iid, op, edge)`` key lays each group out contiguously,
        in submit order (instance, op, shard). Shards own contiguous
        edge ranges, so within one ``(iid, op)`` stretch the shard cuts
        are a ``searchsorted`` of the shard bounds into the sorted
        edges. Rows of an unknown instance id, and groups shed at
        submit or by a closing batcher, get their status written in
        place. No per-request dicts anywhere.
        """
        n = len(arr)
        statuses = np.zeros(n, dtype=np.uint8)
        resp = np.zeros(n, dtype=wire.RESP_DTYPE)
        # a record's first 8 bytes, little-endian, are magic | op << 8
        # | iid << 16 | edge << 32: shifted up 32 they put iid and op
        # (magic is constant in a run) above the edge
        key = (arr.view(_U64)[::2] << _SHIFT32) | arr["edge"]
        order = key.argsort(kind="stable")
        key = key[order]
        edges = arr["edge"][order].astype(np.int64)
        head = key >> _SHIFT32
        cuts = (head[1:] != head[:-1]).nonzero()[0] + 1
        starts = [0, *cuts.tolist()] if n else []
        pending = []
        for lo, hi in zip(starts, [*starts[1:], n]):
            iid, op_code = divmod(int(head[lo]) >> 8, 256)
            name = self.wire_symbols.name_of(iid)
            inst = self.instances.get(name) if name is not None else None
            if inst is None:
                statuses[order[lo:hi]] = wire.ST_UNKNOWN_INSTANCE
                continue
            op = wire.OP_NAME[op_code]
            batchers = inst.batchers
            # out-of-range ids sort past every bound into the last
            # shard, whose batcher answers them with the exact range error
            split = edges[lo:hi].searchsorted(
                [b.shard.spec.edge_lo for b in batchers[1:]]) + lo
            ends = [lo, *split.tolist(), hi]
            for batcher, a, z in zip(batchers, ends, ends[1:]):
                if a == z:
                    continue
                rows = order[a:z]
                weights = arr["weight"][rows] if op == "survives" else None
                try:
                    pending.append((rows, batcher, batcher.submit_vector(
                        op, edges[a:z], weights)))
                except ServiceOverloaded:
                    _shed_rows(rows, batcher, statuses, resp)
        for rows, batcher, fut in pending:
            try:
                generation, st, vals = await fut
            except ServiceOverloaded:  # still queued when it stopped
                _shed_rows(rows, batcher, statuses, resp)
                continue
            statuses[rows] = st
            resp["generation"][rows] = generation
            resp["shard"][rows] = batcher.shard.spec.shard_id
            resp["value"][rows] = vals
        return statuses, resp

    async def _answer_points(self, payload: bytes) -> bytes:
        """Answer one run of point frames, columnar end to end."""
        wm = self.wire["binary"]
        t0 = time.perf_counter_ns()
        arr = np.frombuffer(payload, dtype=wire.POINT_DTYPE)
        n = len(arr)
        wm.record_decode(n, time.perf_counter_ns() - t0)
        statuses, resp = await self._answer_columns(arr)
        t0 = time.perf_counter_ns()
        resp["magic"] = wire.MAGIC
        resp["type"] = wire.RESP_BASE | statuses
        payload = resp.tobytes()
        wm.record_encode(n, time.perf_counter_ns() - t0)
        wm.frames_out += n
        return payload

    async def _answer_bulk(self, frame: bytes) -> bytes:
        """Answer one columnar bulk query with one columnar response.

        The response carries a single generation field; a query that
        spans shards reports the newest generation touched (per-row
        generations would cost 4 bytes/row on a path built to be lean
        — the point path carries them exactly).
        """
        wm = self.wire["binary"]
        t0 = time.perf_counter_ns()
        op, iid, edges, weights = wire.decode_bulk_request(frame)
        wm.record_decode(1, time.perf_counter_ns() - t0)
        n = len(edges)
        name = self.wire_symbols.name_of(iid)
        if name is None or name not in self.instances:
            statuses = np.full(n, wire.ST_UNKNOWN_INSTANCE, dtype=np.uint8)
            return wire.encode_bulk_response(
                wire.OP_CODE[op], 0xFFFF, 0, statuses,
                np.zeros(n, dtype=np.float64))
        arr = np.zeros(n, dtype=wire.POINT_DTYPE)
        arr["type"] = wire.OP_CODE[op]
        arr["iid"] = iid
        arr["edge"] = edges
        if weights is not None:
            arr["weight"] = weights
        statuses, resp = await self._answer_columns(arr)
        # one op, so one group per shard: name the shard if exactly
        # one group was answered rather than shed
        served = np.unique(resp["shard"][statuses != wire.ST_SHED])
        shard = int(served[0]) if len(served) == 1 else 0xFFFF
        generation = int(resp["generation"].max()) if n else 0
        t0 = time.perf_counter_ns()
        payload = wire.encode_bulk_response(
            wire.OP_CODE[op], shard, generation, statuses, resp["value"])
        wm.record_encode(1, time.perf_counter_ns() - t0)
        wm.frames_out += 1
        return payload


def _shed_rows(rows: np.ndarray, batcher: MicroBatcher,
               statuses: np.ndarray, resp: np.ndarray) -> None:
    """Mark one group shed: the shard id plus its queue bound, which the
    client renders as the same message a JSON shed carries."""
    statuses[rows] = wire.ST_SHED
    resp["shard"][rows] = batcher.shard.spec.shard_id
    resp["value"][rows] = batcher.queue_depth


class ServiceClient:
    """One client, two transports: in-process dispatch or TCP.

    Construct with a :class:`SensitivityService` for in-process use
    (the wire protocol without the wire), or with
    ``await ServiceClient.connect(host, port)`` for a real JSON-lines
    connection. Typed helpers raise on error responses; :meth:`call`
    returns the raw response dict (what a TCP client would read back),
    which is what tests use to observe sheds and structured errors.

    Transport failures never leak raw socket exceptions: a server that
    drops the connection mid-call — a worker being restarted under the
    router, a ``shutdown`` racing a query — surfaces as
    :class:`~repro.errors.ServiceError` with ``kind="disconnected"``,
    so callers distinguish "peer said no" from "peer went away".
    """

    def __init__(self, service: Optional[SensitivityService] = None,
                 instance: Optional[str] = None):
        self.service = service
        self.instance = instance
        self.wire_mode = "json"
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock: Optional[asyncio.Lock] = None
        self._symbols: Dict[str, int] = {}

    @classmethod
    async def connect(cls, host: str, port: int,
                      instance: Optional[str] = None,
                      connect_timeout_s: float = 10.0,
                      wire_mode: str = "json") -> "ServiceClient":
        """Open a TCP connection to a running service.

        ``wire_mode="binary"`` negotiates the binary protocol on this
        connection (a ``hello`` handshake interns instance names); the
        default keeps the JSON-lines protocol byte-for-byte as before.
        """
        if wire_mode not in ("json", "binary"):
            raise ValidationError(f"unknown wire mode {wire_mode!r}")
        client = cls(instance=instance)
        client.wire_mode = wire_mode
        try:
            client._reader, client._writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), connect_timeout_s
            )
        except asyncio.TimeoutError:
            raise ServiceError(
                f"connect to {host}:{port} timed out "
                f"after {connect_timeout_s:.1f}s", kind="disconnected")
        except OSError as exc:
            raise ServiceError(f"connect to {host}:{port} failed: {exc}",
                               kind="disconnected")
        client._lock = asyncio.Lock()
        if wire_mode == "binary":
            await client._hello()
        return client

    async def _hello(self, names: Optional[List[str]] = None) -> None:
        """(Re-)negotiate the symbol table over an escape frame."""
        req = {"op": "hello"}
        if names is not None:
            req["instances"] = names
        resp = await self._roundtrip_escape(req)
        if not resp.get("ok"):
            raise ServiceError(
                f"hello rejected: {resp.get('error')}", kind="protocol")
        self._symbols.update(resp["result"]["symbols"])

    async def _read_frame(self) -> bytes:
        """One complete binary frame off the connection (under lock)."""
        head = await self._reader.readexactly(wire.HEADER_LEN)
        length = wire.frame_length(head)
        if length == wire.HEADER_LEN:
            return head
        return head + await self._reader.readexactly(length - wire.HEADER_LEN)

    async def _roundtrip_escape(self, req: Dict) -> Dict:
        """One control op as an escape frame, response decoded to dict."""
        async with self._lock:
            try:
                self._writer.write(wire.encode_escape(req))
                await self._writer.drain()
                frame = await self._read_frame()
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError) as exc:
                raise ServiceError(
                    f"connection lost mid-call ({req.get('op')}): "
                    f"{type(exc).__name__}: {exc}", kind="disconnected")
        if frame[1] != wire.ESCAPE:
            raise ServiceError(
                f"expected escape response, got frame type "
                f"0x{frame[1]:02x}", kind="protocol")
        return wire.decode_escape(frame)

    def _iid_of(self, name: Optional[str]) -> Optional[int]:
        """Resolve an instance name to its interned id, if possible.

        ``None`` means "fall back to the escape frame" — an unnamed
        instance on a multi-instance server, or a name the server has
        not interned for us yet — where the JSON dispatch produces the
        exact error envelope this client should see.
        """
        if name is None:
            if len(self._symbols) == 1:
                return next(iter(self._symbols.values()))
            return None
        return self._symbols.get(name)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None

    async def call(self, op: str, **kw) -> Dict:
        req = {"op": op, **kw}
        if "instance" not in req and self.instance is not None:
            req["instance"] = self.instance
        if self.service is not None:
            return await self.service.handle_request(req)
        if self._writer is None:
            raise ServiceError("client is not connected",
                               kind="disconnected")
        if self.wire_mode == "binary":
            return await self._call_binary(op, req)
        async with self._lock:  # one request in flight per connection
            try:
                self._writer.write(wire.dumps_line(req))
                await self._writer.drain()
                line = await self._reader.readline()
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError) as exc:
                raise ServiceError(
                    f"connection lost mid-call ({op}): "
                    f"{type(exc).__name__}: {exc}", kind="disconnected")
        if not line:
            raise ServiceError(
                f"server closed the connection mid-call ({op})",
                kind="disconnected")
        try:
            return json.loads(line)
        except ValueError as exc:
            raise ServiceError(f"unparseable response line: {exc}",
                               kind="protocol")

    async def _call_binary(self, op: str, req: Dict) -> Dict:
        """One request over the binary connection.

        Point queries that fit the fixed frame
        (:func:`~repro.service.wire.fits_point_frame`) go as 16-byte
        frames and decode back to the exact dict the JSON path would
        return, ``id`` echoed here. Everything else — control ops, and
        the degenerate queries whose error envelopes only the JSON
        dispatch can produce (negative edge, missing survives weight,
        unknown instance) — rides the escape frame and comes back as
        the server's own JSON.
        """
        if op in QUERY_OPS:
            iid = self._iid_of(req.get("instance"))
            if iid is None and req.get("instance") is not None:
                await self._hello()  # maybe interned since we connected
                iid = self._iid_of(req.get("instance"))
            edge, weight = req.get("edge"), req.get("weight")
            if wire.fits_point_frame(op, iid, edge, weight):
                frame = wire.encode_point(op, iid, edge, weight)
                async with self._lock:
                    try:
                        self._writer.write(frame)
                        await self._writer.drain()
                        resp = await self._read_frame()
                    except (ConnectionError, asyncio.IncompleteReadError,
                            OSError) as exc:
                        raise ServiceError(
                            f"connection lost mid-call ({op}): "
                            f"{type(exc).__name__}: {exc}",
                            kind="disconnected")
                if resp[1] == wire.ESCAPE:
                    return wire.decode_escape(resp)
                name = req.get("instance")
                if name is None:  # the single interned instance
                    name = next(n for n, i in self._symbols.items()
                                if i == iid)
                out = wire.point_response_to_dict(
                    op, edge, wire.decode_point_response(resp), name)
                if "id" in req:
                    out["id"] = req["id"]
                return out
        try:
            return await self._roundtrip_escape(req)
        except asyncio.IncompleteReadError:
            raise ServiceError(
                f"server closed the connection mid-call ({op})",
                kind="disconnected")

    async def bulk(self, op: str, edges, weights=None,
                   instance: Optional[str] = None):
        """One columnar bulk query over a binary connection.

        Returns ``(shard, generation, statuses, values)`` — raw wire
        columns, zero boxing. ``shard`` is 0xFFFF when the query
        spanned shards (or failed before reaching one).
        """
        if self.wire_mode != "binary" or self._writer is None:
            raise ServiceError(
                "bulk queries need a binary TCP connection "
                "(ServiceClient.connect(..., wire_mode='binary'))",
                kind="protocol")
        name = instance if instance is not None else self.instance
        iid = self._iid_of(name)
        if iid is None:
            await self._hello()
            iid = self._iid_of(name)
        if iid is None:
            raise ValidationError(f"unknown instance {name!r}")
        frame = wire.encode_bulk_request(op, iid, edges, weights)
        async with self._lock:
            try:
                self._writer.write(frame)
                await self._writer.drain()
                resp = await self._read_frame()
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError) as exc:
                raise ServiceError(
                    f"connection lost mid-call (bulk {op}): "
                    f"{type(exc).__name__}: {exc}", kind="disconnected")
        if resp[1] == wire.ESCAPE:
            err = wire.decode_escape(resp)
            raise ServiceError(str(err.get("error")), kind="protocol")
        return wire.decode_bulk_response(resp)

    async def _value(self, op: str, **kw):
        resp = await self.call(op, **kw)
        if not resp.get("ok"):
            raise ValidationError(resp.get("error", "query failed"))
        return resp["result"]

    async def sensitivity(self, edge: int, **kw) -> float:
        return await self._value("sensitivity", edge=edge, **kw)

    async def survives(self, edge: int, weight: float, **kw) -> bool:
        return await self._value("survives", edge=edge, weight=weight, **kw)

    async def replacement_edge(self, edge: int, **kw) -> Optional[int]:
        return await self._value("replacement_edge", edge=edge, **kw)

    async def entry_threshold(self, edge: int, **kw) -> float:
        return await self._value("entry_threshold", edge=edge, **kw)

    async def update(self, edge: int, weight: float, **kw) -> Dict:
        return await self.call("update", edge=edge, weight=weight, **kw)

    async def update_batch(self, ops, **kw) -> Dict:
        """Submit one structural batch (add/remove/reprice op dicts)."""
        return await self.call("update_batch", ops=list(ops), **kw)

    async def metrics(self) -> Dict:
        return await self._value("metrics")
