"""The router tier: one front door over N worker processes.

``repro route`` (or ``repro serve --workers N``) runs a
:class:`RouterTier`: a process that owns the public TCP listener and
consistent-hash-places graph instances onto worker processes, each of
which runs a full :class:`~repro.service.worker_proc.WorkerService`
(shards x micro-batchers x update path) in its own interpreter — the
fleet discipline of the paper's MPC model applied to the serving
substrate itself. The router holds no oracle state; it holds *routing*
state:

* **placement** — rendezvous hashing (:mod:`repro.service.placement`)
  maps each instance to a primary worker plus ``replication - 1``
  replicas. Reads fan out round-robin across the replica set (hot
  instances use the whole set); writes always go to the primary.
* **snapshot shipping** — an instance is introduced to its workers by
  ``adopt``: the router publishes one digest-addressed, uncompressed
  ``.npz`` snapshot and every replica memory-maps the same page-cached
  file. A structure-changing update rebuilds **once** on the primary,
  which publishes the new generation's snapshot; the router then ships
  only ``(path, digest, generation)`` to the replicas, whose ``swap``
  is an mmap + atomic shard-tuple swap under live reads — zero
  pipeline work, zero downtime, bit-identical answers per generation.
* **backpressure** — workers report per-instance queue depth
  (``depth`` op, polled on a dedicated telemetry link); once a
  worker's fraction of its queue bound crosses the shed watermark the
  router sheds *before* forwarding, so overload answers come from the
  cheap tier and saturated workers drain instead of queueing deeper.
* **supervision** — a :class:`~repro.service.supervision.Supervisor`
  watches process sentinels and heartbeats, re-dials severed
  connections, respawns crashed workers under a bounded restart
  policy, and gates every rejoin behind catch-up from the router's
  generation ledger. Reads retry transparently on the next live
  replica (they are pure); writes fail over to a promoted replica
  when the acting primary is down. Deterministic fault injection
  lives in :mod:`repro.service.chaos` (``--chaos`` / the ``chaos``
  wire op).

Forwarding is deliberately thin: worker links are pipelined JSON-lines
connections with FIFO correlation (the service writes responses in
request order), and on the hot read path the router forwards the
client's raw request line and relays the worker's raw response line —
one ``json.loads`` for routing, zero re-serialisation.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import ServiceError, ValidationError
from ..graph.graph import WeightedGraph
from ..mpc import MPCConfig
from ..mpc.parallel import get_context
from ..oracle import SensitivityOracle, build_oracle
from ..serialize import file_digest
from . import wire
from .batching import QUERY_OPS
from .chaos import ChaosInjector, ChaosPlan
from .metrics import RouterMetrics
from .placement import Placement
from .supervision import STOP_DEADLINE_S, Supervisor
from .worker_proc import WorkerSpec, worker_entry

__all__ = ["RouterConfig", "RouterTier", "WorkerLink", "BinaryWorkerLink"]


@dataclass
class RouterConfig:
    """Deployment knobs for one router process and its worker fleet."""

    workers: int = 2                 #: worker processes to spawn
    replication: int = 2             #: replicas per instance (cap: workers)
    shards: int = 2                  #: edge-range shards per instance/worker
    max_batch: int = 512
    batch_window_s: float = 0.002
    queue_depth: int = 4096
    engine: str = "local"
    delta: float = 0.35
    oracle_labels: bool = True
    host: str = "127.0.0.1"          #: front-door bind address
    port: int = 7465                 #: front-door port (0 picks a free one)
    worker_host: str = "127.0.0.1"   #: where workers bind (loopback fleet)
    mmap_dir: Optional[str] = None   #: snapshot spool (default: a tempdir)
    cache_dir: Optional[str] = None  #: per-worker artifact cache root
    query_links: int = 2             #: pipelined query connections per worker
    shed_watermark: float = 0.9      #: depth fraction that trips router shed
    depth_poll_s: float = 0.02       #: telemetry poll interval
    spawn_timeout_s: float = 120.0   #: worker boot handshake budget
    supervise: bool = True           #: run the self-healing supervisor
    heartbeat_s: float = 0.25        #: sentinel + heartbeat cadence
    heartbeat_timeout_s: float = 3.0  #: ping budget before suspicion
    read_retry_deadline_s: float = 2.0  #: budget to retry reads elsewhere
    restart_backoff_s: float = 0.1   #: initial respawn backoff (doubles)
    max_restarts: int = 5            #: respawns per window before eviction
    restart_window_s: float = 60.0   #: sliding restart-budget window
    chaos: Optional[str] = None      #: fault-injection spec (ChaosPlan)


class WorkerLink:
    """One pipelined JSON-lines connection with FIFO correlation.

    The service endpoint writes responses strictly in request order, so
    correlation is a deque of futures: the k-th response line resolves
    the k-th outstanding request. Many requests ride one connection
    concurrently; a lost connection fails every outstanding future with
    a structured :class:`~repro.errors.ServiceError` instead of leaking
    ``ConnectionResetError`` into the router's forwarding paths.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: deque = deque()
        self._dead = False
        self._task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int,
                      timeout_s: float = 10.0) -> "WorkerLink":
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout_s)
        except (OSError, asyncio.TimeoutError) as exc:
            raise ServiceError(f"worker connect {host}:{port} failed: {exc}",
                               kind="disconnected")
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                if self._pending:
                    fut = self._pending.popleft()
                    if not fut.done():
                        fut.set_result(line)
        except (ConnectionError, OSError):
            pass
        finally:
            self._dead = True
            while self._pending:
                fut = self._pending.popleft()
                if not fut.done():
                    fut.set_exception(ServiceError(
                        "worker connection lost with requests in flight",
                        kind="disconnected"))

    async def request_raw(self, line: bytes) -> bytes:
        """Send one already-framed request line, await its response line."""
        if self._dead:
            raise ServiceError("worker link is down", kind="disconnected")
        fut = asyncio.get_running_loop().create_future()
        self._pending.append(fut)       # append + write: one atomic step
        self._writer.write(line)
        try:
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            if not fut.done():
                self._pending.remove(fut)
                fut.cancel()
            raise ServiceError(f"worker link write failed: {exc}",
                               kind="disconnected")
        return await fut

    async def request(self, req: Dict,
                      timeout_s: Optional[float] = None) -> Dict:
        """Parsed request/response (control + telemetry paths)."""
        line = wire.dumps_line(req)
        if timeout_s is None:
            raw = await self.request_raw(line)
        else:
            raw = await asyncio.wait_for(self.request_raw(line), timeout_s)
        return json.loads(raw)

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class BinaryWorkerLink:
    """One pipelined *binary* connection with byte-counted correlation.

    The router's zero-parse relay rides these: a run of k point frames
    is answered by exactly 16k response bytes in FIFO order (the worker
    answers every point frame with one fixed-width frame, errors
    included), so correlation is a deque of ``("fixed", nbytes, fut)``
    entries and the read loop never inspects a payload — it only counts
    bytes. Escape round-trips (the re-hello path) enqueue a
    ``("frame", None, fut)`` entry, whose length comes from the 8-byte
    header alone. No JSON parser ever runs on this connection's data
    path.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: deque = deque()
        self._have_work = asyncio.Event()
        self._buf = bytearray()
        self._dead = False
        self.version = 0          #: symbol-table size last negotiated
        self._task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int, names: List[str],
                      timeout_s: float = 10.0) -> "BinaryWorkerLink":
        """Dial + negotiate: the hello dictates ``names`` in id order.

        The hello escape frame is also what flips the worker's
        connection sniffer to binary (its first byte is ``MAGIC``).
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout_s)
        except (OSError, asyncio.TimeoutError) as exc:
            raise ServiceError(f"worker connect {host}:{port} failed: {exc}",
                               kind="disconnected")
        try:
            writer.write(wire.encode_escape(
                {"op": "hello", "wire": wire.WIRE_VERSION,
                 "instances": names}))
            await writer.drain()
            head = await asyncio.wait_for(
                reader.readexactly(wire.HEADER_LEN), timeout_s)
            length = wire.frame_length(head)
            frame = head + await asyncio.wait_for(
                reader.readexactly(length - wire.HEADER_LEN), timeout_s)
            resp = wire.decode_escape(frame)
        except (OSError, ConnectionError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, wire.WireError) as exc:
            writer.close()
            raise ServiceError(
                f"binary hello to {host}:{port} failed: {exc}",
                kind="disconnected")
        if not resp.get("ok"):
            writer.close()
            raise ServiceError(
                f"worker {host}:{port} rejected hello: {resp.get('error')}",
                kind="protocol")
        link = cls(reader, writer)
        link.version = len(names)
        return link

    async def _fill(self) -> None:
        data = await self._reader.read(1 << 16)
        if not data:
            raise ConnectionError("worker closed the binary link")
        self._buf += data

    async def _read_loop(self) -> None:
        try:
            while True:
                if not self._pending:
                    self._have_work.clear()
                    await self._have_work.wait()
                kind, nbytes, fut = self._pending[0]
                if kind == "frame":
                    while (need := wire.frame_length(self._buf)) is None:
                        await self._fill()
                else:
                    need = nbytes
                while len(self._buf) < need:
                    await self._fill()
                chunk = bytes(self._buf[:need])
                del self._buf[:need]
                self._pending.popleft()
                if not fut.done():
                    fut.set_result(chunk)
        except (ConnectionError, OSError, asyncio.IncompleteReadError,
                wire.WireError):
            pass
        finally:
            self._dead = True
            while self._pending:
                entry = self._pending.popleft()
                if not entry[2].done():
                    entry[2].set_exception(ServiceError(
                        "worker connection lost with requests in flight",
                        kind="disconnected"))

    async def _submit(self, payload: bytes, entry) -> bytes:
        if self._dead:
            raise ServiceError("worker link is down", kind="disconnected")
        self._pending.append(entry)
        self._have_work.set()
        self._writer.write(payload)
        try:
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise ServiceError(f"worker link write failed: {exc}",
                               kind="disconnected")
        return await entry[2]

    async def request_run(self, payload: bytes, nframes: int) -> bytes:
        """Relay a run of point frames; await its 16-byte-per-frame
        answer block. Pure byte splicing on both directions."""
        fut = asyncio.get_running_loop().create_future()
        return await self._submit(
            payload, ("fixed", nframes * wire.POINT_LEN, fut))

    async def request_escape(self, req: Dict,
                             timeout_s: Optional[float] = None) -> Dict:
        """One JSON control op over the binary link (re-hello)."""
        fut = asyncio.get_running_loop().create_future()
        coro = self._submit(wire.encode_escape(req), ("frame", None, fut))
        raw = (await coro if timeout_s is None
               else await asyncio.wait_for(coro, timeout_s))
        return wire.decode_escape(raw)

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class _Worker:
    """Router-side handle to one spawned worker process."""

    worker_id: int
    proc: object
    port: int
    links: List[WorkerLink]          #: pipelined query links (round-robin)
    control: WorkerLink              #: adopt/swap/update/shutdown
    telemetry: WorkerLink            #: depth polls + metrics scrapes
    bin_links: List[BinaryWorkerLink] = field(default_factory=list)
    depth: Dict = field(default_factory=dict)
    rr: int = 0
    bin_rr: int = 0
    wire_version: int = 0            #: symbols dictated to this process
    up: bool = True                  #: in rotation (supervisor-managed)
    stale: set = field(default_factory=set)  #: instances pending resync
    chaos_delay_s: float = 0.0       #: injected read latency (chaos)
    poller: Optional[asyncio.Task] = None

    def all_links(self):
        return (*self.links, *self.bin_links, self.control, self.telemetry)

    def live_link(self) -> Optional[WorkerLink]:
        """Next non-dead query link, or ``None`` when all are down."""
        for _ in range(len(self.links)):
            self.rr += 1
            link = self.links[self.rr % len(self.links)]
            if not link._dead:
                return link
        return None

    def live_bin_link(self) -> Optional[BinaryWorkerLink]:
        """Next non-dead binary relay link, or ``None``."""
        for _ in range(len(self.bin_links)):
            self.bin_rr += 1
            link = self.bin_links[self.bin_rr % len(self.bin_links)]
            if not link._dead:
                return link
        return None

    def routable(self, instance: str) -> bool:
        """May this worker serve reads of ``instance`` right now?"""
        return (self.up and instance not in self.stale
                and any(not link._dead for link in self.links))


@dataclass
class _Placed:
    """One routed instance: its replica set and routing facts."""

    name: str
    m: int
    n: int
    m_tree: int
    replicas: List[int]              #: worker ids, primary first
    generation: int = 0
    rr: int = 0
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class RouterTier:
    """Front door + placement + snapshot shipping over worker processes."""

    PIPELINE_LIMIT = 1024

    def __init__(self, config: Optional[RouterConfig] = None):
        self.config = config or RouterConfig()
        if self.config.workers < 1:
            raise ValidationError("router needs at least one worker")
        self.placement = Placement()
        self.workers: Dict[int, _Worker] = {}
        self.instances: Dict[str, _Placed] = {}
        self.metrics = RouterMetrics()
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        self.supervisor = Supervisor(self)
        #: router-owned symbol registry; its id order is dictated to
        #: every worker so relayed binary frames never rewrite iids
        self.wire_symbols = wire.WireSymbols()
        self.wire = {"json": wire.WireMetrics(),
                     "binary": wire.WireMetrics()}
        self._injectors: List[ChaosInjector] = []
        self._spool = self.config.mmap_dir
        self._own_spool: Optional[tempfile.TemporaryDirectory] = None
        self._fwd_count = 0
        self._stopped = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self, serve_tcp: bool = False) -> None:
        """Spawn + handshake the fleet, then (optionally) open the door."""
        if self._spool is None:
            self._own_spool = tempfile.TemporaryDirectory(
                prefix="repro-router-")
            self._spool = self._own_spool.name
        os.makedirs(self._spool, exist_ok=True)
        boots = [(wid, *self._launch_worker(wid))
                 for wid in range(self.config.workers)]
        deadline = time.perf_counter() + self.config.spawn_timeout_s
        for wid, proc, conn in boots:
            try:
                port = await self._await_ready(wid, proc, conn, deadline)
                worker = await self._connect_worker(wid, proc, port)
            except ServiceError:
                await self._kill_boots(boots)
                raise
            self.workers[wid] = worker
            self.placement.add_worker(wid)
        self.started_at = time.perf_counter()
        for w in self.workers.values():
            self._start_poller(w)
        self.supervisor.start()
        if self.config.chaos:
            self.arm_chaos(ChaosPlan.parse(self.config.chaos))
        if serve_tcp:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port)

    def _launch_worker(self, wid: int):
        """Fork one worker process; returns its handle + boot pipe."""
        ctx = get_context()
        parent_conn, child_conn = ctx.Pipe()
        spec = WorkerSpec(
            worker_id=wid, host=self.config.worker_host,
            shards=self.config.shards, max_batch=self.config.max_batch,
            batch_window_s=self.config.batch_window_s,
            queue_depth=self.config.queue_depth,
            engine=self.config.engine, delta=self.config.delta,
            oracle_labels=self.config.oracle_labels,
            mmap_dir=os.path.join(self._spool, f"worker{wid}"),
            cache_dir=(os.path.join(self.config.cache_dir, f"worker{wid}")
                       if self.config.cache_dir else None),
        )
        proc = ctx.Process(target=worker_entry,
                           args=(child_conn, spec), daemon=True)
        proc.start()
        child_conn.close()
        return proc, parent_conn

    async def _await_ready(self, wid: int, proc, conn,
                           deadline: float) -> int:
        """Wait for one worker's ``("ready", wid, port)`` handshake."""
        loop = asyncio.get_running_loop()
        try:
            budget = max(0.1, deadline - time.perf_counter())
            msg = await asyncio.wait_for(
                loop.run_in_executor(None, conn.recv), budget)
        except (asyncio.TimeoutError, EOFError, OSError):
            raise ServiceError(
                f"worker {wid} failed its boot handshake within "
                f"{self.config.spawn_timeout_s:.0f}s",
                kind="disconnected")
        finally:
            conn.close()
        assert msg[0] == "ready" and msg[1] == wid
        return int(msg[2])

    async def _connect_worker(self, wid: int, proc, port: int) -> _Worker:
        host = self.config.worker_host
        links = [await WorkerLink.connect(host, port)
                 for _ in range(max(1, self.config.query_links))]
        control = await WorkerLink.connect(host, port)
        telemetry = await WorkerLink.connect(host, port)
        # the binary hello dictates the router's global symbol order to
        # this (possibly fresh) process, so relayed frame iids mean the
        # same instance on both sides of the splice
        names = self.wire_symbols.names()
        bin_links = [await BinaryWorkerLink.connect(host, port, names)
                     for _ in range(max(1, self.config.query_links))]
        return _Worker(worker_id=wid, proc=proc, port=port, links=links,
                       control=control, telemetry=telemetry,
                       bin_links=bin_links, wire_version=len(names))

    async def _respawn_worker(self, w: _Worker) -> None:
        """Boot a fresh process for a dead worker, reusing its identity.

        The new process keeps the worker id, spool directory, and
        artifact cache of the old one; its serving state is rebuilt by
        the supervisor's ledger catch-up before it re-enters rotation.
        """
        proc, conn = self._launch_worker(w.worker_id)
        deadline = time.perf_counter() + self.config.spawn_timeout_s
        try:
            port = await self._await_ready(w.worker_id, proc, conn, deadline)
            fresh = await self._connect_worker(w.worker_id, proc, port)
        except ServiceError:
            if proc.is_alive():
                proc.terminate()
            raise
        w.proc, w.port = fresh.proc, fresh.port
        w.links, w.control = fresh.links, fresh.control
        w.telemetry = fresh.telemetry
        w.bin_links = fresh.bin_links
        w.wire_version = fresh.wire_version
        w.rr = 0
        w.bin_rr = 0
        w.depth = {}
        w.chaos_delay_s = 0.0

    async def _kill_boots(self, boots) -> None:
        for _wid, proc, _conn in boots:
            if proc.is_alive():
                proc.terminate()

    def arm_chaos(self, plan: ChaosPlan) -> ChaosInjector:
        """Start executing a fault-injection plan against the fleet."""
        injector = ChaosInjector(plan)
        injector.start(self)
        self._injectors.append(injector)
        return injector

    @property
    def tcp_address(self) -> Optional[tuple]:
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        await self._shutdown.wait()

    async def stop(self) -> Dict:
        """Shut the whole tree down: door, pollers, workers, spool.

        Returns ``{"missed_deadline": [...]}``: background tasks still
        running ``STOP_DEADLINE_S`` after their cancel.
        """
        if self._stopped:
            return {"missed_deadline": []}
        self._stopped = True
        for injector in self._injectors:
            await injector.stop()
        missed = await self.supervisor.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        pollers = {w.worker_id: w.poller for w in self.workers.values()
                   if w.poller is not None}
        for t in pollers.values():
            t.cancel()
        if pollers:
            _, late = await asyncio.wait(pollers.values(),
                                         timeout=STOP_DEADLINE_S)
            missed += [f"poller:{wid}" for wid, t in pollers.items()
                       if t in late]
        for w in self.workers.values():
            w.poller = None
        loop = asyncio.get_running_loop()
        for w in self.workers.values():
            try:
                await w.control.request({"op": "shutdown"}, timeout_s=10.0)
            except (ServiceError, asyncio.TimeoutError):
                pass
            for link in w.all_links():
                await link.close()
        for w in self.workers.values():
            await loop.run_in_executor(None, w.proc.join, 10.0)
            if w.proc.is_alive():  # pragma: no cover - stuck worker
                w.proc.terminate()
                await loop.run_in_executor(None, w.proc.join, 5.0)
        if self._own_spool is not None:
            self._own_spool.cleanup()
            self._own_spool = None
        self._shutdown.set()
        return {"missed_deadline": missed}

    # -- instance placement ----------------------------------------------------

    async def add_instance(self, name: str, graph: WeightedGraph,
                           oracle: Optional[SensitivityOracle] = None
                           ) -> Dict:
        """Build (or adopt) generation 0 and ship it to the replica set.

        The oracle is built **once** (here, unless one is supplied),
        published as a digest-addressed snapshot, and adopted by every
        replica via mmap — N workers, one build, one page-cached copy.
        """
        if name in self.instances:
            raise ValidationError(f"instance {name!r} already registered")
        if not self.workers:
            raise ValidationError("router not started")
        cfg = self.config
        if oracle is None:
            config = (MPCConfig(delta=cfg.delta)
                      if cfg.engine == "distributed" else None)
            oracle = await asyncio.get_running_loop().run_in_executor(
                None, lambda: build_oracle(
                    graph, engine=cfg.engine, config=config,
                    oracle_labels=cfg.oracle_labels))
        tmp = os.path.join(self._spool, f".{name}-seed.tmp.npz")
        oracle.save(tmp, compressed=False)
        digest = file_digest(tmp)
        path = os.path.join(self._spool, f"{name}-{digest[:16]}.npz")
        os.replace(tmp, path)
        replicas = self.placement.replicas(name, cfg.replication)
        adopt = {"op": "adopt", "instance": name, "path": path,
                 "digest": digest, "generation": 0}
        targets, offline = [], []
        for wid in replicas:
            w = self.workers.get(wid)
            if w is None:
                continue
            (targets if w.up and not w.control._dead else offline).append(w)
        if not targets:
            raise ServiceError(
                f"no live replica available to adopt {name!r}",
                kind="disconnected")
        results = await asyncio.gather(*(
            w.control.request(adopt) for w in targets))
        for w, resp in zip(targets, results):
            if not resp.get("ok"):
                raise ServiceError(
                    f"worker {w.worker_id} refused to adopt {name!r}: "
                    f"{resp.get('error')}")
        self.wire_symbols.intern(name)
        await self._sync_all_symbols()  # before any frame can carry the iid
        self.instances[name] = _Placed(
            name=name, m=graph.m, n=graph.n, m_tree=graph.m_tree,
            replicas=replicas)
        self.supervisor.ledger.record_publish(name, path, digest, 0)
        for w in offline:
            # a down replica picks the instance up from the ledger when
            # its recovery drains the stale set
            w.stale.add(name)
        return {"instance": name, "replicas": replicas,
                "digest": digest, "path": path}

    # -- wire-symbol dictation -------------------------------------------------

    async def _sync_symbols(self, w: _Worker) -> None:
        """Push the router's symbol table to one worker (idempotent).

        The hello rides the JSON control link — it works even while the
        binary links are being healed — and lists every name in global
        id order, so the worker's append-only table ends positionally
        identical to the router's.
        """
        names = self.wire_symbols.names()
        if w.wire_version >= len(names) or w.control._dead:
            return
        resp = await w.control.request({"op": "hello", "instances": names})
        if resp.get("ok"):
            w.wire_version = len(names)

    async def _sync_all_symbols(self) -> None:
        for w in self.workers.values():
            try:
                await self._sync_symbols(w)
            except ServiceError:
                # a worker that misses the sync re-hellos at heal or
                # respawn time, before it can serve binary relays again
                self.supervisor.notify_suspect(w)

    async def hello(self, req: Dict) -> Dict:
        """Front-door negotiation: intern, dictate to workers, reply.

        Workers are synced *before* the reply so a client can never
        hold an iid the fleet does not understand yet.
        """
        names = req.get("instances")
        if names is None:
            names = sorted(self.instances)
        try:
            symbols = self.wire_symbols.intern_all(str(n) for n in names)
        except wire.WireError as exc:
            return {"ok": False, "error": str(exc)}
        await self._sync_all_symbols()
        return {"ok": True,
                "result": {"wire": wire.WIRE_VERSION, "symbols": symbols}}

    # -- read path -------------------------------------------------------------

    def _placed(self, name: Optional[str]) -> _Placed:
        if name is None and len(self.instances) == 1:
            return next(iter(self.instances.values()))
        if name not in self.instances:
            raise ValidationError(
                f"unknown instance {name!r} "
                f"(have: {sorted(self.instances)})")
        return self.instances[name]

    def _pick_worker(self, placed: _Placed) -> Optional[_Worker]:
        """Round-robin over the replica set, skipping saturated, dead,
        and stale workers.

        A worker whose query links are down, that the supervisor took
        out of rotation, or that is stale for this instance is never a
        candidate — its last depth report is meaningless. Returns
        ``None`` when no replica can take the read.
        """
        n = len(placed.replicas)
        for _ in range(n):
            placed.rr += 1
            wid = placed.replicas[placed.rr % n]
            w = self.workers.get(wid)
            if w is None or not w.routable(placed.name):
                continue
            info = w.depth.get(placed.name)
            if info is not None and \
                    info.get("fraction", 0.0) >= self.config.shed_watermark:
                continue
            if wid != placed.replicas[0]:
                self.metrics.replica_hits += 1
            return w
        return None

    def _any_routable(self, placed: _Placed) -> bool:
        return any(
            (w := self.workers.get(wid)) is not None
            and w.routable(placed.name)
            for wid in placed.replicas)

    async def _forward_query_raw(self, req: Dict, line: bytes) -> bytes:
        """The hot path: route by instance, relay raw lines.

        Reads are pure, so a mid-request disconnect is safe to retry:
        the query is re-sent to the next live replica until it answers
        or ``read_retry_deadline_s`` runs out. The deadline also covers
        the no-replica window of a replication-1 instance whose only
        worker is mid-respawn. Saturation still sheds immediately —
        retrying onto an overloaded fleet would only queue deeper.
        """
        try:
            placed = self._placed(req.get("instance"))
        except ValidationError as exc:
            return self._frame({"ok": False, "error": str(exc)}, req)
        deadline = time.perf_counter() + self.config.read_retry_deadline_s
        while True:
            w = self._pick_worker(placed)
            if w is None:
                if self._any_routable(placed):
                    # live replicas exist but all are past the shed
                    # watermark: backpressure, not failure
                    self.metrics.shed_router += 1
                    return self._frame(
                        {"ok": False, "shed": True, "where": "router",
                         "error": f"all {len(placed.replicas)} replica(s) "
                                  f"of {placed.name!r} are past the shed "
                                  f"watermark"},
                        req)
                if time.perf_counter() >= deadline:
                    return self._frame(
                        {"ok": False,
                         "error": f"no live replica of {placed.name!r} "
                                  f"within the retry deadline",
                         "error_kind": "worker-disconnected"}, req)
                await asyncio.sleep(0.05)  # a replica is recovering
                continue
            if w.chaos_delay_s > 0:
                await asyncio.sleep(w.chaos_delay_s)
            link = w.live_link()
            if link is None:
                self.supervisor.notify_suspect(w)
                continue
            t0 = time.perf_counter()
            try:
                raw = await link.request_raw(line)
            except ServiceError:
                self.metrics.worker_errors += 1
                self.supervisor.metrics.read_retries += 1
                self.supervisor.notify_suspect(w)
                if time.perf_counter() >= deadline:
                    return self._frame(
                        {"ok": False,
                         "error": f"replicas of {placed.name!r} kept "
                                  f"disconnecting within the retry "
                                  f"deadline",
                         "error_kind": "worker-disconnected"}, req)
                continue
            self.metrics.forwarded += 1
            self._fwd_count += 1
            if self._fwd_count % 16 == 0:  # stride-sampled router-side rtt
                self.metrics.latency.extend([time.perf_counter() - t0])
            return raw

    @staticmethod
    def _frame(resp: Dict, req: Dict) -> bytes:
        if "id" in req:
            resp["id"] = req["id"]
        return wire.dumps_line(resp)

    # -- write path ------------------------------------------------------------

    def _acting_primary(self, placed: _Placed) -> Optional[_Worker]:
        """The first live, current replica — canonical unless it's down.

        Replica order is the rendezvous ranking, so promotion is
        deterministic: every write lands on the same surviving replica
        until the canonical primary catches up and takes over again.
        """
        for wid in placed.replicas:
            w = self.workers.get(wid)
            if (w is not None and w.up and not w.control._dead
                    and placed.name not in w.stale):
                return w
        return None

    async def _primary_request(self, placed: _Placed, fwd: Dict):
        """Send a write to the acting primary, failing over on death.

        Retrying on the next replica is safe: a primary that died
        mid-request never had its result shipped to replicas or
        recorded in the ledger, so readers never observed it — the
        promoted replica applies the op exactly once onto the last
        published generation, and the dead worker's private state is
        discarded at catch-up.
        """
        for _ in range(max(1, len(placed.replicas))):
            primary = self._acting_primary(placed)
            if primary is None:
                break
            try:
                resp = await primary.control.request(fwd)
            except ServiceError:
                self.metrics.worker_errors += 1
                self.supervisor.notify_suspect(primary)
                continue
            if primary.worker_id != placed.replicas[0]:
                # served by a promoted replica, not the canonical primary
                self.supervisor.metrics.failovers += 1
            return primary, resp
        return None, {"ok": False,
                      "error": f"no live replica of {placed.name!r} can "
                               f"take writes",
                      "error_kind": "worker-disconnected"}

    def _current_replicas(self, placed: _Placed,
                          exclude: _Worker) -> List[_Worker]:
        """Fan-out targets: every *other* live, current replica.

        Down or already-stale replicas are skipped — the ledger records
        what they are missing and catch-up/resync replays it. A replica
        that is still in rotation but whose control link is dead cannot
        receive this mutation at all: it is marked stale *here*, before
        the mutation lands anywhere, so it can never serve reads of a
        state it silently missed.
        """
        out = []
        for wid in placed.replicas:
            w = self.workers.get(wid)
            if w is None or w is exclude:
                continue
            if not w.up or placed.name in w.stale:
                continue
            if w.control._dead:
                self._mark_stale(w, placed)
                continue
            out.append(w)
        return out

    def _mark_stale(self, w: _Worker, placed: _Placed) -> None:
        """A replica missed a mutation: freeze it out of this
        instance's reads until the supervisor re-aligns it from the
        ledger (snapshot re-adopt + patch-log replay)."""
        w.stale.add(placed.name)
        self.supervisor.schedule_resync(w, placed.name)

    async def update(self, req: Dict) -> Dict:
        """Forward a weight update to the acting primary, ship the
        result, and record it in the generation ledger.

        * ``rebuilt`` — the primary already published the new
          generation's digest-addressed snapshot; ship ``swap`` to the
          other live replicas and wait for every one to adopt it.
        * ``patched`` — fan the same (provably threshold-preserving)
          update out to the live replicas; each applies the two-cell
          patch. A replica that fails its ack is marked stale and
          resynced before it serves this instance again.
        * ``rejected`` — nothing to ship.
        """
        try:
            placed = self._placed(req.get("instance"))
        except ValidationError as exc:
            return {"ok": False, "error": str(exc)}
        fwd = {"op": "update", "instance": placed.name,
               "edge": req.get("edge", -1),
               "weight": req.get("weight", float("nan"))}
        async with placed.lock:  # one update in flight per instance
            self.metrics.updates += 1
            primary, resp = await self._primary_request(placed, fwd)
            if primary is None:
                return resp
            others = self._current_replicas(placed, exclude=primary)
            if resp.get("action") == "rebuilt":
                self.supervisor.ledger.record_publish(
                    placed.name, resp["snapshot_path"],
                    resp["snapshot_digest"], int(resp["generation"]))
                if others:
                    await self._ship_swap(placed, resp, others)
                placed.generation = int(resp["generation"])
            elif resp.get("action") == "patched":
                self.supervisor.ledger.record_patch(
                    placed.name, fwd["edge"], fwd["weight"])
                if others:
                    acks = await asyncio.gather(
                        *(w.control.request(fwd) for w in others),
                        return_exceptions=True)
                    self.metrics.patches_fanned += len(others)
                    for w, ack in zip(others, acks):
                        if not (isinstance(ack, dict)
                                and ack.get("action") == "patched"):
                            self.metrics.worker_errors += 1
                            self._mark_stale(w, placed)
        return resp

    async def _ship_swap(self, placed: _Placed, resp: Dict,
                         others: List[_Worker]) -> None:
        """Ship a primary rebuild's snapshot to the other replicas.

        The primary already published the digest-addressed file into
        the shared spool; replicas get ``(path, digest, generation)``
        and adopt by mmap — the rebuild itself never repeats.
        """
        swap = {"op": "swap", "instance": placed.name,
                "path": resp["snapshot_path"],
                "digest": resp["snapshot_digest"],
                "generation": resp["generation"]}
        t0 = time.perf_counter()
        acks = await asyncio.gather(
            *(w.control.request(swap) for w in others),
            return_exceptions=True)
        self.metrics.swap_latency.extend([time.perf_counter() - t0])
        self.metrics.swaps_shipped += len(others)
        resp["shipped_to"] = []
        for w, ack in zip(others, acks):
            ok = isinstance(ack, dict) and ack.get("ok")
            if not ok:
                self.metrics.worker_errors += 1
                self._mark_stale(w, placed)
            resp["shipped_to"].append(
                {"worker": w.worker_id, "ok": bool(ok)})

    async def update_batch(self, req: Dict) -> Dict:
        """Forward a structural batch to the primary, ship the swap.

        The streaming write path is primary-only, exactly like point
        updates: the primary's ingestor coalesces and rebuilds once
        (scoped when the batch is non-tree-only), publishes the new
        generation's snapshot, and the router ships ``(path, digest,
        generation)`` to the replicas — whose ``swap`` re-plans shards
        when the edge count changed. Routing facts (``m``, ``m_tree``,
        generation) refresh from the batch report so new edge ids
        route immediately.
        """
        try:
            placed = self._placed(req.get("instance"))
        except ValidationError as exc:
            return {"ok": False, "error": str(exc)}
        fwd = {"op": "update_batch", "instance": placed.name,
               "ops": req.get("ops") or []}
        async with placed.lock:  # one structural change in flight
            self.metrics.updates += 1
            primary, resp = await self._primary_request(placed, fwd)
            if primary is None:
                return resp
            if resp.get("action") == "rebuilt":
                self.supervisor.ledger.record_publish(
                    placed.name, resp["snapshot_path"],
                    resp["snapshot_digest"], int(resp["generation"]))
                others = self._current_replicas(placed, exclude=primary)
                if others:
                    await self._ship_swap(placed, resp, others)
                placed.generation = int(resp["generation"])
                placed.m = int(resp.get("m", placed.m))
                placed.m_tree = int(resp.get("m_tree", placed.m_tree))
        return resp

    # -- introspection ---------------------------------------------------------

    def describe_instances(self) -> Dict:
        return {
            name: {
                "n": p.n, "m": p.m, "m_tree": p.m_tree,
                "generation": p.generation,
                "replicas": list(p.replicas),
                "primary": p.replicas[0],
            }
            for name, p in self.instances.items()
        }

    async def router_metrics(self) -> Dict:
        """Router counters + a scrape of every worker's own metrics."""
        uptime = (time.perf_counter() - self.started_at
                  if self.started_at is not None else 0.0)
        per_worker = {}
        scrapes = await asyncio.gather(
            *(w.telemetry.request({"op": "metrics"})
              for w in self.workers.values()),
            return_exceptions=True)
        total_q = total_shed = 0
        for w, scrape in zip(self.workers.values(), scrapes):
            if isinstance(scrape, dict) and scrape.get("ok"):
                m = scrape["result"]
                total_q += m["queries"]
                total_shed += m["shed"]
                per_worker[str(w.worker_id)] = m
            else:
                per_worker[str(w.worker_id)] = {"error": str(scrape)}
        return {
            "uptime_s": round(uptime, 3),
            "queries": total_q,
            "qps": round(total_q / uptime, 1) if uptime else 0.0,
            "shed_workers": total_shed,
            "router": self.metrics.snapshot(),
            "wire": {proto: wm.snapshot()
                     for proto, wm in self.wire.items()},
            "supervisor": self.supervisor.metrics.snapshot(),
            "ledger": self.supervisor.ledger.snapshot(),
            "workers": per_worker,
        }

    # -- backpressure ----------------------------------------------------------

    def _start_poller(self, w: _Worker) -> None:
        if w.poller is not None and not w.poller.done():
            return
        w.poller = asyncio.get_running_loop().create_task(
            self._poll_depth(w))

    def _stop_poller(self, w: _Worker) -> None:
        if w.poller is not None:
            w.poller.cancel()
            w.poller = None

    async def _poll_depth(self, w: _Worker) -> None:
        """Telemetry loop: keep ``w.depth`` fresh for the shed check.

        A failed poll clears the last report — routing on a dead
        worker's stale depth would keep feeding it traffic. When the
        telemetry link itself is down the loop ends; the supervisor
        restarts it after healing or respawning the worker.

        It also ends once the tier stops or this task is no longer
        ``w.poller``: before Python 3.12, ``asyncio.wait_for`` in the
        request drops a cancel that races the reply.
        """
        me = asyncio.current_task()
        while not self._stopped and w.poller is me:
            try:
                resp = await w.telemetry.request(
                    {"op": "depth"}, timeout_s=5.0)
                if resp.get("ok"):
                    w.depth = resp["result"]
                    self.metrics.depth_polls += 1
            except (ServiceError, asyncio.TimeoutError):
                self.metrics.worker_errors += 1
                w.depth = {}
                if w.telemetry._dead:
                    return
                await asyncio.sleep(
                    max(0.2, self.config.depth_poll_s * 5))
            await asyncio.sleep(self.config.depth_poll_s)

    # -- dispatch --------------------------------------------------------------

    async def handle_request(self, req: Dict) -> Dict:
        """Parsed dispatch (in-process clients, tests, benchmarks)."""
        op = req.get("op")
        if op in QUERY_OPS:
            raw = await self._forward_query_raw(
                req, (json.dumps(req) + "\n").encode())
            return json.loads(raw)
        if op == "update":
            resp = await self.update(req)
        elif op == "update_batch":
            resp = await self.update_batch(req)
        elif op == "metrics":
            resp = {"ok": True, "result": await self.router_metrics()}
        elif op == "depth":
            resp = {"ok": True,
                    "result": {str(w.worker_id): w.depth
                               for w in self.workers.values()}}
        elif op == "instances":
            resp = {"ok": True, "result": self.describe_instances()}
        elif op == "ping":
            resp = {"ok": True, "result": "pong"}
        elif op == "hello":
            resp = await self.hello(req)
        elif op == "chaos":
            try:
                plan = ChaosPlan.parse(str(req.get("spec") or ""))
            except ValidationError as exc:
                resp = {"ok": False, "error": str(exc)}
            else:
                self.arm_chaos(plan)
                resp = {"ok": True, "result": {"events": len(plan)}}
        elif op == "shutdown":
            resp = {"ok": True, "result": "bye"}
        else:
            resp = {"ok": False, "error": f"unknown op {op!r}"}
        if "id" in req:
            resp["id"] = req["id"]
        return resp

    # -- TCP front door --------------------------------------------------------

    #: bytes pulled per read on a binary front-door connection
    READ_SIZE = 1 << 16

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        """Front door: first byte picks JSON-lines or binary relay."""
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
                self.wire["binary"].connections += 1
                await self._serve_binary_front(reader, writer, first)
            else:
                self.wire["json"].connections += 1
                await self._serve_jsonl_front(reader, writer, first)
        finally:
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _serve_jsonl_front(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter,
                                 first: bytes) -> None:
        """Pipelined, in-order front door (the service's discipline).

        Query ops take the raw relay path — the original request line is
        forwarded and the worker's response line is written back without
        re-serialisation; everything else goes through parsed dispatch.
        """
        wm = self.wire["json"]
        order: asyncio.Queue = asyncio.Queue(maxsize=self.PIPELINE_LIMIT)

        async def write_in_order() -> None:
            while True:
                item = await order.get()
                if item is None:
                    return
                fut, is_shutdown = item
                try:
                    resp = await fut
                except Exception as exc:  # noqa: BLE001
                    resp = {"ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
                if isinstance(resp, (bytes, bytearray)):
                    payload = resp
                else:
                    payload = wire.dumps_line(resp)
                    wm.json_encodes += 1
                wm.frames_out += 1
                wm.bytes_out += len(payload)
                writer.write(payload)
                await writer.drain()
                if is_shutdown:
                    self._shutdown.set()
                    return

        loop = asyncio.get_running_loop()
        wtask = loop.create_task(write_in_order())
        try:
            while not wtask.done():
                try:
                    line = first + await reader.readline()
                    first = b""
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                wm.frames_in += 1
                wm.bytes_in += len(line)
                try:
                    req = json.loads(line)
                    wm.json_decodes += 1
                    if not isinstance(req, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    fut: asyncio.Future = loop.create_future()
                    fut.set_result(
                        {"ok": False, "error": f"bad request: {exc}"})
                    await order.put((fut, False))
                    continue
                if req.get("op") in QUERY_OPS:
                    handling = loop.create_task(
                        self._forward_query_raw(req, line))
                else:
                    handling = loop.create_task(self.handle_request(req))
                await order.put((handling, req.get("op") == "shutdown"))
                if req.get("op") == "shutdown":
                    break
        finally:
            if not wtask.done():
                try:
                    order.put_nowait(None)
                except asyncio.QueueFull:
                    wtask.cancel()
            try:
                await wtask
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
            while not order.empty():
                item = order.get_nowait()
                if item is not None:
                    item[0].cancel()
                    try:
                        await item[0]
                    except (asyncio.CancelledError, Exception):  # noqa: BLE001
                        pass

    # -- binary front door: zero-parse relay -----------------------------------

    async def _serve_binary_front(self, reader: asyncio.StreamReader,
                                  writer: asyncio.StreamWriter,
                                  first: bytes) -> None:
        """Relay binary frames with **zero parse** on the read path.

        A run of point frames is split on instance-id boundaries — the
        iid sits at a fixed header offset, lifted by one vectorised
        column view, never a JSON parser — and each segment is spliced
        onto a replica's binary link as raw bytes. Shed, retry and
        failover decisions use the peeked header columns alone;
        synthesized status frames answer what cannot be forwarded.
        Control ops arrive as escape frames and take the parsed
        dispatch, exactly like the JSON door.
        """
        wm = self.wire["binary"]
        loop = asyncio.get_running_loop()
        order: asyncio.Queue = asyncio.Queue(maxsize=self.PIPELINE_LIMIT)

        async def write_in_order() -> None:
            while True:
                item = await order.get()
                if item is None:
                    return
                fut, is_shutdown = item
                try:
                    payload = await fut
                except Exception as exc:  # noqa: BLE001
                    wm.json_encodes += 1
                    payload = wire.encode_escape(
                        {"ok": False,
                         "error": f"{type(exc).__name__}: {exc}"})
                wm.bytes_out += len(payload)
                writer.write(payload)
                await writer.drain()
                if is_shutdown:
                    self._shutdown.set()
                    return

        wtask = loop.create_task(write_in_order())
        buf = bytearray(first)
        closing = False
        try:
            while not wtask.done() and not closing:
                try:
                    data = await reader.read(self.READ_SIZE)
                except (ConnectionError, OSError):
                    break
                if not data:
                    break
                buf += data
                while buf and not closing:
                    run = wire.point_run_length(buf)
                    if run:
                        payload = bytes(buf[:run * wire.POINT_LEN])
                        del buf[:run * wire.POINT_LEN]
                        wm.frames_in += run
                        wm.bytes_in += len(payload)
                        await order.put(
                            (loop.create_task(
                                self._relay_point_run(payload, wm)), False))
                        continue
                    length = wire.frame_length(buf)
                    if length is None or len(buf) < length:
                        break
                    frame = bytes(buf[:length])
                    del buf[:length]
                    wm.frames_in += 1
                    wm.bytes_in += length
                    if frame[1] == wire.ESCAPE:
                        wm.json_decodes += 1
                        req = wire.decode_escape(frame)
                        is_shutdown = req.get("op") == "shutdown"
                        await order.put(
                            (loop.create_task(
                                self._answer_escape(req, wm)), is_shutdown))
                        if is_shutdown:
                            closing = True
                    else:
                        # bulk frames are a worker-door format; the
                        # router relays point runs and control only
                        raise wire.WireError(
                            f"frame type 0x{frame[1]:02x} is not "
                            f"routable")
        except wire.WireError as exc:
            wm.json_encodes += 1
            fut: asyncio.Future = loop.create_future()
            fut.set_result(wire.encode_escape(
                {"ok": False, "error": f"wire protocol error: {exc}",
                 "error_kind": "protocol"}))
            try:
                order.put_nowait((fut, False))
            except asyncio.QueueFull:  # pragma: no cover - dead peer
                pass
        finally:
            if not wtask.done():
                try:
                    order.put_nowait(None)
                except asyncio.QueueFull:
                    wtask.cancel()
            try:
                await wtask
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
            while not order.empty():
                item = order.get_nowait()
                if item is not None:
                    item[0].cancel()
                    try:
                        await item[0]
                    except (asyncio.CancelledError, Exception):  # noqa: BLE001
                        pass

    async def _answer_escape(self, req: Dict, wm) -> bytes:
        """One control op off the binary door, parsed dispatch."""
        resp = await self.handle_request(req)
        wm.json_encodes += 1
        wm.frames_out += 1
        return wire.encode_escape(resp)

    @staticmethod
    def _synth_status(count: int, status: int, value: float = 0.0) -> bytes:
        """``count`` synthesized point-response frames (router-answered)."""
        resp = np.zeros(count, dtype=wire.RESP_DTYPE)
        resp["magic"] = wire.MAGIC
        resp["type"] = wire.RESP_BASE | status
        resp["value"] = value
        return resp.tobytes()

    async def _relay_point_run(self, payload: bytes, wm) -> bytes:
        """Answer one decoded run: split on iid boundaries, splice.

        Segments relay concurrently (each retries independently); the
        answer blocks concatenate back in request order, preserving the
        connection's FIFO contract.
        """
        iids = np.frombuffer(payload, dtype=wire.POINT_DTYPE)["iid"]
        # plain ints: segment counts feed the JSON-encoded metrics
        cuts = [0, *(np.flatnonzero(np.diff(iids)) + 1).tolist(), len(iids)]
        loop = asyncio.get_running_loop()
        parts = [
            loop.create_task(self._relay_segment(
                int(iids[lo]),
                payload[lo * wire.POINT_LEN:hi * wire.POINT_LEN],
                hi - lo))
            for lo, hi in zip(cuts, cuts[1:])
        ]
        out = b"".join([await p for p in parts])
        wm.frames_out += len(iids)
        return out

    async def _relay_segment(self, iid: int, seg: bytes,
                             count: int) -> bytes:
        """One single-instance slice of a run: the zero-parse analogue
        of :meth:`_forward_query_raw`, synthesizing status frames for
        everything the JSON path answers with router-built envelopes.
        """
        name = self.wire_symbols.name_of(iid)
        placed = self.instances.get(name) if name is not None else None
        if placed is None:
            return self._synth_status(count, wire.ST_UNKNOWN_INSTANCE)
        deadline = time.perf_counter() + self.config.read_retry_deadline_s
        while True:
            w = self._pick_worker(placed)
            if w is None:
                if self._any_routable(placed):
                    self.metrics.shed_router += count
                    return self._synth_status(
                        count, wire.ST_SHED_ROUTER,
                        value=float(len(placed.replicas)))
                if time.perf_counter() >= deadline:
                    return self._synth_status(
                        count, wire.ST_DISCONNECTED)
                await asyncio.sleep(0.05)  # a replica is recovering
                continue
            if w.chaos_delay_s > 0:
                await asyncio.sleep(w.chaos_delay_s)
            link = w.live_bin_link()
            if link is None:
                self.supervisor.notify_suspect(w)
                if time.perf_counter() >= deadline:
                    return self._synth_status(
                        count, wire.ST_DISCONNECTED, value=1.0)
                await asyncio.sleep(0.01)  # don't spin while it heals
                continue
            t0 = time.perf_counter()
            try:
                raw = await link.request_run(seg, count)
            except ServiceError:
                self.metrics.worker_errors += 1
                self.supervisor.metrics.read_retries += 1
                self.supervisor.notify_suspect(w)
                if time.perf_counter() >= deadline:
                    return self._synth_status(
                        count, wire.ST_DISCONNECTED, value=1.0)
                continue
            self.metrics.forwarded += count
            self._fwd_count += 1
            if self._fwd_count % 16 == 0:  # stride-sampled router-side rtt
                self.metrics.latency.extend([time.perf_counter() - t0])
            return raw
