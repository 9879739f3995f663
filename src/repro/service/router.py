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
  instances use the whole set), steering around a worker that is
  rebuilding, loading or patching a generation; writes always go to
  the primary.
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

Inside the fleet there is one data plane: every router↔worker hop is
a pipelined binary connection (:class:`BinaryWorkerLink`) with FIFO
correlation by byte count. Point queries relay as 16-byte frames —
binary runs are spliced as raw bytes, and a JSON query is packed into
a frame at the door and its answer rebuilt into the exact JSON
envelope — while control ops, telemetry and odd-shaped queries ride
JSON inside escape frames. JSON lines exist only at the client-facing
door (:class:`~repro.service.door.FrontDoor`).
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from collections import deque
from contextlib import contextmanager
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
from .door import FrontDoor
from .metrics import RouterMetrics
from .placement import Placement
from .supervision import STOP_DEADLINE_S, Supervisor
from .worker_proc import WorkerSpec, worker_entry

__all__ = ["RouterConfig", "RouterTier", "BinaryWorkerLink"]


@dataclass
class RouterConfig:
    """Deployment knobs for one router process and its worker fleet."""

    workers: int = 2                 #: worker processes to spawn
    replication: int = 2             #: replicas per instance (cap: workers)
    shards: int = 2                  #: edge-range shards per instance/worker
    max_batch: int = 512
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


class BinaryWorkerLink:
    """One pipelined binary connection to a worker, byte-counted.

    Every router↔worker exchange rides these links: query relays,
    control ops and telemetry. The worker answers in request order and
    answers a run of k point frames with exactly 16k bytes (errors
    included), so correlation is a deque of ``(nbytes, fut)`` entries
    and the read loop never inspects a payload — it only counts bytes.
    An escape frame (a JSON op) enqueues ``(None, fut)``: its answer's
    length comes from the 8-byte header alone. A lost connection fails
    every outstanding future with a structured
    :class:`~repro.errors.ServiceError` instead of leaking
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
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        """Always reading, so a closed connection is seen even while
        idle; each complete answer resolves the oldest request."""
        buf = bytearray()
        try:
            while data := await self._reader.read(1 << 16):
                buf += data
                while self._pending:
                    need, fut = self._pending[0]
                    if need is None:
                        need = wire.frame_length(buf)
                    if need is None or len(buf) < need:
                        break
                    chunk = bytes(buf[:need])
                    del buf[:need]
                    self._pending.popleft()
                    if not fut.done():
                        fut.set_result(chunk)
        except (ConnectionError, OSError, wire.WireError):
            pass
        finally:
            self._dead = True
            while self._pending:
                _need, fut = self._pending.popleft()
                if not fut.done():
                    fut.set_exception(ServiceError(
                        "worker connection lost with requests in flight",
                        kind="disconnected"))

    async def relay(self, payload: bytes, nframes: int = 0) -> bytes:
        """Send raw frames; await their raw answer — ``16 * nframes``
        bytes for a run of point frames, or (``nframes=0``) the one
        frame answering an escape frame. Pure byte splicing both ways."""
        if self._dead:
            raise ServiceError("worker link is down", kind="disconnected")
        fut = asyncio.get_running_loop().create_future()
        self._pending.append((nframes * wire.POINT_LEN or None, fut))
        self._writer.write(payload)
        try:
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise ServiceError(f"worker link write failed: {exc}",
                               kind="disconnected")
        return await fut

    async def request(self, req: Dict,
                      timeout_s: Optional[float] = None) -> Dict:
        """One JSON op as an escape frame (control, telemetry)."""
        coro = self.relay(wire.encode_escape(req))
        raw = (await coro if timeout_s is None
               else await asyncio.wait_for(coro, timeout_s))
        return wire.decode_escape(raw)

    async def close(self) -> None:
        """Stop reading, then close the socket. Each wait is bounded by
        :data:`STOP_DEADLINE_S`; a socket that cannot flush (a peer that
        stopped reading) is aborted instead of awaited."""
        self._task.cancel()
        await asyncio.wait({self._task}, timeout=STOP_DEADLINE_S)
        self._writer.close()
        try:
            await asyncio.wait_for(self._writer.wait_closed(),
                                   STOP_DEADLINE_S)
        except asyncio.TimeoutError:
            self._writer.transport.abort()
        except (ConnectionError, OSError):
            pass


async def _joined(proc, timeout_s: float) -> bool:
    """Join ``proc`` for at most ``timeout_s``; has it exited?"""
    await asyncio.get_running_loop().run_in_executor(None, proc.join,
                                                     timeout_s)
    return not proc.is_alive()


@dataclass
class _Worker:
    """Router-side handle to one spawned worker process."""

    worker_id: int
    proc: object
    boot: object                     #: boot pipe; its EOF stops the worker
    port: int
    query_links: List[BinaryWorkerLink]  #: relay links (round-robin)
    control: BinaryWorkerLink        #: adopt/swap/update/hello/shutdown
    telemetry: BinaryWorkerLink      #: depth polls, pings, metrics
    depth: Dict = field(default_factory=dict)
    query_rr: int = 0
    wire_version: int = 0            #: symbols dictated to this process
    up: bool = True                  #: in rotation (supervisor-managed)
    stale: set = field(default_factory=set)  #: instances pending resync
    generation_work: int = 0         #: generation requests in flight
    chaos_delay_s: float = 0.0       #: injected read latency (chaos)
    poller: Optional[asyncio.Task] = None

    def all_links(self):
        return (*self.query_links, self.control, self.telemetry)

    def live_query_link(self) -> Optional[BinaryWorkerLink]:
        """Next non-dead query link, or ``None`` when all are down."""
        for _ in range(len(self.query_links)):
            self.query_rr += 1
            link = self.query_links[self.query_rr % len(self.query_links)]
            if not link._dead:
                return link
        return None

    def routable(self, instance: str) -> bool:
        """May this worker serve reads of ``instance`` right now?"""
        return (self.up and instance not in self.stale
                and any(not link._dead for link in self.query_links))


@dataclass
class _Placed:
    """One routed instance: its replica set and routing facts."""

    name: str
    iid: int                         #: wire symbol id
    m: int
    n: int
    m_tree: int
    replicas: List[int]              #: worker ids, primary first
    generation: int = 0
    rr: int = 0
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class RouterTier(FrontDoor):
    """Front door + placement + snapshot shipping over worker processes."""

    def __init__(self, config: Optional[RouterConfig] = None):
        self.config = config or RouterConfig()
        if self.config.workers < 1:
            raise ValidationError("router needs at least one worker")
        self.placement = Placement()
        self.workers: Dict[int, _Worker] = {}
        self.instances: Dict[str, _Placed] = {}
        self.metrics = RouterMetrics()
        self.started_at: Optional[float] = None
        super().__init__()
        self.supervisor = Supervisor(self)
        #: router-owned symbol registry; its id order is dictated to
        #: every worker so relayed binary frames never rewrite iids
        self.wire_symbols = wire.WireSymbols()
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
        for wid, proc, boot in boots:
            try:
                port = await self._await_ready(wid, boot, deadline)
                worker = await self._connect_worker(wid, proc, boot, port)
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
            await self._open_door(self.config.host, self.config.port)

    def _launch_worker(self, wid: int):
        """Fork one worker process; returns its handle + boot pipe.

        Both ends of the pipe stay open for the worker's life: the
        worker stops when it reads EOF, so it dies with this router
        however the router ends. TCP links are not tied to it, so a
        severed link heals without stopping anything.
        """
        ctx = get_context()
        parent_conn, child_conn = ctx.Pipe()
        spec = WorkerSpec(
            worker_id=wid, host=self.config.worker_host,
            shards=self.config.shards, max_batch=self.config.max_batch,
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

    async def _await_ready(self, wid: int, boot, deadline: float) -> int:
        """Wait for one worker's ``("ready", wid, port)`` handshake."""
        loop = asyncio.get_running_loop()
        try:
            budget = max(0.1, deadline - time.perf_counter())
            msg = await asyncio.wait_for(
                loop.run_in_executor(None, boot.recv), budget)
        except (asyncio.TimeoutError, EOFError, OSError):
            boot.close()
            raise ServiceError(
                f"worker {wid} failed its boot handshake within "
                f"{self.config.spawn_timeout_s:.0f}s",
                kind="disconnected")
        assert msg[0] == "ready" and msg[1] == wid
        return int(msg[2])

    async def _connect_worker(self, wid: int, proc, boot,
                              port: int) -> _Worker:
        # every dial's hello dictates the router's global symbol order
        # to this (possibly fresh) process, so relayed frame iids mean
        # the same instance on both sides of the splice
        host = self.config.worker_host
        names = self.wire_symbols.names()
        links = [await BinaryWorkerLink.connect(host, port, names)
                 for _ in range(max(1, self.config.query_links) + 2)]
        return _Worker(worker_id=wid, proc=proc, boot=boot, port=port,
                       query_links=links[2:], control=links[0],
                       telemetry=links[1], wire_version=len(names))

    async def _respawn_worker(self, w: _Worker) -> None:
        """Boot a fresh process for a dead worker, reusing its identity.

        The new process keeps the worker id, spool directory, and
        artifact cache of the old one; its serving state is rebuilt by
        the supervisor's ledger catch-up before it re-enters rotation.
        """
        proc, boot = self._launch_worker(w.worker_id)
        deadline = time.perf_counter() + self.config.spawn_timeout_s
        try:
            port = await self._await_ready(w.worker_id, boot, deadline)
            fresh = await self._connect_worker(w.worker_id, proc, boot, port)
        except BaseException:
            # a failed boot, or a stop() cancelling the respawn: the new
            # process is nobody's yet, so it must not outlive this call
            boot.close()
            if proc.is_alive():
                proc.terminate()
            raise
        w.boot.close()
        w.proc, w.boot, w.port = fresh.proc, fresh.boot, fresh.port
        w.query_links, w.control = fresh.query_links, fresh.control
        w.telemetry = fresh.telemetry
        w.wire_version = fresh.wire_version
        w.query_rr = 0
        w.depth = {}
        w.chaos_delay_s = 0.0

    async def _kill_boots(self, boots) -> None:
        for _wid, proc, boot in boots:
            boot.close()
            if proc.is_alive():
                proc.terminate()

    def arm_chaos(self, plan: ChaosPlan) -> ChaosInjector:
        """Start executing a fault-injection plan against the fleet."""
        injector = ChaosInjector(plan)
        injector.start(self)
        self._injectors.append(injector)
        return injector

    async def stop(self) -> Dict:
        """Shut the whole tree down: door, pollers, workers, spool.

        Returns ``{"missed_deadline": [...]}``: background tasks still
        running ``STOP_DEADLINE_S`` after their cancel, and workers that
        had to be terminated or killed (``worker:<id>``).
        """
        if self._stopped:
            return {"missed_deadline": []}
        self._stopped = True
        missed = [f"chaos:{k}" for k, injector in enumerate(self._injectors)
                  if not await injector.stop()]
        missed += await self.supervisor.stop()
        await self._close_door()
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
        for late in await asyncio.gather(
                *(self._stop_worker(w) for w in self.workers.values())):
            missed += late
        if self._own_spool is not None:
            self._own_spool.cleanup()
            self._own_spool = None
        self._shutdown.set()
        return {"missed_deadline": missed}

    async def _stop_worker(self, w: _Worker) -> List[str]:
        """Ask one worker to exit; terminate it, then kill it, if it does
        not. Every wait is bounded by :data:`STOP_DEADLINE_S` — the join
        after the request by twice that, so the worker's own bounded
        stop fits — so a wedged or stopped process cannot hold the
        router's stop. Returns ``["worker:<id>"]`` if it was not joined
        in time."""
        try:
            await w.control.request({"op": "shutdown"},
                                    timeout_s=STOP_DEADLINE_S)
        except (ServiceError, asyncio.TimeoutError):
            pass
        await asyncio.gather(*(link.close() for link in w.all_links()))
        late = []
        if not await _joined(w.proc, 2 * STOP_DEADLINE_S):
            late.append(f"worker:{w.worker_id}")
            w.proc.terminate()
            if not await _joined(w.proc, STOP_DEADLINE_S):
                w.proc.kill()  # SIGTERM stays pending on a stopped process
                await _joined(w.proc, STOP_DEADLINE_S)
        w.boot.close()
        return late

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
        iid = self.wire_symbols.intern(name)
        await self._sync_all_symbols()  # before any frame can carry the iid
        self.instances[name] = _Placed(
            name=name, iid=iid, m=graph.m, n=graph.n, m_tree=graph.m_tree,
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

        The hello rides the control link as an escape frame — it works
        even while query links are being healed — and lists every name
        in global id order, so the worker's append-only table ends
        positionally identical to the router's.
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
        and stale workers, and steering around generation work.

        A worker whose query links are down, that the supervisor took
        out of rotation, or that is stale for this instance is never a
        candidate — its last depth report is meaningless. Among the
        rest, the first in round-robin order with no generation work in
        flight wins; only when every candidate has some does the first
        of them take the read, as if nothing were marked. Returns
        ``None`` when no replica can take the read.

        A rebuild, swap or patch queues reads behind it in its worker,
        so steering takes that wait off the read path. While the idle
        worker is unsaturated it also keeps one reader's generations in
        order across a write: the old replica answers while the primary
        rebuilds, the swapped primary while the replica adopts. If the
        idle worker is saturated the read falls back to the busy one,
        which during a swap still serves the older generation.
        """
        n = len(placed.replicas)
        pick = busy = None
        for k in range(1, n + 1):
            w = self.workers.get(placed.replicas[(placed.rr + k) % n])
            if w is None or not w.routable(placed.name):
                continue
            info = w.depth.get(placed.name)
            if info is not None and \
                    info.get("fraction", 0.0) >= self.config.shed_watermark:
                continue
            if w.generation_work:
                busy = busy or (k, w)
                continue
            if busy is not None:
                self.metrics.reads_steered += 1
            pick = (k, w)
            break
        pick = pick or busy
        if pick is None:
            return None
        k, w = pick
        placed.rr += k
        if w.worker_id != placed.replicas[0]:
            self.metrics.replica_hits += 1
        return w

    @staticmethod
    @contextmanager
    def _generation_work(*workers: _Worker):
        """Mark ``workers`` for the length of a control request that
        rebuilds, loads or patches a generation; reads steer around them
        (:meth:`_pick_worker`).

        The mark is raised before the block's first await, so a write's
        fan-out marks its replicas in the same event-loop step that
        unmarks the primary, and lowered in ``finally``, so an error or
        a cancellation cannot leave a worker marked."""
        for w in workers:
            w.generation_work += 1
        try:
            yield
        finally:
            for w in workers:
                w.generation_work -= 1

    def _any_routable(self, placed: _Placed) -> bool:
        return any(
            (w := self.workers.get(wid)) is not None
            and w.routable(placed.name)
            for wid in placed.replicas)

    async def _query(self, req: Dict) -> Dict:
        """One parsed point query, relayed to a replica as a frame.

        A query that fits a 16-byte point frame
        (:func:`~repro.service.wire.fits_point_frame`) is packed and
        relayed like a binary run, and its answer is rebuilt into the
        exact JSON envelope. Any other shape rides an escape frame over
        the same pick, retry and shed loop, so the worker's own
        dispatch writes the envelope.
        """
        try:
            placed = self._placed(req.get("instance"))
        except ValidationError as exc:
            return {"ok": False, "error": str(exc)}
        op, edge, weight = req["op"], req.get("edge"), req.get("weight")
        if wire.fits_point_frame(op, placed.iid, edge, weight):
            raw = await self._relay_segment(
                placed, wire.encode_point(op, placed.iid, edge, weight), 1)
        else:
            raw = await self._relay_segment(
                placed, wire.encode_escape({**req, "instance": placed.name}),
                0)
            if raw[1] == wire.ESCAPE:
                return wire.decode_escape(raw)
        return wire.point_response_to_dict(
            op, edge, wire.decode_point_response(raw), placed.name)

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
                with self._generation_work(primary):
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
                    with self._generation_work(*others):
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
        with self._generation_work(*others):
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
            "generation_work": {str(w.worker_id): w.generation_work
                                for w in self.workers.values()},
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
        """Parsed dispatch: JSON lines, escape frames, in-process calls."""
        op = req.get("op")
        if op in QUERY_OPS:
            resp = await self._query(req)
        elif op == "update":
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

    # -- binary door: zero-parse relay -------------------------------------------

    @staticmethod
    def _synth_status(count: int, status: int, value: float = 0.0) -> bytes:
        """``count`` synthesized point-response frames (router-answered)."""
        resp = np.zeros(count, dtype=wire.RESP_DTYPE)
        resp["magic"] = wire.MAGIC
        resp["type"] = wire.RESP_BASE | status
        resp["value"] = value
        return resp.tobytes()

    async def _answer_points(self, payload: bytes) -> bytes:
        """Relay a run of point frames with **zero parse**.

        The run splits on instance-id boundaries — the iid sits at a
        fixed header offset, lifted by one vectorised column view,
        never a JSON parser — and each segment is spliced onto a
        replica's link as raw bytes. Segments relay concurrently (each
        retries independently); the answer blocks concatenate back in
        request order, preserving the connection's FIFO contract.
        """
        iids = np.frombuffer(payload, dtype=wire.POINT_DTYPE)["iid"]
        # plain ints: segment counts feed the JSON-encoded metrics
        cuts = [0, *(np.flatnonzero(np.diff(iids)) + 1).tolist(), len(iids)]
        loop = asyncio.get_running_loop()
        parts = [
            loop.create_task(self._relay_segment(
                self.instances.get(self.wire_symbols.name_of(int(iids[lo]))),
                payload[lo * wire.POINT_LEN:hi * wire.POINT_LEN],
                hi - lo))
            for lo, hi in zip(cuts, cuts[1:])
        ]
        out = b"".join([await p for p in parts])
        self.wire["binary"].frames_out += len(iids)
        return out

    async def _relay_segment(self, placed: Optional[_Placed], seg: bytes,
                             count: int) -> bytes:
        """Relay ``count`` point frames of one instance — or, with
        ``count=0``, one escape-framed query — to a live replica.

        Reads are pure, so a mid-request disconnect is safe to retry:
        the segment is re-sent to the next live replica until it
        answers or ``read_retry_deadline_s`` runs out. The deadline also
        covers the no-replica window of a replication-1 instance whose
        only worker is mid-respawn. Saturation still sheds immediately —
        retrying onto an overloaded fleet would only queue deeper.
        Whatever cannot be forwarded is answered with synthesized status
        frames, which decode to the router's own envelopes.
        """
        frames = count or 1
        if placed is None:
            return self._synth_status(frames, wire.ST_UNKNOWN_INSTANCE)
        deadline = time.perf_counter() + self.config.read_retry_deadline_s
        while True:
            w = self._pick_worker(placed)
            if w is None:
                if self._any_routable(placed):
                    self.metrics.shed_router += frames
                    return self._synth_status(
                        frames, wire.ST_SHED_ROUTER,
                        value=float(len(placed.replicas)))
                if time.perf_counter() >= deadline:
                    return self._synth_status(
                        frames, wire.ST_DISCONNECTED)
                await asyncio.sleep(0.05)  # a replica is recovering
                continue
            if w.chaos_delay_s > 0:
                await asyncio.sleep(w.chaos_delay_s)
            link = w.live_query_link()
            if link is None:
                self.supervisor.notify_suspect(w)
                if time.perf_counter() >= deadline:
                    return self._synth_status(
                        frames, wire.ST_DISCONNECTED, value=1.0)
                await asyncio.sleep(0.01)  # don't spin while it heals
                continue
            t0 = time.perf_counter()
            try:
                raw = await link.relay(seg, count)
            except ServiceError:
                self.metrics.worker_errors += 1
                self.supervisor.metrics.read_retries += 1
                self.supervisor.notify_suspect(w)
                if time.perf_counter() >= deadline:
                    return self._synth_status(
                        frames, wire.ST_DISCONNECTED, value=1.0)
                continue
            self.metrics.forwarded += frames
            self._fwd_count += 1
            if self._fwd_count % 16 == 0:  # stride-sampled router-side rtt
                self.metrics.latency.extend([time.perf_counter() - t0])
            return raw
