"""Load generator for the sensitivity query service.

Drives a query mix (survives / sensitivity / replacement_edge /
entry_threshold) from many concurrent connections and reports
throughput, shed rate and latency percentiles.

* ``run_tcp(host, port, ...)`` — the query storm over ``clients`` real
  connections (the CI smoke steps), with connect retries so it can be
  started alongside the server. Every connection runs the same
  pipelined chunk loop: write ``pipeline`` requests, then read their
  answers back — the server answers a connection in request order, so
  answers correlate positionally (no request ids) — and tally them by
  wire status. The protocol is only an encoder and a status reader:
  ``wire_mode="json"`` joins each chunk's JSON lines and classifies
  each answer with :func:`~repro.service.wire.response_to_status`;
  ``wire_mode="binary"`` negotiates symbols with a ``hello`` on every
  connection, packs the whole plan into 16-byte point frames once and
  reads each chunk's statuses off the response frames' low nibble. A
  connection that fails counts its chunk as errors and stops; the
  others drain the plan.
* ``run_inprocess(service, ...)`` — submits the plan straight to an
  in-process service's shard batchers, ``pipeline`` queries in flight
  per client (the E13 benchmark and tests).

Driver-side encode time (the JSON join or the frame packing) is
measured separately from the round trips and reported as ``encode_s``
— it is loadgen CPU, not server latency, and the latency percentiles
exclude it.

Every one-request exchange — the instances handshake, ``shutdown``,
``--live-update``, ``--churn``, ``--chaos`` and the recovery poll —
goes through :class:`~repro.service.server.ServiceClient` over JSON
lines, whatever ``--wire`` the storm uses. The handshake asks again
until the server reports an instance, since a router starts listening
before it has added its instances.

One driver process saturates around one core; the ``--procs N`` mode
forks N whole loadgen processes (same explicit multiprocessing context
as the compute pool), each driving its own seeded share of the plan
(the shares sum to ``--queries``), and merges the :class:`LoadStats`
each sends up its pipe — the client-side mirror of the router's worker
fleet.

``--live-update`` exercises the zero-downtime path while the storm is
running: a side connection probes tree edges until one update reports
``action == "rebuilt"`` (bridges report ``patched`` and are skipped),
which on a router deployment forces a digest-shipped generation swap
under load. The run fails if any query fails around the swap.

``--churn RATE`` streams *structural* batches (wire op
``update_batch``: add / reprice / remove cycles of heavy non-tree
edges) at RATE batches per second on a side connection while the query
storm runs — every applied batch is a generation swap under load, and
the run fails unless at least two swaps landed with zero errors.

``--chaos SPEC`` arms a deterministic fault-injection plan on the
router (wire op ``chaos``, grammar in :mod:`repro.service.chaos`)
right after the instances handshake, so the storm runs over scheduled
worker kills / severed links / delays. ``--expect-respawns N`` then
polls the router's supervisor metrics after the storm until at least
``N`` restarts have completed and no worker is still mid-recovery —
the run fails if recovery does not land within ``--recovery-timeout``.
Together they are the CI chaos-smoke: kill a worker mid-storm, demand
zero failed reads and a finished respawn.

CLI (used by CI)::

    python -m repro.service.loadgen --port 7464 --queries 3000 \
        --clients 16 --shutdown
    python -m repro.service.loadgen --port 7464 --queries 3000 \
        --clients 4 --pipeline 64 --wire binary --shutdown
    python -m repro.service.loadgen --port 7465 --queries 5000 \
        --procs 2 --pipeline 32 --live-update --shutdown
    python -m repro.service.loadgen --port 7465 --queries 5000 \
        --churn 20 --churn-batch 8 --shutdown
    python -m repro.service.loadgen --port 7465 --queries 8000 \
        --chaos kill:1@0.5 --expect-respawns 1 --shutdown

Exit status is non-zero when nothing was served or any transport-level
error occurred (wrong-edge-kind responses are the service answering
correctly and are tallied separately).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ServiceError
from . import wire
from .server import ServiceClient

__all__ = ["QueryPlan", "make_plan", "run_inprocess", "run_tcp",
           "run_procs", "live_update", "churn_storm", "arm_chaos",
           "await_recovery", "main"]

#: op → relative frequency in the default mix.
DEFAULT_MIX = (
    ("survives", 0.55),
    ("sensitivity", 0.25),
    ("replacement_edge", 0.10),
    ("entry_threshold", 0.10),
)


class QueryPlan:
    """A deterministic pre-drawn query stream over named instances."""

    def __init__(self, ops: List[str], instances: List[str],
                 edges: np.ndarray, weights: np.ndarray):
        self.ops = ops
        self.instances = instances
        self.edges = edges
        self.weights = weights

    def __len__(self) -> int:
        return len(self.ops)

    def request(self, i: int) -> Dict:
        req = {"op": self.ops[i], "instance": self.instances[i],
               "edge": int(self.edges[i])}
        if self.ops[i] == "survives":
            req["weight"] = float(self.weights[i])
        return req


def make_plan(instances: Dict[str, int], total: int,
              mix: Sequence[Tuple[str, float]] = DEFAULT_MIX,
              seed: int = 0) -> QueryPlan:
    """Draw ``total`` queries over ``{instance name: edge count}``.

    Weights for ``survives`` scatter in ``[0, 2]`` — with the
    unit-interval weight distributions of the generators both outcomes
    are exercised.
    """
    rng = np.random.default_rng(seed)
    names = sorted(instances)
    ops_pool = [op for op, _ in mix]
    probs = np.array([p for _, p in mix], dtype=np.float64)
    probs /= probs.sum()
    ops = [ops_pool[i] for i in rng.choice(len(ops_pool), size=total, p=probs)]
    who = [names[i] for i in rng.integers(0, len(names), size=total)]
    edges = np.array([rng.integers(0, instances[w]) for w in who],
                     dtype=np.int64)
    weights = rng.uniform(0.0, 2.0, size=total)
    return QueryPlan(ops=ops, instances=who, edges=edges, weights=weights)


class LoadStats:
    """What one load run observed."""

    def __init__(self):
        self.sent = 0
        self.answered = 0
        self.shed = 0
        self.type_errors = 0
        self.errors = 0
        self.wall_s = 0.0
        self.encode_s = 0.0   # driver-side encode CPU, outside the RTT clock
        self.latencies: List[float] = []

    @property
    def qps(self) -> float:
        return self.answered / self.wall_s if self.wall_s > 0 else 0.0

    def tally(self, statuses: np.ndarray,
              per_query_s: Optional[float] = None) -> None:
        """Count one chunk of answers by wire status.

        A type error is the service correctly refusing the op's edge
        kind, so it counts as answered. ``per_query_s`` (the chunk's
        round trip over its size) is recorded once per answered query.
        """
        n = len(statuses)
        ok = int(np.count_nonzero(statuses == wire.ST_OK))
        typed = int(np.count_nonzero(statuses == wire.ST_TYPE))
        shed = int(np.count_nonzero((statuses == wire.ST_SHED)
                                    | (statuses == wire.ST_SHED_ROUTER)))
        self.sent += n
        self.answered += ok + typed
        self.type_errors += typed
        self.shed += shed
        self.errors += n - ok - typed - shed
        if per_query_s is not None:
            self.latencies.extend([per_query_s] * (ok + typed))

    def summary(self) -> Dict:
        lats = np.asarray(self.latencies, dtype=np.float64)
        return {
            "sent": self.sent,
            "answered": self.answered,
            "shed": self.shed,
            "type_errors": self.type_errors,
            "errors": self.errors,
            "wall_s": round(self.wall_s, 4),
            "encode_s": round(self.encode_s, 4),
            "qps": round(self.qps, 1),
            "p50_ms": round(float(np.percentile(lats, 50)) * 1e3, 3)
            if len(lats) else None,
            "p99_ms": round(float(np.percentile(lats, 99)) * 1e3, 3)
            if len(lats) else None,
        }

    @classmethod
    def merge(cls, parts: Sequence["LoadStats"]) -> "LoadStats":
        """Fold concurrent runs into one: counters sum, walls overlap.

        The parts ran side by side, so the merged wall is the longest
        part (aggregate qps = total answered / overlapped wall), and
        the latency pools concatenate — the same percentile-of-pooled
        rule as :func:`~repro.service.metrics.merged_latency`.
        """
        out = cls()
        for s in parts:
            out.sent += s.sent
            out.answered += s.answered
            out.shed += s.shed
            out.type_errors += s.type_errors
            out.errors += s.errors
            out.wall_s = max(out.wall_s, s.wall_s)
            out.encode_s += s.encode_s  # CPU time: sums across drivers
            out.latencies.extend(s.latencies)
        return out


async def run_inprocess(service, plan: QueryPlan, clients: int = 64,
                        pipeline: int = 1) -> LoadStats:
    """Drive an in-process service with concurrent client coroutines.

    Each client keeps ``pipeline`` point queries in flight through the
    shard batchers' ``submit`` — the multiplexed-client mode the E13
    benchmark uses. Latency percentiles live in the *service* metrics
    (per-query submit→dispatch time); the loadgen-side reservoir stays
    empty.
    """
    from .batching import ServiceOverloaded

    stats = LoadStats()
    counter = {"next": 0}
    total = len(plan)
    chunk_n = max(1, pipeline)
    ops, edges, weights, who = (plan.ops, plan.edges, plan.weights,
                                plan.instances)

    t0 = time.perf_counter()
    # client-side routing table, resolved vectorised up front (the
    # cluster-client pattern: shard boundaries are static per
    # generation, so per-query routing is one array lookup)
    target = np.empty(total, dtype=object)
    who_arr = np.array(who)
    for name in set(who):
        inst = service.instances[name]
        bounds = np.array([s.edge_lo for s in inst.specs[1:]],
                          dtype=np.int64)
        mask = who_arr == name
        shard_of = np.searchsorted(bounds, edges[mask], side="right")
        batchers = inst.batchers
        target[mask] = [batchers[s] for s in shard_of]

    async def worker() -> None:
        while (i0 := counter["next"]) < total:
            i1 = min(i0 + chunk_n, total)
            counter["next"] = i1
            statuses, futs = [], []
            for i in range(i0, i1):
                op = ops[i]
                w = float(weights[i]) if op == "survives" else None
                try:
                    futs.append(target[i].submit(op, edges[i], w))
                except ServiceOverloaded:
                    statuses.append(wire.ST_SHED)
            for fut in futs:
                if not fut.done():
                    await fut
                _gen, ok, _value, kind = fut.result()
                statuses.append(wire.ST_OK if ok else
                                wire.KIND_TO_STATUS.get(kind, wire.ST_ERROR))
            stats.tally(np.array(statuses, dtype=np.uint8))

    await asyncio.gather(*(worker() for _ in range(max(1, clients))))
    stats.wall_s = time.perf_counter() - t0
    return stats


async def _retrying(connect, deadline: float):
    """``await connect()``, retried every 0.2 s until ``deadline`` while
    the server is still booting."""
    while True:
        try:
            return await connect()
        except (OSError, ServiceError):
            if time.perf_counter() >= deadline:
                raise
            await asyncio.sleep(0.2)


async def run_tcp(host: str, port: int, plan: QueryPlan, clients: int = 16,
                  connect_timeout_s: float = 15.0,
                  shutdown: bool = False, pipeline: int = 1,
                  wire_mode: str = "json") -> LoadStats:
    """Drive a remote service over ``clients`` real connections.

    Each connection writes ``pipeline`` requests, then reads their
    answers. The service (and router) answer a connection strictly in
    request order, so the k-th answer belongs to the k-th request of
    the chunk — deep pipelining with positional correlation, which is
    also what lets the server's micro-batcher see whole chunks instead
    of one query per RTT. Per-query latency is chunk-granular:
    percentiles are over chunk round trips divided by chunk size (mean
    in-chunk), not individual RTTs. The RTT clock starts after the
    chunk's payload is built and stops before its answers are decoded,
    so the percentiles are server + network time, not driver CPU.

    ``wire_mode`` picks only the encoder and the status reader: JSON
    lines joined per chunk, or 16-byte point frames packed for the
    whole plan once every connection has negotiated its ``hello``. Both
    encodes are timed into ``encode_s``.
    """
    if wire_mode not in ("json", "binary"):
        raise ValueError(f"unknown wire_mode {wire_mode!r}")
    deadline = time.perf_counter() + connect_timeout_s
    conns: List = []
    stats = LoadStats()
    try:
        for _ in range(max(1, clients)):
            conns.append(await _retrying(
                lambda: asyncio.open_connection(host, port), deadline))
        if wire_mode == "binary":
            for reader, writer in conns:  # every conn flips to binary
                symbols = await wire.hello(reader, writer)
            t_enc = time.perf_counter()
            frames = wire.encode_point_requests(
                np.array([wire.OP_CODE[op] for op in plan.ops],
                         dtype=np.uint8),
                np.array([symbols[w] for w in plan.instances],
                         dtype=np.uint16),
                plan.edges.astype(np.uint32), plan.weights)
            stats.encode_s += time.perf_counter() - t_enc

            def encode(i0: int, i1: int) -> bytes:
                return frames[i0 * wire.POINT_LEN:i1 * wire.POINT_LEN]

            async def read(reader, n: int) -> bytes:
                return await reader.readexactly(n * wire.POINT_LEN)

            def statuses(raw: bytes) -> np.ndarray:
                return np.frombuffer(raw, dtype=wire.RESP_DTYPE)["type"] & 0x0F
        else:
            def encode(i0: int, i1: int) -> bytes:
                return wire.join_lines(plan.request(i) for i in range(i0, i1))

            async def read(reader, n: int) -> List[bytes]:
                lines = [await reader.readline() for _ in range(n)]
                if not lines[-1]:  # EOF: every later readline is empty
                    raise ConnectionError("connection closed mid-chunk")
                return lines

            def statuses(raw: List[bytes]) -> np.ndarray:
                return np.array([wire.response_to_status(json.loads(line))
                                 for line in raw], dtype=np.uint8)

        counter = {"next": 0}
        total, chunk_n = len(plan), max(1, pipeline)

        async def drive(reader, writer) -> None:
            while (i0 := counter["next"]) < total:
                i1 = min(i0 + chunk_n, total)
                counter["next"] = i1
                t_enc = time.perf_counter()
                payload = encode(i0, i1)
                t0 = time.perf_counter()
                stats.encode_s += t0 - t_enc
                try:
                    writer.write(payload)
                    await writer.drain()
                    raw = await read(reader, i1 - i0)
                except (asyncio.IncompleteReadError, ConnectionError,
                        OSError):
                    # this connection is dead: its chunk failed, and the
                    # other connections drain the rest of the plan
                    stats.tally(np.full(i1 - i0, wire.ST_DISCONNECTED,
                                        dtype=np.uint8))
                    return
                per_query = (time.perf_counter() - t0) / (i1 - i0)
                stats.tally(statuses(raw), per_query)

        t0 = time.perf_counter()
        await asyncio.gather(*(drive(r, w) for r, w in conns))
        stats.wall_s = time.perf_counter() - t0
    finally:
        for _, writer in conns:
            writer.close()
    if shutdown:
        await _oneshot(host, port, "shutdown")
    return stats


async def live_update(host: str, port: int, instance: str, m_tree: int,
                      delay_s: float = 0.0, max_probes: int = 24) -> Dict:
    """Force one structure-changing update against a live deployment.

    Probes tree edges (they sort first in every generator layout) with
    a small weight drop — lowering a tree edge always survives — until
    the service reports ``action == "rebuilt"``: on a router that is
    the rebuild-once-on-primary, digest-ship-to-replicas path. Bridge
    edges report ``patched`` (nothing covers them) and are skipped.
    """
    if delay_s > 0:
        await asyncio.sleep(delay_s)
    client = await ServiceClient.connect(host, port)
    report: Dict = {"ok": False, "action": None, "probes": 0}
    try:
        for edge in range(min(max_probes, m_tree)):
            try:
                resp = await client.update(edge, 1e-6 * (edge + 1),
                                           instance=instance)
            except ServiceError as exc:
                report["error"] = str(exc)
                return report
            report["probes"] += 1
            if resp.get("action") == "rebuilt":
                report.update(
                    ok=True, action="rebuilt", edge=edge,
                    generation=resp.get("generation"),
                    shipped_to=resp.get("shipped_to"),
                    snapshot_digest=(resp.get("snapshot_digest") or "")[:16],
                )
                return report
        report["error"] = (f"no rebuild-forcing edge in the first "
                           f"{report['probes']} tree edges")
        return report
    finally:
        await client.close()


async def churn_storm(host: str, port: int, instance: str, n: int, m: int,
                      rate: float, batch: int,
                      stop_evt: asyncio.Event) -> Dict:
    """Stream structural batches (``update_batch``) while the storm runs.

    Cycles add → reprice → remove over its own connection at ``rate``
    batches per second until ``stop_evt`` is set. Added edges carry
    weights far above the instance's tree weights, so they join as
    non-tree edges and every batch takes the scoped splice path on the
    primary — each applied batch is still a full generation swap
    (digest-shipped to replicas on a router deployment). Edge ids are
    tracked from the reports' authoritative ``m``, so the generator
    never races its own id predictions. Sheds are tallied and retried;
    anything else non-ok is an error.
    """
    client = await ServiceClient.connect(host, port)
    stats: Dict = {"batches_sent": 0, "applied": 0, "shed": 0,
                   "rejected": 0, "errors": 0, "scoped": 0,
                   "generations": set(), "last_error": None}
    heavy = 1e9   # above any generator weight: stays non-tree forever
    phase = 0     # 0 = add, 1 = reprice, 2 = remove
    added: List[int] = []
    period = 1.0 / rate if rate > 0 else 0.0
    try:
        while not stop_evt.is_set():
            if phase == 0:
                ops = []
                for j in range(batch):
                    u = j % n
                    v = (j * 7 + 1) % n
                    if v == u:
                        v = (v + 1) % n
                    ops.append({"kind": "add", "u": u, "v": v,
                                "weight": heavy + j})
            elif phase == 1:
                ops = [{"kind": "reprice", "edge": e,
                        "weight": heavy + 100 + k}
                       for k, e in enumerate(added)]
            else:
                ops = [{"kind": "remove", "edge": e} for e in added]
            if not ops:                     # nothing to touch this phase
                phase = (phase + 1) % 3
                continue
            try:
                resp = await client.update_batch(ops, instance=instance)
            except ServiceError as exc:
                stats["errors"] += 1
                stats["last_error"] = str(exc)
                break
            stats["batches_sent"] += 1
            if resp.get("shed"):
                stats["shed"] += 1          # back off, retry this phase
            elif resp.get("ok"):
                stats["applied"] += 1
                stats["generations"].add(resp.get("generation"))
                if resp.get("scoped"):
                    stats["scoped"] += 1
                if phase == 0:
                    added = list(range(int(resp["m"]) - batch,
                                       int(resp["m"])))
                elif phase == 2:
                    added = []
                phase = (phase + 1) % 3
            elif resp.get("action") == "rejected":
                stats["rejected"] += 1      # structural no: skip the phase
                phase = (phase + 1) % 3
            else:
                stats["errors"] += 1
                stats["last_error"] = resp.get("error")
            try:
                await asyncio.wait_for(stop_evt.wait(), max(period, 1e-3))
            except asyncio.TimeoutError:
                pass
    finally:
        await client.close()
    stats["generations"] = sorted(
        g for g in stats["generations"] if g is not None)
    return stats


async def _oneshot(host: str, port: int, op: str, timeout_s: float = 10.0,
                   **kw) -> Dict:
    """One request over a throwaway client; a failure is an error dict."""
    client = None
    try:
        client = await ServiceClient.connect(host, port,
                                             connect_timeout_s=timeout_s)
        return await asyncio.wait_for(client.call(op, **kw), timeout_s)
    except (ServiceError, asyncio.TimeoutError) as exc:
        return {"ok": False, "error": f"{op}: {type(exc).__name__}: {exc}"}
    finally:
        if client is not None:
            await client.close()


async def arm_chaos(host: str, port: int, spec: str) -> Dict:
    """Arm a fault-injection plan on a running router (``chaos`` op)."""
    return await _oneshot(host, port, "chaos", spec=spec)


async def await_recovery(host: str, port: int, respawns: int,
                         timeout_s: float = 30.0,
                         poll_s: float = 0.25) -> Dict:
    """Poll supervisor metrics until ``respawns`` restarts completed.

    Returns the last supervisor metrics snapshot with ``ok`` set iff
    the fleet recorded at least ``respawns`` finished restarts before
    the deadline. Failed polls are retried — the router itself may be
    busy respawning.
    """
    deadline = time.perf_counter() + timeout_s
    last: Dict = {}
    while True:
        resp = await _oneshot(host, port, "metrics",
                              timeout_s=min(timeout_s, 10.0))
        if resp.get("ok"):
            last = resp["result"].get("supervisor", {})
            if last.get("restarts", 0) >= respawns:
                return {"ok": True, **last}
        if time.perf_counter() >= deadline:
            return {"ok": False, **last}
        await asyncio.sleep(poll_s)


def _shares(queries: int, procs: int) -> List[int]:
    """Split ``queries`` over at most ``procs`` children so the shares
    sum to ``queries``: the first ``queries % procs`` take one more,
    and a zero share is dropped (it spawns no child)."""
    procs = max(1, procs)
    base, extra = divmod(max(0, queries), procs)
    shares = [base + (k < extra) for k in range(procs)]
    return [n for n in shares if n]


def _proc_entry(conn, kwargs: Dict) -> None:
    """One forked loadgen process: drive a seeded share of the plan and
    send its :class:`LoadStats` up the pipe. A child that fails sends
    nothing (its traceback goes to stderr); the parent counts its whole
    share as failed."""
    try:
        plan = make_plan(kwargs["instances"], kwargs["queries"],
                         seed=kwargs["seed"])
        conn.send(asyncio.run(run_tcp(
            kwargs["host"], kwargs["port"], plan,
            clients=kwargs["clients"],
            connect_timeout_s=kwargs["connect_timeout_s"],
            pipeline=kwargs["pipeline"], wire_mode=kwargs["wire_mode"])))
    finally:
        conn.close()


async def run_procs(host: str, port: int, instances: Dict[str, int],
                    queries: int, procs: int, clients: int = 16,
                    seed: int = 0, pipeline: int = 1,
                    connect_timeout_s: float = 15.0,
                    wire_mode: str = "json") -> LoadStats:
    """Fork up to ``procs`` loadgen processes and merge their LoadStats.

    Each child draws its own plan (``seed + 1000 * proc_id``) over its
    share of ``queries`` (:func:`_shares`: the shares sum to
    ``queries``) and drives it over its own connections. A child that
    dies (or fails before reporting) is folded in as errors, not
    dropped — the merged exit criteria still see it.
    """
    from ..mpc.parallel import get_context

    ctx = get_context()
    kids = []
    for pid, share in enumerate(_shares(queries, procs)):
        parent_conn, child_conn = ctx.Pipe()
        kw = {"host": host, "port": port, "instances": instances,
              "queries": share, "clients": clients,
              "seed": seed + 1000 * pid, "pipeline": pipeline,
              "connect_timeout_s": connect_timeout_s,
              "wire_mode": wire_mode}
        p = ctx.Process(target=_proc_entry, args=(child_conn, kw),
                        daemon=True)
        p.start()
        child_conn.close()
        kids.append((p, parent_conn, share))
    loop = asyncio.get_running_loop()
    parts = []
    for _p, conn, share in kids:
        try:
            part = await loop.run_in_executor(None, conn.recv)
        except EOFError:  # the whole share counts as failed
            part = LoadStats()
            part.tally(np.full(share, wire.ST_ERROR, dtype=np.uint8))
        finally:
            conn.close()
        parts.append(part)
    for p, _conn, _share in kids:
        await loop.run_in_executor(None, p.join, 10.0)
        if p.is_alive():  # pragma: no cover - wedged child
            p.terminate()
    return LoadStats.merge(parts)


async def _discover(args) -> Optional[Dict]:
    """The server's instance table, or ``None`` once it says why not.

    Retries while the server boots: until it accepts a connection, and
    until it reports an instance (a router listens before it has added
    its instances).
    """
    deadline = time.perf_counter() + args.connect_timeout
    where = f"server at {args.host}:{args.port}"
    while True:
        try:
            client = await _retrying(lambda: ServiceClient.connect(
                args.host, args.port, connect_timeout_s=args.connect_timeout),
                deadline)
        except ServiceError:
            print(f"could not connect to {args.host}:{args.port}",
                  file=sys.stderr)
            return None
        # a server that accepts but never answers (wedged event loop,
        # wrong protocol on the port) must not hang the client forever:
        # bound the handshake by the same budget as the connection
        # itself. A reset mid-handshake (server slammed the door) is the
        # same story.
        try:
            desc = await asyncio.wait_for(client.call("instances"),
                                          args.connect_timeout)
        except asyncio.TimeoutError:
            print(f"{where} accepted the connection but did not answer "
                  f"the instances handshake within "
                  f"{args.connect_timeout:.0f}s", file=sys.stderr)
            return None
        except ServiceError as exc:
            what = ("closed the connection during the instances handshake"
                    if exc.kind == "disconnected" else
                    f"garbled the instances handshake ({exc})")
            print(f"{where} {what}", file=sys.stderr)
            return None
        finally:
            await client.close()
        if not desc.get("ok"):
            print(f"instances query failed: {desc}", file=sys.stderr)
            return None
        if desc["result"]:
            return desc["result"]
        if time.perf_counter() >= deadline:
            print(f"{where} has no instances", file=sys.stderr)
            return None
        await asyncio.sleep(0.2)


async def _main_async(args) -> int:
    described = await _discover(args)
    if described is None:
        return 1
    instances = {name: info["m"] for name, info in described.items()}
    print(f"instances: "
          f"{', '.join(f'{k} (m={v})' for k, v in sorted(instances.items()))}")

    if args.chaos:
        armed = await arm_chaos(args.host, args.port, args.chaos)
        if not armed.get("ok"):
            print(f"chaos arm FAILED: {armed.get('error')}",
                  file=sys.stderr)
            return 1
        print(f"chaos armed: {armed['result']['events']} event(s) "
              f"({args.chaos})")

    update_task = None
    if args.live_update:
        name = sorted(described)[0]
        m_tree = described[name].get("m_tree", instances[name] // 3)
        update_task = asyncio.create_task(live_update(
            args.host, args.port, name, m_tree,
            delay_s=args.update_delay))

    churn_task, churn_stop = None, None
    if args.churn > 0:
        name = sorted(described)[0]
        churn_stop = asyncio.Event()
        churn_task = asyncio.create_task(churn_storm(
            args.host, args.port, name, described[name]["n"],
            instances[name], args.churn, args.churn_batch, churn_stop))

    if args.procs > 1:
        stats = await run_procs(
            args.host, args.port, instances, args.queries,
            procs=args.procs, clients=args.clients, seed=args.seed,
            pipeline=args.pipeline,
            connect_timeout_s=args.connect_timeout,
            wire_mode=args.wire)
    else:
        plan = make_plan(instances, args.queries, seed=args.seed)
        stats = await run_tcp(args.host, args.port, plan,
                              clients=args.clients,
                              connect_timeout_s=args.connect_timeout,
                              pipeline=args.pipeline,
                              wire_mode=args.wire)
    churn_ok = True
    if churn_task is not None:
        churn_stop.set()
        churn = await churn_task
        gens = churn["generations"]
        churn_ok = (churn["errors"] == 0 and churn["applied"] >= 2
                    and len(gens) >= 2)
        line = (f"churn: {churn['applied']} of {churn['batches_sent']} "
                f"batches applied ({churn['scoped']} scoped), "
                f"{churn['shed']} shed, {churn['rejected']} rejected, "
                f"{len(gens)} generation swaps"
                + (f" (gen {gens[0]}..{gens[-1]})" if gens else ""))
        if churn_ok:
            print(line)
        else:
            print(f"churn FAILED: {line}; errors {churn['errors']} "
                  f"({churn['last_error']})", file=sys.stderr)
    update_ok = True
    if update_task is not None:
        upd = await update_task
        update_ok = upd.get("ok", False)
        if update_ok:
            print(f"live update: rebuilt edge {upd['edge']} -> "
                  f"generation {upd['generation']} after {upd['probes']} "
                  f"probe(s), shipped to {upd.get('shipped_to')}")
        else:
            print(f"live update FAILED: {upd.get('error')}",
                  file=sys.stderr)
    recovery_ok = True
    if args.expect_respawns > 0:
        rec = await await_recovery(args.host, args.port,
                                   args.expect_respawns,
                                   timeout_s=args.recovery_timeout)
        recovery_ok = rec.pop("ok", False)
        if recovery_ok:
            print(f"recovery: {rec.get('restarts')} respawn(s), "
                  f"{rec.get('failovers')} failover(s), "
                  f"{rec.get('read_retries')} read retries, "
                  f"p99 {rec.get('recovery_p99_s')}s, "
                  f"degraded {rec.get('degraded_s')}s")
        else:
            print(f"recovery FAILED: wanted {args.expect_respawns} "
                  f"respawn(s) within {args.recovery_timeout:.0f}s, "
                  f"last supervisor snapshot {rec}", file=sys.stderr)
    if args.shutdown:
        await _oneshot(args.host, args.port, "shutdown")
    s = stats.summary()
    mode = (f"{args.procs} procs x {args.clients} clients"
            if args.procs > 1 else f"{args.clients} clients")
    print(f"served {s['answered']:,} of {s['sent']:,} queries in "
          f"{s['wall_s']:.2f}s ({s['qps']:,.0f} qps, {mode}, "
          f"pipeline {args.pipeline}, wire {args.wire}), "
          f"shed {s['shed']}, transport errors {s['errors']}, "
          f"p50 {s['p50_ms']}ms p99 {s['p99_ms']}ms, "
          f"driver encode {s['encode_s']:.2f}s")
    ok = (s["answered"] > 0 and s["qps"] > 0 and s["errors"] == 0
          and update_ok and churn_ok and recovery_ok)
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="load-generate against a running repro serve process"
    )
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=7464)
    ap.add_argument("--queries", type=int, default=5000)
    ap.add_argument("--clients", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--connect-timeout", type=float, default=15.0,
                    help="seconds to retry the first connection")
    ap.add_argument("--procs", type=int, default=1,
                    help="fork this many whole loadgen processes and "
                         "merge their stats (their shares sum to "
                         "--queries)")
    ap.add_argument("--pipeline", type=int, default=1,
                    help="requests kept in flight per connection "
                         "(responses correlate positionally)")
    ap.add_argument("--wire", choices=("json", "binary"), default="json",
                    help="query-storm protocol: JSON lines or the "
                         "binary columnar protocol (control side "
                         "channels stay JSON either way)")
    ap.add_argument("--churn", type=float, default=0.0, metavar="RATE",
                    help="stream structural update_batch ops at RATE "
                         "batches/s while the storm runs (add/reprice/"
                         "remove cycles of heavy non-tree edges)")
    ap.add_argument("--churn-batch", type=int, default=8,
                    help="structural ops per churn batch")
    ap.add_argument("--live-update", action="store_true",
                    help="force one rebuild-forcing update mid-storm "
                         "(on a router: a digest-shipped generation swap)")
    ap.add_argument("--update-delay", type=float, default=0.5,
                    help="seconds into the storm to fire --live-update")
    ap.add_argument("--chaos", type=str, default=None, metavar="SPEC",
                    help="arm this fault-injection plan on the router "
                         "before the storm (e.g. 'kill:1@0.5'; grammar "
                         "in repro.service.chaos)")
    ap.add_argument("--expect-respawns", type=int, default=0, metavar="N",
                    help="after the storm, require >= N completed worker "
                         "respawns (polls supervisor metrics)")
    ap.add_argument("--recovery-timeout", type=float, default=30.0,
                    help="seconds to wait for --expect-respawns to land")
    ap.add_argument("--shutdown", action="store_true",
                    help="send a shutdown op after the run")
    args = ap.parse_args(argv)
    return asyncio.run(_main_async(args))


if __name__ == "__main__":
    raise SystemExit(main())
