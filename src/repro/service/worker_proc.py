"""One router-tier worker: a service process that adopts snapshots.

A worker process runs a full :class:`~repro.service.server.
SensitivityService` (shards, micro-batchers, update path) plus the
three control ops the router tier needs:

``adopt``
    Register an instance from a shipped, digest-addressed oracle
    snapshot: verify the file's content hash against the advertised
    digest, memory-map it (one page-cached copy shared by every worker
    process on the box), reconstruct the authoritative graph from the
    snapshot's own edge arrays, and start serving at the shipped
    generation. No pipeline stage runs — adoption is O(mmap).
    Re-adopting an already-registered instance is idempotent: it
    routes through ``swap``, which is how a rejoining or resyncing
    replica re-aligns with the router's generation ledger.

``swap``
    Zero-downtime generation swap: verify + map a newer snapshot and
    atomically publish it to every shard (the same one-tuple swap the
    in-process update path uses), while in-flight batches finish on
    the generation they started on. This is how a replica follows a
    rebuild that happened *once* on the primary — the router ships the
    digest and path, never the work.

``depth`` (inherited)
    The queue-depth report the router polls for backpressure.

The module-level :func:`worker_entry` is the ``multiprocessing`` target
(explicit forkserver/spawn context — the same discipline as
:mod:`repro.mpc.parallel`): it boots the service, binds TCP on an
ephemeral port, reports ``("ready", worker_id, port)`` through its
pipe, and serves until a ``shutdown`` op arrives or the pipe reaches
EOF (the router process is gone).
"""

from __future__ import annotations

import asyncio
from typing import Dict

from ..errors import ValidationError
from ..graph.graph import WeightedGraph
from ..oracle import SensitivityOracle
from ..pipeline import ArtifactStore
from ..serialize import file_digest
from .server import SensitivityService, ServiceConfig, _Instance
from .shards import OracleShard, plan_shards
from .updates import InstanceUpdater

__all__ = ["WorkerService", "worker_entry"]


def _verified_load(path: str, digest: str, n_copies: int):
    """Digest-check ``path`` once, then map it ``n_copies`` times.

    Returns ``n_copies`` independent :class:`SensitivityOracle` objects
    over the same page-cached bytes (each shard patches copy-on-write
    independently, exactly like
    :meth:`~repro.service.updates.InstanceUpdater.shard_oracles`).
    """
    actual = file_digest(path)
    if actual != digest:
        raise ValidationError(
            f"snapshot digest mismatch for {path!r}: "
            f"advertised {digest[:16]}…, file is {actual[:16]}…"
        )
    return [SensitivityOracle.load(path, mmap_mode="r")
            for _ in range(n_copies)]


class WorkerService(SensitivityService):
    """A :class:`SensitivityService` that can adopt shipped snapshots."""

    async def handle_request(self, req: Dict) -> Dict:
        op = req.get("op")
        if op == "adopt":
            resp = await self._adopt(req)
        elif op == "swap":
            resp = await self._swap(req)
        else:
            return await super().handle_request(req)
        if "id" in req:
            resp["id"] = req["id"]
        return resp

    # -- snapshot adoption -----------------------------------------------------

    def adopt_instance(self, name: str, path: str, digest: str,
                       generation: int = 0) -> None:
        """Register ``name`` from a digest-addressed snapshot file."""
        if name in self.instances:
            raise ValidationError(f"instance {name!r} already registered")
        cfg = self.config
        specs = plan_shards(self._snapshot_m(path, digest), cfg.shards)
        oracles = _verified_load(path, digest, len(specs) + 1)
        template = oracles[-1]
        # the authoritative graph is reconstructed from the snapshot's
        # own edge arrays (private writable copies; the big threshold /
        # topology arrays stay mapped and shared)
        graph = WeightedGraph(
            n=len(template.parent), u=template.u.copy(),
            v=template.v.copy(), w=template.w.copy(),
            tree_mask=template.tree_mask.copy(),
        )
        store = (ArtifactStore(cache_dir=cfg.cache_dir)
                 if cfg.cache_dir is not None else ArtifactStore())
        updater = InstanceUpdater(
            name, graph, template, engine=cfg.engine, config=cfg.config,
            oracle_labels=cfg.oracle_labels, store=store,
            mmap_dir=cfg.mmap_dir,
        )
        updater.generation = int(generation)
        updater.snapshot_path = path
        updater.snapshot_digest = digest
        shards = [OracleShard(spec, orc, generation=int(generation))
                  for spec, orc in zip(specs, oracles)]
        self.instances[name] = _Instance(
            name=name, updater=updater, shards=shards,
            batchers=self._new_batchers(shards))

    def _snapshot_m(self, path: str, digest: str) -> int:
        # edge count comes from the snapshot itself; one cheap map
        probe = SensitivityOracle.load(path, mmap_mode="r")
        return len(probe)

    async def _adopt(self, req: Dict) -> Dict:
        try:
            name = req["instance"]
            if name in self.instances:
                # idempotent re-adopt: a rejoining or resyncing worker
                # re-aligns an already-registered instance via the
                # atomic swap path instead of erroring out
                return await self._swap(req)
            self.adopt_instance(name, req["path"], req["digest"],
                                int(req.get("generation", 0)))
        except (KeyError, ValidationError, OSError, ValueError) as exc:
            return {"ok": False, "error": f"adopt failed: {exc}"}
        inst = self.instances[name]
        return {"ok": True,
                "result": {"instance": name, "m": inst.updater.graph.m,
                           "generation": inst.updater.generation}}

    async def _swap(self, req: Dict) -> Dict:
        """Atomically adopt a newer generation under live reads.

        A same-``m`` swap (a re-priced edge rebuilt on the primary) is
        an in-place shard swap. A structural generation (the primary
        applied an ``update_batch`` that grew or shrank the edge set)
        re-plans the edge-range shards for the new ``m``, rebuilds the
        shard/batcher tuples and swaps them in one synchronous block —
        the same discipline as the in-process install, so concurrent
        routing sees old or new, never a mix.
        """
        try:
            name = req["instance"]
            path, digest = req["path"], req["digest"]
            generation = int(req["generation"])
            inst = self._instance(name)
        except (KeyError, ValidationError, ValueError) as exc:
            return {"ok": False, "error": f"swap failed: {exc}"}
        cfg = self.config
        old_batchers = []
        async with inst.lock:  # serialise against local updates
            new_m = self._snapshot_m(path, digest)
            m_changed = inst.updater.graph.m != new_m
            specs = (plan_shards(new_m, cfg.shards) if m_changed
                     else [s.spec for s in inst.shards])
            try:
                with self.writers:
                    oracles = await asyncio.get_running_loop() \
                        .run_in_executor(None, _verified_load, path, digest,
                                         len(specs) + 1)
            except (ValidationError, OSError, ValueError) as exc:
                return {"ok": False, "error": f"swap failed: {exc}"}
            updater = inst.updater
            template = oracles[-1]
            updater.oracle = template
            updater.generation = generation
            updater.snapshot_path = path
            updater.snapshot_digest = digest
            if len(template) == updater.graph.m:
                # refresh the authoritative weights (and tree membership
                # — a rebuilt re-pricing can swap edges in or out of the
                # candidate tree) from the new generation
                updater.graph.w[:] = template.w
                updater.graph.tree_mask[:] = template.tree_mask
                for shard, orc in zip(inst.shards, oracles):
                    shard.swap(orc, generation)
            else:
                # structural generation: new authoritative graph + a
                # fresh shard plan over the new edge count
                updater.graph = WeightedGraph(
                    n=len(template.parent), u=template.u.copy(),
                    v=template.v.copy(), w=template.w.copy(),
                    tree_mask=template.tree_mask.copy(),
                )
                updater.last_run = None
                updater._splice_fp = None
                old_batchers = self._reshard(inst, specs, oracles,
                                             generation)
        result = {"instance": name, "generation": generation,
                  "m": inst.updater.graph.m}
        missed = await self._retire(name, old_batchers)
        if missed:
            result["missed_deadline"] = missed
        return {"ok": True, "result": result}


async def _worker_async(conn, worker_id: int,
                        config: ServiceConfig) -> None:
    service = WorkerService(config)
    await service.start(serve_tcp=True)
    host, port = service.tcp_address
    conn.send(("ready", worker_id, port))
    # the boot pipe stays open for the worker's life and the router
    # never writes to it again: it turns readable only at EOF, when the
    # router process is gone, however it ended
    loop = asyncio.get_running_loop()

    def orphaned() -> None:
        loop.remove_reader(conn.fileno())
        service._shutdown.set()

    loop.add_reader(conn.fileno(), orphaned)
    try:
        await service.serve_forever()
    finally:
        loop.remove_reader(conn.fileno())
        conn.close()
        await service.stop()


def worker_entry(conn, worker_id: int, config: ServiceConfig) -> None:
    """``multiprocessing`` target: run one worker until shutdown.

    ``config`` is the worker's whole :class:`ServiceConfig`, built by
    the router (per-worker spool and cache directories, ``port=0``).
    """
    asyncio.run(_worker_async(conn, worker_id, config))
