"""Worker supervision: death detection, respawn, and snapshot catch-up.

The router tier (DESIGN.md §6.2) ships durable, digest-addressed
state — every generation a primary publishes is a content-hashed
``.npz`` any process can verify and mmap. This module turns that into
*self-healing*: a :class:`Supervisor` owned by the
:class:`~repro.service.router.RouterTier` that keeps the fleet serving
through worker crashes, severed connections, and wedged processes.

Three pieces:

* **GenerationLedger** — the router-side record of every published
  generation per instance ``(path, digest, generation)`` *plus the
  patch log*: threshold-preserving re-pricings are applied in place on
  replicas without a new snapshot, so a rejoining worker that only
  adopted the latest snapshot would silently miss them. Catch-up is
  therefore *adopt the ledger's latest snapshot, then replay its patch
  log in order* — classification is deterministic, so the replay lands
  the worker bit-identical to the surviving replicas.

* **RestartPolicy** — bounded respawn: exponential backoff between
  attempts, at most ``max_restarts`` inside a sliding window, then
  permanent eviction. Eviction removes the worker from the rendezvous
  hash, and every instance it hosted remaps onto the survivors with
  the placement's minimal-movement guarantee (only the evicted
  worker's slots move).

* **Supervisor** — the watch loop. Death is detected three ways:
  the process sentinel (``proc.is_alive()``), a periodic ``ping``
  heartbeat over the telemetry link, and data-path reports — any
  forward or fan-out that hits a ``disconnected`` error calls
  :meth:`Supervisor.notify_suspect`, which *synchronously* takes the
  worker out of rotation before scheduling recovery. Recovery prefers
  the cheap path: if the process is alive and only its connections
  died (a severed link, not a crash), the links are re-dialled in
  place. Otherwise the process is respawned under the restart policy.
  Either way the worker re-enters the read rotation one instance at a
  time, gated behind ledger catch-up under that instance's update
  lock — readers never see a rejoined worker that is behind.

The same per-instance machinery powers *resync*: a replica whose
patch/swap acknowledgement failed is marked stale for that instance
(excluded from its reads) and re-aligned from the ledger — silent
replica divergence is structurally impossible as long as the ledger
records every mutation, which the router's write path guarantees.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import ServiceError, ValidationError
from .metrics import SupervisorMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .router import RouterTier, _Worker

__all__ = ["GenerationLedger", "LedgerEntry", "RestartPolicy",
           "Supervisor"]

#: How long a stop waits for the background tasks it cancelled to end.
STOP_DEADLINE_S = 2.0


@dataclass
class LedgerEntry:
    """The latest published generation of one instance + its patch log."""

    path: str
    digest: str
    generation: int
    patches: List[Tuple[int, float]] = field(default_factory=list)


class GenerationLedger:
    """Router-side record of everything a rejoining worker must adopt.

    ``record_publish`` supersedes the entry (a published snapshot
    embeds every prior patch, so the log resets); ``record_patch``
    appends an in-place re-pricing that replicas applied without a new
    snapshot. ``latest`` is the catch-up contract: adopt the snapshot,
    replay the patches, and the worker is bit-identical to the fleet.
    """

    def __init__(self):
        self._entries: Dict[str, LedgerEntry] = {}

    def record_publish(self, instance: str, path: str, digest: str,
                       generation: int) -> None:
        prev = self._entries.get(instance)
        if prev is not None and int(generation) < prev.generation:
            raise ValidationError(
                f"ledger regression for {instance!r}: generation "
                f"{generation} after {prev.generation}")
        self._entries[instance] = LedgerEntry(
            path=path, digest=digest, generation=int(generation))

    def record_patch(self, instance: str, edge: int, weight: float) -> None:
        self._latest(instance).patches.append((int(edge), float(weight)))

    def latest(self, instance: str) -> LedgerEntry:
        return self._latest(instance)

    def _latest(self, instance: str) -> LedgerEntry:
        entry = self._entries.get(instance)
        if entry is None:
            raise ValidationError(f"no ledger entry for {instance!r}")
        return entry

    def instances(self) -> List[str]:
        return sorted(self._entries)

    def snapshot(self) -> Dict:
        return {
            name: {"generation": e.generation, "digest": e.digest[:16],
                   "patches": len(e.patches)}
            for name, e in self._entries.items()
        }


class RestartPolicy:
    """Bounded respawn: exponential backoff, then permanent eviction.

    ``next_delay`` returns the backoff before the next respawn attempt
    of that worker, or ``None`` once the worker burned
    ``max_restarts`` attempts inside the sliding window — the
    supervisor's cue to evict it from the placement for good.
    """

    def __init__(self, max_restarts: int = 5, window_s: float = 60.0,
                 backoff_s: float = 0.1, backoff_cap_s: float = 5.0):
        self.max_restarts = max(1, int(max_restarts))
        self.window_s = float(window_s)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self._attempts: Dict[int, List[float]] = {}

    def next_delay(self, worker_id: int,
                   now: Optional[float] = None) -> Optional[float]:
        t = time.monotonic() if now is None else now
        recent = [s for s in self._attempts.get(worker_id, ())
                  if t - s < self.window_s]
        if len(recent) >= self.max_restarts:
            self._attempts[worker_id] = recent
            return None
        delay = min(self.backoff_cap_s, self.backoff_s * (2 ** len(recent)))
        recent.append(t)
        self._attempts[worker_id] = recent
        return delay

    def attempts_in_window(self, worker_id: int,
                           now: Optional[float] = None) -> int:
        t = time.monotonic() if now is None else now
        return len([s for s in self._attempts.get(worker_id, ())
                    if t - s < self.window_s])


class Supervisor:
    """Keeps the router's worker fleet alive, current, and in rotation."""

    def __init__(self, router: "RouterTier"):
        self.router = router
        cfg = router.config
        self.enabled = bool(getattr(cfg, "supervise", True))
        self.ledger = GenerationLedger()
        self.metrics = SupervisorMetrics()
        self.policy = RestartPolicy(
            max_restarts=cfg.max_restarts,
            window_s=cfg.restart_window_s,
            backoff_s=cfg.restart_backoff_s,
        )
        self._watch_task: Optional[asyncio.Task] = None
        self._recovering: Dict[int, asyncio.Task] = {}
        self._resyncs: set = set()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self.enabled and self._watch_task is None:
            self._watch_task = asyncio.get_running_loop().create_task(
                self._watch())

    async def stop(self) -> List[str]:
        """Cancel every background task; returns the names of those still
        running :data:`STOP_DEADLINE_S` later."""
        tasks = {f"recover:{wid}": t for wid, t in self._recovering.items()}
        tasks.update((f"resync:{i}", t) for i, t in enumerate(self._resyncs))
        if self._watch_task is not None:
            tasks["watch"] = self._watch_task
        self._watch_task = None
        for t in tasks.values():
            t.cancel()
        late = set()
        if tasks:
            _, late = await asyncio.wait(tasks.values(),
                                         timeout=STOP_DEADLINE_S)
        self._recovering.clear()
        self._resyncs.clear()
        return [f"supervisor:{name}" for name, t in tasks.items()
                if t in late]

    # -- death detection -------------------------------------------------------

    def notify_suspect(self, w: "_Worker") -> None:
        """Take ``w`` out of rotation *now*; recover it asynchronously.

        Synchronous on purpose: the caller just observed a disconnect
        (or the watch loop a dead sentinel), and the very next
        ``_pick_worker`` must already skip this worker. Idempotent
        while a recovery for the same worker is in flight.
        """
        w.up = False
        w.depth = {}
        if not self.enabled or self.router._stopped:
            return
        if w.worker_id in self._recovering:
            return
        self.metrics.deaths_detected += 1
        task = asyncio.get_running_loop().create_task(self._recover(w))
        self._recovering[w.worker_id] = task

    async def _watch(self) -> None:
        """Sentinel + heartbeat loop over every in-rotation worker; ends
        once the router stops, even if a ping's ``wait_for`` dropped the
        cancel (before Python 3.12 it can)."""
        cfg = self.router.config
        while not self.router._stopped:
            await asyncio.sleep(cfg.heartbeat_s)
            for w in list(self.router.workers.values()):
                if not w.up or self.router._stopped:
                    continue
                if not w.proc.is_alive():
                    self.notify_suspect(w)
                    continue
                if any(link._dead for link in w.all_links()):
                    # severed connection on a live process: re-dial in
                    # place (no respawn, no catch-up needed — a dead
                    # *control* link already marked fan-out targets
                    # stale, and those resync via the ledger)
                    if await self._try_heal(w):
                        self.router._start_poller(w)
                    else:
                        self.notify_suspect(w)
                    continue
                try:
                    await w.telemetry.request({"op": "ping"},
                                              timeout_s=cfg.heartbeat_timeout_s)
                except (ServiceError, asyncio.TimeoutError):
                    self.notify_suspect(w)

    # -- recovery --------------------------------------------------------------

    async def _recover(self, w: "_Worker") -> None:
        t0 = time.perf_counter()
        force_respawn = False
        try:
            while True:
                try:
                    if (not force_respawn and w.proc.is_alive()
                            and await self._try_heal(w)):
                        pass  # connections re-dialled; process was fine
                    else:
                        delay = self.policy.next_delay(w.worker_id)
                        if delay is None:
                            await self._evict(w)
                            return
                        await self._ensure_dead(w)
                        await asyncio.sleep(delay)
                        await self.router._respawn_worker(w)
                        self.metrics.restarts += 1
                    await self._catch_up(w)
                except ServiceError:
                    # a heal that cannot catch up (diverged state, a
                    # vanished snapshot) must not ping-pong: the next
                    # attempt replaces the process under the bounded
                    # policy instead of re-dialling forever
                    w.up = False
                    force_respawn = True
                    continue
                break
            self.router._start_poller(w)
            dt = time.perf_counter() - t0
            self.metrics.recovery.extend([dt])
            self.metrics.degraded_s += dt
        except asyncio.CancelledError:
            raise
        finally:
            self._recovering.pop(w.worker_id, None)

    async def _try_heal(self, w: "_Worker") -> bool:
        """Re-dial dead links to a live process; verify with a ping."""
        from .router import BinaryWorkerLink, WorkerLink

        host = self.router.config.worker_host
        healed = 0
        try:
            for i, link in enumerate(w.links):
                if link._dead:
                    await link.close()
                    w.links[i] = await WorkerLink.connect(host, w.port, 5.0)
                    healed += 1
            # binary relay links re-negotiate on dial: the hello
            # re-dictates the router's full symbol table, which is
            # idempotent on a live process and restores id order on one
            # whose table was lost
            names = self.router.wire_symbols.names()
            for i, link in enumerate(w.bin_links):
                if link._dead:
                    await link.close()
                    w.bin_links[i] = await BinaryWorkerLink.connect(
                        host, w.port, names, 5.0)
                    healed += 1
                    w.wire_version = max(w.wire_version, len(names))
            if w.control._dead:
                await w.control.close()
                w.control = await WorkerLink.connect(host, w.port, 5.0)
                healed += 1
            if w.telemetry._dead:
                await w.telemetry.close()
                w.telemetry = await WorkerLink.connect(host, w.port, 5.0)
                healed += 1
            await w.telemetry.request({"op": "ping"}, timeout_s=5.0)
        except (ServiceError, asyncio.TimeoutError):
            return False
        self.metrics.links_healed += healed
        return True

    async def _ensure_dead(self, w: "_Worker") -> None:
        loop = asyncio.get_running_loop()
        if w.proc.is_alive():
            w.proc.terminate()
            await loop.run_in_executor(None, w.proc.join, 5.0)
        if w.proc.is_alive():  # pragma: no cover - stuck process
            w.proc.kill()
            await loop.run_in_executor(None, w.proc.join, 5.0)
        for link in w.all_links():
            await link.close()

    async def _catch_up(self, w: "_Worker") -> None:
        """Gate re-entry behind per-instance ledger catch-up.

        The worker flips ``up`` first but with every hosted instance
        marked stale, so reads keep skipping it per instance until that
        instance's snapshot is adopted and its patch log replayed —
        both under the instance's update lock, so no mutation can slip
        between the snapshot and the replay. Instances that get placed
        onto this worker *while* it drains (a concurrent
        ``add_instance``) land in ``stale`` too and drain in the same
        loop.
        """
        hosted = [name for name, placed in self.router.instances.items()
                  if w.worker_id in placed.replicas]
        w.stale.update(hosted)
        w.depth = {}
        w.up = True
        while w.stale:
            await self.sync_instance(w, next(iter(w.stale)))

    async def sync_instance(self, w: "_Worker", name: str) -> None:
        """Re-align one instance on ``w`` from the ledger.

        Adopt (idempotent on the worker — an already-registered
        instance swaps) the latest published snapshot, then replay the
        patch log in order. Classification is deterministic, so every
        replayed re-pricing patches exactly as it did on the primary;
        anything else means the worker's state diverged from the
        ledger's and is treated as a fresh failure.
        """
        placed = self.router.instances.get(name)
        if placed is None:
            w.stale.discard(name)
            return
        async with placed.lock:
            if name not in w.stale:
                return
            entry = self.ledger.latest(name)
            resp = await w.control.request(
                {"op": "adopt", "instance": name, "path": entry.path,
                 "digest": entry.digest, "generation": entry.generation})
            if not resp.get("ok"):
                raise ServiceError(
                    f"worker {w.worker_id} failed catch-up adopt of "
                    f"{name!r}: {resp.get('error')}")
            for edge, weight in entry.patches:
                ack = await w.control.request(
                    {"op": "update", "instance": name, "edge": edge,
                     "weight": weight})
                if ack.get("action") != "patched":
                    raise ServiceError(
                        f"worker {w.worker_id} diverged replaying patch "
                        f"({edge}, {weight}) of {name!r}: got "
                        f"{ack.get('action') or ack.get('error')!r}")
            w.stale.discard(name)
            self.metrics.resyncs += 1

    def schedule_resync(self, w: "_Worker", name: str) -> None:
        """Async stale-replica repair (failed patch/swap fan-out)."""
        if not self.enabled or self.router._stopped:
            return

        async def _run() -> None:
            try:
                await self.sync_instance(w, name)
            except ServiceError:
                self.notify_suspect(w)

        task = asyncio.get_running_loop().create_task(_run())
        self._resyncs.add(task)
        task.add_done_callback(self._resyncs.discard)

    # -- eviction --------------------------------------------------------------

    async def _evict(self, w: "_Worker") -> None:
        """Permanently remove a worker that burned its restart budget.

        The rendezvous hash guarantees minimal movement: removing the
        worker remaps exactly the slots it held. Each affected
        instance's replica set is recomputed and any worker that
        *gained* a slot catches up from the ledger before serving it.
        """
        router = self.router
        self.metrics.evictions += 1
        await self._ensure_dead(w)
        router._stop_poller(w)
        router.placement.remove_worker(w.worker_id)
        router.workers.pop(w.worker_id, None)
        for name, placed in list(router.instances.items()):
            if w.worker_id not in placed.replicas:
                continue
            async with placed.lock:
                old = set(placed.replicas)
                placed.replicas = router.placement.replicas(
                    name, router.config.replication)
                placed.rr = 0
                added = [wid for wid in placed.replicas if wid not in old]
            for wid in added:
                gained = router.workers.get(wid)
                if gained is None:
                    continue
                gained.stale.add(name)
                self.schedule_resync(gained, name)
