"""Deterministic, seeded fault injection for the router fleet.

Recovery code that is only exercised by real outages is recovery code
that does not work. This module injects the three failure modes the
supervisor must survive — as a *plan*, parsed from a compact spec
string, executed on a schedule, and fully deterministic (the ``rand``
form derives every choice from an explicit seed), so CI can kill a
worker mid-storm and assert zero failed reads on every run:

* ``kill:W@T`` — SIGKILL worker ``W`` at ``T`` seconds (a hard crash:
  no shutdown handler runs, sockets drop mid-request);
* ``sever:W@T`` — close every router→worker connection of ``W`` (the
  process survives; the supervisor should re-dial, not respawn);
* ``delay:W@T:D[:S]`` — add ``D`` seconds of latency to every read
  forwarded to ``W`` for ``S`` seconds (default 1.0) starting at ``T``
  (a slow, not dead, worker — retries must *not* fire);
* ``rand:SEED@WINDOW[:KILLS]`` — ``KILLS`` (default 1) kill events at
  seeded-random times in ``(0.2, WINDOW)`` on seeded-random workers.

Events compose with commas: ``"kill:1@0.5,sever:0@2.0"``. Worker ids
are taken modulo the live fleet at fire time, so a spec written for
three workers stays valid after an eviction.

Entry points: ``repro route --chaos SPEC`` / ``repro serve --chaos
SPEC`` arm a plan at boot; the ``chaos`` wire op (used by ``loadgen
--chaos``) arms one against a running router through the front door.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..errors import ValidationError
from .supervision import STOP_DEADLINE_S

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .router import RouterTier

__all__ = ["ChaosEvent", "ChaosPlan", "ChaosInjector"]

ACTIONS = ("kill", "sever", "delay")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault."""

    action: str          #: "kill" | "sever" | "delay"
    worker: int          #: worker index (mod the live fleet at fire time)
    at_s: float          #: seconds after the plan starts
    delay_s: float = 0.0      #: per-request added latency ("delay" only)
    duration_s: float = 1.0   #: how long the latency window lasts


class ChaosPlan:
    """An ordered, deterministic schedule of :class:`ChaosEvent`."""

    def __init__(self, events: List[ChaosEvent]):
        self.events = sorted(events, key=lambda e: e.at_s)

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        events: List[ChaosEvent] = []
        for token in filter(None, (t.strip() for t in spec.split(","))):
            events.extend(cls._parse_token(token))
        if not events:
            raise ValidationError(f"empty chaos spec {spec!r}")
        return cls(events)

    @staticmethod
    def _parse_token(token: str) -> List[ChaosEvent]:
        try:
            action, rest = token.split(":", 1)
            head, tail = rest.split("@", 1)
            parts = tail.split(":")
            if action == "rand":
                kills = int(parts[1]) if len(parts) > 1 else 1
                return ChaosPlan.random(
                    seed=int(head), window_s=float(parts[0]),
                    kills=kills).events
            if action not in ACTIONS:
                raise ValueError(f"unknown action {action!r}")
            worker, at_s = int(head), float(parts[0])
            if action == "delay":
                if len(parts) < 2:
                    raise ValueError("delay needs :DELAY after the time")
                return [ChaosEvent(
                    action, worker, at_s, delay_s=float(parts[1]),
                    duration_s=float(parts[2]) if len(parts) > 2 else 1.0)]
            return [ChaosEvent(action, worker, at_s)]
        except (ValueError, IndexError) as exc:
            raise ValidationError(
                f"bad chaos token {token!r}: {exc} "
                f"(grammar: kill:W@T | sever:W@T | delay:W@T:D[:S] | "
                f"rand:SEED@WINDOW[:KILLS])")

    @classmethod
    def random(cls, seed: int, window_s: float,
               kills: int = 1) -> "ChaosPlan":
        """Seeded kill schedule: same seed, same plan, every run."""
        rng = np.random.default_rng(seed)
        lo = min(0.2, window_s / 2)
        events = [
            ChaosEvent("kill", int(rng.integers(0, 1 << 16)),
                       float(rng.uniform(lo, max(lo + 1e-3, window_s))))
            for _ in range(max(1, int(kills)))
        ]
        return cls(events)


class ChaosInjector:
    """Executes a :class:`ChaosPlan` against a live router."""

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self.fired: List[str] = []
        self._task: Optional[asyncio.Task] = None

    def start(self, router: "RouterTier") -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._run(router))

    async def stop(self) -> bool:
        """Cancel the plan; ``False`` if its task was still running
        :data:`STOP_DEADLINE_S` after the cancel."""
        task, self._task = self._task, None
        if task is None:
            return True
        task.cancel()
        _, late = await asyncio.wait({task}, timeout=STOP_DEADLINE_S)
        return not late

    async def _run(self, router: "RouterTier") -> None:
        t0 = time.perf_counter()
        for ev in self.plan.events:
            lag = ev.at_s - (time.perf_counter() - t0)
            if lag > 0:
                await asyncio.sleep(lag)
            if router._stopped:
                return
            await self._fire(router, ev)

    async def _fire(self, router: "RouterTier", ev: ChaosEvent) -> None:
        ids = sorted(router.workers)
        if not ids:
            return
        w = router.workers[ids[ev.worker % len(ids)]]
        self.fired.append(f"{ev.action}:{w.worker_id}@{ev.at_s:.2f}")
        if ev.action == "kill":
            if w.proc.is_alive():
                w.proc.kill()  # SIGKILL: a crash, not a shutdown
        elif ev.action == "sever":
            for link in w.all_links():
                await link.close()
        elif ev.action == "delay":
            w.chaos_delay_s = ev.delay_s

            def _clear(worker=w, amount=ev.delay_s) -> None:
                if worker.chaos_delay_s == amount:
                    worker.chaos_delay_s = 0.0

            asyncio.get_running_loop().call_later(ev.duration_s, _clear)
