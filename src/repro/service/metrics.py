"""Per-shard and service-level serving metrics.

Lightweight counters plus a fixed-size latency reservoir (the last
``capacity`` observations, vectorised percentile on snapshot). Shards
own a :class:`ShardMetrics`; the service folds them into one snapshot
dict next to the write-path counters — the numbers the E13 benchmark
and the ``metrics`` wire op report: qps, batch occupancy, p50/p99
latency, shed count, generation swaps, update classifications.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

__all__ = ["LatencyReservoir", "ShardMetrics", "UpdateMetrics",
           "StreamMetrics", "RouterMetrics", "SupervisorMetrics",
           "merged_latency"]


class LatencyReservoir:
    """Ring buffer of the most recent latencies (seconds)."""

    def __init__(self, capacity: int = 4096):
        self._buf = np.zeros(capacity, dtype=np.float64)
        self._pos = 0
        self._count = 0

    def extend(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        cap = len(self._buf)
        if len(values) >= cap:  # keep only the newest window
            self._buf[:] = values[-cap:]
            self._pos = 0
            self._count = cap
            return
        end = self._pos + len(values)
        if end <= cap:
            self._buf[self._pos:end] = values
        else:
            cut = cap - self._pos
            self._buf[self._pos:] = values[:cut]
            self._buf[: end - cap] = values[cut:]
        self._pos = end % cap
        self._count = min(cap, self._count + len(values))

    def percentile(self, q: float) -> Optional[float]:
        if self._count == 0:
            return None
        return float(np.percentile(self._buf[: self._count], q))

    def values(self) -> np.ndarray:
        """The buffered window (unordered copy) — merge fodder."""
        return self._buf[: self._count].copy()


def merged_latency(reservoirs) -> Dict:
    """One service-wide ``{p50_ms, p99_ms, samples}`` over many shards.

    Percentiles do not compose — the p99 of per-shard p99s is not the
    service p99 — so the merge pools the raw reservoir windows and
    takes percentiles over the union. Each reservoir holds its most
    recent window, so the merge is the recent service-wide
    distribution, weighted by per-shard traffic exactly as observed.
    """
    pools = [r.values() for r in reservoirs]
    pools = [p for p in pools if len(p)]
    if not pools:
        return {"p50_ms": None, "p99_ms": None, "samples": 0}
    allv = np.concatenate(pools)
    return {
        "p50_ms": _ms(float(np.percentile(allv, 50))),
        "p99_ms": _ms(float(np.percentile(allv, 99))),
        "samples": int(len(allv)),
    }


class ShardMetrics:
    """Counters one shard worker updates on every dispatched batch."""

    def __init__(self, reservoir: int = 4096):
        self.queries = 0
        self.batches = 0
        self.shed = 0
        self.type_errors = 0  # wrong-edge-kind queries answered with an error
        self.swaps = 0
        self.patched = 0      # oracle-preserving in-place re-pricings
        self.latency = LatencyReservoir(reservoir)

    def record_batch(self, size: int, latencies: np.ndarray) -> None:
        self.queries += size
        self.batches += 1
        self.latency.extend(latencies)

    def snapshot(self, uptime_s: Optional[float] = None) -> Dict:
        occupancy = self.queries / self.batches if self.batches else 0.0
        out = {
            "queries": self.queries,
            "batches": self.batches,
            "batch_occupancy": round(occupancy, 2),
            "shed": self.shed,
            "type_errors": self.type_errors,
            "generation_swaps": self.swaps,
            "patched": self.patched,
            "p50_ms": _ms(self.latency.percentile(50)),
            "p99_ms": _ms(self.latency.percentile(99)),
        }
        if uptime_s:
            out["qps"] = round(self.queries / uptime_s, 1)
        return out


class UpdateMetrics:
    """Write-path counters (per instance)."""

    def __init__(self):
        self.applied_preserving = 0
        self.applied_rebuild = 0
        self.rejected = 0
        self.stages_executed = 0
        self.stages_cached = 0
        self.rebuild_wall_s = 0.0

    def snapshot(self) -> Dict:
        return {
            "preserving": self.applied_preserving,
            "rebuilds": self.applied_rebuild,
            "rejected": self.rejected,
            "stages_executed": self.stages_executed,
            "stages_cached": self.stages_cached,
            "rebuild_wall_s": round(self.rebuild_wall_s, 4),
        }


class StreamMetrics:
    """Streaming write-path counters (per instance).

    One :class:`~repro.service.streaming.StreamIngestor` updates these
    per *applied* batch: how many wire requests were absorbed into it
    (``requests_merged``), how many structural ops arrived vs survived
    coalescing, whether the rebuild took the scoped splice path or a
    full replay, and the end-to-end apply latency (enqueue → generation
    installed). ``coalesce_ratio`` is ops-in over ops-applied — 1.0
    means nothing merged, 2.0 means half the wire ops were absorbed by
    last-op-wins coalescing before touching the pipeline.
    """

    def __init__(self, reservoir: int = 1024):
        self.batches_applied = 0
        self.requests_received = 0
        self.requests_merged = 0     # absorbed into an earlier apply
        self.ops_received = 0
        self.ops_applied = 0         # post-coalesce, post-rejection
        self.shed = 0
        self.rejected_batches = 0
        self.scoped_replays = 0      # splice path: delta rows only
        self.full_replays = 0        # tree-affecting: honest re-run
        self.stages_spliced = 0
        self.latency = LatencyReservoir(reservoir)

    def record(self, report, requests: int, latency_s: float) -> None:
        """Fold one drained batch in (``report`` is a BatchReport)."""
        self.requests_received += requests
        self.requests_merged += requests - 1
        self.ops_received += report.n_ops
        if report.action == "rejected":
            self.rejected_batches += 1
            return
        self.batches_applied += 1
        self.ops_applied += report.n_applied
        self.stages_spliced += report.stages_spliced
        if report.scoped:
            self.scoped_replays += 1
        else:
            self.full_replays += 1
        self.latency.extend([latency_s])

    def snapshot(self) -> Dict:
        mean_batch = (self.ops_applied / self.batches_applied
                      if self.batches_applied else 0.0)
        ratio = (self.ops_received / self.ops_applied
                 if self.ops_applied else None)
        return {
            "batches_applied": self.batches_applied,
            "requests_received": self.requests_received,
            "requests_merged": self.requests_merged,
            "ops_received": self.ops_received,
            "ops_applied": self.ops_applied,
            "mean_batch_size": round(mean_batch, 2),
            "coalesce_ratio": round(ratio, 3) if ratio is not None else None,
            "shed": self.shed,
            "rejected_batches": self.rejected_batches,
            "scoped_replays": self.scoped_replays,
            "full_replays": self.full_replays,
            "stages_spliced": self.stages_spliced,
            "apply_p50_ms": _ms(self.latency.percentile(50)),
            "apply_p99_ms": _ms(self.latency.percentile(99)),
        }


class RouterMetrics:
    """Router-tier counters: what the front door did with each request.

    ``forwarded`` counts queries relayed to a worker; ``replica_hits``
    the subset served by a non-primary replica (read fan-out working);
    ``reads_steered`` the reads sent past the round-robin's turn
    because that worker had generation work in flight;
    ``shed_router`` requests refused *at the router* because the target
    worker's reported queue depth crossed the shed watermark — the
    backpressure propagation path; ``swaps_shipped`` generation swaps
    relayed to replicas by snapshot digest, with their ship+adopt
    latency in ``swap_latency``.
    """

    def __init__(self, reservoir: int = 8192):
        self.forwarded = 0
        self.replica_hits = 0
        self.reads_steered = 0
        self.shed_router = 0
        self.updates = 0
        self.swaps_shipped = 0
        self.patches_fanned = 0
        self.depth_polls = 0
        self.worker_errors = 0
        self.latency = LatencyReservoir(reservoir)
        self.swap_latency = LatencyReservoir(256)

    def snapshot(self) -> Dict:
        return {
            "forwarded": self.forwarded,
            "replica_hits": self.replica_hits,
            "reads_steered": self.reads_steered,
            "shed_router": self.shed_router,
            "updates": self.updates,
            "swaps_shipped": self.swaps_shipped,
            "patches_fanned": self.patches_fanned,
            "depth_polls": self.depth_polls,
            "worker_errors": self.worker_errors,
            "forward_p50_ms": _ms(self.latency.percentile(50)),
            "forward_p99_ms": _ms(self.latency.percentile(99)),
            "swap_p50_ms": _ms(self.swap_latency.percentile(50)),
            "swap_p99_ms": _ms(self.swap_latency.percentile(99)),
        }


class SupervisorMetrics:
    """Self-healing counters: what the supervisor did to keep the
    fleet serving.

    ``deaths_detected`` counts suspicion events (sentinel death, failed
    heartbeat, or a data-path disconnect reported by the router);
    ``restarts`` full process respawns and ``links_healed`` severed
    connections re-dialled without a respawn; ``failovers`` writes
    retried onto a promoted replica after the acting primary dropped
    mid-request; ``read_retries`` pure reads transparently re-sent to
    another live replica; ``resyncs`` stale replicas re-aligned from
    the generation ledger (snapshot re-adopt + patch-log replay).
    ``recovery`` holds per-incident time-to-recovery (suspicion →
    back in the read rotation), and ``degraded_s`` their sum — the
    total wall time any worker spent out of rotation.
    """

    def __init__(self, reservoir: int = 256):
        self.deaths_detected = 0
        self.restarts = 0
        self.evictions = 0
        self.failovers = 0
        self.read_retries = 0
        self.resyncs = 0
        self.links_healed = 0
        self.degraded_s = 0.0
        self.recovery = LatencyReservoir(reservoir)

    def snapshot(self) -> Dict:
        return {
            "deaths_detected": self.deaths_detected,
            "restarts": self.restarts,
            "evictions": self.evictions,
            "failovers": self.failovers,
            "read_retries": self.read_retries,
            "resyncs": self.resyncs,
            "links_healed": self.links_healed,
            "degraded_s": round(self.degraded_s, 3),
            "recovery_p50_s": _s(self.recovery.percentile(50)),
            "recovery_p99_s": _s(self.recovery.percentile(99)),
        }


def _s(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds, 3)


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1e3, 3)


def now() -> float:
    return time.perf_counter()
