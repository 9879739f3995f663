"""``repro.service`` — the sharded, micro-batching query service (S19).

The serving layer the oracle was built for: a long-lived asyncio
process that answers ``sensitivity`` / ``survives`` /
``replacement_edge`` / ``entry_threshold`` point queries over one or
many graph instances, micro-batched into the oracle's vectorised bulk
kernels, sharded by edge range, and *updateable* — committed weight
re-pricings are triaged against the oracle's own thresholds into
in-place patches or incremental pipeline rebuilds with an atomic
generation swap. See DESIGN.md §"S19 service layer".

The router tier (S22) scales this horizontally: :class:`RouterTier`
owns the public TCP listener, places instances onto N worker
processes by rendezvous hashing (:class:`Placement`), fans reads out
over replicas, propagates backpressure, and ships rebuilt generations
to replicas as digest-addressed snapshot files instead of repeating
the rebuild. See DESIGN.md §6.2.

The streaming tier (S23) makes the graphs *dynamic*: clients stream
batched structural ops (``add_edge`` / ``remove_edge`` / re-pricings,
wire op ``update_batch``) through a per-instance
:class:`StreamIngestor` that bounds, coalesces and classifies each
batch; non-tree-only batches replay only the per-edge stages' delta
rows against subgraph-scoped fingerprints, and each applied batch is
one atomic generation swap (re-sharded for the new edge count, shipped
to replicas unchanged). See DESIGN.md §6.3.

The supervision layer (S24) makes the router tier *self-healing*:
a :class:`Supervisor` detects worker death (process sentinels +
heartbeats), re-dials severed links, respawns crashes under a bounded
:class:`RestartPolicy`, and gates every rejoin behind catch-up from a
:class:`GenerationLedger` (latest snapshot + patch-log replay), while
reads retry on live replicas and writes fail over to a promoted
replica. :mod:`repro.service.chaos` injects deterministic, seeded
faults (``--chaos`` / the ``chaos`` wire op) so recovery is CI-tested.
See DESIGN.md §6.4.

The wire layer (S25) removes the data plane's serialisation tax: a
versioned binary columnar protocol (:mod:`repro.service.wire`) rides
the *same* TCP ports — the first byte of a connection disambiguates —
with fixed 16-byte point frames, a per-connection ``hello`` symbol
handshake (:class:`WireSymbols`) and a JSON *escape frame* for control
ops. Inside the fleet it is the only
format: the router relays binary frames with zero JSON parser
invocations (header peek + byte counting), packs JSON-door queries into
the same frames, and sends control ops and telemetry as escape frames;
:class:`WireMetrics` counters prove it. See DESIGN.md §6.5.

Entry points: ``python -m repro serve`` / ``python -m repro route``
(TCP JSON-lines + binary wire), :class:`ServiceClient` (in-process or
TCP, ``wire_mode="binary"``), :mod:`repro.service.loadgen`
(``--wire binary``).
"""

from .batching import QUERY_OPS, MicroBatcher, ServiceOverloaded
from .chaos import ChaosEvent, ChaosInjector, ChaosPlan
from .metrics import (LatencyReservoir, RouterMetrics, ShardMetrics,
                      StreamMetrics, SupervisorMetrics, UpdateMetrics,
                      merged_latency)
from .placement import Placement
from .router import BinaryWorkerLink, RouterConfig, RouterTier
from .server import SensitivityService, ServiceClient, ServiceConfig
from .wire import WIRE_VERSION, WireError, WireMetrics, WireSymbols
from .shards import OracleShard, ShardSpec, plan_shards, route
from .streaming import StreamIngestor
from .supervision import (GenerationLedger, LedgerEntry, RestartPolicy,
                          Supervisor)
from .updates import BatchReport, InstanceUpdater, UpdateReport
from .worker_proc import WorkerService, worker_entry

__all__ = [
    "QUERY_OPS",
    "MicroBatcher",
    "ServiceOverloaded",
    "ChaosEvent",
    "ChaosInjector",
    "ChaosPlan",
    "LatencyReservoir",
    "RouterMetrics",
    "ShardMetrics",
    "StreamMetrics",
    "SupervisorMetrics",
    "UpdateMetrics",
    "merged_latency",
    "Placement",
    "GenerationLedger",
    "LedgerEntry",
    "RestartPolicy",
    "Supervisor",
    "BinaryWorkerLink",
    "RouterConfig",
    "RouterTier",
    "WIRE_VERSION",
    "WireError",
    "WireMetrics",
    "WireSymbols",
    "SensitivityService",
    "ServiceClient",
    "ServiceConfig",
    "OracleShard",
    "ShardSpec",
    "plan_shards",
    "route",
    "StreamIngestor",
    "InstanceUpdater",
    "BatchReport",
    "UpdateReport",
    "WorkerService",
    "worker_entry",
]
