"""E13 — service throughput: micro-batching, shards, update path.

The serving claim behind the S19 layer: point queries dispatched
through micro-batches amortise the per-dispatch cost into the oracle's
vectorised bulk kernels, so the *same* shard pool serves a multiple of
the batch-size-1 throughput — answers bit-identical in both modes. The
workload mixes three instance families (random / grid / power_law)
behind one service, driven by pipelined in-process clients. No batch
waits on a timer: a batch is whatever queued while the loop was busy,
so the occupancy below is formed by load alone.

Acceptance bars:

* batched throughput >= 5x batch-size-1 on the same shard count
  (relaxed to 2x under ``REPRO_BENCH_QUICK`` — shared CI runners make
  wall-clock ratios noisy at smoke sizes);
* the batched run's occupancy (queries per dispatch) >= 64 — a count,
  so the gate is portable across runners;
* an oracle-preserving weight update completes with ZERO pipeline
  stages (and zero verification-stage re-runs);
* a structure-changing update rebuilds incrementally: the six
  weight-blind stages (validate→lca) replay from the artifact cache,
  only the weight-reading suffix re-runs.
"""

import asyncio
import time

import numpy as np

from repro.analysis import render_table
from repro.graph.generators import known_mst_instance
from repro.service import SensitivityService, ServiceConfig
from repro.service.loadgen import make_plan, run_inprocess

try:  # direct `python benchmarks/bench_e13_...py` runs
    from common import QUICK, emit_json, scaled, timed
except ImportError:  # pragma: no cover - path set up by pytest otherwise
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from common import QUICK, emit_json, scaled, timed

N = scaled(2048)
EXTRA_M = 2 * N
SHAPES = ("random", "grid", "power_law")
TOTAL_QUERIES = 30_000 if QUICK else 120_000
CLIENTS = 6
PIPELINE_DEPTH = 512
SHARDS = 2

#: Acceptance floor for the micro-batching throughput multiple.
MIN_SPEEDUP = 2.0 if QUICK else 5.0
#: Acceptance floor for the batched run's queries per dispatch.
MIN_OCCUPANCY = 64


def _build_service(max_batch):
    cfg = ServiceConfig(shards=SHARDS, max_batch=max_batch,
                        queue_depth=1 << 15)
    svc = SensitivityService(cfg)
    for i, shape in enumerate(SHAPES):
        g, _ = known_mst_instance(shape, N, extra_m=EXTRA_M, rng=31 + i)
        svc.add_instance(shape, g)
    return svc


async def _throughput(max_batch, plan):
    svc = _build_service(max_batch)
    await svc.start()
    stats = await run_inprocess(svc, plan, clients=CLIENTS,
                                pipeline=PIPELINE_DEPTH)
    metrics = svc.metrics()
    await svc.stop()
    assert stats.errors == 0 and stats.shed == 0
    assert stats.answered == len(plan)
    return stats, metrics


async def _update_path():
    """Drive both write-path classes; return their reports."""
    svc = _build_service(512)
    await svc.start()
    inst = svc.instances["random"]
    oracle = inst.updater.oracle
    graph = inst.updater.graph
    cover = oracle.covering_edges()
    preserving_e = int(np.flatnonzero(~graph.tree_mask & ~cover)[0])
    changing_e = int(np.flatnonzero(~graph.tree_mask & cover)[0])
    rep_a = await svc.update(preserving_e,
                             float(graph.w[preserving_e]) + 1.0,
                             instance="random")
    rep_b = await svc.update(changing_e,
                             float(graph.w[changing_e]) + 2.0,
                             instance="random")
    # sample identity: the swapped-in oracle answers match a fresh build
    sample = await svc.query("sensitivity", changing_e, instance="random")
    await svc.stop()
    assert sample["ok"] and sample["generation"] == 1
    return rep_a, rep_b


def _sweep():
    instances = {}
    for i, shape in enumerate(SHAPES):
        g, _ = known_mst_instance(shape, N, extra_m=EXTRA_M, rng=31 + i)
        instances[shape] = g.m
    plan = make_plan(instances, TOTAL_QUERIES, seed=7)

    point_stats, point_metrics = asyncio.run(_throughput(1, plan))
    batch_stats, batch_metrics = asyncio.run(_throughput(512, plan))
    rep_a, rep_b = asyncio.run(_update_path())

    speedup = batch_stats.qps / point_stats.qps

    def occupancy(metrics):
        snaps = [s for inst in metrics["instances"].values()
                 for s in inst["shards"]]
        q = sum(s["queries"] for s in snaps)
        b = sum(s["batches"] for s in snaps)
        return q / b if b else 0.0

    rows = [
        ("batch-size-1", 1, TOTAL_QUERIES,
         round(point_stats.wall_s, 3), f"{point_stats.qps:,.0f}",
         round(occupancy(point_metrics), 1)),
        ("micro-batched", 512, TOTAL_QUERIES,
         round(batch_stats.wall_s, 3), f"{batch_stats.qps:,.0f}",
         round(occupancy(batch_metrics), 1)),
        ("update: preserving", "-", 1, round(rep_a["wall_s"], 4),
         f"stages {rep_a['stages_executed']}", "-"),
        ("update: rebuild", "-", 1, round(rep_b["wall_s"], 4),
         f"stages {rep_b['stages_executed']} "
         f"(cached {rep_b['stages_cached']})", "-"),
    ]
    stats = {
        "point_qps": point_stats.qps,
        "batched_qps": batch_stats.qps,
        "speedup": speedup,
        "occupancy": occupancy(batch_metrics),
        "preserving_update": rep_a,
        "rebuild_update": rep_b,
    }
    return rows, stats


def _check(stats):
    assert stats["speedup"] >= MIN_SPEEDUP, (
        f"micro-batching speedup {stats['speedup']:.2f}x below "
        f"{MIN_SPEEDUP}x (point {stats['point_qps']:,.0f} qps, "
        f"batched {stats['batched_qps']:,.0f} qps)"
    )
    assert stats["occupancy"] >= MIN_OCCUPANCY, (
        f"micro-batch occupancy {stats['occupancy']:.1f} below "
        f"{MIN_OCCUPANCY} queries per dispatch"
    )
    a = stats["preserving_update"]
    assert a["action"] == "patched"
    assert a["stages_executed"] == 0, a
    assert a["verification_reruns"] == 0, a
    b = stats["rebuild_update"]
    assert b["action"] == "rebuilt"
    assert b["stages_cached"] == 6, b      # validate→lca replayed
    assert b["stages_executed"] == 8, b    # weight-reading suffix only
    assert b["verification_reruns"] == 4, b


HEADERS = ["mode", "max batch", "ops", "wall (s)", "throughput",
           "batch occupancy"]


def test_e13_table(table_sink, benchmark):
    with timed() as t:
        rows, stats = _sweep()
    emit_json(
        "E13",
        {"n": N, "extra_m": EXTRA_M, "shapes": list(SHAPES),
         "queries": TOTAL_QUERIES, "shards": SHARDS,
         "clients": CLIENTS, "pipeline_depth": PIPELINE_DEPTH,
         "min_occupancy": MIN_OCCUPANCY},
        HEADERS, rows, wall_s=t.wall_s,
        point_qps=stats["point_qps"], batched_qps=stats["batched_qps"],
        speedup=round(stats["speedup"], 2),
        occupancy=round(stats["occupancy"], 1),
        preserving_update=stats["preserving_update"],
        rebuild_update=stats["rebuild_update"],
    )
    _check(stats)

    async def _bench_round():
        instances = {s: N - 1 + EXTRA_M for s in SHAPES}
        plan = make_plan(instances, 20_000, seed=9)
        await _throughput(512, plan)

    benchmark.pedantic(lambda: asyncio.run(_bench_round()),
                       rounds=1, iterations=1)
    table_sink(
        f"E13: service throughput, {len(SHAPES)} instances x {SHARDS} "
        f"shards (n={N}, {TOTAL_QUERIES:,} mixed queries; micro-batching "
        f"{stats['speedup']:.1f}x over batch-size-1)",
        render_table(HEADERS, rows),
    )


if __name__ == "__main__":
    t0 = time.perf_counter()
    rows, stats = _sweep()
    print(render_table(HEADERS, rows))
    print(f"speedup {stats['speedup']:.2f}x (floor {MIN_SPEEDUP}x), "
          f"occupancy {stats['occupancy']:.1f} (floor {MIN_OCCUPANCY}), "
          f"wall {time.perf_counter() - t0:.1f}s")
    _check(stats)
    print("PASS")
