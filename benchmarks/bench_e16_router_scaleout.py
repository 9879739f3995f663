"""E16 — router scale-out: N worker processes behind one front door.

The horizontal-scaling claim behind the S22 router tier: the same
instance mix served by the single-process S19 service (the E13
configuration, over TCP) scales across worker *processes* — placement
by rendezvous hashing, reads fanned over replicas, one oracle build
shipped to every replica as a digest-addressed mmap snapshot — while a
structure-changing update lands mid-storm as a zero-downtime
generation swap.

Acceptance bars:

* bit-identity **pre-timing**: the router fleet answers exactly what
  the single-process service answers (generation 0), and after the
  mid-storm rebuild exactly what a locally rebuilt oracle answers
  (generation 1);
* aggregate router throughput >= ``min(4, cores/2)``x the
  single-process baseline on the same instance mix (the floor self-
  scales: on a 1-core runner the fleet can't beat the GIL, it must
  merely stay within 2x of the baseline; on >= 8 cores it must win
  4x), relaxed by 0.6 under ``REPRO_BENCH_QUICK`` for shared runners;
* the live update completes with ZERO failed queries — nothing sheds
  or errors because of the swap;
* the swap is *shipped*, not recomputed: the router's
  ``swaps_shipped`` counter equals replicas - 1 and the workers report
  matching generations.
"""

import asyncio
import os
import time

from repro.analysis import render_table
from repro.graph.generators import known_mst_instance
from repro.oracle import build_oracle
from repro.service import (
    InstanceUpdater,
    RouterConfig,
    RouterTier,
    SensitivityService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.loadgen import make_plan, run_tcp

try:  # direct `python benchmarks/bench_e16_...py` runs
    from common import QUICK, emit_json, scaled, timed
except ImportError:  # pragma: no cover - path set up by pytest otherwise
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from common import QUICK, emit_json, scaled, timed

N = scaled(1024)
EXTRA_M = 2 * N
SHAPES = ("random", "power_law")
TOTAL_QUERIES = 8_000 if QUICK else 40_000
CLIENTS = 4
PIPELINE_DEPTH = 64
SHARDS = 2
CORES = os.cpu_count() or 1
WORKERS = max(2, min(4, CORES))
IDENTITY_STRIDE = 17  # every 17th edge is probed for bit-identity

#: Acceptance floor for aggregate scale-out vs the single process.
FLOOR = min(4.0, CORES / 2)
if QUICK:
    FLOOR *= 0.6


def _graphs():
    out = {}
    for i, shape in enumerate(SHAPES):
        g, _ = known_mst_instance(shape, N, extra_m=EXTRA_M, rng=31 + i)
        out[shape] = g
    return out


async def _probe(host, port, edges_by_instance):
    """One serial client reading sensitivity answers + generations."""
    client = await ServiceClient.connect(host, port)
    out = {}
    try:
        for name, edges in edges_by_instance.items():
            for e in edges:
                resp = await client.call("sensitivity", instance=name,
                                         edge=int(e))
                assert resp["ok"], resp
                out[(name, int(e))] = (resp["result"], resp["generation"])
    finally:
        await client.close()
    return out


async def _baseline(graphs, plan):
    """Single-process S19 service over TCP — the E13 configuration."""
    svc = SensitivityService(ServiceConfig(
        shards=SHARDS, max_batch=512, queue_depth=1 << 15, port=0))
    for shape, g in graphs.items():
        svc.add_instance(shape, g)
    await svc.start(serve_tcp=True)
    host, port = svc.tcp_address
    edges = {s: range(0, g.m, IDENTITY_STRIDE) for s, g in graphs.items()}
    answers = await _probe(host, port, edges)
    stats = await run_tcp(host, port, plan, clients=CLIENTS,
                          pipeline=PIPELINE_DEPTH)
    await svc.stop()
    assert stats.errors == 0, "baseline run must be clean"
    return stats, answers


async def _scaleout(graphs, plan, expected0, upd_edge, expected1):
    """Router + WORKERS processes: identity, storm + live swap, counters."""
    rt = RouterTier(RouterConfig(
        workers=WORKERS, replication=2, shards=SHARDS, max_batch=512,
        queue_depth=1 << 15, port=0))
    await rt.start(serve_tcp=True)
    swap_report = {}
    try:
        for shape, g in graphs.items():
            await rt.add_instance(shape, g)
        host, port = rt.tcp_address

        # bit-identity, pre-timing: the fleet IS the baseline service
        edges = {s: range(0, g.m, IDENTITY_STRIDE)
                 for s, g in graphs.items()}
        answers = await _probe(host, port, edges)
        assert answers == expected0, (
            "router fleet answers diverge from the single-process "
            "service at generation 0")

        async def storm():
            return await run_tcp(host, port, plan, clients=CLIENTS,
                                 pipeline=PIPELINE_DEPTH)

        async def live_swap():
            await asyncio.sleep(0.1)
            t0 = time.perf_counter()
            resp = await rt.update({"op": "update", "instance": "random",
                                    "edge": upd_edge, "weight": 1e-6})
            swap_report.update(resp, wall_s=time.perf_counter() - t0)
            return resp

        stats, upd = await asyncio.gather(storm(), live_swap())
        assert stats.errors == 0, (
            f"{stats.errors} queries failed across the generation swap")
        assert upd["action"] == "rebuilt" and upd["generation"] == 1
        assert all(s["ok"] for s in upd["shipped_to"])

        # bit-identity after the swap, against a local rebuild
        post = await _probe(
            host, port, {"random": range(0, graphs["random"].m,
                                         IDENTITY_STRIDE)})
        for (name, e), (val, gen) in post.items():
            assert gen == 1, f"{name}#{e} still serving generation {gen}"
            assert val == expected1[e], f"gen-1 divergence at edge {e}"

        metrics = await rt.router_metrics()
    finally:
        await rt.stop()
    return stats, metrics, swap_report


def _sweep():
    graphs = _graphs()
    plan = make_plan({s: g.m for s, g in graphs.items()},
                     TOTAL_QUERIES, seed=7)

    base_stats, expected0 = asyncio.run(_baseline(graphs, plan))

    # pick the rebuild-forcing update and its ground truth up front
    g = graphs["random"]
    ref0 = build_oracle(g)
    upd_edge = next(e for e in range(g.m_tree)
                    if InstanceUpdater("probe", g, ref0).classify(e, 1e-6)
                    == "rebuilt")
    g2 = g.copy()
    g2.w[upd_edge] = 1e-6
    expected1 = [float(x) for x in build_oracle(g2).sens]

    scale_stats, metrics, swap = asyncio.run(
        _scaleout(graphs, plan, expected0, upd_edge, expected1))

    speedup = scale_stats.qps / base_stats.qps if base_stats.qps else 0.0
    r = metrics["router"]
    rows = [
        ("single process (E13 cfg)", 1, TOTAL_QUERIES,
         round(base_stats.wall_s, 3), f"{base_stats.qps:,.0f}", "-", "-"),
        (f"router x {WORKERS} workers", WORKERS, TOTAL_QUERIES,
         round(scale_stats.wall_s, 3), f"{scale_stats.qps:,.0f}",
         r["replica_hits"], r["swaps_shipped"]),
        ("live swap (rebuild + ship)", "-", 1,
         round(swap.get("wall_s", 0.0), 3), "-", "-",
         swap.get("snapshot_digest", "")[:16]),
    ]
    stats = {
        "baseline_qps": base_stats.qps,
        "scaleout_qps": scale_stats.qps,
        "speedup": speedup,
        "router": r,
        "swap_generation": swap.get("generation"),
        "swap_wall_s": swap.get("wall_s"),
        "storm_errors": scale_stats.errors,
        "storm_shed": scale_stats.shed,
    }
    return rows, stats


def _check(stats):
    assert stats["storm_errors"] == 0
    assert stats["swap_generation"] == 1
    assert stats["router"]["swaps_shipped"] == 1  # replication 2: 1 ship
    assert stats["router"]["shed_router"] == 0, (
        "router shed during the storm — swap-attributable backpressure")
    assert stats["speedup"] >= FLOOR, (
        f"scale-out {stats['speedup']:.2f}x below the "
        f"min(4, cores/2) floor {FLOOR:.2f}x on {CORES} core(s) "
        f"(baseline {stats['baseline_qps']:,.0f} qps, "
        f"fleet {stats['scaleout_qps']:,.0f} qps)"
    )


HEADERS = ["mode", "workers", "queries", "wall (s)", "throughput",
           "replica hits", "swaps shipped"]


def test_e16_table(table_sink, benchmark):
    with timed() as t:
        rows, stats = _sweep()
    emit_json(
        "E16",
        {"n": N, "extra_m": EXTRA_M, "shapes": list(SHAPES),
         "queries": TOTAL_QUERIES, "shards": SHARDS, "workers": WORKERS,
         "clients": CLIENTS, "pipeline_depth": PIPELINE_DEPTH,
         "cores": CORES, "floor": round(FLOOR, 2)},
        HEADERS, rows, wall_s=t.wall_s,
        baseline_qps=stats["baseline_qps"],
        scaleout_qps=stats["scaleout_qps"],
        speedup=round(stats["speedup"], 3),
        swap_wall_s=round(stats["swap_wall_s"], 4),
        router=stats["router"],
    )
    _check(stats)
    table_sink(
        f"E16: router scale-out, {WORKERS} workers x {SHARDS} shards "
        f"(n={N}, {TOTAL_QUERIES:,} queries; {stats['speedup']:.2f}x "
        f"single-process, floor {FLOOR:.2f}x on {CORES} cores; "
        f"live swap in {stats['swap_wall_s']:.3f}s, 0 failed queries)",
        render_table(HEADERS, rows),
    )


if __name__ == "__main__":
    t0 = time.perf_counter()
    rows, stats = _sweep()
    print(render_table(HEADERS, rows))
    print(f"scale-out {stats['speedup']:.2f}x (floor {FLOOR:.2f}x on "
          f"{CORES} cores), swap {stats['swap_wall_s']:.3f}s, "
          f"wall {time.perf_counter() - t0:.1f}s")
    _check(stats)
    print("PASS")
