#!/usr/bin/env python
"""A live weight-update query service over two network backbones.

Scenario: a network operator re-prices links all day — fibre leases
change, congestion surcharges come and go — and a planning fleet keeps
asking the same questions: *does our spanning backbone remain the
minimum-cost one if this link is re-priced? what is the standby
replacement? how much headroom does a link have?*

This drives the real S19 serving stack end to end, in-process:

1. two instances (a random mesh and a grid fabric) are registered with
   a :class:`~repro.service.SensitivityService` — one Theorem 4.1
   precomputation each, then every query is O(1);
2. concurrent clients fire a mixed point-query stream; the service
   micro-batches them into vectorised oracle calls across edge-range
   shards;
3. committed re-pricings flow through the write path: an
   oracle-preserving one is patched in place with ZERO pipeline
   stages, a structure-changing one triggers an incremental rebuild —
   the weight-blind stages replay from the artifact cache — and the
   new oracle generation swaps in atomically under the live load.

Run:  python examples/weight_update_service.py
"""

import asyncio

import numpy as np

from repro import ServiceClient, SensitivityService, ServiceConfig
from repro import known_mst_instance
from repro.analysis import render_table
from repro.service.loadgen import make_plan, run_inprocess

N = 3000
EXTRA_M = 6000
TOTAL_QUERIES = 200_000
SHARDS = 3


async def main() -> None:
    service = SensitivityService(ServiceConfig(
        shards=SHARDS, max_batch=512, queue_depth=1 << 15,
    ))
    instances = {}
    for shape, seed in (("random", 41), ("grid", 42)):
        graph, _ = known_mst_instance(shape, n=N, extra_m=EXTRA_M, rng=seed)
        service.add_instance(shape, graph)
        instances[shape] = graph.m
        print(f"backbone {shape!r}: n={graph.n}, m={graph.m} "
              f"({graph.m_tree} links in the spanning backbone), "
              f"{SHARDS} shards")
    await service.start()
    client = ServiceClient(service, instance="random")

    # ---- the query stream ----------------------------------------------
    plan = make_plan(instances, TOTAL_QUERIES, seed=7)
    stats = await run_inprocess(service, plan, clients=8, pipeline=256)
    s = stats.summary()
    print(f"\nserved {s['answered']:,} weight-update queries in "
          f"{s['wall_s']:.2f}s ({s['qps']:,.0f} queries/s) across "
          f"{len(instances)} backbones, shed {s['shed']}")
    m = await client.metrics()
    occ = [sh["batch_occupancy"]
           for sh in m["instances"]["random"]["shards"]]
    p99 = max(sh["p99_ms"] for sh in m["instances"]["random"]["shards"])
    print(f"micro-batching: mean occupancy "
          f"{sum(occ) / len(occ):,.0f} queries/batch, p99 latency "
          f"{p99:.2f}ms")

    # ---- committed re-pricings through the write path ------------------
    inst = service.instances["random"]
    graph = inst.updater.graph
    oracle = inst.updater.oracle
    cover = oracle.covering_edges()

    # a standby link gets more expensive: nothing in the oracle moves
    e1 = int(np.flatnonzero(~graph.tree_mask & ~cover)[0])
    rep = await client.update(e1, float(graph.w[e1]) + 0.9)
    print(f"\nre-price standby link {graph.u[e1]}-{graph.v[e1]} "
          f"(+0.9): {rep['action']} — {rep['stages_executed']} pipeline "
          f"stages, {rep['verification_reruns']} verification stages "
          f"re-run, generation {rep['generation']}")

    # a covering minimiser moves: thresholds change, incremental rebuild
    e2 = int(np.flatnonzero(~graph.tree_mask & cover)[0])
    rep = await client.update(e2, float(graph.w[e2]) + 2.0)
    print(f"re-price covering link {graph.u[e2]}-{graph.v[e2]} "
          f"(+2.0): {rep['action']} — replayed "
          f"{rep['stages_cached']} cached stages, re-ran "
          f"{rep['stages_executed']} (generation {rep['generation']}, "
          f"{rep['wall_s'] * 1e3:.0f}ms, reads kept flowing)")

    # ---- a few point queries with explanations -------------------------
    oracle = inst.updater.oracle  # the swapped-in generation
    tree_idx = np.flatnonzero(graph.tree_mask)
    slack = oracle.sensitivity_bulk(tree_idx)
    finite = np.isfinite(slack)
    fragile = tree_idx[finite][np.argsort(slack[finite])[:4]]
    rows = []
    for e in fragile:
        e = int(e)
        f = await client.replacement_edge(e)
        rows.append((
            f"{graph.u[e]}-{graph.v[e]}",
            round(float(graph.w[e]), 4),
            round(await client.sensitivity(e), 4),
            f"{graph.u[f]}-{graph.v[f]}",
            round(float(graph.w[f]), 4),
        ))
    print("\nmost fragile backbone links and their standby replacements:")
    print(render_table(
        ["link", "price", "headroom", "replacement", "repl. price"], rows,
    ))

    e = int(fragile[0])
    thr = float(oracle.threshold[e])
    assert await client.survives(e, thr)
    assert not await client.survives(e, thr + 1e-6)
    print(f"link {graph.u[e]}-{graph.v[e]}: any price up to {thr:.4f} keeps "
          f"the backbone optimal; one tick above hands traffic to its "
          f"replacement")

    await service.stop()


if __name__ == "__main__":
    asyncio.run(main())
