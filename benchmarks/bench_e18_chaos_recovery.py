"""E18 — chaos recovery: kill a replica mid-storm, lose nothing.

The self-healing claim behind the S24 supervision layer: a router
fleet under a full query storm survives the SIGKILL of the *primary*
replica of its instance with **zero failed read queries** (reads are
pure, so mid-request disconnects retry transparently on the live
replica), writes keep landing throughout via primary failover, and the
killed worker respawns, catches up from the generation ledger (latest
snapshot + patch-log replay) and re-enters rotation bit-identical to
the fleet that never died.

The kill is injected through the router's own deterministic chaos
harness (the ``chaos`` wire op, ``kill:W@T``) — the benchmark
dogfoods the same fault path CI's chaos-smoke job uses.

Acceptance bars:

* the storm completes with ZERO transport errors across the kill, the
  failover rebuild, and the respawn;
* both writes fired during the outage succeed: the structural rebuild
  fails over to the promoted replica (``failovers >= 1``) and the
  follow-up re-pricing patches, landing in the ledger's patch log;
* the killed worker respawns (``restarts >= 1``) and time-to-recovery
  p99 stays under ``RECOVERY_BOUND_S``;
* post-recovery, EVERY worker (including the respawned one) answers
  the ledger's latest generation bit-identical to a locally rebuilt +
  locally patched reference oracle.
"""

import asyncio
import os
import time

from repro.analysis import render_table
from repro.graph.generators import known_mst_instance
from repro.oracle import build_oracle
from repro.service import InstanceUpdater, RouterConfig, RouterTier
from repro.service.loadgen import LoadStats, make_plan, run_tcp

try:  # direct `python benchmarks/bench_e18_...py` runs
    from common import QUICK, emit_json, scaled, timed
except ImportError:  # pragma: no cover - path set up by pytest otherwise
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from common import QUICK, emit_json, scaled, timed

N = scaled(768)
EXTRA_M = 2 * N
TOTAL_QUERIES = 4_000 if QUICK else 20_000
CLIENTS = 4
PIPELINE_DEPTH = 32
SHARDS = 2
WORKERS = 3
REPLICATION = 2
KILL_AT_S = 0.4          #: chaos plan: SIGKILL the primary this far in
WRITE_AT_S = 0.6         #: first write fired while the primary is down
IDENTITY_STRIDE = 13     #: every 13th edge probed for bit-identity
RECOVERY_BOUND_S = 60.0  #: time-to-recovery p99 ceiling (shared runners)


def _references(g):
    """Ground truth for both mid-outage writes, computed up front.

    The storm fires (1) a rebuild-forcing tree re-pricing — served by
    the *promoted* replica, since the primary is dead — then (2) a
    threshold-preserving non-tree re-pricing on the new generation.
    The ledger afterwards reads "generation 1 snapshot + one patch",
    which is exactly what the respawned worker must adopt and replay.
    """
    ref0 = build_oracle(g)
    probe0 = InstanceUpdater("probe0", g, ref0)
    rebuild_edge = next(e for e in range(g.m_tree)
                        if probe0.classify(e, 1e-6) == "rebuilt")
    g1 = g.copy()
    g1.w[rebuild_edge] = 1e-6
    ref1 = build_oracle(g1)
    probe1 = InstanceUpdater("probe1", g1, ref1)
    patch_edge = next(
        e for e in range(g.m) if not ref1.tree_mask[e]
        and probe1.classify(e, float(ref1.w[e]) + 5.0) == "patched")
    patch_w = float(ref1.w[patch_edge]) + 5.0
    final = build_oracle(g1)
    final.reprice(patch_edge, patch_w)
    return rebuild_edge, patch_edge, patch_w, final


async def _sweep_async():
    g, _ = known_mst_instance("random", N, extra_m=EXTRA_M, rng=37)
    rebuild_edge, patch_edge, patch_w, final = _references(g)
    plan = make_plan({"random": g.m}, TOTAL_QUERIES, seed=9)

    rt = RouterTier(RouterConfig(
        workers=WORKERS, replication=REPLICATION, shards=SHARDS,
        max_batch=512, queue_depth=1 << 15,
        port=0, heartbeat_s=0.05, restart_backoff_s=0.01,
        read_retry_deadline_s=30.0))
    await rt.start(serve_tcp=True)
    writes = {}
    try:
        await rt.add_instance("random", g)
        placed = rt.instances["random"]
        victim = rt.workers[placed.replicas[0]]  # the canonical primary
        host, port = rt.tcp_address

        # arm the kill through the wire op — the same path loadgen
        # --chaos and the CI chaos-smoke job exercise
        armed = await rt.handle_request(
            {"op": "chaos", "spec": f"kill:{victim.worker_id}@{KILL_AT_S}"})
        assert armed["ok"] and armed["result"]["events"] == 1

        sup = rt.supervisor

        def _recovered():
            return (sup.metrics.restarts >= 1 and not sup._recovering
                    and all(w.up and not w.stale
                            for w in rt.workers.values()))

        async def storm():
            # drive query plans back-to-back until the fleet has fully
            # recovered, so the zero-failed-reads gate provably spans
            # the kill, the failover writes, the respawn, and the
            # ledger catch-up — not just the first plan's wall-clock
            parts = []
            start = time.perf_counter()
            deadline = start + 120.0
            while True:
                parts.append(await run_tcp(host, port, plan,
                                           clients=CLIENTS,
                                           pipeline=PIPELINE_DEPTH))
                if _recovered() or time.perf_counter() >= deadline:
                    merged = LoadStats.merge(parts)
                    # sequential parts: the wall is the whole window,
                    # not the longest part (merge assumes concurrency)
                    merged.wall_s = time.perf_counter() - start
                    return merged

        async def outage_writes():
            await asyncio.sleep(WRITE_AT_S)
            t0 = time.perf_counter()
            rebuilt = await rt.update(
                {"op": "update", "instance": "random",
                 "edge": rebuild_edge, "weight": 1e-6})
            patched = await rt.update(
                {"op": "update", "instance": "random",
                 "edge": patch_edge, "weight": patch_w})
            writes.update(rebuilt=rebuilt, patched=patched,
                          wall_s=time.perf_counter() - t0)

        t0 = time.perf_counter()
        stats, _ = await asyncio.gather(storm(), outage_writes())
        storm_wall = time.perf_counter() - t0

        assert stats.errors == 0, (
            f"{stats.errors} read queries failed across the kill")
        assert writes["rebuilt"]["action"] == "rebuilt"
        assert writes["rebuilt"]["generation"] == 1
        assert writes["patched"]["action"] == "patched"
        assert rt._injectors[-1].fired == [
            f"kill:{victim.worker_id}@{KILL_AT_S:.2f}"]

        # the storm only ends once recovery finished (or its deadline
        # passed — which is a failure)
        assert _recovered(), (
            f"fleet did not recover within the storm deadline: "
            f"{sup.metrics.snapshot()}")
        assert stats.wall_s > KILL_AT_S, (
            "storm ended before the kill fired — the gate was vacuous")

        # post-recovery: every worker (respawned one included) answers
        # the ledger's generation, bit-identical to the local reference
        entry = sup.ledger.latest("random")
        assert entry.generation == 1
        assert entry.patches == [(patch_edge, patch_w)]
        hosted = [rt.workers[wid] for wid in placed.replicas]
        assert victim in hosted
        for w in hosted:
            for e in range(0, g.m, IDENTITY_STRIDE):
                r = await w.control.request(
                    {"op": "sensitivity", "instance": "random",
                     "edge": e})
                assert r["ok"], (w.worker_id, e, r)
                assert r["generation"] == entry.generation
                assert r["result"] == float(final.sens[e]), (
                    f"worker {w.worker_id} diverged at edge {e} "
                    f"after recovery")

        metrics = await rt.router_metrics()
    finally:
        await rt.stop()
    return stats, storm_wall, writes, metrics


def _sweep():
    stats, storm_wall, writes, metrics = asyncio.run(_sweep_async())
    sup = metrics["supervisor"]
    rows = [
        ("storm across the kill", stats.sent,
         round(stats.wall_s, 3), f"{stats.qps:,.0f}", stats.errors,
         stats.shed),
        ("outage writes (rebuild + patch)", 2,
         round(writes["wall_s"], 3), "-",
         0 if writes["rebuilt"]["ok"] and writes["patched"]["ok"] else 1,
         "-"),
        ("recovery", sup["restarts"],
         sup["recovery_p99_s"], "-", "-", "-"),
    ]
    stats_out = {
        "storm_errors": stats.errors,
        "storm_shed": stats.shed,
        "storm_qps": stats.qps,
        "rebuild_generation": writes["rebuilt"].get("generation"),
        "failover_ok": bool(writes["rebuilt"].get("ok")
                            and writes["patched"].get("ok")),
        "supervisor": sup,
        "ledger": metrics["ledger"],
    }
    return rows, stats_out


def _check(stats):
    assert stats["storm_errors"] == 0, (
        "reads failed across the kill — retries must make the crash "
        "invisible to readers")
    assert stats["failover_ok"], "a write failed during the outage"
    assert stats["rebuild_generation"] == 1
    sup = stats["supervisor"]
    assert sup["restarts"] >= 1, "the killed worker never respawned"
    assert sup["failovers"] >= 1, (
        "the outage rebuild was not served by a promoted replica")
    assert sup["evictions"] == 0, "one crash must not evict the worker"
    assert sup["recovery_p99_s"] is not None
    assert sup["recovery_p99_s"] <= RECOVERY_BOUND_S, (
        f"time-to-recovery p99 {sup['recovery_p99_s']}s above the "
        f"{RECOVERY_BOUND_S:.0f}s bound")
    assert stats["ledger"]["random"]["generation"] == 1
    assert stats["ledger"]["random"]["patches"] == 1


HEADERS = ["phase", "count", "wall (s)", "throughput", "errors", "shed"]


def test_e18_table(table_sink, benchmark):
    with timed() as t:
        rows, stats = _sweep()
    emit_json(
        "E18",
        {"n": N, "extra_m": EXTRA_M, "queries": TOTAL_QUERIES,
         "workers": WORKERS, "replication": REPLICATION,
         "shards": SHARDS, "clients": CLIENTS,
         "pipeline_depth": PIPELINE_DEPTH, "kill_at_s": KILL_AT_S,
         "recovery_bound_s": RECOVERY_BOUND_S},
        HEADERS, rows, wall_s=t.wall_s,
        storm_qps=stats["storm_qps"],
        storm_errors=stats["storm_errors"],
        supervisor=stats["supervisor"],
        ledger=stats["ledger"],
    )
    _check(stats)
    sup = stats["supervisor"]
    table_sink(
        f"E18: chaos recovery, primary SIGKILLed at {KILL_AT_S}s of a "
        f"{TOTAL_QUERIES:,}-query storm ({WORKERS} workers, "
        f"replication {REPLICATION}; 0 failed reads, "
        f"{sup['restarts']} respawn(s), {sup['failovers']} failover(s), "
        f"recovery p99 {sup['recovery_p99_s']}s, post-recovery answers "
        f"bit-identical)",
        render_table(HEADERS, rows),
    )


if __name__ == "__main__":
    t0 = time.perf_counter()
    rows, stats = _sweep()
    print(render_table(HEADERS, rows))
    sup = stats["supervisor"]
    print(f"0 failed reads, {sup['restarts']} respawn(s), "
          f"{sup['failovers']} failover(s), recovery p99 "
          f"{sup['recovery_p99_s']}s, wall {time.perf_counter() - t0:.1f}s")
    _check(stats)
    print("PASS")
