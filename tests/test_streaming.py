"""S23 streaming dynamic-graph subsystem: batches, splices, generations.

The load-bearing claims:

* ``InstanceUpdater.apply_batch`` is *bit-identical* to a cold rebuild
  from an empty store after any batch — non-tree-only batches take the
  spliced scoped path, tree-affecting ones replay honestly, and both
  must produce the exact oracle a fresh pipeline run would;
* ``classify`` handles its boundary cases (bridge tree edges, a
  non-tree edge lowered exactly onto its path-max, no-ops on covering
  minimisers) the way a brute-force rebuild says it must;
* out-of-range wire edge ids are a structured ``bad_request``, not an
  ``IndexError`` (satellite: hardened write path);
* re-publishing an identical snapshot is a no-op rename — same digest,
  same path, nothing unlinked (satellite: content-addressed handoff);
* the :class:`StreamIngestor` coalesces concurrent wire requests into
  one generation swap, sheds past ``depth``, and keeps serving reads
  that are bit-consistent with the generation they report.
"""

import asyncio
import os
import threading
import time

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.graph.generators import known_mst_instance
from repro.oracle import SensitivityOracle
from repro.pipeline import ArtifactStore, run_sensitivity
from repro.service import (
    InstanceUpdater,
    OracleShard,
    SensitivityService,
    ServiceClient,
    ServiceConfig,
    StreamIngestor,
    plan_shards,
)
from repro.service.supervision import STOP_DEADLINE_S


def run(coro):
    return asyncio.run(coro)


def make_graph(n=240, seed=11, shape="random"):
    g, _ = known_mst_instance(shape, n, extra_m=2 * n, rng=seed)
    return g


async def started_service(graph, name="default", **cfg_kw):
    cfg_kw.setdefault("shards", 3)
    svc = SensitivityService(ServiceConfig(**cfg_kw))
    svc.add_instance(name, graph)
    await svc.start()
    return svc


def cold_oracle(g):
    """Brute-force reference: full pipeline from an empty store."""
    result, _run = run_sensitivity(g, engine="local", oracle_labels=True,
                                   store=ArtifactStore())
    return SensitivityOracle.from_result(g, result)


def assert_oracle_identical(a, b):
    np.testing.assert_array_equal(a.w, b.w)
    np.testing.assert_array_equal(a.tree_mask, b.tree_mask)
    np.testing.assert_array_equal(a.threshold, b.threshold)
    np.testing.assert_array_equal(a.sens, b.sens)
    np.testing.assert_array_equal(a.cover_edge, b.cover_edge)


def make_shards(up, k=2):
    specs = plan_shards(up.graph.m, k)
    return [OracleShard(spec, orc, generation=up.generation)
            for spec, orc in zip(specs, up.shard_oracles(len(specs)))]


def heavy_ops(g, k):
    hi = float(g.w.max())
    return [{"kind": "add", "u": j % g.n, "v": (j * 7 + 1) % g.n
             if (j * 7 + 1) % g.n != j % g.n else (j + 1) % g.n,
             "weight": hi + 1 + j} for j in range(k)]


class TestApplyBatchBitIdentity:
    """The tentpole acceptance bar: incremental == cold, bit for bit."""

    def test_churn_cycle_matches_cold_rebuild(self):
        g = make_graph()
        up = InstanceUpdater.build("t", g)
        gen0 = up.generation

        # 1. heavy adds: non-tree only → spliced scoped replay
        r1 = up.apply_batch(heavy_ops(up.graph, 8))
        assert r1.action == "rebuilt" and r1.scoped
        assert r1.stages_spliced == 5 and not r1.tree_affected
        assert r1.m == g.m + 8 and len(r1.added_ids) == 8
        assert_oracle_identical(up.oracle, cold_oracle(up.graph))

        # 2. reprice two of them heavier: still non-tree only
        r2 = up.apply_batch([
            {"kind": "reprice", "edge": r1.added_ids[0],
             "weight": float(up.graph.w.max()) + 50},
            {"kind": "reprice", "edge": r1.added_ids[1],
             "weight": float(up.graph.w.max()) + 60},
        ])
        assert r2.action == "rebuilt" and r2.scoped
        assert_oracle_identical(up.oracle, cold_oracle(up.graph))

        # 3. remove the added edges again
        r3 = up.apply_batch([{"kind": "remove", "edge": e}
                             for e in r1.added_ids])
        assert r3.action == "rebuilt" and r3.scoped
        assert r3.m == g.m and len(r3.removed_ids) == 8
        assert_oracle_identical(up.oracle, cold_oracle(up.graph))

        # 4. a cheap add that swaps the tree: the honest full path
        r4 = up.apply_batch([{"kind": "add", "u": 0, "v": g.n // 2,
                              "weight": float(up.graph.w.min()) / 2}])
        assert r4.action == "rebuilt" and r4.tree_affected and not r4.scoped
        assert r4.stages_spliced == 0
        assert_oracle_identical(up.oracle, cold_oracle(up.graph))

        assert up.generation == gen0 + 4  # one swap per batch, exactly

    def test_all_rejected_batch_swaps_nothing(self):
        g = make_graph(n=120)
        up = InstanceUpdater.build("t", g)
        before = cold_oracle(up.graph)
        r = up.apply_batch([{"kind": "remove", "edge": up.graph.m + 3},
                            {"kind": "frobnicate"}])
        assert r.action == "rejected" and r.n_applied == 0
        assert len(r.rejected_ops) == 2
        assert up.generation == 0
        assert_oracle_identical(up.oracle, before)

    def test_mixed_batch_reports_per_op_rejections(self):
        g = make_graph(n=120)
        up = InstanceUpdater.build("t", g)
        ops = heavy_ops(up.graph, 2) + [{"kind": "remove", "edge": -4}]
        r = up.apply_batch(ops)
        assert r.action == "rebuilt" and r.n_applied == 2
        assert r.rejected_ops and "out of range" in r.rejected_ops[0][1]
        assert_oracle_identical(up.oracle, cold_oracle(up.graph))


class TestClassifyBoundaries:
    """Satellite: classify's edge cases, pinned by brute-force rebuild."""

    def test_bridge_tree_edge_has_infinite_threshold_and_patches(self):
        g, _ = known_mst_instance("random", 30, extra_m=2, rng=1)
        up = InstanceUpdater.build("t", g)
        bridges = np.flatnonzero(g.tree_mask & np.isinf(up.oracle.threshold))
        assert len(bridges), "fixture needs a bridge"
        e = int(bridges[0])
        new_w = float(g.w[e]) + 100.0  # nothing covers it: any raise holds
        assert up.classify(e, new_w) == "patched"
        shards = make_shards(up)
        rep = up.apply(shards, e, new_w)
        assert rep.action == "patched" and up.generation == 0
        # brute force agrees: the tree is unmoved, the oracle identical
        ref = cold_oracle(up.graph)
        assert bool(ref.tree_mask[e])
        assert_oracle_identical(up.oracle, ref)

    def test_nontree_lowered_exactly_to_pathmax_stays_out(self):
        g = make_graph(n=120)
        up = InstanceUpdater.build("t", g)
        nontree = np.flatnonzero(~g.tree_mask)
        # strict drop: threshold (== path-max) strictly below the weight
        cand = nontree[up.oracle.threshold[nontree] < up.oracle.w[nontree]]
        e = int(cand[0])
        thr = float(up.oracle.threshold[e])
        # the cycle rule is non-strict: landing exactly on the path-max
        # survives, but ties do NOT enter the tree — a rebuild, after
        # which brute force must keep the same tree
        assert up.classify(e, thr) == "rebuilt"
        rep = up.apply(make_shards(up), e, thr)
        assert rep.action == "rebuilt" and up.generation == 1
        assert not bool(up.graph.tree_mask[e])
        ref = cold_oracle(up.graph)
        assert not bool(ref.tree_mask[e])
        assert_oracle_identical(up.oracle, ref)

    def test_noop_on_covering_minimiser_patches(self):
        g = make_graph(n=120)
        up = InstanceUpdater.build("t", g)
        covering = np.flatnonzero(~g.tree_mask & up.oracle.covering_edges())
        assert len(covering), "fixture needs a covering minimiser"
        e = int(covering[0])
        old = float(up.graph.w[e])
        assert up.classify(e, old) == "patched"  # no-op, even on a minimiser
        rep = up.apply(make_shards(up), e, old)
        assert rep.action == "patched" and up.generation == 0
        assert_oracle_identical(up.oracle, cold_oracle(up.graph))
        # ...but actually *lowering* it must rebuild: it is the recorded
        # minimiser of some tree edge's replacement, so a lower price
        # changes that tree edge's sensitivity
        lower = old - 0.5 * (old - float(up.oracle.threshold[e]))
        if lower > float(up.oracle.threshold[e]):
            assert up.classify(e, lower) == "rebuilt"


class TestBadRequestHardening:
    """Satellite: out-of-range wire ids are structured, never IndexError."""

    def test_apply_raises_structured_bad_request(self):
        g = make_graph(n=120)
        up = InstanceUpdater.build("t", g)
        shards = make_shards(up)
        for bad in (-1, up.graph.m, up.graph.m + 7):
            with pytest.raises(ServiceError) as ei:
                up.apply(shards, bad, 1.0)
            assert ei.value.kind == "bad_request"
            assert "out of range" in str(ei.value)
        assert up.generation == 0  # nothing applied

    def test_wire_update_answers_structured_error(self):
        async def scenario():
            svc = await started_service(make_graph(n=120))
            client = ServiceClient(service=svc)
            try:
                resp = await client.update(-1, 1.0)
                assert resp["ok"] is False
                assert "out of range" in resp["error"]
                resp = await client.update(10**9, 1.0)
                assert resp["ok"] is False
            finally:
                await svc.stop()
        run(scenario())


class TestSnapshotRepublish:
    """Satellite: identical content re-publish is a no-op rename."""

    def test_identical_republish_keeps_path_and_file(self, tmp_path):
        g = make_graph(n=120)
        up = InstanceUpdater.build("t", g, mmap_dir=str(tmp_path))
        p1 = up.publish_snapshot()
        d1 = up.snapshot_digest
        p2 = up.publish_snapshot()
        assert p2 == p1 and up.snapshot_digest == d1
        assert os.path.exists(p1)  # the old snapshot was NOT unlinked
        # exactly one non-temp snapshot on disk
        files = [f for f in os.listdir(tmp_path) if not f.startswith(".")]
        assert files == [os.path.basename(p1)]

    def test_changed_content_supersedes_old_snapshot(self, tmp_path):
        g = make_graph(n=120)
        up = InstanceUpdater.build("t", g, mmap_dir=str(tmp_path))
        p1 = up.publish_snapshot()
        up.apply_batch(heavy_ops(up.graph, 2))
        p2 = up.publish_snapshot()
        assert p2 != p1
        assert not os.path.exists(p1)  # superseded snapshot unlinked
        assert os.path.exists(p2)


class SlowApplyService:
    """Stub service whose structural apply blocks on a gate."""

    def __init__(self):
        self.gate = asyncio.Event()
        self.calls = []

    async def _apply_structural(self, instance, ops):
        self.calls.append(list(ops))
        await self.gate.wait()
        return {"ok": True, "n_applied": len(ops)}


class TestIngestor:
    def test_rejects_empty_and_malformed(self):
        async def scenario():
            ing = StreamIngestor(SlowApplyService(), "x")
            for bad in ([], None, "ops", 7):
                resp = await ing.submit(bad)
                assert resp["ok"] is False and "non-empty" in resp["error"]
        run(scenario())

    def test_sheds_past_depth_and_recovers(self):
        async def scenario():
            svc = SlowApplyService()
            ing = StreamIngestor(svc, "x", depth=1)
            t1 = asyncio.ensure_future(ing.submit([{"kind": "a"}]))
            for _ in range(3):  # let the drain loop adopt batch 1
                await asyncio.sleep(0)
            t2 = asyncio.ensure_future(ing.submit([{"kind": "b"}]))
            await asyncio.sleep(0)
            # one request pending behind the in-flight apply: full
            shed = await ing.submit([{"kind": "c"}])
            assert shed["ok"] is False and shed["shed"] is True
            assert ing.metrics.shed == 1
            svc.gate.set()
            r1, r2 = await asyncio.gather(t1, t2)
            assert r1["ok"] and r2["ok"]
            assert svc.calls[0] == [{"kind": "a"}]
            assert svc.calls[1] == [{"kind": "b"}]
            await ing.stop()
            # post-stop submissions answer, not hang
            resp = await ing.submit([{"kind": "d"}])
            assert resp["ok"] is False and "stopped" in resp["error"]
        run(scenario())

    def test_exception_in_apply_answers_all_waiters(self):
        class Exploding:
            async def _apply_structural(self, instance, ops):
                raise RuntimeError("boom")

        async def scenario():
            ing = StreamIngestor(Exploding(), "x")
            resp = await ing.submit([{"kind": "a"}])
            assert resp["ok"] is False and "boom" in resp["error"]
            err = StreamIngestor(_ServiceErrorStub(), "x")
            resp = await err.submit([{"kind": "a"}])
            assert resp["ok"] is False
            assert resp["error_kind"] == "bad_request"
        run(scenario())


class _ServiceErrorStub:
    async def _apply_structural(self, instance, ops):
        raise ServiceError("nope", kind="bad_request")


class TestServiceStreaming:
    """The wire path: update_batch through a live sharded service."""

    def test_batch_grows_instance_and_serves_new_edges(self):
        async def scenario():
            g = make_graph()
            svc = await started_service(g)
            client = ServiceClient(service=svc)
            try:
                ops = heavy_ops(g, 6)
                resp = await client.update_batch(ops)
                assert resp["ok"] and resp["action"] == "rebuilt"
                assert resp["scoped"] and resp["generation"] == 1
                assert resp["m"] == g.m + 6
                assert resp["coalesced_requests"] == 1
                desc = svc.describe_instances()["default"]
                assert desc["m"] == g.m + 6 and desc["generation"] == 1
                # shards re-planned over the grown edge space
                assert desc["shards"][-1]["edge_hi"] == g.m + 6
                # the new edges answer point queries, bit-equal to the
                # updater's own oracle
                up = svc.instances["default"].updater
                for e in resp["added_ids"]:
                    got = await client.sensitivity(e)
                    assert got == float(up.oracle.sens[e])
                    assert await client.survives(e, 1e12) is True
                    # dropping strictly below its entry threshold would
                    # pull it into the tree: not MST-preserving
                    thr = float(up.oracle.threshold[e])
                    assert await client.survives(e, thr - 1.0) is False
                # stream metrics surface per instance
                m = svc.metrics()["instances"]["default"]["stream"]
                assert m["batches_applied"] == 1
                assert m["scoped_replays"] == 1 and m["full_replays"] == 0
                # removing them again shrinks the instance
                resp2 = await client.update_batch(
                    [{"kind": "remove", "edge": e}
                     for e in resp["added_ids"]])
                assert resp2["ok"] and resp2["m"] == g.m
                assert resp2["generation"] == 2
            finally:
                await svc.stop()
        run(scenario())

    def test_concurrent_submits_coalesce_into_one_generation(self):
        async def scenario():
            g = make_graph()
            svc = await started_service(g)
            client = ServiceClient(service=svc)
            try:
                hi = float(g.w.max())
                reqs = [client.update_batch(
                    [{"kind": "add", "u": j, "v": j + 19,
                      "weight": hi + 1 + j}]) for j in range(4)]
                resps = await asyncio.gather(*reqs)
                assert all(r["ok"] for r in resps)
                # all four wire requests rode one rebuild
                assert {r["coalesced_requests"] for r in resps} == {4}
                assert {r["generation"] for r in resps} == {1}
                up = svc.instances["default"].updater
                assert up.generation == 1 and up.graph.m == g.m + 4
                m = svc.metrics()["instances"]["default"]["stream"]
                assert m["requests_received"] == 4
                assert m["requests_merged"] == 3
                assert m["batches_applied"] == 1
            finally:
                await svc.stop()
        run(scenario())

    def test_tree_affecting_batch_full_replay_still_consistent(self):
        async def scenario():
            g = make_graph(n=120)
            svc = await started_service(g)
            client = ServiceClient(service=svc)
            try:
                resp = await client.update_batch(
                    [{"kind": "add", "u": 0, "v": g.n // 2,
                      "weight": float(g.w.min()) / 2}])
                assert resp["ok"] and resp["tree_affected"]
                assert resp["scoped"] is False
                up = svc.instances["default"].updater
                assert_oracle_identical(up.oracle, cold_oracle(up.graph))
                new_e = resp["added_ids"][0]
                assert await client.sensitivity(new_e) == \
                    float(up.oracle.sens[new_e])
            finally:
                await svc.stop()
        run(scenario())

    def test_stop_during_rebuild_is_bounded_and_answers(self, monkeypatch):
        # a rebuild stuck for 5 s must not hold up stop(): the ingestor
        # waits STOP_DEADLINE_S, cancels its loop, and answers both the
        # in-flight request and the one queued behind it
        gate = threading.Event()
        apply_batch = InstanceUpdater.apply_batch

        def slow_apply(self, ops):
            gate.wait(5.0)
            return apply_batch(self, ops)

        monkeypatch.setattr(InstanceUpdater, "apply_batch", slow_apply)

        async def scenario():
            g = make_graph(n=120)
            svc = await started_service(g)
            first = asyncio.ensure_future(svc.update_batch(heavy_ops(g, 1)))
            await asyncio.sleep(0.05)  # first is rebuilding
            queued = asyncio.ensure_future(svc.update_batch(heavy_ops(g, 2)))
            await asyncio.sleep(0.05)
            t0 = time.perf_counter()
            report = await svc.stop()
            took = time.perf_counter() - t0
            gate.set()  # let the abandoned worker thread finish
            assert took <= STOP_DEADLINE_S + 1.0, took
            assert report == {"missed_deadline": []}
            for fut in (first, queued):
                resp = await asyncio.wait_for(fut, 1.0)
                assert resp == {"ok": False, "error": "service shut down"}
        run(scenario())

    def test_rejected_batch_is_structured_on_the_wire(self):
        async def scenario():
            g = make_graph(n=120)
            svc = await started_service(g)
            client = ServiceClient(service=svc)
            try:
                resp = await client.update_batch(
                    [{"kind": "remove", "edge": g.m + 1}])
                assert resp["ok"] is False
                assert resp["action"] == "rejected"
                assert "out of range" in resp["rejected_ops"][0][1]
                resp = await client.update_batch([])
                assert resp["ok"] is False
                resp = await client.call("update_batch", ops=[{"kind": "x"}],
                                         instance="nope")
                assert resp["ok"] is False
            finally:
                await svc.stop()
        run(scenario())


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
