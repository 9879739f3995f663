"""The S19 service layer: batching identity, swaps, shedding, updates.

The load-bearing claims:

* micro-batched answers are *bit-identical* to direct oracle point
  queries, under many concurrent clients and across shards;
* a generation swap during a live query storm never tears a read —
  every response matches the oracle of the generation it reports;
* a full shard queue sheds with a structured response instead of
  queueing unboundedly, and recovers afterwards;
* the write path classifies with the oracle's own thresholds:
  oracle-preserving updates run zero pipeline stages, structure-
  changing ones replay the weight-blind prefix from the artifact
  cache and re-run only the weight-reading suffix;
* TCP JSON-lines round-trips the same dispatch path;
* mmap-shared shard oracles answer identically to in-memory ones.
"""

import argparse
import asyncio
import json
import time

import numpy as np
import pytest

from repro.baselines.seq_verify import verify_by_recompute
from repro.errors import ValidationError
from repro.graph.generators import known_mst_instance
from repro.oracle import build_oracle
from repro.service import (
    SensitivityService,
    ServiceClient,
    ServiceConfig,
    plan_shards,
    route,
)
from repro.service.loadgen import (make_plan, run_inprocess, run_procs,
                                   run_tcp)


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


class TestShardPlan:
    def test_ranges_partition_edge_space(self):
        specs = plan_shards(1001, 4)
        assert specs[0].edge_lo == 0 and specs[-1].edge_hi == 1001
        for a, b in zip(specs, specs[1:]):
            assert a.edge_hi == b.edge_lo
        sizes = [len(s) for s in specs]
        assert max(sizes) - min(sizes) <= 1

    def test_route_hits_owner(self):
        specs = plan_shards(997, 5)
        for e in range(997):
            i = route(specs, e)
            assert specs[i].edge_lo <= e < specs[i].edge_hi

    def test_route_rejects_out_of_range(self):
        specs = plan_shards(10, 2)
        with pytest.raises(ValidationError):
            route(specs, 10)

    def test_more_shards_than_edges(self):
        specs = plan_shards(3, 8)
        assert sum(len(s) for s in specs) == 3


class TestBatchedBitIdentity:
    def test_concurrent_clients_match_point_oracle(self):
        g = make_graph()
        oracle = build_oracle(g, oracle_labels=True)
        rng = np.random.default_rng(5)
        q = 600
        edges = rng.integers(0, g.m, q)
        weights = rng.uniform(0.0, 2.0, q)
        ops = []
        for e in edges:
            if g.tree_mask[e]:
                ops.append(rng.choice(
                    ["survives", "sensitivity", "replacement_edge"]))
            else:
                ops.append(rng.choice(
                    ["survives", "sensitivity", "entry_threshold"]))

        async def scenario():
            svc = await started_service(g)
            client = ServiceClient(svc)

            async def one(i):
                op = ops[i]
                kw = ({"weight": float(weights[i])}
                      if op == "survives" else {})
                return await client.call(op, edge=int(edges[i]), **kw)

            # 8 concurrent clients interleave their submissions so
            # micro-batches mix queries from different clients
            chunks = [list(range(w, q, 8)) for w in range(8)]

            results = [None] * q

            async def worker(idxs):
                for i in idxs:
                    results[i] = await one(i)

            await asyncio.gather(*(worker(c) for c in chunks))
            await svc.stop()
            return results

        results = run(scenario())
        for i, resp in enumerate(results):
            e = int(edges[i])
            assert resp["ok"], resp
            op = ops[i]
            if op == "survives":
                expect = oracle.survives(e, float(weights[i]))
            elif op == "sensitivity":
                expect = oracle.sensitivity(e)
            elif op == "replacement_edge":
                expect = oracle.replacement_edge(e)
            else:
                expect = oracle.entry_threshold(e)
            assert resp["result"] == expect, (op, e, resp, expect)

    def test_pipelined_loadgen_all_answered(self):
        g = make_graph()

        async def scenario():
            svc = await started_service(g, queue_depth=1 << 14)
            plan = make_plan({"default": g.m}, 5000, seed=3)
            stats = await run_inprocess(svc, plan, clients=8, pipeline=128)
            await svc.stop()
            return stats, svc.metrics()

        stats, metrics = run(scenario())
        assert stats.answered == 5000 and stats.errors == 0
        snaps = metrics["instances"]["default"]["shards"]
        assert sum(s["queries"] for s in snaps) == 5000
        assert any(s["batch_occupancy"] > 1.5 for s in snaps)

    def test_wrong_edge_kind_is_structured_error(self):
        g = make_graph()
        t = int(np.flatnonzero(g.tree_mask)[0])
        nt = int(np.flatnonzero(~g.tree_mask)[0])

        async def scenario():
            svc = await started_service(g)
            client = ServiceClient(svc)
            a = await client.call("entry_threshold", edge=t)
            b = await client.call("replacement_edge", edge=nt)
            c = await client.call("sensitivity", edge=g.m + 5)
            await svc.stop()
            return a, b, c

        a, b, c = run(scenario())
        assert not a["ok"] and "not a non-tree edge" in a["error"]
        assert not b["ok"] and "not a tree edge" in b["error"]
        assert not c["ok"] and "out of range" in c["error"]


class TestGenerationSwap:
    def test_no_torn_reads_under_query_storm(self):
        g = make_graph(n=200, seed=21)
        oracle0 = build_oracle(g, oracle_labels=True)
        cover = oracle0.covering_edges()
        # two structure-changing updates (covering minimisers raised)
        movers = np.flatnonzero(~g.tree_mask & cover)[:2]
        rng = np.random.default_rng(9)
        q_edges = rng.integers(0, g.m, 4000)
        q_weights = rng.uniform(0.0, 2.0, 4000)

        async def scenario():
            svc = await started_service(g, shards=2,
                                        queue_depth=1 << 14)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            oracles = {0: oracle0}
            responses = []
            storm_done = asyncio.Event()

            async def storm():
                i = 0
                while not storm_done.is_set():
                    e = int(q_edges[i % len(q_edges)])
                    w = float(q_weights[i % len(q_weights)])
                    resp = await client.call("survives", edge=e, weight=w)
                    if resp.get("ok"):
                        responses.append((resp["generation"], e, w,
                                          resp["result"]))
                    i += 1

            storms = [asyncio.ensure_future(storm()) for _ in range(6)]
            await asyncio.sleep(0.05)
            for k, e in enumerate(movers):
                rep = await client.update(int(e), float(g.w[e]) + 3.0 + k)
                assert rep["action"] == "rebuilt", rep
                oracles[rep["generation"]] = inst.updater.oracle
                await asyncio.sleep(0.05)
            storm_done.set()
            await asyncio.gather(*storms)
            await svc.stop()
            return responses

        responses = run(scenario())
        gens = {gen for gen, *_ in responses}
        assert gens >= {0, 2}, f"storm missed the swaps: {gens}"
        # the updates moved at least one observable answer
        changed = any(
            True
            for gen, e, w, _ in responses
            if gen == 0
            for other_gen, other_e, other_w, other_r in responses
            if other_gen == 2 and other_e == e and other_w == w
        )
        assert changed or len(gens) > 1

    def test_every_answer_matches_its_generation(self):
        # replayed deterministically: answers must equal the oracle of
        # the generation each response reports — no mixing
        g = make_graph(n=180, seed=8)

        async def scenario():
            svc = await started_service(g, shards=2)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            oracles = {0: inst.updater.oracle}
            cover = inst.updater.oracle.covering_edges()
            mover = int(np.flatnonzero(~g.tree_mask & cover)[0])

            rng = np.random.default_rng(2)
            checks = []

            async def ask(e, w):
                resp = await client.call("survives", edge=int(e),
                                         weight=float(w))
                checks.append((resp["generation"], int(e), float(w),
                               resp["result"]))

            edges = rng.integers(0, g.m, 300)
            weights = rng.uniform(0.0, 2.0, 300)
            await asyncio.gather(*(ask(e, w)
                                   for e, w in zip(edges[:150], weights[:150])))
            rep = await client.update(mover, float(g.w[mover]) + 4.0)
            oracles[rep["generation"]] = inst.updater.oracle
            await asyncio.gather(*(ask(e, w)
                                   for e, w in zip(edges[150:], weights[150:])))
            await svc.stop()
            return checks, oracles

        checks, oracles = run(scenario())
        for gen, e, w, got in checks:
            assert got == oracles[gen].survives(e, w), (gen, e, w)


class TestLoadShedding:
    def test_full_queue_sheds_and_recovers(self):
        g = make_graph(n=120, seed=4)

        async def scenario():
            svc = await started_service(
                g, shards=1, queue_depth=8, max_batch=8,
            )
            client = ServiceClient(svc)
            burst = await asyncio.gather(
                *(client.call("sensitivity", edge=i % g.m)
                  for i in range(64))
            )
            sheds = [r for r in burst if r.get("shed")]
            served = [r for r in burst if r.get("ok")]
            # after the burst drains the service accepts queries again
            again = await client.call("sensitivity", edge=0)
            metrics = await client.metrics()
            await svc.stop()
            return sheds, served, again, metrics

        sheds, served, again, metrics = run(scenario())
        assert sheds, "queue bound never shed"
        assert served, "shedding starved every query"
        assert len(sheds) + len(served) == 64
        assert again["ok"]
        shard0 = metrics["instances"]["default"]["shards"][0]
        assert shard0["shed"] == len(sheds)


class TestClientCancellation:
    def test_cancelled_query_does_not_poison_batch_mates(self):
        """Regression: a client that stops waiting leaves a cancelled
        future inside a live batch; ``set_result`` on it used to raise
        ``InvalidStateError``, and the per-op error handler then failed
        every co-batched healthy query of that op with a spurious
        ``internal`` error."""
        g = make_graph(n=120, seed=9)

        async def scenario():
            svc = await started_service(g, shards=1, max_batch=64)
            client = ServiceClient(svc)
            edges = [e for e in range(16)]

            async def impatient(e):
                try:
                    return await client.call("sensitivity", edge=e)
                except asyncio.CancelledError:
                    return {"timed_out": True}

            # the doomed query must enqueue *first*: only batch-mates
            # ordered after the cancelled future were poisoned. All 16
            # submit in one loop turn, so they form one batch; the
            # doomed client gives up in the turn that batch forms
            first = asyncio.ensure_future(impatient(edges[0]))
            rest = [asyncio.ensure_future(client.call("sensitivity", edge=e))
                    for e in edges[1:]]
            batcher = svc.instances["default"].batchers[0]
            dispatch = batcher._dispatch

            def cancel_then_dispatch(batch):
                first.cancel()
                dispatch(batch)

            batcher._dispatch = cancel_then_dispatch
            results = await asyncio.gather(first, *rest)
            metrics = await client.metrics()
            await svc.stop()
            return results, metrics

        results, metrics = run(scenario())
        shard0 = metrics["instances"]["default"]["shards"][0]
        assert shard0["batches"] == 1 and shard0["queries"] == 16
        assert results[0] == {"timed_out": True}
        oracle = build_oracle(g)
        for e, resp in zip([e for e in range(16)][1:], results[1:]):
            assert resp.get("ok"), resp  # batch-mates must still succeed
            assert resp.get("error_kind") is None
            assert resp["result"] == pytest.approx(
                float(oracle.sensitivity_bulk(np.array([e]))[0]))


class TestBatchingContract:
    """Batches form from load, not from a timer; writers stay live."""

    def test_lone_query_is_answered_without_waiting(self):
        g = make_graph(n=120, seed=5)

        async def scenario():
            svc = await started_service(g, shards=1)
            q = asyncio.get_running_loop().create_task(
                svc.query("sensitivity", 3))
            for _ in range(8):  # a few loop turns, no wall clock
                await asyncio.sleep(0)
                if q.done():
                    break
            done = q.done()
            ans = await q
            await svc.stop()
            return done, ans

        done, ans = run(scenario())
        assert done, "a lone query on an idle service was held back"
        assert ans["ok"]

    def test_one_loop_turn_of_submits_is_one_batch(self):
        g = make_graph(n=120, seed=5)

        async def scenario():
            svc = await started_service(g, shards=1)
            futs = [svc.submit_nowait("sensitivity", e) for e in range(40)]
            answers = await asyncio.gather(*futs)
            metrics = svc.metrics()
            await svc.stop()
            return answers, metrics

        answers, metrics = run(scenario())
        shard = metrics["instances"]["default"]["shards"][0]
        assert shard["batches"] == 1 and shard["batch_occupancy"] == 40
        oracle = build_oracle(g)
        assert [v for _gen, _ok, v, _kind in answers] == \
            oracle.sensitivity_bulk(np.arange(40)).tolist()

    def test_max_batch_counts_queue_items_not_queries(self):
        """A decoded binary group is one queue item however many queries
        it carries: ``max_batch=4`` answers an 8-frame point run in one
        dispatch of 8 queries."""
        from repro.service import wire

        g = make_graph(n=120, seed=5)

        async def scenario():
            svc = await started_service(g, shards=1, max_batch=4)
            iid = svc.hello({})["result"]["symbols"]["default"]
            answer = await svc._answer_points(b"".join(
                wire.encode_point("sensitivity", iid, e) for e in range(8)))
            metrics = svc.metrics()
            await svc.stop()
            return answer, metrics

        answer, metrics = run(scenario())
        shard = metrics["instances"]["default"]["shards"][0]
        assert shard["batches"] == 1 and shard["batch_occupancy"] == 8
        resp = np.frombuffer(answer, dtype=wire.RESP_DTYPE)
        assert (resp["type"] == wire.RESP_BASE | wire.ST_OK).all()
        assert resp["value"].tolist() == \
            build_oracle(g).sensitivity_bulk(np.arange(8)).tolist()

    def test_writes_finish_under_zero_think_time_reads(self):
        """Six clients that re-submit the moment they are answered keep
        every batcher busy; the rebuild threads must still get the
        interpreter lock and finish."""
        g = make_graph(n=1200, seed=21)
        cover = build_oracle(g, oracle_labels=True).covering_edges()
        mover = int(np.flatnonzero(~g.tree_mask & cover)[0])
        heavy = float(g.w.max())
        ops = [{"kind": "add", "u": j, "v": j + 7, "weight": heavy + 1 + j}
               for j in range(4)]

        async def scenario():
            svc = await started_service(g, shards=3, queue_depth=1 << 14)
            client = ServiceClient(svc)
            stop = asyncio.Event()
            reads = [0]

            async def reader(k):
                rng = np.random.default_rng(k)
                while not stop.is_set():
                    e = int(rng.integers(0, g.m))
                    resp = await client.call("sensitivity", edge=e)
                    assert resp.get("ok") or resp.get("error_kind"), resp
                    reads[0] += 1

            readers = [asyncio.ensure_future(reader(k)) for k in range(6)]
            await asyncio.sleep(0.02)
            writes = [asyncio.ensure_future(client.update_batch(ops)),
                      asyncio.ensure_future(
                          client.update(mover, float(g.w[mover]) + 3.0))]
            done, late = await asyncio.wait(writes, timeout=30.0)
            stop.set()
            await asyncio.gather(*readers)
            await svc.stop()
            return [w.result() for w in done], late, reads[0]

        results, late, reads = run(scenario())
        assert not late, "a write starved behind zero-think-time reads"
        assert all(r["ok"] for r in results), results
        assert reads > 0

    def test_stop_is_bounded_and_sheds_the_queue(self, monkeypatch):
        """A worker that ignores the close and swallows its first cancel
        is named in ``missed_deadline`` (by the structural swap that
        retired it and by ``stop()``), and every query still queued
        answers with the shed status instead of hanging."""
        from repro.service import MicroBatcher, batching, wire

        async def wedged(self):
            try:
                await asyncio.sleep(3600)
            except asyncio.CancelledError:
                await asyncio.sleep(3600)  # the second cancel ends it

        monkeypatch.setattr(batching, "STOP_DEADLINE_S", 0.05)
        monkeypatch.setattr(MicroBatcher, "_run", wedged)
        g = make_graph(n=120, seed=5)
        ops = [{"kind": "add", "u": 0, "v": 5,
                "weight": float(g.w.max()) + 1.0}]

        async def scenario():
            svc = await started_service(g, shards=1)
            swapped = await svc.update_batch(ops)
            svc.hello({})
            loop = asyncio.get_running_loop()
            q = loop.create_task(svc.query("sensitivity", 0))
            frames = loop.create_task(svc._answer_points(
                wire.encode_point("sensitivity", 0, 1)))
            await asyncio.sleep(0)
            t0 = time.perf_counter()
            report = await svc.stop()
            took = time.perf_counter() - t0
            return swapped, report, took, await q, await frames

        swapped, report, took, ans, frames = run(scenario())
        assert swapped["ok"]
        assert swapped["missed_deadline"] == ["batcher:default/0"]
        assert report == {"missed_deadline": ["batcher:default/0"]}
        assert took < 1.0
        assert ans == {"ok": False, "shed": True,
                       "error": "service is shutting down"}
        assert frames[1] == wire.RESP_BASE | wire.ST_SHED


class TestUpdatePath:
    def test_preserving_update_runs_zero_stages(self):
        g = make_graph(n=200, seed=13)

        async def scenario():
            svc = await started_service(g)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            oracle = inst.updater.oracle
            cover = oracle.covering_edges()
            e = int(np.flatnonzero(~g.tree_mask & ~cover)[0])
            old = float(g.w[e])
            rep = await client.update(e, old + 1.5)
            sens = await client.sensitivity(e)
            thr = await client.entry_threshold(e)
            metrics = await client.metrics()
            await svc.stop()
            return e, old, rep, sens, thr, metrics

        e, old, rep, sens, thr, metrics = run(scenario())
        assert rep["action"] == "patched" and rep["ok"]
        assert rep["stages_executed"] == 0 and rep["verification_reruns"] == 0
        assert rep["generation"] == 0  # no swap needed
        assert sens == (old + 1.5) - thr  # slack reflects the new price
        ups = metrics["instances"]["default"]["updates"]
        assert ups["preserving"] == 1 and ups["rebuilds"] == 0
        assert ups["stages_executed"] == 0

    def test_bridge_tree_edge_update_is_preserving(self):
        # a sparse instance: some tree edges are uncovered (bridges)
        g, _ = known_mst_instance("random", 80, extra_m=5, rng=2)

        async def scenario():
            svc = await started_service(g, shards=2)
            client = ServiceClient(svc)
            oracle = svc.instances["default"].updater.oracle
            bridges = np.flatnonzero(
                g.tree_mask & ~np.isfinite(oracle.threshold))
            e = int(bridges[0])
            rep = await client.update(e, float(g.w[e]) + 100.0)
            sens = await client.sensitivity(e)
            await svc.stop()
            return rep, sens

        rep, sens = run(scenario())
        assert rep["action"] == "patched" and rep["stages_executed"] == 0
        assert sens == float("inf")

    def test_structure_changing_update_rebuilds_incrementally(self):
        g = make_graph(n=200, seed=17)

        async def scenario():
            svc = await started_service(g)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            oracle = inst.updater.oracle
            cover = oracle.covering_edges()
            e = int(np.flatnonzero(~g.tree_mask & cover)[0])
            rep = await client.update(e, float(g.w[e]) + 2.0)
            await svc.stop()
            return rep, inst

        rep, inst = run(scenario())
        assert rep["action"] == "rebuilt" and rep["generation"] == 1
        # weight-scoped keys: the whole weight-blind validate→lca
        # prefix replays from cache; only the weight-reading suffix
        # (adgraph..decide + the four sens stages) re-runs
        assert sorted(rep["cached"]) == sorted(
            ["validate", "rooting", "dfs", "diameter", "clustering", "lca"])
        assert rep["stages_executed"] == 8
        assert rep["verification_reruns"] == 4  # adgraph..decide only
        # the rebuilt oracle matches a cold build on the new weights
        cold = build_oracle(inst.updater.graph, oracle_labels=True)
        warm = inst.updater.oracle
        np.testing.assert_array_equal(cold.threshold, warm.threshold)
        np.testing.assert_array_equal(cold.sens, warm.sens)

    def test_rejected_update_changes_nothing(self):
        g = make_graph(n=150, seed=19)

        async def scenario():
            svc = await started_service(g)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            nt = int(np.flatnonzero(~g.tree_mask)[0])
            before = float(inst.updater.graph.w[nt])
            rep = await client.update(nt, 1e-9)  # below its entry threshold
            after = float(inst.updater.graph.w[nt])
            metrics = await client.metrics()
            await svc.stop()
            return rep, before, after, metrics

        rep, before, after, metrics = run(scenario())
        assert rep["action"] == "rejected" and not rep["ok"]
        assert not rep["survives"]
        assert before == after
        assert metrics["instances"]["default"]["updates"]["rejected"] == 1

    def test_updated_instance_still_serves_a_real_mst(self):
        g = make_graph(n=100, seed=23)

        async def scenario():
            svc = await started_service(g, shards=2)
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            oracle = inst.updater.oracle
            cover = oracle.covering_edges()
            nt = np.flatnonzero(~g.tree_mask)
            for e in (int(np.flatnonzero(~g.tree_mask & ~cover)[0]),
                      int(np.flatnonzero(~g.tree_mask & cover)[0]),
                      int(nt[3])):
                await client.update(e, float(inst.updater.graph.w[e]) + 0.7)
            await svc.stop()
            return inst.updater.graph

        graph = run(scenario())
        assert verify_by_recompute(graph)


class TestTcpFrontDoor:
    def test_json_lines_roundtrip(self):
        g = make_graph(n=150, seed=29)

        async def scenario():
            svc = SensitivityService(ServiceConfig(
                shards=2, port=0))
            svc.add_instance("default", g)
            await svc.start(serve_tcp=True)
            host, port = svc.tcp_address
            reader, writer = await asyncio.open_connection(host, port)

            async def rpc(obj):
                writer.write((json.dumps(obj) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            pong = await rpc({"op": "ping", "id": 1})
            desc = await rpc({"op": "instances"})
            t = int(np.flatnonzero(g.tree_mask)[0])
            ans = await rpc({"op": "survives", "edge": t, "weight": 0.1,
                             "id": "q1", "instance": "default"})
            bad = await rpc({"op": "nope"})
            garbled = None
            writer.write(b"{not json}\n")
            await writer.drain()
            garbled = json.loads(await reader.readline())
            bye = await rpc({"op": "shutdown"})
            await svc.serve_forever()
            await svc.stop()
            return pong, desc, ans, bad, garbled, bye

        pong, desc, ans, bad, garbled, bye = run(scenario())
        assert pong == {"ok": True, "result": "pong", "id": 1}
        assert desc["result"]["default"]["m"] == 449
        assert ans["ok"] and ans["result"] is True and ans["id"] == "q1"
        assert not bad["ok"]
        assert not garbled["ok"] and "bad request" in garbled["error"]
        assert bye == {"ok": True, "result": "bye"}


class TestStopCycles:
    STOP_BUDGET_S = 5.0

    def test_stop_is_bounded_after_every_storm(self):
        """start → a storm through both doors → stop, 20 times: every
        stop stays within its budget and names no straggler."""
        g = make_graph(n=120, seed=41)
        oracle = build_oracle(g)

        async def scenario():
            for i in range(20):
                svc = SensitivityService(ServiceConfig(shards=2, port=0))
                svc.add_instance("default", g, oracle=oracle)
                await svc.start(serve_tcp=True)
                host, port = svc.tcp_address
                plan = make_plan({"default": g.m}, 1000, seed=i)
                storms = await asyncio.gather(*(
                    run_tcp(host, port, plan, clients=2, pipeline=16,
                            wire_mode=mode) for mode in ("json", "binary")))
                assert [(s.answered, s.errors) for s in storms] == \
                    [(1000, 0)] * 2, i
                t0 = time.perf_counter()
                report = await svc.stop()
                took = time.perf_counter() - t0
                assert report == {"missed_deadline": []}, (i, report)
                assert took < self.STOP_BUDGET_S, (i, took)

        run(scenario())


class TestMmapSharing:
    def test_mmap_shards_answer_identically(self, tmp_path):
        g = make_graph(n=160, seed=31)

        async def scenario(mmap_dir):
            svc = await started_service(g, shards=3, mmap_dir=mmap_dir)
            client = ServiceClient(svc)
            rng = np.random.default_rng(1)
            edges = rng.integers(0, g.m, 400)
            weights = rng.uniform(0.0, 2.0, 400)
            out = []
            for e, w in zip(edges, weights):
                out.append(await client.survives(int(e), float(w)))
                out.append(await client.sensitivity(int(e)))
            await svc.stop()
            return out, svc

        plain, _ = run(scenario(None))
        mapped, svc = run(scenario(str(tmp_path)))
        assert plain == mapped
        # the shards really did map a shared snapshot: each threshold
        # array is a zero-copy view over a read-only memmap
        inst = svc.instances["default"]
        for s in inst.shards:
            arr = s.oracle.threshold
            assert isinstance(arr, np.memmap) or isinstance(arr.base,
                                                            np.memmap)
            assert not arr.flags.owndata

    def test_preserving_update_on_mmap_shards(self, tmp_path):
        g = make_graph(n=140, seed=37)

        async def scenario():
            svc = await started_service(g, shards=2,
                                        mmap_dir=str(tmp_path))
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            cover = inst.updater.oracle.covering_edges()
            e = int(np.flatnonzero(~g.tree_mask & ~cover)[0])
            old = float(g.w[e])
            rep = await client.update(e, old + 2.0)
            sens = await client.sensitivity(e)
            thr = await client.entry_threshold(e)
            await svc.stop()
            return rep, sens, thr, old

        rep, sens, thr, old = run(scenario())
        assert rep["action"] == "patched"
        assert sens == (old + 2.0) - thr


class TestServeProcess:
    """`python -m repro serve` + loadgen over a real socket."""

    def test_serve_loadgen_shutdown(self):
        import os
        import subprocess
        import sys

        env = os.environ.copy()
        src = str((__import__("pathlib").Path(__file__)
                   .resolve().parents[1] / "src"))
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shapes",
             "random,power_law", "--n", "200", "--shards", "2",
             "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            port = None
            for line in proc.stdout:
                if line.startswith("listening on"):
                    port = int(line.split()[2].rsplit(":", 1)[1])
                    break
            assert port, "server never reported its port"

            from repro.service.loadgen import make_plan, run_tcp

            plan = make_plan({"random": 599, "power_law": 599}, 800, seed=5)
            stats = run(run_tcp("127.0.0.1", port, plan, clients=4,
                                shutdown=True))
            assert stats.answered + stats.type_errors >= stats.answered > 0
            assert stats.errors == 0 and stats.qps > 0
            tail = proc.stdout.read()
            assert "served" in tail and "shed 0" in tail
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


    def test_rebuild_unlinks_superseded_snapshot(self, tmp_path):
        import os

        g = make_graph(n=120, seed=41)

        async def scenario():
            svc = await started_service(g, shards=2,
                                        mmap_dir=str(tmp_path))
            client = ServiceClient(svc)
            inst = svc.instances["default"]
            cover = inst.updater.oracle.covering_edges()
            movers = np.flatnonzero(~g.tree_mask & cover)[:2]
            for k, e in enumerate(movers):
                rep = await client.update(
                    int(e), float(inst.updater.graph.w[e]) + 2.0 + k)
                assert rep["action"] == "rebuilt"
            # old generations still serve from already-mapped pages,
            # but only the latest snapshot file remains on disk
            ans = await client.sensitivity(int(movers[0]))
            path = inst.updater.snapshot_path
            digest = inst.updater.snapshot_digest
            await svc.stop()
            return ans, path, digest

        _, path, digest = run(scenario())
        snaps = sorted(os.listdir(tmp_path))
        # digest-addressed: one file, named by its own content hash
        assert snaps == [os.path.basename(path)]
        assert snaps == [f"default-{digest[:16]}.npz"]
        from repro.serialize import file_digest
        assert file_digest(path) == digest


class TestShutdownLatency:
    def test_stop_mid_window_is_prompt(self, monkeypatch):
        """stop() issued while a batcher sits in its writer hand-off
        (a rebuild is running) must end that wait at once: the queued
        query still answers, and the whole shutdown lands well under
        the hand-off length (stretched to 10 s here)."""
        import sys

        monkeypatch.setattr(sys, "getswitchinterval", lambda: 10.0)
        g = make_graph(n=1500, seed=37)

        async def scenario():
            svc = await started_service(g, shards=1)
            inst = svc.instances["default"]
            cover = inst.updater.oracle.covering_edges()
            mover = int(np.flatnonzero(~g.tree_mask & cover)[0])
            rebuild = asyncio.get_running_loop().create_task(
                svc.update(mover, float(g.w[mover]) + 3.0))
            while not svc.writers.n:  # the rebuild thread is running
                await asyncio.sleep(0)
            # one dispatch while the writer runs: the batcher now naps
            assert (await svc.query("sensitivity", 0))["ok"]
            q = asyncio.get_running_loop().create_task(
                svc.query("sensitivity", 1))
            await asyncio.sleep(0)  # queued behind the nap
            t0 = time.perf_counter()
            await svc.stop()
            stopped_in = time.perf_counter() - t0
            await rebuild
            return stopped_in, await q

        stopped_in, ans = run(scenario())
        assert ans["ok"]
        assert stopped_in < 0.25  # far below the 10 s hand-off


class TestLoadgenHandshake:
    """The discovery handshake must never hang the load generator."""

    def _args(self, port, timeout=0.5):
        return argparse.Namespace(host="127.0.0.1", port=port, queries=10,
                                  clients=2, seed=0, connect_timeout=timeout,
                                  shutdown=False)

    def test_mute_server_times_out_with_exit_1(self, capsys):
        from repro.service.loadgen import _main_async

        async def scenario():
            async def mute(reader, writer):
                await reader.read()  # consume everything, answer nothing
                writer.close()

            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _main_async(self._args(port))
            finally:
                server.close()
                await server.wait_closed()

        assert run(scenario()) == 1
        err = capsys.readouterr().err
        assert "did not answer the instances handshake" in err

    def test_slammed_connection_exits_1(self, capsys):
        from repro.service.loadgen import _main_async

        async def scenario():
            async def slam(reader, writer):
                writer.close()

            server = await asyncio.start_server(slam, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _main_async(self._args(port))
            finally:
                server.close()
                await server.wait_closed()

        assert run(scenario()) == 1
        err = capsys.readouterr().err
        assert "closed the connection during the instances handshake" in err


class TestLoadgenProcs:
    """``--procs N`` sends exactly ``--queries``, split over the children."""

    def test_shares_sum_to_the_queries(self):
        from repro.service.loadgen import _shares

        assert _shares(5000, 3) == [1667, 1667, 1666]
        assert _shares(2, 4) == [1, 1]  # a zero share spawns no child
        assert _shares(0, 2) == []

    def test_forked_storm_sends_exactly_the_queries(self):
        g = make_graph(n=120, seed=5)

        async def scenario():
            svc = SensitivityService(ServiceConfig(shards=2, port=0))
            svc.add_instance("default", g)
            await svc.start(serve_tcp=True)
            try:
                host, port = svc.tcp_address
                return await run_procs(host, port, {"default": g.m},
                                       queries=5, procs=3, clients=1)
            finally:
                await svc.stop()

        stats = run(scenario())
        assert (stats.sent, stats.errors) == (5, 0)
        assert stats.answered + stats.shed == 5


class TestLoadgenDiscovery:
    def test_waits_for_a_router_that_listens_before_it_has_instances(self):
        """A router opens its door before it adds its instances; the
        handshake asks again instead of storming an empty table."""
        from repro.service.loadgen import _discover

        tables = [{}, {}, {"g0": {"n": 4, "m": 9}}]

        async def scenario():
            async def booting(reader, writer):
                await reader.readline()
                writer.write(json.dumps(
                    {"ok": True, "result": tables.pop(0)}).encode() + b"\n")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(booting, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            args = argparse.Namespace(host="127.0.0.1", port=port,
                                      connect_timeout=10.0)
            try:
                return await _discover(args)
            finally:
                server.close()
                await server.wait_closed()

        assert run(scenario()) == {"g0": {"n": 4, "m": 9}}
        assert tables == []
