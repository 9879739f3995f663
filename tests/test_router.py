"""Router tier: snapshot adoption, live swaps, shed, structured errors.

The heavy scenario (real worker processes behind a
:class:`~repro.service.router.RouterTier`) runs once and checks the
whole contract in one boot: gen-0 answers bit-identical to a locally
built oracle, a rebuild-forcing update mid-storm that ships a digest-
addressed swap with **zero** failed queries, per-generation
bit-identity across the swap, and counters that prove the path taken
(forwarded, swaps_shipped, replica fan-out). Everything that does not
need a subprocess — adoption, swap-under-reads, digest verification,
client disconnect errors — runs in-process.
"""

import asyncio
import os
import tempfile
import time

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.graph.generators import known_mst_instance
from repro.oracle import build_oracle
from repro.service import (
    InstanceUpdater,
    RouterConfig,
    RouterTier,
    ServiceClient,
    ServiceConfig,
    SensitivityService,
    WorkerService,
    merged_latency,
)
from repro.service.loadgen import make_plan, run_tcp
from repro.service.metrics import LatencyReservoir


def run(coro):
    return asyncio.run(coro)


def make_graph(n=140, seed=11):
    g, _ = known_mst_instance("random", n, extra_m=2 * n, rng=seed)
    return g


def publish(graph, tmpdir, name="default"):
    """Build + publish one digest-addressed snapshot; return updater."""
    upd = InstanceUpdater(name, graph, build_oracle(graph),
                         mmap_dir=tmpdir)
    upd.publish_snapshot()
    return upd


class TestWorkerAdoptSwap:
    def test_adopt_is_bit_identical_to_the_source_oracle(self):
        async def scenario():
            g = make_graph()
            with tempfile.TemporaryDirectory() as td:
                upd = publish(g, td)
                svc = WorkerService(ServiceConfig(shards=2))
                svc.adopt_instance("default", upd.snapshot_path,
                                   upd.snapshot_digest, generation=3)
                await svc.start()
                try:
                    for e in range(0, g.m, 7):
                        r = await svc.handle_request(
                            {"op": "sensitivity", "edge": e})
                        assert r["ok"] and r["generation"] == 3
                        assert r["result"] == float(upd.oracle.sens[e])
                finally:
                    await svc.stop()

        run(scenario())

    def test_adopt_rejects_digest_mismatch(self):
        async def scenario():
            g = make_graph(n=60)
            with tempfile.TemporaryDirectory() as td:
                upd = publish(g, td)
                svc = WorkerService(ServiceConfig(shards=2))
                resp = await svc.handle_request(
                    {"op": "adopt", "instance": "default",
                     "path": upd.snapshot_path, "digest": "0" * 64})
                assert not resp["ok"]
                assert "digest mismatch" in resp["error"]
                assert "default" not in svc.instances

        run(scenario())

    def test_swap_under_concurrent_reads_is_generation_exact(self):
        async def scenario():
            g = make_graph()
            with tempfile.TemporaryDirectory() as td:
                gen0 = publish(g, td, name="a")
                g2 = g.copy()
                g2.w[0] = 1e-6  # tree edge re-priced: thresholds move
                gen1 = InstanceUpdater("b", g2, build_oracle(g2),
                                       mmap_dir=td)
                gen1.generation = 1
                gen1.publish_snapshot()
                expected = {0: gen0.oracle.sens, 1: gen1.oracle.sens}

                svc = WorkerService(ServiceConfig(shards=2,
                                                  batch_window_s=0.001))
                svc.adopt_instance("default", gen0.snapshot_path,
                                   gen0.snapshot_digest, generation=0)
                await svc.start()
                edges = np.arange(0, g.m, 3)

                async def storm():
                    seen = set()
                    for _ in range(40):
                        for e in edges[:25]:
                            r = await svc.handle_request(
                                {"op": "sensitivity", "edge": int(e)})
                            assert r["ok"]
                            gen = r["generation"]
                            seen.add(gen)
                            assert r["result"] == float(
                                expected[gen][int(e)])
                        await asyncio.sleep(0)
                    return seen

                async def swap():
                    await asyncio.sleep(0.02)
                    return await svc.handle_request(
                        {"op": "swap", "instance": "default",
                         "path": gen1.snapshot_path,
                         "digest": gen1.snapshot_digest, "generation": 1})

                try:
                    seen, swapped = await asyncio.gather(storm(), swap())
                finally:
                    await svc.stop()
                assert swapped["ok"]
                assert 1 in seen  # the swap landed while reads flowed

        run(scenario())


class TestRouterTier:
    def test_scaleout_serves_swaps_and_counts(self):
        async def scenario():
            g = make_graph()
            # local ground truth, per generation: the update the storm
            # will fire is chosen *first*, so gen-1 answers are known
            ref0 = build_oracle(g)
            upd_edge = next(
                e for e in range(g.m_tree)
                if InstanceUpdater("probe", g, ref0).classify(e, 1e-6)
                == "rebuilt")
            g2 = g.copy()
            g2.w[upd_edge] = 1e-6
            ref1 = build_oracle(g2)
            expected = {0: ref0.sens, 1: ref1.sens}

            rt = RouterTier(RouterConfig(workers=2, replication=2,
                                         shards=2,
                                         batch_window_s=0.001))
            await rt.start(serve_tcp=True)
            try:
                info = await rt.add_instance("default", g)
                assert len(info["replicas"]) == 2
                desc = (await rt.handle_request(
                    {"op": "instances"}))["result"]
                assert desc["default"]["m"] == g.m
                assert desc["default"]["m_tree"] == g.m_tree

                # gen-0 bit-identity through the fleet
                for e in range(0, g.m, 11):
                    r = await rt.handle_request(
                        {"op": "sensitivity", "edge": e})
                    assert r["ok"] and r["generation"] == 0
                    assert r["result"] == float(ref0.sens[e])

                # storm + rebuild-forcing update, concurrently
                edges = list(range(0, g.m, 5))
                failures = []

                async def storm():
                    seen = set()
                    for _ in range(30):
                        for e in edges:
                            r = await rt.handle_request(
                                {"op": "sensitivity", "edge": e})
                            if not r.get("ok"):
                                failures.append(r)
                                continue
                            gen = r["generation"]
                            seen.add(gen)
                            if r["result"] != float(expected[gen][e]):
                                failures.append(("mismatch", gen, e, r))
                    return seen

                async def update():
                    await asyncio.sleep(0.05)
                    return await rt.handle_request(
                        {"op": "update", "edge": upd_edge,
                         "weight": 1e-6})

                seen, upd = await asyncio.gather(storm(), update())
                assert failures == []  # zero failed queries across the swap
                assert upd["action"] == "rebuilt"
                assert upd["generation"] == 1
                assert [s["ok"] for s in upd["shipped_to"]] == [True]
                assert 1 in seen

                # post-swap: both replicas answer generation 1
                for e in edges[:10]:
                    r = await rt.handle_request(
                        {"op": "sensitivity", "edge": e})
                    assert r["generation"] == 1
                    assert r["result"] == float(ref1.sens[e])

                m = (await rt.handle_request({"op": "metrics"}))["result"]
                assert m["router"]["forwarded"] > len(edges)
                assert m["router"]["swaps_shipped"] == 1
                assert m["router"]["replica_hits"] > 0  # reads fanned out
                assert m["queries"] == m["router"]["forwarded"]
                spool = rt._spool
            finally:
                await rt.stop()
            assert not os.path.exists(spool)  # private spool cleaned up

        run(scenario())

    def test_router_sheds_when_every_replica_is_saturated(self):
        async def scenario():
            g = make_graph(n=80)
            rt = RouterTier(RouterConfig(workers=2, replication=2,
                                         shards=2))
            await rt.start()
            try:
                await rt.add_instance("default", g)
                for w in rt.workers.values():  # forge saturation reports
                    w.depth = {"default": {"queued": 4096, "bound": 4096,
                                           "fraction": 1.0}}
                r = await rt.handle_request(
                    {"op": "sensitivity", "edge": 1, "id": 9})
                assert not r["ok"] and r["shed"] and r["where"] == "router"
                assert r["id"] == 9
                assert rt.metrics.shed_router == 1
                # one replica drains -> traffic flows again
                next(iter(rt.workers.values())).depth = {}
                r = await rt.handle_request(
                    {"op": "sensitivity", "edge": 1})
                assert r["ok"]
            finally:
                await rt.stop()

        run(scenario())

    def test_unknown_instance_is_an_error_not_a_crash(self):
        async def scenario():
            rt = RouterTier(RouterConfig(workers=1, replication=1))
            await rt.start()
            try:
                r = await rt.handle_request(
                    {"op": "sensitivity", "edge": 1, "instance": "nope"})
                assert not r["ok"] and "unknown instance" in r["error"]
            finally:
                await rt.stop()

        run(scenario())

    def test_front_door_tcp_end_to_end(self):
        async def scenario():
            g = make_graph(n=80)
            rt = RouterTier(RouterConfig(workers=2, replication=2,
                                         port=0))
            await rt.start(serve_tcp=True)
            try:
                await rt.add_instance("default", g)
                host, port = rt.tcp_address
                plan = make_plan({"default": g.m}, 300, seed=5)
                stats = await run_tcp(host, port, plan, clients=3,
                                      pipeline=16)
                assert stats.errors == 0
                assert stats.answered + stats.type_errors >= 300 - stats.shed
            finally:
                await rt.stop()

        run(scenario())


class TestRouterShutdown:
    """The ``metrics`` op after interleaved binary traffic, and a stop()
    that stays bounded however the storm before it ended."""

    STOP_BUDGET_S = 5.0

    @staticmethod
    def _instances():
        graphs = {f"g{i}": make_graph(n=60, seed=20 + i) for i in range(3)}
        return {name: (g, build_oracle(g)) for name, g in graphs.items()}

    @staticmethod
    async def _interleaved_run(instances, seed):
        """Boot a 2-worker tier and relay one binary run whose frames
        alternate between the three instances."""
        rt = RouterTier(RouterConfig(workers=2, replication=2, shards=2,
                                     port=0, batch_window_s=0.001))
        await rt.start(serve_tcp=True)
        for name, (g, oracle) in instances.items():
            await rt.add_instance(name, g, oracle=oracle)
        host, port = rt.tcp_address
        plan = make_plan({name: g.m for name, (g, _) in instances.items()},
                         300, seed=seed)
        stats = await run_tcp(host, port, plan, clients=2, pipeline=32,
                              wire_mode="binary")
        assert stats.errors == 0
        return rt, stats

    def test_metrics_answer_after_interleaved_binary_run(self):
        async def scenario():
            rt, stats = await self._interleaved_run(self._instances(), 3)
            try:
                host, port = rt.tcp_address
                for mode in ("json", "binary"):
                    client = await ServiceClient.connect(host, port,
                                                         wire_mode=mode)
                    try:
                        r = await asyncio.wait_for(client.call("metrics"),
                                                   10.0)
                    finally:
                        await client.close()
                    assert r["ok"], (mode, r)
                    router = r["result"]["router"]
                    assert router["forwarded"] >= stats.answered > 0
                assert type(rt.metrics.forwarded) is int
                assert type(rt.metrics.shed_router) is int
            finally:
                await rt.stop()

        run(scenario())

    def test_stop_is_bounded_after_every_storm(self):
        async def scenario():
            instances = self._instances()
            for i in range(20):
                rt, _ = await self._interleaved_run(instances, i)
                t0 = time.perf_counter()
                report = await rt.stop()
                took = time.perf_counter() - t0
                assert report == {"missed_deadline": []}, (i, report)
                assert took < self.STOP_BUDGET_S, (i, took)

        run(scenario())


class _SetPingService(SensitivityService):
    async def handle_request(self, req):
        if req.get("op") == "ping":
            return {"ok": True, "result": {1, 2}}  # not JSON-encodable
        return await super().handle_request(req)


class _SetPingRouter(RouterTier):
    async def handle_request(self, req):
        if req.get("op") == "ping":
            return {"ok": True, "result": {1, 2}}  # not JSON-encodable
        return await super().handle_request(req)


class TestUnencodableAnswer:
    """An answer the door cannot encode becomes a structured error on
    both doors of the service and of the router; the connection keeps
    answering instead of wedging with the reader parked."""

    @staticmethod
    async def _check_both_doors(host, port):
        for mode in ("json", "binary"):
            client = await ServiceClient.connect(host, port, wire_mode=mode)
            try:
                r = await asyncio.wait_for(client.call("ping"), 5)
                assert not r["ok"], (mode, r)
                assert r["error"].startswith("TypeError:"), (mode, r)
                again = await asyncio.wait_for(client.call("instances"), 5)
                assert again["ok"], (mode, again)
            finally:
                await client.close()

    def test_service_doors(self):
        async def scenario():
            svc = _SetPingService(ServiceConfig(shards=2, port=0))
            svc.add_instance("default", make_graph(n=40))
            await svc.start(serve_tcp=True)
            try:
                await self._check_both_doors(*svc.tcp_address)
            finally:
                await svc.stop()

        run(scenario())

    def test_router_doors(self):
        async def scenario():
            rt = _SetPingRouter(RouterConfig(workers=1, replication=1,
                                             port=0))
            await rt.start(serve_tcp=True)
            try:
                await self._check_both_doors(*rt.tcp_address)
            finally:
                await rt.stop()

        run(scenario())


class TestServiceClientDisconnect:
    def test_midcall_disconnect_raises_structured_error(self):
        async def scenario():
            async def slam(reader, writer):
                await reader.readline()  # swallow one request, hang up
                writer.close()

            server = await asyncio.start_server(slam, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect("127.0.0.1", port)
            with pytest.raises(ServiceError) as err:
                await client.call("sensitivity", edge=1)
            assert err.value.kind == "disconnected"
            await client.close()
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_connect_refused_raises_structured_error(self):
        async def scenario():
            with pytest.raises(ServiceError) as err:
                await ServiceClient.connect("127.0.0.1", 1,
                                            connect_timeout_s=0.5)
            assert err.value.kind == "disconnected"

        run(scenario())

    def test_garbage_response_raises_protocol_error(self):
        async def scenario():
            async def babble(reader, writer):
                await reader.readline()
                writer.write(b"not json\n")
                await writer.drain()

            server = await asyncio.start_server(babble, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect("127.0.0.1", port)
            with pytest.raises(ServiceError) as err:
                await client.call("ping")
            assert err.value.kind == "protocol"
            await client.close()
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_tcp_client_against_real_service_still_works(self):
        async def scenario():
            g = make_graph(n=60)
            svc = SensitivityService(ServiceConfig(shards=2, port=0))
            svc.add_instance("default", g)
            await svc.start(serve_tcp=True)
            host, port = svc.tcp_address
            client = await ServiceClient.connect(host, port)
            try:
                r = await client.call("sensitivity", edge=2)
                assert r["ok"]
                pong = await client.call("ping")
                assert pong["ok"] and pong["result"] == "pong"
            finally:
                await client.close()
                await svc.stop()

        run(scenario())


class TestServiceLevelMetrics:
    def test_service_snapshot_pools_shard_reservoirs(self):
        async def scenario():
            g = make_graph(n=80)
            svc = SensitivityService(ServiceConfig(shards=3,
                                                   batch_window_s=0.001))
            svc.add_instance("default", g)
            await svc.start()
            try:
                for e in range(0, g.m, 4):
                    await svc.handle_request(
                        {"op": "sensitivity", "edge": e})
            finally:
                await svc.stop()
            m = svc.metrics()
            assert m["latency"]["samples"] > 0
            assert m["latency"]["p50_ms"] <= m["latency"]["p99_ms"]

        run(scenario())

    def test_merged_latency_is_percentile_of_pool(self):
        a, b = LatencyReservoir(64), LatencyReservoir(64)
        a.extend(np.full(50, 0.001))
        b.extend(np.full(50, 0.003))
        m = merged_latency([a, b])
        assert m["samples"] == 100
        assert m["p50_ms"] == pytest.approx(2.0, abs=1.1)
        assert m["p99_ms"] == pytest.approx(3.0, abs=0.1)
        assert merged_latency([])["samples"] == 0

    def test_depth_op_reports_queue_fractions(self):
        async def scenario():
            g = make_graph(n=60)
            svc = SensitivityService(ServiceConfig(shards=2,
                                                   queue_depth=100))
            svc.add_instance("default", g)
            await svc.start()
            try:
                r = await svc.handle_request({"op": "depth"})
            finally:
                await svc.stop()
            d = r["result"]["default"]
            assert d["queued"] == 0 and d["bound"] == 200
            assert d["fraction"] == 0.0

        run(scenario())
