"""Self-healing router tier: supervision, failover, chaos, resync.

The load-bearing claims of DESIGN.md §6.4, pinned at both layers:

* **units** — the :class:`GenerationLedger` records publishes + patch
  logs with a monotonic-generation guard; the :class:`RestartPolicy`
  doubles its backoff and evicts after ``max_restarts`` inside the
  sliding window; :class:`ChaosPlan` parses every grammar form
  deterministically (same seed, same plan) and rejects bad tokens;
* **integration** (real worker processes) — SIGKILL a replica
  mid-storm and *zero* reads fail (retried transparently on the live
  replica), the worker respawns, catches up from the ledger, and
  answers bit-identical to the untouched fleet; a structural
  ``update_batch`` whose primary just died fails over to the promoted
  replica and applies exactly once, never a torn generation; a worker
  whose query links are all dead leaves the read rotation immediately
  (the stale-depth routing bug); a replica whose control link was
  severed is marked stale before a patch lands anywhere and resyncs
  from the ledger via link healing, no respawn;
* **lifetime** — workers die with their router, even when the router
  process ends abnormally (``os._exit``).
"""

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

import repro

from repro.errors import ValidationError
from repro.graph.generators import known_mst_instance
from repro.oracle import build_oracle
from repro.service import (
    ChaosInjector,
    ChaosPlan,
    GenerationLedger,
    InstanceUpdater,
    RestartPolicy,
    RouterConfig,
    RouterTier,
)
from repro.service import chaos


def run(coro):
    return asyncio.run(coro)


def make_graph(n=100, seed=11):
    g, _ = known_mst_instance("random", n, extra_m=2 * n, rng=seed)
    return g


async def eventually(cond, timeout_s=90.0, interval_s=0.05):
    """Poll ``cond`` until true or the deadline passes."""
    deadline = time.perf_counter() + timeout_s
    while True:
        if cond():
            return True
        if time.perf_counter() >= deadline:
            return False
        await asyncio.sleep(interval_s)


class TestGenerationLedger:
    def test_publish_then_patches_then_latest(self):
        led = GenerationLedger()
        led.record_publish("a", "/spool/a-0.npz", "d0" * 32, 0)
        led.record_patch("a", 7, 1.5)
        led.record_patch("a", 9, 2.5)
        e = led.latest("a")
        assert e.generation == 0 and e.path == "/spool/a-0.npz"
        assert e.patches == [(7, 1.5), (9, 2.5)]
        assert led.instances() == ["a"]
        assert led.snapshot()["a"]["patches"] == 2

    def test_publish_resets_the_patch_log(self):
        led = GenerationLedger()
        led.record_publish("a", "p0", "d0" * 32, 0)
        led.record_patch("a", 1, 1.0)
        led.record_publish("a", "p1", "d1" * 32, 1)
        e = led.latest("a")
        assert e.generation == 1 and e.patches == []

    def test_generation_regression_raises(self):
        led = GenerationLedger()
        led.record_publish("a", "p3", "d3" * 32, 3)
        with pytest.raises(ValidationError):
            led.record_publish("a", "p2", "d2" * 32, 2)

    def test_unknown_instance_raises(self):
        led = GenerationLedger()
        with pytest.raises(ValidationError):
            led.latest("nope")
        with pytest.raises(ValidationError):
            led.record_patch("nope", 0, 1.0)


class TestRestartPolicy:
    def test_backoff_doubles_until_the_cap(self):
        pol = RestartPolicy(max_restarts=10, window_s=60.0,
                            backoff_s=0.1, backoff_cap_s=1.0)
        delays = [pol.next_delay(3, now=float(i)) for i in range(6)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]

    def test_window_exhaustion_evicts(self):
        pol = RestartPolicy(max_restarts=3, window_s=60.0, backoff_s=0.01)
        assert all(pol.next_delay(5, now=float(i)) is not None
                   for i in range(3))
        assert pol.next_delay(5, now=3.0) is None  # budget burned
        assert pol.attempts_in_window(5, now=3.0) == 3
        # an unrelated worker still has its full budget
        assert pol.next_delay(6, now=3.0) == 0.01

    def test_window_slides(self):
        pol = RestartPolicy(max_restarts=2, window_s=10.0, backoff_s=0.01)
        assert pol.next_delay(1, now=0.0) is not None
        assert pol.next_delay(1, now=1.0) is not None
        assert pol.next_delay(1, now=2.0) is None
        # both attempts age out of the window: budget (and backoff) reset
        assert pol.next_delay(1, now=20.0) == 0.01


class TestChaosPlan:
    def test_parse_every_form_and_sorts_by_time(self):
        plan = ChaosPlan.parse("sever:0@2.0, kill:1@0.5, delay:2@1.0:0.05")
        assert [(e.action, e.worker, e.at_s) for e in plan.events] == [
            ("kill", 1, 0.5), ("delay", 2, 1.0), ("sever", 0, 2.0)]
        assert plan.events[1].delay_s == 0.05
        assert plan.events[1].duration_s == 1.0  # default window
        long = ChaosPlan.parse("delay:0@0.1:0.02:3.5")
        assert long.events[0].duration_s == 3.5

    def test_rand_form_is_seed_deterministic(self):
        a = ChaosPlan.parse("rand:7@3.0:3")
        b = ChaosPlan.parse("rand:7@3.0:3")
        c = ChaosPlan.parse("rand:8@3.0:3")
        assert len(a) == 3
        assert [(e.worker, e.at_s) for e in a.events] == \
               [(e.worker, e.at_s) for e in b.events]
        assert [(e.worker, e.at_s) for e in a.events] != \
               [(e.worker, e.at_s) for e in c.events]
        assert all(e.action == "kill" and 0 < e.at_s <= 3.0
                   for e in a.events)

    @pytest.mark.parametrize("bad", [
        "", "nonsense", "explode:1@0.5", "kill:1", "kill:@0.5",
        "delay:1@0.5", "kill:x@0.5", "rand:7",
    ])
    def test_bad_tokens_raise_with_the_grammar(self, bad):
        with pytest.raises(ValidationError):
            ChaosPlan.parse(bad)


class TestChaosStop:
    #: One chaos cycle costs about 0.35 s on a 2-vCPU host, so these
    #: take about 8 s.
    CHAOS_CYCLES = 22

    def test_a_plan_ignoring_its_cancel_is_named_not_awaited(
            self, monkeypatch):
        """An injector task that swallows its cancel cannot hold the
        router's stop: the wait is bounded and the straggler named."""
        monkeypatch.setattr(chaos, "STOP_DEADLINE_S", 0.05)

        async def stubborn():
            try:
                await asyncio.sleep(3600)
            except asyncio.CancelledError:
                pass  # swallow the first cancel
            await asyncio.sleep(3600)

        async def scenario():
            rt = RouterTier(RouterConfig(workers=1))
            injector = ChaosInjector(ChaosPlan.parse("kill:0@1"))
            injector._task = task = asyncio.get_running_loop().create_task(
                stubborn())
            rt._injectors.append(injector)
            await asyncio.sleep(0)
            try:
                t0 = time.perf_counter()
                report = await asyncio.wait_for(rt.stop(), 5.0)
                return report, time.perf_counter() - t0
            finally:
                task.cancel()

        report, took = run(scenario())
        assert report == {"missed_deadline": ["chaos:0"]}
        assert took < 1.0, took

    def test_stop_while_a_respawn_is_in_flight(self, monkeypatch):
        """start → storm → chaos kill → stop() issued the moment the
        respawned process is launched: every cycle stops within its
        bound, names nothing, and leaves no process running — the
        half-booted replacement included."""
        launched, respawned = [], []
        launch = RouterTier._launch_worker

        def recording(self, wid):
            proc, boot = launch(self, wid)
            launched.append(proc)
            if self.started_at is not None:  # a respawn, not the boot
                respawned.append(proc)
            return proc, boot

        monkeypatch.setattr(RouterTier, "_launch_worker", recording)
        g = make_graph(n=60)
        oracle = build_oracle(g)

        async def cycle():
            rt = RouterTier(RouterConfig(
                workers=2, replication=2, shards=2, heartbeat_s=0.05,
                restart_backoff_s=0.01, read_retry_deadline_s=30.0))
            await rt.start()
            try:
                await rt.add_instance("default", g, oracle=oracle)
                rt.arm_chaos(ChaosPlan.parse("kill:1@0.05"))
                failures = []
                before = len(respawned)
                deadline = time.perf_counter() + 30.0
                while len(respawned) == before:
                    assert time.perf_counter() < deadline, "no respawn"
                    for e in range(0, g.m, 5):
                        r = await rt.handle_request(
                            {"op": "sensitivity", "edge": e})
                        if not r.get("ok"):
                            failures.append(r)
                    await asyncio.sleep(0)
                assert failures == []
                restarts = rt.supervisor.metrics.restarts
            finally:
                t0 = time.perf_counter()
                report = await rt.stop()
                took = time.perf_counter() - t0
            return report, took, restarts

        async def scenario():
            return [await cycle() for _ in range(self.CHAOS_CYCLES)]

        for i, (report, took, restarts) in enumerate(run(scenario())):
            assert report == {"missed_deadline": []}, (i, report)
            assert took < 5.0, (i, took)
            assert restarts == 0, i  # the stop beat the respawn
        for proc in launched:
            proc.join(5.0)
            assert proc.exitcode is not None, proc


class TestSelfHealing:
    """Real worker processes: crash, recover, stay bit-identical."""

    def test_kill_mid_storm_zero_failed_reads_then_rejoin(self):
        async def scenario():
            g = make_graph()
            ref = build_oracle(g)
            rt = RouterTier(RouterConfig(
                workers=2, replication=2, shards=2,
                heartbeat_s=0.05,
                restart_backoff_s=0.01, read_retry_deadline_s=30.0))
            await rt.start()
            try:
                await rt.add_instance("default", g)
                placed = rt.instances["default"]
                victim = rt.workers[placed.replicas[0]]
                edges = list(range(0, g.m, 3))
                failures = []

                async def storm():
                    for _ in range(40):
                        for e in edges:
                            r = await rt.handle_request(
                                {"op": "sensitivity", "edge": e})
                            if not r.get("ok"):
                                failures.append(r)
                            elif r["result"] != float(ref.sens[e]):
                                failures.append(("mismatch", e, r))

                async def crash():
                    await asyncio.sleep(0.05)
                    victim.proc.kill()  # SIGKILL: no shutdown handler

                await asyncio.gather(storm(), crash())
                assert failures == []  # every read survived the crash

                sup = rt.supervisor
                assert await eventually(
                    lambda: sup.metrics.restarts >= 1 and victim.up
                    and not victim.stale and not sup._recovering)
                assert sup.metrics.deaths_detected >= 1

                # the rejoined worker adopted the ledger's latest
                # generation and answers bit-identical to the replica
                # that never died
                entry = sup.ledger.latest("default")
                assert entry.generation == 0 and entry.patches == []
                for w in rt.workers.values():
                    for e in edges[::4]:
                        r = await w.control.request(
                            {"op": "sensitivity", "instance": "default",
                             "edge": e})
                        assert r["ok"]
                        assert r["generation"] == entry.generation
                        assert r["result"] == float(ref.sens[e])
                m = await rt.router_metrics()
                assert m["supervisor"]["restarts"] >= 1
                assert m["supervisor"]["recovery_p99_s"] is not None
            finally:
                await rt.stop()

        run(scenario())

    def test_structural_batch_fails_over_never_torn(self):
        async def scenario():
            g = make_graph(n=80)
            hi = float(g.w.max())
            ops = [{"kind": "add", "u": j, "v": j + 7, "weight": hi + 1 + j}
                   for j in range(4)]
            ref_up = InstanceUpdater.build("ref", g.copy())
            ref_up.apply_batch(ops)

            rt = RouterTier(RouterConfig(
                workers=2, replication=2, shards=2,
                heartbeat_s=0.05,
                restart_backoff_s=0.01, read_retry_deadline_s=30.0))
            await rt.start()
            try:
                await rt.add_instance("default", g)
                placed = rt.instances["default"]
                primary = rt.workers[placed.replicas[0]]
                primary.proc.kill()
                assert await eventually(
                    lambda: not primary.proc.is_alive(), timeout_s=10.0)

                # the write fails over to the promoted replica and
                # applies exactly once: a full generation, never torn
                resp = await rt.handle_request(
                    {"op": "update_batch", "ops": ops})
                assert resp["ok"] and resp["action"] == "rebuilt"
                assert resp["generation"] == 1
                assert resp["m"] == g.m + 4
                assert rt.supervisor.metrics.failovers >= 1
                assert placed.m == g.m + 4  # new edge ids route

                for e in range(0, g.m + 4, 7):
                    r = await rt.handle_request(
                        {"op": "sensitivity", "edge": e})
                    assert r["ok"] and r["generation"] == 1
                    assert r["result"] == float(ref_up.oracle.sens[e])

                # the dead canonical primary respawns and re-adopts the
                # promoted replica's generation from the ledger
                sup = rt.supervisor
                assert await eventually(
                    lambda: sup.metrics.restarts >= 1 and primary.up
                    and not primary.stale and not sup._recovering)
                assert sup.ledger.latest("default").generation == 1
                for w in rt.workers.values():
                    for e in range(0, g.m + 4, 7):
                        r = await w.control.request(
                            {"op": "sensitivity", "instance": "default",
                             "edge": e})
                        assert r["ok"] and r["generation"] == 1
                        assert r["result"] == float(ref_up.oracle.sens[e])
            finally:
                await rt.stop()

        run(scenario())


class TestReadRotation:
    def test_dead_query_links_leave_the_rotation_immediately(self):
        """The stale-depth bug: a fresh-looking depth report must not
        keep a worker with dead links in the replica rotation."""
        async def scenario():
            g = make_graph(n=60)
            rt = RouterTier(RouterConfig(workers=2, replication=2,
                                         supervise=False))
            await rt.start()
            try:
                await rt.add_instance("default", g)
                placed = rt.instances["default"]
                dying = rt.workers[placed.replicas[0]]
                alive = rt.workers[placed.replicas[1]]
                # forge the exact state of the old bug: a healthy-looking
                # last depth report on a worker whose links just died
                dying.depth = {"default": {"queued": 0, "bound": 4096,
                                           "fraction": 0.0}}
                for link in dying.query_links:
                    await link.close()
                for _ in range(2 * len(placed.replicas)):
                    assert rt._pick_worker(placed) is alive
                r = await rt.handle_request({"op": "sensitivity",
                                             "edge": 1})
                assert r["ok"]
            finally:
                await rt.stop()

        run(scenario())


class TestReplicaResync:
    def test_severed_control_marks_stale_and_resyncs_via_heal(self):
        """Satellite: a replica that cannot receive a patch is frozen
        out of reads *before* the patch lands anywhere, then re-aligned
        from the ledger by link healing — no respawn."""
        async def scenario():
            g = make_graph(n=80)
            ref = build_oracle(g)
            probe = InstanceUpdater("probe", g, ref)
            edge = next(
                e for e in range(g.m) if not ref.tree_mask[e]
                and probe.classify(e, float(ref.w[e]) + 5.0) == "patched")
            new_w = float(ref.w[edge]) + 5.0
            expected = build_oracle(g)     # fresh copy to patch locally
            expected.reprice(edge, new_w)

            rt = RouterTier(RouterConfig(
                workers=2, replication=2, shards=2,
                heartbeat_s=60.0,
                restart_backoff_s=0.01))
            await rt.start()
            try:
                await rt.add_instance("default", g)
                placed = rt.instances["default"]
                replica = rt.workers[placed.replicas[1]]
                await replica.control.close()  # sever the write path only

                resp = await rt.handle_request(
                    {"op": "update", "edge": edge, "weight": new_w})
                assert resp["ok"] and resp["action"] == "patched"
                assert rt.supervisor.ledger.latest("default").patches == \
                    [(edge, new_w)]

                sup = rt.supervisor
                assert await eventually(
                    lambda: not replica.stale and replica.up
                    and sup.metrics.resyncs >= 1 and not sup._recovering)
                # healed in place: the process never restarted
                assert sup.metrics.restarts == 0
                assert sup.metrics.links_healed >= 1
                for w in rt.workers.values():
                    r = await w.control.request(
                        {"op": "sensitivity", "instance": "default",
                         "edge": edge})
                    assert r["ok"]
                    assert r["result"] == float(expected.sens[edge])
            finally:
                await rt.stop()

        run(scenario())


#: Boots a one-worker tier, prints the worker's pid, then dies without
#: any cleanup. The ``__main__`` guard matters: forkserver and spawn
#: re-import the main module in the worker.
ORPHAN_SCRIPT = """
import asyncio, os, sys
from repro.service import RouterConfig, RouterTier

async def main():
    rt = RouterTier(RouterConfig(workers=1, replication=1,
                                 mmap_dir=sys.argv[1]))
    await rt.start()
    print(rt.workers[0].proc.pid, flush=True)
    os._exit(1)

if __name__ == "__main__":
    asyncio.run(main())
"""


def _alive(pid: int) -> bool:
    """A live, non-zombie process (orphans may never be reaped here)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


class TestWorkerLifetime:
    def test_workers_exit_when_the_router_process_dies(self, tmp_path):
        script = tmp_path / "orphan.py"
        script.write_text(ORPHAN_SCRIPT)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        # the worker inherits the script's stdout: read the pid line,
        # never wait for EOF (a surviving worker would hold it open)
        with open(tmp_path / "stderr.log", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, str(script), str(tmp_path / "spool")],
                stdout=subprocess.PIPE, stderr=err, env=env)
        pid = None
        try:
            line = proc.stdout.readline()
            assert proc.wait(timeout=60) == 1
            pid = int(line)
            deadline = time.perf_counter() + 10.0
            while _alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.05)
            assert not _alive(pid), "worker outlived its router"
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
            if pid is not None and _alive(pid):
                os.kill(pid, signal.SIGKILL)
