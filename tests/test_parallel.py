"""The worker pool: fault isolation, shm blocks, workload partitions.

Partitions are a *physical* choice: every observable — outputs and the
full :class:`CostReport` dict (rounds, per-phase paths, primitive
counts, peaks, transport rounds) — must be bit-identical to serial
execution of the same instance, on both engines. Crash tests exercise
the pool's claim-slot attribution: one dying worker never takes down
the pool or its sibling tasks' results.
"""

import asyncio
import os
import signal
import time

import numpy as np
import pytest

from repro.core.sensitivity import mst_sensitivity
from repro.core.verification import verify_mst
from repro.errors import ValidationError
from repro.graph.generators import known_mst_instance, perturb_break_mst
from repro.mpc import MPCConfig
from repro.mpc import parallel
from repro.mpc.parallel import (
    ShmBlock,
    WorkerPool,
    attach_columns,
    copy_columns,
    default_start_method,
    get_pool,
    run_partitions,
    share_columns,
    shutdown_pool,
)


@pytest.fixture(scope="module")
def pool():
    """One shared pool for the module (spawning workers is the slow part)."""
    p = get_pool()
    p.ping()
    yield p


SER_DIST = MPCConfig(delta=0.6)


# -- shared-memory column blocks -----------------------------------------------


class TestShmBlocks:
    def test_roundtrip_mixed_dtypes(self):
        cols = {
            "a": np.arange(100, dtype=np.int64),
            "b": np.linspace(0, 1, 100),
            "c": np.array([True, False] * 50),
        }
        shm, block = share_columns(cols)
        try:
            back = copy_columns(block)
            assert set(back) == set(cols)
            for k in cols:
                np.testing.assert_array_equal(back[k], cols[k])
                assert back[k].dtype == cols[k].dtype
        finally:
            shm.close()
            shm.unlink()

    def test_views_are_zero_copy_and_aligned(self):
        cols = {"x": np.arange(7, dtype=np.int64),
                "y": np.arange(7, dtype=np.float64)}
        shm, block = share_columns(cols)
        try:
            shm2, views = attach_columns(block)
            try:
                for _, _, _, off in block.meta:
                    assert off % 64 == 0
                assert views["x"].base is not None  # a view, not a copy
                np.testing.assert_array_equal(views["x"], cols["x"])
            finally:
                shm2.close()
        finally:
            shm.close()
            shm.unlink()

    def test_block_handle_is_picklable(self):
        import pickle

        block = ShmBlock(name="psm_test", nbytes=64,
                         meta=(("a", "<i8", (8,), 0),))
        assert pickle.loads(pickle.dumps(block)) == block

    def test_empty_columns(self):
        shm, block = share_columns({"e": np.empty(0, dtype=np.int64)})
        try:
            back = copy_columns(block)
            assert len(back["e"]) == 0
        finally:
            shm.close()
            shm.unlink()


# -- the worker pool -----------------------------------------------------------


class TestWorkerPool:
    def test_explicit_start_method_never_fork_by_default(self, monkeypatch):
        monkeypatch.delenv(parallel.START_METHOD_ENV, raising=False)
        assert default_start_method() in ("forkserver", "spawn")

    def test_env_override_and_validation(self, monkeypatch):
        monkeypatch.setenv(parallel.START_METHOD_ENV, "spawn")
        assert default_start_method() == "spawn"
        monkeypatch.setenv(parallel.START_METHOD_ENV, "not-a-method")
        with pytest.raises(ValidationError):
            default_start_method()

    def test_map_preserves_order(self, pool):
        outs = pool.map("ping", list(range(8)))
        assert [o.value for o in outs] == list(range(8))
        assert all(o.ok for o in outs)

    def test_task_error_is_outcome_not_crash(self, pool):
        out = pool.wait([pool.submit(
            "call", ("repro.mpc.parallel", "no_such_function", None))])[0]
        assert not out.ok and not out.crashed
        assert "AttributeError" in out.error
        assert "no_such_function" in out.traceback

    def test_worker_crash_is_attributed_and_pool_survives(self, pool):
        from repro.errors import WorkerCrashed

        before = pool.crashes
        crashed = pool.wait([pool.submit("crash", 9)])[0]
        assert not crashed.ok and crashed.crashed
        assert "exitcode 9" in crashed.error
        assert pool.crashes == before + 1
        with pytest.raises(WorkerCrashed):
            crashed.unwrap()
        # the respawned slot serves new work
        alive = pool.wait([pool.submit("ping", "again")])[0]
        assert alive.ok and alive.value == "again"

    def test_crash_does_not_discard_sibling_results(self, pool):
        """The claim-slot protocol: results reported before the crash
        (over the surviving pipe) and tasks queued after it all land."""
        tids = [pool.submit("ping", i) for i in range(5)]
        tids.append(pool.submit("crash", 3))
        tids.append(pool.submit("ping", 99))
        outs = pool.wait(tids)
        assert [o.ok for o in outs] == [True] * 5 + [False, True]
        assert outs[5].crashed
        assert outs[6].value == 99

    def test_closed_pool_rejects_submissions(self):
        p = WorkerPool(1)
        p.close()
        from repro.errors import ExecutorError

        with pytest.raises(ExecutorError):
            p.submit("ping", 1)

    def test_close_kills_a_stopped_worker(self, monkeypatch):
        """A SIGSTOPped worker reads no stop message and leaves SIGTERM
        pending; close() still returns within its bound (the join
        deadline + 1 s terminate + 1 s kill), and the worker is gone
        afterwards. The join deadline is shortened so the test waits
        ~2.5 s rather than ~7 s."""
        monkeypatch.setattr(parallel, "CLOSE_DEADLINE_S", 0.5)
        p = WorkerPool(1)
        p.ping()
        victim = p._procs[0]
        try:
            os.kill(victim.pid, signal.SIGSTOP)
            t0 = time.perf_counter()
            p.close()
            took = time.perf_counter() - t0
            alive = victim.is_alive()
        finally:
            if victim.exitcode is None:  # not reaped: the pid is ours
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(5)
        assert took < parallel.CLOSE_DEADLINE_S + 2.5, took
        assert not alive


# -- workload-level partitions -------------------------------------------------


class TestRunPartitions:
    def test_partition_reports_bit_identical_to_serial(self, pool):
        gs = [known_mst_instance("random", 256, extra_m=512, rng=s)[0]
              for s in range(4)]
        outs = run_partitions(gs, kind="sensitivity", engine="local",
                              pool=pool)
        assert all(o.ok for o in outs)
        for g, o in zip(gs, outs):
            ser = mst_sensitivity(g, engine="local")
            np.testing.assert_array_equal(o.value["sensitivity"],
                                          ser.sensitivity)
            np.testing.assert_array_equal(o.value["mc"], ser.mc)
            assert o.value["report"] == ser.report.to_dict()

    def test_verify_partitions_both_engines(self, pool):
        g, _ = known_mst_instance("caterpillar", 256, extra_m=512, rng=3)
        broken = perturb_break_mst(g, rng=4)
        for engine, cfg in (("local", None), ("distributed", SER_DIST)):
            outs = run_partitions([g, broken], kind="verify", engine=engine,
                                  config=cfg, pool=pool)
            assert outs[0].value["is_mst"]
            assert not outs[1].value["is_mst"]
            ser = verify_mst(broken, engine=engine, config=cfg)
            assert outs[1].value["report"] == ser.report.to_dict()

    def test_rejects_unknown_kind(self, pool):
        with pytest.raises(ValidationError):
            run_partitions([], kind="frobnicate")


# -- spawn-context safety under an active service ------------------------------


class TestServiceCoexistence:
    def test_pool_dispatch_under_running_service(self, pool):
        """A live asyncio service (event loop + shard workers + update
        thread machinery) in the parent must not leak into workers —
        the explicit forkserver/spawn context never snapshots it."""
        from repro.service import SensitivityService, ServiceConfig

        g, _ = known_mst_instance("random", 200, extra_m=400, rng=6)

        async def scenario():
            svc = SensitivityService(ServiceConfig(shards=2))
            svc.add_instance("default", g)
            await svc.start()
            try:
                # dispatch pool work while the loop is live: run the
                # blocking pool calls on a thread so the service's loop
                # keeps ticking mid-flight
                outs = await asyncio.to_thread(
                    run_partitions, [g], "sensitivity", "local", None, pool)
                # and the service still answers afterwards
                ans = await svc.query("sensitivity", 0)
                return outs, ans
            finally:
                await svc.stop()

        outs, ans = asyncio.run(scenario())
        assert outs[0].ok
        ser = mst_sensitivity(g, engine="local")
        np.testing.assert_array_equal(outs[0].value["sensitivity"],
                                      ser.sensitivity)
        assert ans["ok"]


# -- pool lifecycle ------------------------------------------------------------


class TestPoolLifecycle:
    def test_get_pool_is_shared_and_grows(self):
        a = get_pool()
        b = get_pool()
        assert a is b
        before = a.workers
        c = get_pool(before + 1)
        assert c is a and c.workers == before + 1

    def test_shutdown_then_fresh_pool(self):
        shutdown_pool()
        p = get_pool()
        assert not p.closed
        assert p.wait([p.submit("ping", 0)])[0].ok
