"""Process-parallel executor: pool fault isolation, shm blocks, and the
``executor="process"`` vs serial differential sweep.

The executor is a *physical* knob: every observable — outputs, plan
statuses, and the full :class:`CostReport` dict (rounds, per-phase
paths, primitive counts, peaks, transport rounds) — must be
bit-identical to serial execution, across both engines and all instance
families. Crash tests exercise the pool's claim-slot attribution and
the executor's inline fallback: one dying worker never fails a run.
"""

import asyncio

import numpy as np
import pytest

from repro.core.sensitivity import mst_sensitivity
from repro.core.verification import verify_mst
from repro.errors import ValidationError
from repro.graph.generators import TREE_SHAPES, known_mst_instance, \
    perturb_break_mst
from repro.mpc import LocalRuntime, MPCConfig, Table
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


#: Force dispatch on small test instances (the default 32768-row floor
#: would keep everything inline at these sizes).
PROC = MPCConfig(executor="process", executor_min_rows=0)
SER = MPCConfig()
PROC_DIST = MPCConfig(delta=0.6, executor="process", executor_min_rows=0)
SER_DIST = MPCConfig(delta=0.6)


def _configs(engine):
    return (PROC_DIST, SER_DIST) if engine == "distributed" else (PROC, SER)


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


# -- planner dispatch ----------------------------------------------------------


class TestExecutorDispatch:
    def test_sort_results_installed_bit_identical(self, pool):
        rt = LocalRuntime(PROC)
        k = np.array([5, 1, 4, 1, 3], dtype=np.int64)
        v = np.array([0.5, 0.1, 0.4, 0.15, 0.3])
        out = rt.sort(Table(k=k, v=v), ("k",))
        rt.flush_plan()
        order = np.argsort(k, kind="stable")
        np.testing.assert_array_equal(out.col("k"), k[order])
        np.testing.assert_array_equal(out.col("v"), v[order])
        assert rt.planner.executor.dispatched == 1
        assert out.plan_node.status == "executed"
        assert out.plan_node.physical == "argsort-permute"

    def test_elision_still_decided_in_parent(self, pool):
        rt = LocalRuntime(PROC)
        t = Table(k=np.arange(64, dtype=np.int64))
        out = rt.sort(t, ("k",))
        rt.flush_plan()
        assert out.plan_node.status == "elided"
        assert rt.planner.executor.dispatched == 0

    def test_min_rows_keeps_small_sorts_inline(self, pool):
        rt = LocalRuntime(MPCConfig(executor="process",
                                    executor_min_rows=1000))
        out = rt.sort(Table(k=np.array([2, 1], dtype=np.int64)), ("k",))
        rt.flush_plan()
        np.testing.assert_array_equal(out.col("k"), [1, 2])
        assert rt.planner.executor.dispatched == 0

    def test_composite_key_sorts_dispatch(self, pool):
        rt = LocalRuntime(PROC)
        a = np.array([1, 0, 1, 0], dtype=np.int64)
        b = np.array([0, 1, 1, 0], dtype=np.int64)
        out = rt.sort(Table(a=a, b=b), ("a", "b"))
        rt.flush_plan()
        np.testing.assert_array_equal(out.col("a"), [0, 0, 1, 1])
        np.testing.assert_array_equal(out.col("b"), [0, 1, 0, 1])
        assert rt.planner.executor.dispatched == 1

    def test_worker_crash_falls_back_inline(self, pool, monkeypatch):
        """Kill a worker mid-plan: the sabotaged segment re-executes
        inline (bit-identical kernels), the crash is counted, and the
        pool survives for the remaining dispatches."""
        orig = WorkerPool.submit
        hit = {"n": 0}

        def sabotage(self, kind, payload):
            if kind == "sort" and hit["n"] == 0:
                hit["n"] += 1
                return orig(self, "crash", 5)
            return orig(self, kind, payload)

        monkeypatch.setattr(WorkerPool, "submit", sabotage)
        before = pool.crashes
        rt = LocalRuntime(PROC)
        rng = np.random.default_rng(0)
        tables = [Table(k=rng.integers(0, 1000, size=256),
                        v=rng.standard_normal(256)) for _ in range(3)]
        outs = [rt.sort(t, ("k",)) for t in tables]
        rt.flush_plan()
        monkeypatch.undo()
        for t, out in zip(tables, outs):
            order = np.argsort(t.col("k"), kind="stable")
            np.testing.assert_array_equal(out.col("k"), t.col("k")[order])
            np.testing.assert_array_equal(out.col("v"), t.col("v")[order])
        assert rt.planner.executor.dispatched == 3
        assert rt.planner.executor.inline_fallbacks == 1
        assert pool.crashes > before
        assert pool.wait([pool.submit("ping", 1)])[0].ok

    def test_serial_config_never_touches_pool(self):
        rt = LocalRuntime(SER)
        assert rt.planner.executor is None

    def test_record_mode_engine_gets_no_executor(self):
        from repro.mpc import DistributedRuntime

        rt = DistributedRuntime(PROC_DIST)
        assert rt.planner.executor is None  # transport is physical truth

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValidationError):
            MPCConfig(executor="threads")
        with pytest.raises(ValidationError):
            MPCConfig(executor="process", executor_workers=0)


# -- the differential sweep: process vs serial, both engines -------------------


@pytest.mark.parametrize("engine", ("local", "distributed"))
@pytest.mark.parametrize("n", (512, 1024))
@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_executor_bit_identical_sensitivity(engine, n, shape, pool):
    g, _ = known_mst_instance(shape, n, extra_m=2 * n, rng=n + len(shape))
    proc_cfg, ser_cfg = _configs(engine)
    sp = mst_sensitivity(g, engine=engine, config=proc_cfg)
    ss = mst_sensitivity(g, engine=engine, config=ser_cfg)
    np.testing.assert_array_equal(sp.sensitivity, ss.sensitivity)
    np.testing.assert_array_equal(sp.mc, ss.mc)
    np.testing.assert_array_equal(sp.pathmax, ss.pathmax)
    assert sp.report.to_dict() == ss.report.to_dict()


@pytest.mark.parametrize("engine", ("local", "distributed"))
@pytest.mark.parametrize("n", (512, 1024))
@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_executor_bit_identical_verification(engine, n, shape, pool):
    g, _ = known_mst_instance(shape, n, extra_m=2 * n, rng=3 * n)
    g = perturb_break_mst(g, rng=n + 1)
    proc_cfg, ser_cfg = _configs(engine)
    rp = verify_mst(g, engine=engine, config=proc_cfg)
    rs = verify_mst(g, engine=engine, config=ser_cfg)
    assert rp.is_mst == rs.is_mst
    np.testing.assert_array_equal(rp.violating_edges, rs.violating_edges)
    np.testing.assert_array_equal(rp.pathmax, rs.pathmax)
    assert rp.report.to_dict() == rs.report.to_dict()


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
