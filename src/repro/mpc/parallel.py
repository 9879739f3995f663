"""The worker pool behind workload-level partitions and batch jobs (S21).

The planner/executor split charges every primitive's rounds and words
at the *logical* call site, which frees *physical* execution to run
anywhere — including other processes. This module is that "anywhere":

* :class:`WorkerPool` — a persistent pool of worker processes started
  from an **explicit** ``multiprocessing`` context (``forkserver`` by
  default on platforms that have it, else ``spawn``; never the implicit
  platform default, which on Linux is ``fork`` and can snapshot a parent
  mid-flight holding live asyncio loops, service rebuild threads or
  zip-member memmap handles). Tasks travel over a shared queue; each
  worker records the task it is executing in a crash-proof shared
  *claim slot* before starting, so a worker that dies mid-task is
  detected, its task fails with a clean crashed outcome, and the slot
  is respawned — one bad task never takes down the pool or the other
  tasks' results.
* shared-memory **column blocks** — a dict of NumPy columns packed into
  one ``multiprocessing.shared_memory`` segment (64-byte-aligned offsets,
  metadata shipped separately), so workers attach to the parent's
  buffers by name instead of pickling table payloads through pipes.
* :func:`run_partitions` — the workload-level partition API: N
  independent verify/sensitivity plan partitions (one per instance, the
  "one worker per machine shard" topology of the pia-mpc exemplar run
  as local processes) execute concurrently, each worker attaching to
  the parent's graph columns via shared memory and running the full
  pipeline with its own logical accounting. Per-partition CostReports
  are bit-identical to serial execution of the same partition — the E15
  benchmark asserts this wholesale and gates the wall speedup.

Inside one plan, physical execution is always the planner's serial FIFO
drain in the calling process: each deferred sort is forced by the op
that consumes it, so a plan has no independent segments worth shipping.
"""

from __future__ import annotations

import atexit
import importlib
import os
import time
import traceback as _traceback
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutorError, ValidationError, WorkerCrashed

__all__ = [
    "ShmBlock",
    "share_columns",
    "attach_columns",
    "copy_columns",
    "Outcome",
    "WorkerPool",
    "run_partitions",
    "default_start_method",
    "get_pool",
    "shutdown_pool",
]

#: Env override for the worker start method (CI runs the fault-isolation
#: tests under both ``fork`` and ``forkserver``).
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: How long ``WorkerPool.close()`` waits, shared by all workers, for
#: them to take their stop message before it terminates (1 s) and then
#: kills (1 s more) whichever are left.
CLOSE_DEADLINE_S = 5.0

_ALIGN = 64  # cache-line-aligned column offsets inside a block


def default_start_method() -> str:
    """The explicit start method for every pool this package creates.

    ``forkserver`` where available (the server process forks from a
    clean, thread-free template, so a parent holding asyncio loops,
    worker threads or mmap handles is safe), else ``spawn``. The
    implicit platform default is deliberately never used.
    """
    import multiprocessing as mp

    method = os.environ.get(START_METHOD_ENV, "").strip()
    available = mp.get_all_start_methods()
    if method:
        if method not in available:
            raise ValidationError(
                f"{START_METHOD_ENV}={method!r} is not available here "
                f"(have {available})"
            )
        return method
    return "forkserver" if "forkserver" in available else "spawn"


def get_context():
    """The explicit multiprocessing context (see :func:`default_start_method`)."""
    import multiprocessing as mp

    return mp.get_context(default_start_method())


# ---------------------------------------------------------------------------
# shared-memory column blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShmBlock:
    """Handle to one shared-memory segment holding named columns.

    ``meta`` is ``((name, dtype_str, shape, offset), ...)`` — everything
    needed to rebuild zero-copy views after attaching by ``name``. The
    handle itself is tiny and picklable; the column bytes never travel
    through a pipe.
    """

    name: str
    meta: Tuple[Tuple[str, str, Tuple[int, ...], int], ...]
    nbytes: int


def share_columns(cols: Mapping[str, np.ndarray]
                  ) -> Tuple[shared_memory.SharedMemory, ShmBlock]:
    """Pack ``cols`` into one fresh shared-memory segment.

    Returns the live segment (caller closes; the final owner unlinks)
    and the picklable :class:`ShmBlock` handle.

    Resource-tracker accounting: every process in one multiprocessing
    tree shares a single tracker (the fd travels with spawn/forkserver
    preparation data), and CPython registers a segment on *attach* as
    well as on create. Within the tree the duplicate registration is a
    set no-op, so the balanced protocol is simply create-register +
    unlink-unregister — explicitly *unregistering* on attach (the usual
    bpo-39959 workaround for unrelated processes) would strip the
    creator's sole registration and break crash cleanup.
    """
    meta = []
    offset = 0
    arrays = []
    for name, arr in cols.items():
        arr = np.ascontiguousarray(arr)
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        meta.append((name, arr.dtype.str, tuple(arr.shape), offset))
        arrays.append((arr, offset))
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
    for (arr, off) in arrays:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                          offset=off)
        view[...] = arr
    return shm, ShmBlock(name=shm.name, meta=tuple(meta),
                         nbytes=max(1, offset))


def attach_columns(block: ShmBlock
                   ) -> Tuple[shared_memory.SharedMemory, Dict[str, np.ndarray]]:
    """Attach to a block and return zero-copy views into it.

    The views are valid only while the returned segment stays open; the
    caller closes it (and unlinks iff it owns the segment's lifetime).
    """
    shm = shared_memory.SharedMemory(name=block.name)
    cols = {
        name: np.ndarray(shape, dtype=np.dtype(dt), buffer=shm.buf,
                         offset=off)
        for name, dt, shape, off in block.meta
    }
    return shm, cols


def copy_columns(block: ShmBlock) -> Dict[str, np.ndarray]:
    """Attach, copy every column out, detach."""
    shm, views = attach_columns(block)
    try:
        return {name: np.array(arr, copy=True) for name, arr in views.items()}
    finally:
        shm.close()


# ---------------------------------------------------------------------------
# worker-side task registry
# ---------------------------------------------------------------------------


def _task_ping(payload: Any) -> Any:
    return payload


def _task_crash(payload: Any) -> None:
    """Test/chaos hook: die without a result (exercises crash recovery)."""
    os._exit(int(payload) if payload else 11)


def _task_call(payload: Tuple[str, str, Any]) -> Any:
    """Generic dispatch: ``(module, function, arg)`` resolved by import.

    This is how :mod:`repro.batch` ships jobs through the shared pool
    without this module importing the batch layer (no import cycles),
    and how tests register custom workloads.
    """
    mod_name, fn_name, arg = payload
    fn = getattr(importlib.import_module(mod_name), fn_name)
    return fn(arg)


def _task_pipeline(payload: Dict) -> Dict:
    """One workload partition: a full verify/sensitivity pipeline.

    The graph columns arrive via shared memory (every partition of the
    same instance attaches to the same buffer); the pipeline runs with
    its own runtime and logical accounting, and returns outputs plus
    the full CostReport dict for wholesale bit-identity assertions.
    """
    from ..graph.graph import WeightedGraph

    cols = copy_columns(payload["block"])
    graph = WeightedGraph(n=payload["n"], u=cols["u"], v=cols["v"],
                          w=cols["w"], tree_mask=cols["tree_mask"])
    config = payload["config"]
    kind = payload["kind"]
    engine = payload["engine"]
    if kind == "verify":
        from ..core.verification import verify_mst

        r = verify_mst(graph, engine=engine, config=config)
        return {
            "is_mst": r.is_mst,
            "n_violations": r.n_violations,
            "violating_edges": r.violating_edges,
            "pathmax": r.pathmax,
            "rounds": r.rounds,
            "report": r.report.to_dict(),
        }
    if kind == "sensitivity":
        from ..core.sensitivity import mst_sensitivity

        r = mst_sensitivity(graph, engine=engine, config=config)
        return {
            "sensitivity": r.sensitivity,
            "mc": r.mc,
            "pathmax": r.pathmax,
            "rounds": r.rounds,
            "report": r.report.to_dict(),
        }
    raise ValidationError(f"unknown partition kind {kind!r}")


_TASK_KINDS = {
    "ping": _task_ping,
    "crash": _task_crash,
    "call": _task_call,
    "pipeline": _task_pipeline,
}


def _worker_main(slot: int, task_q, conn, claim) -> None:
    """Worker loop: claim, execute, report — never die on a task error.

    Crash-safety of the reporting channel is load-bearing:

    * the claim is a direct write into a shared ``Value``, not a queue
      message — queue puts flush through a feeder thread, so a worker
      dying right after claiming would lose the message and leave its
      task unattributable (a permanent hang for the waiter);
    * results go over a dedicated pipe with *synchronous* ``send`` —
      by the time the worker picks up its next task, every earlier
      result is in the OS pipe buffer and survives even ``os._exit``.
      A shared result queue's feeder thread would let one crashing task
      destroy its predecessors' buffered results.

    The claim is deliberately *not* reset after a task — a stale claim
    for a completed task is filtered by the parent's outstanding-set.
    """
    while True:
        msg = task_q.get()
        if msg[0] == "stop":
            return
        _, task_id, kind, payload = msg
        claim.value = task_id
        try:
            fn = _TASK_KINDS[kind]
            out = fn(payload)
        except BaseException as exc:  # noqa: BLE001 - report, keep serving
            conn.send((task_id, False,
                       (type(exc).__name__, str(exc),
                        _traceback.format_exc())))
        else:
            conn.send((task_id, True, out))


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Flat result of one pool task (always returned, never raised)."""

    ok: bool
    value: Any = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    crashed: bool = False

    def unwrap(self) -> Any:
        """``value`` on success; raise on failure — for callers that
        prefer exceptions to checking ``ok`` (:class:`WorkerCrashed`
        when the worker process died, :class:`ExecutorError` when the
        task itself raised)."""
        if self.ok:
            return self.value
        if self.crashed:
            raise WorkerCrashed(self.error or "worker crashed")
        raise ExecutorError(self.error or "task failed")


def _join_all(procs: Sequence, timeout_s: float) -> List:
    """Join ``procs`` under one shared deadline; the ones still alive."""
    deadline = time.monotonic() + timeout_s
    for p in procs:
        p.join(timeout=max(0.0, deadline - time.monotonic()))
    return [p for p in procs if p.is_alive()]


class WorkerPool:
    """Persistent worker processes with crash isolation and respawn.

    One shared task queue, one result pipe and one shared *claim slot*
    per worker. A worker writes the task id it is about to execute into
    its claim slot (a direct shared-memory write — crash-proof, unlike
    a buffered queue message), so when a worker process dies the parent
    knows exactly which task went down with it: that task resolves to a
    ``crashed`` :class:`Outcome`, the slot is respawned, and every
    other task — queued, running elsewhere, or already reported over a
    surviving pipe — completes normally. (A worker killed in the sliver
    between dequeuing and writing the claim cannot be attributed; the
    pool is built for fault *isolation*, not byzantine delivery
    guarantees.)
    """

    def __init__(self, workers: int, method: Optional[str] = None):
        import multiprocessing as mp

        self.method = method or default_start_method()
        self._ctx = mp.get_context(self.method)
        self._task_q = self._ctx.Queue()
        self._procs: List = []
        self._readers: List = []         # per-slot result pipe (parent end)
        self._claims: List = []          # per-slot shared Values (task ids)
        self._next_task = 0
        self._done: Dict[int, Outcome] = {}
        self._outstanding: set = set()
        self.crashes = 0
        self.closed = False
        for slot in range(max(1, int(workers))):
            self._spawn(slot)

    # -- lifecycle ---------------------------------------------------------------

    def _spawn(self, slot: int) -> None:
        if slot < len(self._claims):
            self._claims[slot].value = -1
        else:
            self._claims.append(self._ctx.Value("q", -1, lock=False))
        reader, writer = self._ctx.Pipe(duplex=False)
        p = self._ctx.Process(
            target=_worker_main,
            args=(slot, self._task_q, writer, self._claims[slot]),
            daemon=True, name=f"repro-worker-{slot}",
        )
        p.start()
        writer.close()  # child holds the write end now
        if slot < len(self._procs):
            self._readers[slot].close()
            self._readers[slot] = reader
            self._procs[slot] = p
        else:
            self._readers.append(reader)
            self._procs.append(p)

    @property
    def workers(self) -> int:
        return len(self._procs)

    def grow(self, workers: int) -> None:
        """Add worker slots up to ``workers`` total (never shrinks)."""
        for slot in range(len(self._procs), workers):
            self._spawn(slot)

    def close(self) -> None:
        """Stop every worker within a bounded time: a stop message and
        one shared join deadline, then terminate, then kill. A wedged or
        stopped worker (SIGTERM stays pending on a stopped process)
        cannot outlive the pool or hold ``close()`` past
        :data:`CLOSE_DEADLINE_S` + 2 s."""
        if self.closed:
            return
        self.closed = True
        for _ in self._procs:
            self._task_q.put(("stop",))
        late = _join_all(self._procs, CLOSE_DEADLINE_S)
        for p in late:
            p.terminate()
        late = _join_all(late, 1.0)
        for p in late:
            p.kill()
        _join_all(late, 1.0)
        self._task_q.close()
        for r in self._readers:
            r.close()

    # -- submission & collection --------------------------------------------------

    def submit(self, kind: str, payload: Any) -> int:
        if self.closed:
            raise ExecutorError("worker pool is closed")
        task_id = self._next_task
        self._next_task += 1
        self._outstanding.add(task_id)
        self._task_q.put(("task", task_id, kind, payload))
        return task_id

    def wait(self, task_ids: Sequence[int]) -> List[Outcome]:
        """Block until every listed task resolved; order preserved."""
        task_ids = list(task_ids)
        while not all(t in self._done for t in task_ids):
            self._pump(0.2)
        return [self._done.pop(t) for t in task_ids]

    def map(self, kind: str, payloads: Sequence[Any],
            max_inflight: Optional[int] = None) -> List[Outcome]:
        """Run ``payloads`` through the pool, at most ``max_inflight``
        submitted at a time (the concurrency knob batch callers use)."""
        n = len(payloads)
        cap = max(1, max_inflight if max_inflight is not None else n)
        results: List[Optional[Outcome]] = [None] * n
        inflight: Dict[int, int] = {}
        next_i = 0
        done_ct = 0
        while done_ct < n:
            while next_i < n and len(inflight) < cap:
                inflight[self.submit(kind, payloads[next_i])] = next_i
                next_i += 1
            ready = [t for t in inflight if t in self._done]
            if not ready:
                self._pump(0.2)
                ready = [t for t in inflight if t in self._done]
            for t in ready:
                results[inflight.pop(t)] = self._done.pop(t)
                done_ct += 1
        return results  # type: ignore[return-value]

    def ping(self, timeout_s: float = 30.0) -> None:
        """Round-trip a no-op task (pool warm-up for fair benchmarks)."""
        t = self.submit("ping", None)
        deadline = time.perf_counter() + timeout_s
        while t not in self._done:
            self._pump(0.2)
            if time.perf_counter() > deadline:  # pragma: no cover
                raise ExecutorError("worker pool did not answer a ping")
        self._done.pop(t)

    # -- internals ---------------------------------------------------------------

    def _pump(self, timeout: float) -> None:
        from multiprocessing import connection

        ready = connection.wait(self._readers, timeout)
        if not ready:
            self._reap()
            return
        saw_eof = False
        for r in ready:
            try:
                task_id, ok, payload = r.recv()
            except (EOFError, OSError):
                saw_eof = True  # the slot's worker died; attribute below
                continue
            if ok:
                self._done[task_id] = Outcome(ok=True, value=payload)
            else:
                etype, emsg, tb = payload
                self._done[task_id] = Outcome(
                    ok=False, error=f"{etype}: {emsg}", traceback=tb,
                )
            self._outstanding.discard(task_id)
        if saw_eof:
            self._reap()

    def _reap(self) -> None:
        """Detect dead workers: fail their claimed tasks, respawn slots."""
        for slot, p in enumerate(self._procs):
            if p.is_alive() or p.exitcode is None:
                continue
            t = int(self._claims[slot].value)
            if t >= 0 and t in self._outstanding:
                self.crashes += 1
                self._done[t] = Outcome(
                    ok=False, crashed=True,
                    error=(f"worker {slot} died (exitcode {p.exitcode}) "
                           f"while executing task {t}"),
                )
                self._outstanding.discard(t)
            self._spawn(slot)  # replaces the dead slot's pipe too


# -- module-level shared pool (partitions, batch and benches share it) ----------

_POOL: Optional[WorkerPool] = None


def get_pool(min_workers: Optional[int] = None) -> WorkerPool:
    """The process-wide shared :class:`WorkerPool`, created on first use.

    Grown (never shrunk) to ``min_workers`` when asked; recreated if the
    configured start method changed since creation (tests sweep this).
    """
    global _POOL
    method = default_start_method()
    if _POOL is not None and (_POOL.closed or _POOL.method != method):
        shutdown_pool()
    if _POOL is None:
        _POOL = WorkerPool(max(1, min_workers or os.cpu_count() or 1),
                           method=method)
    elif min_workers and _POOL.workers < min_workers:
        _POOL.grow(min_workers)
    return _POOL


def shutdown_pool() -> None:
    """Stop and forget the shared pool (idempotent; atexit-registered)."""
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# workload-level partitions
# ---------------------------------------------------------------------------


def run_partitions(graphs: Sequence, kind: str = "sensitivity",
                   engine: str = "local", config=None,
                   pool: Optional[WorkerPool] = None,
                   workers: Optional[int] = None,
                   max_inflight: Optional[int] = None) -> List[Outcome]:
    """Execute independent plan partitions concurrently across the pool.

    Each graph is one partition: its columns are shared (not copied)
    into a shared-memory block, a worker attaches and runs the full
    verify/sensitivity pipeline with serial physical execution and its
    own logical accounting, and the parent gets outputs plus the full
    CostReport dict. Partition ``i``'s report is bit-identical to
    running partition ``i`` serially in this process — parallelism
    never touches the cost stream.
    """
    from .config import MPCConfig

    if kind not in ("verify", "sensitivity"):
        raise ValidationError(f"unknown partition kind {kind!r}")
    config = config or MPCConfig()
    pool = pool or get_pool(workers)
    shms = []
    payloads = []
    try:
        for g in graphs:
            shm, block = share_columns(
                {"u": g.u, "v": g.v, "w": g.w, "tree_mask": g.tree_mask}
            )
            shms.append(shm)
            payloads.append({"block": block, "n": int(g.n), "kind": kind,
                             "engine": engine, "config": config})
        return pool.map("pipeline", payloads, max_inflight=max_inflight)
    finally:
        for shm in shms:
            shm.close()
            shm.unlink()
