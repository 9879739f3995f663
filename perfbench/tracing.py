"""Per-layer numbers for the traced run, measured from outside the program.

Nothing here changes the program: layers are timed by wrapping the
calls into them from the benchmark (stage instances, module functions
the write path calls), by driving the same read plan against four
stack depths, and by diffing the ``metrics`` op's counters across the
traced half of a phase.

Read anatomy — the reference binary plan, open loop at the reference
rate, against:

1. ``SensitivityOracle.*_bulk`` in-process, in batches of the
   occupancy the fleet's batchers observed (one instance per batch);
2. an in-process ``SensitivityService``;
3. one ``SensitivityService`` process over binary TCP;
4. the fleet.

Each ``anatomy.*_us`` is that depth's per-query p50 minus the one below.
"""

from __future__ import annotations

import asyncio
import contextlib
import glob
import os
import time
from typing import Dict, Iterator, List, Optional

import numpy as np

import openloop as ol
from common import Metric, fresh_dir, median, work_path


# -- counters from the metrics op -------------------------------------------------


def _num(x) -> float:
    return 0.0 if x is None else float(x)


def _workers(scrape: Optional[Dict]) -> Iterator[Dict]:
    for w in (scrape or {}).get("workers", {}).values():
        if "instances" in w:
            yield w


def _instances(scrape) -> Iterator[Dict]:
    for w in _workers(scrape):
        yield from w["instances"].values()


def _shard_sum(scrape, key: str) -> float:
    return sum(_num(s.get(key)) for inst in _instances(scrape)
               for s in inst.get("shards", ()))


def _section_sum(scrape, section: str, key: str) -> float:
    return sum(_num(inst.get(section, {}).get(key))
               for inst in _instances(scrape))


def _weighted(scrape, pick, weight) -> float:
    """Mean of per-worker values weighted by per-worker traffic."""
    pairs = [(pick(w), weight(w)) for w in _workers(scrape)]
    pairs = [(v, n) for v, n in pairs if v is not None and n]
    total = sum(n for _, n in pairs)
    return sum(v * n for v, n in pairs) / total if total else 0.0


def fleet_layers(before: Optional[Dict], after: Optional[Dict],
                 dep) -> Dict[str, Metric]:
    """Counters over [before, after] plus end-of-phase distributions."""
    layers: Dict[str, Metric] = {}

    def put(name, value, unit, samples=1):
        layers[name] = Metric(value, unit, samples)

    def delta(fn) -> float:
        return fn(after) - fn(before)

    queries = delta(lambda s: _shard_sum(s, "queries"))
    batches = delta(lambda s: _shard_sum(s, "batches"))
    put("batching.occupancy", queries / batches if batches else 0.0,
        "queries/batch", int(batches))
    for q in ("p50", "p99"):
        put(f"batching.wait_{q}_ms",
            _weighted(after, lambda w, q=q: w["latency"].get(f"{q}_ms"),
                      lambda w: w["latency"].get("samples")), "ms")
    put("batching.shed", delta(lambda s: _shard_sum(s, "shed")), "count")
    for proto in ("binary", "json"):
        for way in ("decode", "encode"):
            put(f"wire.{proto}.{way}_ns_per_frame",
                _weighted(after,
                          lambda w, p=proto, k=way: w["wire"][p].get(
                              f"{k}_ns_per_frame"),
                          lambda w, p=proto: w["wire"][p].get("frames_in")),
                "ns")
    r0 = (before or {}).get("router", {})
    r1 = (after or {}).get("router", {})
    forwarded = _num(r1.get("forwarded")) - _num(r0.get("forwarded"))
    hits = _num(r1.get("replica_hits")) - _num(r0.get("replica_hits"))
    put("router.forward_p50_ms", _num(r1.get("forward_p50_ms")), "ms")
    put("router.forward_p99_ms", _num(r1.get("forward_p99_ms")), "ms")
    put("router.replica_hit_share", hits / forwarded if forwarded else 0.0,
        "ratio", int(forwarded))
    for name, key in (("router.shed", "shed_router"),
                      ("router.worker_errors", "worker_errors"),
                      ("router.swaps_shipped", "swaps_shipped")):
        put(name, _num(r1.get(key)) - _num(r0.get(key)), "count")
    put("router.swap_p50_ms", _num(r1.get("swap_p50_ms")), "ms")
    b0 = (before or {}).get("wire", {}).get("binary", {})
    b1 = (after or {}).get("wire", {}).get("binary", {})
    put("wire.router.json_decodes",
        _num(b1.get("json_decodes")) - _num(b0.get("json_decodes")), "count")
    s0 = (before or {}).get("supervisor", {})
    s1 = (after or {}).get("supervisor", {})
    for key in ("deaths_detected", "restarts"):
        put(f"supervision.{key}", _num(s1.get(key)) - _num(s0.get(key)),
            "count")
    for key in ("scoped_replays", "full_replays", "stages_spliced"):
        put(f"streaming.{key}",
            delta(lambda s, k=key: _section_sum(s, "stream", k)), "count")
    streams = [inst["stream"] for inst in _instances(after)
               if inst.get("stream", {}).get("batches_applied")]
    for key, unit in (("apply_p50_ms", "ms"), ("apply_p99_ms", "ms"),
                      ("coalesce_ratio", "ratio")):
        put(f"streaming.{key}", max([_num(s.get(key)) for s in streams],
                                    default=0.0), unit)
    for key in ("stages_executed", "stages_cached"):
        put(f"updates.{key}",
            delta(lambda s, k=key: _section_sum(s, "updates", k)), "count")
    for key in ("hits", "misses"):
        put(f"artifacts.{key}",
            delta(lambda s, k=key: _section_sum(s, "store", k)), "count")
    put("setup.spawn_s", dep.spawn_s, "s")
    put("setup.add_instance_s", sum(dep.add_s.values()), "s",
        len(dep.add_s))
    sizes = [os.path.getsize(p) for p in
             glob.glob(os.path.join(dep.spool, "**", "*.npz"), recursive=True)]
    put("serialize.snapshot_mb", median(sizes) / 2**20 if sizes else 0.0,
        "MB", len(sizes))
    return layers


# -- wrapped calls ------------------------------------------------------------------


class CallTimer:
    """Accumulates wall time of calls routed through :meth:`wrap`."""

    def __init__(self):
        self.wall: Dict[str, List[float]] = {}

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.wall.setdefault(name, []).append(time.perf_counter() - t)
        return timed

    def mean_ms(self, name: str) -> float:
        vals = self.wall.get(name, [])
        return 1e3 * sum(vals) / len(vals) if vals else 0.0


@contextlib.contextmanager
def timed_oracle_build(timer: CallTimer):
    """Time ``SensitivityOracle.from_result`` (the oracle layer's build)."""
    from repro.oracle import SensitivityOracle

    orig = SensitivityOracle.__dict__["from_result"]
    SensitivityOracle.from_result = classmethod(
        timer.wrap("oracle.build", orig.__func__))
    try:
        yield
    finally:
        SensitivityOracle.from_result = orig


def oracle_layers(graphs) -> tuple:
    """Build the check oracles with the oracle build and snapshot write
    timed; returns ``(oracles, layers)``."""
    from repro import build_oracle

    timer = CallTimer()
    with timed_oracle_build(timer):
        oracles = [build_oracle(g) for g in graphs]
    for k, orc in enumerate(oracles):
        path = work_path("snapshots", f"oracle-{k}.npz")
        timer.wrap("serialize.publish", orc.save)(path, compressed=False)
    layers = {
        "oracle.build_ms": Metric(timer.mean_ms("oracle.build"), "ms",
                                  len(oracles)),
        "serialize.publish_ms": Metric(timer.mean_ms("serialize.publish"),
                                       "ms", len(oracles)),
    }
    return oracles, layers


def churn_replay(graph, stream, applied) -> Dict[str, Metric]:
    """Replay the acknowledged writes through ``InstanceUpdater`` in-process,
    splitting each batch into mutations, executed stages, oracle build
    and snapshot publish (a single-edge update replays as a one-op
    reprice batch)."""
    from repro.pipeline import SENSITIVITY_STAGES
    from repro.service import InstanceUpdater
    from repro.service import updates as updates_mod

    from offline import StageTimer

    timer = CallTimer()
    updater = InstanceUpdater.build("churn", graph.copy(),
                                    mmap_dir=fresh_dir("replay"))
    orig_apply_ops = updates_mod.apply_ops
    stages = StageTimer(SENSITIVITY_STAGES)
    updates_mod.apply_ops = timer.wrap("mutations.apply_ops", orig_apply_ops)
    batches = 0
    try:
        with timed_oracle_build(timer):
            for req, ok in zip(stream.requests, applied):
                if not ok:
                    continue
                ops = req.get("ops") or [{"kind": "reprice",
                                          "edge": req["edge"],
                                          "weight": req["weight"]}]
                timer.wrap("batch", updater.apply_batch)(ops)
                timer.wrap("serialize.publish", updater.publish_snapshot)()
                batches += 1
    finally:
        updates_mod.apply_ops = orig_apply_ops
        stages.remove()
    layers = {f"pipeline.{name}.wall_s": Metric(wall, "s", batches)
              for name, wall in stages.wall.items()}
    layers.update({
        "mutations.apply_ops_ms": Metric(timer.mean_ms("mutations.apply_ops"),
                                         "ms", batches),
        "oracle.build_ms": Metric(timer.mean_ms("oracle.build"), "ms",
                                  batches),
        "serialize.publish_ms": Metric(timer.mean_ms("serialize.publish"),
                                       "ms", batches),
    })
    if updater.snapshot_path:
        layers["serialize.snapshot_mb"] = Metric(
            os.path.getsize(updater.snapshot_path) / 2**20, "MB", 1)
    return layers


# -- read anatomy --------------------------------------------------------------------


def _kernel_batches(plan, oracles, occupancy: int) -> np.ndarray:
    """Depth 1: wall time of each bulk batch, one instance per batch."""
    codes = ol.OP_CODES
    kernels = {
        codes["sensitivity"]: lambda o, e, w: o.sensitivity_bulk(e),
        codes["survives"]: lambda o, e, w: o.survives_bulk(e, w),
        codes["replacement_edge"]: lambda o, e, w: o.replacement_edge_bulk(e),
        codes["entry_threshold"]: lambda o, e, w: o.entry_threshold_bulk(e),
    }
    times = []
    for i, orc in enumerate(oracles):
        sel = np.flatnonzero(plan.inst == i)
        for lo in range(0, len(sel), occupancy):
            part = sel[lo:lo + occupancy]
            e, op, w = plan.edge[part], plan.op[part], plan.weight[part]
            t = time.perf_counter()
            for code, fn in kernels.items():
                pick = op == code
                if code == codes["replacement_edge"]:
                    pick &= orc.tree_mask[e]
                elif code == codes["entry_threshold"]:
                    pick &= ~orc.tree_mask[e]
                if pick.any():
                    fn(orc, e[pick], w[pick])
            times.append(time.perf_counter() - t)
    return np.array(times)


async def _inprocess_service(plan, names, graphs, oracles):
    """Depth 2: the plan submitted open loop to an in-process service;
    returns latencies and the answers as ``(status, value)`` arrays."""
    from repro.service import SensitivityService, ServiceConfig

    from serving import OP_NAMES

    svc = SensitivityService(ServiceConfig())
    for name, g, orc in zip(names, graphs, oracles):
        svc.add_instance(name, g, oracle=orc)
    await svc.start()
    n = len(plan)
    done = np.full(n, np.nan)
    futs = []
    t0 = ol.start_clock()
    clock = time.perf_counter

    def stamp(k):
        return lambda _f: done.__setitem__(k, clock() - t0)

    try:
        i = 0
        while i < n:
            j = int(np.searchsorted(plan.due, clock() - t0, side="right"))
            for k in range(i, j):
                op = OP_NAMES[int(plan.op[k])]
                fut = svc.submit_nowait(
                    op, int(plan.edge[k]),
                    float(plan.weight[k]) if op == "survives" else None,
                    names[int(plan.inst[k])])
                fut.add_done_callback(stamp(k))
                futs.append(fut)
            i = j
            if i < n:
                await asyncio.sleep(min(0.002, max(0.0, plan.due[i]
                                                   - (clock() - t0))))
        await asyncio.wait(futs, timeout=10.0)
    finally:
        await svc.stop()
    status = np.full(n, ol.ST_UNANSWERED, dtype=np.uint8)
    value = np.zeros(n)
    for k, fut in enumerate(futs):
        if fut.done() and not fut.cancelled() and fut.exception() is None:
            _gen, ok, val, kind = fut.result()
            status[k], value[k] = ol.json_status_value(
                {"ok": ok, "result": val, "error_kind": kind})
    return done - plan.due, status, value


async def read_anatomy(plan, names, graphs, oracles, paths, env,
                       fleet_run: ol.Run, occupancy: float,
                       tally) -> Dict[str, Metric]:
    from deploy import Deployment
    from inputs import ReadPlan, expected_answers
    from serving import encode_plan

    cut = len(fleet_run.due)
    sub = ReadPlan(inst=plan.inst[:cut], op=plan.op[:cut],
                   edge=plan.edge[:cut], weight=plan.weight[:cut],
                   due=plan.due[:cut])
    exp = expected_answers(sub, oracles)
    p50 = {}
    p50["kernel"] = median(_kernel_batches(sub, oracles,
                                           max(1, int(round(occupancy)))))
    lat, status, value = await _inprocess_service(sub, names, graphs, oracles)
    tally.reads("anatomy depth 2 (in-process service)",
                ol.Run(due=sub.due, sent=sub.due, done=sub.due + lat,
                       status=status, value=value), exp, count=False)
    p50["service"] = median(lat)
    dep = Deployment("single", paths, fresh_dir("spool-single"),
                     work_path("logs", "single.log"))
    dep.launch(env)
    try:
        reader, writer = await asyncio.open_connection(dep.host, dep.port)
        symbols = await ol.binary_hello(reader, writer)
        run = await ol.drive_binary(reader, writer,
                                    encode_plan(sub, names, symbols),
                                    sub.due, ol.start_clock(), 3.0)
        writer.close()
        tally.reads("anatomy depth 3 (one service process)", run, exp,
                    count=False)
        p50["tcp"] = median(run.latency)
    finally:
        dep.teardown()
    p50["fleet"] = median(fleet_run.latency)
    us = {k: v * 1e6 for k, v in p50.items()}
    n = len(sub)
    return {
        "anatomy.kernel_us": Metric(us["kernel"], "us", n),
        "anatomy.batcher_us": Metric(us["service"] - us["kernel"], "us", n),
        "anatomy.server_us": Metric(us["tcp"] - us["service"], "us", n),
        "anatomy.router_us": Metric(us["fleet"] - us["tcp"], "us", n),
    }
