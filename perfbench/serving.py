"""The served workloads: ``read-mixed`` and ``churn`` on a router fleet.

Both run a ``RouterTier`` with 2 workers, replication 2, 2 shards and
the default batch window, launched by :mod:`deploy` and driven over TCP
by one load-generator process holding at most two connections.

``read-mixed`` serves three instances (random, grid, power_law at
n=8192). A binary connection streams loadgen's default op mix with the
instances interleaved uniformly, open loop at the reference rate, while
a JSON-lines connection reads at a fixed low rate. A search for the
highest binary rate that keeps p99 under ``CAPACITY_P99_LIMIT_MS`` with
nothing failed, shed or left to pile up follows. Every answer is
compared with an in-process ``build_oracle`` of the same graph.

``churn`` serves one instance (random, n=4096): binary reads at a fixed
rate beside an open-loop write stream of structural batches and
occasional single-edge updates (see :func:`inputs.write_stream`).
Afterwards every edge is read back and compared with a cold
``build_oracle`` of the benchmark's own ``apply_ops`` replay.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import time
from typing import Dict, List, Tuple

import numpy as np
from repro import build_oracle

import openloop as ol
from common import (Metric, Outcome, fresh_dir, latency_pair, median,
                    windowed_quantile_ms, work_path)
from deploy import Deployment
from inputs import (ReadPlan, answers_match, expected_answers, graph_digest,
                    make_graph, read_plan, replay_writes, rng_for,
                    save_graph, write_stream)

OP_NAMES = {code: op for op, code in ol.OP_CODES.items()}

READ_SHAPES = ("random", "grid", "power_law")
READ_N = 8192
CHURN_N = 4096
SETUPS = 3

#: the reference point keeps the fleet clear of saturation: on a 2-vCPU
#: host 5k binary + 1k JSON reads/s hold the fleet's processes near 1.8
#: busy CPUs, where queueing turns small swings in the host's speed into
#: large latency swings; at 1k + 250 they sit near 1.2 and the latency
#: is the read path's own cost. Throughput shows in ``read_max_qps``
REF_RATE = 1000.0            #: binary reads/s at the reference point
JSON_RATE = 250.0            #: JSON reads/s, held fixed throughout
#: churn's rates keep the fleet well under saturation: a write costs
#: ~0.35 s of rebuild, and on a busy shared host a write stream near
#: capacity queues behind itself and measures the host instead. Reads
#: take CPU from the writes too: on a 2-vCPU host, 1k reads/s kept ~1.4
#: vCPUs busy during the writes (~1.0 at 250/s), writes took ~30% longer
#: and their latency swung 2x with the host's speed over ten runs
CHURN_READ_RATE = 250.0      #: binary reads/s beside the write stream
CHURN_WRITE_RATE = 1.5       #: writes/s, under half the serial capacity
WARMUP_S = 0.5
#: how much of the reference plan the read anatomy drives at each depth
ANATOMY_S = 3.0

#: the capacity search's latency limit: deliberately loose, so
#: ``read_max_qps`` measures capacity and the reference-rate p99
#: measures tail latency
CAPACITY_P99_LIMIT_MS = 200.0
#: fixed binary rates the search climbs
CAPACITY_RATES = (10000, 15000, 20000, 25000, 30000, 35000, 40000)
#: tail latencies are the median over windows of this length of each
#: window's quantile (see common.windowed_quantile_ms)
TAIL_WINDOW_S = 1.0
#: the gated read tails: at 1k q/s one short stall of the shared host
#: fills a window's p99, so p99 follows how many stalls a run drew while
#: p95 follows the read path (p99 is printed too)
GATED_TAIL_Q = 0.95
STEP_WINDOW_S = 0.5
DRAIN_S = 3.0
#: read-back chunk: well under a shard's queue bound, so nothing sheds
CHECK_CHUNK = 1024
WRITE_DRAIN_S = 15.0


# -- connections ------------------------------------------------------------------


class Conns:
    """The generator's two connections: binary reads + JSON lines."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.b = self.j = None
        self.symbols: Dict[str, int] = {}

    async def open(self) -> "Conns":
        await self.close()
        br, bw = await asyncio.open_connection(self.host, self.port)
        self.symbols = await ol.binary_hello(br, bw)
        self.b = (br, bw)
        self.j = await asyncio.open_connection(self.host, self.port)
        return self

    async def close(self) -> None:
        for conn in (self.b, self.j):
            if conn is not None:
                conn[1].close()
                try:
                    await conn[1].wait_closed()
                except (ConnectionError, OSError):
                    pass
        self.b = self.j = None


def json_read_lines(plan, names: List[str]) -> List[bytes]:
    lines = []
    for k in range(len(plan)):
        req = {"op": OP_NAMES[int(plan.op[k])],
               "instance": names[int(plan.inst[k])],
               "edge": int(plan.edge[k])}
        if req["op"] == "survives":
            req["weight"] = float(plan.weight[k])
        lines.append((json.dumps(req) + "\n").encode())
    return lines


def encode_plan(plan, names: List[str], symbols: Dict[str, int]) -> bytes:
    iid = np.array([symbols[n] for n in names], dtype=np.uint16)
    return ol.encode_points(plan.op, iid[plan.inst], plan.edge, plan.weight)


class Tally:
    """Attempted/failed accounting plus answer-check findings."""

    def __init__(self, out: Outcome):
        self.out = out

    def reads(self, label: str, run: ol.Run, exp, count: bool = True,
              values: bool = True) -> np.ndarray:
        """Check one read stream; returns the per-request good mask."""
        answered = run.answered
        served = answered & np.isin(run.status, (ol.ST_OK, ol.ST_TYPE))
        if values:
            right = answers_match(run.status, run.value, exp[0], exp[1])
        else:
            right = run.status == exp[0]
        wrong = served & ~right
        if wrong.any():
            k = int(np.flatnonzero(wrong)[0])
            self.out.problems.append(
                f"{label}: {int(wrong.sum())} wrong answers (first: request "
                f"{k}, status {int(run.status[k])} value {run.value[k]!r}, "
                f"expected {int(exp[0][k])} {exp[1][k]!r})")
        good = served & right
        if count:
            self.out.attempted += len(good)
            self.out.failed += int((~good).sum())
        return good


def _forced(out: Outcome, dep: Deployment) -> None:
    rep = dep.teardown()
    if rep.get("forced"):
        out.notes.append(f"teardown of a {dep.mode} deployment needed "
                         f"{rep['forced']} ({rep})")


# -- setup ---------------------------------------------------------------------------


async def probe(dep: Deployment, names, oracles, graphs, rng) -> Conns:
    """Open the connections and read every instance until it answers
    right on both replicas (two separate runs, so both are hit)."""
    conns = await Conns(dep.host, dep.port).open()
    plan = read_plan(rng, [g.m for g in graphs], 1.0, 32 * len(graphs))
    plan.due[:] = 0.0
    exp = expected_answers(plan, oracles)
    payload = encode_plan(plan, names, conns.symbols)
    for _ in range(2):
        run = await ol.drive_binary(*conns.b, payload, plan.due,
                                    ol.start_clock(0.0), DRAIN_S)
        ok = answers_match(run.status, run.value, *exp)
        if not ok.all():
            raise RuntimeError(f"setup probe: {int((~ok).sum())} of "
                               f"{len(ok)} answers wrong or missing")
    return conns


async def launch_fleet(paths: Dict[str, str], env, names, oracles, graphs,
                       seed: int, k: int):
    """Launch deployment ``k`` and probe it; ``setup_s`` runs from the
    launch to the first correct answers from every replica of every
    instance."""
    dep = Deployment("fleet", paths, fresh_dir(f"spool-{k}"),
                     work_path("logs", "fleet.log"))
    dep.launch(env)
    conns = await probe(dep, names, oracles, graphs, rng_for(seed, 9, k))
    return dep, conns, time.perf_counter() - dep.t_launch


async def deploy_fleet(out: Outcome, paths: Dict[str, str], env, names,
                       oracles, graphs, seed: int, setups: int):
    """Launch ``setups`` deployments, keeping only the last one up."""
    times = []
    for k in range(setups):
        dep, conns, setup_s = await launch_fleet(paths, env, names, oracles,
                                                 graphs, seed, k)
        times.append(setup_s)
        if k < setups - 1:
            await conns.close()
            _forced(out, dep)
            shutil.rmtree(dep.spool, ignore_errors=True)
    return dep, conns, times


def fleet_inputs(seed: int, wl: int, shapes, n: int):
    gdir = fresh_dir(f"graphs-{wl}")
    graphs, paths, digests = [], {}, {}
    for i, shape in enumerate(shapes):
        g = make_graph(shape, n, rng_for(seed, wl, i))
        path = os.path.join(gdir, f"{shape}.npz")
        save_graph(g, path)
        graphs.append(g)
        paths[shape] = path
        digests[f"graph/{shape}-{n}"] = graph_digest(g)
    return graphs, paths, digests


# -- read-mixed --------------------------------------------------------------------


def _badness(b: ol.Run, answered_right: bool) -> float:
    """How far a capacity step is past the limits (1.0 = on the limit).

    The larger of the windowed binary p99 against the limit and the
    backlog's growth (median latency of the last window minus the
    first's) against a quarter of it; infinite when a read failed, was
    shed or was answered wrongly.
    """
    if not answered_right:
        return float("inf")
    lat, due = b.latency, b.due
    growth = (median(lat[due >= due[-1] - STEP_WINDOW_S])
              - median(lat[due < STEP_WINDOW_S])) * 1e3
    return max(windowed_quantile_ms(due, lat, STEP_WINDOW_S)
               / CAPACITY_P99_LIMIT_MS,
               growth / (CAPACITY_P99_LIMIT_MS / 4))


def _segment(plan: ReadPlan, start: float, length: float) -> ReadPlan:
    """The requests due in ``[start, start + length)``, re-based to 0."""
    sel = (plan.due >= start) & (plan.due < start + length)
    return ReadPlan(inst=plan.inst[sel], op=plan.op[sel], edge=plan.edge[sel],
                    weight=plan.weight[sel], due=plan.due[sel] - start)


def _shifted(run: ol.Run, offset: float) -> ol.Run:
    return ol.Run(due=run.due + offset, sent=run.sent + offset,
                  done=run.done + offset, status=run.status,
                  value=run.value, extra=run.extra)


def _pooled(runs: List[ol.Run]) -> ol.Run:
    return ol.Run(*(np.concatenate([getattr(r, f) for r in runs])
                    for f in ("due", "sent", "done", "status", "value")),
                  extra=[x for r in runs for x in r.extra])


def _tail_ms(run: ol.Run, q: float) -> Metric:
    return Metric(windowed_quantile_ms(run.due, run.latency, TAIL_WINDOW_S,
                                       q), "ms", len(run.due))


def _plans(rng, graphs, rate: float, seconds: float):
    """A binary plan at ``rate`` and a JSON plan at the fixed JSON rate."""
    ms = [g.m for g in graphs]
    return (read_plan(rng, ms, rate, seconds),
            read_plan(rng, ms, JSON_RATE, seconds))


async def _reads(conns: Conns, names, oracles, plan, jplan, tally: Tally,
                 label: str, count: bool, scrape=None, scrape_at: float = 0.0):
    """Binary + JSON reads on one clock, every answer checked."""
    b, j, mid = await _phase(
        conns, encode_plan(plan, names, conns.symbols), plan.due,
        json_read_lines(jplan, names), jplan.due, DRAIN_S, scrape, scrape_at)
    ol.as_reads(j)
    gb = tally.reads(f"binary reads {label}", b,
                     expected_answers(plan, oracles), count)
    gj = tally.reads(f"JSON reads {label}", j,
                     expected_answers(jplan, oracles), count)
    return b, j, gb, gj, mid


async def capacity_search(conns: Conns, names, oracles, graphs, seed: int,
                          step_s: float, tally: Tally) -> Tuple[float, List]:
    """The highest binary rate meeting the limits, with the JSON rate fixed.

    Climbs fixed rates until a step fails: some read failed, was shed or
    answered wrongly, the windowed binary p99 passed the limit, or the
    backlog grew. Between the last passing and the first failing rate
    the answer is interpolated where log :func:`_badness` crosses 1, so
    it moves smoothly instead of snapping to the rate grid.
    """
    steps = []
    lo, bad_lo = REF_RATE, 0.0
    for k, rate in enumerate(CAPACITY_RATES):
        b, _, gb, gj, _ = await _reads(
            conns, names, oracles,
            *_plans(rng_for(seed, 7, k), graphs, rate, step_s), tally,
            f"at {rate:.0f}/s", count=False)
        bad = _badness(b, bool(gb.all() and gj.all()))
        steps.append((rate, bad))
        if bad > 1.0 or not b.valid():
            break
        lo, bad_lo = rate, bad
    else:
        return lo, steps
    await conns.open()          # drop answers a failed step left in flight
    hi, bad_hi = steps[-1]
    if 0.0 < bad_lo and np.isfinite(bad_hi) and b.valid():
        frac = -np.log(bad_lo) / (np.log(bad_hi) - np.log(bad_lo))
        return lo + frac * (hi - lo), steps
    return lo, steps


async def read_mixed(seed: int, seconds: float, trace: bool, env) -> Outcome:
    out = Outcome()
    tally = Tally(out)
    graphs, paths, out.digests = fleet_inputs(seed, 1, READ_SHAPES, READ_N)
    names = list(paths)
    if trace:
        import tracing

        oracles, build_layers = tracing.oracle_layers(graphs)
    else:
        oracles = [build_oracle(g) for g in graphs]
    ref_s = seconds * 0.7
    step_s = seconds * 0.3 / 5
    plan, jplan = _plans(rng_for(seed, 1, 91), graphs, REF_RATE, ref_s)
    out.digests["read-mixed/binary-plan"] = plan.digest()
    out.digests["read-mixed/json-plan"] = jplan.digest()
    # the reference plan is split over every deployment the run sets up:
    # a deployment settles into a faster or a slower latency mode, and a
    # run that pools several reports their mix, not one coin flip
    n_dep = 1 if trace else SETUPS
    seg_s = ref_s / n_dep
    setups, bs, js = [], [], []
    for k in range(n_dep):
        dep, conns, setup_s = await launch_fleet(paths, env, names, oracles,
                                                 graphs, seed, k)
        setups.append(setup_s)
        try:
            await _reads(conns, names, oracles,
                         *_plans(rng_for(seed, 1, 90 + 10 * k), graphs,
                                 REF_RATE, WARMUP_S),
                         tally, "in the warm-up", count=False)
            b, j, _, _, mid = await _reads(
                conns, names, oracles, _segment(plan, k * seg_s, seg_s),
                _segment(jplan, k * seg_s, seg_s), tally,
                "at the reference rate", count=True,
                scrape=dep.scrape if trace else None, scrape_at=seg_s / 2)
            bs.append(_shifted(b, k * seg_s))
            js.append(_shifted(j, k * seg_s))
            if k < n_dep - 1:
                continue
            end = dep.scrape() if trace else None
            capacity, steps = await capacity_search(
                conns, names, oracles, graphs, seed, step_s, tally)
            rss = dep.peak_rss_mb()
            if trace:
                anatomy_fleet = await _binary_only(conns, names, plan, ref_s)
                n = len(anatomy_fleet.due)
                st, va = expected_answers(plan, oracles)
                tally.reads("anatomy depth 4 (fleet)", anatomy_fleet,
                            (st[:n], va[:n]), count=False)
        finally:
            await conns.close()
            _forced(out, dep)
            if k < n_dep - 1:
                shutil.rmtree(dep.spool, ignore_errors=True)
    b, j = _pooled(bs), _pooled(js)
    if not b.valid() or not j.valid():
        out.invalid.append(
            f"generator fell behind at the reference rate (late p99 "
            f"{b.late_p99_s() * 1e3:.1f} ms binary, "
            f"{j.late_p99_s() * 1e3:.1f} ms JSON; budget "
            f"{ol.TICK_BUDGET_S * 1e3:.0f} ms)")
    out.e2e = {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "peak_rss_mb": Metric(rss, "MB", 1),
        "latency_ms": Metric(median(b.latency) * 1e3, "ms", len(b.due)),
        "tail_ms": _tail_ms(b, GATED_TAIL_Q),
        "side_latency_ms": Metric(median(j.latency) * 1e3, "ms", len(j.due)),
        "side_tail_ms": _tail_ms(j, GATED_TAIL_Q),
    }
    out.report = [
        ("setup_s", out.e2e["setup_s"]),
        ("peak_rss_mb", out.e2e["peak_rss_mb"]),
        ("failed_frac", Metric(out.failed / max(1, out.attempted), "ratio",
                               out.attempted)),
        ("read_p50_ms", out.e2e["latency_ms"]),
        ("read_p95_ms", out.e2e["tail_ms"]),
        ("read_p99_ms", _tail_ms(b, 0.99)),
        ("read_max_qps", Metric(capacity, "q/s", len(steps),
                                note=_steps_note(steps))),
        ("json_p50_ms", out.e2e["side_latency_ms"]),
        ("json_p95_ms", out.e2e["side_tail_ms"]),
        ("json_p99_ms", _tail_ms(j, 0.99)),
    ]
    if trace:
        fleet = tracing.fleet_layers(mid, end, dep)
        out.layers.update(fleet)
        out.layers.update(build_layers)
        out.layers["loadgen.late_p99_ms"] = Metric(b.late_p99_s() * 1e3, "ms",
                                                   len(b.due))
        out.layers["trace.overhead_pct"] = _halves_overhead(b, ref_s / 2)
        out.layers.update(await tracing.read_anatomy(
            plan, names, graphs, oracles, paths, env, anatomy_fleet,
            fleet["batching.occupancy"].value, tally))
    return out


def _steps_note(steps) -> str:
    return "badness by rate " + ", ".join(f"{r:.0f}:{bad:.2f}"
                                          for r, bad in steps)


async def _phase(conns: Conns, payload: bytes, bdue, lines, jdue,
                 jdrain: float, scrape=None, scrape_at: float = 0.0):
    """Binary stream + JSON-lines stream on one clock.

    With ``scrape`` (a deployment's :meth:`~deploy.Deployment.scrape`)
    the ``metrics`` op is also read at offset ``scrape_at``: the traced
    run's mid-phase counter snapshot, returned third.
    """
    t0 = ol.start_clock()
    jobs = [ol.drive_binary(*conns.b, payload, bdue, t0, DRAIN_S),
            ol.drive_lines(*conns.j, lines, jdue, t0, jdrain)]
    if scrape is not None:
        async def scrape_later():
            await asyncio.sleep(max(0.0, t0 + scrape_at - time.perf_counter()))
            return await asyncio.get_running_loop().run_in_executor(None,
                                                                    scrape)
        jobs.append(scrape_later())
    # the generator's own collector pauses would land in the latencies
    gc.disable()
    try:
        got = await asyncio.gather(*jobs)
    finally:
        gc.enable()
    return got[0], got[1], (got[2] if scrape is not None else None)


def _halves_overhead(run: ol.Run, mid: float) -> Metric:
    """p50 after the mid-phase scrape against p50 before it, in %."""
    first = run.latency[run.due < mid]
    second = run.latency[run.due >= mid]
    return Metric(100.0 * (median(second) / median(first) - 1.0), "%",
                  len(run.due))


async def _binary_only(conns, names, plan, seconds: float):
    """The reference binary plan's start alone (anatomy depth 4)."""
    cut = int(np.searchsorted(plan.due, min(seconds, ANATOMY_S)))
    payload = encode_plan(plan, names, conns.symbols)[:cut * ol.FRAME]
    run = await ol.drive_binary(*conns.b, payload, plan.due[:cut],
                                ol.start_clock(), DRAIN_S)
    return run


# -- churn -------------------------------------------------------------------------


def _write_outcomes(stream, run: ol.Run):
    """Whether each write was applied, and a line per write that was not."""
    applied, failures = [], []
    for k, (req, resp) in enumerate(zip(stream.requests, run.extra)):
        if resp is None:
            applied.append(False)
            failures.append(f"write {k} ({stream.kind[k]}) unanswered")
            continue
        if req["op"] == "update":
            ok = bool(resp.get("ok")) and resp.get("action") in ("patched",
                                                                "rebuilt")
        else:
            ok = bool(resp.get("ok")) and resp.get("action") == "rebuilt"
        applied.append(ok)
        if not ok:
            failures.append(f"write {k} ({stream.kind[k]}) not applied: "
                            f"{ {x: resp.get(x) for x in ('error', 'action', 'shed')} }")
    return applied, failures


def _service_times(run: ol.Run) -> np.ndarray:
    """FIFO single-server service time per write: departure minus the
    later of its arrival and the previous departure."""
    done = run.done
    start = np.maximum(run.sent, np.concatenate([[-np.inf], done[:-1]]))
    return done - start


async def final_check(conns: Conns, graph, name: str, tally: Tally) -> None:
    """Every edge's served answer against a cold oracle of the replay."""
    orc = build_oracle(graph)
    m = graph.m
    edges = np.concatenate([np.arange(m), np.arange(m)])
    ops = np.concatenate([
        np.full(m, ol.OP_CODES["sensitivity"]),
        np.where(orc.tree_mask, ol.OP_CODES["replacement_edge"],
                 ol.OP_CODES["entry_threshold"])]).astype(np.uint8)
    plan = ReadPlan(inst=np.zeros(2 * m, dtype=np.int64), op=ops,
                    edge=edges, weight=np.zeros(2 * m),
                    due=np.zeros(2 * m))
    exp = expected_answers(plan, [orc])
    payload = encode_plan(plan, [name], conns.symbols)
    for rnd in range(2):       # both replicas answer (runs alternate)
        runs = []
        for lo in range(0, 2 * m, CHECK_CHUNK):
            hi = min(lo + CHECK_CHUNK, 2 * m)
            runs.append(await ol.drive_binary(
                *conns.b, payload[lo * ol.FRAME:hi * ol.FRAME],
                plan.due[lo:hi], ol.start_clock(0.0), DRAIN_S))
        run = ol.Run(*(np.concatenate([getattr(r, f) for r in runs])
                       for f in ("due", "sent", "done", "status", "value")))
        tally.reads(f"final read-back of all {m} edges (round {rnd + 1})",
                    run, exp)


async def churn(seed: int, seconds: float, trace: bool, env) -> Outcome:
    out = Outcome()
    tally = Tally(out)
    graphs, paths, out.digests = fleet_inputs(seed, 2, ("random",), CHURN_N)
    graph = graphs[0]
    names = list(paths)
    oracles = [build_oracle(g) for g in graphs]
    dep, conns, setups = await deploy_fleet(
        out, paths, env, names, oracles, graphs, seed, 1 if trace else SETUPS)
    stream = write_stream(rng_for(seed, 2, 50), graph, names[0],
                          CHURN_WRITE_RATE, seconds)
    plan = read_plan(rng_for(seed, 2, 51), [graph.m], CHURN_READ_RATE,
                     seconds)
    out.digests["churn/write-stream"] = stream.digest()
    out.digests["churn/read-plan"] = plan.digest()
    try:
        await _reads(conns, names, oracles,
                     *_plans(rng_for(seed, 2, 90), graphs, CHURN_READ_RATE,
                             WARMUP_S), tally, "in the warm-up", count=False)
        b, w, mid = await _phase(
            conns, encode_plan(plan, names, conns.symbols), plan.due,
            [(json.dumps(r) + "\n").encode() for r in stream.requests],
            stream.due, WRITE_DRAIN_S, dep.scrape if trace else None,
            seconds / 2)
        end = dep.scrape() if trace else None
        # reads race the writes, so only the answer kind is checkable
        # per read (tree membership of original edges never changes);
        # values are checked exactly on the final read-back
        tally.reads("binary reads beside writes", b,
                    expected_answers(plan, oracles), values=False)
        applied, failures = _write_outcomes(stream, w)
        out.attempted += len(applied)
        out.failed += len(failures)
        out.notes.extend(failures[:5])
        if not b.valid() or not w.valid():
            out.invalid.append(
                f"generator fell behind (late p99 {b.late_p99_s() * 1e3:.1f}"
                f" ms reads, {w.late_p99_s() * 1e3:.1f} ms writes)")
        final_graph = replay_writes(graph, stream, applied)
        await final_check(conns, final_graph, names[0], tally)
        rss = dep.peak_rss_mb()
    finally:
        await conns.close()
        _forced(out, dep)
    structural = np.array([k != "update" for k in stream.kind])
    n_ops = np.array([len(r.get("ops", ())) for r in stream.requests])
    up50, uptail, upq = latency_pair(w.latency[structural], 0.90)
    # add, reprice, remove and tree batches cost different amounts, so the
    # median lands on whichever cluster boundary the run drew; the mean
    # weighs them all
    umean = float(np.mean(w.latency[structural])) * 1e3
    # every write's rebuild and swap stalls the reads it overlaps, so
    # the stalls are the workload, not noise: a plain whole-phase p99
    rp50, rp99, _ = latency_pair(b.latency, 0.99)
    svc = _service_times(w)[structural]
    out.e2e = {
        "setup_s": Metric(median(setups), "s", len(setups)),
        "peak_rss_mb": Metric(rss, "MB", 1),
        "latency_ms": Metric(umean, "ms", int(structural.sum())),
        "tail_ms": Metric(uptail, "ms", int(structural.sum()),
                          note=f"p{upq * 100:.0f}"),
        "side_latency_ms": Metric(rp50, "ms", len(b.due)),
        "side_tail_ms": Metric(rp99, "ms", len(b.due)),
    }
    out.report = [
        ("setup_s", out.e2e["setup_s"]),
        ("peak_rss_mb", out.e2e["peak_rss_mb"]),
        ("failed_frac", Metric(out.failed / max(1, out.attempted), "ratio",
                               out.attempted)),
        ("update_mean_ms", out.e2e["latency_ms"]),
        ("update_p50_ms", Metric(up50, "ms", int(structural.sum()))),
        (f"update_p{upq * 100:.0f}_ms", out.e2e["tail_ms"]),
        ("read_p50_ms", out.e2e["side_latency_ms"]),
        ("read_p99_ms", out.e2e["side_tail_ms"]),
        ("write_ops_per_busy_s", Metric(n_ops[structural].sum() / svc.sum(),
                                        "ops/s", int(structural.sum()))),
    ]
    if trace:
        import tracing

        out.layers.update(tracing.fleet_layers(mid, end, dep))
        out.layers["loadgen.late_p99_ms"] = Metric(b.late_p99_s() * 1e3, "ms",
                                                   len(b.due))
        out.layers["trace.overhead_pct"] = _halves_overhead(b, seconds / 2)
        reprice = ~structural
        out.layers["updates.reprice_p50_ms"] = Metric(
            median(w.latency[reprice]) * 1e3, "ms", int(reprice.sum()))
        out.layers.update(tracing.churn_replay(graph, stream, applied))
    return out
