"""E19 — binary columnar wire protocol vs JSON lines, end to end.

The S25 data-plane claim: the per-query cost of the service's wire
protocol — ``json.loads`` per request, dict building, ``json.dumps``
per response — dominates a deeply pipelined point-query storm, and the
fixed 16-byte binary frames of :mod:`repro.service.wire` remove it on
both sides (one ``np.frombuffer`` per pipelined read, one ``tobytes``
per response batch). On the router tier the win compounds: binary
frames are *relayed* — header peek + byte-counting splice — with zero
JSON parser invocations on the read path.

Acceptance bars:

* bit-identity **pre-timing**: for a stride of edges across all four
  point ops (plus out-of-range and wrong-kind probes), the binary
  client's response dicts equal the JSON client's exactly — same
  values, same generations, same error envelopes;
* single-connection pipelined throughput: binary >= 2x the compact
  JSON-lines driver against the same single-process service;
* router relay: binary through the front door beats JSON through the
  front door (the relay never parses, the JSON path parses twice), and
  the router's binary-door ``WireMetrics`` show the storm's frames
  with only the constant handshake escapes ever hitting ``json.loads``.
"""

import asyncio
import os
import time

from repro.analysis import render_table
from repro.graph.generators import known_mst_instance
from repro.service import (
    RouterConfig,
    RouterTier,
    SensitivityService,
    ServiceConfig,
)
from repro.service.loadgen import make_plan, run_tcp
from repro.service.server import ServiceClient

try:  # direct `python benchmarks/bench_e19_...py` runs
    from common import QUICK, emit_json, scaled, timed
except ImportError:  # pragma: no cover - path set up by pytest otherwise
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from common import QUICK, emit_json, scaled, timed

N = scaled(2048)
EXTRA_M = 2 * N
QUERIES = 6_000 if QUICK else 30_000
PIPELINE_DEPTH = 128
SHARDS = 2
WORKERS = 2
IDENTITY_STRIDE = 13
REPEATS = 2  # best-of, absorbs scheduler noise on shared runners

#: Acceptance floors. The direct floor is the headline claim; the
#: router floor is set below the observed ~4-5x relay win to absorb
#: shared-runner noise while still catching any parse on the relay.
MIN_DIRECT_SPEEDUP = 2.0
MIN_ROUTER_SPEEDUP = 1.5 if not QUICK else 1.25

OPS = ("sensitivity", "survives", "replacement_edge", "entry_threshold")


def _graph():
    g, _ = known_mst_instance("random", N, extra_m=EXTRA_M, rng=19)
    return g


async def _identity(host, port, m) -> int:
    """Every probe must answer bit-identically over both protocols."""
    cj = await ServiceClient.connect(host, port)
    cb = await ServiceClient.connect(host, port, wire_mode="binary")
    checked = 0
    try:
        for e in list(range(0, m, IDENTITY_STRIDE)) + [m, m + 7]:
            for op in OPS:
                kw = {"edge": e, "instance": "random"}
                if op == "survives":
                    kw["weight"] = 1.25
                rj = await cj.call(op, **kw)
                rb = await cb.call(op, **kw)
                assert rj == rb, (
                    f"cross-protocol divergence at op={op} edge={e}:\n"
                    f"  json:   {rj}\n  binary: {rb}")
                checked += 1
    finally:
        await cj.close()
        await cb.close()
    return checked


async def _storm(host, port, plan, wire_mode):
    best = None
    for _ in range(REPEATS):
        stats = await run_tcp(host, port, plan, clients=1,
                              pipeline=PIPELINE_DEPTH, wire_mode=wire_mode)
        assert stats.errors == 0, (
            f"{wire_mode} storm hit {stats.errors} transport errors")
        assert stats.answered == len(plan)
        if best is None or stats.qps > best.qps:
            best = stats
    return best


async def _direct(g, plan):
    """Single-process service: identity first, then both storms."""
    svc = SensitivityService(ServiceConfig(
        shards=SHARDS, max_batch=512, queue_depth=1 << 15, port=0))
    svc.add_instance("random", g)
    await svc.start(serve_tcp=True)
    try:
        host, port = svc.tcp_address
        checked = await _identity(host, port, g.m)
        sj = await _storm(host, port, plan, "json")
        sb = await _storm(host, port, plan, "binary")
        wirem = {proto: wm.snapshot()
                 for proto, wm in svc.wire.items()}
    finally:
        await svc.stop()
    return checked, sj, sb, wirem


async def _router(g, plan):
    """Router front door: the relay never parses a binary frame."""
    rt = RouterTier(RouterConfig(
        workers=WORKERS, replication=2, shards=SHARDS, max_batch=512,
        queue_depth=1 << 15, port=0))
    await rt.start(serve_tcp=True)
    try:
        await rt.add_instance("random", g)
        host, port = rt.tcp_address
        checked = await _identity(host, port, g.m)
        sj = await _storm(host, port, plan, "json")
        sb = await _storm(host, port, plan, "binary")
        wirem = {proto: wm.snapshot() for proto, wm in rt.wire.items()}
    finally:
        await rt.stop()
    # zero-parse evidence: the storm's frames went through the binary
    # door, but json.loads only ever saw the constant escape handshakes
    bm = wirem["binary"]
    assert bm["frames_in"] >= REPEATS * len(plan), bm
    assert bm["json_decodes"] <= 8 * REPEATS + 16, (
        f"router binary door parsed JSON on the relay path: {bm}")
    return checked, sj, sb, wirem


def _sweep():
    g = _graph()
    plan = make_plan({"random": g.m}, QUERIES, seed=11)

    d_checked, dj, db, d_wire = asyncio.run(_direct(g, plan))
    r_checked, rj, rb, r_wire = asyncio.run(_router(g, plan))

    direct_speedup = db.qps / dj.qps if dj.qps else 0.0
    router_speedup = rb.qps / rj.qps if rj.qps else 0.0
    rows = [
        ("direct / json lines", QUERIES, round(dj.wall_s, 3),
         f"{dj.qps:,.0f}", round(dj.encode_s, 3), "1.00x"),
        ("direct / binary", QUERIES, round(db.wall_s, 3),
         f"{db.qps:,.0f}", round(db.encode_s, 3),
         f"{direct_speedup:.2f}x"),
        (f"router x {WORKERS} / json lines", QUERIES, round(rj.wall_s, 3),
         f"{rj.qps:,.0f}", round(rj.encode_s, 3), "1.00x"),
        (f"router x {WORKERS} / binary relay", QUERIES,
         round(rb.wall_s, 3), f"{rb.qps:,.0f}", round(rb.encode_s, 3),
         f"{router_speedup:.2f}x"),
    ]
    stats = {
        "identity_checked": d_checked + r_checked,
        "direct_json_qps": dj.qps,
        "direct_binary_qps": db.qps,
        "direct_speedup": direct_speedup,
        "router_json_qps": rj.qps,
        "router_binary_qps": rb.qps,
        "router_speedup": router_speedup,
        "direct_wire": d_wire,
        "router_wire": r_wire,
    }
    return rows, stats


def _check(stats):
    assert stats["identity_checked"] > 0
    assert stats["direct_speedup"] >= MIN_DIRECT_SPEEDUP, (
        f"binary wire {stats['direct_speedup']:.2f}x below the "
        f"{MIN_DIRECT_SPEEDUP}x single-connection floor "
        f"(json {stats['direct_json_qps']:,.0f} qps, "
        f"binary {stats['direct_binary_qps']:,.0f} qps)")
    assert stats["router_speedup"] >= MIN_ROUTER_SPEEDUP, (
        f"binary relay {stats['router_speedup']:.2f}x below the "
        f"{MIN_ROUTER_SPEEDUP}x router floor "
        f"(json {stats['router_json_qps']:,.0f} qps, "
        f"binary {stats['router_binary_qps']:,.0f} qps)")
    rbm = stats["router_wire"]["binary"]
    assert rbm["json_decodes"] <= 8 * REPEATS + 16


HEADERS = ["mode", "queries", "wall (s)", "throughput",
           "driver encode (s)", "speedup"]


def test_e19_table(table_sink, benchmark):
    with timed() as t:
        rows, stats = _sweep()
    emit_json(
        "E19",
        {"n": N, "extra_m": EXTRA_M, "queries": QUERIES,
         "pipeline_depth": PIPELINE_DEPTH, "shards": SHARDS,
         "workers": WORKERS, "repeats": REPEATS,
         "min_direct_speedup": MIN_DIRECT_SPEEDUP,
         "min_router_speedup": MIN_ROUTER_SPEEDUP},
        HEADERS, rows, wall_s=t.wall_s,
        identity_checked=stats["identity_checked"],
        direct_speedup=round(stats["direct_speedup"], 3),
        router_speedup=round(stats["router_speedup"], 3),
        direct_wire=stats["direct_wire"],
        router_wire=stats["router_wire"],
    )
    _check(stats)
    table_sink(
        f"E19: binary wire protocol (n={N}, {QUERIES:,} queries, "
        f"pipeline {PIPELINE_DEPTH}; direct "
        f"{stats['direct_speedup']:.2f}x vs {MIN_DIRECT_SPEEDUP}x floor, "
        f"router relay {stats['router_speedup']:.2f}x vs "
        f"{MIN_ROUTER_SPEEDUP}x floor; "
        f"{stats['identity_checked']} probes bit-identical)",
        render_table(HEADERS, rows),
    )


if __name__ == "__main__":
    t0 = time.perf_counter()
    rows, stats = _sweep()
    print(render_table(HEADERS, rows))
    print(f"direct {stats['direct_speedup']:.2f}x "
          f"(floor {MIN_DIRECT_SPEEDUP}x), router relay "
          f"{stats['router_speedup']:.2f}x (floor {MIN_ROUTER_SPEEDUP}x), "
          f"wall {time.perf_counter() - t0:.1f}s")
    _check(stats)
    print("PASS")
