"""E11 — query throughput of the prebuilt sensitivity oracle.

The selling point of the oracle layer: after one O(log D_T)-round MPC
precomputation, weight-update queries are answered in O(1) each (or
O(batch) vectorised) with no further rounds. The table reports the
one-time build cost next to point/bulk query throughput; the
acceptance bar is >= 1e5 point queries per second.

The build's replacement-edge recovery is gated too: the vectorised
binary-lifting kernel must give the same ``(mc, cover)`` as the
sequential DSU reference (``repro.baselines.covering_ascent``) on this
graph, and beat it by ``MIN_ASCENT_SPEEDUP``.
"""

import time

import numpy as np

from repro.analysis import render_table
from repro.baselines import covering_ascent
from repro.graph.generators import known_mst_instance
from repro.graph.tree import RootedTree
from repro.oracle import _covering_ascent, build_oracle

try:  # direct `python benchmarks/bench_e11_...py` runs (CI floor check)
    from common import QUICK, emit_json, scaled, timed
except ImportError:  # pragma: no cover - path set up by pytest otherwise
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from common import QUICK, emit_json, scaled, timed

N = scaled(2048)
EXTRA_M = 2 * N
POINT_QUERIES = 20_000 if QUICK else 100_000
BULK_QUERIES = 200_000 if QUICK else 1_000_000

#: Acceptance floor: a prebuilt oracle must clear this point-query rate.
MIN_POINT_QPS = 1e5
#: Build-kernel floor: binary-lifting min-cover vs the DSU ascent.
MIN_ASCENT_SPEEDUP = 3.0
ASCENT_REPS = 20


def _build():
    g, _ = known_mst_instance("random", N, extra_m=EXTRA_M, rng=17)
    t0 = time.perf_counter()
    oracle = build_oracle(g, oracle_labels=True)
    build_s = time.perf_counter() - t0
    return g, oracle, build_s


def _ascent_gate(g, oracle):
    """Check the build kernel against the DSU reference, then time both.

    Each timed call gets a freshly rooted tree, so both pay for their
    own lifting tables as the oracle build does. Returns the best-of
    ``ASCENT_REPS`` walls ``(kernel_s, reference_s)``.
    """
    nt = np.flatnonzero(~g.tree_mask)
    args = (g.u[nt], g.v[nt], g.w[nt], nt)
    walls = []
    for fn in (_covering_ascent, covering_ascent):
        best = float("inf")
        for _ in range(ASCENT_REPS):
            tree = RootedTree(parent=oracle.parent, root=oracle.root)
            t0 = time.perf_counter()
            out = fn(tree, *args)
            best = min(best, time.perf_counter() - t0)
        walls.append((best, out))
    (kernel_s, (mc, cover)), (ref_s, (ref_mc, ref_cover)) = walls
    assert np.array_equal(mc, ref_mc) and np.array_equal(cover, ref_cover), \
        "build kernel disagrees with baselines.covering_ascent"
    return kernel_s, ref_s


def _sweep():
    g, oracle, build_s = _build()
    kernel_s, ref_s = _ascent_gate(g, oracle)
    rng = np.random.default_rng(23)

    edges = rng.integers(0, g.m, POINT_QUERIES).tolist()
    weights = rng.uniform(0.0, 2.0, POINT_QUERIES).tolist()
    t0 = time.perf_counter()
    survived = 0
    for e, x in zip(edges, weights):
        survived += oracle.survives(e, x)
    point_s = time.perf_counter() - t0
    point_qps = POINT_QUERIES / point_s

    bulk_e = rng.integers(0, g.m, BULK_QUERIES)
    bulk_x = rng.uniform(0.0, 2.0, BULK_QUERIES)
    t0 = time.perf_counter()
    bulk_hits = int(oracle.survives_bulk(bulk_e, bulk_x).sum())
    bulk_s = time.perf_counter() - t0
    bulk_qps = BULK_QUERIES / bulk_s

    rows = [
        ("build (precompute rounds)", oracle.precompute_rounds, "-", "-"),
        ("build (wall)", 1, round(build_s, 4), "-"),
        ("build kernel: min-cover lifting", 1, round(kernel_s, 5), "-"),
        ("build kernel: DSU reference", 1, round(ref_s, 5), "-"),
        ("point survives()", POINT_QUERIES, round(point_s, 4),
         f"{point_qps:,.0f}"),
        ("bulk survives_bulk()", BULK_QUERIES, round(bulk_s, 4),
         f"{bulk_qps:,.0f}"),
    ]
    stats = {"point_qps": point_qps, "bulk_qps": bulk_qps,
             "survived": survived, "bulk_hits": bulk_hits,
             "ascent_speedup": ref_s / kernel_s}
    return rows, stats


def test_e11_table(table_sink, benchmark):
    with timed() as t:
        rows, stats = _sweep()
    emit_json(
        "E11",
        {"n": N, "extra_m": EXTRA_M, "point_queries": POINT_QUERIES,
         "bulk_queries": BULK_QUERIES,
         "min_ascent_speedup": MIN_ASCENT_SPEEDUP},
        ["operation", "count", "wall (s)", "queries/s"], rows,
        wall_s=t.wall_s,
        point_qps=stats["point_qps"], bulk_qps=stats["bulk_qps"],
        ascent_speedup=round(stats["ascent_speedup"], 2),
    )
    assert stats["point_qps"] >= MIN_POINT_QPS, \
        f"point throughput {stats['point_qps']:,.0f} q/s below 1e5"
    assert stats["ascent_speedup"] >= MIN_ASCENT_SPEEDUP, \
        f"build kernel {stats['ascent_speedup']:.1f}x below " \
        f"{MIN_ASCENT_SPEEDUP}x over the DSU ascent"
    assert stats["bulk_qps"] >= stats["point_qps"]
    assert 0 < stats["survived"] < POINT_QUERIES  # both outcomes exercised

    g, oracle, _ = _build()
    rng = np.random.default_rng(1)
    e = rng.integers(0, g.m, 100_000)
    x = rng.uniform(0.0, 2.0, 100_000)
    benchmark.pedantic(lambda: oracle.survives_bulk(e, x),
                       rounds=5, iterations=1)
    table_sink(
        "E11: oracle query throughput after one MPC precomputation "
        f"(n={N}, m={N - 1 + EXTRA_M})",
        render_table(["operation", "count", "wall (s)", "queries/s"], rows),
    )


if __name__ == "__main__":
    rows, stats = _sweep()
    print(render_table(["operation", "count", "wall (s)", "queries/s"], rows))
    ok = stats["point_qps"] >= MIN_POINT_QPS
    print(f"point-query floor (1e5/s): {'PASS' if ok else 'FAIL'}")
    fast = stats["ascent_speedup"] >= MIN_ASCENT_SPEEDUP
    print(f"build-kernel floor ({MIN_ASCENT_SPEEDUP}x over DSU, got "
          f"{stats['ascent_speedup']:.1f}x): {'PASS' if fast else 'FAIL'}")
    raise SystemExit(0 if ok and fast else 1)
