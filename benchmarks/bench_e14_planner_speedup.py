"""E14 — planner/executor split: eager vs planned wall clock.

Both executions run the identical logical plan (same charged rounds,
same outputs — the differential suite asserts bit-identity), so this
experiment isolates exactly what the physical optimizer buys: elided
sorts, reduce→join fusion, direct-address join kernels and shared
address tables, versus the eager engines' per-call scans and binary
searches.

The sweep covers verify+sensitivity across three graph families on the
local engine (where the full rewrite rule set applies) plus a small
distributed row (record-mode planning: full protocols, so the ratio
should sit near 1x — it documents that the message-level engine's
transport schedule is untouched).

Acceptance gate: on the local engine at n >= GATE_MIN_N, the aggregate
(summed across families) verify+sensitivity wall speedup must reach
``MIN_SPEEDUP``; recorded in ``BENCH_E14.json``. A second gate pins an
operator choice by count, which is portable across runners where a
kernel speed ratio is not: at every gate size, one planned
verify+sensitivity pass must answer some wide-key predecessor joins by
``merge-search`` (``merge_search_joins`` in the JSON).
"""

import time

import numpy as np

from repro.analysis import render_table
from repro.core.sensitivity import mst_sensitivity
from repro.core.verification import verify_mst
from repro.mpc import LocalRuntime, MPCConfig

try:  # direct `python benchmarks/bench_e14_...py` runs (CI gate step)
    from common import QUICK, emit_json, shape_instance, timed
except ImportError:  # pragma: no cover - path set up by pytest otherwise
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from common import QUICK, emit_json, shape_instance, timed

#: Local-engine wall-speedup floor at the gate sizes. Measured dev-box
#: aggregates sit around 1.35-1.55x; the floor leaves noise headroom on
#: shared CI runners while still failing if a headline rewrite (the
#: direct-address join selection above all) silently stops firing.
MIN_SPEEDUP = 1.3

#: The planner's win grows with n (python per-node overhead amortises,
#: binary searches get deeper); the paper gate applies from here up.
GATE_MIN_N = 4096

FAMILIES = ("random", "grid", "power_law")
SIZES = (1024, 4096) if QUICK else (1024, 4096, 8192)
GATE_SIZES = tuple(n for n in SIZES if n >= GATE_MIN_N)
REPS = 2 if QUICK else 3

HEADERS = ["engine", "family", "n", "rounds", "eager wall (s)",
           "planned wall (s)", "speedup x"]


def _run_pair(g, engine: str, reps: int, **cfg_kw):
    """Best-of-``reps`` verify+sensitivity wall for eager and planned."""
    walls = {}
    results = {}
    for planner in (False, True):
        cfg = MPCConfig(planner=planner, **cfg_kw)
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            rv = verify_mst(g, engine=engine, config=cfg)
            rs = mst_sensitivity(g, engine=engine,
                                 config=MPCConfig(planner=planner, **cfg_kw))
            best = min(best, time.perf_counter() - t0)
        walls[planner] = best
        results[planner] = (rv, rs)
    (rv_e, rs_e), (rv_p, rs_p) = results[False], results[True]
    assert np.array_equal(rs_e.sensitivity, rs_p.sensitivity)
    assert np.array_equal(rv_e.pathmax, rv_p.pathmax)
    assert rs_e.report.to_dict() == rs_p.report.to_dict()
    return walls[False], walls[True], rs_p.rounds


def _sweep():
    rows = []
    agg = {}  # n -> [eager_total, planned_total] on the local engine
    for n in SIZES:
        for family in FAMILIES:
            g = shape_instance(family, n, seed=3)
            eager, planned, rounds = _run_pair(g, "local", REPS)
            e, p = agg.setdefault(n, [0.0, 0.0])
            agg[n] = [e + eager, p + planned]
            rows.append(("local", family, n, rounds, round(eager, 3),
                         round(planned, 3), round(eager / planned, 2)))
    # one distributed row: record-mode planning must cost ~nothing and
    # change nothing (full protocols run either way)
    n_dist = 256
    g = shape_instance("random", n_dist, seed=3)
    eager, planned, rounds = _run_pair(g, "distributed", 1, delta=0.6)
    rows.append(("distributed", "random", n_dist, rounds, round(eager, 3),
                 round(planned, 3), round(eager / planned, 2)))
    speedups = {n: e / p for n, (e, p) in agg.items()}
    return rows, speedups


def _gate(speedups):
    worst = min(speedups[n] for n in GATE_SIZES)
    return worst >= MIN_SPEEDUP, worst


def _merge_search_joins(n: int) -> int:
    """Joins answered by ``merge-search`` in one planned verify +
    sensitivity pass over the random family at size ``n``."""
    g = shape_instance("random", n, seed=3)
    count = 0
    for run in (verify_mst, mst_sensitivity):
        rt = LocalRuntime(MPCConfig(planner=True))
        run(g, runtime=rt)
        count += rt.planner.log.totals().get("phys_merge-search", 0)
    return count


def test_e14_table(table_sink, benchmark):
    with timed() as t:
        rows, speedups = _sweep()
    merged = {n: _merge_search_joins(n) for n in GATE_SIZES}
    g = shape_instance("random", SIZES[0], seed=3)
    benchmark.pedantic(
        lambda: mst_sensitivity(g, engine="local", config=MPCConfig()),
        rounds=2, iterations=1,
    )
    emit_json("E14", {"sizes": list(SIZES), "families": list(FAMILIES),
                      "gate_sizes": list(GATE_SIZES),
                      "min_speedup": MIN_SPEEDUP, "reps": REPS},
              HEADERS, rows, wall_s=t.wall_s,
              agg_speedups={str(n): round(s, 3)
                            for n, s in speedups.items()},
              merge_search_joins={str(n): c for n, c in merged.items()})
    table_sink(
        "E14: planner speedup, eager vs planned execution "
        "(verify+sensitivity, bit-identical outputs asserted)",
        render_table(HEADERS, rows),
    )
    ok, worst = _gate(speedups)
    assert ok, (
        f"planned/eager speedup {worst:.2f}x at n>={GATE_MIN_N} is below "
        f"the {MIN_SPEEDUP}x floor — a planner rewrite stopped firing"
    )
    assert min(merged.values()) > 0, (
        f"no join answered by merge-search at the gate sizes: {merged}"
    )


if __name__ == "__main__":
    rows, speedups = _sweep()
    print(render_table(HEADERS, rows))
    ok, worst = _gate(speedups)
    print(f"speedup gate ({MIN_SPEEDUP}x floor at n>={GATE_MIN_N}): "
          f"worst {worst:.2f}x -> {'PASS' if ok else 'FAIL'}")
    merged = {n: _merge_search_joins(n) for n in GATE_SIZES}
    merge_ok = min(merged.values()) > 0
    print(f"merge-search gate (> 0 joins at n>={GATE_MIN_N}): {merged} "
          f"-> {'PASS' if merge_ok else 'FAIL'}")
    raise SystemExit(0 if ok and merge_ok else 1)
