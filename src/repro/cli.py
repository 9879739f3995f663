"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``verify``       build (or perturb) an instance and run Theorem 3.1
``sensitivity``  run Theorem 4.1 and print the most fragile edges
``profile``      run a pipeline and print the per-primitive wall-time
                 and call-count table (where the next hot path is)
``explain``      run a pipeline and print the logical vs physical plan
                 per phase (elided sorts, fused joins, operator choices)
``pipeline``     print the stage DAG plan (and run it, warm-starting
                 from an artifact cache)
``batch``        fan a mixed verify/sensitivity workload over a process pool
``serve``        run the sharded micro-batching query service (S19);
                 ``--workers N`` scales out through the router tier
``route``        run the router tier: front door + consistent-hash
                 placement over N worker processes (S22)
``loadgen``      drive a query storm against a running serve/route
                 process; ``--churn RATE`` streams structural
                 update_batch ops alongside the reads (S23)
``sweep``        the headline experiment: rounds vs candidate-tree diameter
``lower-bound``  the Theorem 5.2 hard family

Examples::

    python -m repro verify --shape caterpillar --n 2000 --extra-m 4000
    python -m repro verify --shape random --n 500 --break-mst
    python -m repro sensitivity --shape binary --n 1023 --top 8
    python -m repro profile --kind sensitivity --n 2000 --engine distributed
    python -m repro pipeline --kind sensitivity --n 500 --cache-dir /tmp/cache
    python -m repro batch --jobs 8 --n 300 --cache-dir /tmp/cache
    python -m repro batch --jobs 12 --format json --out report.json
    python -m repro batch --jobs 6 --persist-oracles /tmp/oracles
    python -m repro serve --shapes random,grid,power_law --n 2000 --shards 4
    python -m repro serve --workers 4 --n 2000            # router scale-out
    python -m repro route --workers 4 --replication 2 --port 7465
    python -m repro route --workers 3 --chaos kill:1@2.0  # self-healing demo
    python -m repro loadgen --port 7465 --queries 5000 --churn 10 --shutdown
    python -m repro sweep --n 4096 --diameters 8,32,128,512
    python -m repro lower-bound --sizes 64,256,1024
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import fit_log, render_table
from .errors import ValidationError
from .graph.generators import (
    attach_nontree_edges,
    backbone_tree,
    known_mst_instance,
    one_vs_two_cycles_instance,
    perturb_break_mst,
    TREE_SHAPES,
)
from .mpc import MPCConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="MST verification & sensitivity in simulated MPC "
                    "(Coy–Czumaj–Mishra–Mukherjee, SPAA 2024)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def instance_args(sp):
        sp.add_argument("--shape", choices=TREE_SHAPES, default="random")
        sp.add_argument("--n", type=int, default=1000)
        sp.add_argument("--extra-m", type=int, default=None,
                        help="non-tree edges (default 2n)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--engine", choices=["local", "distributed"],
                        default="local")
        sp.add_argument("--delta", type=float, default=0.35,
                        help="local-memory exponent s = O(n^delta)")
        sp.add_argument("--oracle-labels", action="store_true",
                        help="assume the cited rooting/DFS black boxes")

    sp = sub.add_parser("verify", help="MST verification (Theorem 3.1)")
    instance_args(sp)
    sp.add_argument("--break-mst", action="store_true",
                    help="perturb one non-tree edge below its path max")

    sp = sub.add_parser("sensitivity", help="MST sensitivity (Theorem 4.1)")
    instance_args(sp)
    sp.add_argument("--top", type=int, default=5,
                    help="how many fragile edges to list")

    sp = sub.add_parser(
        "profile",
        help="per-primitive wall-time/call profile of a pipeline run",
    )
    instance_args(sp)
    sp.add_argument("--kind", choices=["verify", "sensitivity"],
                    default="sensitivity")
    sp.add_argument("--break-mst", action="store_true",
                    help="perturb one non-tree edge below its path max")

    sp = sub.add_parser(
        "explain",
        help="print the logical vs physical plan of a pipeline run "
             "(elided/fused/reused nodes per phase)",
    )
    instance_args(sp)
    sp.add_argument("--kind", choices=["verify", "sensitivity"],
                    default="sensitivity")
    sp.add_argument("--break-mst", action="store_true",
                    help="perturb one non-tree edge below its path max")
    sp.add_argument("--full", action="store_true",
                    help="list every plan node, not just per-phase summaries")

    sp = sub.add_parser(
        "pipeline",
        help="print the stage DAG plan and run it against an artifact cache",
    )
    instance_args(sp)
    sp.add_argument("--kind", choices=["verify", "sensitivity"],
                    default="verify")
    sp.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                    help="persistent artifact store (warm-start across runs)")
    sp.add_argument("--coin-bias", type=float, default=0.5)
    sp.add_argument("--reduction-exponent", type=float, default=1.0)
    sp.add_argument("--plan-only", action="store_true",
                    help="print the stage plan without executing")

    sp = sub.add_parser(
        "batch", help="run many verify/sensitivity jobs across a process pool"
    )
    sp.add_argument("--jobs", type=int, default=8,
                    help="number of jobs in the workload")
    sp.add_argument("--processes", type=int, default=None,
                    help="pool size (default: min(jobs, cpu count))")
    sp.add_argument("--n", type=int, default=200)
    sp.add_argument("--extra-m", type=int, default=None,
                    help="non-tree edges per instance (default 2n)")
    sp.add_argument("--shapes", type=str, default="random,binary,caterpillar",
                    help="comma-separated tree shapes to cycle through")
    sp.add_argument("--kinds", type=str, default="verify,sensitivity",
                    help="comma-separated job kinds to mix")
    sp.add_argument("--broken", type=float, default=0.25,
                    help="fraction of verify jobs on a perturbed (non-MST) tree")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--engine", choices=["local", "distributed"],
                    default="local")
    sp.add_argument("--delta", type=float, default=0.35)
    sp.add_argument("--format", choices=["table", "json", "csv"],
                    default="table", help="per-job record format")
    sp.add_argument("--out", type=str, default=None,
                    help="write per-job records to this file (default stdout)")
    sp.add_argument("--persist-oracles", type=str, default=None, metavar="DIR",
                    help="save a rehydratable sensitivity oracle per job here")
    sp.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                    help="shared stage-artifact cache: jobs on one graph "
                         "run their common pipeline prefix once")

    sp = sub.add_parser(
        "serve",
        help="run the sharded micro-batching query service (TCP JSON-lines)",
    )
    sp.add_argument("--shapes", type=str, default="random",
                    help="comma-separated tree shapes; one named instance "
                         "per shape")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--extra-m", type=int, default=None,
                    help="non-tree edges per instance (default 2n)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--engine", choices=["local", "distributed"],
                    default="local")
    sp.add_argument("--delta", type=float, default=0.35)
    sp.add_argument("--host", type=str, default="127.0.0.1")
    sp.add_argument("--port", type=int, default=7464,
                    help="TCP port (0 picks a free one)")
    sp.add_argument("--shards", type=int, default=2,
                    help="edge-range shards per instance")
    sp.add_argument("--max-batch", type=int, default=512)
    sp.add_argument("--queue-depth", type=int, default=4096,
                    help="per-shard queue bound before load-shedding")
    sp.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                    help="persistent artifact store for incremental rebuilds")
    sp.add_argument("--mmap-dir", type=str, default=None, metavar="DIR",
                    help="share oracle snapshots across shards via mmap")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes; >1 runs the router tier "
                         "(equivalent to `repro route`)")
    sp.add_argument("--replication", type=int, default=2,
                    help="replicas per instance when --workers > 1")
    sp.add_argument("--chaos", type=str, default=None, metavar="SPEC",
                    help="fault-injection plan when --workers > 1, e.g. "
                         "'kill:1@0.5' (see repro.service.chaos)")

    sp = sub.add_parser(
        "route",
        help="router tier: front door + placement over N worker processes",
    )
    sp.add_argument("--shapes", type=str, default="random",
                    help="comma-separated tree shapes; one named instance "
                         "per shape")
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--extra-m", type=int, default=None,
                    help="non-tree edges per instance (default 2n)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--engine", choices=["local", "distributed"],
                    default="local")
    sp.add_argument("--delta", type=float, default=0.35)
    sp.add_argument("--host", type=str, default="127.0.0.1")
    sp.add_argument("--port", type=int, default=7465,
                    help="front-door TCP port (0 picks a free one)")
    sp.add_argument("--workers", type=int, default=2,
                    help="worker processes behind the router")
    sp.add_argument("--replication", type=int, default=2,
                    help="replicas per instance (capped at --workers)")
    sp.add_argument("--shards", type=int, default=2,
                    help="edge-range shards per instance, per worker")
    sp.add_argument("--max-batch", type=int, default=512)
    sp.add_argument("--queue-depth", type=int, default=4096,
                    help="per-shard queue bound before load-shedding")
    sp.add_argument("--query-links", type=int, default=2,
                    help="pipelined query connections per worker")
    sp.add_argument("--shed-watermark", type=float, default=0.9,
                    help="queue-depth fraction that trips router-tier shed")
    sp.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                    help="per-worker artifact store root for rebuilds")
    sp.add_argument("--mmap-dir", type=str, default=None, metavar="DIR",
                    help="snapshot spool shared by router and workers "
                         "(default: a private tempdir)")
    sp.add_argument("--chaos", type=str, default=None, metavar="SPEC",
                    help="deterministic fault-injection plan, e.g. "
                         "'kill:1@0.5,sever:0@2.0' or 'rand:7@3.0' "
                         "(see repro.service.chaos)")

    sp = sub.add_parser(
        "loadgen",
        help="drive a query storm (optionally with --churn structural "
             "batches) against a running serve/route process",
        add_help=False,
    )
    sp.add_argument("loadgen_args", nargs=argparse.REMAINDER,
                    help="arguments passed through to repro.service.loadgen")

    sp = sub.add_parser("sweep", help="rounds vs D_T experiment")
    sp.add_argument("--n", type=int, default=4096)
    sp.add_argument("--diameters", type=str, default="8,32,128,512")
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("lower-bound", help="Theorem 5.2 hard family")
    sp.add_argument("--sizes", type=str, default="64,256,1024")
    return p


def _make_instance(args):
    extra = args.extra_m if args.extra_m is not None else 2 * args.n
    g, _ = known_mst_instance(args.shape, args.n, extra_m=extra,
                              rng=args.seed)
    return g


def _config(args):
    return MPCConfig(delta=args.delta) if args.engine == "distributed" else None


def cmd_verify(args, out) -> int:
    from .core.verification import verify_mst

    g = _make_instance(args)
    if args.break_mst:
        g = perturb_break_mst(g, rng=args.seed + 1)
    r = verify_mst(g, engine=args.engine, config=_config(args),
                   oracle_labels=args.oracle_labels)
    out.write(f"instance: shape={args.shape} n={g.n} m={g.m}\n")
    out.write(f"is MST:   {r.is_mst} ({r.reason})\n")
    out.write(f"rounds:   {r.rounds} (core {r.core_rounds}, "
              f"substrate {r.substrate_rounds})\n")
    out.write(f"memory:   {r.report.peak_global_words} words peak "
              f"(input {g.total_words()})\n")
    out.write(f"D_T est.: {r.diameter_estimate}\n")
    if not r.is_mst and len(r.violating_edges):
        out.write(f"witness edges: {r.violating_edges[:10].tolist()}\n")
    return 0 if r.is_mst or args.break_mst else 1


def cmd_sensitivity(args, out) -> int:
    from .core.sensitivity import mst_sensitivity

    g = _make_instance(args)
    r = mst_sensitivity(g, engine=args.engine, config=_config(args),
                        oracle_labels=args.oracle_labels)
    out.write(f"instance: shape={args.shape} n={g.n} m={g.m}\n")
    out.write(f"rounds:   {r.rounds} (core {r.core_rounds}); "
              f"notes peak {r.notes_peak}\n")
    ts = r.sensitivity[r.tree_index]
    finite = np.isfinite(ts)
    out.write(f"tree edges: {int(finite.sum())} swappable, "
              f"{int((~finite).sum())} bridges\n")
    order = np.argsort(ts)[: args.top]
    rows = []
    for k in order:
        e = int(r.tree_index[k])
        rows.append((int(g.u[e]), int(g.v[e]), round(float(g.w[e]), 4),
                     round(float(ts[k]), 4)))
    out.write("most fragile tree edges:\n")
    out.write(render_table(["u", "v", "weight", "slack"], rows))
    return 0


def cmd_profile(args, out) -> int:
    import time

    from .core.verification import distributed_hint, verify_mst
    from .mpc import make_runtime

    g = _make_instance(args)
    if args.break_mst:
        g = perturb_break_mst(g, rng=args.seed + 1)
    rt = make_runtime(args.engine, _config(args),
                      total_words_hint=distributed_hint(g))
    t0 = time.perf_counter()
    if args.kind == "sensitivity":
        from .core.sensitivity import mst_sensitivity

        r = mst_sensitivity(g, runtime=rt, oracle_labels=args.oracle_labels)
        verdict = f"rounds={r.rounds} (core {r.core_rounds})"
    else:
        r = verify_mst(g, runtime=rt, oracle_labels=args.oracle_labels)
        verdict = f"is_mst={r.is_mst} rounds={r.rounds}"
    total = time.perf_counter() - t0
    rep = rt.report()
    out.write(f"instance: shape={args.shape} n={g.n} m={g.m} "
              f"engine={args.engine}\n")
    out.write(f"{args.kind}: {verdict}, wall {total:.3f}s")
    if args.engine == "distributed":
        out.write(f", transport rounds {rep.transport_rounds}")
    out.write("\n\nper-primitive wall attribution (slowest first):\n")
    profile = rt.tracker.wall_profile()
    attributed = sum(w for _, _, w in profile)
    rows = []
    for prim, calls, wall in profile:
        rows.append((
            prim, calls, round(wall, 4),
            f"{100.0 * wall / total:.1f}%" if total else "-",
            round(1e3 * wall / calls, 3),
        ))
    rows.append(("(outside primitives)", "-",
                 round(max(total - attributed, 0.0), 4),
                 f"{100.0 * max(total - attributed, 0.0) / total:.1f}%"
                 if total else "-", "-"))
    out.write(render_table(
        ["primitive", "calls", "wall (s)", "of total", "ms/call"], rows
    ))
    return 0


#: Order in which physical-operator counters print in ``explain``.
_EXPLAIN_PHYS = (
    "identity", "cse", "argsort-permute", "dense-gather", "direct-address",
    "merge-search", "binary-search", "empty-data", "grouped-reduceat",
    "sort-reduceat", "segmented-scan", "mask-compact", "aggregation-tree",
    "sample-sort", "co-sort-copy-down", "carry-chain", "sort-scan-boundary",
    "compact-rebalance",
)


def cmd_explain(args, out) -> int:
    from .core.verification import distributed_hint, verify_mst
    from .mpc import make_runtime

    g = _make_instance(args)
    if args.break_mst:
        g = perturb_break_mst(g, rng=args.seed + 1)
    rt = make_runtime(args.engine, _config(args),
                      total_words_hint=distributed_hint(g))
    if rt.planner is None:
        print("error: explain needs the planner (config.planner=True)",
              file=sys.stderr)
        return 2
    if args.kind == "sensitivity":
        from .core.sensitivity import mst_sensitivity

        r = mst_sensitivity(g, runtime=rt, oracle_labels=args.oracle_labels)
        verdict = f"rounds={r.rounds}"
    else:
        r = verify_mst(g, runtime=rt, oracle_labels=args.oracle_labels)
        verdict = f"is_mst={r.is_mst} rounds={r.rounds}"
    log = rt.planner.log
    out.write(f"instance: shape={args.shape} n={g.n} m={g.m} "
              f"engine={args.engine}\n")
    out.write(f"{args.kind}: {verdict}, {len(log)} logical plan nodes\n\n")
    out.write("logical -> physical plan by phase "
              "(rounds are charged from the logical side):\n")
    summary = log.phase_summary()
    for phase, c in summary.items():
        ops = ", ".join(
            f"{v} {k[2:]}" for k, v in sorted(c.items()) if k.startswith("n_")
        )
        rewrites = []
        if c.get("elided_sort"):
            rewrites.append(f"{c['elided_sort']} sort(s) elided")
        if c.get("fused_join"):
            rewrites.append(f"{c['fused_join']} join(s) fused with reduce")
        if c.get("reused"):
            rewrites.append(f"{c['reused']} sub-plan(s) reused")
        phys = ", ".join(
            f"{c['phys_' + p]} {p}" for p in _EXPLAIN_PHYS
            if c.get("phys_" + p)
        )
        out.write(f"  {phase}\n")
        out.write(f"    logical : {ops}\n")
        out.write(f"    physical: {phys if phys else '(none executed)'}"
                  f"{('  [' + '; '.join(rewrites) + ']') if rewrites else ''}\n")
    tot = log.totals()
    out.write("\ntotals: "
              f"{tot.get('nodes', 0)} nodes, "
              f"{tot.get('elided_sort', 0)} sorts elided of "
              f"{tot.get('n_sort', 0)}, "
              f"{tot.get('fused_join', 0)} joins fused, "
              f"{tot.get('reused', 0)} sub-plans reused\n")
    joins = sum(tot.get(k, 0) for k in
                ("phys_dense-gather", "phys_direct-address"))
    out.write(f"        {joins} joins answered by direct addressing, "
              f"{tot.get('phys_merge-search', 0)} by merge search, "
              f"{tot.get('phys_binary-search', 0)} by binary search\n")
    if args.full:
        out.write("\nplan nodes:\n")
        for node in log.nodes:
            detail = f"({node.detail})" if node.detail else ""
            note = f"  # {node.note}" if node.note else ""
            out.write(f"  [{node.nid:4d}] {node.phase:28s} "
                      f"{node.op}{detail} n={node.n_in} -> "
                      f"{node.status}/{node.physical}{note}\n")
    return 0


def cmd_pipeline(args, out) -> int:
    from .pipeline import (
        ArtifactStore, PipelineParams, run_sensitivity, run_verification,
        sensitivity_pipeline, verification_pipeline,
    )

    from .mpc import MPCConfig

    g = _make_instance(args)
    pipe = (sensitivity_pipeline() if args.kind == "sensitivity"
            else verification_pipeline())
    store = (ArtifactStore(cache_dir=args.cache_dir)
             if args.cache_dir is not None else None)
    # mirror exactly what the run will capture from its runtime config
    # (for the local engine _config() is None, i.e. MPCConfig defaults),
    # so the printed plan keys match the executed keys
    cfg = _config(args) or MPCConfig()
    params = PipelineParams(
        engine=args.engine, oracle_labels=args.oracle_labels,
        coin_bias=args.coin_bias, reduction_exponent=args.reduction_exponent,
        cost_mode=cfg.cost_mode, delta=cfg.delta, seed=cfg.seed,
        capacity_constant=cfg.capacity_constant,
        min_machine_words=cfg.min_machine_words,
        global_slack=cfg.global_slack,
    )
    out.write(f"instance: shape={args.shape} n={g.n} m={g.m} "
              f"engine={args.engine}\n")
    out.write(f"stage plan ({args.kind}):\n")
    rows = []
    for e in pipe.plan(g, params, store):
        cached = "-" if e.cached is None else ("hit" if e.cached else "miss")
        rows.append((e.name, e.group, ",".join(e.deps) or "-",
                     ",".join(e.params) or "-", e.key, cached))
    out.write(render_table(
        ["stage", "phase", "depends on", "keyed by", "cache key", "cache"],
        rows,
    ))
    if args.plan_only:
        return 0
    kw = dict(
        engine=args.engine, config=_config(args),
        oracle_labels=args.oracle_labels, coin_bias=args.coin_bias,
        reduction_exponent=args.reduction_exponent, store=store,
    )
    if args.kind == "sensitivity":
        r, run = run_sensitivity(g, **kw)
        out.write(f"\nsensitivity done: rounds={r.rounds} "
                  f"(core {r.core_rounds}), notes peak {r.notes_peak}\n")
    else:
        r, run = run_verification(g, **kw)
        out.write(f"\nverification done: is_mst={r.is_mst} ({r.reason}), "
                  f"rounds={r.rounds} (core {r.core_rounds})\n")
    out.write(f"stages executed: {len(run.executed_stages)}, "
              f"replayed from cache: {len(run.cached_stages)}\n")
    if store is not None:
        st = store.stats()
        out.write(f"store: {st['entries']} artifacts, {st['hits']} hits, "
                  f"{st['misses']} misses ({st['disk_hits']} from disk)\n")
    return 0


def cmd_batch(args, out) -> int:
    import json

    from .analysis import to_csv
    from .batch import (
        BatchRunner, RECORD_FIELDS, aggregate, make_workload,
    )

    jobs = make_workload(
        count=args.jobs,
        kinds=tuple(k.strip() for k in args.kinds.split(",") if k.strip()),
        shapes=tuple(s.strip() for s in args.shapes.split(",") if s.strip()),
        n=args.n, extra_m=args.extra_m, base_seed=args.seed,
        broken_fraction=args.broken, engine=args.engine,
    )
    runner = BatchRunner(
        config=_config(args), processes=args.processes,
        persist_dir=args.persist_oracles, cache_dir=args.cache_dir,
    )
    results = runner.run(jobs)
    records = [r.as_record() for r in results]

    if args.format == "json":
        payload = json.dumps({"jobs": records}, indent=2)
    elif args.format == "csv":
        payload = to_csv(RECORD_FIELDS,
                         [[rec[f] if rec[f] is not None else ""
                           for f in RECORD_FIELDS] for rec in records])
    else:
        cols = ["job_id", "kind", "shape", "n", "m", "engine", "ok",
                "status", "is_mst", "rounds", "core_rounds", "peak_words",
                "wall_s"]
        payload = render_table(
            cols, [[rec[c] if rec[c] is not None else "-" for c in cols]
                   for rec in records],
        )
    # keep stdout machine-readable for json/csv: the human summary moves
    # to stderr unless the payload went to a file
    summary = out
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + ("\n" if not payload.endswith("\n") else ""))
        out.write(f"wrote {len(records)} job records to {args.out}\n")
    else:
        out.write(payload if payload.endswith("\n") else payload + "\n")
        if args.format != "table":
            summary = sys.stderr
    failed = [r for r in results if not r.ok]
    headers, rows = aggregate(results)
    summary.write("\naggregated cost table (by kind, shape):\n")
    summary.write(render_table(headers, rows))
    summary.write(f"\njobs: {len(results)} total, "
                  f"{len(results) - len(failed)} ok, {len(failed)} failed\n")
    for r in failed[:5]:
        summary.write(f"  job {r.job_id} [{r.kind}/{r.shape}] "
                      f"{r.status}: {r.error}\n")
    if args.persist_oracles:
        saved = sum(1 for r in results if r.oracle_path)
        summary.write(f"persisted {saved} oracles to {args.persist_oracles}\n")
    return 0 if not failed else 1


def _serve_shapes(args):
    shapes = [s.strip() for s in args.shapes.split(",") if s.strip()]
    for s in shapes:
        if s not in TREE_SHAPES:
            raise ValidationError(f"unknown tree shape {s!r}")
    if not shapes:
        raise ValidationError("serve needs at least one shape")
    return shapes


def cmd_route(args, out) -> int:
    import asyncio

    from .service import RouterConfig, RouterTier

    shapes = _serve_shapes(args)
    extra = args.extra_m if args.extra_m is not None else 2 * args.n
    cfg = RouterConfig(
        workers=args.workers, replication=args.replication,
        shards=args.shards, max_batch=args.max_batch,
        queue_depth=args.queue_depth, engine=args.engine, delta=args.delta,
        host=args.host, port=args.port,
        mmap_dir=args.mmap_dir, cache_dir=args.cache_dir,
        # `serve --workers N` delegates here without the router-only flags
        query_links=getattr(args, "query_links", 2),
        shed_watermark=getattr(args, "shed_watermark", 0.9),
        chaos=getattr(args, "chaos", None),
    )

    async def run() -> None:
        router = RouterTier(cfg)
        await router.start(serve_tcp=True)
        out.write(f"router up: {cfg.workers} worker processes, "
                  f"replication {min(cfg.replication, cfg.workers)}\n")
        for i, shape in enumerate(shapes):
            g, _ = known_mst_instance(shape, args.n, extra_m=extra,
                                      rng=args.seed + 101 * i)
            info = await router.add_instance(shape, g)
            out.write(f"instance {shape}: n={g.n} m={g.m} "
                      f"replicas={info['replicas']} "
                      f"snapshot={info['digest'][:16]}\n")
        host, port = router.tcp_address
        out.write(f"listening on {host}:{port} "
                  f"(JSON-lines + binary wire v1; ops: sensitivity survives "
                  f"replacement_edge entry_threshold update metrics "
                  f"instances ping hello shutdown)\n")
        if hasattr(out, "flush"):
            out.flush()
        try:
            await router.serve_forever()
        finally:
            m = await router.router_metrics()
            await router.stop()
            out.write(f"forwarded {m['router']['forwarded']} queries "
                      f"({m['qps']} worker qps over {m['uptime_s']}s), "
                      f"shed {m['router']['shed_router']} at router, "
                      f"shipped {m['router']['swaps_shipped']} swaps\n")

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        out.write("interrupted\n")
    return 0


def cmd_serve(args, out) -> int:
    import asyncio

    from .service import SensitivityService, ServiceConfig

    if getattr(args, "workers", 1) > 1:
        return cmd_route(args, out)
    shapes = [s.strip() for s in args.shapes.split(",") if s.strip()]
    for s in shapes:
        if s not in TREE_SHAPES:
            raise ValidationError(f"unknown tree shape {s!r}")
    if not shapes:
        raise ValidationError("serve needs at least one shape")
    extra = args.extra_m if args.extra_m is not None else 2 * args.n
    cfg = ServiceConfig(
        shards=args.shards, max_batch=args.max_batch,
        queue_depth=args.queue_depth, engine=args.engine,
        config=_config(args),
        cache_dir=args.cache_dir, mmap_dir=args.mmap_dir,
        host=args.host, port=args.port,
    )

    async def run() -> None:
        service = SensitivityService(cfg)
        for i, shape in enumerate(shapes):
            g, _ = known_mst_instance(shape, args.n, extra_m=extra,
                                      rng=args.seed + 101 * i)
            service.add_instance(shape, g)
            out.write(f"instance {shape}: n={g.n} m={g.m} "
                      f"shards={len(service.instances[shape].shards)}\n")
        await service.start(serve_tcp=True)
        host, port = service.tcp_address
        out.write(f"listening on {host}:{port} "
                  f"(JSON-lines + binary wire v1; ops: sensitivity survives "
                  f"replacement_edge entry_threshold update metrics "
                  f"instances ping hello shutdown)\n")
        if hasattr(out, "flush"):
            out.flush()
        try:
            await service.serve_forever()
        finally:
            await service.stop()
            m = service.metrics()
            out.write(f"served {m['queries']} queries "
                      f"({m['qps']} qps over {m['uptime_s']}s), "
                      f"shed {m['shed']}\n")

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        out.write("interrupted\n")
    return 0


def cmd_loadgen(args, out) -> int:
    from .service.loadgen import main as loadgen_main

    return loadgen_main(args.loadgen_args)


def cmd_sweep(args, out) -> int:
    from .core.verification import verify_mst

    diams = [int(x) for x in args.diameters.split(",")]
    rows = []
    for d in diams:
        tree = backbone_tree(args.n, d, rng=args.seed + d)
        g = attach_nontree_edges(tree, 2 * args.n, rng=args.seed + d + 1,
                                 mode="mst")
        r = verify_mst(g, oracle_labels=True)
        rows.append((d, r.core_rounds, r.report.peak_global_words))
    out.write(render_table(["D_T", "core rounds", "peak words"], rows))
    fit = fit_log(diams, [r[1] for r in rows])
    out.write(f"fit: rounds ~ {fit.slope:.1f}*log2(D) {fit.intercept:+.1f} "
              f"(R2={fit.r2:.3f})\n")
    return 0


def cmd_lower_bound(args, out) -> int:
    from .core.verification import verify_mst

    sizes = [int(x) for x in args.sizes.split(",")]
    rows = []
    for n in sizes:
        g1, _ = one_vs_two_cycles_instance(n, two_cycles=False, rng=n)
        g2, _ = one_vs_two_cycles_instance(n, two_cycles=True, rng=n)
        r1 = verify_mst(g1, oracle_labels=True)
        r2 = verify_mst(g2, oracle_labels=True)
        rows.append((n, r1.rounds, str(r1.is_mst), str(r2.is_mst)))
    out.write(render_table(
        ["n", "rounds", "1-cycle accepted", "2-cycle accepted"], rows
    ))
    return 0


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["loadgen"]:
        # pure passthrough: loadgen owns its whole flag set (argparse
        # REMAINDER would refuse leading --options it doesn't know)
        from .service.loadgen import main as loadgen_main

        return loadgen_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return {
            "verify": cmd_verify,
            "sensitivity": cmd_sensitivity,
            "profile": cmd_profile,
            "explain": cmd_explain,
            "pipeline": cmd_pipeline,
            "batch": cmd_batch,
            "serve": cmd_serve,
            "route": cmd_route,
            "loadgen": cmd_loadgen,
            "sweep": cmd_sweep,
            "lower-bound": cmd_lower_bound,
        }[args.command](args, out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
