"""Batched multi-instance execution of the verify/sensitivity pipelines.

One :class:`BatchRunner` call fans a list of :class:`JobSpec` out over a
``multiprocessing`` pool — every job builds its own seeded instance,
runs the requested pipeline, and sends back a flat, picklable
:class:`JobResult` carrying the cost accounting. Sensitivity jobs can
additionally persist a ready-to-serve
:class:`~repro.oracle.SensitivityOracle` to disk, so a later process
answers weight-update queries without touching the MPC substrate.

The ``python -m repro batch`` subcommand wraps this module; library use::

    from repro.batch import BatchRunner, make_workload

    jobs = make_workload(count=16, n=300, base_seed=7)
    results = BatchRunner(processes=4).run(jobs)
    headers, rows = aggregate(results)
"""

from __future__ import annotations

import os
import time
import traceback as _traceback
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .analysis.tables import aggregate_records
from .errors import ValidationError
from .graph.generators import TREE_SHAPES, known_mst_instance, perturb_break_mst
from .graph.graph import WeightedGraph
from .mpc import MPCConfig

__all__ = [
    "JobSpec",
    "JobResult",
    "BatchRunner",
    "make_workload",
    "aggregate",
    "JOB_KINDS",
]

JOB_KINDS = ("verify", "sensitivity")


@dataclass(frozen=True)
class JobSpec:
    """One seeded pipeline invocation (instance recipe + engine choice)."""

    kind: str = "verify"           # "verify" | "sensitivity"
    shape: str = "random"          # one of TREE_SHAPES
    n: int = 200
    extra_m: Optional[int] = None  # non-tree edges (default 2n)
    seed: int = 0
    break_mst: bool = False        # perturb one non-tree edge (verify only)
    engine: str = "local"          # "local" | "distributed"
    mode: str = "mst"              # instance generator mode

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ValidationError(f"unknown job kind {self.kind!r}")
        if self.shape not in TREE_SHAPES:
            raise ValidationError(f"unknown tree shape {self.shape!r}")
        if self.kind == "sensitivity" and self.break_mst:
            raise ValidationError(
                "sensitivity jobs need an MST instance (break_mst=False)"
            )

    def build(self) -> WeightedGraph:
        """Materialise the (deterministic) instance this spec describes."""
        extra = self.extra_m if self.extra_m is not None else 2 * self.n
        g, _ = known_mst_instance(self.shape, self.n, extra_m=extra,
                                  rng=self.seed, mode=self.mode)
        if self.break_mst:
            g = perturb_break_mst(g, rng=self.seed + 1)
        return g

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict) -> "JobSpec":
        return cls(**d)


@dataclass
class JobResult:
    """Flat per-job outcome — every field is JSON/CSV-friendly."""

    job_id: int
    kind: str
    shape: str
    n: int
    m: int
    seed: int
    engine: str
    break_mst: bool
    ok: bool
    #: ``"ok"`` | ``"error"`` (the job raised; ``error``/``traceback``
    #: carry the details) | ``"crashed"`` (the worker process died —
    #: synthesized by the parent, the job never reported back)
    status: str = "ok"
    error: Optional[str] = None
    traceback: Optional[str] = None
    is_mst: Optional[bool] = None
    n_violations: Optional[int] = None
    rounds: Optional[int] = None
    core_rounds: Optional[int] = None
    substrate_rounds: Optional[int] = None
    peak_words: Optional[int] = None
    diameter_estimate: Optional[int] = None
    bridges: Optional[int] = None        # sensitivity jobs
    min_slack: Optional[float] = None    # sensitivity jobs
    oracle_path: Optional[str] = None
    cache_hits: Optional[int] = None     # stage artifacts replayed (cache_dir)
    wall_s: float = 0.0

    def as_record(self) -> Dict:
        return asdict(self)


#: Column order for per-job CSV/table emission.
RECORD_FIELDS = [f for f in JobResult.__dataclass_fields__]


def _execute_job(payload: Tuple[int, JobSpec, Optional[MPCConfig],
                                Optional[str], Optional[str]]) -> JobResult:
    """Pool worker: build the instance, run the pipeline, flatten the result."""
    job_id, spec, config, persist_dir, cache_dir = payload
    t0 = time.perf_counter()
    out = JobResult(
        job_id=job_id, kind=spec.kind, shape=spec.shape, n=spec.n, m=0,
        seed=spec.seed, engine=spec.engine, break_mst=spec.break_mst, ok=False,
    )
    store = None
    try:
        if cache_dir is not None:
            from .pipeline import ArtifactStore

            store = ArtifactStore(cache_dir=cache_dir)
        graph = spec.build()
        out.m = graph.m
        if spec.kind == "verify":
            from .core.verification import verify_mst

            r = verify_mst(graph, engine=spec.engine, config=config,
                           store=store)
            out.is_mst = r.is_mst
            out.n_violations = r.n_violations
        else:
            from .core.sensitivity import mst_sensitivity
            from .oracle import SensitivityOracle

            r = mst_sensitivity(graph, engine=spec.engine, config=config,
                                store=store)
            tree_sens = r.sensitivity[r.tree_index]
            finite = np.isfinite(tree_sens)
            out.bridges = int((~finite).sum())
            out.min_slack = float(tree_sens[finite].min()) if finite.any() else None
            if persist_dir is not None:
                oracle = SensitivityOracle.from_result(graph, r)
                path = os.path.join(persist_dir, f"oracle_{job_id:04d}.npz")
                oracle.save(path)
                out.oracle_path = path
        out.rounds = r.rounds
        out.core_rounds = r.core_rounds
        out.substrate_rounds = r.substrate_rounds
        out.peak_words = r.report.peak_global_words
        out.diameter_estimate = r.diameter_estimate
        out.ok = True
    except Exception as exc:  # noqa: BLE001 - report, don't kill the pool
        out.status = "error"
        out.error = f"{type(exc).__name__}: {exc}"
        out.traceback = _traceback.format_exc()
    if store is not None:
        out.cache_hits = store.hits
    out.wall_s = round(time.perf_counter() - t0, 4)
    return out


class BatchRunner:
    """Execute many jobs against a shared :class:`MPCConfig`.

    ``processes=1`` runs inline (no pool — handy under debuggers and in
    tests); otherwise jobs run on the shared fault-isolated
    :class:`~repro.mpc.parallel.WorkerPool` (the same pool workload
    partitions use, started from an explicit forkserver/spawn context —
    never implicit ``fork``, which would snapshot live service threads
    and event loops) and results come back in submission order
    regardless of completion order. Per-job failures are *contained*:
    a raising job returns a ``status="error"`` result with its
    traceback, a worker crash returns ``status="crashed"``, and every
    other job's result is delivered normally.

    ``cache_dir`` enables warm-starting: every worker reads/writes a
    persistent :class:`~repro.pipeline.ArtifactStore` there, so jobs
    that share a graph (e.g. a verify + sensitivity pair, or an
    ablation sweep varying only the clustering knobs) run their common
    stage prefix once and replay it afterwards — results and charged
    rounds stay bit-identical to cold runs. With a pool, sharing is
    best-effort (concurrent jobs may both run a prefix cold); inline
    execution (``processes=1``) reuses deterministically.
    """

    def __init__(self, config: Optional[MPCConfig] = None,
                 processes: Optional[int] = None,
                 persist_dir: Optional[str] = None,
                 cache_dir: Optional[str] = None):
        self.config = config
        self.processes = processes
        self.persist_dir = persist_dir
        self.cache_dir = cache_dir

    def run(self, jobs: Sequence[JobSpec]) -> List[JobResult]:
        if self.persist_dir is not None:
            os.makedirs(self.persist_dir, exist_ok=True)
        payloads = [(i, spec, self.config, self.persist_dir, self.cache_dir)
                    for i, spec in enumerate(jobs)]
        procs = self.processes or min(len(payloads), os.cpu_count() or 1)
        if procs <= 1 or len(payloads) <= 1:
            return [_execute_job(p) for p in payloads]
        from .mpc.parallel import get_pool

        pool = get_pool(procs)
        outcomes = pool.map(
            "call",
            [("repro.batch", "_execute_job", p) for p in payloads],
        )
        results = []
        for payload, o in zip(payloads, outcomes):
            if o.ok:
                results.append(o.value)
            else:
                # the job never produced a JobResult (worker crash, or a
                # dispatch-layer failure): synthesize one so sibling
                # results survive and the failure stays visible
                job_id, spec = payload[0], payload[1]
                results.append(JobResult(
                    job_id=job_id, kind=spec.kind, shape=spec.shape,
                    n=spec.n, m=0, seed=spec.seed, engine=spec.engine,
                    break_mst=spec.break_mst, ok=False,
                    status="crashed" if o.crashed else "error",
                    error=o.error, traceback=o.traceback,
                ))
        return results


def make_workload(
    count: int,
    kinds: Sequence[str] = JOB_KINDS,
    shapes: Sequence[str] = ("random", "binary", "caterpillar"),
    n: int = 200,
    extra_m: Optional[int] = None,
    base_seed: int = 0,
    broken_fraction: float = 0.25,
    engine: str = "local",
) -> List[JobSpec]:
    """A deterministic mixed workload: kinds × shapes round-robin.

    Every job gets its own derived seed; ``broken_fraction`` of the
    *verify* jobs use a perturbed (non-MST) instance so reject paths are
    exercised too.
    """
    if count < 1:
        raise ValidationError("workload needs at least one job")
    if not kinds or not shapes:
        raise ValidationError("workload needs at least one kind and one shape")
    for k in kinds:
        if k not in JOB_KINDS:
            raise ValidationError(f"unknown job kind {k!r}")
    rng = np.random.default_rng(base_seed)
    jobs = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        shape = shapes[(i // len(kinds)) % len(shapes)]
        broken = (kind == "verify"
                  and bool(rng.random() < broken_fraction))
        jobs.append(JobSpec(
            kind=kind, shape=shape, n=n, extra_m=extra_m,
            seed=base_seed + 1000 * i, break_mst=broken, engine=engine,
        ))
    return jobs


def aggregate(results: Sequence[JobResult]):
    """Cost roll-up grouped by (kind, shape) — the batch report table."""
    headers, rows = aggregate_records(
        [r.as_record() for r in results],
        group_by=("kind", "shape"),
        metrics=[
            ("jobs", "job_id", "count"),
            ("ok", "ok", "sum"),
            ("mean rounds", "rounds", "mean"),
            ("mean core", "core_rounds", "mean"),
            ("max peak words", "peak_words", "max"),
            ("wall (s)", "wall_s", "sum"),
        ],
    )
    return headers, rows
