"""The write path: committed weight updates against a live instance.

Every update ``w(e) := x`` is triaged with the serving oracle's own
thresholds — no pipeline work — into one of three outcomes:

``rejected``
    ``survives(e, x)`` is false: the flagged tree would stop being an
    MST, so the update would invalidate the structure every query is
    about. The service refuses it and reports the threshold crossed
    (callers see exactly how far they can re-price).

``patched`` (oracle-preserving)
    Every stored threshold provably keeps its value, so the update is
    a two-cell in-place patch served with zero pipeline stages. The
    preserved cases, with the one-line proofs:

    * *no-op* (``x == w(e)``): nothing changed.
    * *bridge tree edge*: no non-tree edge covers ``e`` (``mc = ∞``),
      so no ``pathmax`` crosses it and no ``mc`` mentions it.
    * *non-tree edge, raised, not a covering minimiser*
      (``x ≥ w(e)`` and ``e ∉ cover_edge``): ``e`` attains no tree
      edge's ``mc``, and raising a non-minimum keeps every minimum;
      ``pathmax`` never reads non-tree weights. (Old weight ≥ its
      pathmax on a served MST, so ``survives`` holds automatically.)

    Only the edge's own slack depends on its weight, so the patch is
    ``w[e] = x; sens[e] = ±(threshold[e] - x)``.

``rebuilt`` (structure-changing)
    Any other update can move thresholds, so the Theorem 4.1 pipeline
    re-runs — against the instance's artifact store, where the
    weight-scoped stage keys (``Stage.weight_scope``) replay every
    stage that did not read the changed weights. A non-tree re-pricing
    replays the whole validate→lca prefix and re-runs only the
    weight-reading suffix. The new oracle swaps into every shard as
    one new generation; in-flight batches finish on their snapshot.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.adgraph import HalfEdges, split_at_lca
from ..core.labeling import (
    LabeledHalfEdges,
    evaluate_pathmax,
    run_weight_labeling,
)
from ..core.lca import all_edges_lca
from ..errors import ServiceError
from ..graph.graph import WeightedGraph
from ..graph.mutations import BatchEffect, apply_ops, coalesce_ops
from ..mpc import MPCConfig
from ..mpc.table import Table
from ..oracle import SensitivityOracle
from ..pipeline import (
    ArtifactStore,
    run_sensitivity,
    sensitivity_pipeline,
    verification_pipeline,
)
from ..pipeline.artifacts import (
    AdgraphArtifact,
    DecideArtifact,
    LabelsArtifact,
    LcaArtifact,
    PathmaxArtifact,
    graph_fingerprint,
)
from ..pipeline.pipeline import PipelineParams, PipelineRun, _make_rt
from ..serialize import file_digest
from .metrics import UpdateMetrics
from .shards import OracleShard, route

__all__ = ["UpdateReport", "BatchReport", "InstanceUpdater"]

#: Stage names the scoped batch path splices instead of re-running.
SPLICED_STAGE_NAMES = ("lca", "adgraph", "labels", "pathmax", "decide")

#: Stage names of the Theorem 3.1 prefix (for re-run accounting).
VERIFICATION_STAGE_NAMES = tuple(verification_pipeline().stage_names())


@dataclass
class UpdateReport:
    """Flat, JSON-friendly outcome of one weight update."""

    instance: str
    edge: int
    old_weight: float
    new_weight: float
    action: str                     # "rejected" | "patched" | "rebuilt"
    survives: bool
    threshold: float
    generation: int
    stages_executed: int = 0
    stages_cached: int = 0
    verification_reruns: int = 0
    executed: List[str] = field(default_factory=list)
    cached: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: With ``mmap_dir`` set, a rebuild publishes its oracle snapshot
    #: to a digest-addressed file — the handoff the router ships to
    #: replicas instead of rebuilding everywhere.
    snapshot_path: Optional[str] = None
    snapshot_digest: Optional[str] = None

    def to_dict(self) -> Dict:
        return asdict(self)


class InstanceUpdater:
    """Owns one instance's authoritative weights and its rebuild loop."""

    def __init__(self, name: str, graph: WeightedGraph,
                 oracle: SensitivityOracle, *,
                 engine: str = "local", config: Optional[MPCConfig] = None,
                 oracle_labels: bool = True,
                 store: Optional[ArtifactStore] = None,
                 mmap_dir: Optional[str] = None):
        self.name = name
        self.graph = graph          # authoritative (mutated by updates)
        self.oracle = oracle        # latest generation (shared or template)
        self.engine = engine
        self.config = config
        self.oracle_labels = oracle_labels
        self.store = store if store is not None else ArtifactStore()
        self.mmap_dir = mmap_dir
        self.generation = 0
        self.metrics = UpdateMetrics()
        #: Latest published snapshot (digest-addressed), if any — the
        #: handoff a router ships to replica workers.
        self.snapshot_path: Optional[str] = None
        self.snapshot_digest: Optional[str] = None
        #: The most recent full pipeline run over ``self.graph`` — the
        #: artifact set the scoped batch path splices against — plus
        #: the graph fingerprint it belongs to (splice precondition).
        self.last_run: Optional[PipelineRun] = None
        self._splice_fp: Optional[str] = None

    def _remember_run(self, run: PipelineRun, graph: WeightedGraph) -> None:
        self.last_run = run
        self._splice_fp = graph_fingerprint(graph, "full")

    def publish_snapshot(self) -> str:
        """Persist the current oracle to a digest-addressed ``.npz``.

        The file is written uncompressed (mmap-able), hashed, and
        renamed to ``<name>-<digest16>.npz`` — content-addressed, so a
        replica can verify the bytes it maps against the digest it was
        told to adopt, and re-publishing identical content is a no-op
        rename onto the same name. The superseded snapshot is unlinked
        (already-mapped pages stay valid on POSIX).
        """
        os.makedirs(self.mmap_dir, exist_ok=True)
        tmp = os.path.join(
            self.mmap_dir, f".{self.name}-gen{self.generation:04d}.tmp.npz"
        )
        self.oracle.save(tmp, compressed=False)
        digest = file_digest(tmp)
        path = os.path.join(self.mmap_dir,
                            f"{self.name}-{digest[:16]}.npz")
        os.replace(tmp, path)
        if self.snapshot_path not in (None, path):
            try:
                os.unlink(self.snapshot_path)
            except OSError:  # pragma: no cover - e.g. mapped on Windows
                pass
        self.snapshot_path = path
        self.snapshot_digest = digest
        return path

    def shard_oracles(self, n_shards: int) -> List[SensitivityOracle]:
        """The oracle objects a new generation hands to its shards.

        Without ``mmap_dir`` every shard shares the in-memory oracle.
        With it, the generation is snapshotted once to an uncompressed
        digest-addressed ``.npz`` and every shard maps that file
        read-only — one page-cached copy behind N workers (or N
        processes: the router ships exactly this file to replicas).
        """
        if self.mmap_dir is None:
            return [self.oracle] * n_shards
        path = self.publish_snapshot()
        return [SensitivityOracle.load(path, mmap_mode="r")
                for _ in range(n_shards)]

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, name: str, graph: WeightedGraph, *,
              engine: str = "local", config: Optional[MPCConfig] = None,
              oracle_labels: bool = True,
              store: Optional[ArtifactStore] = None,
              mmap_dir: Optional[str] = None) -> "InstanceUpdater":
        """Cold-build the first oracle generation (populates the store)."""
        store = store if store is not None else ArtifactStore()
        result, run = run_sensitivity(
            graph, engine=engine, config=config,
            oracle_labels=oracle_labels, store=store,
        )
        oracle = SensitivityOracle.from_result(graph, result)
        updater = cls(name, graph, oracle, engine=engine, config=config,
                      oracle_labels=oracle_labels, store=store,
                      mmap_dir=mmap_dir)
        updater._remember_run(run, graph)
        return updater

    # -- classification --------------------------------------------------------

    def classify(self, edge: int, new_weight: float) -> str:
        """Triage one update: ``rejected`` / ``patched`` / ``rebuilt``."""
        oracle = self.oracle
        if not oracle.survives(edge, new_weight):
            return "rejected"
        old = float(oracle.w[edge])
        if new_weight == old:
            return "patched"  # no-op
        if oracle.tree_mask[edge]:
            if not float("-inf") < oracle.threshold[edge] < float("inf"):
                return "patched"  # bridge: nothing covers it
            return "rebuilt"
        if new_weight >= old and not oracle.covering_edges()[edge]:
            return "patched"
        return "rebuilt"

    # -- application (synchronous; the server serialises + offloads it) --------

    def apply(self, shards: List[OracleShard], edge: int,
              new_weight: float) -> UpdateReport:
        t0 = time.perf_counter()
        oracle = self.oracle
        edge = int(edge)
        new_weight = float(new_weight)
        if not 0 <= edge < self.graph.m:
            # wire input: a structured bad_request, never an IndexError
            # escaping into the connection handler (negative ids would
            # otherwise silently wrap into the wrong edge)
            raise ServiceError(
                f"edge id {edge} out of range [0, {self.graph.m})",
                kind="bad_request",
            )
        old = float(self.graph.w[edge])
        action = self.classify(edge, new_weight)
        report = UpdateReport(
            instance=self.name, edge=edge, old_weight=old,
            new_weight=new_weight, action=action,
            survives=action != "rejected",
            threshold=float(oracle.threshold[edge]),
            generation=self.generation,
        )
        if action == "rejected":
            self.metrics.rejected += 1
        elif action == "patched":
            self.graph.w[edge] = new_weight
            patched = set()
            owner = shards[route([s.spec for s in shards], edge)]
            owner.reprice(edge, new_weight)
            patched.add(id(owner.oracle))
            # mmap mode gives every shard (and the updater) its own
            # oracle object over shared pages; patch each one once
            for other in shards:
                if id(other.oracle) not in patched:
                    other.oracle.reprice(edge, new_weight)
                    patched.add(id(other.oracle))
            if id(self.oracle) not in patched:
                self.oracle.reprice(edge, new_weight)
            self.metrics.applied_preserving += 1
            # the retained artifact set now lags the live weights; the
            # next batch takes one full rebuild before splicing resumes
            self._splice_fp = None
        else:
            self.graph.w[edge] = new_weight
            result, run = run_sensitivity(
                self.graph, engine=self.engine, config=self.config,
                oracle_labels=self.oracle_labels, store=self.store,
            )
            self.oracle = SensitivityOracle.from_result(self.graph, result)
            self.generation += 1
            self._remember_run(run, self.graph)
            for shard, orc in zip(shards, self.shard_oracles(len(shards))):
                shard.swap(orc, self.generation)
            report.generation = self.generation
            report.snapshot_path = self.snapshot_path
            report.snapshot_digest = self.snapshot_digest
            report.executed = list(run.executed_stages)
            report.cached = list(run.cached_stages)
            report.stages_executed = len(run.executed_stages)
            report.stages_cached = len(run.cached_stages)
            report.verification_reruns = sum(
                1 for s in run.executed_stages
                if s in VERIFICATION_STAGE_NAMES
            )
            self.metrics.applied_rebuild += 1
            self.metrics.stages_executed += report.stages_executed
            self.metrics.stages_cached += report.stages_cached
        report.wall_s = time.perf_counter() - t0
        if action == "rebuilt":
            self.metrics.rebuild_wall_s += report.wall_s
        return report

    # -- structural batches (the streaming write path) --------------------------

    def apply_batch(self, ops: Sequence[Dict]) -> "BatchReport":
        """Apply one coalesced batch of structural ops; one generation swap.

        The batch is classified by what it actually did to the candidate
        tree (:func:`~repro.graph.mutations.apply_ops` repairs the MST
        exactly): a *non-tree-only* batch takes the scoped path — the
        per-edge stages (lca, adgraph, labels, pathmax, decide) are
        *spliced* from the previous generation's artifacts, with only
        the touched rows recomputed, and the pipeline then replays them
        from the primed store and re-runs just the sensitivity
        aggregation. A *tree-affecting* batch re-runs honestly through
        whatever the narrowed fingerprint scopes still cache. Either
        way the resulting oracle is rebuilt through
        :meth:`SensitivityOracle.from_result`, whose validation
        cross-checks the pipeline's ``mc`` against the independent
        binary-lifting min-cover kernel — a splice bug fails loudly
        instead of shipping.
        """
        t0 = time.perf_counter()
        received = list(ops)
        coalesced = coalesce_ops(received)
        old_graph = self.graph
        new_graph, effect = apply_ops(old_graph, coalesced)
        report = BatchReport(
            instance=self.name, action="rejected",
            n_ops=len(received), n_coalesced=len(coalesced),
            n_applied=effect.applied, tree_affected=effect.tree_affected,
            generation=self.generation, m=old_graph.m,
            m_tree=old_graph.m_tree, counts=dict(effect.counts),
            rejected_ops=[[int(i), r] for i, r in effect.rejected],
        )
        if effect.applied == 0:
            self.metrics.rejected += 1
            report.wall_s = time.perf_counter() - t0
            return report
        spliced = 0
        if not effect.tree_affected:
            spliced = self._prime_scoped(old_graph, new_graph, effect)
        result, run = run_sensitivity(
            new_graph, engine=self.engine, config=self.config,
            oracle_labels=self.oracle_labels, store=self.store,
        )
        self.oracle = SensitivityOracle.from_result(new_graph, result)
        self.graph = new_graph
        self.generation += 1
        self._remember_run(run, new_graph)
        report.action = "rebuilt"
        report.scoped = spliced > 0
        report.generation = self.generation
        report.m = new_graph.m
        report.m_tree = new_graph.m_tree
        report.added_ids = [int(i) for i in effect.added_ids]
        report.removed_ids = [
            int(i) for i in np.flatnonzero(effect.old_to_new < 0)
        ]
        report.stages_spliced = spliced
        report.stages_executed = len(run.executed_stages)
        report.stages_cached = len(run.cached_stages)
        report.executed = list(run.executed_stages)
        report.cached = list(run.cached_stages)
        self.metrics.applied_rebuild += 1
        self.metrics.stages_executed += report.stages_executed
        self.metrics.stages_cached += report.stages_cached
        report.wall_s = time.perf_counter() - t0
        self.metrics.rebuild_wall_s += report.wall_s
        return report

    def _prime_scoped(self, old_graph: WeightedGraph,
                      new_graph: WeightedGraph, effect: BatchEffect) -> int:
        """Splice per-edge artifacts for a non-tree-only batch.

        Returns the number of stages primed into the store under the
        new graph's keys (0 when the preconditions fail and the caller
        must fall back to an ordinary cached rebuild).

        Soundness: the candidate tree is unchanged, so the hierarchy,
        DFS labels and diameter estimate — everything the per-edge
        stages consult besides the non-tree rows themselves — are
        exactly the previous generation's. Each non-tree edge's lca /
        half-edges / labels / path maxima are functions of that shared
        state and the edge's own row, so surviving rows keep their old
        values (eids remapped) and only touched rows are recomputed.
        Downstream consumers reduce over half-edges with min/max/count
        — order-insensitive even in floats — so the reordered splice
        leaves the final oracle bit-identical (pinned by tests and E17).
        """
        run = self.last_run
        if run is None or self._splice_fp is None:
            return 0
        if graph_fingerprint(old_graph, "full") != self._splice_fp:
            return 0
        needed = ("clustering", "dfs", "diameter", "lca", "adgraph",
                  "labels", "pathmax", "decide")
        if any(k not in run.artifacts for k in needed):
            return 0

        o_nt = np.flatnonzero(~old_graph.tree_mask)
        n_nt = np.flatnonzero(~new_graph.tree_mask)
        q0, q1 = len(o_nt), len(n_nt)
        npos_of_input = np.full(new_graph.m, -1, dtype=np.int64)
        npos_of_input[n_nt] = np.arange(q1, dtype=np.int64)
        mapped = effect.old_to_new[o_nt]
        opos2npos = np.where(mapped >= 0,
                             npos_of_input[np.clip(mapped, 0, None)], -1)
        kept = opos2npos >= 0
        same_w = np.zeros(q0, dtype=bool)
        same_w[kept] = (new_graph.w[np.clip(mapped, 0, None)][kept]
                        == old_graph.w[o_nt][kept])
        kept &= same_w
        covered = np.zeros(q1, dtype=bool)
        covered[opos2npos[kept]] = True
        delta = np.flatnonzero(~covered)

        nnu = new_graph.u[n_nt]
        nnv = new_graph.v[n_nt]
        nnw = new_graph.w[n_nt]
        hier = run.artifacts["clustering"].hierarchy
        dfs = run.artifacts["dfs"]
        d_hat = run.artifacts["diameter"].d_hat
        old_lca = run.artifacts["lca"].lca
        old_ad = run.artifacts["adgraph"]
        old_lb = run.artifacts["labels"]
        old_pm = run.artifacts["pathmax"]
        old_dec = run.artifacts["decide"]

        rt2 = _make_rt(new_graph, self.engine, self.config, None)
        params = PipelineParams.capture(
            rt2, root=0, oracle_labels=self.oracle_labels,
            engine=self.engine,
        )
        keys = {e.name: e.key
                for e in sensitivity_pipeline().plan(new_graph, params)}

        def staged(name, build):
            mark = rt2.tracker.mark()
            with rt2.phase("core"):
                with rt2.phase(name):
                    art = build()
            rt2.flush_plan()
            art.cost = rt2.tracker.delta_since(mark)
            self.store.put(keys[name], art)
            return art

        kept_npos = opos2npos[kept]

        def build_lca():
            lca_new = np.empty(q1, dtype=np.int64)
            lca_new[kept_npos] = old_lca[kept]
            if len(delta):
                lca_new[delta] = all_edges_lca(
                    rt2, hier, dfs.low, dfs.high,
                    nnu[delta], nnv[delta], d_hat,
                )
            return LcaArtifact(lca=lca_new)

        lca_art = staged("lca", build_lca)

        keep_half = kept[old_ad.eid]

        def build_adgraph():
            if len(delta):
                halves = split_at_lca(rt2, nnu[delta], nnv[delta],
                                      nnw[delta], lca_art.lca[delta])
                d_eid = delta[halves.eid]
                d_lo, d_hi, d_w = halves.lo, halves.hi, halves.w
            else:
                d_eid = np.empty(0, dtype=np.int64)
                d_lo = d_hi = d_eid
                d_w = np.empty(0, dtype=np.float64)
            return AdgraphArtifact(
                eid=np.concatenate([opos2npos[old_ad.eid[keep_half]], d_eid]),
                lo=np.concatenate([old_ad.lo[keep_half], d_lo]),
                hi=np.concatenate([old_ad.hi[keep_half], d_hi]),
                w=np.concatenate([old_ad.w[keep_half], d_w]),
            )

        ad_art = staged("adgraph", build_adgraph)
        # view of just the delta halves (they sit after the kept rows)
        n_keep_half = int(keep_half.sum())
        d_half = HalfEdges(eid=ad_art.eid[n_keep_half:],
                           lo=ad_art.lo[n_keep_half:],
                           hi=ad_art.hi[n_keep_half:],
                           w=ad_art.w[n_keep_half:])

        def build_labels():
            if len(d_half):
                lab = run_weight_labeling(rt2, hier, d_half,
                                          dfs.low, dfs.high)
                arrs = {
                    f: np.concatenate([getattr(old_lb, f)[keep_half],
                                       getattr(lab, f)])
                    for f in ("omega_lo", "omega_hi", "cl_lo", "cl_hi",
                              "internal")
                }
            else:
                arrs = {f: getattr(old_lb, f)[keep_half]
                        for f in ("omega_lo", "omega_hi", "cl_lo", "cl_hi",
                                  "internal")}
            # the cluster-state table depends only on the (unchanged)
            # hierarchy, so the previous generation's is exact
            return LabelsArtifact(clusters=old_lb.clusters, **arrs)

        lb_art = staged("labels", build_labels)

        def build_pathmax():
            if len(d_half):
                # the label view restricted to the delta rows
                d_labeled = LabeledHalfEdges(
                    half=d_half,
                    omega_lo=lb_art.omega_lo[n_keep_half:],
                    omega_hi=lb_art.omega_hi[n_keep_half:],
                    cl_lo=lb_art.cl_lo[n_keep_half:],
                    cl_hi=lb_art.cl_hi[n_keep_half:],
                    internal=lb_art.internal[n_keep_half:],
                    clusters=lb_art.clusters,
                )
                d_pm = evaluate_pathmax(rt2, hier, d_labeled)
            else:
                d_pm = np.empty(0, dtype=np.float64)
            return PathmaxArtifact(
                pm_half=np.concatenate([old_pm.pm_half[keep_half], d_pm])
            )

        pm_art = staged("pathmax", build_pathmax)

        def build_decide():
            pathmax = np.empty(q1, dtype=np.float64)
            pathmax[kept_npos] = old_dec.pathmax[kept]
            if len(delta):
                d_pm_half = pm_art.pm_half[n_keep_half:]
                if len(d_half):
                    per = rt2.reduce_by_key(
                        Table(eid=d_half.eid, pm=d_pm_half), ("eid",),
                        {"pm": ("pm", "max")},
                    )
                    got = rt2.lookup(
                        Table(eid=delta.astype(np.int64)), ("eid",),
                        per, ("eid",), {"pm": "pm"},
                        default={"pm": -np.inf},
                    )
                    pathmax[delta] = got.col("pm")
                else:
                    pathmax[delta] = -np.inf
            bad = nnw < pathmax
            n_bad = int(rt2.scalar(Table(b=bad.astype(np.int64)), "b",
                                   "sum"))
            return DecideArtifact(pathmax=pathmax, bad=bad, n_bad=n_bad)

        staged("decide", build_decide)
        return len(SPLICED_STAGE_NAMES)


@dataclass
class BatchReport:
    """Flat, JSON-friendly outcome of one structural batch."""

    instance: str
    action: str                     # "rejected" | "rebuilt"
    n_ops: int = 0                  # ops received (pre-coalesce)
    n_coalesced: int = 0            # ops after coalescing
    n_applied: int = 0
    tree_affected: bool = False
    scoped: bool = False            # splice path used
    generation: int = 0
    m: int = 0
    m_tree: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    rejected_ops: List = field(default_factory=list)
    added_ids: List[int] = field(default_factory=list)
    removed_ids: List[int] = field(default_factory=list)
    stages_spliced: int = 0
    stages_executed: int = 0
    stages_cached: int = 0
    executed: List[str] = field(default_factory=list)
    cached: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    snapshot_path: Optional[str] = None
    snapshot_digest: Optional[str] = None

    def to_dict(self) -> Dict:
        return asdict(self)
