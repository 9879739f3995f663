"""Composing stages into cacheable pipelines with warm-start.

A :class:`Pipeline` executes a stage tuple in topological order on one
runtime. For every stage it derives a content-addressed cache key
(graph fingerprint × engine/runtime config × the stage's declared knobs
× the keys of its dependencies — a Merkle chain), consults the optional
:class:`~repro.pipeline.artifacts.ArtifactStore`, and either *replays*
the cached artifact's recorded :class:`~repro.mpc.cost.CostDelta` (so a
warm run's :class:`~repro.mpc.cost.CostReport` is bit-identical to a
cold one) or executes the stage and records its delta.

``run_verification`` / ``run_sensitivity`` assemble the classic result
objects; ``verify_mst`` and ``mst_sensitivity`` in :mod:`repro.core`
are thin wrappers over them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.results import SensitivityResult, VerificationResult
from ..core.verification import distributed_hint
from ..errors import ValidationError
from ..mpc import MPCConfig, make_runtime
from ..mpc.runtime import Runtime
from .artifacts import Artifact, ArtifactStore, graph_fingerprint
from .stages import (
    SENSITIVITY_STAGES,
    Stage,
    StageContext,
    VERIFICATION_STAGES,
)

__all__ = [
    "PipelineParams",
    "Pipeline",
    "PipelineRun",
    "graph_fingerprints",
    "verification_pipeline",
    "sensitivity_pipeline",
    "run_verification",
    "run_sensitivity",
]

#: Runtime/engine facts folded into *every* stage key: they change what
#: a stage charges (and, for the distributed engine, how it transports).
#: The physical-only ``planner`` knob is deliberately absent — it
#: cannot change a stage's outputs or its CostReport, so cached results
#: stay valid across it.
GLOBAL_KEY_FIELDS = (
    "engine", "cost_mode", "delta", "seed",
    "capacity_constant", "min_machine_words", "global_slack",
)


@dataclass(frozen=True)
class PipelineParams:
    """Every knob that can change a stage's output or its charged cost."""

    engine: str = "local"
    root: int = 0
    oracle_labels: bool = False
    coin_bias: float = 0.5
    reduction_exponent: float = 1.0
    # engine/runtime configuration (copied from the runtime's MPCConfig)
    cost_mode: str = "unit"
    delta: float = 0.35
    seed: int = 0x5EED
    capacity_constant: float = 4.0
    min_machine_words: int = 256
    global_slack: float = 4.0

    @classmethod
    def capture(cls, rt: Runtime, *, root: int = 0, oracle_labels: bool = False,
                coin_bias: float = 0.5, reduction_exponent: float = 1.0,
                engine: Optional[str] = None) -> "PipelineParams":
        """Derive params from a live runtime (its config is authoritative)."""
        cfg = rt.config
        if engine is None:
            engine = type(rt).__name__.removesuffix("Runtime").lower()
        return cls(
            engine=engine, root=root, oracle_labels=oracle_labels,
            coin_bias=coin_bias, reduction_exponent=reduction_exponent,
            cost_mode=cfg.cost_mode, delta=cfg.delta, seed=cfg.seed,
            capacity_constant=cfg.capacity_constant,
            min_machine_words=cfg.min_machine_words,
            global_slack=cfg.global_slack,
        )


def graph_fingerprints(graph) -> Dict[str, str]:
    """Every scope fingerprint of one instance, computed once.

    Stages are keyed by the scope they declare (``Stage.weight_scope``),
    so a change re-fingerprints just the stages whose scope sees it:
    re-pricing a non-tree edge leaves every tree-scoped key valid and
    the whole validate→lca prefix replays from cache, and — because
    subgraph scopes hash edge *subsequences* — a structural batch that
    only adds/removes non-tree edges still replays the tree-side
    substrate (rooting, dfs, diameter, clustering). This is the lever
    the service layer's incremental rebuild and the streaming
    subsystem's scoped replays stand on.
    """
    from .artifacts import FINGERPRINT_SCOPES

    return {s: graph_fingerprint(graph, s) for s in FINGERPRINT_SCOPES}


def stage_key(stage: Stage, graph_fps: Dict[str, str],
              params: PipelineParams, dep_keys: Dict[str, str]) -> str:
    """Content address of one stage invocation (Merkle-chained).

    ``graph_fps`` maps fingerprint scope → digest (see
    :func:`graph_fingerprints`); the stage picks its declared scope.
    Weight dependence that reaches a stage through an upstream artifact
    is covered by the chained dep keys, so narrow scopes stay sound.
    """
    payload = {
        "stage": stage.name,
        "graph": graph_fps[stage.weight_scope],
        "globals": {k: getattr(params, k) for k in GLOBAL_KEY_FIELDS},
        "params": {k: getattr(params, k) for k in stage.params},
        "deps": [dep_keys[d] for d in stage.deps],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    return f"{stage.name}-{digest[:20]}"


@dataclass
class PipelineRun:
    """Outcome of one :meth:`Pipeline.run`: artifacts, keys, cache trace."""

    artifacts: Dict[str, Artifact] = field(default_factory=dict)
    keys: Dict[str, str] = field(default_factory=dict)
    failed_stage: Optional[str] = None
    failure_reason: Optional[str] = None
    cached_stages: List[str] = field(default_factory=list)
    executed_stages: List[str] = field(default_factory=list)
    rt: Optional[Runtime] = None

    @property
    def ok(self) -> bool:
        return self.failed_stage is None


@dataclass(frozen=True)
class PlanEntry:
    """One row of :meth:`Pipeline.plan` — what would run, from where."""

    name: str
    group: str
    deps: Tuple[str, ...]
    params: Tuple[str, ...]
    key: Optional[str] = None
    cached: Optional[bool] = None


class Pipeline:
    """An explicit DAG of stages executed (or replayed) in topo order."""

    def __init__(self, stages: Tuple[Stage, ...]):
        self.stages = tuple(stages)
        names = set()
        for s in self.stages:
            missing = [d for d in s.deps if d not in names]
            if missing:
                raise ValidationError(
                    f"stage {s.name!r} depends on {missing} before they run"
                )
            names.add(s.name)

    def stage_names(self) -> List[str]:
        return [s.name for s in self.stages]

    def plan(self, graph=None, params: Optional[PipelineParams] = None,
             store: Optional[ArtifactStore] = None) -> List[PlanEntry]:
        """The stage schedule; with a graph, also keys and cache state."""
        entries: List[PlanEntry] = []
        keys: Dict[str, str] = {}
        gfp = graph_fingerprints(graph) if graph is not None else None
        for s in self.stages:
            key = cached = None
            if gfp is not None:
                key = stage_key(s, gfp, params or PipelineParams(), keys)
                keys[s.name] = key
                if store is not None:
                    cached = store.contains(key)
            entries.append(PlanEntry(
                name=s.name, group=s.group, deps=s.deps, params=s.params,
                key=key, cached=cached,
            ))
        return entries

    def run(self, graph, params: PipelineParams, rt: Runtime,
            store: Optional[ArtifactStore] = None,
            resume: Optional[PipelineRun] = None) -> PipelineRun:
        """Execute on ``rt``; cached stages replay their charged rounds.

        ``resume`` continues a run made earlier *on the same runtime*
        (e.g. sensitivity after verification): its stages are adopted
        as-is, without re-charging — their rounds are already on ``rt``.
        """
        out = PipelineRun(rt=rt)
        if resume is not None:
            out.artifacts.update(resume.artifacts)
            out.keys.update(resume.keys)
            out.cached_stages.extend(resume.cached_stages)
            out.executed_stages.extend(resume.executed_stages)
        ctx = StageContext(graph, rt, params, out.artifacts)
        gfp = graph_fingerprints(graph)
        for stage in self.stages:
            if stage.name in out.artifacts:
                continue
            key = stage_key(stage, gfp, params, out.keys)
            out.keys[stage.name] = key
            artifact = store.get(key) if store is not None else None
            if artifact is not None:
                rt.tracker.replay(artifact.cost)
                out.cached_stages.append(stage.name)
            else:
                mark = rt.tracker.mark()
                artifact = stage.run(ctx)
                # stage boundaries are plan flush points: deferred nodes
                # recorded by this stage execute before its cost delta is
                # cut, so the replayable CostDelta (charged at logical
                # record time either way) and the artifact's arrays are
                # both complete here — warm replays stay bit-identical
                rt.flush_plan()
                artifact.cost = rt.tracker.delta_since(mark)
                if store is not None:
                    store.put(key, artifact)
                out.executed_stages.append(stage.name)
            out.artifacts[stage.name] = artifact
            reason = stage.failure(artifact)
            if reason is not None:
                out.failed_stage = stage.name
                out.failure_reason = reason
                return out
        return out


_VERIFICATION = Pipeline(VERIFICATION_STAGES)
_SENSITIVITY = Pipeline(SENSITIVITY_STAGES)


def verification_pipeline() -> Pipeline:
    """The Theorem 3.1 stage DAG (validate → … → decide)."""
    return _VERIFICATION


def sensitivity_pipeline() -> Pipeline:
    """The Theorem 4.1 stage DAG (verification + the four sens stages)."""
    return _SENSITIVITY


# -- result assembly ----------------------------------------------------------------


def _make_rt(graph, engine: str, config: Optional[MPCConfig],
             runtime: Optional[Runtime]) -> Runtime:
    if runtime is not None:
        return runtime
    return make_runtime(engine, config,
                        total_words_hint=distributed_hint(graph))


def assemble_verification(graph, rt: Runtime, run: PipelineRun,
                          nontree_index: np.ndarray) -> VerificationResult:
    """Fold a pipeline run into the classic result object."""
    if not run.ok:
        return VerificationResult(
            is_mst=False, reason=run.failure_reason, n_violations=0,
            violating_edges=np.empty(0, dtype=np.int64),
            nontree_index=nontree_index, pathmax=None,
            diameter_estimate=0, rounds=rt.rounds, report=rt.report(),
            cluster_counts=[], failed_stage=run.failed_stage,
        )
    decide = run.artifacts["decide"]
    hierarchy = run.artifacts["clustering"].hierarchy
    return VerificationResult(
        is_mst=(decide.n_bad == 0),
        reason="ok" if decide.n_bad == 0 else "cheaper-nontree-edge",
        n_violations=decide.n_bad,
        violating_edges=nontree_index[decide.bad],
        nontree_index=nontree_index,
        pathmax=decide.pathmax,
        diameter_estimate=run.artifacts["diameter"].d_hat,
        rounds=rt.rounds,
        report=rt.report(),
        cluster_counts=list(hierarchy.counts),
    )


def assemble_sensitivity(graph, rt: Runtime, run: PipelineRun,
                         ver: VerificationResult) -> SensitivityResult:
    """Per-input-edge sensitivities from the finalize artifact (free)."""
    parent = run.artifacts["rooting"].parent
    mc = run.artifacts["sens-finalize"].mc
    tree_index = np.flatnonzero(graph.tree_mask)
    nontree_index = ver.nontree_index
    tu = graph.u[tree_index]
    tv = graph.v[tree_index]
    tw = graph.w[tree_index]
    child = np.where(parent[tu] == tv, tu, tv)
    sens = np.empty(graph.m, dtype=np.float64)
    sens[tree_index] = mc[child] - tw
    sens[nontree_index] = graph.w[nontree_index] - ver.pathmax
    return SensitivityResult(
        sensitivity=sens,
        mc=mc,
        tree_index=tree_index,
        nontree_index=nontree_index,
        diameter_estimate=ver.diameter_estimate,
        rounds=rt.rounds,
        report=rt.report(),
        notes_peak=run.artifacts["sens-unwind"].notes_peak,
        pathmax=ver.pathmax,
        parent=parent,
        root=_root_of(run),
    )


def _root_of(run: PipelineRun) -> int:
    # the rooting artifact satisfies parent[root] == root
    parent = run.artifacts["rooting"].parent
    return int(np.flatnonzero(parent == np.arange(len(parent)))[0])


# -- public entry points ------------------------------------------------------------


def run_verification(
    graph,
    engine: str = "local",
    config: Optional[MPCConfig] = None,
    root: int = 0,
    oracle_labels: bool = False,
    runtime: Optional[Runtime] = None,
    reduction_exponent: float = 1.0,
    coin_bias: float = 0.5,
    store: Optional[ArtifactStore] = None,
) -> Tuple[VerificationResult, PipelineRun]:
    """Run Theorem 3.1 as a staged pipeline; returns (result, run)."""
    rt = _make_rt(graph, engine, config, runtime)
    params = PipelineParams.capture(
        rt, root=root, oracle_labels=oracle_labels, coin_bias=coin_bias,
        reduction_exponent=reduction_exponent,
        engine=engine if runtime is None else None,
    )
    run = _VERIFICATION.run(graph, params, rt, store=store)
    nontree_index = np.flatnonzero(~graph.tree_mask)
    return assemble_verification(graph, rt, run, nontree_index), run


def run_sensitivity(
    graph,
    engine: str = "local",
    config: Optional[MPCConfig] = None,
    root: int = 0,
    oracle_labels: bool = False,
    runtime: Optional[Runtime] = None,
    require_mst: bool = True,
    reduction_exponent: float = 1.0,
    coin_bias: float = 0.5,
    store: Optional[ArtifactStore] = None,
) -> Tuple[SensitivityResult, PipelineRun]:
    """Run Theorem 4.1 as a staged pipeline; returns (result, run).

    Raises :class:`~repro.errors.ValidationError` if the flagged tree is
    not a spanning tree, or (``require_mst=True``) not an MST.
    """
    rt = _make_rt(graph, engine, config, runtime)
    params = PipelineParams.capture(
        rt, root=root, oracle_labels=oracle_labels, coin_bias=coin_bias,
        reduction_exponent=reduction_exponent,
        engine=engine if runtime is None else None,
    )
    run = _VERIFICATION.run(graph, params, rt, store=store)
    nontree_index = np.flatnonzero(~graph.tree_mask)
    ver = assemble_verification(graph, rt, run, nontree_index)
    if ver.failed_stage is not None:
        raise ValidationError(
            f"input tree is not a spanning tree ({ver.reason})"
        )
    if require_mst and not ver.is_mst:
        raise ValidationError(
            f"sensitivity is defined for MSTs; verification failed "
            f"({ver.n_violations} violating edges)"
        )
    run = _SENSITIVITY.run(graph, params, rt, store=store, resume=run)
    return assemble_sensitivity(graph, rt, run, ver), run
