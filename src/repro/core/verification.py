"""MST verification in ``O(log D_T)`` rounds (Theorem 3.1).

Pipeline (now an explicit stage DAG in :mod:`repro.pipeline`)::

    validate (Remark 2.2)  ──► rooting ──► DFS labels (Lemma 2.14)
        ──► diameter estimate (Remark 2.3)
        ──► hierarchical clustering (Lemma 2.8 / Corollary 3.6)
        ──► all-edges LCA (Theorem 2.15) + edge split (Corollary 2.19)
        ──► weight-preserving labelling replay (Lemma 3.5)
        ──► cluster-tree root paths + prefix maxima (Lemma 3.7)
        ──► per-edge path maximum (Observation 3.3) and verdict

``T`` is an MST iff no non-tree edge weighs strictly less than the
maximum weight on its tree path (cycle rule, ties allowed). The phases
charged under ``substrate/`` implement cited prior work (with the
substitutions listed in DESIGN.md); the ``core/`` phases are this
paper's contribution and are individually ``O(log D_T)`` rounds.

:func:`verify_mst` is a thin wrapper over
:func:`repro.pipeline.run_verification`; pass an
:class:`~repro.pipeline.ArtifactStore` via ``store=`` to warm-start
from (and contribute to) a stage cache.
"""

from __future__ import annotations

from typing import Optional

from ..graph.graph import WeightedGraph
from ..mpc import MPCConfig
from ..mpc.runtime import Runtime
from .results import VerificationResult

__all__ = ["verify_mst", "distributed_hint"]


def distributed_hint(graph: WeightedGraph) -> int:
    """Global-words hint for sizing a distributed deployment."""
    return 48 * graph.total_words() + 8192


def verify_mst(
    graph: WeightedGraph,
    engine: str = "local",
    config: Optional[MPCConfig] = None,
    root: int = 0,
    oracle_labels: bool = False,
    runtime: Optional[Runtime] = None,
    reduction_exponent: float = 1.0,
    coin_bias: float = 0.5,
    store=None,
) -> VerificationResult:
    """Decide whether the flagged tree of ``graph`` is an MST.

    Parameters
    ----------
    engine, config, runtime:
        Which MPC engine to run on (or a pre-built runtime).
    oracle_labels:
        Treat rooting + DFS labelling as the paper's cited black boxes
        (computed out-of-band, 0 rounds) instead of the Euler-tour
        substitute — used by benchmarks to show the scaling the paper
        would obtain end to end (DESIGN.md substitution 3).
    reduction_exponent, coin_bias:
        Clustering knobs for the E10 ablation.
    store:
        Optional :class:`~repro.pipeline.ArtifactStore`; cached stages
        are replayed (bit-identical results *and* charged rounds) and
        newly computed ones contributed back.
    """
    from ..pipeline import run_verification

    result, _run = run_verification(
        graph, engine=engine, config=config, root=root,
        oracle_labels=oracle_labels, runtime=runtime,
        reduction_exponent=reduction_exponent, coin_bias=coin_bias,
        store=store,
    )
    return result
