"""O(1) weight-update query oracle over a precomputed sensitivity result.

The paper's Theorem 4.1 output is exactly the precomputation needed to
answer "does the flagged MST survive if edge ``e``'s weight changes to
``x``?" without rerunning anything: after the one-time ``O(log D_T)``
-round MPC pipeline, every query is a constant number of comparisons
against a per-edge threshold.

* Tree edge ``e``: the MST survives iff ``x <= mc(e)`` — the minimum
  weight of a non-tree edge covering ``e`` (decreasing a tree edge's
  weight can only slacken the cycle rule; ties keep ``T`` minimal).
  The *replacement edge* is the non-tree edge attaining ``mc(e)``: the
  edge that swaps in if ``e`` is priced past its threshold.
* Non-tree edge ``e``: the MST survives iff ``x >= pathmax(e)`` — the
  maximum tree weight on ``e``'s cycle (Observation 4.2); below that
  *entry threshold* the edge forces its way into every MST.

The oracle is built from a :class:`~repro.core.results.SensitivityResult`
plus the input graph; thresholds are taken verbatim from the pipeline
(``mc``/``pathmax`` are exact copies of input weights, so tie queries
compare exactly). Replacement-edge identities, which the round-efficient
pipeline deliberately does not materialise, are recovered at build time
by one vectorised binary-lifting min-cover pass over ``O(log D_T)``
levels (:meth:`~repro.graph.tree.RootedTree.min_cover_to_ancestor`)
and cross-checked against the pipeline's ``mc`` values. It matches the
sequential Tarjan-style ascent :func:`repro.baselines.covering_ascent`
bit for bit, ties included.

Oracles pickle/save to a single ``.npz`` and rehydrate anywhere — batch
workers persist them so a service process can answer millions of
queries without ever touching the MPC substrate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import ValidationError
from .graph.graph import WeightedGraph
from .graph.tree import RootedTree
from .serialize import load_npz, save_npz

__all__ = ["SensitivityOracle", "build_oracle"]


def _covering_ascent(tree: RootedTree, nu, nv, nw, ids):
    """Min-cover weight and covering-edge id per vertex (binary lifting).

    The DSU ascent (:func:`repro.baselines.covering_ascent`) stamps each
    tree edge with the first non-tree edge, in stable ascending-weight
    order, whose cycle contains it. That is the covering edge of lowest
    rank, ties included, so one
    :meth:`~repro.graph.tree.RootedTree.min_cover_to_ancestor` pass over
    the ranks gives the same ``(mc, cover)`` bit for bit: ``cover[v]``
    is ``ids[i]`` of the edge covering ``(v, parent(v))`` at weight
    ``mc[v]`` (-1 / inf where nothing covers it).
    """
    mc = np.full(tree.n, np.inf, dtype=np.float64)
    cover = np.full(tree.n, -1, dtype=np.int64)
    if not len(nw):
        return mc, cover
    order = np.argsort(nw, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    top = tree.lca(nu, nv)
    best = tree.min_cover_to_ancestor(np.concatenate([nu, nv]),
                                      np.concatenate([top, top]),
                                      np.concatenate([rank, rank]))
    hit = np.flatnonzero(best < len(order))
    first = order[best[hit]]
    mc[hit] = nw[first]
    cover[hit] = np.asarray(ids, dtype=np.int64)[first]
    return mc, cover


class SensitivityOracle:
    """Constant-time ``survives``/``replacement`` queries for one instance.

    Build with :meth:`from_result` (or the :func:`build_oracle`
    convenience), then query point-wise or in NumPy bulk. All state is
    six flat arrays; :meth:`save`/:meth:`load` move it between machines.
    """

    def __init__(self, *, u, v, w, tree_mask, sensitivity, threshold,
                 cover_edge, parent, root: int, precompute_rounds: int = 0,
                 diameter_estimate: int = 0):
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.w = np.asarray(w, dtype=np.float64)
        self.tree_mask = np.asarray(tree_mask, dtype=bool)
        self.sens = np.asarray(sensitivity, dtype=np.float64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.cover_edge = np.asarray(cover_edge, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.root = int(root)
        self.precompute_rounds = int(precompute_rounds)
        self.diameter_estimate = int(diameter_estimate)
        self._cover_mask: Optional[np.ndarray] = None
        m = len(self.u)
        if not (len(self.v) == len(self.w) == len(self.tree_mask)
                == len(self.sens) == len(self.threshold)
                == len(self.cover_edge) == m):
            raise ValidationError("oracle arrays must have equal length")

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_result(cls, graph: WeightedGraph, result,
                    validate: bool = True) -> "SensitivityOracle":
        """Assemble the oracle from a pipeline result and its input graph.

        ``result`` may come straight from
        :func:`~repro.core.sensitivity.mst_sensitivity` or be rehydrated
        with :meth:`~repro.core.results.SensitivityResult.load`. With
        ``validate=True`` the build-time min-cover kernel is
        cross-checked against the pipeline's ``mc`` array (a free
        differential test: two independent algorithms, one answer).
        """
        if result.parent is not None and len(result.parent) == graph.n:
            parent = np.asarray(result.parent, dtype=np.int64)
            root = int(result.root)
        else:  # older snapshot without the rooting: rebuild it
            root = int(result.root)
            tu, tv, tw = graph.tree_edges()
            rooted = RootedTree.from_edges(graph.n, tu, tv, tw, root=root)
            parent = rooted.parent

        tree_index = np.asarray(result.tree_index, dtype=np.int64)
        nontree_index = np.asarray(result.nontree_index, dtype=np.int64)
        # per-vertex weight of the parent edge, and the child endpoint of
        # every tree edge (the vertex whose parent edge it is)
        tu, tv, tw = graph.u[tree_index], graph.v[tree_index], graph.w[tree_index]
        child = np.where(parent[tu] == tv, tu, tv)
        weight = np.zeros(graph.n, dtype=np.float64)
        weight[child] = tw
        tree = RootedTree(parent=parent.copy(), root=root, weight=weight)

        nu, nv, nw = (graph.u[nontree_index], graph.v[nontree_index],
                      graph.w[nontree_index])
        mc, cover = _covering_ascent(tree, nu, nv, nw, nontree_index)
        if validate and not np.array_equal(mc, result.mc):
            raise ValidationError(
                "min-cover kernel disagrees with the pipeline's mc array; "
                "result does not belong to this graph"
            )

        threshold = np.empty(graph.m, dtype=np.float64)
        threshold[tree_index] = mc[child]
        if result.pathmax is not None:
            threshold[nontree_index] = result.pathmax
        else:  # derived fallback (exact pathmax preferred: no re-rounding)
            threshold[nontree_index] = nw - result.sensitivity[nontree_index]

        cover_edge = np.full(graph.m, -1, dtype=np.int64)
        cover_edge[tree_index] = cover[child]
        return cls(
            u=graph.u, v=graph.v, w=graph.w, tree_mask=graph.tree_mask,
            sensitivity=result.sensitivity, threshold=threshold,
            cover_edge=cover_edge, parent=parent, root=root,
            precompute_rounds=result.rounds,
            diameter_estimate=result.diameter_estimate,
        )

    @classmethod
    def from_store(cls, graph: WeightedGraph, store, engine: str = "local",
                   config=None, **kw) -> "SensitivityOracle":
        """Build by warm-starting the pipeline from an artifact store.

        ``store`` is a :class:`~repro.pipeline.ArtifactStore` (typically
        the one a batch run populated): every stage already cached for
        this graph/engine/knob combination is replayed instead of
        re-executed, so building an oracle after a verification run only
        pays for the four sensitivity stages.
        """
        from .core.sensitivity import mst_sensitivity

        result = mst_sensitivity(graph, engine=engine, config=config,
                                 store=store, **kw)
        return cls.from_result(graph, result)

    # -- point queries (O(1) each) ---------------------------------------------

    @property
    def m(self) -> int:
        return len(self.u)

    def __len__(self) -> int:
        return len(self.u)

    def _check(self, e) -> int:
        e = int(e)
        if not 0 <= e < len(self.u):
            raise IndexError(f"edge index {e} out of range [0, {len(self.u)})")
        return e

    def sensitivity(self, e) -> float:
        """Slack of edge ``e`` (Theorem 4.1 semantics, ``inf`` = bridge)."""
        return float(self.sens[self._check(e)])

    def survives(self, e, new_weight: float) -> bool:
        """Does the flagged tree remain an MST with ``w(e) = new_weight``?

        Ties survive: at exactly the threshold the tree is still *an*
        MST (the cycle rule is non-strict).
        """
        e = self._check(e)
        if self.tree_mask[e]:
            return bool(new_weight <= self.threshold[e])
        return bool(new_weight >= self.threshold[e])

    def replacement_edge(self, e) -> Optional[int]:
        """Input index of the edge that swaps in if tree edge ``e`` is
        priced past its threshold; ``None`` for bridges. Tree edges only."""
        e = self._check(e)
        if not self.tree_mask[e]:
            raise ValidationError(
                f"edge {e} is not a tree edge; replacement_edge is defined "
                "for tree edges (use entry_threshold for non-tree edges)"
            )
        c = int(self.cover_edge[e])
        return None if c < 0 else c

    def entry_threshold(self, e) -> float:
        """Weight below which non-tree edge ``e`` enters every MST
        (its tree-path maximum). Non-tree edges only."""
        e = self._check(e)
        if self.tree_mask[e]:
            raise ValidationError(
                f"edge {e} is a tree edge; entry_threshold is defined for "
                "non-tree edges (use replacement_edge for tree edges)"
            )
        return float(self.threshold[e])

    # -- bulk queries (O(batch), vectorised) -----------------------------------

    def _check_bulk(self, edges) -> np.ndarray:
        e = np.asarray(edges, dtype=np.int64)
        if len(e) and (e.min() < 0 or e.max() >= len(self.u)):
            raise IndexError("edge index out of range in bulk query")
        return e

    def sensitivity_bulk(self, edges) -> np.ndarray:
        """Vectorised :meth:`sensitivity` over an index array."""
        return self.sens[self._check_bulk(edges)]

    def survives_bulk(self, edges, new_weights) -> np.ndarray:
        """Vectorised :meth:`survives` over (edge, weight) pair arrays."""
        e = self._check_bulk(edges)
        x = np.asarray(new_weights, dtype=np.float64)
        if len(e) != len(x):
            raise ValidationError("edges and new_weights must align")
        thr = self.threshold[e]
        return np.where(self.tree_mask[e], x <= thr, x >= thr)

    def replacement_edge_bulk(self, edges) -> np.ndarray:
        """Vectorised :meth:`replacement_edge`; ``-1`` marks bridges.

        All queried edges must be tree edges (the service pre-splits
        mixed micro-batches on :attr:`tree_mask` before dispatching).
        """
        e = self._check_bulk(edges)
        if len(e) and not self.tree_mask[e].all():
            raise ValidationError(
                "replacement_edge_bulk is defined for tree edges only"
            )
        return self.cover_edge[e]

    def entry_threshold_bulk(self, edges) -> np.ndarray:
        """Vectorised :meth:`entry_threshold` (non-tree edges only)."""
        e = self._check_bulk(edges)
        if len(e) and self.tree_mask[e].any():
            raise ValidationError(
                "entry_threshold_bulk is defined for non-tree edges only"
            )
        return self.threshold[e]

    # -- incremental weight updates --------------------------------------------

    def covering_edges(self) -> np.ndarray:
        """Bool mask over input edges: attains some tree edge's ``mc``.

        An edge in this mask is the recorded minimiser of at least one
        covering minimum — re-pricing it can move thresholds, so the
        update path must rebuild. Computed lazily, cached.
        """
        if self._cover_mask is None:
            mask = np.zeros(len(self.u), dtype=bool)
            covers = self.cover_edge[self.cover_edge >= 0]
            mask[covers] = True
            self._cover_mask = mask
        return self._cover_mask

    def reprice(self, e, new_weight: float) -> None:
        """Patch ``w(e)`` (and its own slack) in place.

        Only valid for *oracle-preserving* updates — ones where every
        stored threshold provably keeps its value (see
        :mod:`repro.service.updates` for the classification). All other
        query answers depend solely on thresholds, so this patch plus
        the slack recomputation is the entire update. Copy-on-write:
        read-only (memory-mapped) ``w``/``sens`` arrays are thawed to
        private copies first; the large threshold/topology arrays stay
        mapped and shared.
        """
        e = self._check(e)
        if not self.w.flags.writeable:
            self.w = np.array(self.w)
        if not self.sens.flags.writeable:
            self.sens = np.array(self.sens)
        self.w[e] = new_weight
        thr = self.threshold[e]
        if self.tree_mask[e]:
            self.sens[e] = thr - new_weight  # inf stays inf for bridges
        else:
            self.sens[e] = new_weight - thr

    # -- persistence -----------------------------------------------------------

    def save(self, path, compressed: bool = True) -> None:
        """Write the oracle to ``path`` as one ``.npz`` (see :meth:`load`).

        ``compressed=False`` stores the arrays verbatim so that
        :meth:`load` with ``mmap_mode`` can map them zero-copy.
        """
        save_npz(
            path,
            {
                "u": self.u, "v": self.v, "w": self.w,
                "tree_mask": self.tree_mask, "sensitivity": self.sens,
                "threshold": self.threshold, "cover_edge": self.cover_edge,
                "parent": self.parent,
            },
            {
                "kind": "sensitivity-oracle",
                "root": self.root,
                "precompute_rounds": self.precompute_rounds,
                "diameter_estimate": self.diameter_estimate,
            },
            compressed=compressed,
        )

    @classmethod
    def load(cls, path, mmap_mode: Optional[str] = None) -> "SensitivityOracle":
        """Rehydrate from :meth:`save` output.

        ``mmap_mode`` (e.g. ``"r"``) passes through to the npz loader:
        arrays of an uncompressed snapshot come back as read-only
        :class:`numpy.memmap` views, so N shard workers mapping one
        file share a single page-cached copy instead of each
        materialising all arrays. Compressed snapshots silently fall
        back to an eager read (``np.load`` semantics).
        """
        arrays, meta = load_npz(path, mmap_mode=mmap_mode)
        if meta.get("kind") != "sensitivity-oracle":
            raise ValidationError(f"{path!r} does not hold an oracle")
        return cls(
            u=arrays["u"], v=arrays["v"], w=arrays["w"],
            tree_mask=arrays["tree_mask"], sensitivity=arrays["sensitivity"],
            threshold=arrays["threshold"], cover_edge=arrays["cover_edge"],
            parent=arrays["parent"], root=meta["root"],
            precompute_rounds=meta["precompute_rounds"],
            diameter_estimate=meta["diameter_estimate"],
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (f"SensitivityOracle(m={len(self.u)}, "
                f"tree={int(self.tree_mask.sum())}, "
                f"precompute_rounds={self.precompute_rounds})")


def build_oracle(graph: WeightedGraph, engine: str = "local", config=None,
                 store=None, **kw) -> SensitivityOracle:
    """Run the Theorem 4.1 pipeline and wrap the result as an oracle.

    ``store`` (an :class:`~repro.pipeline.ArtifactStore`) warm-starts
    the pipeline from cached stage artifacts when available.
    """
    from .core.sensitivity import mst_sensitivity

    result = mst_sensitivity(graph, engine=engine, config=config,
                             store=store, **kw)
    return SensitivityOracle.from_result(graph, result)
