"""Sequential MST sensitivity oracle (Tarjan-style, [Tar82]/[DRT92]).

* Non-tree edge: ``sens(e) = w(e) - pathmax_T(e)`` (binary lifting).
* Tree edge: ``mc(e)`` — the minimum weight of a covering non-tree edge
  — via the classic union-find ascent: process non-tree edges in
  increasing weight; walk both endpoints up to their LCA through a
  "next uncovered ancestor" DSU, stamping each still-uncovered tree edge
  with the current weight (its minimum cover, since weights ascend) and
  splicing covered vertices out. Near-linear total time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.graph import WeightedGraph
from ..graph.tree import RootedTree

__all__ = ["SequentialSensitivity", "covering_ascent",
           "sequential_sensitivity"]


def covering_ascent(tree: RootedTree, nu, nv, nw, ids):
    """Min-cover weight and covering-edge id per vertex (Tarjan ascent).

    Processes the non-tree edges ``(nu[i], nv[i], nw[i])`` in stable
    ascending-weight order and walks both endpoints to their LCA through
    a "next uncovered ancestor" DSU; the first cover to reach a tree
    edge is its cheapest one. Returns ``(mc, cover)`` where ``mc[x]``
    is the minimum cover weight of the edge ``(x, parent(x))`` and
    ``cover[x]`` is ``ids[i]`` of the edge attaining it (inf / -1 where
    nothing covers it). The sequential reference for
    :meth:`repro.graph.tree.RootedTree.min_cover_to_ancestor`.
    """
    n = tree.n
    depth = tree.depths()
    parent = tree.parent
    lca = tree.lca(nu, nv) if len(nu) else np.empty(0, dtype=np.int64)

    mc = np.full(n, np.inf, dtype=np.float64)
    cover = np.full(n, -1, dtype=np.int64)
    # DSU over "next vertex whose parent edge is still uncovered"
    jump = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        r = x
        while jump[r] != r:
            r = jump[r]
        while jump[x] != r:
            jump[x], x = r, jump[x]
        return r

    order = np.argsort(nw, kind="stable")
    for i in order:
        w = float(nw[i])
        eid = int(ids[i])
        top = int(lca[i])
        for end in (int(nu[i]), int(nv[i])):
            x = find(end)
            while depth[x] > depth[top]:
                mc[x] = w            # first (smallest) cover wins
                cover[x] = eid
                jump[x] = find(int(parent[x]))
                x = find(x)
    return mc, cover


@dataclass
class SequentialSensitivity:
    sensitivity: np.ndarray   # per input edge
    mc: np.ndarray            # per vertex: min cover of edge (v, parent(v))
    tree: RootedTree


def sequential_sensitivity(graph: WeightedGraph, root: int = 0) -> SequentialSensitivity:
    tu, tv, tw = graph.tree_edges()
    tree = RootedTree.from_edges(graph.n, tu, tv, tw, root=root)
    parent = tree.parent

    nt_idx = np.flatnonzero(~graph.tree_mask)
    nu, nv, nw = graph.u[nt_idx], graph.v[nt_idx], graph.w[nt_idx]
    mc, _cover = covering_ascent(tree, nu, nv, nw, nt_idx)

    sens = np.empty(graph.m, dtype=np.float64)
    t_idx = np.flatnonzero(graph.tree_mask)
    child = np.where(parent[graph.u[t_idx]] == graph.v[t_idx],
                     graph.u[t_idx], graph.v[t_idx])
    sens[t_idx] = mc[child] - graph.w[t_idx]
    if len(nt_idx):
        pmax = tree.path_max(nu, nv)
        sens[nt_idx] = nw - pmax
    return SequentialSensitivity(sensitivity=sens, mc=mc, tree=tree)
