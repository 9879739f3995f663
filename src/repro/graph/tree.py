"""Rooted trees and *sequential* tree utilities.

:class:`RootedTree` is the parent-array representation used across the
library. The sequential routines here (BFS construction, depths, exact
diameter, Euler tours, binary-lifting LCA / path-maximum) serve three
masters: input validation, workload generation, and — most importantly —
as independent test oracles for the distributed algorithms.

Nothing in this module charges MPC rounds; the distributed counterparts
live in :mod:`repro.trees`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..errors import NotATreeError, ValidationError

__all__ = ["RootedTree", "build_adjacency"]


def build_adjacency(n: int, u: np.ndarray, v: np.ndarray):
    """CSR adjacency ``(offsets, neighbors, edge_ids)`` for an edge list."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = len(u)
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    eid = np.concatenate([np.arange(m), np.arange(m)])
    order = np.argsort(src, kind="stable")
    nbr = dst[order]
    eid = eid[order]
    counts = np.bincount(src, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, nbr, eid


@dataclass
class RootedTree:
    """A rooted tree on vertices ``0..n-1`` as a parent array.

    ``parent[root] == root``; ``weight[i]`` is the weight of the edge
    ``{i, parent[i]}`` (0.0 and unused at the root).
    """

    parent: np.ndarray
    root: int
    weight: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.int64)
        n = len(self.parent)
        if self.weight is None:
            self.weight = np.zeros(n, dtype=np.float64)
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if len(self.weight) != n:
            raise ValidationError("weight array length mismatch")
        if not (0 <= self.root < n):
            raise ValidationError("root out of range")
        if self.parent[self.root] != self.root:
            raise NotATreeError("parent[root] must equal root")
        self._depth: Optional[np.ndarray] = None
        self._lift: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._tour: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._validate_acyclic()

    # -- construction --------------------------------------------------------------

    @staticmethod
    def from_edges(
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray | None = None,
        root: int = 0,
    ) -> "RootedTree":
        """Root an undirected tree edge list by BFS from ``root``."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if w is None:
            w = np.zeros(len(u), dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        if len(u) != n - 1:
            raise NotATreeError(
                f"a tree on {n} vertices needs {n - 1} edges, got {len(u)}"
            )
        offsets, nbr, eid = build_adjacency(n, u, v)
        parent = np.full(n, -1, dtype=np.int64)
        weight = np.zeros(n, dtype=np.float64)
        parent[root] = root
        frontier = np.array([root], dtype=np.int64)
        seen = 1
        while len(frontier):
            # vectorised BFS level expansion over the CSR arrays
            starts = offsets[frontier]
            ends = offsets[frontier + 1]
            total = int((ends - starts).sum())
            if total == 0:
                break
            idx = np.concatenate(
                [np.arange(s, e) for s, e in zip(starts, ends)]
            )
            ys = nbr[idx]
            es = eid[idx]
            fresh = parent[ys] == -1
            ys, es = ys[fresh], es[fresh]
            srcs = np.repeat(frontier, (ends - starts))[fresh]
            # first writer wins among duplicates (cannot happen in a tree,
            # but keep deterministic anyway)
            uniq, first = np.unique(ys, return_index=True)
            parent[uniq] = srcs[first]
            weight[uniq] = w[es[first]]
            seen += len(uniq)
            frontier = uniq
        if seen != n:
            raise NotATreeError("edge list is disconnected (not a spanning tree)")
        return RootedTree(parent=parent, root=root, weight=weight)

    def _validate_acyclic(self):
        n = self.n
        ptr = self.parent.copy()
        limit = 2 * int(np.ceil(np.log2(n + 1))) + 4
        for _ in range(limit):
            if np.all(ptr == self.root):
                return
            ptr = ptr[ptr]
        bad = np.flatnonzero(ptr != self.root)
        raise NotATreeError(
            f"parent array has a cycle or unreachable vertex (e.g. {int(bad[0])})"
        )

    # -- basic quantities -------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.parent)

    def depths(self) -> np.ndarray:
        """Depth of each vertex (root = 0); cached. Pointer-doubling."""
        if self._depth is None:
            n = self.n
            anc = self.parent.copy()
            dist = (np.arange(n) != self.root).astype(np.int64)
            while np.any(anc != self.root):
                dist = dist + dist[anc]
                anc = anc[anc]
            self._depth = dist
        return self._depth

    def children_count(self) -> np.ndarray:
        cnt = np.zeros(self.n, dtype=np.int64)
        mask = np.arange(self.n) != self.root
        np.add.at(cnt, self.parent[mask], 1)
        return cnt

    def height(self) -> int:
        return int(self.depths().max())

    def _children_csr(self):
        n = self.n
        mask = np.arange(n) != self.root
        kids_of = self.parent[mask]
        kid_ids = np.flatnonzero(mask)
        order = np.argsort(kids_of, kind="stable")
        kids = kid_ids[order]
        cnt = np.zeros(n, dtype=np.int64)
        np.add.at(cnt, kids_of, 1)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(cnt, out=off[1:])
        return off, kids

    def diameter(self) -> int:
        """Exact unweighted diameter (in edges): two-sweep BFS."""
        if self.n == 1:
            return 0
        a, _ = self._bfs_farthest(self.root)
        _, d = self._bfs_farthest(a)
        return int(d)

    def _bfs_farthest(self, src: int) -> Tuple[int, int]:
        n = self.n
        off, kids = self._children_csr()
        dist = np.full(n, -1, dtype=np.int64)
        dist[src] = 0
        frontier = np.array([src], dtype=np.int64)
        far, fard = src, 0
        while len(frontier):
            nxt = []
            for x in frontier:
                neighbors = kids[off[x]: off[x + 1]].tolist()
                if x != self.root:
                    neighbors.append(int(self.parent[x]))
                for y in neighbors:
                    if dist[y] == -1:
                        dist[y] = dist[x] + 1
                        if dist[y] > fard:
                            far, fard = int(y), int(dist[y])
                        nxt.append(y)
            frontier = np.array(nxt, dtype=np.int64)
        return far, fard

    # -- Euler tour / DFS (sequential oracle) ---------------------------------------------

    def euler_intervals(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dfs_number, low, high) per vertex, children visited in id order.

        ``low[v]..high[v]`` is the DFS-number interval of v's subtree,
        with ``low[v] == dfs_number[v]`` (Definition 2.13 of the paper).
        """
        if self._tour is not None:
            return self._tour
        n = self.n
        off, kids = self._children_csr()
        dfs = np.full(n, -1, dtype=np.int64)
        high = np.zeros(n, dtype=np.int64)
        counter = 0
        stack = [(self.root, 0)]
        while stack:
            v, ki = stack.pop()
            if ki == 0:
                dfs[v] = counter
                counter += 1
            cs = kids[off[v]: off[v + 1]]
            if ki < len(cs):
                stack.append((v, ki + 1))
                stack.append((int(cs[ki]), 0))
            else:
                high[v] = counter - 1
        low = dfs.copy()
        self._tour = (dfs, low, high)
        return self._tour

    def is_ancestor(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorised test: is ``a[i]`` an ancestor of (or equal to) ``b[i]``?"""
        _, low, high = self.euler_intervals()
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return (low[a] <= low[b]) & (high[b] <= high[a])

    # -- binary lifting: LCA and path maxima ---------------------------------------------

    def _lifting(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._lift is None:
            n = self.n
            depth = self.depths()
            levels = max(1, int(np.ceil(np.log2(max(2, int(depth.max()) + 1)))) + 1)
            up = np.empty((levels, n), dtype=np.int64)
            mx = np.empty((levels, n), dtype=np.float64)
            up[0] = self.parent
            mx[0] = np.where(np.arange(n) == self.root, -np.inf, self.weight)
            for k in range(1, levels):
                up[k] = up[k - 1][up[k - 1]]
                mx[k] = np.maximum(mx[k - 1], mx[k - 1][up[k - 1]])
            self._lift = (up, mx)
        return self._lift

    def lca(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorised lowest common ancestors."""
        up, _ = self._lifting()
        depth = self.depths()
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        swap = depth[a] < depth[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        diff = depth[a] - depth[b]
        # full-width np.where, as in min_cover_to_ancestor: masked
        # gathers over ~random bits cost more than gathering every row
        for k in range(up.shape[0]):
            a = np.where(((diff >> k) & 1) == 1, up[k][a], a)
        # pairs already equal have equal ancestors at every level
        for k in range(up.shape[0] - 1, -1, -1):
            ua, ub = up[k][a], up[k][b]
            move = ua != ub
            a = np.where(move, ua, a)
            b = np.where(move, ub, b)
        return np.where(a != b, up[0][a], a)

    def path_max_to_ancestor(self, v: np.ndarray, anc: np.ndarray) -> np.ndarray:
        """Max edge weight on the path from each ``v`` up to its ancestor.

        Returns -inf where ``v == anc`` (empty path). Callers must ensure
        the ancestor relation holds.
        """
        up, mx = self._lifting()
        depth = self.depths()
        v = np.asarray(v, dtype=np.int64)
        anc = np.asarray(anc, dtype=np.int64)
        diff = depth[v] - depth[anc]
        out = np.full(len(v), -np.inf, dtype=np.float64)
        for k in range(up.shape[0]):
            bit = ((diff >> k) & 1) == 1
            np.maximum(out, np.where(bit, mx[k][v], -np.inf), out=out)
            v = np.where(bit, up[k][v], v)
        return out

    def min_cover_to_ancestor(self, v: np.ndarray, anc: np.ndarray,
                              key: np.ndarray) -> np.ndarray:
        """Per vertex ``x``: min ``key[i]`` over the paths ``v[i] -> anc[i]``
        that contain the edge ``(x, parent(x))``.

        The write-side dual of :meth:`path_max_to_ancestor`. Each path
        splits by the bits of its length into at most ``log D_T`` blocks
        of ``2**k`` parent edges; a block's key is scattered onto its
        lowest vertex at level ``k``. The minima are then pushed down
        level by level, since a level-``k`` block at ``x`` is the two
        level-``k-1`` blocks at ``x`` and ``up[k-1][x]``. Uncovered
        edges (and the root) read ``iinfo(int64).max``. Callers must
        ensure the ancestor relation holds.
        """
        up, _ = self._lifting()
        depth = self.depths()
        none = np.iinfo(np.int64).max
        v = np.asarray(v, dtype=np.int64)
        key = np.asarray(key, dtype=np.int64)
        diff = depth[v] - depth[np.asarray(anc, dtype=np.int64)]
        best = np.full(up.shape, none, dtype=np.int64)
        for k in range(up.shape[0]):
            # full-width np.where beats boolean-mask gathers here: a
            # path's bits are ~random, so masks defeat branch prediction
            bit = ((diff >> k) & 1) == 1
            np.minimum.at(best[k], v, np.where(bit, key, none))
            v = np.where(bit, up[k][v], v)
        for k in range(up.shape[0] - 1, 0, -1):
            hit = np.flatnonzero(best[k] != none)
            np.minimum(best[k - 1], best[k], out=best[k - 1])
            np.minimum.at(best[k - 1], up[k - 1][hit], best[k][hit])
        return best[0]

    def path_max(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Max edge weight on the tree path between ``a[i]`` and ``b[i]``."""
        l = self.lca(a, b)
        return np.maximum(
            self.path_max_to_ancestor(a, l), self.path_max_to_ancestor(b, l)
        )

    # -- conversions ----------------------------------------------------------------------

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tree edges as (child, parent, weight) arrays, excluding the root."""
        ids = np.flatnonzero(np.arange(self.n) != self.root)
        return ids, self.parent[ids], self.weight[ids]
