"""Weight-preserving labelling ``(θ, ω)`` and path-maximum evaluation (§3).

Definition 3.2: given a clustering ``C`` of an ancestor–descendant
instance,

* ``θ(c)`` (stored on the child cluster ``c``) is the largest weight on
  the tree path from the *parent* cluster's leader down to
  ``p(leader(c))`` — the segment of the parent cluster a path traverses
  when it climbs out of ``c``;
* ``ω_lo`` / ``ω_hi`` of a half-edge are the largest weights on the
  parts of its tree path that lie inside the descendant's / ancestor's
  cluster.

:func:`run_weight_labeling` replays the contraction levels of a
:class:`~repro.core.hierarchy.ClusterHierarchy`, maintaining the labels
per Lemma 3.4's case analysis in O(1) rounds per level (Lemma 3.5):

* *union* (case 1): the two endpoint clusters merge — the path is now
  internal; ``ω = max(ω_lo, cross, ω_hi)``;
* *climb-out* (case 5): the descendant's cluster is a junior and the
  path continues above the new cluster —
  ``ω_lo = max(ω_lo, cross, θ(junior))``;
* *descend-through* (case 3): the ancestor's cluster absorbs the junior
  the path enters through — ``ω_hi = max(ω_hi, cross(junior),
  θ(child-of-junior on the path))``;
* cases 2/4: nothing changes.

:func:`evaluate_pathmax` combines the final labels with cluster-tree
root paths (Lemma 3.7) and their prefix maxima to produce, for every
half-edge, the maximum weight on its tree path (Observation 3.3) —
which decides MST verification (Theorem 3.1) and gives the sensitivity
of non-tree edges (Observation 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mpc.runtime import Runtime, pack_pair
from ..mpc.table import Table
from ..trees.doubling import collect_root_paths, mpc_depths
from .adgraph import HalfEdges
from .hierarchy import ClusterHierarchy

__all__ = ["LabeledHalfEdges", "run_weight_labeling", "evaluate_pathmax"]

NEG = -np.inf


@dataclass
class LabeledHalfEdges:
    """Half-edges with their final ``(ω, cluster)`` state after replay."""

    half: HalfEdges
    omega_lo: np.ndarray
    omega_hi: np.ndarray
    cl_lo: np.ndarray       # final cluster leader of lo's cluster
    cl_hi: np.ndarray
    internal: np.ndarray    # both endpoints ended in the same cluster
    clusters: Table         # final clusters: leader, pcl, cw, theta

    def __len__(self) -> int:
        return len(self.half)


def _junior_containing(
    rt: Runtime, lv_table: Table, query_cluster: np.ndarray, query_dfs: np.ndarray
):
    """Find, per query, this level's junior of ``query_cluster`` whose
    subtree interval contains ``query_dfs`` (or a miss).

    ``lv_table`` columns: senior, jlow, jhigh, junior, cw, jformed, pv.
    Sibling junior intervals are disjoint, so a predecessor search on
    (senior, jlow) followed by containment checks is exact.
    """
    data = rt.sort(lv_table, ("senior", "jlow"))
    q = Table(s=query_cluster, d=query_dfs)
    dk, qk = pack_pair(data, ("senior", "jlow"), q, ("s", "d"))
    got = rt.predecessor(
        q.with_cols(__pk=qk), "__pk", data.with_cols(__pk=dk), "__pk",
        {
            "jq": "junior", "jlo": "jlow", "jhi": "jhigh", "js": "senior",
            "jcw": "cw", "jfo": "jformed", "jpv": "pv",
        },
        {"jq": -1, "jlo": 0, "jhi": -1, "js": -1, "jcw": NEG, "jfo": -1,
         "jpv": -1},
    )
    hit = (
        (got.col("js") == query_cluster)
        & (got.col("jlo") <= query_dfs)
        & (query_dfs <= got.col("jhi"))
        & (got.col("jq") >= 0)
    )
    return got, hit


def _child_cluster_containing(
    rt: Runtime, clusters: Table, low: np.ndarray,
    query_parent_cluster: np.ndarray, query_dfs: np.ndarray
):
    """Find, per query, the live child cluster of ``query_parent_cluster``
    whose leader's subtree interval contains ``query_dfs``.

    Sibling child clusters have disjoint subtree intervals (see module
    notes), so a predecessor search on (pcl, leader_low) is exact.
    Returns the child's (leader, theta, pv) plus a hit mask.
    """
    data = clusters.with_cols(
        __lo=low[clusters.col("leader")],
    )
    data = rt.sort(data, ("pcl", "__lo"))
    q = Table(p=query_parent_cluster, d=query_dfs)
    dk, qk = pack_pair(data, ("pcl", "__lo"), q, ("p", "d"))
    got = rt.predecessor(
        q.with_cols(__pk=qk), "__pk", data.with_cols(__pk=dk), "__pk",
        {"ql": "leader", "qth": "theta", "qpcl": "pcl", "qlo": "__lo",
         "qhi": "hi_", "qpv": "pv"},
        {"ql": -1, "qth": NEG, "qpcl": -1, "qlo": 0, "qhi": -1, "qpv": -1},
    )
    hit = (
        (got.col("qpcl") == query_parent_cluster)
        & (got.col("qlo") <= query_dfs)
        & (query_dfs <= got.col("qhi"))
        & (got.col("ql") >= 0)
    )
    return got, hit


def run_weight_labeling(
    rt: Runtime,
    hierarchy: ClusterHierarchy,
    half: HalfEdges,
    low: np.ndarray,
    high: np.ndarray,
) -> LabeledHalfEdges:
    """Replay contraction maintaining ``(θ, ω)`` (Lemmas 3.4/3.5)."""
    n = hierarchy.n
    root = hierarchy.root
    parent = hierarchy.parent
    wpar = hierarchy.wpar
    ids = np.arange(n, dtype=np.int64)

    # live cluster state (one row per cluster, keyed by leader)
    cl_leader = ids.copy()
    cl_pcl = parent.copy()
    cl_pcl[root] = root
    cl_cw = wpar.copy()
    cl_cw[root] = NEG
    cl_pv = parent.copy()
    cl_pv[root] = root
    cl_theta = np.full(n, NEG, dtype=np.float64)

    ne = len(half)
    cl_lo = half.lo.copy()
    cl_hi = half.hi.copy()
    om_lo = np.full(ne, NEG, dtype=np.float64)
    om_hi = np.full(ne, NEG, dtype=np.float64)
    internal = np.zeros(ne, dtype=bool)
    dfs_lo = low[half.lo]

    for lv in hierarchy.levels:
        lv_tab = Table(
            junior=lv.junior, senior=lv.senior, cw=lv.cross_w,
            jlow=lv.junior_low, jhigh=lv.junior_high,
            jformed=lv.junior_formed, pv=lv.parent_vertex,
        )
        live = ~internal

        # LO side: is lo's cluster a junior this level? fetch (senior, cw, θ)
        jmap = Table(j=lv.junior, s=lv.senior, cw=lv.cross_w)
        got_lo = rt.lookup(
            Table(c=cl_lo), ("c",), jmap, ("j",), {"s": "s", "cw": "cw"},
            default={"s": -1, "cw": NEG},
        )
        lo_is_junior = (got_lo.col("s") >= 0) & live
        th_lo = rt.lookup(
            Table(c=cl_lo), ("c",),
            Table(leader=cl_leader, th=cl_theta), ("leader",), {"th": "th"},
            default={"th": NEG},
        ).col("th")

        # HI side: did hi's cluster absorb the junior the path enters by?
        got_hi, hi_hit = _junior_containing(rt, lv_tab, cl_hi, dfs_lo)
        hi_hit = hi_hit & live

        union = lo_is_junior & (got_lo.col("s") == cl_hi)
        climb = lo_is_junior & ~union
        descend = hi_hit & (got_hi.col("jq") != cl_lo)

        # each case writes only the rows where it fires: om_lo, om_hi
        # and internal are never handed to a primitive, so writing them
        # in place cannot disturb a registered array fact

        # case 1: union — the path becomes internal
        u = np.flatnonzero(union)
        uval = np.maximum(np.maximum(om_lo[u], om_hi[u]),
                          got_lo.col("cw")[u])
        om_lo[u] = uval
        om_hi[u] = uval
        internal[u] = True

        # case 5: ω_lo extends over the junior's θ segment + cross edge
        c = np.flatnonzero(climb)
        om_lo[c] = np.maximum(om_lo[c],
                              np.maximum(got_lo.col("cw")[c], th_lo[c]))

        # case 3: ω_hi extends through the absorbed junior jq down to the
        # child cluster q' on the path
        if descend.any():
            clusters_now = Table(
                leader=cl_leader, pcl=cl_pcl, theta=cl_theta, pv=cl_pv,
                hi_=high[cl_leader],
            )
            got_q, q_hit = _child_cluster_containing(
                rt, clusters_now, low,
                np.where(descend, got_hi.col("jq"), -1), dfs_lo,
            )
            d = np.flatnonzero(descend & q_hit)
            om_hi[d] = np.maximum(
                om_hi[d],
                np.maximum(got_hi.col("jcw")[d], got_q.col("qth")[d]))

        # cluster-state updates: θ/pcl rewiring for clusters whose parent
        # cluster was absorbed, then drop the juniors
        got_p = rt.lookup(
            Table(c=cl_pcl), ("c",), jmap, ("j",), {"s": "s", "cw": "cw"},
            default={"s": -1, "cw": NEG},
        )
        th_p = rt.lookup(
            Table(c=cl_pcl), ("c",),
            Table(leader=cl_leader, th=cl_theta), ("leader",), {"th": "th"},
            default={"th": NEG},
        ).col("th")
        pj = got_p.col("s") >= 0
        cl_theta = np.where(
            pj, np.maximum(np.maximum(cl_theta, got_p.col("cw")), th_p),
            cl_theta,
        )
        cl_pcl = np.where(pj, got_p.col("s"), cl_pcl)
        was_junior = rt.lookup(
            Table(c=cl_leader), ("c",), jmap, ("j",), {"s": "s"},
            default={"s": -1},
        ).col("s") >= 0
        keep = ~was_junior
        cl_leader = cl_leader[keep]
        cl_pcl = cl_pcl[keep]
        cl_cw = cl_cw[keep]
        cl_pv = cl_pv[keep]
        cl_theta = cl_theta[keep]

        # edge cluster pointers follow the merge
        for arr_name in ("cl_lo", "cl_hi"):
            arr = cl_lo if arr_name == "cl_lo" else cl_hi
            got = rt.lookup(
                Table(c=arr), ("c",), jmap, ("j",), {"s": "s"},
                default={"s": -1},
            )
            moved = np.where(got.col("s") >= 0, got.col("s"), arr)
            if arr_name == "cl_lo":
                cl_lo = moved
            else:
                cl_hi = moved

    clusters = Table(
        leader=cl_leader, pcl=cl_pcl, cw=cl_cw, theta=cl_theta, pv=cl_pv
    )
    return LabeledHalfEdges(
        half=half, omega_lo=om_lo, omega_hi=om_hi,
        cl_lo=cl_lo, cl_hi=cl_hi, internal=internal, clusters=clusters,
    )


def evaluate_pathmax(
    rt: Runtime,
    hierarchy: ClusterHierarchy,
    labeled: LabeledHalfEdges,
) -> np.ndarray:
    """Observation 3.3: the max tree-path weight of every half-edge.

    Uses Lemma 3.7 root paths on the final cluster tree plus prefix
    maxima of the ``θ`` and inter-cluster ("cross") weights along them.
    """
    clusters = labeled.clusters
    k = len(clusters)
    ne = len(labeled)
    if ne == 0:
        return np.empty(0, dtype=np.float64)

    # compact ids over final clusters
    cl = rt.sort(clusters, ("leader",))
    cid = np.arange(k, dtype=np.int64)
    cl = cl.with_cols(cid=cid)
    got = rt.lookup(cl, ("pcl",), cl, ("leader",), {"pcid": "cid"})
    cl = cl.with_cols(pcid=got.col("pcid"))
    root_cid = int(cl.col("cid")[cl.col("leader") == hierarchy.root][0])
    cparent = cl.col("pcid").copy()
    th_by = cl.col("theta")
    cx_by = cl.col("cw")

    cdepth = mpc_depths(rt, cparent, root_cid)
    paths = collect_root_paths(rt, cparent, root_cid)
    rt.retain("cluster_root_paths", paths)
    paths = paths.with_cols(
        th=th_by[paths.col("anc")], cx=cx_by[paths.col("anc")]
    )
    paths = rt.sort(paths, ("v", "d"))
    cum_th = rt.scan(paths, "th", "max", by=("v",))
    cum_cx = rt.scan(paths, "cx", "max", by=("v",))
    paths = paths.with_cols(cum_th=cum_th, cum_cx=cum_cx)

    # per-edge cluster ids and depths
    lead2cid = Table(leader=cl.col("leader"), cid=cl.col("cid"))
    e_lo = rt.lookup(Table(l=labeled.cl_lo), ("l",), lead2cid, ("leader",),
                     {"c": "cid"}).col("c")
    e_hi = rt.lookup(Table(l=labeled.cl_hi), ("l",), lead2cid, ("leader",),
                     {"c": "cid"}).col("c")
    a = cdepth[e_lo]
    b = cdepth[e_hi]

    j_th = a - b - 2
    j_cx = a - b - 1
    q_th = rt.lookup(
        Table(c=e_lo, j=np.maximum(j_th, 0)), ("c", "j"),
        paths, ("v", "d"), {"m": "cum_th"}, default={"m": NEG},
    ).col("m")
    q_cx = rt.lookup(
        Table(c=e_lo, j=np.maximum(j_cx, 0)), ("c", "j"),
        paths, ("v", "d"), {"m": "cum_cx"}, default={"m": NEG},
    ).col("m")
    th_part = np.where(j_th >= 0, q_th, NEG)
    cx_part = np.where(j_cx >= 0, q_cx, NEG)

    pathmax = np.maximum(labeled.omega_lo, labeled.omega_hi)
    outside = ~labeled.internal
    pathmax = np.where(
        outside,
        np.maximum(pathmax, np.maximum(th_part, cx_part)),
        pathmax,
    )
    rt.release("cluster_root_paths")
    return pathmax
