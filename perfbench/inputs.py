"""Seeded inputs: graphs, read plans and write streams.

Every input a workload feeds the program is drawn here from ``--seed``
(the same seed gives byte-identical inputs, which the provenance block
proves with a SHA-256 per input). Graphs come from the program's own
generators; query plans and write streams are drawn by the benchmark,
so a change to the program's load generator cannot change them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from openloop import OP_CODES, ST_OK, ST_TYPE

#: loadgen's default read mix (op -> share)
READ_MIX = (("survives", 0.55), ("sensitivity", 0.25),
            ("replacement_edge", 0.10), ("entry_threshold", 0.10))


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, workload, purpose) stream."""
    return np.random.default_rng([int(seed), *stream])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def graph_digest(g) -> str:
    return digest(np.array([g.n]), g.u, g.v, g.w, g.tree_mask)


def make_graph(shape: str, n: int, rng: np.random.Generator):
    """A graph with a flagged MST; ``backbone<D>`` fixes the diameter."""
    from repro.graph.generators import (attach_nontree_edges, backbone_tree,
                                        known_mst_instance)

    if shape.startswith("backbone"):
        tree = backbone_tree(n, int(shape[len("backbone"):]), rng)
        return attach_nontree_edges(tree, 2 * n, rng)
    graph, _ = known_mst_instance(shape, n, 2 * n, rng=rng)
    return graph


def save_graph(g, path: str) -> None:
    np.savez(path, n=np.array([g.n]), u=g.u, v=g.v, w=g.w,
             tree_mask=g.tree_mask)


def load_graph(path: str):
    from repro.graph.graph import WeightedGraph

    with np.load(path) as z:
        return WeightedGraph(n=int(z["n"][0]), u=z["u"], v=z["v"],
                             w=z["w"], tree_mask=z["tree_mask"])


# -- read plans ----------------------------------------------------------------


@dataclass
class ReadPlan:
    """A pre-drawn point-query stream with its open-loop schedule.

    ``due`` holds send times in seconds from the start of the phase
    (Poisson arrivals: the callers are independent users).
    """

    inst: np.ndarray      # instance index per query
    op: np.ndarray        # wire op code per query
    edge: np.ndarray
    weight: np.ndarray
    due: np.ndarray

    def __len__(self) -> int:
        return len(self.op)

    def digest(self) -> str:
        return digest(self.inst, self.op, self.edge, self.weight, self.due)


def read_plan(rng: np.random.Generator, edge_counts: List[int],
              rate: float, seconds: float) -> ReadPlan:
    """``rate`` q/s for ``seconds`` over instances drawn uniformly."""
    total = max(1, int(round(rate * seconds)))
    gaps = rng.exponential(1.0 / rate, size=total)
    due = np.cumsum(gaps) - gaps[0]
    names = np.array([OP_CODES[op] for op, _ in READ_MIX], dtype=np.uint8)
    probs = np.array([p for _, p in READ_MIX])
    op = names[rng.choice(len(names), size=total, p=probs / probs.sum())]
    inst = rng.integers(0, len(edge_counts), size=total)
    m = np.asarray(edge_counts, dtype=np.int64)[inst]
    edge = (rng.random(total) * m).astype(np.int64)
    weight = rng.uniform(0.0, 2.0, size=total)
    return ReadPlan(inst=inst, op=op, edge=edge, weight=weight, due=due)


def expected_answers(plan: ReadPlan, oracles: List) -> tuple:
    """``(status, value)`` arrays an exact server must answer with.

    Wrong-kind queries (``replacement_edge`` on a non-tree edge,
    ``entry_threshold`` on a tree edge) are refusals with the type
    status; ``survives`` rides as 1.0/0.0 and a bridge's replacement
    edge as -1.0, as the binary protocol encodes them.
    """
    status = np.zeros(len(plan), dtype=np.uint8)
    value = np.zeros(len(plan), dtype=np.float64)
    for i, orc in enumerate(oracles):
        sel = np.flatnonzero(plan.inst == i)
        e, op = plan.edge[sel], plan.op[sel]
        tree = orc.tree_mask[e]
        thr = orc.threshold[e]
        val = np.select(
            [op == OP_CODES["sensitivity"], op == OP_CODES["survives"],
             op == OP_CODES["replacement_edge"]],
            [orc.sens[e],
             np.where(tree, plan.weight[sel] <= thr,
                      plan.weight[sel] >= thr).astype(np.float64),
             orc.cover_edge[e].astype(np.float64)],
            default=thr)
        wrong_kind = (((op == OP_CODES["replacement_edge"]) & ~tree)
                      | ((op == OP_CODES["entry_threshold"]) & tree))
        status[sel] = np.where(wrong_kind, ST_TYPE, ST_OK)
        value[sel] = np.where(wrong_kind, 0.0, val)
    return status, value


def answers_match(status, value, exp_status, exp_value) -> np.ndarray:
    """Per-query correctness: same status, and bit-equal value when ok."""
    same_value = (value == exp_value) | (np.isnan(value) & np.isnan(exp_value))
    return (status == exp_status) & ((exp_status != ST_OK) | same_value)


# -- write streams -------------------------------------------------------------


@dataclass
class WriteStream:
    """Open-loop structural writes against one instance.

    ``requests[k]`` is a wire request (``update_batch`` or ``update``)
    due at ``due[k]``; ``kind[k]`` names its class for reporting.
    """

    requests: List[Dict]
    due: np.ndarray
    kind: List[str]

    def digest(self) -> str:
        import json

        h = hashlib.sha256(json.dumps(self.requests, sort_keys=True).encode())
        h.update(self.due.tobytes())
        return h.hexdigest()


#: ops per structural batch; every TREE_EVERY-th write is a
#: tree-affecting batch and every UPDATE_EVERY-th a single-edge update
WRITE_BATCH, TREE_EVERY, UPDATE_EVERY = 16, 10, 8


def write_stream(rng: np.random.Generator, graph, instance: str,
                 rate: float, seconds: float) -> WriteStream:
    """Writes due at a fixed rate: structural batches cycling add ->
    reprice -> remove over appended non-tree edges, tree-affecting
    batches (they lower tree weights, so the tree stays the MST but
    every stage replays) and single-edge ``update`` raises of original
    non-tree edges.

    Every op applies whatever the server's state, and appended edges
    are the highest ids, so the ids each batch names are known up front
    and the same ops replay exactly through ``apply_ops``.
    """
    total = max(3, int(round(rate * seconds)))
    # a fixed period, not Poisson: a write's latency then reflects its own
    # cost rather than the luck of the arrival draw
    due = (np.arange(total) + 0.5) / rate
    n, m0 = graph.n, graph.m
    tree_ids = np.flatnonzero(graph.tree_mask)
    nontree_ids = np.flatnonzero(~graph.tree_mask)
    w = graph.w.copy()
    requests: List[Dict] = []
    kinds: List[str] = []
    phase = 0
    for k in range(total):
        if k % UPDATE_EVERY == UPDATE_EVERY - 1:
            e = int(rng.choice(nontree_ids))
            w[e] += float(rng.uniform(0.01, 0.5))
            requests.append({"op": "update", "instance": instance,
                             "edge": e, "weight": float(w[e])})
            kinds.append("update")
            continue
        if k % TREE_EVERY == TREE_EVERY - 1:
            picks = rng.choice(tree_ids, size=4, replace=False)
            ops = []
            for e in picks:
                w[e] *= 0.999
                ops.append({"kind": "reprice", "edge": int(e),
                            "weight": float(w[e])})
            kinds.append("tree")
        elif phase == 0:
            a = rng.integers(0, n, size=WRITE_BATCH)
            b = (a + 1 + rng.integers(0, n - 1, size=WRITE_BATCH)) % n
            ops = [{"kind": "add", "u": int(x), "v": int(y),
                    "weight": 1e9 + float(j)}
                   for j, (x, y) in enumerate(zip(a, b))]
            kinds.append("add")
            phase = 1
        elif phase == 1:
            ops = [{"kind": "reprice", "edge": m0 + j,
                    "weight": 1e9 + 100.0 + float(rng.uniform(0, 1))}
                   for j in range(WRITE_BATCH)]
            kinds.append("reprice")
            phase = 2
        else:
            ops = [{"kind": "remove", "edge": m0 + j}
                   for j in range(WRITE_BATCH)]
            kinds.append("remove")
            phase = 0
        requests.append({"op": "update_batch", "instance": instance,
                         "ops": ops})
    return WriteStream(requests=requests, due=due, kind=kinds)


def replay_writes(graph, stream: WriteStream, applied: List[bool]):
    """The benchmark's own replay of the acknowledged writes."""
    from repro.graph.mutations import apply_ops, coalesce_ops

    g = graph.copy()
    for req, ok in zip(stream.requests, applied):
        if not ok:
            continue
        if req["op"] == "update":
            ops = [{"kind": "reprice", "edge": req["edge"],
                    "weight": req["weight"]}]
        else:
            ops = coalesce_ops(req["ops"])
        g, _ = apply_ops(g, ops)
    return g
