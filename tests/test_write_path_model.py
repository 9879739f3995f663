"""Model-based test of the streaming write path (``apply_batch``).

A Hypothesis state machine drives one :class:`InstanceUpdater` on an
n=64 instance through add, remove, reprice and mixed batches, with
weights from a small grid so new edges tie with each other and with
their cycle maxima. Cheap adds, tree-edge removals and tree reprices
make most runs cross between the spliced (non-tree-only) and the full
(tree-affecting) rebuild paths. After every step:

* the flagged tree is an MST: its sorted weights equal Kruskal's (all
  MSTs share one weight multiset, so the check is exact in floats);
* the served oracle's ``threshold``, ``sensitivity`` and ``cover_edge``
  equal a cold ``build_oracle`` of the same graph from an empty store;
* ``cover_edge`` on tree edges equals the sequential DSU ascent
  :func:`repro.baselines.covering_ascent` under the oracle's rooting.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.baselines import covering_ascent, kruskal_mst
from repro.graph.generators import known_mst_instance
from repro.graph.tree import RootedTree
from repro.oracle import build_oracle
from repro.pipeline import ArtifactStore
from repro.service import InstanceUpdater

N = 64
#: Spans the instance's weights (~0.001..1.8): low entries swap into
#: the tree, high ones stay out, and repeats tie.
WEIGHTS = st.sampled_from([0.01, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0])
#: Edge ids are drawn unbounded and reduced modulo the live ``m``.
EDGE = st.integers(0, 10**6)


def add_ops(pairs, weights):
    return [{"kind": "add", "u": a % N, "v": (a + 1 + d % (N - 1)) % N,
             "weight": w}
            for (a, d), w in zip(pairs, weights)]


class WritePathMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        graph, _ = known_mst_instance("random", N, extra_m=2 * N, rng=5)
        self.up = InstanceUpdater.build("model", graph)

    def _edge(self, e: int) -> int:
        return e % self.up.graph.m

    def _tree_edge(self, e: int) -> int:
        tree = np.flatnonzero(self.up.graph.tree_mask)
        return int(tree[e % len(tree)])

    @rule(pairs=st.lists(st.tuples(EDGE, EDGE), min_size=1, max_size=4),
          weights=st.lists(WEIGHTS, min_size=4, max_size=4))
    def add_batch(self, pairs, weights):
        self.up.apply_batch(add_ops(pairs, weights))

    @rule(edges=st.lists(EDGE, min_size=1, max_size=3),
          tree=st.booleans())
    def remove_batch(self, edges, tree):
        pick = self._tree_edge if tree else self._edge
        self.up.apply_batch([{"kind": "remove", "edge": pick(e)}
                             for e in edges])

    @rule(edges=st.lists(EDGE, min_size=1, max_size=3),
          weights=st.lists(WEIGHTS, min_size=3, max_size=3),
          tree=st.booleans())
    def reprice_batch(self, edges, weights, tree):
        pick = self._tree_edge if tree else self._edge
        self.up.apply_batch([{"kind": "reprice", "edge": pick(e),
                              "weight": w}
                             for e, w in zip(edges, weights)])

    @rule(pair=st.tuples(EDGE, EDGE), weights=st.lists(
        WEIGHTS, min_size=2, max_size=2), gone=EDGE, moved=EDGE)
    def mixed_batch(self, pair, weights, gone, moved):
        self.up.apply_batch(
            [{"kind": "remove", "edge": self._tree_edge(gone)},
             {"kind": "reprice", "edge": self._edge(moved),
              "weight": weights[0]}]
            + add_ops([pair], weights[1:]))

    @invariant()
    def tree_is_an_mst(self):
        g = self.up.graph
        chosen, _total = kruskal_mst(g)
        np.testing.assert_array_equal(np.sort(g.w[g.tree_mask]),
                                      np.sort(g.w[chosen]))

    @invariant()
    def oracle_equals_cold_build(self):
        served = self.up.oracle
        cold = build_oracle(self.up.graph, oracle_labels=True,
                            store=ArtifactStore())
        np.testing.assert_array_equal(served.threshold, cold.threshold)
        np.testing.assert_array_equal(served.sens, cold.sens)
        np.testing.assert_array_equal(served.cover_edge, cold.cover_edge)

    @invariant()
    def covers_equal_dsu_ascent(self):
        g, orc = self.up.graph, self.up.oracle
        tree = RootedTree(parent=orc.parent, root=orc.root)
        nt = np.flatnonzero(~g.tree_mask)
        _mc, cover = covering_ascent(tree, g.u[nt], g.v[nt], g.w[nt], nt)
        t_idx = np.flatnonzero(g.tree_mask)
        tu, tv = g.u[t_idx], g.v[t_idx]
        child = np.where(orc.parent[tu] == tv, tu, tv)
        np.testing.assert_array_equal(orc.cover_edge[t_idx], cover[child])


TestWritePathModel = WritePathMachine.TestCase
TestWritePathModel.settings = settings(
    max_examples=15, stateful_step_count=10, deadline=None,
    derandomize=True,
)
