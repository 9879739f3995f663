"""Planner/optimizer: plan shapes, rewrite rules, lazy-table semantics.

Three layers:

1. golden plan-shape fixtures — per-pipeline-phase counts of elided
   sorts and fused joins for one fixed seeded instance, so an optimizer
   regression that silently stops firing is caught even though outputs
   would remain correct;
2. rewrite unit tests — each rule (elide-sort, reuse-sort, fuse-reduce-
   join, operator selection, dup-check elision) observed directly on
   the plan log, with outputs compared bitwise (values *and* dtypes)
   against the eager engine;
3. lazy-table mechanics — deferral until flush points, error timing at
   the logical call site, schema/cardinality without materialisation.
"""

import numpy as np
import pytest

from repro.core.sensitivity import mst_sensitivity
from repro.core.verification import distributed_hint
from repro.errors import KeyPackingError, ProtocolError
from repro.graph.generators import known_mst_instance
from repro.mpc import LocalRuntime, MPCConfig, Table, make_runtime
from repro.mpc.optimizer import MERGE_MIN_QUERIES, MERGE_QUERY_RATIO
from repro.mpc.plan import LazyTable


def planned_rt(**kw) -> LocalRuntime:
    return LocalRuntime(MPCConfig(seed=1234, planner=True, **kw))


def eager_rt(**kw) -> LocalRuntime:
    return LocalRuntime(MPCConfig(seed=1234, planner=False, **kw))


def assert_tables_bitwise(a: Table, b: Table):
    assert tuple(a.columns) == tuple(b.columns)
    for c in a.columns:
        assert a.col(c).dtype == b.col(c).dtype, c
        np.testing.assert_array_equal(a.col(c), b.col(c), err_msg=c)


# -- golden plan-shape fixtures ------------------------------------------------

#: Fixed instance: random shape, n=256, extra_m=512, rng=7 — recorded
#: per-phase logical sort counts and optimizer firings for the full
#: sensitivity pipeline on the local engine. If a rule silently stops
#: firing (counts drop to 0 / shift), this fails even though outputs
#: would still be bit-identical.
GOLDEN_PHASE_SHAPE = {
    "substrate/validate": {"nodes": 21, "n_sort": 0, "elided_sort": 0, "fused_join": 0},
    "substrate/rooting": {"nodes": 28, "n_sort": 1, "elided_sort": 0, "fused_join": 1},
    "substrate/dfs": {"nodes": 28, "n_sort": 2, "elided_sort": 0, "fused_join": 0},
    "substrate/diameter": {"nodes": 10, "n_sort": 0, "elided_sort": 0, "fused_join": 0},
    "core/clustering": {"nodes": 56, "n_sort": 0, "elided_sort": 0, "fused_join": 0},
    "core/lca": {"nodes": 29, "n_sort": 12, "elided_sort": 2, "fused_join": 0},
    "core/adgraph": {"nodes": 1, "n_sort": 0, "elided_sort": 0, "fused_join": 0},
    "core/labels": {"nodes": 115, "n_sort": 19, "elided_sort": 1, "fused_join": 0},
    "core/pathmax": {"nodes": 11, "n_sort": 2, "elided_sort": 1, "fused_join": 0},
    "core/decide": {"nodes": 3, "n_sort": 0, "elided_sort": 0, "fused_join": 1},
    "core/sens-contract": {"nodes": 134, "n_sort": 19, "elided_sort": 1, "fused_join": 0},
    "core/sens-cluster": {"nodes": 17, "n_sort": 2, "elided_sort": 1, "fused_join": 1},
    "core/sens-unwind": {"nodes": 82, "n_sort": 8, "elided_sort": 1, "fused_join": 8},
    "core/sens-finalize": {"nodes": 2, "n_sort": 0, "elided_sort": 0, "fused_join": 1},
}

GOLDEN_TOTALS = {"nodes": 537, "n_sort": 65, "elided_sort": 7,
                 "fused_join": 12}


class TestGoldenPlanShape:
    @pytest.fixture(scope="class")
    def plan_log(self):
        g, _ = known_mst_instance("random", 256, extra_m=512, rng=7)
        rt = make_runtime("local", MPCConfig(),
                          total_words_hint=distributed_hint(g))
        mst_sensitivity(g, runtime=rt)
        return rt.planner.log

    def test_per_phase_shape(self, plan_log):
        summary = plan_log.phase_summary()
        assert set(summary) == set(GOLDEN_PHASE_SHAPE)
        for phase, want in GOLDEN_PHASE_SHAPE.items():
            got = summary[phase]
            for key, value in want.items():
                assert got.get(key, 0) == value, (phase, key, got)

    def test_totals(self, plan_log):
        tot = plan_log.totals()
        for key, value in GOLDEN_TOTALS.items():
            assert tot.get(key, 0) == value, key

    def test_rewrites_fire_broadly(self, plan_log):
        """Coarse floors that should survive small refactors: the join
        rewrites and sub-plan reuse must stay the common case."""
        tot = plan_log.totals()
        assert tot.get("phys_direct-address", 0) >= 150
        assert tot.get("phys_dense-gather", 0) >= 30
        assert tot.get("reused", 0) >= 50
        # binary-search survives only for wide-span composite keys
        assert tot.get("phys_binary-search", 0) <= tot["n_lookup"] // 3


# -- rewrite rules, observed on the log ---------------------------------------


class TestSortRules:
    def test_sort_of_sorted_input_elided(self):
        rt = planned_rt()
        t = Table(k=np.arange(50, dtype=np.int64), v=np.arange(50.0))
        out = rt.sort(t, ("k",))
        out.col("k")  # force
        node = out.plan_node
        assert node.status == "elided"
        assert node.physical == "identity"
        assert_tables_bitwise(Table._wrap(dict(out._materialize()._cols)),
                              eager_rt().sort(t, ("k",)))

    def test_unsorted_input_executes(self, rng):
        rt = planned_rt()
        k = rng.integers(0, 100, size=64)
        t = Table(k=k, v=rng.standard_normal(64))
        out = rt.sort(t, ("k",))
        out.col("k")
        assert out.plan_node.status == "executed"
        assert_tables_bitwise(Table._wrap(dict(out._cols)),
                              eager_rt().sort(t, ("k",)))

    def test_same_sort_reused(self, rng):
        rt = planned_rt()
        t = Table(k=rng.integers(0, 100, size=64))
        a = rt.sort(t, ("k",))
        b = rt.sort(t, ("k",))
        assert b is a  # common sub-plan: same node output
        statuses = [n.status for n in rt.planner.log.nodes if n.op == "sort"]
        assert statuses == ["pending", "reused"]
        assert rt.rounds == 2  # both *logical* sorts are charged

    def test_elision_charges_rounds(self):
        """Elision is physical only — the logical plan still pays."""
        rt = planned_rt()
        t = Table(k=np.arange(10, dtype=np.int64))
        out = rt.sort(t, ("k",))
        out.col("k")
        assert out.plan_node.status == "elided"
        assert rt.rounds == 1


class TestJoinRules:
    def test_fuse_reduce_join(self, rng):
        rt = planned_rt()
        t = Table(k=rng.integers(0, 40, size=200),
                  v=rng.standard_normal(200))
        groups = rt.reduce_by_key(t, ("k",), {"m": ("v", "max")})
        q = Table(k=rng.integers(0, 40, size=64))
        out = rt.lookup(q, ("k",), groups, ("k",), {"m": "m"},
                        default={"m": -1.0})
        node = rt.planner.log.nodes[-1]
        assert node.op == "lookup" and node.status == "fused"
        ref = eager_rt()
        eg = ref.reduce_by_key(t, ("k",), {"m": ("v", "max")})
        eo = ref.lookup(q, ("k",), eg, ("k",), {"m": "m"}, default={"m": -1.0})
        assert_tables_bitwise(out, eo)

    def test_dense_gather_selected(self):
        rt = planned_rt()
        data = Table(k=np.arange(100, dtype=np.int64),
                     v=np.arange(100, dtype=np.int64) * 3)
        q = Table(k=np.array([7, 99, 0, 42], dtype=np.int64))
        out = rt.lookup(q, ("k",), data, ("k",), {"v": "v"})
        assert rt.planner.log.nodes[-1].physical == "dense-gather"
        assert out.col("v").tolist() == [21, 297, 0, 126]

    def test_wide_span_falls_back_to_binary_search(self):
        rt = planned_rt()
        data = Table(k=np.array([0, 10**12, 2 * 10**12], dtype=np.int64),
                     v=np.array([1, 2, 3], dtype=np.int64))
        q = Table(k=np.array([10**12, 5], dtype=np.int64))
        out = rt.lookup(q, ("k",), data, ("k",), {"v": "v"},
                        default={"v": -1})
        assert rt.planner.log.nodes[-1].physical == "binary-search"
        assert out.col("v").tolist() == [2, -1]

    def test_direct_address_predecessor_matches_eager(self, rng):
        rt, ref = planned_rt(), eager_rt()
        dk = np.sort(rng.integers(0, 500, size=80))
        data = Table(k=dk, v=np.arange(80, dtype=np.int64))
        q = Table(k=rng.integers(-10, 520, size=200))
        out = rt.predecessor(q, "k", data, "k", {"v": "v"}, {"v": -5})
        assert rt.planner.log.nodes[-1].physical in ("direct-address",
                                                     "dense-gather")
        eo = ref.predecessor(q, "k", data, "k", {"v": "v"}, {"v": -5})
        assert_tables_bitwise(out, eo)

    @pytest.mark.parametrize("sort", [True, False])
    def test_merge_search_predecessor_matches_eager(self, rng, sort):
        """A wide-span predecessor join with many queries merges; the
        output equals the eager binary search's, unsorted data included
        (remapped through the join's order)."""
        rt, ref = planned_rt(), eager_rt()
        dk = rng.integers(0, 1 << 40, size=300)
        dk[10:20] = dk[5]  # duplicates: the last one <= the query wins
        if sort:
            dk = np.sort(dk)
        data = Table(k=dk, v=np.arange(300, dtype=np.int64),
                     w=rng.standard_normal(300))
        q = Table(k=np.concatenate([
            rng.choice(dk, MERGE_MIN_QUERIES // 2),
            rng.integers(-5, (1 << 40) + 5, MERGE_MIN_QUERIES // 2)]))
        out = rt.predecessor(q, "k", data, "k", {"v": "v", "w": "w"},
                             {"v": -5, "w": float("-inf")})
        assert rt.planner.log.nodes[-1].physical == "merge-search"
        eo = ref.predecessor(q, "k", data, "k", {"v": "v", "w": "w"},
                             {"v": -5, "w": float("-inf")})
        assert_tables_bitwise(out, eo)

    @pytest.mark.parametrize("nq,nd,exact,want", [
        (MERGE_MIN_QUERIES, 8, False, "merge-search"),
        (MERGE_MIN_QUERIES - 1, 8, False, "binary-search"),
        (MERGE_MIN_QUERIES, MERGE_MIN_QUERIES // MERGE_QUERY_RATIO, False,
         "merge-search"),
        (MERGE_MIN_QUERIES, MERGE_MIN_QUERIES // MERGE_QUERY_RATIO + 1,
         False, "binary-search"),
        (MERGE_MIN_QUERIES, 8, True, "binary-search"),
    ])
    def test_merge_search_selection(self, rng, nq, nd, exact, want):
        """Chosen from the join's own sizes: predecessor joins only, at
        or above the query floor and the query/data ratio."""
        rt, ref = planned_rt(), eager_rt()
        data = Table(k=rng.choice(1 << 40, size=nd, replace=False),
                     v=np.arange(nd, dtype=np.int64))
        q = Table(k=np.concatenate([data.col("k"),
                                    rng.integers(0, 1 << 40, nq - nd)]))
        outs = []
        for r in (rt, ref):
            if exact:
                outs.append(r.lookup(q, ("k",), data, ("k",), {"v": "v"},
                                     default={"v": -1}))
            else:
                outs.append(r.predecessor(q, "k", data, "k", {"v": "v"},
                                          {"v": -1}))
        assert rt.planner.log.nodes[-1].physical == want
        assert_tables_bitwise(*outs)

    def test_duplicate_first_wins_matches_eager(self, rng):
        """check_unique=False + duplicate keys: searchsorted-left picks
        the first duplicate; direct addressing must agree."""
        rt, ref = planned_rt(), eager_rt()
        dk = np.sort(rng.integers(0, 30, size=60))  # many duplicates
        data = Table(k=dk, v=np.arange(60, dtype=np.int64))
        q = Table(k=rng.integers(0, 35, size=100))
        out = rt.lookup(q, ("k",), data, ("k",), {"v": "v"},
                        default={"v": -1}, check_unique=False)
        eo = ref.lookup(q, ("k",), data, ("k",), {"v": "v"},
                        default={"v": -1}, check_unique=False)
        assert_tables_bitwise(out, eo)

    def test_dup_check_elided_on_second_lookup(self, rng):
        rt = planned_rt()
        data = Table(k=np.sort(rng.choice(1000, size=50, replace=False)),
                     v=np.arange(50, dtype=np.int64))
        q = Table(k=rng.integers(0, 1000, size=20))
        rt.lookup(q, ("k",), data, ("k",), {"v": "v"}, default={"v": -1})
        rt.lookup(q, ("k",), data, ("k",), {"v": "v"}, default={"v": -1})
        notes = [n.note for n in rt.planner.log.nodes if n.op == "lookup"]
        assert "dup-check elided" in notes[1]

    def test_with_cols_overwriting_key_invalidates_sortedness(self, rng):
        """Regression: replacing a sorted key column on a lazy sort
        output must drop the table's sorted_by fact — otherwise a later
        join trusts stale sortedness and answers from unsorted data."""
        rt, ref = planned_rt(), eager_rt()
        t = Table(k=rng.integers(0, 50, size=40), v=rng.standard_normal(40))
        s = rt.sort(t, ("k",))
        unsorted = rng.permutation(np.arange(40, dtype=np.int64))
        s2 = s.with_cols(k=unsorted)
        q = Table(k=rng.integers(0, 40, size=25))
        out = rt.lookup(q, ("k",), s2, ("k",), {"v": "v"},
                        default={"v": -1.0})
        es = ref.sort(t, ("k",)).with_cols(k=unsorted)
        eo = ref.lookup(q, ("k",), es, ("k",), {"v": "v"},
                        default={"v": -1.0})
        assert_tables_bitwise(out, eo)

    def test_rename_collision_drops_props(self, rng):
        rt = planned_rt()
        t = Table(k=rng.integers(0, 50, size=20), v=rng.integers(0, 5, size=20))
        s = rt.sort(t, ("k",))
        collided = s.rename({"v": "k"})  # two columns mapped onto "k"
        assert rt.planner.props_of(collided) is None or \
            rt.planner.props_of(collided).sorted_by is None

    def test_address_table_reused_across_joins(self, rng):
        rt = planned_rt()
        data = Table(k=np.sort(rng.choice(400, size=50, replace=False)),
                     v=np.arange(50, dtype=np.int64))
        qa = Table(k=rng.integers(0, 400, size=30))
        qb = Table(k=rng.integers(0, 400, size=30))
        rt.lookup(qa, ("k",), data, ("k",), {"v": "v"}, default={"v": -1})
        rt.lookup(qb, ("k",), data, ("k",), {"v": "v"}, default={"v": -1})
        nodes = [n for n in rt.planner.log.nodes if n.op == "lookup"]
        assert not nodes[0].reuse and nodes[1].reuse


class TestRandomizedPrimitiveEquivalence:
    """Planned vs eager, bitwise (values and dtypes), on random tables."""

    @pytest.mark.parametrize("seed", range(6))
    def test_join_sweep(self, seed):
        rng = np.random.default_rng(seed)
        rt, ref = planned_rt(), eager_rt()
        nd = int(rng.integers(0, 80))
        nq = int(rng.integers(0, 120))
        dk = np.sort(rng.choice(3000, size=nd, replace=False)) \
            if rng.random() < 0.5 else rng.choice(3000, size=nd, replace=False)
        data = Table(k=dk.astype(np.int64),
                     f=rng.standard_normal(nd),
                     i=rng.integers(0, 9, size=nd))
        q = Table(k=rng.integers(0, 3200, size=nq))
        kw = dict(default={"f": -1.5, "i": -1})
        po = rt.lookup(q, ("k",), data, ("k",), {"f": "f", "i": "i"}, **kw)
        eo = ref.lookup(q, ("k",), data, ("k",), {"f": "f", "i": "i"}, **kw)
        assert_tables_bitwise(po, eo)
        pp = rt.predecessor(q, "k", data, "k", {"f": "f"}, {"f": float("-inf")})
        ep = ref.predecessor(q, "k", data, "k", {"f": "f"}, {"f": float("-inf")})
        assert_tables_bitwise(pp, ep)
        assert rt.rounds == ref.rounds

    @pytest.mark.parametrize("seed", range(4))
    def test_sort_reduce_scan_sweep(self, seed):
        rng = np.random.default_rng(100 + seed)
        rt, ref = planned_rt(), eager_rt()
        n = int(rng.integers(1, 150))
        t = Table(k=rng.integers(0, 12, size=n),
                  v=rng.standard_normal(n))
        ps = rt.sort(t, ("k",))
        es = ref.sort(t, ("k",))
        ps._materialize()
        assert_tables_bitwise(Table._wrap(dict(ps._cols)), es)
        pr = rt.reduce_by_key(t, ("k",), {"s": ("v", "sum"),
                                          "m": ("v", "min")})
        er = ref.reduce_by_key(t, ("k",), {"s": ("v", "sum"),
                                           "m": ("v", "min")})
        assert_tables_bitwise(pr, er)
        np.testing.assert_array_equal(
            rt.scan(es, "v", "sum", by=("k",), exclusive=True),
            ref.scan(es, "v", "sum", by=("k",), exclusive=True),
        )
        assert rt.scalar(t, "v", "max") == ref.scalar(t, "v", "max")
        assert rt.rounds == ref.rounds


# -- lazy tables and flush points ---------------------------------------------


class TestLazyFlushPoints:
    def test_sort_defers_until_column_access(self, rng):
        rt = planned_rt()
        t = Table(k=rng.integers(0, 50, size=40), v=rng.standard_normal(40))
        out = rt.sort(t, ("k",))
        assert isinstance(out, LazyTable)
        assert out.plan_node.status == "pending"
        assert len(out) == 40 and out.words == 80          # no execution
        assert set(out.columns) == {"k", "v"}
        out.col("v")                                       # flush point
        assert out.plan_node.status == "executed"

    def test_phase_exit_flushes(self, rng):
        rt = planned_rt()
        t = Table(k=rng.integers(0, 50, size=16))
        with rt.phase("p"):
            out = rt.sort(t, ("k",))
            assert out.plan_node.status == "pending"
        assert out.plan_node.status in ("executed", "elided")

    def test_scalar_read_flushes(self, rng):
        rt = planned_rt()
        t = Table(k=rng.integers(0, 50, size=16))
        out = rt.sort(t, ("k",))
        rt.scalar(Table(x=np.ones(3, dtype=np.int64)), "x", "sum")
        assert out.plan_node.status in ("executed", "elided")

    def test_lazy_derivations_stay_lazy(self, rng):
        rt = planned_rt()
        t = Table(k=rng.integers(0, 50, size=8), v=rng.standard_normal(8))
        out = rt.sort(t, ("k",))
        derived = out.with_cols(extra=np.arange(8, dtype=np.int64))
        sel = derived.select(["k", "extra"])
        assert out.plan_node.status == "pending"
        assert set(sel.columns) == {"k", "extra"}
        assert len(sel) == 8
        np.testing.assert_array_equal(np.sort(t.col("k")), sel.col("k"))

    def test_concat_forces(self, rng):
        rt = planned_rt()
        t = Table(k=rng.integers(0, 50, size=8))
        out = rt.sort(t, ("k",))
        cat = Table.concat([out, Table(k=np.array([99], dtype=np.int64))])
        assert len(cat) == 9
        assert out.plan_node.status in ("executed", "elided")

    def test_error_timing_at_logical_call_site(self):
        rt = planned_rt()
        with pytest.raises(KeyPackingError):
            rt.sort(Table(a=[1.5]), ("a",))
        with pytest.raises(ProtocolError):
            rt.lookup(Table(k=[1]), ("k",), Table(k=[1, 1], v=[1, 2]),
                      ("k",), {"v": "v"})
        with pytest.raises(ProtocolError):
            rt.lookup(Table(k=[9]), ("k",), Table(k=[1], v=[1]), ("k",),
                      {"v": "v"})

    def test_expand_join_identical_planned_vs_eager(self, rng):
        rt, ref = planned_rt(), eager_rt()
        q = Table(g=rng.integers(0, 8, size=20), tag=np.arange(20))
        d = Table(g=rng.integers(0, 8, size=50), val=rng.standard_normal(50))
        po = rt.expand_join(q, ("g",), d, ("g",), {"val": "val"},
                            carry=("tag",))
        eo = ref.expand_join(q, ("g",), d, ("g",), {"val": "val"},
                             carry=("tag",))
        assert_tables_bitwise(po._materialize(), eo)
        assert rt.rounds == ref.rounds
