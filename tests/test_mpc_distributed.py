"""Message-level engine: protocol behaviour and model enforcement."""

import numpy as np
import pytest

from repro.errors import CapacityError, ValidationError
from repro.mpc import DistributedRuntime, Fabric, FleetState, MPCConfig, Table
from repro.mpc.cost import CostTracker


class TestColumnarFabric:
    """The vectorised route/control rounds of the columnar fleet."""

    def test_route_is_destination_stable_permutation(self):
        t = CostTracker()
        f = Fabric(3, 1000, t)
        # rows machine-major: machine 0 holds [0,1], machine 1 holds [2]
        state = FleetState({"x": np.array([10, 11, 12])},
                           np.array([0, 0, 1], dtype=np.int64))
        out = f.route(state, np.array([2, 1, 1]), words_per_row=1)
        # receiver-major, then sender, then send order
        assert out.mid.tolist() == [1, 1, 2]
        assert out.cols["x"].tolist() == [11, 12, 10]
        assert f.rounds_executed == 1
        assert t.report().transport_rounds == 1
        assert f.words_moved == 3

    def test_route_send_cap_enforced(self):
        f = Fabric(2, 10, CostTracker())
        state = FleetState({"x": np.arange(11)}, np.zeros(11, dtype=np.int64))
        with pytest.raises(CapacityError) as e:
            f.route(state, np.ones(11, dtype=np.int64), words_per_row=1)
        assert e.value.machine == 0

    def test_route_receive_cap_enforced(self):
        f = Fabric(3, 10, CostTracker())
        mid = np.repeat([0, 1], 6)
        state = FleetState({"x": np.arange(12)}, mid)
        with pytest.raises(CapacityError) as e:
            f.route(state, np.full(12, 2, dtype=np.int64), words_per_row=1)
        assert e.value.machine == 2
        assert e.value.words == 12

    def test_route_bad_peer_rejected(self):
        f = Fabric(2, 100, CostTracker())
        state = FleetState({"x": np.array([1])}, np.array([0]))
        with pytest.raises(ValidationError):
            f.route(state, np.array([5]), words_per_row=1)

    def test_route_words_per_row_models_record_width(self):
        # 4 rows of 3-word records: 12 words > s even though only one
        # physical column rides along
        f = Fabric(2, 10, CostTracker())
        state = FleetState({"x": np.arange(4)}, np.zeros(4, dtype=np.int64))
        with pytest.raises(CapacityError):
            f.route(state, np.ones(4, dtype=np.int64), words_per_row=3)

    def test_control_round_checks_and_charges(self):
        t = CostTracker()
        f = Fabric(3, 10, t)
        f.control(np.array([4, 0, 0]), np.array([0, 4, 0]))
        assert f.rounds_executed == 1
        assert f.words_moved == 4
        assert t.report().transport_rounds == 1
        with pytest.raises(CapacityError) as e:
            f.control(np.array([0, 11, 0]), np.array([0, 0, 11]))
        assert e.value.machine == 1  # send checked before receive


class TestDeployment:
    def test_m_le_s_required(self):
        # tiny delta + big input would need more machines than local words
        with pytest.raises(ValidationError):
            DistributedRuntime(MPCConfig(delta=0.05, min_machine_words=16 + 240),
                               total_words_hint=10_000_000)

    def test_deployment_scales_with_hint(self):
        small = DistributedRuntime(MPCConfig(delta=0.6), total_words_hint=1000)
        big = DistributedRuntime(MPCConfig(delta=0.6), total_words_hint=100_000)
        assert big.s >= small.s
        assert big.m >= small.m

    def test_oversized_table_rejected(self):
        dr = DistributedRuntime(MPCConfig(delta=0.6), total_words_hint=500)
        huge = Table(a=np.arange(100_000))
        with pytest.raises(CapacityError):
            dr.sort(huge, ("a",))


class TestProtocols:
    def setup_method(self):
        self.dr = DistributedRuntime(MPCConfig(delta=0.6, seed=7),
                                     total_words_hint=30_000)
        self.rng = np.random.default_rng(3)

    def test_sort_many_duplicates_balanced(self):
        # constant keys exercise the tie-spreading router
        t = Table(k=np.zeros(600, dtype=np.int64), g=np.arange(600))
        s = self.dr.sort(t, ("k",))
        assert s.col("g").tolist() == list(range(600))

    def test_sort_reverse_input(self):
        t = Table(k=np.arange(500)[::-1].copy())
        s = self.dr.sort(t, ("k",))
        assert np.array_equal(s.col("k"), np.arange(500))

    def test_scan_spanning_machines(self):
        n = 700
        t = Table(k=np.repeat(np.arange(7), 100), v=np.ones(n, dtype=np.int64))
        out = self.dr.scan(t, "v", "sum", by=("k",))
        assert np.array_equal(out, np.tile(np.arange(1, 101), 7))

    def test_scan_single_segment_spanning_all(self):
        t = Table(v=np.ones(800, dtype=np.int64))
        out = self.dr.scan(t, "v", "sum")
        assert out[-1] == 800

    def test_broadcast_tree_reaches_everyone(self):
        payload = Table(x=np.arange(5))
        got = self.dr._broadcast_tree(0, payload)
        assert len(got) == self.dr.m
        assert all(g.equals(payload) for g in got)

    def test_broadcast_too_large_rejected(self):
        payload = Table(x=np.arange(self.dr.s))
        with pytest.raises(CapacityError):
            self.dr._broadcast_tree(0, payload)

    def test_filter_rebalances_in_three_charged_rounds(self):
        t = Table(a=np.arange(300))
        before = self.dr.report().transport_rounds
        # skewed survivor counts per shard exercise the 3-round rebalance
        out = self.dr.filter(t, t.col("a") % 3 == 0)
        assert np.array_equal(out.col("a"), np.arange(0, 300, 3))
        # counts to 0, offsets out, rows to block positions
        assert self.dr.report().transport_rounds - before == 3

    def test_scatter_blocks_and_caps(self):
        cap, need = self.dr._scatter(300, 2)
        assert cap == self.dr._rows_cap(2)
        assert need == -(-300 // cap)
        counts = self.dr._block_counts(300, cap)
        assert counts.sum() == 300
        assert np.array_equal(np.flatnonzero(counts), np.arange(need))
        mid = self.dr._block_mid(300, cap)
        assert np.array_equal(np.bincount(mid, minlength=self.dr.m), counts)

    def test_transport_rounds_recorded(self):
        t = Table(k=self.rng.integers(0, 50, 300))
        before = self.dr.report().transport_rounds
        self.dr.sort(t, ("k",))
        assert self.dr.report().transport_rounds > before

    def test_machine_peak_tracked(self):
        t = Table(k=self.rng.integers(0, 50, 300))
        self.dr.sort(t, ("k",))
        rep = self.dr.report()
        assert 0 < rep.peak_machine_words <= self.dr.s
