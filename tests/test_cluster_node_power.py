"""Tests for compute nodes and the cluster power-budget manager."""

from __future__ import annotations

import math

import pytest

from repro.cluster.node import ComputeNode
from repro.cluster.powerbudget import ClusterPowerManager
from repro.errors import ConfigurationError, PowerCapError
from repro.gpu.mig import S1, solo_state
from repro.gpu.spec import A100_SPEC, GPU_SPECS
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.workloads.pairs import corun_pair
from repro.workloads.suite import DEFAULT_SUITE


class TestComputeNode:
    @pytest.fixture()
    def node(self):
        return ComputeNode(node_id=0, simulator=PerformanceSimulator(noise=no_noise()))

    def test_starts_free_and_unpartitioned(self, node):
        assert node.is_free(0.0)
        assert node.current_partition is None
        assert node.power_limit_w == node.spec.default_power_limit_w

    def test_configure_applies_partition_and_cap(self, node):
        node.configure(S1, 210)
        assert node.current_partition is S1
        assert node.power_limit_w == 210.0

    def test_configured_cap_has_milliwatt_granularity(self, node):
        node.configure(S1, 187.12345)
        assert node.power_limit_w == 187.123
        node.configure(S1, 187.1235001)
        assert node.power_limit_w == 187.124

    def test_release_clears_partition(self, node):
        node.configure(S1, 210)
        node.release()
        assert node.current_partition is None
        assert node.power_limit_w == 210.0

    def test_execute_group_returns_measured_result(self, node):
        kernels = list(corun_pair("CI-US1").kernels())
        result = node.execute_group(kernels, S1, 230)
        assert result.n_apps == 2
        assert result.power_cap_w == 230
        assert node.power_limit_w == 230.0
        # The node tears the partition down after the run.
        assert node.current_partition is None

    def test_exclusive_run_leaves_the_cap_unchanged(self, node):
        node.configure(S1, 190.5)
        node.release()
        node.execute_exclusive(DEFAULT_SUITE.get("dgemm"))
        assert node.power_limit_w == 190.5

    def test_execute_exclusive_matches_reference_time(self, node):
        kernel = DEFAULT_SUITE.get("dgemm")
        assert node.execute_exclusive(kernel) == pytest.approx(
            node.simulator.reference_time(kernel)
        )

    @pytest.mark.parametrize("cap", [90.0, math.nan, math.inf])
    def test_rejected_cap_leaves_the_node_unchanged(self, node, cap):
        node.configure(S1, 210)
        node.release()
        kernels = list(corun_pair("CI-US1").kernels())
        with pytest.raises(PowerCapError):
            node.execute_group(kernels, S1, cap)
        with pytest.raises(PowerCapError):
            node.configure(S1, cap)
        assert node.power_limit_w == 210.0
        assert node.current_partition is None

    def test_busy_window(self, node):
        node.busy_until = 10.0
        assert not node.is_free(5.0)
        assert node.is_free(10.0)



class TestNodePowerLimitOnEverySpec:
    """The node's recorded cap follows each chip's own power-cap range."""

    @pytest.fixture(params=sorted(GPU_SPECS))
    def node(self, request):
        return ComputeNode(node_id=0, spec=GPU_SPECS[request.param])

    def test_fresh_node_reports_the_default_limit(self, node):
        assert node.power_limit_w == node.spec.default_power_limit_w
        assert node.current_partition is None

    def test_range_edges_are_recorded_exactly(self, node):
        spec = node.spec
        state = solo_state(spec.mig_gpcs)
        node.configure(state, spec.min_power_cap_w)
        assert node.power_limit_w == spec.min_power_cap_w
        node.configure(state, spec.max_power_cap_w)
        assert node.power_limit_w == spec.max_power_cap_w
        node.configure(state, spec.min_power_cap_w + 0.0004)
        assert node.power_limit_w == spec.min_power_cap_w
        assert node.current_partition is state

    def test_one_milliwatt_outside_the_range_is_rejected(self, node):
        spec = node.spec
        state = solo_state(spec.mig_gpcs)
        for cap in (spec.min_power_cap_w - 0.001, spec.max_power_cap_w + 0.001):
            with pytest.raises(PowerCapError):
                node.configure(state, cap)
        assert node.power_limit_w == spec.default_power_limit_w
        assert node.current_partition is None


def _split(budget_w, caps):
    """The A100 shares after node ``i`` requests ``caps[i]`` and a rebalance.

    The A100's caps range over [100, 300] W, so every minimum is 100 W.
    """
    manager = ClusterPowerManager(A100_SPEC, range(len(caps)), budget_w)
    for position, cap in enumerate(caps):
        manager.request(position, cap)
    manager.rebalance()
    return manager.shares


class TestClusterPowerManager:
    def test_ample_budget_grants_everyone_their_wish(self):
        shares = _split(500, [250, 150])
        assert shares[0] == pytest.approx(250)
        assert shares[1] == pytest.approx(150)

    def test_scarce_budget_scales_extras_proportionally(self):
        shares = _split(350, [300, 200])
        assert sum(shares.values()) == pytest.approx(350)
        # Minimums are honoured and the remaining 150 W is split 2:1.
        assert shares[0] == pytest.approx(100 + 100)
        assert shares[1] == pytest.approx(100 + 50)

    def test_budget_below_minimums_rejected(self):
        with pytest.raises(PowerCapError):
            ClusterPowerManager(A100_SPEC, [0, 1], total_budget_w=150)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterPowerManager(A100_SPEC, [0], total_budget_w=0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, budget):
        # min(1.0, nan) is 1.0: a NaN budget used to grant every wish.
        with pytest.raises(ConfigurationError, match="finite"):
            ClusterPowerManager(A100_SPEC, [0], total_budget_w=budget)

    @pytest.mark.parametrize("demand", [math.nan, math.inf])
    def test_non_finite_demands_rejected(self, demand):
        with pytest.raises(ConfigurationError, match="finite"):
            _split(400, [200, demand])

    def test_allocation_never_exceeds_device_maximum(self):
        shares = _split(1000, [400])
        assert shares[0] == A100_SPEC.max_power_cap_w

    def test_first_split_runs_every_node_free(self):
        # Free nodes demand the default limit: 2 x 250 W fit in 600 W.
        manager = ClusterPowerManager(A100_SPEC, [4, 9], total_budget_w=600)
        assert manager.shares == {4: 250.0, 9: 250.0}

    def test_cap_for_clamps_to_the_share_and_the_minimum(self):
        manager = ClusterPowerManager(A100_SPEC, [4, 9], total_budget_w=360)
        assert manager.shares == {4: 180.0, 9: 180.0}
        assert manager.cap_for(4, 230.0) == 180.0
        assert manager.cap_for(9, 150.0) == 150.0
        assert manager.cap_for(9, 90.0) == A100_SPEC.min_power_cap_w

    def test_rebalance_splits_only_after_a_demand_is_set(self, monkeypatch):
        calls = []
        split = ClusterPowerManager.distribute_demands

        def counting_split(manager):
            calls.append(manager)
            return split(manager)

        monkeypatch.setattr(ClusterPowerManager, "distribute_demands", counting_split)
        manager = ClusterPowerManager(A100_SPEC, [0, 1], total_budget_w=400)
        assert len(calls) == 1  # the first split
        manager.rebalance()
        manager.rebalance()
        assert len(calls) == 1
        # A release marks the demands changed even when the value is the
        # same (the node was free already), so the next rebalance splits.
        manager.release(0)
        manager.rebalance()
        assert len(calls) == 2
        manager.rebalance()
        assert len(calls) == 2


class TestOversubscribedBudgets:
    """The regime the event simulator exercises: demand exceeds the budget."""

    def test_budget_exactly_at_minimums_grants_minimums_only(self):
        shares = _split(200, [250, 250])
        assert shares == {0: pytest.approx(100), 1: pytest.approx(100)}
        assert 200 - sum(shares.values()) == pytest.approx(0.0)

    def test_oversubscribed_budget_is_fully_spent(self):
        shares = _split(700, [250] * 4)
        assert sum(shares.values()) == pytest.approx(700)
        # Equal demand: the shortage is shared equally.
        assert all(watts == pytest.approx(175) for watts in shares.values())

    def test_unequal_extras_share_shortage_proportionally(self):
        shares = _split(300, [300, 150])  # +200 and +50 extra
        # 100 W of extras split 200:50 = 4:1.
        assert shares[0] == pytest.approx(100 + 80)
        assert shares[1] == pytest.approx(100 + 20)

    def test_no_node_gets_more_than_it_desired(self):
        shares = _split(400, [120, 290])
        assert shares[0] <= 120 + 1e-9
        assert shares[1] <= 290 + 1e-9

    def test_single_watt_of_slack_distributes_without_error(self):
        shares = _split(201, [250, 250])
        assert sum(shares.values()) == pytest.approx(201)
        assert min(shares.values()) >= 100
