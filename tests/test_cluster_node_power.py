"""Tests for compute nodes and the cluster power-budget manager."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster.node import ComputeNode
from repro.cluster.powerbudget import ClusterPowerManager, PowerRequest
from repro.errors import ConfigurationError, PowerCapError
from repro.gpu.mig import S1, solo_state
from repro.gpu.spec import GPU_SPECS
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


class TestPowerRequest:
    def test_valid_request(self):
        request = PowerRequest(node_id=0, desired_w=230, minimum_w=100)
        assert request.desired_w == 230

    def test_desired_below_minimum_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerRequest(node_id=0, desired_w=90, minimum_w=100)

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerRequest(node_id=0, desired_w=0, minimum_w=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            PowerRequest(node_id=0, desired_w=value, minimum_w=150.0)
        with pytest.raises(ConfigurationError, match="finite"):
            PowerRequest(node_id=0, desired_w=250.0, minimum_w=value)


class TestClusterPowerManager:
    @pytest.fixture()
    def manager(self):
        return ClusterPowerManager()

    def test_empty_requests(self, manager):
        assert manager.distribute([], 1000.0) == {}

    def test_ample_budget_grants_everyone_their_wish(self, manager):
        requests = [
            PowerRequest(0, desired_w=250, minimum_w=100),
            PowerRequest(1, desired_w=150, minimum_w=100),
        ]
        allocation = manager.distribute(requests, total_budget_w=500)
        assert allocation[0] == pytest.approx(250)
        assert allocation[1] == pytest.approx(150)

    def test_scarce_budget_scales_extras_proportionally(self, manager):
        requests = [
            PowerRequest(0, desired_w=300, minimum_w=100),
            PowerRequest(1, desired_w=200, minimum_w=100),
        ]
        allocation = manager.distribute(requests, total_budget_w=350)
        assert sum(allocation.values()) == pytest.approx(350)
        # Minimums are honoured and the remaining 150 W is split 2:1.
        assert allocation[0] == pytest.approx(100 + 100)
        assert allocation[1] == pytest.approx(100 + 50)

    def test_budget_below_minimums_rejected(self, manager):
        requests = [PowerRequest(0, desired_w=200, minimum_w=150)]
        with pytest.raises(PowerCapError):
            manager.distribute(requests, total_budget_w=100)

    def test_invalid_budget_rejected(self, manager):
        with pytest.raises(ConfigurationError):
            manager.distribute([PowerRequest(0, 200, 100)], total_budget_w=0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, manager, budget):
        # min(1.0, nan) is 1.0: a NaN budget used to grant every wish.
        with pytest.raises(ConfigurationError, match="finite"):
            manager.distribute([PowerRequest(0, 200, 100)], total_budget_w=budget)

    @pytest.mark.parametrize(
        "desired, minimum",
        [
            ((200.0, math.nan), (100.0, 100.0)),
            ((200.0, math.inf), (100.0, 100.0)),
            ((200.0, 200.0), (100.0, math.nan)),
            ((200.0, math.inf), (100.0, math.inf)),
        ],
    )
    def test_non_finite_demands_rejected(self, manager, desired, minimum):
        with pytest.raises(ConfigurationError, match="finite"):
            manager.distribute_demands(
                [0, 1], np.array(desired), np.array(minimum), total_budget_w=400.0
            )

    def test_allocation_never_exceeds_device_maximum(self, manager):
        requests = [PowerRequest(0, desired_w=300, minimum_w=100)]
        allocation = manager.distribute(requests, total_budget_w=1000)
        assert allocation[0] <= manager._spec.max_power_cap_w

    def test_headroom(self, manager):
        requests = [PowerRequest(0, desired_w=150, minimum_w=100)]
        allocation = manager.distribute(requests, total_budget_w=400)
        assert manager.headroom(allocation, 400) == pytest.approx(250)


class TestOversubscribedBudgets:
    """The regime the event simulator exercises: demand exceeds the budget."""

    @pytest.fixture()
    def manager(self):
        return ClusterPowerManager()

    def test_budget_exactly_at_minimums_grants_minimums_only(self, manager):
        requests = [
            PowerRequest(0, desired_w=250, minimum_w=100),
            PowerRequest(1, desired_w=250, minimum_w=100),
        ]
        allocation = manager.distribute(requests, total_budget_w=200)
        assert allocation == {0: pytest.approx(100), 1: pytest.approx(100)}
        assert manager.headroom(allocation, 200) == pytest.approx(0.0)

    def test_oversubscribed_budget_is_fully_spent(self, manager):
        requests = [
            PowerRequest(node_id, desired_w=250, minimum_w=100)
            for node_id in range(4)
        ]
        allocation = manager.distribute(requests, total_budget_w=700)
        assert sum(allocation.values()) == pytest.approx(700)
        # Equal demand: the shortage is shared equally.
        assert all(watts == pytest.approx(175) for watts in allocation.values())

    def test_unequal_extras_share_shortage_proportionally(self, manager):
        requests = [
            PowerRequest(0, desired_w=300, minimum_w=100),  # +200 extra
            PowerRequest(1, desired_w=150, minimum_w=100),  # +50 extra
        ]
        allocation = manager.distribute(requests, total_budget_w=300)
        # 100 W of extras split 200:50 = 4:1.
        assert allocation[0] == pytest.approx(100 + 80)
        assert allocation[1] == pytest.approx(100 + 20)

    def test_no_node_gets_more_than_it_desired(self, manager):
        requests = [
            PowerRequest(0, desired_w=120, minimum_w=100),
            PowerRequest(1, desired_w=290, minimum_w=100),
        ]
        allocation = manager.distribute(requests, total_budget_w=400)
        assert allocation[0] <= 120 + 1e-9
        assert allocation[1] <= 290 + 1e-9

    def test_single_watt_of_slack_distributes_without_error(self, manager):
        requests = [
            PowerRequest(0, desired_w=250, minimum_w=100),
            PowerRequest(1, desired_w=250, minimum_w=100),
        ]
        allocation = manager.distribute(requests, total_budget_w=201)
        assert sum(allocation.values()) == pytest.approx(201)
        assert min(allocation.values()) >= 100

    def test_headroom_never_negative_even_when_overallocated(self, manager):
        # headroom() clamps at zero if an allocation somehow exceeds budget.
        assert manager.headroom({0: 300.0, 1: 300.0}, 500.0) == 0.0
