"""Round-tripping and validation of the typed API request/response objects."""

from __future__ import annotations

import json
import math

import pytest

from repro.api import (
    CandidateEvaluationResult,
    DecisionRequest,
    DecisionResult,
    LatencyStatsResult,
    PartitionStateRow,
    SimulationRequest,
    SimulationResult,
    StatesRequest,
    StatesResult,
    decision_requests,
)
from repro.errors import ConfigurationError


class TestDecisionRequest:
    def test_defaults_and_normalization(self):
        request = DecisionRequest(apps=["igemm4", "stream"])
        assert request.apps == ("igemm4", "stream")
        assert request.policy == "problem1"
        assert request.power_cap_w is None
        assert request.group_size == 2

    def test_round_trip_through_json(self):
        request = DecisionRequest(
            apps=("igemm4", "stream", "bfs"),
            policy="problem2",
            alpha=0.1,
            spec="h100",
            model_path="/tmp/model.json",
        )
        document = json.loads(json.dumps(request.to_dict()))
        assert DecisionRequest.from_dict(document) == request

    def test_requests_are_hashable(self):
        a = DecisionRequest(apps=("igemm4", "stream"))
        b = DecisionRequest(apps=("igemm4", "stream"))
        assert a == b and hash(a) == hash(b)

    def test_empty_apps_rejected(self):
        with pytest.raises(ConfigurationError):
            DecisionRequest(apps=())

    def test_bare_string_apps_rejected(self):
        # A str is iterable, but per-character app names are never intended.
        with pytest.raises(ConfigurationError, match="bare"):
            DecisionRequest(apps="igemm4")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="policy"):
            DecisionRequest(apps=("stream",), policy="problem9")

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="spec"):
            DecisionRequest(apps=("stream",), spec="v100")

    @pytest.mark.parametrize("knob", ["power_cap_w", "alpha"])
    def test_nan_knob_rejected(self, knob):
        with pytest.raises(ConfigurationError, match=knob):
            DecisionRequest(apps=("stream",), **{knob: math.nan})

    def test_unknown_field_rejected_by_from_dict(self):
        with pytest.raises(ConfigurationError, match="unknown field"):
            DecisionRequest.from_dict({"apps": ["stream"], "powercap": 230})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ConfigurationError):
            DecisionRequest.from_dict({"policy": "problem1"})

    def test_decision_requests_fan_out(self):
        requests = decision_requests(
            [("igemm4", "stream"), ("hgemm", "bfs")], policy="problem2", alpha=0.1
        )
        assert [r.apps for r in requests] == [("igemm4", "stream"), ("hgemm", "bfs")]
        assert all(r.policy == "problem2" and r.alpha == 0.1 for r in requests)


class TestSimulationRequest:
    def test_round_trip_through_json(self):
        request = SimulationRequest(
            arrival_rate_per_s=3.0,
            duration_s=30.0,
            burst_size=4.0,
            mix="tensor-heavy",
            n_nodes=3,
            power_budget_w=600.0,
            repartition_latency_s=1.5,
        )
        document = json.loads(json.dumps(request.to_dict()))
        assert SimulationRequest.from_dict(document) == request

    def test_unknown_mix_rejected(self):
        with pytest.raises(ConfigurationError, match="mix"):
            SimulationRequest(mix="spiky")

    def test_non_positive_burst_size_rejected(self):
        # Would otherwise escape as a ZeroDivisionError in the generator.
        with pytest.raises(ConfigurationError, match="burst_size"):
            SimulationRequest(burst_size=0.0)

    @pytest.mark.parametrize(
        "knob",
        [
            "arrival_rate_per_s",
            "duration_s",
            "burst_size",
            "power_cap_w",
            "alpha",
            "repartition_latency_s",
            "power_budget_w",
        ],
    )
    def test_nan_knob_rejected(self, knob):
        with pytest.raises(ConfigurationError, match=knob):
            SimulationRequest(**{knob: math.nan})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown field"):
            SimulationRequest.from_dict({"arrival_rate": 2.0})


class TestStatesRequest:
    def test_round_trip(self):
        request = StatesRequest(n_apps=3, spec="a30")
        assert StatesRequest.from_dict(request.to_dict()) == request

    def test_zero_apps_rejected(self):
        with pytest.raises(ConfigurationError, match="n_apps"):
            StatesRequest(n_apps=0)


class TestDecisionResult:
    def _result(self) -> DecisionResult:
        evaluation = CandidateEvaluationResult(
            state="S1(4GPCs-3GPCs/Shared)",
            label="S1",
            power_cap_w=230.0,
            predicted_rperfs=(0.8, 0.44),
            throughput=1.24,
            fairness=0.28,
            objective=1.24,
            feasible=True,
        )
        return DecisionResult(
            policy="problem1-throughput",
            apps=("igemm4", "stream"),
            spec="a100",
            state="S1(4GPCs-3GPCs/Shared)",
            state_label="S1",
            power_cap_w=230.0,
            predicted_rperfs=(0.8, 0.44),
            predicted_throughput=1.24,
            predicted_fairness=0.28,
            predicted_objective=1.24,
            candidates_evaluated=4,
            evaluations=(evaluation,),
        )

    def test_round_trip_through_json(self):
        result = self._result()
        document = json.loads(json.dumps(result.to_dict()))
        assert DecisionResult.from_dict(document) == result

    def test_describe_wording(self):
        text = self._result().describe()
        assert text.startswith("[problem1-throughput] choose S1(4GPCs-3GPCs/Shared) @ 230W")
        assert "objective=1.2400" in text

    def test_display_prefers_label(self):
        evaluation = self._result().evaluations[0]
        assert evaluation.display == "S1"
        unlabeled = CandidateEvaluationResult(
            state="4GPCs-3GPCs/Private",
            label=None,
            power_cap_w=230.0,
            predicted_rperfs=(0.5, 0.5),
            throughput=1.0,
            fairness=1.0,
            objective=1.0,
            feasible=True,
        )
        assert unlabeled.display == "4GPCs-3GPCs/Private"


class TestStatesResult:
    def test_round_trip_through_json(self):
        result = StatesResult(
            spec="a100",
            spec_description="Simulated-A100-40GB",
            n_apps=2,
            states=(
                PartitionStateRow(
                    state="S1(4GPCs-3GPCs/Shared)",
                    option="shared",
                    total_gpcs=7,
                    mem_slices_per_app=(8, 8),
                ),
            ),
        )
        document = json.loads(json.dumps(result.to_dict()))
        assert StatesResult.from_dict(document) == result
        assert result.n_states == 1


class TestSimulationResult:
    def test_round_trip_through_json(self):
        stats = LatencyStatsResult(mean_s=1.0, p50_s=0.9, p95_s=2.0, p99_s=2.5, max_s=3.0)
        result = SimulationResult(
            label="trace",
            spec="a100",
            n_jobs=10,
            n_nodes=2,
            makespan_s=12.0,
            sustained_throughput_jobs_per_s=0.83,
            wait=stats,
            turnaround=stats,
            utilization=0.5,
            energy_wh=1.2,
            co_scheduled_jobs=6,
            exclusive_jobs=4,
            profile_runs=0,
            events_processed=20,
            repartitions=1,
            repartition_time_s=0.5,
            mig_instance_changes=2,
            power_rebalances=3,
            final_power_allocation_w={"0": 210.0, "1": 210.0},
            peak_queue_length=4,
            trace_summary="[trace] 10 jobs",
            report_summary="[trace] 10 jobs on 2 node(s): ...",
        )
        document = json.loads(json.dumps(result.to_dict()))
        assert SimulationResult.from_dict(document) == result

    def test_integer_allocation_keys_are_normalized(self):
        stats = LatencyStatsResult(mean_s=1.0, p50_s=1.0, p95_s=1.0, p99_s=1.0, max_s=1.0)
        base = SimulationResult(
            label="t",
            spec="a100",
            n_jobs=1,
            n_nodes=1,
            makespan_s=1.0,
            sustained_throughput_jobs_per_s=1.0,
            wait=stats,
            turnaround=stats,
            utilization=1.0,
            energy_wh=0.1,
            co_scheduled_jobs=0,
            exclusive_jobs=1,
            profile_runs=1,
            events_processed=2,
            repartitions=0,
            repartition_time_s=0.0,
            mig_instance_changes=0,
            power_rebalances=0,
            final_power_allocation_w={"0": 250.0},
            peak_queue_length=1,
            trace_summary="s",
            report_summary="r",
        )
        document = base.to_dict()
        document["final_power_allocation_w"] = {0: 250.0}
        assert SimulationResult.from_dict(document) == base
