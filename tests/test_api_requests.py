"""Round-tripping and validation of the typed API request/response objects."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.api import (
    DecisionRequest,
    DecisionResult,
    PartitionStateRow,
    PlannerService,
    SimulationRequest,
    SimulationResult,
    StatesRequest,
    StatesResult,
    decision_requests,
)
from repro.cli import main
from repro.cluster.events import LatencyStats
from repro.core.decision import CandidateEvaluation
from repro.errors import ConfigurationError
from repro.gpu.mig import S1


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

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("knob", ["power_cap_w", "alpha"])
    def test_infinite_knob_rejected(self, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            DecisionRequest(apps=("stream",), **{knob: value})

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

    def test_unset_trace_knobs_take_their_defaults(self):
        # A trace file sets its own arrivals, so it leaves them unset.
        knobs = ("arrival_rate_per_s", "duration_s", "mix", "seed")
        synthetic = SimulationRequest().to_dict()
        assert [synthetic[knob] for knob in knobs] == [2.0, 600.0, "steady", 2022]
        from_file = SimulationRequest(trace_path="t.csv")
        assert [from_file.to_dict()[knob] for knob in knobs] == [None] * 4
        assert SimulationRequest.from_dict(from_file.to_dict()) == from_file

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

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize(
        "knob",
        [
            "arrival_rate_per_s",
            "burst_size",
            "power_cap_w",
            "alpha",
            "repartition_latency_s",
            "power_budget_w",
        ],
    )
    def test_infinite_knob_rejected(self, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            SimulationRequest(**{knob: value})

    def test_infinite_window_left_to_n_jobs(self):
        request = SimulationRequest(duration_s=math.inf, n_jobs=10)
        assert request.duration_s == math.inf

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown field"):
            SimulationRequest.from_dict({"arrival_rate": 2.0})


#: Requests the boundary must reject before a session trains, each with
#: the CLI invocation that builds it and a word its message must contain.
REJECTED_REQUESTS = [
    pytest.param(
        "decide",
        {"apps": ["igemm4", "stream", "bfs"], "alpha": 1.5},
        ["decide", "igemm4", "stream", "bfs", "--alpha", "1.5"],
        "alpha",
        id="decide-alpha-above-range",
    ),
    pytest.param(
        "decide",
        {"apps": ["igemm4", "stream"], "alpha": -0.1},
        ["decide", "igemm4", "stream", "--alpha", "-0.1"],
        "alpha",
        id="decide-negative-alpha",
    ),
    pytest.param(
        "decide",
        {"apps": ["igemm4", "stream"], "power_cap_w": -5},
        ["decide", "igemm4", "stream", "--power-cap", "-5"],
        "power_cap_w",
        id="decide-negative-cap",
    ),
    pytest.param(
        "decide",
        {"apps": ["nope", "stream"]},
        ["decide", "nope", "stream"],
        "'nope'",
        id="decide-unknown-app",
    ),
    pytest.param(
        "simulate",
        {"alpha": 1.0},
        ["simulate", "--alpha", "1.0"],
        "alpha",
        id="simulate-alpha-at-one",
    ),
    pytest.param(
        "simulate",
        {"power_cap_w": 0.0},
        ["simulate", "--power-cap", "0"],
        "power_cap_w",
        id="simulate-zero-cap",
    ),
    pytest.param(
        "simulate",
        {"n_nodes": 0},
        ["simulate", "--nodes", "0"],
        "n_nodes",
        id="simulate-zero-nodes",
    ),
    pytest.param(
        "simulate",
        {"group_size": 0},
        ["simulate", "--group-size", "0"],
        "group_size",
        id="simulate-zero-group",
    ),
    pytest.param(
        "simulate",
        {"window_size": 0},
        ["simulate", "--window", "0"],
        "window_size",
        id="simulate-zero-window",
    ),
    pytest.param(
        "simulate",
        {"repartition_latency_s": -1.0},
        ["simulate", "--repartition-latency", "-1"],
        "repartition_latency_s",
        id="simulate-negative-latency",
    ),
    pytest.param(
        "simulate",
        {"power_budget_w": 0.0},
        ["simulate", "--power-budget", "0"],
        "power_budget_w",
        id="simulate-zero-budget",
    ),
    pytest.param(
        "simulate",
        {"power_budget_w": 150.0, "n_nodes": 2},
        ["simulate", "--power-budget", "150", "--nodes", "2"],
        "cannot cover 2 nodes",
        id="simulate-budget-below-the-floor",
    ),
    # Knobs the request would otherwise ignore: Problem 2 picks its own
    # cap, and a recorded trace has its own length and arrival pattern.
    pytest.param(
        "decide",
        {"apps": ["igemm4", "stream"], "policy": "problem2", "power_cap_w": 200.0},
        ["decide", "igemm4", "stream", "--policy", "problem2", "--power-cap", "200"],
        "policy 'problem2' chooses the cap",
        id="decide-problem2-with-a-cap",
    ),
    pytest.param(
        "simulate",
        {"power_cap_w": 150.0},
        ["simulate", "--power-cap", "150"],
        "policy 'problem2' chooses the cap",
        id="simulate-problem2-with-a-cap",
    ),
    pytest.param(
        "simulate",
        {"trace_path": "t.csv", "n_jobs": 3},
        ["simulate", "--trace", "t.csv", "--jobs", "3"],
        "n_jobs shapes synthetic traces only",
        id="simulate-trace-with-jobs",
    ),
    pytest.param(
        "simulate",
        {"trace_path": "t.csv", "burst_size": 4.0},
        ["simulate", "--trace", "t.csv", "--burst-size", "4"],
        "burst_size shapes synthetic traces only",
        id="simulate-trace-with-burst-size",
    ),
    pytest.param(
        "simulate",
        {"trace_path": "t.csv", "arrival_rate_per_s": 7.0},
        ["simulate", "--trace", "t.csv", "--arrival-rate", "7"],
        "arrival_rate_per_s shapes synthetic traces only",
        id="simulate-trace-with-arrival-rate",
    ),
    pytest.param(
        "simulate",
        {"trace_path": "t.csv", "duration_s": 5.0},
        ["simulate", "--trace", "t.csv", "--duration", "5"],
        "duration_s shapes synthetic traces only",
        id="simulate-trace-with-duration",
    ),
    pytest.param(
        "simulate",
        {"trace_path": "t.csv", "mix": "unscalable-heavy"},
        ["simulate", "--trace", "t.csv", "--mix", "unscalable-heavy"],
        "mix shapes synthetic traces only",
        id="simulate-trace-with-mix",
    ),
    pytest.param(
        "simulate",
        {"trace_path": "t.csv", "seed": 9},
        ["simulate", "--trace", "t.csv", "--seed", "9"],
        "seed shapes synthetic traces only",
        id="simulate-trace-with-seed",
    ),
]


@pytest.mark.parametrize("command,payload,argv,match", REJECTED_REQUESTS)
class TestRejectedBeforeTraining:
    """Range and name checks run in the request, before any session trains."""

    def test_through_the_service(self, command, payload, argv, match):
        service = PlannerService()
        request_type = DecisionRequest if command == "decide" else SimulationRequest
        with pytest.raises(ConfigurationError, match=match):
            getattr(service, command)(request_type.from_dict(payload))
        assert service.stats.trainings_run == 0

    def test_through_the_cli(self, command, payload, argv, match):
        service = PlannerService()
        lines: list[str] = []
        assert main(argv, out=lines.append, service=service) == 2
        assert lines[0].startswith("error: ") and match in lines[0]
        assert service.stats.trainings_run == 0


#: Every integer knob of the requests, with the payload it is added to.
COUNT_KNOBS = [
    pytest.param(SimulationRequest, {}, knob, id=knob)
    for knob in ("n_nodes", "window_size", "group_size", "n_jobs", "seed")
] + [pytest.param(StatesRequest, {"spec": "a30"}, "n_apps", id="n_apps")]


@pytest.mark.parametrize("request_type,payload,knob", COUNT_KNOBS)
class TestCountKnobs:
    """A count takes what ``operator.index`` takes, except ``bool``."""

    @pytest.mark.parametrize(
        "value", [2.5, math.nan, math.inf, True], ids=["fraction", "nan", "inf", "bool"]
    )
    def test_non_integer_rejected_by_from_dict(self, request_type, payload, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            request_type.from_dict({**payload, knob: value})

    def test_numpy_integer_stored_as_int(self, request_type, payload, knob):
        request = request_type.from_dict({**payload, knob: np.int64(3)})
        value = getattr(request, knob)
        assert type(value) is int and value == 3

    def test_rejected_request_trains_nothing(self, request_type, payload, knob):
        service = PlannerService()
        command = "simulate" if request_type is SimulationRequest else "states"
        with pytest.raises(ConfigurationError, match=knob):
            getattr(service, command)(request_type.from_dict({**payload, knob: 2.5}))
        assert service.stats.trainings_run == 0


class TestStatesRequest:
    def test_round_trip(self):
        request = StatesRequest(n_apps=3, spec="a30")
        assert StatesRequest.from_dict(request.to_dict()) == request

    def test_zero_apps_rejected(self):
        with pytest.raises(ConfigurationError, match="n_apps"):
            StatesRequest(n_apps=0)


class TestDecisionResult:
    def _result(self) -> DecisionResult:
        evaluation = CandidateEvaluation(
            state=S1,
            power_cap_w=230.0,
            predicted_rperfs=(0.8, 0.44),
            predicted_throughput=1.24,
            predicted_fairness=0.28,
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

    def test_candidates_serialize_in_the_wire_order(self):
        (candidate,) = self._result().to_dict()["evaluations"]
        assert candidate == {
            "state": "S1(4GPCs-3GPCs/Shared)",
            "label": "S1",
            "power_cap_w": 230.0,
            "predicted_rperfs": (0.8, 0.44),
            "throughput": 1.24,
            "fairness": 0.28,
            "objective": 1.24,
            "feasible": True,
        }
        assert list(candidate) == [
            "state", "label", "power_cap_w", "predicted_rperfs",
            "throughput", "fairness", "objective", "feasible",
        ]

    @pytest.mark.parametrize(
        "state",
        ["", "S1(4GPCs-3GPCs/Shared", "4GPCs/Bogus", "9GPCs/Private", "S9(4GPCs/Private) "],
    )
    def test_bad_candidate_state_rejected_by_from_dict(self, state):
        document = json.loads(json.dumps(self._result().to_dict()))
        document["evaluations"][0]["state"] = state
        with pytest.raises(ConfigurationError):
            DecisionResult.from_dict(document)

    def test_bad_chosen_state_rejected_by_from_dict(self):
        document = json.loads(json.dumps(self._result().to_dict()))
        document["state"] = "S1(4GPCs-3GPCs/Shared"
        with pytest.raises(ConfigurationError):
            DecisionResult.from_dict(document)

    def test_candidate_label_must_match_its_state(self):
        document = json.loads(json.dumps(self._result().to_dict()))
        document["evaluations"][0]["label"] = "S2"
        with pytest.raises(ConfigurationError, match="label"):
            DecisionResult.from_dict(document)

    @pytest.mark.parametrize("edit", ["unknown", "missing"])
    def test_candidate_keys_are_checked(self, edit):
        document = json.loads(json.dumps(self._result().to_dict()))
        candidate = document["evaluations"][0]
        if edit == "unknown":
            candidate["display"] = "S1"
        else:
            del candidate["fairness"]
        with pytest.raises(ConfigurationError, match="keys"):
            DecisionResult.from_dict(document)


class TestDecideTable:
    """The CLI's candidate table names each state by its label when it has one."""

    @staticmethod
    def _table_states(argv, service):
        lines: list[str] = []
        assert main(argv, out=lines.append, service=service) == 0
        rows = "\n".join(lines).splitlines()
        header = next(i for i, row in enumerate(rows) if row.startswith("state "))
        return [row.split()[0] for row in rows[header + 2 :]]

    def test_labelled_a100_pair(self):
        service = PlannerService()
        states = self._table_states(["decide", "igemm4", "stream"], service)
        assert states == ["S1", "S2", "S3", "S4"]

    def test_unlabeled_a30_pair(self):
        service = PlannerService()
        states = self._table_states(
            ["decide", "igemm4", "stream", "--spec", "a30"], service
        )
        evaluations = service.decide(
            DecisionRequest(apps=("igemm4", "stream"), spec="a30")
        ).evaluations
        assert all(e.state.label is None for e in evaluations)
        assert states == [e.state.describe() for e in evaluations]
        assert "2GPCs-2GPCs/Shared" in states


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
        stats = LatencyStats(mean_s=1.0, p50_s=0.9, p95_s=2.0, p99_s=2.5, max_s=3.0)
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
        stats = LatencyStats(mean_s=1.0, p50_s=1.0, p95_s=1.0, p99_s=1.0, max_s=1.0)
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
