"""The PlannerService facade: session caching, batch decide, persistence."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    GENERAL_GRID,
    TABLE5_GRID,
    DecisionRequest,
    PlannerService,
    SimulationRequest,
    StatesRequest,
)
from repro.core.workflow import OfflineTrainer
from repro.errors import ConfigurationError, InfeasibleProblemError


@pytest.fixture
def training_counter(monkeypatch):
    """Count offline training-sweep executions (the expensive stage)."""
    counts = {"runs": 0}
    original = OfflineTrainer.run

    def counting_run(self, *args, **kwargs):
        counts["runs"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(OfflineTrainer, "run", counting_run)
    return counts


class TestSessionCache:
    def test_second_decide_performs_zero_training_sweeps(self, training_counter):
        service = PlannerService()
        request = DecisionRequest(apps=("igemm4", "stream"), power_cap_w=230.0)
        first = service.decide(request)
        assert training_counter["runs"] == 1
        second = service.decide(request)
        # The acceptance criterion: the hot path never retrains.
        assert training_counter["runs"] == 1
        assert second == first
        assert service.stats.trainings_run == 1
        assert service.stats.session_reuses == 1

    def test_sessions_are_frozen(self):
        service = PlannerService()
        service.decide(DecisionRequest(apps=("igemm4", "stream")))
        (session,) = service.sessions.values()
        with pytest.raises(dataclasses.FrozenInstanceError):
            session.power_caps = ()

    def test_different_pairs_share_the_session(self, training_counter):
        service = PlannerService()
        service.decide(DecisionRequest(apps=("igemm4", "stream")))
        service.decide(DecisionRequest(apps=("srad", "needle"), policy="problem2"))
        assert training_counter["runs"] == 1
        assert service.stats.sessions_built == 1

    def test_session_key_folds_group_size_into_grid_choice(self):
        pair = PlannerService.session_key("a100", 2)
        assert pair.grid == TABLE5_GRID
        assert PlannerService.session_key("a100", 3).grid == GENERAL_GRID
        assert PlannerService.session_key("a30", 2).grid == GENERAL_GRID
        # N-way keys of one spec coincide: one general session serves all sizes.
        assert PlannerService.session_key("a100", 3) == PlannerService.session_key(
            "a100", 4
        )

    def test_session_key_validates_spec(self):
        with pytest.raises(ConfigurationError):
            PlannerService.session_key("v100", 2)

    def test_drop_sessions_forces_retraining(self, training_counter):
        service = PlannerService()
        request = DecisionRequest(apps=("igemm4", "stream"))
        service.decide(request)
        service.drop_sessions()
        service.decide(request)
        assert training_counter["runs"] == 2


class TestDecide:
    def test_problem1_defaults_to_the_92_percent_cap(self):
        service = PlannerService()
        explicit = service.decide(
            DecisionRequest(apps=("igemm4", "stream"), power_cap_w=230.0)
        )
        default = service.decide(DecisionRequest(apps=("igemm4", "stream")))
        assert default == explicit

    def test_infeasible_alpha_raises(self):
        service = PlannerService()
        with pytest.raises(InfeasibleProblemError):
            service.decide(
                DecisionRequest(apps=("igemm4", "stream"), power_cap_w=230.0, alpha=0.99)
            )

    def test_result_carries_request_context(self):
        service = PlannerService()
        result = service.decide(DecisionRequest(apps=("srad", "needle"), policy="problem2"))
        assert result.apps == ("srad", "needle")
        assert result.spec == "a100"
        assert result.policy == "problem2-energy-efficiency"
        assert result.candidates_evaluated == len(result.evaluations) > 0


class TestDecideBatch:
    def test_batch_matches_individual_decisions(self, training_counter):
        service = PlannerService()
        requests = [
            DecisionRequest(apps=("igemm4", "stream"), power_cap_w=230.0),
            DecisionRequest(apps=("hgemm", "bfs"), power_cap_w=230.0),
            DecisionRequest(apps=("srad", "needle"), policy="problem2"),
        ]
        batch = service.decide_batch(requests)
        assert training_counter["runs"] == 1
        reference = PlannerService()
        individually = [reference.decide(r) for r in requests]
        assert list(batch) == individually
        assert service.stats.batches_served == 1
        assert service.stats.decisions_served == len(requests)

    def test_duplicates_are_answered_once_and_fanned_out(self):
        service = PlannerService()
        request = DecisionRequest(apps=("igemm4", "stream"), power_cap_w=230.0)
        batch = service.decide_batch([request, request, request])
        assert batch[0] == batch[1] == batch[2]
        # Duplicates count as served decisions without re-entering a session.
        assert service.stats.decisions_served == 3
        assert service.stats.session_reuses == 0

    def test_batch_counts_session_reuses_accurately(self):
        service = PlannerService()
        service.decide_batch(
            [
                DecisionRequest(apps=("igemm4", "stream"), power_cap_w=230.0),
                DecisionRequest(apps=("hgemm", "bfs"), power_cap_w=230.0),
                DecisionRequest(apps=("srad", "needle"), power_cap_w=230.0),
            ]
        )
        # One build plus exactly one session lookup per later request.
        assert service.stats.sessions_built == 1
        assert service.stats.session_reuses == 2

    def test_empty_batch_is_empty(self):
        service = PlannerService()
        assert service.decide_batch([]) == ()


class TestModelDirPersistence:
    def test_second_service_loads_instead_of_training(self, tmp_path, training_counter):
        writer = PlannerService(model_dir=tmp_path)
        request = DecisionRequest(apps=("igemm4", "stream"), power_cap_w=230.0)
        first = writer.decide(request)
        assert training_counter["runs"] == 1
        assert list(tmp_path.glob("*.json")), "the trained model was not persisted"

        reader = PlannerService(model_dir=tmp_path)
        second = reader.decide(request)
        assert training_counter["runs"] == 1  # loaded, not retrained
        assert reader.stats.models_loaded == 1
        assert reader.stats.trainings_run == 0
        assert second == first

    def test_model_dir_expands_tilde(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        service = PlannerService(model_dir="~/models")
        assert service._model_dir == tmp_path / "models"

    def test_explicit_model_path_still_wins(self, tmp_path, training_counter):
        service = PlannerService(model_dir=tmp_path / "dir")
        explicit = tmp_path / "explicit.json"
        service.decide(
            DecisionRequest(apps=("igemm4", "stream"), model_path=str(explicit))
        )
        assert explicit.exists()
        assert not (tmp_path / "dir").exists()


class TestSimulateAndStates:
    def test_states_never_trains(self, training_counter):
        service = PlannerService()
        result = service.states(StatesRequest(n_apps=2))
        assert training_counter["runs"] == 0
        assert result.n_states == 30  # the spec-derived pair grid
        assert {row.option for row in result.states} == {"shared", "private"}
        assert result.spec_description == "Simulated-A100-40GB"

    def test_simulate_reuses_the_decide_session(self, training_counter):
        service = PlannerService()
        service.decide(DecisionRequest(apps=("igemm4", "stream")))
        result = service.simulate(
            SimulationRequest(arrival_rate_per_s=2.0, duration_s=10.0, n_nodes=1)
        )
        assert training_counter["runs"] == 1
        assert result.n_jobs > 0
        assert result.n_nodes == 1
        assert result.trace_summary and result.report_summary
        assert service.stats.simulations_served == 1

    def test_simulate_saves_the_synthetic_trace(self, tmp_path):
        service = PlannerService()
        path = tmp_path / "trace.csv"
        service.simulate(
            SimulationRequest(
                arrival_rate_per_s=2.0,
                duration_s=10.0,
                n_nodes=1,
                save_trace_path=str(path),
            )
        )
        assert path.exists()
