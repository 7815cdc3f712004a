"""Parity tests: the N-way engine must reproduce the seed's solo and pair
behaviour exactly, and the batched candidate evaluation must agree with the
scalar path."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import decide_oracle
from repro.core import workflow as workflow_module
from repro.core.model import HardwareStateKey, LinearPerfModel
from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Problem1Policy, Problem2Policy
from repro.core.workflow import OnlineAllocator
from repro.errors import InfeasibleProblemError
from repro.gpu.mig import CORUN_STATES, MemoryOption, PartitionState, S1, solo_state
from repro.workloads.pairs import CORUN_PAIRS, corun_pair
from repro.workloads.suite import DEFAULT_SUITE


class TestEngineParity:
    """Solo and pair runs are the N=1/N=2 special cases of the group engine."""

    @pytest.mark.parametrize("name", ("hgemm", "stream", "bfs", "sgemm"))
    @pytest.mark.parametrize("option", (MemoryOption.PRIVATE, MemoryOption.SHARED))
    def test_solo_run_equals_single_app_co_run(self, sim, name, option):
        kernel = DEFAULT_SUITE.get(name)
        state = solo_state(4, option)
        solo = sim.solo_run(kernel, state, 210.0)
        group = sim.co_run([kernel], state, 210.0)
        assert group.n_apps == 1
        assert group.per_app[0].elapsed_s == solo.elapsed_s  # noise-free simulator
        assert group.per_app[0].relative_performance == solo.relative_performance
        assert group.chip_power_w == solo.chip_power_w

    def test_pair_co_run_values_are_stable(self, sim):
        """Pin the S1 pair numbers so any N-way refactor that drifts the
        two-application physics is caught immediately."""
        kernels = list(corun_pair("TI-MI2").kernels())
        result = sim.co_run(kernels, S1, 230.0)
        assert result.n_apps == 2
        # The shared pool couples both applications: both see interference.
        for run in result.per_app:
            assert 0.0 < run.relative_performance <= 1.25
        assert result.weighted_speedup > 1.0
        # Solving the same state twice is deterministic.
        again = sim.co_run(kernels, S1, 230.0)
        assert again.relative_performances == result.relative_performances
        assert again.chip_power_w == result.chip_power_w


class TestBatchedEvaluationParity:
    """The vectorized grid evaluation agrees with the scalar path."""

    @pytest.fixture(scope="class")
    def allocator(self, context):
        return ResourcePowerAllocator(context.model, batch_threshold=0)

    @pytest.mark.parametrize("pair_name", ("TI-MI2", "CI-MI1", "US-US1"))
    def test_batch_matches_scalar_for_pairs(self, context, allocator, pair_name):
        counters = list(context.pair_profiles(corun_pair(pair_name)))
        policy = Problem2Policy(alpha=0.2)
        candidates = [
            (state, float(cap))
            for state in CORUN_STATES
            for cap in policy.candidate_power_caps()
        ]
        batch = allocator.solve(counters, policy).evaluations
        assert [(e.state, e.power_cap_w) for e in batch] == candidates
        for (state, cap), batched in zip(candidates, batch):
            scalar = allocator.evaluate_candidate(counters, state, cap, policy)
            np.testing.assert_allclose(
                batched.predicted_rperfs, scalar.predicted_rperfs, rtol=1e-12
            )
            np.testing.assert_allclose(batched.objective, scalar.objective, rtol=1e-12)
            assert batched.feasible == scalar.feasible

    def test_default_pair_solve_uses_scalar_path_bit_identically(self, context):
        """On the paper's 24-candidate grid the allocator keeps the scalar
        evaluation, so pair decisions are bit-identical to the seed."""
        counters = list(context.pair_profiles(corun_pair("TI-MI2")))
        policy = Problem1Policy(power_cap_w=230.0)
        allocator = ResourcePowerAllocator(context.model)
        decision = allocator.solve(counters, policy)
        expected = max(
            (
                allocator.evaluate_candidate(counters, state, 230.0, policy)
                for state in CORUN_STATES
            ),
            key=lambda e: e.objective,
        )
        assert decision.predicted_rperfs == expected.predicted_rperfs
        assert decision.predicted_objective == expected.objective
        assert decision.state.key() == expected.state.key()

    def test_batched_and_scalar_solves_pick_the_same_decision(self, context):
        """Forcing the batched path never changes the chosen candidate."""
        policy = Problem2Policy(alpha=0.2)
        scalar_alloc = ResourcePowerAllocator(context.model, batch_threshold=10**9)
        batched_alloc = ResourcePowerAllocator(context.model, batch_threshold=0)
        for pair in CORUN_PAIRS:
            counters = list(context.pair_profiles(pair))
            scalar = scalar_alloc.solve(counters, policy)
            batched = batched_alloc.solve(counters, policy)
            assert scalar.state.key() == batched.state.key()
            assert scalar.power_cap_w == batched.power_cap_w
            np.testing.assert_allclose(
                scalar.predicted_objective, batched.predicted_objective, rtol=1e-12
            )


class TestCandidateTables:
    """The allocator's candidate tables: one per (states, caps, model version)."""

    @staticmethod
    def _counters(context):
        return list(context.pair_profiles(corun_pair("TI-MI2")))

    def test_exact_tie_goes_to_the_first_listed_row(self, context):
        counters = self._counters(context)
        policy = Problem1Policy(power_cap_w=230.0, alpha=0.0)
        allocator = ResourcePowerAllocator(context.model, batch_threshold=0)
        first, second = (dataclasses.replace(S1, label=label) for label in ("A", "B"))
        for states in ((first, second), (second, first)):
            decision = allocator.solve(counters, policy, states=states)
            tied = decision.evaluations
            assert tied[0].objective == tied[1].objective and tied[0].feasible
            # ``max`` keeps the first of equal objectives; so must the table.
            assert decision.state.label == states[0].label
            assert decision == decide_oracle.solve(
                context.model, CORUN_STATES, counters, policy, states=states
            )

    def test_relabelled_rerun_renders_its_own_labels(self, context):
        counters = self._counters(context)
        policy = Problem2Policy(alpha=0.2)
        allocator = ResourcePowerAllocator(context.model, batch_threshold=0)
        first = allocator.solve(counters, policy, states=CORUN_STATES)
        relabelled = tuple(
            dataclasses.replace(state, label=f"R{index}")
            for index, state in enumerate(CORUN_STATES, start=1)
        )
        again = allocator.solve(counters, policy, states=relabelled)
        caps = policy.candidate_power_caps()
        assert [e.state.label for e in again.evaluations] == [
            state.label for state in relabelled for _ in caps
        ]
        assert again.state == relabelled[CORUN_STATES.index(first.state)]
        assert [e.objective for e in again.evaluations] == [
            e.objective for e in first.evaluations
        ]

    def test_refit_rebuilds_the_table_and_a_repeat_does_not(self, context, monkeypatch):
        model = LinearPerfModel.from_dict(context.model.to_dict())
        allocator = ResourcePowerAllocator(model, batch_threshold=0)
        gathered_at = []
        gather = model.gather_candidates

        def counted(*args, **kwargs):
            gathered_at.append(model.coefficients_version)
            return gather(*args, **kwargs)

        monkeypatch.setattr(model, "gather_candidates", counted)
        counters = self._counters(context)
        policy = Problem2Policy(alpha=0.2)
        first = allocator.solve(counters, policy)
        assert allocator.solve(counters, policy) == first
        assert len(gathered_at) == 1
        key = HardwareStateKey.from_state(S1, 0, 230.0, model.spec)
        model.set_scalability_coefficients(key, model.scalability_coefficients(key) * 0.5)
        refit = allocator.solve(counters, policy)
        assert gathered_at == [gathered_at[0], model.coefficients_version]
        assert refit != first
        assert refit == decide_oracle.solve(model, CORUN_STATES, counters, policy)
        # The older version's table is dropped, not kept alongside.
        assert len(allocator._tables) == 1


class TestDecisionMemo:
    """``OnlineAllocator.decide`` is the one memo of allocation decisions."""

    @pytest.fixture()
    def online(self, context):
        return self._online(context, context.model)

    @staticmethod
    def _online(context, model):
        return OnlineAllocator(
            model,
            database=context.workflow.online.database,
            power_caps=context.config.power_caps,
        )

    @staticmethod
    def _count_solves(online, monkeypatch):
        """Record every call that reaches ``ResourcePowerAllocator.solve``."""
        calls = []
        solve = online.allocator.solve

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(online.allocator, "solve", counted)
        return calls

    def test_hit_returns_the_same_object(self, online, monkeypatch):
        solves = self._count_solves(online, monkeypatch)
        first = online.decide(["igemm4", "stream"], Problem2Policy(alpha=0.2))
        # An equal policy object hits: the key is the policy's signature.
        second = online.decide(["igemm4", "stream"], Problem2Policy(alpha=0.2))
        assert second is first
        assert len(solves) == 1

    def test_alpha_change_misses(self, online, monkeypatch):
        solves = self._count_solves(online, monkeypatch)
        online.decide(["igemm4", "stream"], Problem2Policy(alpha=0.2))
        online.decide(["igemm4", "stream"], Problem2Policy(alpha=0.3))
        assert len(solves) == 2

    def test_refit_misses(self, context, monkeypatch):
        """Installing new coefficients must not serve stale decisions."""
        model = LinearPerfModel.from_dict(context.model.to_dict())
        online = self._online(context, model)
        solves = self._count_solves(online, monkeypatch)
        policy = Problem2Policy(alpha=0.2)
        first = online.decide(["igemm4", "stream"], policy)
        key = model.fitted_scalability_states()[0]
        model.set_scalability_coefficients(
            key, model.scalability_coefficients(key) * 0.5
        )
        second = online.decide(["igemm4", "stream"], policy)
        assert second is not first
        assert len(solves) == 2

    def test_oldest_entry_is_evicted_at_the_bound(self, online, monkeypatch):
        monkeypatch.setattr(workflow_module, "_DECISION_MEMO_SIZE", 2)
        solves = self._count_solves(online, monkeypatch)
        policy = Problem2Policy(alpha=0.2)
        groups = (["igemm4", "stream"], ["sgemm", "bfs"], ["hgemm", "kmeans"])
        first = online.decide(groups[0], policy)
        for group in groups[1:]:
            online.decide(group, policy)
        assert len(solves) == 3
        online.decide(groups[2], policy)  # still held
        assert len(solves) == 3
        again = online.decide(groups[0], policy)  # evicted: solved again
        assert len(solves) == 4
        assert again is not first
        assert again.state.key() == first.state.key()

    def test_repeated_infeasible_group_is_not_solved_again(self, online, monkeypatch):
        solves = self._count_solves(online, monkeypatch)
        policy = Problem2Policy(alpha=0.99)
        with pytest.raises(InfeasibleProblemError) as first:
            online.decide(["igemm4", "stream"], policy)
        with pytest.raises(InfeasibleProblemError) as repeat:
            online.decide(["igemm4", "stream"], policy)
        assert str(repeat.value) == str(first.value)
        assert repeat.value is not first.value
        assert len(solves) == 1


class TestMixedStateSemantics:
    def test_effective_options(self):
        state = PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1))
        assert state.effective_option(0) is MemoryOption.SHARED
        assert state.effective_option(1) is MemoryOption.SHARED
        assert state.effective_option(2) is MemoryOption.PRIVATE
        assert state.groups() == ((0, 1), (2,))

    def test_non_mixed_states_keep_their_option(self):
        for state in CORUN_STATES:
            for index in range(state.n_apps):
                assert state.effective_option(index) is state.option


class TestInterferencePartnerSemantics:
    """Mixed states couple interference only between GI-mates."""

    @pytest.fixture(scope="class")
    def nway_model(self):
        from repro.core.workflow import PaperWorkflow, TrainingPlan
        from repro.gpu.spec import A100_SPEC
        from repro.sim.engine import PerformanceSimulator
        from repro.sim.noise import no_noise

        workflow = PaperWorkflow(
            simulator=PerformanceSimulator(noise=no_noise()),
            plan=TrainingPlan.for_spec(A100_SPEC, power_caps=(190.0, 230.0)),
            power_caps=(190.0, 230.0),
        )
        workflow.train()
        return workflow

    def test_other_gi_counters_do_not_affect_shared_group_prediction(self, nway_model):
        db = nway_model.online.database
        state = PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1))
        base = [db.get(n).counters for n in ("igemm4", "stream", "bfs")]
        swapped_third = [db.get(n).counters for n in ("igemm4", "stream", "tdgemm")]
        pred_base = nway_model.model.predict_corun(base, state, 230.0)
        pred_swap = nway_model.model.predict_corun(swapped_third, state, 230.0)
        # Apps 0 and 1 share a GI; app 2 lives in another GI, so changing it
        # must not change their predictions.
        assert pred_base[0] == pred_swap[0]
        assert pred_base[1] == pred_swap[1]

    def test_batched_matches_scalar_for_mixed_states(self, nway_model):
        db = nway_model.online.database
        counters = [db.get(n).counters for n in ("igemm4", "stream", "bfs")]
        states = [
            PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1)),
            PartitionState((1, 2, 2), MemoryOption.MIXED, gi_groups=(0, 1, 1)),
            PartitionState((2, 2, 2), MemoryOption.SHARED),
            PartitionState((2, 2, 2), MemoryOption.PRIVATE),
        ]
        candidates = [(state, 230.0) for state in states]
        batched = nway_model.model.predict_candidates(counters, candidates)
        for row, (state, cap) in zip(batched, candidates):
            scalar = nway_model.model.predict_corun(counters, state, cap)
            np.testing.assert_allclose(row, scalar, rtol=1e-12)

    def test_training_pairs_unaffected_by_partner_semantics(self):
        # Pairs have exactly one partner under every option, so the seed
        # behaviour is untouched by construction.
        for state in CORUN_STATES:
            assert state.interference_partners(0) == (1,)
            assert state.interference_partners(1) == (0,)
