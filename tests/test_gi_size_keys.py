"""GI-size-aware hardware-state keys: schema, coverage, parity, accuracy.

The model keys gained the hosting GPU Instance's memory-slice count
(key schema v2).  These tests lock the three contracts of that change:

* **Coverage** — the spec-derived training plan fits coefficients for
  every per-application key any realizable partition state (N = 1..4,
  private/shared/mixed) can produce on the A100, H100, and A30.
* **Parity** — full-GI predictions (solo, pairs, the whole Table 5 grid)
  are bit-identical to the pre-change model: the values pinned below were
  captured on main immediately before the key-schema change.
* **Accuracy** — a bandwidth-bound application inside a sub-chip shared
  GI is now predicted within a tested error bound of the simulated value,
  where the pair-era full-chip coefficients overestimated by ~2-3x.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.model import (
    KEY_SCHEMA_VERSION,
    HardwareStateKey,
    LinearPerfModel,
    required_state_keys,
)
from repro.core.workflow import PaperWorkflow, TrainingPlan
from repro.errors import ModelError
from repro.gpu.mig import (
    CORUN_STATES,
    MemoryOption,
    PartitionState,
    enumerate_partition_states,
    mixed_training_states,
    solo_state,
)
from repro.gpu.spec import A30_SPEC, A100_SPEC, H100_SPEC
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.workloads.kernel import WorkloadClass
from repro.workloads.pairs import corun_pair
from repro.workloads.suite import DEFAULT_SUITE
from repro.workloads.synthetic import SyntheticWorkloadGenerator

#: Predictions captured on main immediately before the key-schema change.
#: Values are exact float reprs; the parity tests compare with repr() so a
#: single ULP of drift in the full-GI pipeline fails loudly.
PINNED = {
    "paper_predict_corun": {
        "TI-MI2|S1|150": [
            "0.23172492696311908",
            "0.8812292579349905"
        ],
        "TI-MI2|S1|230": [
            "0.28462346267818145",
            "0.9572797818934069"
        ],
        "TI-MI2|S2|150": [
            "0.1672539273634001",
            "0.914804258026455"
        ],
        "TI-MI2|S2|230": [
            "0.195822538782281",
            "0.9520400490253023"
        ],
        "TI-MI2|S3|150": [
            "0.4431427575200728",
            "0.4463471647616528"
        ],
        "TI-MI2|S3|230": [
            "0.5004007162735115",
            "0.4915816462068053"
        ],
        "TI-MI2|S4|150": [
            "0.3657743516047078",
            "0.448958033863399"
        ],
        "TI-MI2|S4|230": [
            "0.36925298743401563",
            "0.4989961384995889"
        ],
        "CI-US1|S1|150": [
            "0.4555817347616932",
            "0.870526231688503"
        ],
        "CI-US1|S1|230": [
            "0.5076315783173073",
            "0.8914322313552256"
        ],
        "CI-US1|S2|150": [
            "0.3445281379795308",
            "0.8561474991937394"
        ],
        "CI-US1|S2|230": [
            "0.3746114707207613",
            "0.9120848735679024"
        ],
        "CI-US1|S3|150": [
            "0.4412523425709409",
            "0.9494784942849124"
        ],
        "CI-US1|S3|230": [
            "0.4413224039383822",
            "1.0085477776750096"
        ],
        "CI-US1|S4|150": [
            "0.3444882024346621",
            "0.9622145638487098"
        ],
        "CI-US1|S4|230": [
            "0.341333685194325",
            "0.9785814983304605"
        ]
    },
    "nway_predict_corun": {
        "igemm4+stream|S1(4GPCs-3GPCs/Shared)|190": [
            "0.29851106018375884",
            "0.9391029666245365"
        ],
        "igemm4+stream|S1(4GPCs-3GPCs/Shared)|230": [
            "0.30730964465255484",
            "0.9467881418898568"
        ],
        "igemm4+stream|S3(4GPCs-3GPCs/Private)|190": [
            "0.49415304859449",
            "0.49265082809459043"
        ],
        "igemm4+stream|S3(4GPCs-3GPCs/Private)|230": [
            "0.49419136267632696",
            "0.4977238833524397"
        ],
        "dgemm+bfs|S1(4GPCs-3GPCs/Shared)|190": [
            "0.4259659354561989",
            "0.9928461711921137"
        ],
        "dgemm+bfs|S1(4GPCs-3GPCs/Shared)|230": [
            "0.427946653641348",
            "0.9976685632188167"
        ],
        "dgemm+bfs|S3(4GPCs-3GPCs/Private)|190": [
            "0.5084972363938622",
            "0.9453599996225917"
        ],
        "dgemm+bfs|S3(4GPCs-3GPCs/Private)|230": [
            "0.5066859140056392",
            "0.9492974475786523"
        ]
    },
    "nway_predict_solo": {
        "stream|1|private": "0.10591466772488434",
        "stream|1|shared": "0.6313711062926446",
        "stream|2|private": "0.2349159257518897",
        "stream|2|shared": "0.9612882463364352",
        "stream|3|private": "0.5002341529235775",
        "stream|3|shared": "0.9987674245504611",
        "stream|4|private": "0.4906707764920174",
        "stream|4|shared": "1.025814801943332",
        "stream|7|private": "1.0089358776051358",
        "stream|7|shared": "1.0089358776051358",
        "hgemm|1|private": "0.13570378674952221",
        "hgemm|1|shared": "0.12371095442398589",
        "hgemm|2|private": "0.2649791881465279",
        "hgemm|2|shared": "0.25461098925453324",
        "hgemm|3|private": "0.39344167405732833",
        "hgemm|3|shared": "0.38754356100605347",
        "hgemm|4|private": "0.5206986034355391",
        "hgemm|4|shared": "0.5186677394727226",
        "hgemm|7|private": "0.888096527193892",
        "hgemm|7|shared": "0.888096527193892"
    },
    "engine_full_gi": {
        "TI-MI2|S1": [
            "0.44892203752439586",
            "0.7829026028381846"
        ],
        "TI-MI2|S2": [
            "0.36287567409787586",
            "0.8219862212156024"
        ],
        "TI-MI2|S3": [
            "0.5338159498473564",
            "0.5026178010471204"
        ],
        "TI-MI2|S4": [
            "0.40280557652862325",
            "0.5026178010471204"
        ],
        "CI-US1|S1": [
            "0.42317526987839854",
            "0.9843372592803403"
        ],
        "CI-US1|S2": [
            "0.3185173118137517",
            "0.9900980447083227"
        ],
        "CI-US1|S3": [
            "0.5085714285714286",
            "0.9872773536895674"
        ],
        "CI-US1|S4": [
            "0.3830703012912483",
            "0.9923273657289002"
        ],
        "solo|stream|2|private": "0.25196850393700787",
        "solo|stream|2|shared": "1.0",
        "solo|stream|4|private": "0.5026178010471204",
        "solo|stream|4|shared": "1.0",
        "solo|hgemm|2|private": "0.25764594935932794",
        "solo|hgemm|2|shared": "0.25764594935932794",
        "solo|hgemm|4|private": "0.5118959054885144",
        "solo|hgemm|4|shared": "0.5118959054885144"
    }
}


NWAY_CAPS = (190.0, 230.0)


@pytest.fixture(scope="module")
def nway_workflow():
    workflow = PaperWorkflow(
        simulator=PerformanceSimulator(noise=no_noise()),
        plan=TrainingPlan.for_spec(A100_SPEC, power_caps=NWAY_CAPS),
        power_caps=NWAY_CAPS,
    )
    workflow.train()
    return workflow


@pytest.fixture(scope="module")
def paper_workflow():
    workflow = PaperWorkflow()
    workflow.train()
    return workflow


# ----------------------------------------------------------------------
# Key enumeration / coverage properties
# ----------------------------------------------------------------------
class TestKeyCoverage:
    @pytest.mark.parametrize("spec", (A100_SPEC, H100_SPEC, A30_SPEC), ids=lambda s: s.name)
    def test_plan_covers_every_spec_reachable_key(self, spec):
        """Every (gpcs, mem_slices, option, cap) state any realizable
        partition layout can produce is fitted by the spec-derived plan."""
        plan = TrainingPlan.for_spec(spec, power_caps=(spec.default_power_limit_w,))
        covered = set(required_state_keys(plan.states, plan.power_caps, spec))
        for option in plan.options:
            for gpcs in plan.gpc_counts:
                for cap in plan.power_caps:
                    covered.add(
                        HardwareStateKey.from_state(solo_state(gpcs, option), 0, cap, spec)
                    )
        for n_apps in (1, 2, 3, 4):
            for state in enumerate_partition_states(n_apps, spec):
                for cap in plan.power_caps:
                    for index in range(state.n_apps):
                        key = HardwareStateKey.from_state(state, index, cap, spec)
                        assert key in covered, (
                            f"{state.describe()} app{index} needs uncovered key "
                            f"{key.describe()} on {spec.name}"
                        )

    @pytest.mark.parametrize("spec", (A100_SPEC, H100_SPEC, A30_SPEC), ids=lambda s: s.name)
    def test_required_state_keys_unique_and_sorted(self, spec):
        states = tuple(enumerate_partition_states(3, spec))
        keys = required_state_keys(states, (spec.default_power_limit_w,), spec)
        assert len(keys) == len(set(keys))
        assert list(keys) == sorted(keys, key=HardwareStateKey.sort_key)

    def test_mixed_training_states_cover_all_sub_chip_keys(self):
        """The covering subset reaches every sub-chip shared key that the
        full mixed enumeration (any N) can produce."""
        spec = A100_SPEC
        model = LinearPerfModel(spec=spec)

        def sub_chip_keys(states):
            keys = set()
            for state in states:
                for index in range(state.n_apps):
                    key = HardwareStateKey.from_state(state, index, 250.0, spec)
                    if model.is_sub_chip_shared(key):
                        keys.add(key)
            return keys

        covering = sub_chip_keys(mixed_training_states(spec))
        for n_apps in (3, 4):
            full = sub_chip_keys(
                enumerate_partition_states(n_apps, spec, (MemoryOption.MIXED,))
            )
            assert full <= covering

    def test_sub_chip_and_full_chip_shared_keys_are_distinct(self):
        mixed = PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1))
        shared = PartitionState((2, 2, 3), MemoryOption.SHARED)
        sub_chip = HardwareStateKey.from_state(mixed, 0, 230.0, A100_SPEC)
        full_chip = HardwareStateKey.from_state(shared, 0, 230.0, A100_SPEC)
        assert sub_chip.option is full_chip.option is MemoryOption.SHARED
        assert sub_chip != full_chip
        assert sub_chip.mem_slices == 4 and full_chip.mem_slices == 8


# ----------------------------------------------------------------------
# Serialization round-trip
# ----------------------------------------------------------------------
class TestSerializationRoundTrip:
    def test_roundtrip_preserves_mixed_state_predictions(self, nway_workflow):
        model = nway_workflow.model
        rebuilt = LinearPerfModel.from_dict(model.to_dict())
        assert rebuilt.spec == model.spec
        db = nway_workflow.online.database
        counters = [db.get(n).counters for n in ("stream", "lud", "hgemm")]
        state = PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1))
        for cap in NWAY_CAPS:
            assert rebuilt.predict_corun(counters, state, cap) == (
                model.predict_corun(counters, state, cap)
            )

    def test_roundtrip_preserves_every_fitted_key(self, nway_workflow):
        model = nway_workflow.model
        rebuilt = LinearPerfModel.from_dict(model.to_dict())
        assert rebuilt.fitted_scalability_states() == model.fitted_scalability_states()
        assert rebuilt.to_dict() == model.to_dict()

    def test_document_carries_schema_version_and_spec(self, nway_workflow):
        data = nway_workflow.model.to_dict()
        assert data["version"] == KEY_SCHEMA_VERSION == 3
        assert data["spec"] == A100_SPEC.name
        assert all("mem_slices" in entry for entry in data["scalability"])

    def test_pair_era_document_rejected_with_retrain_message(self, nway_workflow):
        data = nway_workflow.model.to_dict()
        data["version"] = 1
        for entry in data["scalability"] + data["interference"]:
            entry.pop("mem_slices")
        with pytest.raises(ModelError, match="retrain"):
            LinearPerfModel.from_dict(data)

    def test_spec_mismatch_rejected(self, nway_workflow):
        data = nway_workflow.model.to_dict()
        with pytest.raises(ModelError, match="spec"):
            LinearPerfModel.from_dict(data, spec=H100_SPEC)


# ----------------------------------------------------------------------
# Full-GI parity with the pre-change model (bit-identical)
# ----------------------------------------------------------------------
class TestFullGIParity:
    def test_paper_grid_predictions_bit_identical(self, paper_workflow):
        db = paper_workflow.online.database
        states = {state.label: state for state in CORUN_STATES}
        for entry, expected in PINNED["paper_predict_corun"].items():
            pair_name, label, cap = entry.split("|")
            pair = corun_pair(pair_name)
            counters = [db.get(pair.app1).counters, db.get(pair.app2).counters]
            predicted = paper_workflow.model.predict_corun(
                counters, states[label], float(cap)
            )
            assert [repr(v) for v in predicted] == expected, entry

    def test_nway_grid_pair_predictions_bit_identical(self, nway_workflow):
        db = nway_workflow.online.database
        for entry, expected in PINNED["nway_predict_corun"].items():
            apps, desc, cap = entry.split("|")
            counters = [db.get(n).counters for n in apps.split("+")]
            state = CORUN_STATES[0] if "Shared" in desc else CORUN_STATES[2]
            predicted = nway_workflow.model.predict_corun(counters, state, float(cap))
            assert [repr(v) for v in predicted] == expected, entry

    def test_nway_solo_predictions_bit_identical(self, nway_workflow):
        db = nway_workflow.online.database
        for entry, expected in PINNED["nway_predict_solo"].items():
            name, gpcs, option = entry.split("|")
            state = solo_state(int(gpcs), option)
            key = HardwareStateKey.from_state(state, 0, 230.0, A100_SPEC)
            predicted = nway_workflow.model.predict_solo(db.get(name).counters, key)
            assert repr(predicted) == expected, entry

    def test_engine_full_gi_runs_bit_identical(self):
        simulator = PerformanceSimulator(noise=no_noise())
        states = {state.label: state for state in CORUN_STATES}
        for entry, expected in PINNED["engine_full_gi"].items():
            parts = entry.split("|")
            if parts[0] == "solo":
                _, name, gpcs, option = parts
                run = simulator.solo_run(
                    DEFAULT_SUITE.get(name), solo_state(int(gpcs), option), 210.0
                )
                assert repr(run.relative_performance) == expected, entry
            else:
                pair_name, label = parts
                kernels = list(corun_pair(pair_name).kernels())
                result = simulator.co_run(kernels, states[label], 230.0)
                assert [repr(v) for v in result.relative_performances] == expected, entry


# ----------------------------------------------------------------------
# Sub-chip shared GI accuracy (the regression the schema change fixes)
# ----------------------------------------------------------------------
class TestSubChipAccuracy:
    #: Acceptance bound: predicted RPerf within 25% of simulated for a
    #: bandwidth-bound application inside a sub-chip shared GI.
    BOUND = 0.25

    def _relative_error(self, workflow, kernels, state, index, cap=230.0):
        counters = [workflow.simulator.profile(k) for k in kernels]
        predicted = workflow.model.predict_corun(counters, state, cap)[index]
        simulated = workflow.simulator.co_run(kernels, state, cap).relative_performances[index]
        return predicted, simulated, abs(predicted - simulated) / simulated

    def test_bandwidth_bound_suite_app_within_bound(self, nway_workflow):
        state = PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1))
        for partner in ("randomaccess", "lud", "bfs"):
            kernels = [DEFAULT_SUITE.get("stream"), DEFAULT_SUITE.get(partner), DEFAULT_SUITE.get("hgemm")]
            predicted, simulated, error = self._relative_error(nway_workflow, kernels, state, 0)
            assert error < self.BOUND, (
                f"stream + {partner}: predicted {predicted:.3f} vs simulated "
                f"{simulated:.3f} ({error:.0%})"
            )

    def test_bandwidth_bound_synthetic_app_within_bound(self, nway_workflow):
        """A held-out synthetic memory-intensive app (seed disjoint from the
        training sweep) in a 4-slice shared GI."""
        generator = SyntheticWorkloadGenerator(seed=77)
        state = PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1))
        for _ in range(3):
            victim = generator.sample_class(WorkloadClass.MI)
            partner = generator.sample_class(WorkloadClass.CI)
            kernels = [victim, partner, DEFAULT_SUITE.get("bfs")]
            predicted, simulated, error = self._relative_error(nway_workflow, kernels, state, 0)
            assert error < self.BOUND, (
                f"{victim.name}: predicted {predicted:.3f} vs simulated "
                f"{simulated:.3f} ({error:.0%})"
            )

    def test_pair_era_full_chip_key_overestimated(self, nway_workflow):
        """Reconstruct the pre-change behaviour (full-chip shared
        coefficients for a sub-chip CI) and confirm the new keys beat it —
        the old path overestimated bandwidth-bound RPerf by ~2x+."""
        db = nway_workflow.online.database
        state = PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1))
        victim = db.get("stream").counters
        partner = [db.get("randomaccess").counters]
        old_key = HardwareStateKey(2, A100_SPEC.n_mem_slices, MemoryOption.SHARED, 230.0)
        old_style = nway_workflow.model.predict_rperf(victim, old_key, partner)
        kernels = [DEFAULT_SUITE.get(n) for n in ("stream", "randomaccess", "bfs")]
        simulated = nway_workflow.simulator.co_run(kernels, state, 230.0).relative_performances[0]
        new_key = HardwareStateKey.from_state(state, 0, 230.0, A100_SPEC)
        new_style = nway_workflow.model.predict_rperf(victim, new_key, partner)
        assert old_style / simulated > 2.0
        assert abs(new_style - simulated) / simulated < self.BOUND

    def test_every_enumerated_mixed_state_is_supported(self, nway_workflow):
        model = nway_workflow.model
        for n_apps in (3, 4):
            for state in enumerate_partition_states(3 if n_apps == 3 else 4, A100_SPEC, (MemoryOption.MIXED,)):
                assert model.supports_candidate(state, NWAY_CAPS), state.describe()


# ----------------------------------------------------------------------
# Sub-chip pool sizing in the interference model
# ----------------------------------------------------------------------
class TestSubChipPoolSizing:
    def test_smaller_pool_exerts_more_cache_pressure(self):
        from repro.sim.interference import InterferenceModel

        model = InterferenceModel()
        kernel = DEFAULT_SUITE.get("lud")
        full = model.cache_pressure(kernel)
        assert model.cache_pressure(kernel, pool_mem_slices=8) == full
        assert model.cache_pressure(kernel, pool_mem_slices=4) >= full
        assert model.cache_pressure(kernel, pool_mem_slices=2) >= (
            model.cache_pressure(kernel, pool_mem_slices=4)
        )

    def test_invalid_pool_size_rejected(self):
        from repro.errors import SimulationError
        from repro.sim.interference import InterferenceModel

        model = InterferenceModel()
        kernel = DEFAULT_SUITE.get("lud")
        with pytest.raises(SimulationError):
            model.cache_pressure(kernel, pool_mem_slices=0)
        with pytest.raises(SimulationError):
            model.cache_pressure(kernel, pool_mem_slices=9)

    def test_batched_candidate_grid_matches_scalar_on_mixed_states(self, nway_workflow):
        db = nway_workflow.online.database
        counters = [db.get(n).counters for n in ("stream", "randomaccess", "bfs")]
        candidates = [
            (state, cap)
            for state in enumerate_partition_states(3, A100_SPEC)
            for cap in NWAY_CAPS
        ]
        batched = nway_workflow.model.predict_candidates(counters, candidates)
        for row, (state, cap) in zip(batched, candidates):
            scalar = nway_workflow.model.predict_corun(counters, state, cap)
            np.testing.assert_allclose(row, scalar, rtol=1e-12)
