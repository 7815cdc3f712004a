"""Tests for model persistence (the CLI's ``--model`` cache)."""

from __future__ import annotations

import json

import pytest

from repro.core.modelstore import (
    ModelFingerprint,
    STORE_FORMAT,
    STORE_VERSION,
    load_model,
    save_model,
)
from repro.errors import ModelCacheError, ModelError
from repro.gpu.spec import A100_SPEC


@pytest.fixture(scope="module")
def fingerprint():
    return ModelFingerprint.for_workflow(A100_SPEC, (230.0, 250.0))


@pytest.fixture(scope="module")
def model(context):
    return context.model


class TestRoundTrip:
    def test_save_and_load_preserves_coefficients(self, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "model.json", fingerprint)
        loaded = load_model(path)
        assert loaded.fitted_scalability_states() == model.fitted_scalability_states()
        assert loaded.to_dict() == model.to_dict()
        key = model.fitted_scalability_states()[0]
        assert loaded.scalability_coefficients(key) == pytest.approx(
            model.scalability_coefficients(key)
        )

    def test_loaded_model_predicts_identically(self, context, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "model.json", fingerprint)
        loaded = load_model(path)
        counters = context.workflow.online.database.get("stream").counters
        key = model.fitted_scalability_states()[0]
        assert loaded.predict_solo(counters, key) == pytest.approx(
            model.predict_solo(counters, key)
        )

    def test_save_creates_parent_directories(self, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "deep" / "nest" / "model.json", fingerprint)
        assert path.exists()


class TestValidation:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ModelError, match="does not exist"):
            load_model(tmp_path / "missing.json")

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json at all {")
        with pytest.raises(ModelError, match="not valid JSON"):
            load_model(path)

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ModelError):
            load_model(path)

    def test_wrong_version_rejected(self, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "model.json", fingerprint)
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(ModelError, match="version"):
            load_model(path)

    def test_spec_mismatch_rejected(self, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "model.json", fingerprint)
        other = ModelFingerprint(spec_name="Simulated-H100-80GB", power_caps=(230.0, 250.0))
        with pytest.raises(ModelError, match="trained for"):
            load_model(path, expected=other)

    def test_missing_caps_rejected(self, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "model.json", fingerprint)
        wider = ModelFingerprint(
            spec_name=fingerprint.spec_name, power_caps=(150.0, 230.0, 250.0)
        )
        with pytest.raises(ModelError, match="lacks coefficients"):
            load_model(path, expected=wider)

    def test_matching_fingerprint_accepted(self, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "model.json", fingerprint)
        load_model(path, expected=fingerprint)

    def test_document_carries_format_tag(self, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "model.json", fingerprint)
        assert json.loads(path.read_text())["format"] == STORE_FORMAT


class TestKeySchemaVersioning:
    """Pair-era caches (key schema v1) must be rejected with a retrain hint."""

    def test_store_version_bumped_for_capacity_basis(self, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "model.json", fingerprint)
        document = json.loads(path.read_text())
        assert document["version"] == STORE_VERSION == 3
        assert document["key_schema"] == 3

    def test_pair_era_cache_rejected_with_retrain_hint(self, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "model.json", fingerprint)
        document = json.loads(path.read_text())
        document["version"] = 1
        document.pop("key_schema")
        path.write_text(json.dumps(document))
        with pytest.raises(ModelCacheError, match="retrain"):
            load_model(path)

    def test_v2_cache_rejected_with_retrain_hint(self, model, fingerprint, tmp_path):
        """A GI-size-keyed cache without the capacity-aware basis (store
        version 2) must be rejected with a retrain hint, not a generic
        unsupported-version error."""
        path = save_model(model, tmp_path / "model.json", fingerprint)
        document = json.loads(path.read_text())
        document["version"] = 2
        document["key_schema"] = 2
        path.write_text(json.dumps(document))
        with pytest.raises(ModelCacheError, match="retrain"):
            load_model(path)

    def test_key_schema_mismatch_rejected(self, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "model.json", fingerprint)
        document = json.loads(path.read_text())
        document["key_schema"] = 1
        path.write_text(json.dumps(document))
        with pytest.raises(ModelCacheError, match="memory-slice"):
            load_model(path, expected=fingerprint)

    def test_model_cache_error_is_a_model_error(self):
        assert issubclass(ModelCacheError, ModelError)

    def test_fingerprint_mismatches_raise_model_cache_error(self, model, fingerprint, tmp_path):
        path = save_model(model, tmp_path / "model.json", fingerprint)
        other = ModelFingerprint(spec_name="Simulated-H100-80GB", power_caps=(230.0, 250.0))
        with pytest.raises(ModelCacheError):
            load_model(path, expected=other)


class TestWorkflowIntegration:
    def test_train_or_load_saves_then_loads(self, tmp_path):
        from repro.core.workflow import PaperWorkflow, TrainingPlan
        from repro.gpu.mig import MemoryOption
        from repro.sim.engine import PerformanceSimulator
        from repro.sim.noise import no_noise

        def make_workflow():
            return PaperWorkflow(
                simulator=PerformanceSimulator(noise=no_noise()),
                plan=TrainingPlan(
                    gpc_counts=(3, 4),
                    options=(MemoryOption.SHARED, MemoryOption.PRIVATE),
                    power_caps=(230.0, 250.0),
                ),
                power_caps=(230.0, 250.0),
            )

        path = tmp_path / "cache.json"
        trained = make_workflow()
        model = trained.train_or_load(str(path))
        assert path.exists()

        cached = make_workflow()
        loaded = cached.train_or_load(str(path))
        assert loaded.fitted_scalability_states() == model.fitted_scalability_states()
        # The cached workflow decides identically without offline training.
        decision_a = trained.decide_problem1(["igemm4", "stream"], power_cap_w=230.0)
        decision_b = cached.decide_problem1(["igemm4", "stream"], power_cap_w=230.0)
        assert decision_a.state == decision_b.state
        assert decision_a.power_cap_w == decision_b.power_cap_w

    def test_pair_grid_cache_rejected_by_nway_workflow(self, tmp_path):
        """A cache trained on the pair-only Table 5 grid must not serve a
        workflow that needs the spec-derived N-way grid (same spec, same
        caps — only the partition-state coverage differs)."""
        from repro.core.workflow import PaperWorkflow, TrainingPlan
        from repro.gpu.spec import A100_SPEC
        from repro.sim.engine import PerformanceSimulator
        from repro.sim.noise import no_noise

        caps = (230.0, 250.0)
        path = tmp_path / "cache.json"
        pair = PaperWorkflow(
            simulator=PerformanceSimulator(noise=no_noise()),
            plan=TrainingPlan(gpc_counts=(3, 4), power_caps=caps),
            power_caps=caps,
        )
        pair.train_or_load(str(path))

        nway = PaperWorkflow(
            simulator=PerformanceSimulator(noise=no_noise()),
            plan=TrainingPlan.for_spec(A100_SPEC, power_caps=caps),
            power_caps=caps,
        )
        with pytest.raises(ModelError, match="different partition-state grid"):
            nway.train_or_load(str(path))
