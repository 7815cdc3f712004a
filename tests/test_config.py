"""Tests for the evaluation configuration defaults."""

from __future__ import annotations

import pytest

from repro.config import (
    ALPHA_SWEEP,
    DEFAULT_CONFIG,
    DEFAULT_POWER_CAPS,
    PROBLEM1_POWER_CAP_W,
    PROBLEM2_ALPHAS,
    SCALABILITY_GPC_COUNTS,
    EvaluationConfig,
    check_count,
)
from repro.errors import ConfigurationError
from repro.gpu.mig import CORUN_STATES


def test_default_power_caps_match_table5():
    assert DEFAULT_POWER_CAPS == (150.0, 170.0, 190.0, 210.0, 230.0, 250.0)


def test_problem1_power_cap_matches_paper():
    assert PROBLEM1_POWER_CAP_W == 230.0


def test_problem2_alphas_match_paper():
    assert PROBLEM2_ALPHAS == (0.20, 0.42)


def test_alpha_sweep_spans_paper_range():
    assert min(ALPHA_SWEEP) == 0.0
    assert max(ALPHA_SWEEP) == pytest.approx(0.42)


def test_scalability_gpc_counts_are_valid_mig_sizes():
    assert SCALABILITY_GPC_COUNTS == (1, 2, 3, 4, 7)


def test_default_config_uses_corun_states():
    assert DEFAULT_CONFIG.candidate_states == CORUN_STATES


def test_config_rejects_empty_power_caps():
    with pytest.raises(ConfigurationError):
        EvaluationConfig(power_caps=())


def test_config_rejects_negative_power_caps():
    with pytest.raises(ConfigurationError):
        EvaluationConfig(power_caps=(150.0, -10.0))


def test_config_rejects_bad_alpha():
    with pytest.raises(ConfigurationError):
        EvaluationConfig(alpha=1.5)



def test_check_count_applies_its_minimum():
    assert check_count("window_size", 1) == 1
    with pytest.raises(ConfigurationError, match="window_size must be >= 1, got 0"):
        check_count("window_size", 0)
    assert check_count("seed", -3, minimum=None) == -3
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        check_count("seed", "3", minimum=None)
