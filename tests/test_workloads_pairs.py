"""Tests for the Table 8 co-run pair definitions."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.workloads.classification import EXPECTED_CLASSIFICATION
from repro.workloads.pairs import CORUN_PAIRS, corun_pair, corun_pair_names

#: Table 8 exactly as printed in the paper.
TABLE8 = {
    "TI-TI1": ("tdgemm", "tf32gemm"),
    "TI-TI2": ("fp16gemm", "bf16gemm"),
    "CI-CI1": ("sgemm", "lavaMD"),
    "CI-CI2": ("dgemm", "hotspot"),
    "MI-MI1": ("randomaccess", "gaussian"),
    "MI-MI2": ("stream", "leukocyte"),
    "US-US1": ("bfs", "dwt2d"),
    "US-US2": ("kmeans", "needle"),
    "TI-MI1": ("hgemm", "lud"),
    "TI-MI2": ("igemm4", "stream"),
    "CI-MI1": ("heartwell", "gaussian"),
    "CI-MI2": ("sgemm", "randomaccess"),
    "TI-US1": ("igemm8", "backprop"),
    "TI-US2": ("fp16gemm", "pathfinder"),
    "CI-US1": ("srad", "needle"),
    "CI-US2": ("dgemm", "dwt2d"),
    "MI-US1": ("leukocyte", "kmeans"),
    "MI-US2": ("lud", "needle"),
}


def test_eighteen_pairs_defined():
    assert len(CORUN_PAIRS) == 18


def test_pair_definitions_match_table8():
    for pair in CORUN_PAIRS:
        assert TABLE8[pair.name] == (pair.app1, pair.app2)


def test_pair_names_are_unique_and_ordered():
    names = corun_pair_names()
    assert len(set(names)) == 18
    assert names[0] == "TI-TI1"
    assert names[-1] == "MI-US2"


def test_pair_classes_match_their_names():
    for pair in CORUN_PAIRS:
        prefix = pair.name.rstrip("0123456789")
        assert prefix == f"{pair.class1.value}-{pair.class2.value}"


def test_pair_applications_belong_to_the_named_classes():
    for pair in CORUN_PAIRS:
        assert EXPECTED_CLASSIFICATION[pair.app1] is pair.class1
        assert EXPECTED_CLASSIFICATION[pair.app2] is pair.class2


def test_corun_pair_lookup():
    pair = corun_pair("TI-MI2")
    assert pair.app_names == ("igemm4", "stream")


def test_corun_pair_unknown_name():
    with pytest.raises(WorkloadError):
        corun_pair("XX-YY9")


def test_kernels_resolve_against_suite():
    pair = corun_pair("CI-US1")
    kernel1, kernel2 = pair.kernels()
    assert kernel1.name == "srad"
    assert kernel2.name == "needle"


def test_iter_pair_kernels_yields_all_pairs():
    # Every Table 8 pair resolves both applications against the suite.
    for pair in CORUN_PAIRS:
        kernel1, kernel2 = pair.kernels()
        assert (kernel1.name, kernel2.name) == TABLE8[pair.name]


def test_describe_is_informative():
    assert corun_pair("TI-MI2").describe() == "TI-MI2 = (igemm4, stream)"
