"""Tests for the MIG partitioning model (partition states and their placement)."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from placement_oracle import place_on_chip
from repro.errors import ConfigurationError, PartitioningError, SpecificationError
from repro.gpu.mig import (
    CORUN_STATES,
    GPC_TO_MEM_SLICES,
    InstanceAllocation,
    MemoryOption,
    PartitionState,
    S1,
    S2,
    S3,
    S4,
    enumerate_corun_states,
    enumerate_partition_states,
    solo_state,
)
from repro.gpu.spec import A100_SPEC, GPU_SPECS


def _contended(state, index):
    """Whether application ``index`` shares its memory pool on the A100."""
    (pool,) = [
        pool for pool in A100_SPEC.scheme.memory_pools(A100_SPEC, state) if index in pool.members
    ]
    return pool.contended


class TestPartitionState:
    def test_paper_states_are_defined(self):
        assert S1.gpc_allocations == (4, 3) and S1.option is MemoryOption.SHARED
        assert S2.gpc_allocations == (3, 4) and S2.option is MemoryOption.SHARED
        assert S3.gpc_allocations == (4, 3) and S3.option is MemoryOption.PRIVATE
        assert S4.gpc_allocations == (3, 4) and S4.option is MemoryOption.PRIVATE
        assert CORUN_STATES == (S1, S2, S3, S4)

    def test_invalid_instance_size_rejected(self):
        with pytest.raises(SpecificationError):
            PartitionState((5, 2), MemoryOption.PRIVATE)

    def test_empty_allocation_rejected(self):
        with pytest.raises(SpecificationError):
            PartitionState((), MemoryOption.PRIVATE)

    def test_option_accepts_string(self):
        state = PartitionState((4, 3), "shared")
        assert state.option is MemoryOption.SHARED

    def test_private_allocation_uses_slice_mapping(self):
        for gpcs, slices in GPC_TO_MEM_SLICES.items():
            allocation = solo_state(gpcs, MemoryOption.PRIVATE).allocation_for(0, A100_SPEC)
            assert allocation.mem_slices == slices
            assert not _contended(solo_state(gpcs, MemoryOption.PRIVATE), 0)

    def test_shared_allocation_sees_all_slices(self):
        allocation = S1.allocation_for(1, A100_SPEC)
        assert allocation.mem_slices == A100_SPEC.n_mem_slices
        assert _contended(S1, 1)

    def test_allocation_for_out_of_range(self):
        with pytest.raises(IndexError):
            S1.allocation_for(2, A100_SPEC)

    def test_swapped_reverses_order(self):
        assert S1.swapped().gpc_allocations == (3, 4)
        assert S1.swapped().option is MemoryOption.SHARED

    def test_total_gpcs_and_solo_flag(self):
        assert S1.total_gpcs == 7
        assert S1.n_apps == 2
        assert solo_state(4).n_apps == 1

    def test_validate_against_accepts_paper_states(self):
        for state in CORUN_STATES:
            state.validate_against(A100_SPEC)

    def test_validate_rejects_too_many_gpcs(self):
        state = PartitionState((4, 4), MemoryOption.SHARED)
        with pytest.raises(PartitioningError):
            state.validate_against(A100_SPEC)

    def test_validate_rejects_private_slice_overflow(self):
        state = PartitionState((4, 4), MemoryOption.PRIVATE)
        with pytest.raises(PartitioningError):
            state.validate_against(A100_SPEC)

    def test_describe_mentions_gpcs_and_option(self):
        assert "4GPCs-3GPCs" in S1.describe()
        assert "Shared" in S1.describe()
        assert S1.describe().startswith("S1")

    def test_key_ignores_label(self):
        relabeled = PartitionState((4, 3), MemoryOption.SHARED, "other")
        assert relabeled.key() == S1.key()


#: A labelled mixed state's fields: its hash mixes strings, so it differs
#: between processes.
_MIXED = ((1, 1, 2), "mixed", "X", (0, 0, 1))


class TestStoredHash:
    def test_hash_is_the_field_tuple_hash(self):
        state = PartitionState(*_MIXED)
        assert hash(state) == hash(((1, 1, 2), MemoryOption.MIXED, "X", (0, 0, 1)))
        assert hash(S1) == hash(((4, 3), MemoryOption.SHARED, "S1", None))
        relabelled = dataclasses.replace(S1, label="other")
        assert hash(relabelled) == hash(((4, 3), MemoryOption.SHARED, "other", None))

    def test_copies_and_pickles_hash_as_the_original(self):
        state = PartitionState(*_MIXED)
        state.describe()
        for twin in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert twin == state and hash(twin) == hash(state)
            assert {state: "found"}[twin] == "found"

    def test_a_state_pickled_by_another_process_hashes_as_here(self):
        state = PartitionState(*_MIXED)
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import pickle, sys\n"
            "from repro.gpu.mig import PartitionState\n"
            f"state = PartitionState(*{_MIXED!r})\n"
            "print(hash(state))\n"
            "print(pickle.dumps(state).hex())\n"
        )
        remote_hash, payload = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        # The premise: the two processes hash the state differently.
        assert int(remote_hash) != hash(state)
        loaded = pickle.loads(bytes.fromhex(payload))
        assert loaded == state and hash(loaded) == hash(state)
        assert {state: "found"}[loaded] == "found"


def _reference_groups(state: PartitionState) -> tuple[tuple[int, ...], ...]:
    """Application indices per GPU Instance, read off the fields alone."""
    n_apps = len(state.gpc_allocations)
    if state.option is MemoryOption.PRIVATE:
        gi_of = list(range(n_apps))
    elif state.option is MemoryOption.SHARED:
        gi_of = [0] * n_apps
    else:
        gi_of = list(state.gi_groups)
    return tuple(
        tuple(i for i in range(n_apps) if gi_of[i] == gi) for gi in sorted(set(gi_of))
    )


class TestStoredGroups:
    @pytest.mark.parametrize("spec_name", sorted(GPU_SPECS))
    def test_every_enumerated_state_groups_as_its_fields_say(self, spec_name):
        spec = GPU_SPECS[spec_name]
        for n_apps in range(1, spec.scheme.max_co_located(spec) + 1):
            for state in enumerate_partition_states(n_apps, spec):
                expected = _reference_groups(state)
                assert state.groups() == expected
                for members in expected:
                    for index in members:
                        assert state.group_of(index) == members
                for index in (-n_apps - 1, -n_apps, -1, n_apps, n_apps + 1):
                    with pytest.raises(IndexError, match="out of range"):
                        state.group_of(index)

    def test_copies_pickles_and_replacements_group_as_the_original(self):
        state = PartitionState(*_MIXED)
        twins = (
            copy.copy(state),
            copy.deepcopy(state),
            pickle.loads(pickle.dumps(state)),
            dataclasses.replace(state, label="Y"),
        )
        for twin in twins:
            assert twin.groups() == state.groups() == ((0, 1), (2,))
            assert [twin.group_of(i) for i in range(3)] == [(0, 1), (0, 1), (2,)]
        regrouped = dataclasses.replace(state, gi_groups=(0, 1, 1))
        assert regrouped.groups() == ((0,), (1, 2))
        assert regrouped.group_of(0) == (0,)
        # A pickle carries the constructor fields only, never the groups.
        fields = ((1, 1, 2), MemoryOption.MIXED, "X", (0, 0, 1))
        assert state.__reduce__() == (PartitionState, fields)


class TestFromDescription:
    """``PartitionState.from_description`` is the inverse of ``describe()``."""

    @pytest.mark.parametrize("spec_name", sorted(GPU_SPECS))
    def test_inverts_every_enumerated_state(self, spec_name):
        spec = GPU_SPECS[spec_name]
        for n_apps in range(1, spec.scheme.max_co_located(spec) + 1):
            for state in enumerate_partition_states(n_apps, spec):
                assert PartitionState.from_description(state.describe()) == state

    @pytest.mark.parametrize("state", CORUN_STATES, ids=lambda s: s.label)
    def test_inverts_the_labelled_paper_states(self, state):
        rebuilt = PartitionState.from_description(state.describe())
        assert rebuilt == state and rebuilt.label == state.label

    @pytest.mark.parametrize(
        "text, label",
        [("N1(1GPCs@g0-1GPCs@g0-2GPCs@g1/Mixed)", "N1"), ("a (b)(4GPCs/Private)", "a (b)")],
    )
    def test_keeps_any_label(self, text, label):
        state = PartitionState.from_description(text)
        assert state.label == label and state.describe() == text

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "S1(4GPCs-3GPCs/Shared",
            "4GPCs/Bogus",
            "9GPCs/Private",
            "4GPCs/Private ",
            "4GPCs/private",
            "04GPCs/Private",
            "4GPCs@g0-3GPCs@g0/Shared",
            "1GPCs@g0-1GPCs@g0-2GPCs/Mixed",
            "1GPCs@g1-1GPCs@g1-2GPCs@g0/Mixed",
            "(4GPCs/Private)",
        ],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ConfigurationError):
            PartitionState.from_description(text)


class TestStateEnumeration:
    def test_solo_states_cover_sizes_and_options(self):
        states = list(enumerate_partition_states(1, A100_SPEC))
        assert len(states) == len(A100_SPEC.mig_instance_sizes) * 2
        assert {state.key() for state in states} == {
            solo_state(size, option).key()
            for size in A100_SPEC.mig_instance_sizes
            for option in (MemoryOption.SHARED, MemoryOption.PRIVATE)
        }

    def test_enumerate_corun_states_are_all_valid(self):
        states = enumerate_corun_states(A100_SPEC)
        assert len(states) > 0
        for state in states:
            state.validate_against(A100_SPEC)

    def test_enumeration_contains_paper_states(self):
        keys = {state.key() for state in enumerate_corun_states(A100_SPEC)}
        for state in CORUN_STATES:
            assert state.key() in keys


class TestInstanceAllocation:
    def test_rejects_invalid_size(self):
        with pytest.raises(SpecificationError):
            InstanceAllocation(gpcs=6, mem_slices=8)

    def test_rejects_zero_slices(self):
        with pytest.raises(SpecificationError):
            InstanceAllocation(gpcs=4, mem_slices=0)


class TestPlacementOracle:
    def test_private_gi_gets_profile_slices(self):
        assert place_on_chip(A100_SPEC, solo_state(4)) == (
            (4, GPC_TO_MEM_SLICES[4], (0,)),
        )

    @pytest.mark.parametrize("state", CORUN_STATES, ids=lambda s: s.label)
    def test_paper_states_place_one_ci_per_app(self, state):
        gis = place_on_chip(A100_SPEC, state)
        assert sorted(i for _, _, members in gis for i in members) == [0, 1]

    def test_private_state_places_two_gis(self):
        assert place_on_chip(A100_SPEC, S3) == (
            (4, GPC_TO_MEM_SLICES[4], (0,)),
            (3, GPC_TO_MEM_SLICES[3], (1,)),
        )

    def test_shared_state_places_one_full_chip_gi(self):
        assert place_on_chip(A100_SPEC, S1) == (
            (A100_SPEC.mig_gpcs, A100_SPEC.n_mem_slices, (0, 1)),
        )

    @pytest.mark.parametrize(
        "gpcs, option",
        [((4, 4), "private"), ((4, 4), "shared"), ((2, 2, 2, 2), "private")],
    )
    def test_rejects_layouts_the_chip_cannot_hold(self, gpcs, option):
        with pytest.raises(PartitioningError):
            place_on_chip(A100_SPEC, PartitionState(gpcs, option))

    @pytest.mark.parametrize("spec_name", sorted(GPU_SPECS))
    def test_full_chip_gi_owns_every_slice(self, spec_name):
        spec = GPU_SPECS[spec_name]
        assert place_on_chip(spec, solo_state(spec.mig_gpcs)) == (
            (spec.mig_gpcs, spec.n_mem_slices, (0,)),
        )

    @pytest.mark.parametrize("spec_name", sorted(GPU_SPECS))
    def test_rejects_one_gpc_more_than_the_chip(self, spec_name):
        spec = GPU_SPECS[spec_name]
        for option in ("private", "shared"):
            with pytest.raises(PartitioningError):
                place_on_chip(spec, PartitionState((spec.mig_gpcs, 1), option))


class TestNWayEnumeration:
    def test_pairs_are_the_n2_special_case(self):
        from repro.gpu.mig import enumerate_partition_states

        assert enumerate_corun_states(A100_SPEC) == tuple(
            enumerate_partition_states(
                2, A100_SPEC, (MemoryOption.SHARED, MemoryOption.PRIVATE)
            )
        )

    def test_all_enumerated_states_are_valid(self):
        from repro.gpu.mig import enumerate_partition_states

        for n_apps in (1, 2, 3, 4):
            states = tuple(enumerate_partition_states(n_apps, A100_SPEC))
            assert states
            keys = set()
            for state in states:
                assert state.n_apps == n_apps
                state.validate_against(A100_SPEC)
                keys.add(state.key())
            assert len(keys) == len(states)  # no duplicates

    def test_mixed_states_need_three_apps(self):
        from repro.gpu.mig import enumerate_partition_states

        for n_apps in (1, 2):
            states = tuple(enumerate_partition_states(n_apps, A100_SPEC))
            assert all(s.option is not MemoryOption.MIXED for s in states)
        triples = tuple(enumerate_partition_states(3, A100_SPEC))
        assert any(s.option is MemoryOption.MIXED for s in triples)

    def test_enumeration_respects_spec_profile(self):
        from repro.gpu.mig import enumerate_partition_states
        from repro.gpu.spec import A30_SPEC

        for state in enumerate_partition_states(2, A30_SPEC):
            assert all(g in A30_SPEC.mig_instance_sizes for g in state.gpc_allocations)
            assert state.total_gpcs <= A30_SPEC.mig_gpcs

    def test_invalid_n_apps_rejected(self):
        from repro.gpu.mig import enumerate_partition_states

        with pytest.raises(SpecificationError):
            next(enumerate_partition_states(0, A100_SPEC))


class TestMixedStates:
    def test_mixed_requires_gi_groups(self):
        with pytest.raises(SpecificationError):
            PartitionState((2, 2, 3), MemoryOption.MIXED)

    def test_gi_groups_only_for_mixed(self):
        with pytest.raises(SpecificationError):
            PartitionState((2, 2), MemoryOption.SHARED, gi_groups=(0, 0))

    def test_degenerate_groupings_rejected(self):
        # All in one group is just the shared option.
        with pytest.raises(SpecificationError):
            PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 0))
        # All singletons is just the private option.
        with pytest.raises(SpecificationError):
            PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 1, 2))
        # Non-canonical ids are rejected.
        with pytest.raises(SpecificationError):
            PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(1, 1, 0))

    def test_mixed_allocation_and_validation(self):
        state = PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1))
        state.validate_against(A100_SPEC)
        first = state.allocation_for(0, A100_SPEC)
        # Apps 0+1 share a 4-GPC GI (the smallest profile holding 2+2).
        assert first.mem_slices == GPC_TO_MEM_SLICES[4]
        assert _contended(state, 0)
        third = state.allocation_for(2, A100_SPEC)
        assert third.mem_slices == GPC_TO_MEM_SLICES[3]
        assert not _contended(state, 2)

    def test_mixed_describe_is_unambiguous(self):
        a = PartitionState((1, 1, 2), MemoryOption.MIXED, gi_groups=(0, 0, 1))
        b = PartitionState((1, 2, 1), MemoryOption.MIXED, gi_groups=(0, 1, 0))
        assert a.describe() != b.describe()

    def test_mixed_swapped_preserves_grouping(self):
        state = PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1))
        swapped = state.swapped()
        assert swapped.gpc_allocations == (3, 2, 2)
        assert swapped.gi_groups == (0, 1, 1)
        assert swapped.groups() == ((0,), (1, 2))

    def test_mixed_state_places_two_gis(self):
        state = PartitionState((2, 2, 3), MemoryOption.MIXED, gi_groups=(0, 0, 1))
        gis = place_on_chip(A100_SPEC, state)
        assert sorted(gpcs for gpcs, _, _ in gis) == [3, 4]
        # Apps 0 and 1 share the first GI, app 2 owns the second.
        assert [members for _, _, members in gis] == [(0, 1), (2,)]


class TestSpecAwarePlacement:
    def test_a30_rejects_a100_only_sizes(self):
        from repro.gpu.spec import A30_SPEC

        with pytest.raises(PartitioningError):
            place_on_chip(A30_SPEC, solo_state(3))

    def test_a30_places_pair_state(self):
        from repro.gpu.spec import A30_SPEC

        gis = place_on_chip(A30_SPEC, PartitionState((2, 2), MemoryOption.PRIVATE))
        assert [members for _, _, members in gis] == [(0,), (1,)]
        assert sum(gpcs for gpcs, _, _ in gis) == A30_SPEC.mig_gpcs
