"""Spec-generic partition-scheme contracts (the vendor-neutral refactor).

Two families of guarantees:

* **Properties over every spec** — for every entry in ``GPU_SPECS``
  (coupled-slice NVIDIA parts and the independent-axes ``mi300x`` alike),
  every enumerated partition state validates against its spec, state keys
  are unique, and no state hands out more compute units or memory domains
  than the chip has.  These hold by construction for the coupled scheme
  and must keep holding for every scheme a spec may carry.
* **Pinned NVIDIA parity** — A100/H100/A30 state enumeration and the
  ``repro states`` renderings are byte-identical to the outputs captured
  on main immediately before the ``PartitionScheme`` abstraction landed
  (``tests/data/states_<spec>_<n>.txt``), proving the coupled scheme is a
  faithful reimplementation rather than a behavioral rewrite.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from placement_oracle import place_on_chip
from repro.errors import PartitioningError
from repro.gpu.mig import MemoryOption, enumerate_partition_states
from repro.gpu.scheme import (
    CoupledSliceScheme,
    IndependentAxesScheme,
    MemoryPool,
)
from repro.gpu.spec import A100_SPEC, GPU_SPECS, MI300X_SPEC

DATA_DIR = Path(__file__).parent / "data"

#: Group sizes the property sweep enumerates per spec (1 = solo states).
SWEEP_SIZES = (1, 2, 3, 4)

#: States enumerated per spec over every group size the spec can host.
ENUMERATED_STATES = {"a100": 3228, "h100": 3228, "a30": 39, "mi300x": 246}


def _all_states(spec, n_apps):
    return tuple(enumerate_partition_states(n_apps, spec))


class TestSchemeProperties:
    @pytest.mark.parametrize("spec_name", sorted(GPU_SPECS))
    @pytest.mark.parametrize("n_apps", SWEEP_SIZES)
    def test_enumerated_states_validate(self, spec_name, n_apps):
        spec = GPU_SPECS[spec_name]
        for state in _all_states(spec, n_apps):
            state.validate_against(spec)  # must not raise

    @pytest.mark.parametrize("spec_name", sorted(GPU_SPECS))
    @pytest.mark.parametrize("n_apps", SWEEP_SIZES)
    def test_state_keys_unique(self, spec_name, n_apps):
        spec = GPU_SPECS[spec_name]
        states = _all_states(spec, n_apps)
        keys = [state.key() for state in states]
        assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("spec_name", sorted(GPU_SPECS))
    @pytest.mark.parametrize("n_apps", SWEEP_SIZES)
    def test_totals_never_exceed_spec(self, spec_name, n_apps):
        spec = GPU_SPECS[spec_name]
        for state in _all_states(spec, n_apps):
            assert sum(state.gpc_allocations) <= spec.mig_gpcs
            pools = spec.scheme.memory_pools(spec, state)
            domains = [spec.scheme.group_mem_domains(spec, state, pool.members) for pool in pools]
            assert sum(domains) <= spec.n_mem_slices
            covered = sorted(i for pool in pools for i in pool.members)
            assert covered == list(range(state.n_apps))

    @pytest.mark.parametrize("spec_name", sorted(GPU_SPECS))
    @pytest.mark.parametrize("n_apps", SWEEP_SIZES)
    def test_per_app_views_consistent(self, spec_name, n_apps):
        """Allocation views agree with the scheme's pool decomposition."""
        spec = GPU_SPECS[spec_name]
        for state in _all_states(spec, n_apps):
            for index in range(state.n_apps):
                allocation = state.allocation_for(index, spec)
                assert allocation.gpcs == state.gpc_allocations[index]
                assert 0 < allocation.mem_slices <= spec.n_mem_slices
                assert (
                    allocation.mem_slices
                    == state.mem_slices_for(index, spec)
                )

    @pytest.mark.parametrize("spec_name", sorted(GPU_SPECS))
    def test_enumeration_respects_co_location_ceiling(self, spec_name):
        spec = GPU_SPECS[spec_name]
        beyond = spec.scheme.max_co_located(spec) + 1
        assert _all_states(spec, beyond) == ()

    @pytest.mark.parametrize("spec_name", sorted(GPU_SPECS))
    def test_every_state_applies_on_the_emulated_device(self, spec_name):
        """Each enumerated layout places on the chip, one CI per app, and
        each app's memory key is the profile slices of the GI it lands in."""
        spec = GPU_SPECS[spec_name]
        checked = 0
        for n_apps in range(1, spec.scheme.max_co_located(spec) + 1):
            for state in _all_states(spec, n_apps):
                gis = place_on_chip(spec, state)
                hosted = sorted(i for _, _, members in gis for i in members)
                assert hosted == list(range(n_apps)), state.describe()
                for _, gi_slices, members in gis:
                    for index in members:
                        assert state.mem_slices_for(index, spec) == gi_slices
                checked += 1
        assert checked == ENUMERATED_STATES[spec_name]

    def test_memory_pools_flag_contention(self):
        spec = A100_SPEC
        shared = next(
            iter(enumerate_partition_states(2, spec, (MemoryOption.SHARED,)))
        )
        private = next(
            iter(enumerate_partition_states(2, spec, (MemoryOption.PRIVATE,)))
        )
        assert all(
            pool.contended for pool in spec.scheme.memory_pools(spec, shared)
        )
        assert not any(
            pool.contended for pool in spec.scheme.memory_pools(spec, private)
        )
        assert isinstance(spec.scheme.memory_pools(spec, shared)[0], MemoryPool)


class TestSchemeDispatch:
    def test_nvidia_specs_carry_coupled_scheme(self):
        for name in ("a100", "h100", "a30"):
            assert isinstance(GPU_SPECS[name].scheme, CoupledSliceScheme)

    def test_mi300x_carries_independent_axes(self):
        assert isinstance(MI300X_SPEC.scheme, IndependentAxesScheme)
        assert GPU_SPECS["mi300x"] is MI300X_SPEC

    def test_independent_axes_rejects_asymmetric_allocations(self):
        from repro.gpu.mig import PartitionState

        state = PartitionState((4, 3), MemoryOption.PRIVATE)
        with pytest.raises(PartitioningError):
            state.validate_against(MI300X_SPEC)

    def test_mi300x_private_memory_follows_nps(self):
        """NPS domains shrink as partitions multiply: g XCDs → g stacks."""
        for state in enumerate_partition_states(
            2, MI300X_SPEC, (MemoryOption.PRIVATE,)
        ):
            for index in range(state.n_apps):
                assert (
                    state.mem_slices_for(index, MI300X_SPEC)
                    == state.gpc_allocations[index]
                )


class TestPinnedNvidiaParity:
    """Enumeration and CLI output are byte-identical to pre-refactor main."""

    @pytest.mark.parametrize("spec_name", ("a100", "h100", "a30"))
    @pytest.mark.parametrize("n_apps", (1, 2, 3))
    def test_states_output_byte_identical(self, spec_name, n_apps):
        from repro import cli

        pinned = (DATA_DIR / f"states_{spec_name}_{n_apps}.txt").read_text()
        buffer = io.StringIO()
        status = cli.main(
            ["states", str(n_apps), "--spec", spec_name],
            out=lambda line: buffer.write(line + "\n"),
        )
        assert status == 0
        assert buffer.getvalue() == pinned

    def test_a100_pair_enumeration_pinned(self):
        """The S1–S4-bearing pair grid keeps its exact size and keys."""
        states = _all_states(A100_SPEC, 2)
        assert len(states) == 30
        shared = [
            s for s in states if s.option is MemoryOption.SHARED
        ]
        assert all(
            s.mem_slices_for(0, A100_SPEC) == A100_SPEC.n_mem_slices
            for s in shared
        )
