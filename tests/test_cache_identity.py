"""Aliasing regression tests for the id()-keyed kernel-signature memo (RL001).

CPython recycles object addresses, so an id-keyed memo can serve a dead
object's cached value to a fresh object that happens to land at the same
address.  The engine's memo stores a weakref next to the value and only
trusts an entry whose ref still points at *this* object; the ref's callback
evicts entries when their object dies.  These tests forge the collision
deterministically (a dead ref planted at a live object's id) rather than
hoping the allocator reuses an address.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.workloads.suite import DEFAULT_SUITE


def fresh_kernel(**overrides):
    """A new KernelCharacteristics instance (never the shared suite object)."""
    return dataclasses.replace(DEFAULT_SUITE.get("dgemm"), **overrides)


def dead_ref():
    """A weakref whose referent is already collected."""
    donor = fresh_kernel(name="donor")
    ref = weakref.ref(donor)
    del donor
    gc.collect()
    assert ref() is None
    return ref


class TestKernelSignatureMemo:
    def test_memo_hit_returns_cached_signature(self):
        sim = PerformanceSimulator(noise=no_noise())
        kernel = fresh_kernel()
        first = sim._kernel_signature(kernel)
        assert sim._kernel_signature(kernel) is first

    def test_stale_entry_at_recycled_address_is_not_served(self):
        sim = PerformanceSimulator(noise=no_noise())
        kernel = fresh_kernel(l2_hit_rate=0.9)
        # repro: allow[RL001] forging the unguarded stale entry under test
        sim._kernel_sig_cache[id(kernel)] = (dead_ref(), ("stale", "signature"))
        signature = sim._kernel_signature(kernel)
        assert signature != ("stale", "signature")
        assert signature[0] == kernel.name
        # The forged entry was replaced by a correctly guarded one.
        # repro: allow[RL001] inspecting the guarded entry the memo rebuilt
        ref, cached = sim._kernel_sig_cache[id(kernel)]
        assert ref() is kernel and cached == signature

    def test_dead_kernel_entry_evicts_itself(self):
        sim = PerformanceSimulator(noise=no_noise())
        kernel = fresh_kernel(name="short-lived")
        sim._kernel_signature(kernel)
        key = id(kernel)
        assert key in sim._kernel_sig_cache
        del kernel
        gc.collect()
        assert key not in sim._kernel_sig_cache
