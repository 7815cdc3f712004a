"""Model-error statistics (Section 5.2.1).

The paper reports the average relative error of the model across *all*
workloads and hardware setups: about 9.7 % for the throughput metric and
14.5 % for the fairness metric.  :func:`model_error_summary` computes the
same statistic over the simulator's ground truth.

:func:`model_error_by_gi_size` adds the per-GPU-Instance-size breakdown
that motivated the capacity-aware interference basis (key schema v3): mean
and maximum relative RPerf error of shared Compute Instances, bucketed by
the memory slices of their hosting GPU Instance.  The 2-slice bucket is
where the pair-era linear-in-``J`` fit underfit (~30 % mean error); the
breakdown both proves the fix and guards the 4-slice keys against
regressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.context import EvaluationContext
from repro.analysis.figures import figure8_model_accuracy
from repro.core.metrics import mean_absolute_percentage_error
from repro.core.model import HardwareStateKey, LinearPerfModel
from repro.errors import AnalysisError
from repro.gpu.mig import MemoryOption, PartitionState, enumerate_partition_states
from repro.sim.engine import PerformanceSimulator
from repro.workloads.kernel import KernelCharacteristics


@dataclass(frozen=True)
class ModelErrorSummary:
    """Average model errors across workloads, states, and power caps."""

    throughput_mape_pct: float
    fairness_mape_pct: float
    n_samples: int


def model_error_summary(
    context: EvaluationContext,
    power_caps: Sequence[float] | None = None,
) -> ModelErrorSummary:
    """Average relative model error across the full evaluation grid.

    Raises
    ------
    repro.errors.AnalysisError
        If the power-cap list or the resulting evaluation grid is empty
        (there would be nothing to average over).
    """
    caps = tuple(power_caps) if power_caps is not None else context.config.power_caps
    if not caps:
        raise AnalysisError(
            "model_error_summary got an empty power-cap list; pass at least "
            "one cap via power_caps or context.config.power_caps"
        )
    rows = [
        row for cap in caps for row in figure8_model_accuracy(context, power_cap_w=float(cap)).rows
    ]
    if not rows:
        raise AnalysisError(
            "model_error_summary produced no accuracy rows: the evaluation "
            "grid is empty (context.config.candidate_states or the co-run "
            "workload list is empty)"
        )
    return ModelErrorSummary(
        throughput_mape_pct=mean_absolute_percentage_error(
            [r.estimated_throughput for r in rows], [r.measured_throughput for r in rows]
        ),
        fairness_mape_pct=mean_absolute_percentage_error(
            [r.estimated_fairness for r in rows], [r.measured_fairness for r in rows]
        ),
        n_samples=len(rows),
    )


# ----------------------------------------------------------------------
# Per-GI-size breakdown (the key schema v3 accuracy guard)
# ----------------------------------------------------------------------
#: Acceptance bounds on the per-GI-size *mean* RPerf error, shared by the
#: tier-1 bound test (tests/test_capacity_basis.py) and the CI gate
#: (scripts/gi_size_error_summary.py) so the two cannot drift apart.
#: 2-slice is the capacity-aware-basis acceptance bound; 4-slice pins the
#: seed's pre-v3 level ("no worse than seed"); the full-chip bound was
#: tightened from the pair-era additive composition's 36 % when the N≥3
#: composition correction (the capacity-aware basis at ``q = 1``,
#: ``ModelTrainer.fit_composition``) closed the ROADMAP open item —
#: measured ~21.8 % mean on the three-way evaluation grid.
TWO_SLICE_MEAN_ERROR_BOUND_PCT = 15.0
FOUR_SLICE_MEAN_ERROR_BOUND_PCT = 16.1
FULL_CHIP_MEAN_ERROR_BOUND_PCT = 24.0


@dataclass(frozen=True)
class GISizeErrorSummary:
    """Relative RPerf error of shared CIs in GPU Instances of one size."""

    mem_slices: int
    n_samples: int
    mean_error_pct: float
    max_error_pct: float


def model_error_by_gi_size(
    model: LinearPerfModel,
    simulator: PerformanceSimulator,
    power_caps: Sequence[float],
    groups: Sequence[Sequence[KernelCharacteristics]] | None = None,
    states: Sequence[PartitionState] | None = None,
) -> tuple[GISizeErrorSummary, ...]:
    """Mean/max relative RPerf error bucketed by the hosting GI's slices.

    Every application of every ``(group, state, cap)`` combination whose
    per-application key has the *shared* memory option contributes one
    sample to the bucket of its GPU Instance's memory-slice count;
    applications behind private keys are skipped (they are not what the
    capacity-aware basis predicts).  ``groups`` defaults to the named
    training-suite triples (:data:`repro.workloads.groups.CORUN_TRIPLES`)
    and ``states`` to every mixed *and* full-chip shared
    three-application layout on the model's spec: the mixed layouts form
    the grid whose 2-slice bucket sat at ~30 % mean error before the
    capacity-aware basis, and the shared layouts contribute the
    full-chip (8-slice on the A100) bucket that guards the pair-era
    coefficients against regressions.  States a group's size does not
    match or the model cannot evaluate at every cap are skipped.

    Raises
    ------
    repro.errors.AnalysisError
        If ``power_caps``, ``groups``, or ``states`` is empty, or if no
        (group, state, cap) combination yields a shared-key sample.
    """
    caps = tuple(float(cap) for cap in power_caps)
    if not caps:
        raise AnalysisError(
            "model_error_by_gi_size got an empty power-cap list; pass at "
            "least one power cap"
        )
    if groups is None:
        from repro.workloads.groups import CORUN_TRIPLES

        groups = [group.kernels() for group in CORUN_TRIPLES]
    groups = [tuple(group) for group in groups]
    if not groups:
        raise AnalysisError(
            "model_error_by_gi_size got an empty workload-group list; pass "
            "at least one kernel group"
        )
    if states is None:
        states = tuple(
            enumerate_partition_states(
                3, model.spec, (MemoryOption.MIXED, MemoryOption.SHARED)
            )
        )
    states = tuple(states)
    if not states:
        raise AnalysisError(
            "model_error_by_gi_size got an empty partition-state list; pass "
            "at least one state"
        )
    errors: dict[int, list[float]] = {}
    for kernels in groups:
        counters = [simulator.profile(kernel) for kernel in kernels]
        for state in states:
            if state.n_apps != len(kernels):
                continue
            if not model.supports_candidate(state, caps):
                continue
            for cap in caps:
                predicted = model.predict_corun(counters, state, cap)
                measured = simulator.co_run(list(kernels), state, cap)
                for index in range(state.n_apps):
                    key = HardwareStateKey.from_state(state, index, cap, model.spec)
                    if key.option is not MemoryOption.SHARED:
                        continue
                    simulated = measured.relative_performances[index]
                    error = abs(predicted[index] - simulated) / simulated
                    errors.setdefault(key.mem_slices, []).append(error)
    if not errors:
        raise AnalysisError(
            "model_error_by_gi_size found no shared-key samples: no state "
            "matched a group's size (or none is fitted at the requested "
            "caps)"
        )
    return tuple(
        GISizeErrorSummary(
            mem_slices=mem_slices,
            n_samples=len(samples),
            mean_error_pct=100.0 * sum(samples) / len(samples),
            max_error_pct=100.0 * max(samples),
        )
        for mem_slices, samples in sorted(errors.items())
    )
