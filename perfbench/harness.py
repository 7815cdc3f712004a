"""The benchmark's workloads and the protocol one run follows.

A run measures one workload in one single-threaded process:

* **setup** -- ``import repro.api`` plus ``PlannerService.session_for``
  (the offline sweeps, the least-squares fit and profile collection);
* **cold** -- work that finds every memo empty: a replay workload's first
  replay, decide-nway's first-seen requests;
* **warm** -- later operations in the same process.

Setup, and a replay workload's cold replay, are repeated in fresh child
processes (:func:`probe`) so that they stand on several samples.  The
untraced run measures warm work until its host time reaches ``--seconds``;
the traced run does a fixed amount of work, so its counts repeat exactly
for a seed.

Host speed on a shared machine drifts by tens of percent for seconds at a
time, more than the program's own variation, and a drift slows a fixed
pure-Python loop nearly as much as it slows the program.  So every
host-time sample of the untraced run is scaled to a reference speed by a
:class:`ScaledClock`: a calibration loop runs between timed operations,
and each operation's host time is multiplied by the loop's reference time
over its time measured on either side of the operation.  The scale tracks
the host best for short operations, so warm work is timed in operations
of ~0.1-0.3 s at most.  Metrics are medians (or totals) of the scaled
samples.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checks
import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Child processes get this long before they are killed (and waited for).
PROBE_TIMEOUT_S = 170
#: Iterations of the calibration loop, and its host time at the reference
#: speed (about the fastest a 2-vCPU Xeon VM runs it on CPython 3.11).
CALIBRATION_ITERATIONS = 40_000
REFERENCE_CALIBRATION_S = 0.005

#: End-to-end metrics as (name, unit, better).  README.md says what each
#: one measures on each workload.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("cold_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("p50_us", "us", "lower"),
    ("sim_jobs_per_s", "1/s", "higher"),
    ("sim_energy_j_per_job", "J", "lower"),
    ("sim_turnaround_mean_s", "s", "lower"),
    ("rperf_error_pct", "%", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def calibrate() -> float:
    """Host time of one pass of a fixed pure-Python loop (a few ms)."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - start


class ScaledClock:
    """Scales host time to the reference speed.

    Calibrates once on creation; each :meth:`lap` calibrates again and
    returns the scale of the work done since the previous calibration:
    ``REFERENCE_CALIBRATION_S`` over the mean of the two passes around it.
    """

    def __init__(self) -> None:
        calibrate()  # the first pass of a process runs cold
        self._last_s = calibrate()

    def lap(self) -> float:
        now_s = calibrate()
        scale = 2.0 * REFERENCE_CALIBRATION_S / (self._last_s + now_s)
        self._last_s = now_s
        return scale


class Tally:
    """Operations attempted, operations failed, and what the checks found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        """Count one operation; it failed when any check found a problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class Fixed:
    """Outcome of a fixed amount of work (the traced run and its twin).

    ``fixed_work`` returns the host time of its own timed operations as
    ``wall_s``, the warm phase's window and operation count, and the output
    checks still to run; ``run_fixed`` adds the import and set-up to the
    wall time and attaches the span recorder of a traced run.
    """

    wall_s: float
    warm_window: tuple[float, float]
    warm_ops: int
    check: Callable[[], None]
    recorder: Any = None


def import_program() -> tuple[Any, float, float]:
    """Import ``repro.api``; returns it with the import's start and end."""
    start = time.perf_counter()
    import repro.api as api

    return api, start, time.perf_counter()


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def states_by_description(group_size: int, spec_name: str) -> dict[str, Any]:
    """Every partition state the spec realizes for ``group_size`` apps."""
    from repro.gpu.mig import CORUN_STATES, enumerate_partition_states
    from repro.gpu.spec import spec_by_name

    spec = spec_by_name(spec_name)
    states = list(enumerate_partition_states(group_size, spec))
    states += [state for state in CORUN_STATES if state.n_apps == group_size]
    return {state.describe(): state for state in states}


def trained_groups(group_size: int) -> list[tuple[str, ...]]:
    """The suite groups of this size the offline sweep trains on."""
    from repro.workloads.groups import groups_of_size

    return [group.apps for group in groups_of_size(group_size)]


def engine_run(
    service: Any, request: Any, engine: Any, states: dict[str, Any], tally: Tally
) -> tuple[float, Any] | None:
    """Decide ``request`` and run the chosen allocation on a reference engine.

    Returns the mean relative RPerf error of the prediction against the
    engine, and the engine's co-run result; ``None`` if the decision
    failed its checks.
    """
    from repro.errors import ReproError
    from repro.workloads.suite import DEFAULT_SUITE

    try:
        result = service.decide(request)
    except ReproError as exc:
        tally.record([f"decide {request.apps}: {exc}"])
        return None
    problems = checks.check_decision(
        result, request.apps, request.alpha, frozenset(states)
    )
    tally.record(problems)
    if problems:
        return None
    kernels = [DEFAULT_SUITE.get(app) for app in request.apps]
    run = engine.co_run(kernels, states[result.state], result.power_cap_w)
    measured = run.relative_performances
    error = statistics.fmean(
        abs(p - m) / m for p, m in zip(result.predicted_rperfs, measured)
    )
    return error, run


def probe(workload: Workload, seed: int, kind: str) -> dict[str, float]:
    """Run ``run.py --probe kind`` in a fresh process; returns its JSON line."""
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload",
        workload.name,
        "--seed",
        str(seed),
        "--probe",
        kind,
    ]
    done = subprocess.run(
        command,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{kind} probe exited {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


class Workload:
    """What every workload shares: its session, the fresh-process set-up
    samples, and the fixed-work run that the traced run and its untraced
    twin make.  Subclasses supply ``fixed_work`` and ``measure``."""

    name: str
    why: str
    SPEC = "a100"
    GROUP_SIZE: int
    #: Set-up samples per run: this process plus fresh child processes.
    SETUP_SAMPLES: int

    def setup(self, api: Any) -> Any:
        service = api.PlannerService()
        service.session_for(self.SPEC, self.GROUP_SIZE)
        return service

    def set_up_scaled(self) -> tuple[Any, Any, float, ScaledClock]:
        """Import and set up in this process.

        Returns the API module, the service, the scaled host time of the
        import and set-up, and the clock that scaled it.
        """
        clock = ScaledClock()
        api, start, _ = import_program()
        service = self.setup(api)
        setup_s = (time.perf_counter() - start) * clock.lap()
        return api, service, setup_s, clock

    def probe_setup(self, seed: int) -> dict[str, float]:
        """One fresh-process sample of set-up, plus :meth:`cold_sample`."""
        api, service, setup_s, clock = self.set_up_scaled()
        return {"setup_s": setup_s, **self.cold_sample(api, service, seed, clock)}

    def cold_sample(
        self, api: Any, service: Any, seed: int, clock: ScaledClock
    ) -> dict[str, float]:
        """Cold work a set-up sample also times (none by default)."""
        return {}

    def fixed_work(self, api: Any, service: Any, seed: int, tally: Tally) -> Fixed:
        """The workload's fixed amount of work, on a set-up ``service``."""
        raise NotImplementedError

    def run_fixed(self, seed: int, tally: Tally, traced: bool) -> Fixed:
        """Import, set up and do :meth:`fixed_work`, traced or not.

        The wall time covers the import, set-up and the work's timed
        operations; the output checks run afterwards, untraced.
        """
        api, start, end = import_program()
        recorder = None
        if traced:
            import layers
            from spans import SpanRecorder

            recorder = SpanRecorder()
            recorder.install(layers.targets())
            recorder.add(layers.IMPORT_SPAN, start, end)
        try:
            begin = time.perf_counter()
            service = self.setup(api)
            setup_s = time.perf_counter() - begin
            work = self.fixed_work(api, service, seed, tally)
        finally:
            if recorder is not None:
                recorder.uninstall()
        work.check()
        work.wall_s += end - start + setup_s
        work.recorder = recorder
        return work


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cold:
    """The first replay of a fresh session."""

    elapsed_s: float
    trace: Any
    result: Any


@dataclass(frozen=True)
class WarmSlice:
    """One slice of the warm phase: a full-size replay of a fresh trace,
    then short replays of fresh traces (their host times in ``short_s``).
    Host times are scaled."""

    elapsed_s: float
    n_jobs: int
    result: Any
    short_s: list[float]


@dataclass(frozen=True)
class ReplayWorkload(Workload):
    """``PlannerService.simulate_trace`` over seeded traces (A100 pair session)."""

    name: str
    why: str
    mix: str
    #: Jobs per cold replay (and per traced replay).
    n_jobs: int
    #: Jobs per timed warm replay: short enough (~0.1-0.2 s) for the
    #: calibration passes around it to catch the host speed it ran at.
    warm_jobs: int
    #: Poisson arrival rate, or the burst-start rate when ``mean_burst`` is set.
    rate_per_s: float
    mean_burst: float | None = None
    power_budget_per_node_w: float | None = None
    repartition_latency_s: float = 0.0

    GROUP_SIZE = 2
    SETUP_SAMPLES = 7
    N_NODES = 8
    WINDOW_SIZE = 6
    POLICY = "problem1"
    POWER_CAP_W = 230.0
    ALPHA = 0.2
    #: Warm replays the sim metrics pool with the cold one; the warm phase
    #: has at least this many slices.
    SIM_WARM_REPLAYS = 32
    #: Jobs per short replay, and short replays per warm slice.
    SHORT_JOBS = 100
    SHORT_REPLAYS = 4
    TRACED_WARM_REPLAYS = 2

    def request(self, api: Any) -> Any:
        budget = (
            None
            if self.power_budget_per_node_w is None
            else self.power_budget_per_node_w * self.N_NODES
        )
        return api.SimulationRequest(
            n_nodes=self.N_NODES,
            policy=self.POLICY,
            power_cap_w=self.POWER_CAP_W,
            alpha=self.ALPHA,
            window_size=self.WINDOW_SIZE,
            group_size=self.GROUP_SIZE,
            repartition_latency_s=self.repartition_latency_s,
            power_budget_w=budget,
            spec=self.SPEC,
        )

    def trace(self, seed: int, stream: str, n_jobs: int | None = None) -> Any:
        """A seeded trace of this workload's shape, ``n_jobs`` long."""
        from repro.traces.generators import bursty_trace, poisson_trace
        from repro.workloads.mixes import mix_by_name

        mix = mix_by_name(self.mix)
        n_jobs = self.n_jobs if n_jobs is None else n_jobs
        trace_seed = inputs.seed_for(self.name, seed, stream)
        label = f"{self.name}/{seed}/{stream}"
        if self.mean_burst is None:
            return poisson_trace(
                self.rate_per_s, n_jobs=n_jobs, seed=trace_seed, mix=mix, label=label
            )
        return bursty_trace(
            self.rate_per_s,
            self.mean_burst,
            duration_s=math.inf,
            n_jobs=n_jobs,
            seed=trace_seed,
            mix=mix,
            label=label,
        )

    def replay(self, api: Any, service: Any, trace: Any, tally: Tally) -> tuple[float, Any]:
        request = self.request(api)
        start = time.perf_counter()
        result = service.simulate_trace(trace, request)
        elapsed = time.perf_counter() - start
        tally.record(
            []
            if result.n_jobs == trace.n_jobs
            else [f"{result.n_jobs} of {trace.n_jobs} jobs reported"]
        )
        return elapsed, result

    def cold(self, api: Any, service: Any, seed: int, tally: Tally) -> Cold:
        trace = self.trace(seed, "cold")
        elapsed, result = self.replay(api, service, trace, tally)
        return Cold(elapsed, trace, result)

    def cold_sample(
        self, api: Any, service: Any, seed: int, clock: ScaledClock
    ) -> dict[str, float]:
        return {"cold_s": self.cold(api, service, seed, Tally()).elapsed_s * clock.lap()}

    def warm_slice(
        self, api: Any, service: Any, seed: int, index: int, tally: Tally, clock: ScaledClock
    ) -> WarmSlice:
        """A warm replay and ``SHORT_REPLAYS`` short ones, host times scaled."""
        trace = self.trace(seed, f"warm-{index}", self.warm_jobs)
        elapsed, result = self.replay(api, service, trace, tally)
        elapsed *= clock.lap()
        short_s = []
        for k in range(self.SHORT_REPLAYS):
            short = self.trace(seed, f"short-{index}-{k}", self.SHORT_JOBS)
            short_s.append(self.replay(api, service, short, tally)[0] * clock.lap())
        return WarmSlice(elapsed, trace.n_jobs, result, short_s)

    def verify(self, api: Any, service: Any, cold: Cold, tally: Tally) -> None:
        """Replay the cold trace on the hot session and check both outcomes."""
        from spans import SpanRecorder, Target

        capture = SpanRecorder()
        capture.install(
            [
                Target(
                    "repro.api.results",
                    "SimulationResult.from_report",
                    "report",
                    observe=lambda args, result: args[1],
                )
            ]
        )
        try:
            again = service.simulate_trace(cold.trace, self.request(api))
        finally:
            capture.uninstall()
        report = capture.observations["report"][-1]
        arrivals = [(entry.arrival_time_s, entry.app) for entry in cold.trace.entries]
        tally.record(
            checks.check_replay_jobs(arrivals, report.jobs)
            + checks.check_same_result(
                checks.canonical(cold.result.to_dict()),
                checks.canonical(again.to_dict()),
                "the cold replay",
            )
        )

    def model_error(self, api: Any, service: Any, tally: Tally) -> float:
        """Mix-weighted RPerf error over held-out pairs, engine as reference."""
        from repro.gpu.spec import spec_by_name
        from repro.sim.engine import PerformanceSimulator
        from repro.workloads.mixes import mix_by_name

        weights = mix_by_name(self.mix).normalized()
        engine = PerformanceSimulator(spec_by_name(self.SPEC))
        states = states_by_description(self.GROUP_SIZE, self.SPEC)
        weighted, total = 0.0, 0.0
        for group in inputs.held_out_groups(weights, 2, trained_groups(2)):
            for apps in (group, group[::-1]):
                request = api.DecisionRequest(
                    apps=apps,
                    policy=self.POLICY,
                    power_cap_w=self.POWER_CAP_W,
                    alpha=self.ALPHA,
                    spec=self.SPEC,
                )
                outcome = engine_run(service, request, engine, states, tally)
                if outcome is not None:
                    weight = weights[apps[0]] * weights[apps[1]]
                    weighted += weight * outcome[0]
                    total += weight
        return 100.0 * weighted / total if total else float("nan")

    def measure(
        self, seed: int, seconds: float, probes: list[dict[str, float]]
    ) -> tuple[dict[str, float], Tally, list[str]]:
        api, service, setup_s, clock = self.set_up_scaled()
        tally = Tally()
        cold = self.cold(api, service, seed, tally)
        cold_samples = [cold.elapsed_s * clock.lap()] + [p["cold_s"] for p in probes]
        slices: list[WarmSlice] = []
        measured = 0.0
        while len(slices) < self.SIM_WARM_REPLAYS or measured < seconds:
            part = self.warm_slice(api, service, seed, len(slices), tally, clock)
            measured += part.elapsed_s + sum(part.short_s)
            slices.append(part)
        self.verify(api, service, cold, tally)
        pooled = [cold.result] + [part.result for part in slices[: self.SIM_WARM_REPLAYS]]
        jobs = sum(result.n_jobs for result in pooled)
        metrics = {
            "setup_s": statistics.median([setup_s] + [p["setup_s"] for p in probes]),
            "cold_ms": 1e3 * statistics.median(cold_samples),
            "ops_per_s": statistics.median(part.n_jobs / part.elapsed_s for part in slices),
            "p50_us": 1e6 * statistics.median(s for part in slices for s in part.short_s),
            "sim_jobs_per_s": jobs / sum(result.makespan_s for result in pooled),
            "sim_energy_j_per_job": 3600.0
            * sum(result.energy_wh for result in pooled)
            / jobs,
            "sim_turnaround_mean_s": sum(
                result.turnaround.mean_s * result.n_jobs for result in pooled
            )
            / jobs,
            "rperf_error_pct": self.model_error(api, service, tally),
            "peak_rss_mb": peak_rss_mb(),
        }
        notes = [
            f"setup samples: {len(probes) + 1}, cold replays: {len(cold_samples)} "
            f"of {self.n_jobs} jobs, warm slices: {len(slices)} "
            f"(one {self.warm_jobs}-job and {self.SHORT_REPLAYS} {self.SHORT_JOBS}-job "
            f"replays each)",
            f"sim metrics pool {len(pooled)} replays ({jobs} jobs)",
        ]
        return metrics, tally, notes

    def fixed_work(self, api: Any, service: Any, seed: int, tally: Tally) -> Fixed:
        cold = self.cold(api, service, seed, tally)
        warm_start = time.perf_counter()
        warm = [
            self.replay(api, service, self.trace(seed, f"warm-{index}"), tally)[0]
            for index in range(self.TRACED_WARM_REPLAYS)
        ]
        warm_end = time.perf_counter()
        return Fixed(
            wall_s=cold.elapsed_s + sum(warm),
            warm_window=(warm_start, warm_end),
            warm_ops=self.n_jobs * self.TRACED_WARM_REPLAYS,
            check=lambda: self.verify(api, service, cold, tally),
        )


# ----------------------------------------------------------------------
# Decide stream
# ----------------------------------------------------------------------
@dataclass
class Loop:
    """What a pass over the request stream observed, one entry per answer."""

    latencies: list[float] = field(default_factory=list)
    first_seen: list[bool] = field(default_factory=list)
    first_results: dict[tuple, Any] = field(default_factory=dict)
    requests: dict[tuple, Any] = field(default_factory=dict)
    rss_mb: float | None = None
    #: Answers whose latencies a clock has already scaled.
    scaled: int = 0

    def scale_batch(self, clock: ScaledClock) -> float:
        """Scale the latencies answered since the last call; returns their sum."""
        factor = clock.lap()
        batch = [lat * factor for lat in self.latencies[self.scaled :]]
        self.latencies[self.scaled :] = batch
        self.scaled = len(self.latencies)
        return sum(batch)


class DecideWorkload(Workload):
    """Closed-loop ``PlannerService.decide`` on the A100 general (N-way) grid."""

    name = "decide-nway"
    why = (
        "Closed-loop 3-app decides on the N-way grid, 20% first-seen: setup is "
        "the co-run sweep and fit, repeats stress result conversion; no event "
        "loop or device emulation"
    )
    GROUP_SIZE = 3
    SETUP_SAMPLES = 3
    #: 30/70 rather than 50/50: with 20% first-seen requests, an even split
    #: puts the median exactly between the cheap problem1 answers and the
    #: dearer problem2 repeats, where it would jump from run to run.
    POLICIES = (("problem1", 0.3), ("problem2", 0.7))
    ALPHA = 0.2
    FIRST_SEEN_SHARE = 0.2
    STREAM_LENGTH = 20_000
    #: Answers between two calibration passes, and the fewest a run measures.
    BATCH_REQUESTS = 25
    MIN_REQUESTS = 1000
    #: Distinct requests the model error and the sim metrics cover.
    QUALITY_REQUESTS = 400
    #: Distinct requests whose repeat must return identical bytes.
    REPEAT_CHECKS = 50
    TRACED_REQUESTS = 400
    #: Peak memory is read once this many first-seen requests are answered:
    #: each adds ~0.2 MB of memo entries, so a reading after a fixed number
    #: of requests would swing with the seed's first-seen count, and one at
    #: the end would grow with speed.
    RSS_AFTER_FIRST_SEEN = 200

    def stream(self, seed: int) -> list[tuple[tuple[str, ...], str, bool]]:
        from repro.workloads.suite import DEFAULT_SUITE

        groups = inputs.held_out_groups(
            DEFAULT_SUITE.names(), self.GROUP_SIZE, trained_groups(self.GROUP_SIZE)
        )
        return inputs.request_stream(
            inputs.rng_for(self.name, seed, "stream"),
            groups,
            self.POLICIES,
            self.FIRST_SEEN_SHARE,
            self.STREAM_LENGTH,
        )

    def request(self, api: Any, apps: tuple[str, ...], policy: str) -> Any:
        return api.DecisionRequest(apps=apps, policy=policy, alpha=self.ALPHA, spec=self.SPEC)

    def loop(
        self,
        api: Any,
        service: Any,
        stream: list[tuple[tuple[str, ...], str, bool]],
        tally: Tally,
        clock: ScaledClock | None = None,
        seconds: float = 0.0,
        count: int | None = None,
    ) -> Loop:
        """Answer the stream in order: the first ``count`` requests, raw
        latencies; or, with a ``clock``, batches of ``BATCH_REQUESTS``
        answers, scaled, until their scaled host time reaches ``seconds``
        and at least ``MIN_REQUESTS`` are answered."""
        from repro.errors import ReproError

        valid = frozenset(states_by_description(self.GROUP_SIZE, self.SPEC))
        loop = Loop()
        measured = 0.0
        first_seen = 0
        for apps, policy, first in stream if count is None else stream[:count]:
            if clock is not None and len(loop.latencies) - loop.scaled == self.BATCH_REQUESTS:
                measured += loop.scale_batch(clock)
                if measured >= seconds and loop.scaled >= self.MIN_REQUESTS:
                    break
            key = (apps, policy)
            request = loop.requests.get(key)
            if request is None:
                request = loop.requests[key] = self.request(api, apps, policy)
            start = time.perf_counter()
            try:
                result = service.decide(request)
            except ReproError as exc:
                tally.record([f"decide {apps} {policy}: {exc}"])
                continue
            loop.latencies.append(time.perf_counter() - start)
            loop.first_seen.append(first)
            if first and len(loop.first_results) < self.REPEAT_CHECKS:
                loop.first_results[key] = result
            tally.record(checks.check_decision(result, apps, self.ALPHA, valid))
            first_seen += first
            if first and first_seen == self.RSS_AFTER_FIRST_SEEN:
                loop.rss_mb = peak_rss_mb()
        if clock is not None and loop.scaled < len(loop.latencies):
            loop.scale_batch(clock)
        if loop.rss_mb is None:
            loop.rss_mb = peak_rss_mb()
        return loop

    def verify(self, service: Any, loop: Loop, tally: Tally) -> None:
        """A repeated request returns the bytes its first answer had."""
        for key, first in loop.first_results.items():
            again = service.decide(loop.requests[key])
            tally.record(
                checks.check_same_result(
                    checks.canonical(first.to_dict()),
                    checks.canonical(again.to_dict()),
                    f"decide {key}",
                )
            )

    def quality(
        self, api: Any, service: Any, stream: list, tally: Tally
    ) -> dict[str, float]:
        """Model error and the chosen co-runs' sim metrics, engine as reference.

        Covers the stream's first ``QUALITY_REQUESTS`` distinct requests,
        whether or not the timed loop reached them; every group is held
        out of the training sweep.  The co-runs are accounted as if run
        back to back on one GPU, every job submitted at t=0.
        """
        from repro.gpu.spec import spec_by_name
        from repro.sim.engine import PerformanceSimulator

        engine = PerformanceSimulator(spec_by_name(self.SPEC))
        states = states_by_description(self.GROUP_SIZE, self.SPEC)
        keys = list(dict.fromkeys((apps, policy) for apps, policy, _ in stream))
        errors, turnarounds = [], []
        jobs, makespan, energy = 0, 0.0, 0.0
        for apps, policy in keys[: self.QUALITY_REQUESTS]:
            outcome = engine_run(service, self.request(api, apps, policy), engine, states, tally)
            if outcome is None:
                continue
            error, run = outcome
            elapsed = [app.elapsed_s for app in run.per_app]
            errors.append(error)
            turnarounds.extend(elapsed)
            jobs += len(elapsed)
            makespan += max(elapsed)
            energy += run.chip_power_w * max(elapsed)
        return {
            "sim_jobs_per_s": jobs / makespan,
            "sim_energy_j_per_job": energy / jobs,
            "sim_turnaround_mean_s": statistics.fmean(turnarounds),
            "rperf_error_pct": 100.0 * statistics.fmean(errors),
        }

    def measure(
        self, seed: int, seconds: float, probes: list[dict[str, float]]
    ) -> tuple[dict[str, float], Tally, list[str]]:
        api, service, setup_s, clock = self.set_up_scaled()
        tally = Tally()
        stream = self.stream(seed)
        loop = self.loop(api, service, stream, tally, clock=clock, seconds=seconds)
        self.verify(service, loop, tally)
        first_seen = [lat for lat, first in zip(loop.latencies, loop.first_seen) if first]
        metrics = {
            "setup_s": statistics.median([setup_s] + [p["setup_s"] for p in probes]),
            "cold_ms": 1e3 * statistics.median(first_seen),
            "ops_per_s": len(loop.latencies) / sum(loop.latencies),
            "p50_us": 1e6 * statistics.median(loop.latencies),
            **self.quality(api, service, stream, tally),
            "peak_rss_mb": loop.rss_mb,
        }
        latencies = sorted(loop.latencies)
        p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        notes = [
            f"setup samples: {len(probes) + 1}, requests: {len(latencies)} "
            f"({len(first_seen)} first-seen)",
            f"decide p99: {1e6 * p99:.0f} us over {len(latencies)} requests",
        ]
        return metrics, tally, notes

    def fixed_work(self, api: Any, service: Any, seed: int, tally: Tally) -> Fixed:
        stream = self.stream(seed)
        warm_start = time.perf_counter()
        loop = self.loop(api, service, stream, tally, count=self.TRACED_REQUESTS)
        warm_end = time.perf_counter()
        return Fixed(
            wall_s=sum(loop.latencies),
            warm_window=(warm_start, warm_end),
            warm_ops=len(loop.latencies),
            check=lambda: self.verify(service, loop, tally),
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        ReplayWorkload(
            name="replay-steady",
            why=(
                "Poisson replay at ~0.9 utilization, no power budget: the engine memo "
                "answers most co-runs, so host time goes to the event heap, planning "
                "and device emulation"
            ),
            mix="steady",
            n_jobs=10_000,
            warm_jobs=2_500,
            rate_per_s=8.0,
        ),
        ReplayWorkload(
            name="replay-budget",
            why=(
                "Bursty memory-heavy replay under a binding 170 W/node budget: drifting "
                "clamped caps miss the engine memo, so the power-cap solve and the "
                "budget split dominate"
            ),
            mix="memory-heavy",
            n_jobs=4_000,
            warm_jobs=500,
            rate_per_s=0.8,
            mean_burst=4.0,
            power_budget_per_node_w=170.0,
            repartition_latency_s=1.0,
        ),
        DecideWorkload(),
    )
}
