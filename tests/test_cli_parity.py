"""CLI parity: the thin client over PlannerService renders byte-identical
text to the pre-service CLI, which built the workflow per invocation.

The "legacy" expectations are reconstructed inline exactly the way the
old ``repro.cli`` command implementations did — ``PaperWorkflow`` +
``decision.describe()`` + ``ascii_table`` — so any drift in the service
path (training plan, candidate grid, rendering) fails these assertions.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.report import ascii_table
from repro.api import PlannerService
from repro.cli import main
from repro.core.workflow import PaperWorkflow
from repro.gpu.mig import enumerate_partition_states
from repro.gpu.spec import spec_by_name


def run_cli(argv):
    lines: list[str] = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


@pytest.fixture(scope="module")
def trained_pair_workflow():
    workflow = PaperWorkflow()
    workflow.train()
    return workflow


def legacy_decide_text(workflow: PaperWorkflow, apps, policy, power_cap, alpha) -> str:
    """The pre-service `decide` rendering, verbatim."""
    if policy == "problem1":
        decision = workflow.decide_problem1(apps, power_cap, alpha)
    else:
        decision = workflow.decide_problem2(apps, alpha)
    lines = [decision.describe(), ""]
    rows = [
        (
            e.state.label or e.state.describe(),
            f"{e.power_cap_w:.0f}",
            f"{e.predicted_throughput:.3f}",
            f"{e.predicted_fairness:.3f}",
            f"{e.objective:.5f}",
            "yes" if e.feasible else "no",
        )
        for e in decision.evaluations
    ]
    lines.append(
        ascii_table(["state", "P[W]", "throughput", "fairness", "objective", "feasible"], rows)
    )
    return "\n".join(lines)


class TestDecideParity:
    def test_problem1_text_is_identical(self, trained_pair_workflow):
        code, text = run_cli(
            ["decide", "igemm4", "stream", "--policy", "problem1", "--power-cap", "230"]
        )
        assert code == 0
        assert text == legacy_decide_text(
            trained_pair_workflow, ["igemm4", "stream"], "problem1", 230.0, 0.2
        )

    def test_problem2_text_is_identical(self, trained_pair_workflow):
        code, text = run_cli(
            ["decide", "srad", "needle", "--policy", "problem2", "--alpha", "0.2"]
        )
        assert code == 0
        assert text == legacy_decide_text(
            trained_pair_workflow, ["srad", "needle"], "problem2", None, 0.2
        )

    def test_default_power_cap_matches_legacy_92_percent_point(self, trained_pair_workflow):
        from repro.config import DEFAULT_POWER_CAPS

        code, text = run_cli(["decide", "igemm4", "stream", "--policy", "problem1"])
        assert code == 0
        assert text == legacy_decide_text(
            trained_pair_workflow,
            ["igemm4", "stream"],
            "problem1",
            DEFAULT_POWER_CAPS[-2],
            0.2,
        )


#: SHA-256 of the stdout of ``repro decide <argv>`` (every line newline-
#: terminated) for N-way groups on the A100, where the candidate table is
#: the only reader of every record.  Captured while each table solve still
#: built all of its candidate records up front.
NWAY_DECIDE_TEXT_PINS = {
    "igemm4 stream bfs --policy problem1": (
        "07d8a725be095c964c637ce4ae0533735d1e9a2bec92db73eb77760e4f69f9e9"
    ),
    "igemm4 stream bfs --policy problem2": (
        "6fc8d0c0876d2e6f66fbdfaf84cf0efa7475444fb06f26c0c31637cbafc67c0e"
    ),
    "igemm4 stream bfs lud --policy problem2": (
        "7ca42be8ed199ee63c1e0d00cad1e009da0b4b990c8d5b4b365d91ade9e0db8e"
    ),
}


class TestNWayDecideText:
    @pytest.fixture(scope="class")
    def service(self):
        return PlannerService()

    @pytest.mark.parametrize("argv", sorted(NWAY_DECIDE_TEXT_PINS))
    def test_text_is_pinned(self, service, argv):
        lines: list[str] = []
        assert main(["decide", *argv.split()], out=lines.append, service=service) == 0
        text = "".join(f"{line}\n" for line in lines)
        assert hashlib.sha256(text.encode()).hexdigest() == NWAY_DECIDE_TEXT_PINS[argv]


class TestStatesParity:
    @pytest.mark.parametrize("argv,n_apps,spec_name", [
        (["states", "2"], 2, "a100"),
        (["states", "3", "--spec", "a30"], 3, "a30"),
    ])
    def test_states_text_is_identical(self, argv, n_apps, spec_name):
        spec = spec_by_name(spec_name)
        states = tuple(enumerate_partition_states(n_apps, spec))
        rows = [
            (
                state.describe(),
                state.option.value,
                state.total_gpcs,
                "-".join(str(a.mem_slices) for a in state.allocations(spec)),
            )
            for state in states
        ]
        expected = "\n".join(
            [
                ascii_table(["state", "option", "GPCs", "mem slices/app"], rows),
                f"\n{len(states)} realizable state(s) for {n_apps} "
                f"application(s) on {spec.name}",
            ]
        )
        code, text = run_cli(argv)
        assert code == 0
        assert text == expected


class TestSimulateParity:
    def test_simulate_text_is_identical(self, trained_pair_workflow):
        from repro.cluster.events import ClusterSimulator
        from repro.cluster.scheduler import SchedulerConfig
        from repro.traces import poisson_trace
        from repro.workloads.mixes import mix_by_name

        # The legacy command path, inlined: generate the trace, train (the
        # shared fixture), build the simulator from the workflow, render.
        trace = poisson_trace(
            arrival_rate_per_s=2.0, duration_s=15.0, n_jobs=None, seed=5,
            mix=mix_by_name("steady"),
        )
        simulator = ClusterSimulator.from_workflow(
            trained_pair_workflow,
            n_nodes=2,
            scheduler_config=SchedulerConfig(
                window_size=4, group_size=2, policy_name="problem2",
                power_cap_w=230.0, alpha=0.2,
            ),
        )
        report = simulator.run(trace, suite=trained_pair_workflow.suite)
        expected = "\n".join([trace.summary(), "", report.summary()])

        code, text = run_cli(
            ["simulate", "--arrival-rate", "2.0", "--duration", "15",
             "--nodes", "2", "--seed", "5"]
        )
        assert code == 0
        assert text == expected


class TestJsonMode:
    def test_decide_json_parses_and_matches_text_decision(self):
        code, text = run_cli(
            ["decide", "igemm4", "stream", "--policy", "problem1",
             "--power-cap", "230", "--json"]
        )
        assert code == 0
        document = json.loads(text)
        assert document["policy"] == "problem1-throughput"
        assert document["apps"] == ["igemm4", "stream"]
        assert document["state_label"] in {"S1", "S2", "S3", "S4"}
        assert document["power_cap_w"] == 230.0
        assert len(document["evaluations"]) == document["candidates_evaluated"]

    def test_states_json_parses(self):
        code, text = run_cli(["states", "2", "--json"])
        assert code == 0
        document = json.loads(text)
        assert document["n_apps"] == 2
        assert len(document["states"]) == 30  # the spec-derived pair grid
        assert {row["option"] for row in document["states"]} == {"shared", "private"}

    def test_simulate_json_parses(self):
        code, text = run_cli(
            ["simulate", "--arrival-rate", "2.0", "--duration", "10",
             "--nodes", "1", "--json"]
        )
        assert code == 0
        document = json.loads(text)
        assert document["n_nodes"] == 1
        assert document["n_jobs"] > 0
        assert set(document["wait"]) == {"mean_s", "p50_s", "p95_s", "p99_s", "max_s"}
        assert "report_summary" in document
