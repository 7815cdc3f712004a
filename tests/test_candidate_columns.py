"""The table solve's evaluations: a read-only sequence over the solve's
columns that builds a :class:`CandidateEvaluation` only when one is read.

Apart from that it must be the tuple of records the record-by-record solve
(``tests/decide_oracle.py``) builds: equal to it in both operand orders,
with the same hash, length, indexing, slicing, iteration and searching, and
a :class:`DecisionResult` carrying it must round-trip through ``to_dict``
to an equal value.
"""

from __future__ import annotations

import dataclasses

import pytest

import decide_oracle
from repro.api import DecisionRequest, DecisionResult, PlannerService
from repro.core.decision import CandidateColumns, CandidateEvaluation
from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Problem2Policy
from repro.errors import InfeasibleProblemError

GROUP = ("igemm4", "stream", "bfs")
ALPHA = 0.2
COLUMNS = ("predictions", "throughputs", "fairnesses", "objectives", "feasible")


def _request(apps, policy="problem2"):
    return DecisionRequest(apps=apps, policy=policy, alpha=ALPHA)


@pytest.fixture(scope="module")
def service():
    """A service whose A100 N-way session is trained, with its problem2
    table built by one decide of another group."""
    service = PlannerService()
    service.decide(_request(("dgemm", "lud", "hgemm")))
    return service


@pytest.fixture(scope="module")
def decided(service):
    """``GROUP``'s problem2 result and the record-by-record solve's tuple."""
    request = _request(GROUP)
    result = service.decide(request)
    workflow = service.session_for(request.spec, request.group_size).workflow
    online = workflow.online
    counters = [online.database.get(name).counters for name in GROUP]
    policy = Problem2Policy(alpha=ALPHA, power_caps=online.allocator.power_caps)
    expected = decide_oracle.solve(
        workflow.model,
        online.allocator.candidate_states,
        counters,
        policy,
        states=online.candidate_states_for(len(GROUP), policy.candidate_power_caps()),
    )
    return result, expected.evaluations


def test_a_first_seen_table_decide_builds_only_the_chosen_record(service, monkeypatch):
    built = []
    init = CandidateEvaluation.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CandidateEvaluation, "__init__", counted)
    # problem2 solves from the fixture's table; problem1's caps build a new one.
    for policy, n_candidates in (("problem2", 744), ("problem1", 124)):
        built.clear()
        result = service.decide(_request(("hgemm", "kmeans", "srad"), policy))
        assert len(built) == 1, policy
        assert isinstance(result.evaluations, CandidateColumns)
        assert result.candidates_evaluated == len(result.evaluations) == n_candidates


def test_equals_the_record_by_record_tuple_in_both_orders(decided):
    result, expected = decided
    columns = result.evaluations
    assert type(expected) is tuple and isinstance(columns, CandidateColumns)
    assert columns == expected and expected == columns
    assert not columns != expected and not expected != columns
    assert hash(columns) == hash(expected)
    assert columns != list(expected) and columns != expected[:-1]


def test_round_trip_equals_in_both_orders(decided):
    result, _ = decided
    rebuilt = DecisionResult.from_dict(result.to_dict())
    assert type(rebuilt.evaluations) is tuple
    assert rebuilt == result and result == rebuilt
    assert hash(rebuilt) == hash(result)


def test_reads_like_the_tuple(decided):
    result, expected = decided
    columns = result.evaluations
    assert len(columns) == len(expected) == 744
    for index in (0, 1, 17, 743, -1, -2, -744):
        assert columns[index] == expected[index]
    for index in (744, -745):
        with pytest.raises(IndexError):
            columns[index]
    for cut in (
        slice(None),
        slice(3, 9),
        slice(-4, None),
        slice(None, None, -7),
        slice(700, 1000, 3),
        slice(900, 1000),
    ):
        assert type(columns[cut]) is tuple and columns[cut] == expected[cut]
    assert list(columns) == list(expected)
    assert list(reversed(columns)) == list(reversed(expected))
    probe = expected[-3]
    assert columns.index(probe) == expected.index(probe) == 741
    assert columns.count(probe) == expected.count(probe) == 1
    assert probe in columns and expected[0] in columns
    absent = dataclasses.replace(probe, objective=-1.0)
    assert absent not in columns and columns.count(absent) == 0
    with pytest.raises(ValueError):
        columns.index(absent)
    assert repr(columns) == repr(expected)


def test_columns_are_its_only_state_and_read_only(service, decided):
    result, expected = decided
    columns = result.evaluations
    assert set(vars(columns)) == {"rows", *COLUMNS}
    assert columns[5] == columns[5] and columns[5] is not columns[5]
    for name in COLUMNS:
        array = getattr(columns, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = array[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        columns.rows = ()
    # The memoized decision hands out the same, unedited sequence.
    again = service.decide(_request(GROUP))
    assert again.evaluations is columns and columns == expected


def test_an_uncovered_group_size_raises_the_record_by_record_message(service):
    workflow = service.session_for("a100", 3).workflow
    counters = [workflow.online.database.get(name).counters for name in GROUP]
    policy = Problem2Policy(alpha=ALPHA, power_caps=workflow.online.allocator.power_caps)
    allocator = ResourcePowerAllocator(workflow.model, batch_threshold=0)
    with pytest.raises(InfeasibleProblemError) as oracle:
        decide_oracle.solve(
            workflow.model, allocator.candidate_states, counters, policy
        )
    for _ in range(2):
        with pytest.raises(InfeasibleProblemError) as raised:
            allocator.solve(counters, policy)
        assert str(raised.value) == str(oracle.value)
