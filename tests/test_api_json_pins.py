"""Byte pins of the ``decide`` and ``simulate`` JSON documents.

Each pin is the SHA-256 of ``json.dumps(result.to_dict(), indent=2)``, the
bytes ``repro decide --json`` and ``repro simulate --json`` print.  They
were captured while the responses still copied every candidate and latency
population into API-only records; the responses now carry the engine's own
records, and the documents must not change by a byte.  Every pinned
document must also rebuild through ``from_dict`` to an equal value that
re-serializes to the same bytes.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import (
    DecisionRequest,
    DecisionResult,
    PlannerService,
    SimulationRequest,
    SimulationResult,
)
from repro.errors import InfeasibleProblemError

#: ``spec/policy/app+app[+app]`` -> SHA-256 of the decision document.
DECISION_PINS = {
    "a100/problem1/igemm4+stream": (
        "3af2bf0c82728577f836eee5e53c99a2d2ceecdeb8c93b0ac56dd18be917ec30"
    ),
    "a100/problem1/srad+needle": (
        "87fca342ea6c9dd3365660e3b035ea5ba519ac0f321e32dc640d1bf59918147a"
    ),
    "a100/problem1/igemm4+stream+bfs": (
        "a2bbe2903ed59d879f432eab41d1cba4fed2b82d05d171d2b8f2587ae3f4e052"
    ),
    "a100/problem1/dgemm+lud+bfs": (
        "2ab64fed67474f7d2c1f5f6a1dd35dd8c33450a5e46e009d9c78701f6007b174"
    ),
    "a100/problem2/igemm4+stream": (
        "43a3f7c9fcc0cd318a0d03e73d5cc1d7256f6d22cb6b8a6e83761924c76c39f3"
    ),
    "a100/problem2/srad+needle": (
        "08c02ade8e772530f88e05451dc6f33b429d4d7660d67b900a86ec7d497f9e13"
    ),
    "a100/problem2/igemm4+stream+bfs": (
        "7dad86aae53e31c6cfc2345e58e2ac336990d3764dc7c49fed717c4ab8bbc584"
    ),
    "a100/problem2/dgemm+lud+bfs": (
        "0ae292a39fb929ed7de81534578229be5f778eac0971703bb140c20434183342"
    ),
    "h100/problem1/igemm4+stream": (
        "ea1219337cac9e7864f323a63b8c19912e4e497dc98a4a3524557d38c364f6a1"
    ),
    "h100/problem1/srad+needle": (
        "c8c6ca7dd00d388f4459fa67fa7b84d437f95ad9be47151266874e431cba098b"
    ),
    "h100/problem1/igemm4+stream+bfs": (
        "b41c307294e66ef35da5f834dadf5456d7946ed46e7d9bc08d8c8d8b12e78445"
    ),
    "h100/problem1/dgemm+lud+bfs": (
        "4357a77434839b55f5765e4cdfa542e4819408e70178c8fb0feae16ce3eecb0f"
    ),
    "h100/problem2/igemm4+stream": (
        "6f05bd3f7c26e2bea7f3129cee5000beb60a08d8e2c7648b784630e20ea81bde"
    ),
    "h100/problem2/srad+needle": (
        "3bf2ab27b6313dc11a396fdce93dfc59bb5d114fc0c0eee6bc8e21a8f8b1a986"
    ),
    "h100/problem2/igemm4+stream+bfs": (
        "42ae0fb6d629941179e3a112bc0854a550f3f266bac0a4a83cd7ac8220e07b6c"
    ),
    "h100/problem2/dgemm+lud+bfs": (
        "b5f561d5014bf95003769fc6dc2b33812ae3a9b0a79c46857b68c81d7db41fe0"
    ),
    "a30/problem1/igemm4+stream": (
        "a6db51092156317fb831d70b74f98e5db469b0a4d5f2132882c048f22c887101"
    ),
    "a30/problem1/srad+needle": (
        "e82bf366cd347f49fac62eb5606402e69742e7dccf656c3ad2b162d3e9b6d9e7"
    ),
    "a30/problem1/igemm4+stream+bfs": (
        "e397c00363cec5371cd74b76d2e6efdc328fd31f2b82101fdc553e1645297738"
    ),
    "a30/problem1/dgemm+lud+bfs": (
        "fc2b1f7f04d5d8a0945bb407be173dc81c93d1995313702d07f3bc2393cbf5da"
    ),
    "a30/problem2/igemm4+stream": (
        "d96f55808146ba922c2e44cfe9c4390c3f036c3ae759b264eb55be5d2ef49d63"
    ),
    "a30/problem2/srad+needle": (
        "8ee62af5d3acdd12758294d56ee5faddbac7191910e8e5ce0a2770c317935b12"
    ),
    "a30/problem2/igemm4+stream+bfs": (
        "1b31fafaea650aa81b128325b84a4dd7bea0689d30fa0c215786a74699f1e017"
    ),
    "a30/problem2/dgemm+lud+bfs": (
        "733664271fdd38b01e6d89887110dfcc2b104cc21fff8f06314000700318109b"
    ),
    "mi300x/problem1/igemm4+stream": (
        "7ae9c3c3d5393ae58f4abccc3909cccd5191022c1a869ee5da3b0235af43cc80"
    ),
    "mi300x/problem1/srad+needle": (
        "cd818b41721db315da850ff7b0705df81f3f45e99c2e03105145d5721648fe34"
    ),
    "mi300x/problem1/dgemm+lud+bfs": (
        "88eed883e40c648f788635b0f1f585d1fb87c0b33164bc6982154f1ba068d584"
    ),
    "mi300x/problem2/igemm4+stream": (
        "14806d0d68df0bfd5790451891b07f1f58db06663570da59dffcb831fe19ba78"
    ),
    "mi300x/problem2/srad+needle": (
        "e548db8cdafc562715591a59caa8100bf19f64d67c44079bd37abcb878a5c868"
    ),
    "mi300x/problem2/igemm4+stream+bfs": (
        "043d7b355d833c0a44e7882c4ea72033621a85ef3854681b1a0267b758758c86"
    ),
    "mi300x/problem2/dgemm+lud+bfs": (
        "1ce4a2fb37eee28443a03e49f47378ee94d1eb8db40dd74a7b128614cbfa3788"
    ),
}

#: The one pinned group with no feasible candidate (MI300X, fixed cap).
INFEASIBLE = "mi300x/problem1/igemm4+stream+bfs"

#: name -> (request, SHA-256 of the simulation document).
SIMULATION_PINS = {
    "default": (
        SimulationRequest(),
        "f587d92ca3a3950e3685fc36f01992cbc51e0bce8a0d722b9355c106ad7f2d6b",
    ),
    "memory-heavy-700w-budget": (
        SimulationRequest(
            n_nodes=4, mix="memory-heavy", power_budget_w=700.0, duration_s=120.0
        ),
        "1bd2bb31fbda683b91fbb1fe0ebdb0d13931eb1475909946a59021f75bff67f1",
    ),
    "group3-repartition-latency": (
        SimulationRequest(
            group_size=3, repartition_latency_s=0.05, duration_s=120.0
        ),
        "e80834294fe0a1591d9f14f06c844e218d02df634905a92d0e9d68896cafbd1e",
    ),
    "bursty-problem1-210w": (
        SimulationRequest(
            burst_size=4.0, policy="problem1", power_cap_w=210.0, duration_s=120.0
        ),
        "276983bc742cba030d7c70ff2b75b3fd9c873f81be2f55b312f4fe4656d68228",
    ),
}


def _request(key: str) -> DecisionRequest:
    spec, policy, group = key.split("/")
    return DecisionRequest(apps=tuple(group.split("+")), policy=policy, spec=spec)


def _pinned_bytes(result, pin: str) -> str:
    text = json.dumps(result.to_dict(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == pin
    return text


@pytest.fixture(scope="module")
def service():
    return PlannerService()


@pytest.mark.parametrize("key", sorted(DECISION_PINS))
def test_decision_document_is_pinned(service, key):
    result = service.decide(_request(key))
    text = _pinned_bytes(result, DECISION_PINS[key])
    rebuilt = DecisionResult.from_dict(json.loads(text))
    assert rebuilt == result
    assert json.dumps(rebuilt.to_dict(), indent=2) == text


def test_pinned_infeasible_group_stays_infeasible(service):
    with pytest.raises(InfeasibleProblemError, match="fairness constraint"):
        service.decide(_request(INFEASIBLE))


@pytest.mark.parametrize("name", sorted(SIMULATION_PINS))
def test_simulation_document_is_pinned(service, name):
    request, pin = SIMULATION_PINS[name]
    result = service.simulate(request)
    text = _pinned_bytes(result, pin)
    rebuilt = SimulationResult.from_dict(json.loads(text))
    assert rebuilt == result
    assert json.dumps(rebuilt.to_dict(), indent=2) == text


def test_response_shares_the_memoized_candidate_tuple(service):
    request = _request("a100/problem2/igemm4+stream+bfs")
    result = service.decide(request)
    session = service.session_for(request.spec, request.group_size)
    decision = session.workflow.decide_problem2(list(request.apps), request.alpha)
    assert result.evaluations is decision.evaluations
    assert service.decide(request).evaluations is decision.evaluations
