"""The acceptance gate: every shipped criterion must hold, within budget.

Each criterion prints one PASS/FAIL line so a plain ``pytest -v -s`` run
doubles as the checklist; ``twistor4 selftest`` prints the same lines.
"""

import time
from pathlib import Path

import pytest

from twistor4 import acceptance, cohomology, lattice, linalg, schema
from twistor4.acceptance import CRITERIA, Criterion, run_all, run_criterion
from twistor4.classify import EnumerationResult

_SCHEDULES = Path(__file__).resolve().parents[1] / "schedules"


@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=[f"{c.number:02d}-{c.name}" for c in CRITERIA],
)
def test_acceptance_criterion(criterion):
    result = run_criterion(criterion)
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number} ({result.name}): {status} - {result.detail}")
    assert result.passed, f"criterion {result.number} ({result.name}): {result.detail}"


def test_acceptance_suite_is_green_end_to_end():
    results = run_all()
    assert len(results) == len(CRITERIA) == 10
    assert all(r.passed for r in results), [
        (r.number, r.name, r.detail) for r in results if not r.passed
    ]


@pytest.mark.parametrize("name", ["case_a", "case_b", "case_c", "nef"])
def test_golden_schedules_match_the_shipped_documents(name):
    # the criteria's goldens and schedules/*.json state the same schedules
    parsed = schema.parse_document(schema.load_document(_SCHEDULES / f"{name}.json"))
    assert getattr(acceptance, f"golden_{name}")() == parsed.schedule


def test_a_criterion_that_raises_reports_fail():
    def broken():
        raise ValueError("no such class")

    result = run_criterion(Criterion(99, "raises", None, broken))
    assert (result.number, result.name) == (99, "raises")
    assert (result.passed, result.detail) == (False, "raised ValueError: no such class")


def test_a_passing_criterion_over_its_budget_reports_fail():
    def slow():
        time.sleep(0.001)
        return True, "done"

    result = run_criterion(Criterion(98, "slow", 0.0, slow))
    assert not result.passed and result.seconds > 0
    assert result.detail.startswith("done (over budget: ")
    assert result.detail.endswith("s > 0s)")


def _cubed_c1(n):
    c1 = cohomology.c1_class(n)
    return cohomology.cup(c1, c1)


@pytest.mark.parametrize("number, owner, name, broken", [
    (1, cohomology, "c2_class", _cubed_c1),
    (2, linalg, "bareiss_determinant", lambda rows: 4),
    (3, lattice.SurfaceLattice, "anticanonical", lambda self: self.divisor(1, 1)),
], ids=["chern-numbers", "pairing-determinant", "anticanonical-square"])
def test_criteria_1_to_3_fail_when_the_library_check_they_rely_on_trips(
        monkeypatch, number, owner, name, broken):
    # each of these criteria leaves its closed form to the library's check
    criterion = next(c for c in CRITERIA if c.number == number)
    assert run_criterion(criterion).passed
    monkeypatch.setattr(owner, name, broken)
    result = run_criterion(criterion)
    assert not result.passed
    assert result.detail.startswith("raised InvariantError: ")
    assert "closed form" in result.detail


def test_criterion_9_fails_when_the_walk_stops_early(monkeypatch):
    # an uncapped walk exhausts the space; a later cap or early exit must show
    stopped = EnumerationResult(entries=(), visited=0, exhausted=False)
    monkeypatch.setattr(acceptance, "enumerate_configurations", lambda: stopped)
    result = run_criterion(next(c for c in CRITERIA if c.number == 9))
    assert (result.passed, result.detail) == (
        False, "the uncapped walk stopped before exhausting the space")
