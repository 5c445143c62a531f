"""The acceptance gate: every shipped criterion must hold, within budget.

Each criterion prints one PASS/FAIL line so a plain ``pytest -v -s`` run
doubles as the checklist; ``twistor4 selftest`` prints the same lines.
"""

from pathlib import Path

import pytest

from twistor4 import acceptance, schema
from twistor4.acceptance import CRITERIA, run_all, run_criterion

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
