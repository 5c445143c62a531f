"""The acceptance suite: ten numbered criteria with time budgets.

Each criterion is a callable returning (passed, detail).  ``run_all`` is
used both by the ``selftest`` CLI subcommand and by the test suite, which
prints one pass/fail line per criterion.  Budgets are enforced here so a
regression in runtime fails the same gate as a regression in values.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from functools import partial

from . import schema
from .classify import (
    CASE_NEF,
    CASE_PAIR_MINUS_2,
    CASE_PAIRS_MINUS_1,
    CASE_REAL_MINUS_2,
    classify,
    classify_leaf,
    enumerate_configurations,
    model_from_document,
    model_from_schedule,
    walk_schedules,
)
from .cohomology import (
    c1_class,
    chern_numbers,
    cup,
    euler_char_fundamental,
    evaluate,
    pairing_kernel,
    pairing_matrix,
)
from .cycles import DEFAULT_ORACLE_SEED, CycleLineBundle, TorsionSpec, h0_formula
from .errors import TorsionRequiredError
from .lattice import BlowupSchedule, BlowupStep, RealizationState
from .oracle import SurfaceLattice, anticanonical_class, h0_oracle, realize_cycle

__all__ = ["CRITERIA", "Criterion", "CriterionResult", "run_all", "run_criterion"]


# -- golden schedules ---------------------------------------------------------

def golden_case_a() -> BlowupSchedule:
    """Eight smooth points on the (2,1)-curve of the two-component cycle."""
    return BlowupSchedule("II", tuple(BlowupStep.smooth("C0") for _ in range(4)))


def golden_case_b() -> BlowupSchedule:
    """Four points on a line G plus the conjugate four on Gbar."""
    return BlowupSchedule("I", tuple(BlowupStep.smooth("G") for _ in range(4)))


def golden_case_c() -> BlowupSchedule:
    """Two node pairs plus two smooth pairs: the 8-cycle with
    self-intersections -2,-3,-2,-1,-2,-3,-2,-1 (up to rotation)."""
    return BlowupSchedule(
        "I",
        (
            BlowupStep.node(("F", "G")),
            BlowupStep.node(("F", "E1")),
            BlowupStep.smooth("G"),
            BlowupStep.smooth("G"),
        ),
    )


def golden_nef() -> BlowupSchedule:
    """Two conjugate pairs on each ruling component: all degrees zero."""
    return BlowupSchedule(
        "I",
        (
            BlowupStep.smooth("F"),
            BlowupStep.smooth("F"),
            BlowupStep.smooth("G"),
            BlowupStep.smooth("G"),
        ),
    )


# -- criteria -----------------------------------------------------------------

def _criterion_chern():
    for n in range(1, 9):
        # chern_numbers checks c1.(c1.c1) and c1.c2 against the closed forms
        c1, cubed = c1_class(n), chern_numbers(n).c1_cubed
        got = evaluate(cup(cup(c1, c1), c1))
        if got != cubed:
            return False, f"n={n}: (c1.c1).c1 = {got}, expected {cubed}"
    return True, "ring-evaluated (c1^3, c1.c2, c3) match closed forms for n=1..8"


def _criterion_pairing():
    for n in range(1, 11):
        pairing_matrix(n)  # checks det = 2^(n-1)(n-4)
    kernel = pairing_kernel(4)
    if kernel != ((1, 1, 1, 1, 2),):
        return False, f"n=4 kernel {kernel} != ((1,1,1,1,2),)"
    return True, (
        "|det| = 2^(n-1)|n-4| for n=1..10; n=4 kernel is generated by "
        "the fundamental class (1,1,1,1,2)"
    )


def _criterion_riemann_roch():
    for m in range(51):
        chi = euler_char_fundamental(4, m)
        if chi != m + 1:
            return False, f"chi(F^{m}) = {chi} != {m + 1} at n=4"
    for n in range(1, 5):
        anticanonical_class(SurfaceLattice(n))  # checks (-K)^2 = 8 - 2n
    return True, "chi(F^m)=m+1 for m=0..50 at n=4; (-K)^2 = 8-2n for n=1..4"


def _criterion_h0_oracle():
    worked = (
        ((1, -1, 1, -1), 0),
        ((2, -2, 2, -2), 2),
        ((0, -2, 0, 2, 0, -2, 0, 2), 2),
    )
    for degrees, expected in worked:
        bundle = CycleLineBundle(degrees)
        f = h0_formula(bundle)
        o = h0_oracle(bundle, seed=DEFAULT_ORACLE_SEED)
        if not f == o == expected:
            return False, f"{degrees}: formula {f}, oracle {o}, expected {expected}"
    rng = random.Random(41206)
    draws = 200
    for _ in range(draws):
        m = rng.randint(2, 10)
        bundle = CycleLineBundle(tuple(rng.randint(-4, 4) for _ in range(m)))
        f = h0_formula(bundle)
        o = h0_oracle(bundle, seed=rng.randrange(1 << 30))
        if f != o:
            return False, f"{bundle.degrees}: formula {f} != oracle {o}"
    return True, (
        f"formula == oracle on {draws} random cycles and the 3 worked "
        "examples"
    )


def _case_a_precheck(cycle):
    c0 = cycle.classes["C0"]
    got = (c0.self_intersection, c0.dot(anticanonical_class(cycle.lattice)))
    if got != (-4, -2):
        return "C0^2 = {}, C0.(-K) = {}, expected -4 and -2".format(*got)


def _case_b_precheck(cycle):
    g = cycle.classes["G"]
    got = (g.self_intersection, g.dot(cycle.classes["Gbar"]))
    if got != (-4, 0):
        return "A^2 = {}, A.Abar = {}, expected -4 and 0".format(*got)


def _case_c_precheck(cycle):
    selfs = cycle.self_intersections()
    wanted = (-2, -3, -2, -1, -2, -3, -2, -1)
    if all(selfs != wanted[i:] + wanted[:i] for i in range(len(wanted))):
        return f"self-intersections {selfs} are not a rotation of {wanted}"


_GOLDEN_FIELDS = ("case", "h0_fundamental", "dim_fundamental_system",
                  "algebraic_dimension", "degree_one_count", "base_locus")

#: (number, name, schedule, lattice precheck returning a failure or None,
#:  compared report fields, expected values, detail)
_GOLDENS = (
    (5, "case-a-golden", golden_case_a, _case_a_precheck,
     _GOLDEN_FIELDS + ("lebrun",),
     (CASE_REAL_MINUS_2, 3, 2, 3, 0, "C0", False),
     "C0^2=-4, degree -2; h0=3, dim|F|=2, a=3, deg-one=0, base C0"),
    (6, "case-b-golden", golden_case_b, _case_b_precheck,
     _GOLDEN_FIELDS + ("lebrun",),
     (CASE_PAIR_MINUS_2, 4, 3, 3, math.inf, "A+Abar", True),
     "A^2=-4, A.Abar=0; h0=4, dim|F|=3, a=3, infinitely many degree-one "
     "divisors (LeBrun)"),
    (7, "case-c-golden", golden_case_c, _case_c_precheck,
     _GOLDEN_FIELDS + ("dim_minus2KS", "dim_antican_Z"),
     (CASE_PAIRS_MINUS_1, 2, 1, 3, 8, "C", 2, 4),
     "8-cycle (-2,-3,-2,-1)x2; h0=2, dim|F|=1, a=3, deg-one=8, "
     "dim|-2K_S|=2, dim|-K_Z|=4"),
)


def _criterion_golden(golden, precheck, fields, expected, detail):
    schedule = golden()
    failure = precheck(realize_cycle(schedule))
    if failure:
        return False, failure
    report = classify(model_from_schedule(schedule))
    got = tuple(getattr(report, name) for name in fields)
    if got != expected:
        return False, f"report {got} != {expected}"
    return True, detail


def _criterion_nef():
    schedule = golden_nef()
    if set(realize_cycle(schedule).degrees()) != {0}:
        return False, "golden nef cycle must have all degrees zero"
    table = (
        (TorsionSpec.finite(1), 2, 3, "free"),
        (TorsionSpec.finite(2), 2, 2, "C"),
        (TorsionSpec.non_torsion(), 1, 2, "C"),
    )
    for torsion, exp_a, exp_h0, exp_base in table:
        r = classify(model_from_schedule(schedule, torsion))
        got = (r.case, r.algebraic_dimension, r.h0_fundamental, r.base_locus)
        if got != (CASE_NEF, exp_a, exp_h0, exp_base):
            return False, f"tau={torsion.tau}: got {got}"
    try:
        classify(model_from_schedule(schedule))
        return False, "nef without torsion must be refused"
    except TorsionRequiredError:
        pass
    return True, (
        "tau in {1,2,infinity} gives a in {2,2,1}, h0 in {3,2,2}; the "
        "dim-2 branch is base-point free; missing torsion is refused"
    )


def _criterion_enumeration():
    result = enumerate_configurations()
    realizable = [e for e in result.entries if e.report is not None]
    if not result.exhausted:
        return False, "the uncapped walk stopped before exhausting the space"
    for entry in realizable:
        again = classify(model_from_document(entry.document))
        if again != entry.report:
            return False, f"round-trip mismatch for {entry.digest}"
    cases = {CASE_NEF, CASE_REAL_MINUS_2, CASE_PAIR_MINUS_2, CASE_PAIRS_MINUS_1}
    missing = cases - {e.report.case for e in realizable}
    if missing:
        return False, f"cases never enumerated: {sorted(missing)}"
    return True, (
        f"{len(result.entries)} deduplicated entries from {result.visited} "
        "schedules (exhausted); every report passes the invariant suite "
        "and round-trips through its document"
    )


def _report_signature(report):
    """Reports modulo component naming (ids differ across realizations)."""
    d = report.as_dict()
    d["negative_curves"] = sorted(deg for _, deg in report.negative_curves)
    return schema.canonical_json(d)


def _criterion_elementary_transform():
    count = 0
    nodes_first = RealizationState("III", 4).extend(BlowupStep.node(("A", "Abar")))
    for schedule, leaf in walk_schedules(nodes_first):
        # direct realization, as the enumerator classifies it; the emitted
        # document routes through the elementary transform
        direct = classify_leaf(leaf)
        routed = classify(model_from_document(direct.document))
        if direct.report is None or (
            _report_signature(direct.report) != _report_signature(routed)
        ):
            return False, f"schedule {schedule} classifies differently"
        count += 1
    if count == 0:
        return False, "no nodes-first schedules enumerated"
    return True, (
        f"direct realization and the elementary transform agree on all "
        f"{count} nodes-first schedules"
    )


#: ``func`` takes no argument and returns (passed, detail); a criterion
#: without a budget has ``budget_seconds`` None
Criterion = namedtuple("Criterion", ("number", "name", "budget_seconds", "func"))
CriterionResult = namedtuple("CriterionResult",
                             ("number", "name", "passed", "detail", "seconds"))


CRITERIA = (
    Criterion(1, "chern-numbers", 1.0, _criterion_chern),
    Criterion(2, "pairing-determinant", 1.0, _criterion_pairing),
    Criterion(3, "riemann-roch", None, _criterion_riemann_roch),
    Criterion(4, "cycle-h0-formula-vs-oracle", 10.0, _criterion_h0_oracle),
    *(Criterion(number, name, None, partial(_criterion_golden, *golden))
      for number, name, *golden in _GOLDENS),
    Criterion(8, "nef-goldens", None, _criterion_nef),
    Criterion(9, "enumeration-invariants", 60.0, _criterion_enumeration),
    Criterion(10, "elementary-transform", None, _criterion_elementary_transform),
)


def run_criterion(criterion: Criterion) -> CriterionResult:
    start = time.perf_counter()
    try:
        passed, detail = criterion.func()
    except Exception as exc:  # a criterion must report, never crash the runner
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if passed and criterion.budget_seconds is not None:
        if elapsed > criterion.budget_seconds:
            passed = False
            detail += (
                f" (over budget: {elapsed:.2f}s > {criterion.budget_seconds:.0f}s)"
            )
    return CriterionResult(criterion.number, criterion.name, passed, detail, elapsed)


def run_all() -> list[CriterionResult]:
    return [run_criterion(c) for c in CRITERIA]
