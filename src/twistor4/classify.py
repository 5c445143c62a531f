"""Algebraic dimension of the twistor space from the anticanonical cycle.

For n = 4 the half-anticanonical ("fundamental") system |F| on the twistor
space Z is governed by the real anticanonical cycle C on the blown-up
surface S.  The degree of a cycle component C_i means deg(F|_{C_i}) =
C_i.(-K_S), and the classification is a trichotomy on the negative-degree
components:

  NEF            no negative component; the outcome then depends on the
                 torsion order tau of a normal sheaf on C (an input here):
                 tau = 1 gives a free pencil, finite tau > 1 a pencil with
                 base curve C, infinite tau drops the algebraic dimension
                 to 1 with a(Z) = 1.
  REAL_MINUS_2   one real component of degree -2 ("case a"): dim|F| = 2
                 with base curve C0, a(Z) = 3.
  PAIR_MINUS_2   a disjoint conjugate pair of degree -2 components
                 ("case b"): dim|F| = 3, base A + Abar, a(Z) = 3; these are
                 the LeBrun spaces.
  PAIRS_MINUS_1  one to three conjugate pairs of degree -1 components
                 ("case c"): dim|F| = 1 with base curve C, a(Z) = 3; here
                 dim |-2K_S| = h0(2F|_C) is reported along with the
                 dimension of the anticanonical system of Z itself.

Anything else is not realizable by a conjugate-pair blow-up schedule and
raises ``RealizabilityError``.  The model is the weighted necklace alone (a
``Necklace``: the degrees in cycle order, the conjugation and tau), which
``model_from_schedule`` and ``model_from_document`` build without a divisor
class; the case and its realizability are read off it: in a valid cycle
two components meet exactly when they are adjacent, so the -2 pair of
case b must not be adjacent, and the nonzero degrees of case c must
alternate in sign round the cycle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import cached_property, reduce

from . import schema
from .cohomology import chern_numbers
from .cycles import CycleLineBundle, TorsionSpec, h0_formula
from .errors import RealizabilityError, ScheduleError, TorsionRequiredError, check
from .lattice import (
    BlowupSchedule,
    Necklace,
    RealizationState,
    elementary_transform,
    smooth_anticanonical_cycle,
)

__all__ = [
    "CASE_NEF",
    "CASE_REAL_MINUS_2",
    "CASE_PAIR_MINUS_2",
    "CASE_PAIRS_MINUS_1",
    "anticanonical_degrees",
    "negative_curves",
    "ClassificationReport",
    "check_report",
    "model_from_schedule",
    "model_from_document",
    "classify",
    "EnumeratedEntry",
    "EnumerationResult",
    "walk_schedules",
    "classify_leaf",
    "enumerate_configurations",
]

CASE_NEF = "NEF"
CASE_REAL_MINUS_2 = "REAL_MINUS_2"
CASE_PAIR_MINUS_2 = "PAIR_MINUS_2"
CASE_PAIRS_MINUS_1 = "PAIRS_MINUS_1"

#: Each case's letter, its rank in the enumeration order and, off the nef
#: branch, its fixed (h0(F), base locus, a(Z), LeBrun flag).
_Case = namedtuple("_Case", "letter rank fixed")
_CASES = {
    CASE_NEF: _Case(None, 0, None),
    CASE_REAL_MINUS_2: _Case("a", 1, (3, "C0", 3, False)),
    CASE_PAIR_MINUS_2: _Case("b", 2, (4, "A+Abar", 3, True)),
    CASE_PAIRS_MINUS_1: _Case("c", 3, (2, "C", 3, False)),
}


def anticanonical_degrees(necklace: Necklace) -> tuple[int, ...]:
    """deg(F|_{C_i}) = C_i.(-K) per component, in cycle order; a model
    that is not a ``Necklace`` raises ScheduleError."""
    if not isinstance(necklace, Necklace):
        raise ScheduleError(
            f"a model must be a Necklace, got {type(necklace).__name__}")
    degrees = necklace.degrees
    total, expected = sum(degrees), 8 - 2 * necklace.pairs
    check(total == expected, "degrees {} sum to {}, closed form {}",
          degrees, total, expected, invariant="anticanonical-degree-sum")
    return degrees


def negative_curves(necklace: Necklace) -> tuple[tuple[str, int], ...]:
    """Negative-degree components as (id, degree), validated against the
    three realizable patterns.

    Degrees below -2 cannot occur on a surface with an anticanonical
    cycle of this kind; a single real -2, one conjugate -2 pair, or up to
    three conjugate -1 pairs are the only other options.
    """
    return _match_case(necklace, anticanonical_degrees(necklace))[1]


def _match_case(necklace: Necklace, degrees):
    """``(case, negative_curves)`` from the necklace's checked degrees."""
    at = [p for p, d in enumerate(degrees) if d < 0]
    negatives = tuple((necklace.order[p], degrees[p]) for p in at)
    for name, d in negatives:
        if d <= -3:
            raise RealizabilityError(
                "degree-below-minus-2",
                f"component {name} has degree {d}; no component of degree "
                "below -2 can appear on an anticanonical cycle here",
            )
    if not negatives:
        return CASE_NEF, negatives
    degs = [d for _, d in negatives]
    partners = necklace.partners
    real = [partners[p] == p for p in at]
    if degs == [-2] and real == [True]:
        return CASE_REAL_MINUS_2, negatives
    if degs == [-2, -2] and not any(real) and partners[at[0]] == at[1]:
        return CASE_PAIR_MINUS_2, negatives
    if (
        len(negatives) in (2, 4, 6)
        and all(d == -1 for d in degs)
        and not any(real)
        and {partners[p] for p in at} == set(at)
    ):
        return CASE_PAIRS_MINUS_1, negatives
    raise RealizabilityError(
        "negative-pattern",
        f"negative components {list(negatives)} match none of the realizable "
        "patterns (one real -2, a conjugate -2 pair, or 1-3 conjugate "
        "-1 pairs)",
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the classification determines for one configuration."""

    case: str
    nef: bool
    nef_and_big: bool
    negative_curves: tuple[tuple[str, int], ...]
    cycle_length: int
    smooth_anticanonical: bool
    h0_fundamental: int
    dim_fundamental_system: int
    base_locus: str
    degree_one_count: int | float
    algebraic_dimension: int
    lebrun: bool
    tau: int | float | None
    dim_minus2KS: int | None
    dim_antican_Z: int | None

    @property
    def case_letter(self) -> str | None:
        return _CASES[self.case].letter

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = schema.encode_infinite(getattr(self, f.name))
            if isinstance(value, tuple):
                value = [list(item) if isinstance(item, tuple) else item
                         for item in value]
            out[f.name] = value
        return out


def check_report(report: ClassificationReport) -> ClassificationReport:
    """Consistency oracle run on every report before it is returned: the
    first fact of the classification that the report breaks raises
    ``InvariantError`` tagged ``invariant-report-<fact>``."""
    r, a, dim = report, report.algebraic_dimension, report.dim_fundamental_system
    negative, free = bool(r.negative_curves), r.base_locus == "free"
    check(r.case in _CASES, "{!r} is not a case", r.case, invariant="report-case")
    check(r.h0_fundamental == dim + 1, "h0(F) = dim|F| + 1", invariant="report-h0")
    check(a >= dim, "a(Z) bounds dim|F| from above",
          invariant="report-dimension-bound")
    check(r.nef != negative, "F is nef exactly when no component is negative",
          invariant="report-nef")
    check((a == 3) == negative, "a(Z)=3 exactly when F is not nef",
          invariant="report-moishezon")
    check(r.lebrun == (dim == 3) == (r.case == CASE_PAIR_MINUS_2),
          "LeBrun exactly when dim|F| = 3, exactly in case b",
          invariant="report-lebrun")
    check((dim < 2 or (a == 2) == r.nef == free) and (a == 2 or not free),
          "a(Z) = 2 when F is free; for dim|F| >= 2, exactly when F is nef",
          invariant="report-free-pencil")
    check(not r.nef_and_big, "F is never nef and big when n = 4",
          invariant="report-nef-and-big")
    if r.case == CASE_NEF:
        check(r.tau is not None, "a nef report carries tau", invariant="report-tau")
        check((r.h0_fundamental, a)
              == (3 if r.tau == 1 else 2, 1 if r.tau == math.inf else 2),
              "on the nef branch tau fixes h0(F) and a(Z)",
              invariant="report-nef-torsion")
    else:
        check(r.tau is None, "only a nef report carries tau", invariant="report-tau")
    if r.case == CASE_PAIRS_MINUS_1:
        check(len(r.negative_curves) in (2, 4, 6)
              and 4 <= r.cycle_length <= 12
              and r.degree_one_count == r.cycle_length
              and r.dim_minus2KS is not None and r.dim_minus2KS >= 2
              and r.dim_antican_Z == 2 + r.dim_minus2KS,
              "case c has 1-3 negative pairs on a 4- to 12-cycle, m degree-one "
              "divisors, dim|-2K_S| >= 2 and dim|-K_Z| = 2 + dim|-2K_S|",
              invariant="report-case-c")
    else:
        check(r.dim_minus2KS is None and r.dim_antican_Z is None,
              "only case c reports dim|-2K_S| and dim|-K_Z|",
              invariant="report-case-c-only")
    return report


def model_from_schedule(
    schedule: BlowupSchedule, torsion: TorsionSpec | None = None
) -> Necklace:
    """The necklace of a schedule's realized cycle, with ``torsion``: the
    steps folded through ``RealizationState.extend``, after the elementary
    transform takes the nodes-first two-component form to its
    four-component equivalent.  No divisor class is built."""
    if (
        schedule.initial_type == "III"
        and schedule.steps
        and schedule.steps[0].kind == "node"
    ):
        schedule = elementary_transform(schedule)
    start = RealizationState(schedule.initial_type, schedule.pairs)
    return reduce(RealizationState.extend, schedule.steps, start).necklace(torsion)


def model_from_document(doc: dict) -> Necklace:
    """The necklace of a schedule document's cycle, with its torsion record;
    the smooth variant's comes from its validated cycle."""
    parsed = schema.parse_document(doc)
    if parsed.schedule is None:
        return smooth_anticanonical_cycle(parsed.n).necklace(parsed.torsion)
    return model_from_schedule(parsed.schedule, parsed.torsion)


def classify(necklace: Necklace) -> ClassificationReport:
    """The full classification for n = 4 (eight blown-up points), read off
    a ``Necklace``; any other model raises ScheduleError."""
    degrees = anticanonical_degrees(necklace)
    if necklace.pairs != 4:
        raise ScheduleError(
            f"classification requires n = 4 conjugate pairs, "
            f"got n = {necklace.pairs}"
        )
    case, negatives = _match_case(necklace, degrees)
    nef, m = case == CASE_NEF, len(degrees)
    tau = dim_minus2ks = dim_antican_z = None
    if nef:
        if necklace.tau is None:
            raise TorsionRequiredError(
                "the fundamental system is nef, so its dimension depends "
                "on the torsion order tau of the normal sheaf on the "
                "cycle; supply a torsion record"
            )
        tau = necklace.tau
        h0, base = (3, "free") if tau == 1 else (2, "C")
        a = 1 if tau == math.inf else 2
        deg1 = 0 if (tau == 1 or necklace.smooth_variant) else m
        lebrun = False
    else:
        h0, base, a, lebrun = _CASES[case].fixed
        deg1 = 0  # case a; cases b and c set theirs below
    if case == CASE_PAIR_MINUS_2:
        # components of a valid cycle meet exactly when adjacent
        i, j = (k for k, d in enumerate(degrees) if d < 0)
        if (j - i) % m in (1, m - 1):
            first, second = negatives[0][0], negatives[1][0]
            raise RealizabilityError(
                "pair-not-disjoint",
                f"the degree -2 conjugate pair {first}, {second} must be "
                "disjoint",
            )
        deg1 = math.inf
    elif case == CASE_PAIRS_MINUS_1:
        # disjoint positive components, one negative between neighbours
        signs = [d > 0 for d in degrees if d]
        if any(p == q for p, q in zip(signs, signs[1:] + signs[:1])):
            raise RealizabilityError(
                "case-c-structure",
                "going round the cycle the nonzero degrees must alternate in "
                "sign, one negative component between consecutive positive "
                f"ones; the degrees are {degrees}",
            )
        positive = signs.count(True)
        doubled = CycleLineBundle(tuple(2 * d for d in degrees))
        dim_minus2ks = h0_formula(doubled)
        check(dim_minus2ks == positive,
              "dim|-2K_S| = {}, but the cycle has {} positive components",
              dim_minus2ks, positive, invariant="case-c-minus-2k")
        dim_antican_z = 2 + dim_minus2ks
        deg1 = m
    report = ClassificationReport(
        case=case,
        nef=nef,
        nef_and_big=nef and chern_numbers(4).c1_cubed > 0,
        negative_curves=negatives,
        cycle_length=m,
        smooth_anticanonical=necklace.smooth_variant,
        h0_fundamental=h0,
        dim_fundamental_system=h0 - 1,
        base_locus=base,
        degree_one_count=deg1,
        algebraic_dimension=a,
        lebrun=lebrun,
        tau=tau,
        dim_minus2KS=dim_minus2ks,
        dim_antican_Z=dim_antican_z,
    )
    return check_report(report)


# -- enumeration ------------------------------------------------------------


# a nef configuration needs a torsion choice; tau = 1 is the generic
# free-pencil representative and keeps emitted documents classifiable.
# classify reads it on the nef branch only; the document keeps it there
_TAU_ONE = TorsionSpec.finite(1)


@dataclass(frozen=True)
class EnumeratedEntry:
    """One representative configuration discovered by the enumerator.

    The document and its digest are built on first use, so the enumerator
    pays for them only on the entries it keeps."""

    schedule: BlowupSchedule
    shape: tuple
    report: ClassificationReport | None
    error: str | None

    @cached_property
    def document(self) -> dict:
        nef = self.report is not None and self.report.nef
        return schema.document_for(self.schedule, _TAU_ONE if nef else None)

    @cached_property
    def digest(self) -> str:
        return schema.document_digest(self.document)


@dataclass(frozen=True)
class EnumerationResult:
    entries: tuple[EnumeratedEntry, ...]
    visited: int
    exhausted: bool


def _shape_key(squares: tuple[int, ...], partners: tuple[int, ...]) -> tuple:
    """The weighted shape of a necklace: its sorted (self-intersection,
    is real) pairs, forgetting the cycle order."""
    real = (p == i for i, p in enumerate(partners))
    return tuple(sorted(zip(squares, real)))


def walk_schedules(root: RealizationState):
    """Depth-first walk over every schedule that completes ``root``,
    yielding ``(schedule, leaf state)``; each node extends its parent once."""
    if len(root.key[3]) == root.lattice.pairs:  # one host per placed pair
        yield BlowupSchedule(root.initial_type, root.steps), root
        return
    for move in root.candidates():
        yield from walk_schedules(root.extend(move))


def _outcome(leaf: RealizationState) -> tuple[ClassificationReport | None, str | None]:
    """The leaf's report and None, or None and the tag that rejects it: its
    necklace classified with tau = 1."""
    try:
        return classify(leaf.necklace(_TAU_ONE)), None
    except RealizabilityError as exc:
        return None, exc.tag


def classify_leaf(leaf: RealizationState) -> EnumeratedEntry:
    """Classify the schedule that walked to ``leaf`` from the leaf's necklace."""
    schedule = BlowupSchedule(leaf.initial_type, leaf.steps)
    return EnumeratedEntry(schedule, _shape_key(*leaf.key[1:3]), *_outcome(leaf))


class _CapReached(Exception):
    """Stops the walk at a leaf met with ``max_reports`` entries kept."""


class _Walk:
    """One enumeration's depth-first walk: the entries kept, the (initial
    type, necklace) pairs classified, the leaf count below each interior
    state's positional key, and the leaves visited.

    The leaves below a state, as a count and as a set of necklaces, depend
    only on its positional key, the state's ``key``, which ``extend``
    derives from the parent's in O(m).  ``candidates`` and
    ``extend`` act on positions: one smooth step per conjugate orbit of
    components, leaving out the real fibre F of type II, which sits at
    position 0 in every state; one node step per conjugate orbit of edges
    that are not their own conjugate; one infinitely-near step per pair
    placed at a smooth point and not yet consumed.  Each step lowers
    squares at positions, inserts -1 components next to positions, and
    records its host's position and the consumed pair.  Names enter only in
    which member of a conjugate orbit a candidate picks, and the other
    member gives the mirror-image state: the same squares, the same
    conjugate positions, hosts at the conjugate positions, hence the same
    subtree up to mirror image, with the same leaf count and necklaces.
    No state carries classes, and ``classify`` reads only the leaf's
    ``Necklace``, which ``RealizationState.necklace`` takes from the key.
    That call replays the classes as coefficient lists, checking at each
    step that its pair is fresh, on the paths to the classified leaves
    only; no ``cycle()`` and no ``DivisorClass`` is built.  A leaf's
    ``EnumeratedEntry`` and its ``BlowupSchedule`` are built only when its
    (initial type, shape, case) key is new, once per kept entry.

    The key holds the depth (one host per placed pair), so a state's
    subtree is walked in full before any later state with its key is met.
    The walk then adds the stored count to ``visited`` and skips that
    subtree: each of its leaves has a necklace already classified, so it
    could never be kept, as in a plain walk that skips such leaves one by
    one.  The cap is checked first, as the plain walk would at the
    subtree's first leaf (every subtree has one: an interior state always
    has a smooth step on G or C0).  These are module-level classes, and a
    state refers only to its parent, so a walk leaves no reference cycle
    behind.
    """

    def __init__(self, max_reports: int | None):
        self.max_reports = max_reports
        self.found: dict[tuple, EnumeratedEntry] = {}
        self.seen: set[tuple] = set()
        self.below: dict[tuple, int] = {}
        self.visited = 0

    def _count(self, leaves: int) -> None:
        """Visit ``leaves`` more leaves, stopping first once the cap is met."""
        if self.max_reports is not None and len(self.found) >= self.max_reports:
            raise _CapReached
        self.visited += leaves

    def visit(self, state: RealizationState) -> int:
        """Walk ``state``'s subtree, classifying the first leaf of each
        (initial type, necklace); returns the subtree's leaf count."""
        key = state.key
        if len(key[3]) == state.lattice.pairs:
            self._count(1)
            initial, squares, partners = necklace_key = key[:3]
            if necklace_key not in self.seen:
                self.seen.add(necklace_key)
                report, error = _outcome(state)
                shape = _shape_key(squares, partners)
                found = (initial, shape, report.case if report else f"error:{error}")
                if found not in self.found:
                    schedule = BlowupSchedule(initial, state.steps)
                    self.found[found] = EnumeratedEntry(schedule, shape, report,
                                                        error)
            return 1
        leaves = self.below.get(key)
        if leaves is not None:
            self._count(leaves)
            return leaves
        leaves = 0
        for move in state.candidates():
            leaves += self.visit(state.extend(move))
        self.below[key] = leaves
        return leaves


def _entry_sort_key(entry: EnumeratedEntry):
    rank = _CASES[entry.report.case].rank if entry.report else len(_CASES)
    return (
        rank,
        entry.error or "",
        entry.shape,
        entry.schedule.initial_type,
        entry.digest,
    )


def enumerate_configurations(max_reports: int | None = None) -> EnumerationResult:
    """Walk every n = 4 schedule over the two stable initial cycles,
    classify each, and keep one representative per distinct
    (initial type, weighted-shape, case) key.

    The two-conjugate-(1,1)-curves initial cycle is omitted: blowing its
    nodes first is the elementary transform of a type I schedule, and never
    blowing them realizes configurations already covered.  ``max_reports``
    caps the number of kept entries; the result records whether the walk
    exhausted the space.  Only the first leaf of each (initial type,
    necklace) is classified: the shape and the case come from the necklace
    alone, so a later leaf with the same one maps to a key already found.
    It is classified from its ``Necklace``, which replays the path's
    classes as lists to check that each pair is fresh but builds no cycle.
    A subtree whose root's positional key was met before is counted and
    skipped (see ``_Walk``).  Only kept entries build their schedule and,
    on first use, their document.
    """
    if max_reports is not None and type(max_reports) is not int:
        raise ScheduleError(f"max_reports must be an int, got {max_reports!r}")
    if max_reports is not None and max_reports < 1:
        raise ScheduleError("max_reports must be positive when given")
    walk = _Walk(max_reports)
    exhausted = True
    try:
        for initial in ("I", "II"):
            walk.visit(RealizationState(initial, 4))
    except _CapReached:
        exhausted = False
    entries = tuple(sorted(walk.found.values(), key=_entry_sort_key))
    return EnumerationResult(entries=entries, visited=walk.visited,
                             exhausted=exhausted)
