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
from functools import cache, reduce

from . import schema
from .cycles import CycleLineBundle, TorsionSpec, h0_formula
from .errors import RealizabilityError, ScheduleError, TorsionRequiredError, check
from .lattice import (
    BlowupSchedule,
    Necklace,
    RealizationState,
    elementary_transform,
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
#: branch, its fixed (h0(F), base locus, a(Z), degree-one count); case c
#: has one degree-one divisor per component.
_Case = namedtuple("_Case", "letter rank fixed")
_CASES = {
    CASE_NEF: _Case(None, 0, None),
    CASE_REAL_MINUS_2: _Case("a", 1, (3, "C0", 3, 0)),
    CASE_PAIR_MINUS_2: _Case("b", 2, (4, "A+Abar", 3, math.inf)),
    CASE_PAIRS_MINUS_1: _Case("c", 3, (2, "C", 3, None)),
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
    three realizable patterns as ``classify`` validates them.

    Degrees below -2 cannot occur on a surface with an anticanonical
    cycle of this kind; a single real -2, one disjoint conjugate -2 pair,
    or up to three conjugate -1 pairs alternating with the positive
    components are the only other options.
    """
    degrees = anticanonical_degrees(necklace)
    case, negatives = _match_case(necklace, degrees)
    if case not in _CASES:
        raise _rejection(case, negatives, degrees)
    return negatives


def _match_case(necklace: Necklace, degrees):
    """``(case, negative_curves)`` from the necklace's checked degrees, or
    ``(tag, negative_curves)`` with the tag of the rule that rejects them;
    ``_rejection`` words the tag, so a caller that keeps only the tag pays
    for no text.

    A ``Necklace``'s conjugation keeps the degrees, so it permutes the
    negative positions ``at``: case b's two non-real -2s are each other's
    partners, and case c's -1s are closed under it, unchecked."""
    order, at = necklace.order, [p for p, d in enumerate(degrees) if d < 0]
    negatives = tuple([(order[p], degrees[p]) for p in at])
    if not negatives:
        return CASE_NEF, negatives
    degs = [d for _, d in negatives]
    if min(degs) <= -3:
        return "degree-below-minus-2", negatives
    partners = necklace.partners
    real = [partners[p] == p for p in at]
    if degs == [-2] and real == [True]:
        return CASE_REAL_MINUS_2, negatives
    if degs == [-2, -2] and not any(real):
        # components of a valid cycle meet exactly when adjacent
        if at[1] - at[0] in (1, len(degrees) - 1):
            return "pair-not-disjoint", negatives
        return CASE_PAIR_MINUS_2, negatives
    if len(negatives) in (2, 4, 6) and degs == [-1] * len(degs) and not any(real):
        # disjoint positive components, one negative between neighbours
        signs = [d > 0 for d in degrees if d]
        if signs[1:] + signs[:1] != [not s for s in signs]:
            return "case-c-structure", negatives
        return CASE_PAIRS_MINUS_1, negatives
    return "negative-pattern", negatives


def _rejection(tag: str, negatives, degrees) -> RealizabilityError:
    """The error that ``classify`` and ``negative_curves`` raise for a
    rejection ``tag`` of ``_match_case``."""
    if tag == "degree-below-minus-2":
        name, d = next(c for c in negatives if c[1] <= -3)
        text = (f"component {name} has degree {d}; no component of degree "
                "below -2 can appear on an anticanonical cycle here")
    elif tag == "pair-not-disjoint":
        text = (f"the degree -2 conjugate pair {negatives[0][0]}, "
                f"{negatives[1][0]} must be disjoint")
    elif tag == "case-c-structure":
        text = ("going round the cycle the nonzero degrees must alternate in "
                "sign, one negative component between consecutive positive "
                f"ones; the degrees are {degrees}")
    else:
        text = (f"negative components {list(negatives)} match none of the "
                "realizable patterns (one real -2, a conjugate -2 pair, or "
                "1-3 conjugate -1 pairs)")
    return RealizabilityError(tag, text)


class ClassificationReport(namedtuple("ClassificationReport", (
        "case", "negative_curves", "cycle_length", "smooth_anticanonical",
        "h0_fundamental", "base_locus", "degree_one_count", "algebraic_dimension",
        "tau", "dim_minus2KS"))):
    """Everything the classification determines for one configuration.

    ``degree_one_count`` and ``tau`` may be ``math.inf``, and ``tau`` and
    ``dim_minus2KS`` None.  The five properties are read off the fields,
    so no report can contradict them; ``as_dict`` emits them with the
    fields."""

    __slots__ = ()

    # F is nef exactly when no component has negative degree, and never big:
    # F^3 = c_1^3 / 8 = 2(4 - n) = 0 at n = 4, the only n classified; Z holds
    # a pencil of degree-one divisors (LeBrun) exactly when dim|F| = 3
    nef = property(lambda self: not self.negative_curves)
    nef_and_big = property(lambda self: False)
    dim_fundamental_system = property(lambda self: self.h0_fundamental - 1)
    lebrun = property(lambda self: self.dim_fundamental_system == 3)
    dim_antican_Z = property(lambda self: None if self.dim_minus2KS is None
                             else 2 + self.dim_minus2KS)

    @property
    def case_letter(self) -> str | None:
        return _CASES[self.case].letter

    def as_dict(self) -> dict:
        """The ten fields, read once by unpacking, then the five properties;
        math.inf is a value of the two fields typed int | float alone."""
        case, negatives, m, smooth, h0, base, deg1, a, tau, dim_minus2ks = self
        encode = schema.encode_infinite
        return {"case": case, "negative_curves": [list(c) for c in negatives],
                "cycle_length": m, "smooth_anticanonical": smooth,
                "h0_fundamental": h0, "base_locus": base,
                "degree_one_count": encode(deg1), "algebraic_dimension": a,
                "tau": encode(tau), "dim_minus2KS": dim_minus2ks, "nef": self.nef,
                "nef_and_big": self.nef_and_big, "lebrun": self.lebrun,
                "dim_fundamental_system": self.dim_fundamental_system,
                "dim_antican_Z": self.dim_antican_Z}


def check_report(report: ClassificationReport) -> ClassificationReport:
    """Consistency oracle run on every report before it is returned: the
    first fact of the classification that the report breaks raises
    ``InvariantError`` tagged ``invariant-report-<fact>``."""
    r, a, dim = report, report.algebraic_dimension, report.dim_fundamental_system
    negative, free = bool(r.negative_curves), r.base_locus == "free"
    check(r.case in _CASES, "{!r} is not a case", r.case, invariant="report-case")
    check(a >= dim, "a(Z) bounds dim|F| from above",
          invariant="report-dimension-bound")
    check((r.case == CASE_NEF) != negative,
          "the case is NEF exactly when no component is negative",
          invariant="report-nef")
    check((a == 3) == negative, "a(Z)=3 exactly when F is not nef",
          invariant="report-moishezon")
    check((dim == 3) == (r.case == CASE_PAIR_MINUS_2),
          "dim|F| = 3 (LeBrun) exactly in case b", invariant="report-lebrun")
    check((dim < 2 or (a == 2) == r.nef == free) and (a == 2 or not free),
          "a(Z) = 2 when F is free; for dim|F| >= 2, exactly when F is nef",
          invariant="report-free-pencil")
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
              and r.dim_minus2KS is not None and r.dim_minus2KS >= 2,
              "case c has 1-3 negative pairs on a 4- to 12-cycle, m degree-one "
              "divisors and dim|-2K_S| >= 2", invariant="report-case-c")
    else:
        check(r.dim_minus2KS is None, "only case c reports dim|-2K_S|",
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
    the smooth variant's is one real component of degree (-K)^2 = 8 - 2n."""
    n, schedule, torsion = schema.parse_document(doc)
    if schedule is None:
        tau = None if torsion is None else torsion.tau
        return Necklace(("C",), (8 - 2 * n,), (0,), True, tau, n)
    return model_from_schedule(schedule, torsion)


def classify(necklace: Necklace) -> ClassificationReport:
    """The full classification for n = 4 (eight blown-up points), read off
    a ``Necklace``; any other model raises ScheduleError."""
    report, rejected = _classify(necklace)
    if rejected is not None:
        raise _rejection(*rejected)
    return report


def _classify(necklace: Necklace):
    """``(report, None)``, or ``(None, (tag, negative_curves, degrees))`` for
    a necklace ``_match_case`` rejects: ``classify`` without the error, as
    the enumerator keeps only the tag.  Every other error is raised."""
    degrees = anticanonical_degrees(necklace)
    if necklace.pairs != 4:
        raise ScheduleError(
            f"classification requires n = 4 conjugate pairs, "
            f"got n = {necklace.pairs}"
        )
    case, negatives = _match_case(necklace, degrees)
    if case not in _CASES:
        return None, (case, negatives, degrees)
    m, tau, dim_minus2ks = len(degrees), necklace.tau, None
    if case == CASE_NEF:
        if tau is None:
            raise TorsionRequiredError(
                "the fundamental system is nef, so its dimension depends "
                "on the torsion order tau of the normal sheaf on the "
                "cycle; supply a torsion record"
            )
        h0, base = (3, "free") if tau == 1 else (2, "C")
        a = 1 if tau == math.inf else 2
        deg1 = 0 if (tau == 1 or necklace.smooth_variant) else m
    else:
        h0, base, a, deg1 = _CASES[case].fixed
        tau = None
    if case == CASE_PAIRS_MINUS_1:
        positive = sum([d > 0 for d in degrees])
        doubled = CycleLineBundle([2 * d for d in degrees])
        dim_minus2ks = h0_formula(doubled)
        check(dim_minus2ks == positive,
              "dim|-2K_S| = {}, but the cycle has {} positive components",
              dim_minus2ks, positive, invariant="case-c-minus-2k")
        deg1 = m
    return check_report(ClassificationReport(  # by position, in field order
        case, negatives, m, necklace.smooth_variant, h0, base, deg1, a, tau,
        dim_minus2ks)), None


# -- enumeration ------------------------------------------------------------


# a nef configuration needs a torsion choice; tau = 1 is the generic
# free-pencil representative and keeps emitted documents classifiable.
# classify reads it on the nef branch only; the document keeps it there
_TAU_ONE = TorsionSpec.finite(1)


class EnumeratedEntry(namedtuple("EnumeratedEntry", (
        "schedule", "shape", "report", "error", "document", "digest"))):
    """One representative configuration discovered by the enumerator: its
    schedule, shape, and report or rejection tag, and the schedule's
    document and digest, derived once on construction (the enumerator
    builds an entry only for a key it keeps, and sorts the entries by
    digest).  ``_make``, and so ``_replace``, derive them again."""

    __slots__ = ()

    def __new__(cls, schedule, shape, report, error):
        nef = report is not None and report.nef
        document = schema.document_for(schedule, _TAU_ONE if nef else None)
        return tuple.__new__(cls, (schedule, shape, report, error, document,
                                   schema.document_digest(document)))

    @classmethod
    def _make(cls, iterable):
        return cls(*tuple(iterable)[:4])


EnumerationResult = namedtuple("EnumerationResult", ("entries", "visited", "exhausted"))


def _shape_key(squares: tuple[int, ...], partners: tuple[int, ...]) -> tuple:
    """The weighted shape of a necklace: its sorted (self-intersection,
    is real) pairs, forgetting the cycle order."""
    real = (p == i for i, p in enumerate(partners))
    return tuple(sorted(zip(squares, real)))


def walk_schedules(root: RealizationState):
    """Depth-first walk over every schedule that completes ``root``,
    yielding ``(schedule, leaf state)``; each node extends its parent once."""
    if len(root.key[3]) == root.pairs:  # one host per placed pair
        yield BlowupSchedule(root.initial_type, root.steps), root
        return
    for move in root.candidates():
        yield from walk_schedules(root.extend(move))


def _outcome(leaf: RealizationState) -> tuple[ClassificationReport | None, str | None]:
    """The leaf's report and None, or None and the tag that rejects it: its
    necklace classified with tau = 1, and no rejection worded."""
    report, rejected = _classify(leaf.necklace(_TAU_ONE))
    return report, None if rejected is None else rejected[0]


def classify_leaf(leaf: RealizationState) -> EnumeratedEntry:
    """Classify the schedule that walked to ``leaf`` from the leaf's necklace."""
    schedule = BlowupSchedule(leaf.initial_type, leaf.steps)
    return EnumeratedEntry(schedule, _shape_key(*leaf.key[1:3]), *_outcome(leaf))


class _CapReached(Exception):
    """Stops the walk at a leaf met with ``max_reports`` entries kept."""


@cache
def _dihedral_maps(m: int, type_ii: bool) -> tuple:
    """(start, g^-1) for each map g: i -> r + s*i (s = 1 or -1) of m
    positions, for type II only the two with r = 0, which fix F at 0; a tuple
    t relabelled by g, i taking t[g[i]], is (t * 2 + t[::-1] * 2)[start:start + m]."""
    return tuple((r if s == 1 else 3 * m - 1 - r,
                  tuple([s * (i - r) % m for i in range(m)]))
                 for s in (1, -1) for r in ((0,) if type_ii else range(m)))


def _memo_key(key: tuple) -> tuple:
    """The walk's memo key of a positional ``key``: the initial type, the
    depth and the least (squares, sorted folded open hosts) over
    ``_dihedral_maps``, without the conjugate positions (see ``_Walk``).
    Only a map whose image starts with the least first square can give the
    least image: type I's images start at every position, type II's two at
    0.  One pass keeps the least image and the maps that give it, and only
    those fold the open hosts."""
    initial, squares, partners, hosts, consumed = key
    m, double = len(squares), squares * 2 + squares[::-1] * 2
    first = squares[0] if initial == "II" else min(squares)
    least, tied = None, []
    for start, inv in _dihedral_maps(m, initial == "II"):
        if double[start] == first:
            image = double[start:start + m]
            if least is None or image < least:
                least, tied = image, [inv]
            elif image == least:
                tied.append(inv)
    open_hosts = [h for j, h in enumerate(hosts, 1)
                  if h is not None and j not in consumed]
    return initial, len(hosts), (least, min([
        tuple(sorted([min(inv[h], inv[partners[h]]) for h in open_hosts]))
        for inv in tied]))


class _Walk:
    """One enumeration's depth-first walk: the entries kept, the (initial
    type, necklace) pairs met, the leaves queued, the leaf count below
    each memo key and each positional key met, and the leaves visited.

    ``candidates`` lists, by position, one smooth step per conjugate orbit
    of components but the real fibre F of type II (at position 0 in every
    state: a node step inserts after it at the earliest), one node step
    per orbit of edges that are not their own conjugate, and last one
    infinitely-near step per open host (a pair at a smooth point, not yet
    consumed).  ``classify`` reads a leaf's ``Necklace`` off its key, so
    the walk builds no class, and a ``BlowupSchedule`` and an entry only
    for a new (initial type, shape, case) key.

    The leaves below a state, as a count and as a set of necklaces up to
    relabelling, depend only on its ``_memo_key``.  With no relabelling,
    by induction on the steps left: two states with one (initial type,
    squares, depth, sorted min(h, partners[h]) over the open hosts h) have
    candidates matched one to one with children of one such key; the
    initial type and m fix the conjugate positions (type I's half-turn,
    type II's reflection p -> -p mod m), as a node step subdivides two
    edges the conjugation swaps and keeps the positions' order.
      * A smooth step at p lowers the squares at p and partners[p] and
        opens a host folded to min(p, partners[p]), whichever member of
        the orbit the names pick.
      * A node step inserts two -1 components after its orbit's two edges
        and lowers their four endpoints' squares: only the names E_{2k-1}
        and E_{2k} depend on the member picked.  It opens no host and
        renumbers position x as moved[x], which increases and commutes
        with the conjugation, so the folded hosts move along.
      * The infinitely-near step on an open host h lowers the squares at
        h and partners[h] and swaps the closed h for the new pair at h:
        the folded hosts stay, and hosts of one orbit give one child key.
        The multiset keeps their number; node pairs (host None) and
        consumed hosts offer no step and are left out.
    A map g of ``_dihedral_maps`` commutes with the conjugation and maps
    orbits of components, edges and hosts to orbits, so a relabelled
    state's children are the children relabelled; for type II it fixes
    F's position 0.  A found key (initial type, ``_shape_key``, case or
    tag) is invariant under g: the shape is a multiset, and ``_match_case``
    reads degrees, the conjugation, adjacency and the cyclic signs.  The
    key holds the depth, so a state's subtree is walked in full before a
    later state with its key is met, whose leaves are then counted and
    skipped: their found keys were all met, so a plain walk keeps none of
    them and each kept entry is the one it finds first, also under
    ``--limit``; a necklace only a skipped leaf had is classified later,
    to a key already met.

    The last step counts the leaves it cannot keep.  With one pair left,
    the infinitely-near child on h lowers the squares at h and partners[h]
    and keeps the order and the partners, as the smooth step on h's orbit
    does, which exists (F hosts no point) and comes first.  So that leaf
    repeats a necklace in ``seen``: it is counted, not built.  The open
    hosts then change only how many leaves such a state has, so its memo
    key blanks every host (keeping the depth), and each state adds its
    open hosts to the stored count.

    A state looks its positional key (so blanked at the last step) up in
    ``exact`` before it computes a memo key: equal positional keys have
    equal memo keys, and a positional key is stored only once its memo
    key's count is, so a hit is a memo hit that skips the canonical form.
    A full walk computes 63 memo keys for the 87 states that reach the
    memo; ``below`` keeps one count per memo key (39), ``exact`` one per
    positional key.

    Leaves are classified in one place, ``flush``, in walk order, so each
    key keeps the plain walk's entry; a rejected leaf keeps its tag, and no
    ``RealizabilityError`` or message is built for it (see ``_classify``).
    A leaf with a new (initial type, necklace) is queued, and ``flush``
    runs once the entries kept plus the leaves queued reach
    ``max_reports``, and after the walk.  A leaf adds at most one entry,
    so while that sum is below the cap the plain walk's count is too, and
    at the cap ``found`` is exact.  The cap is checked
    at each leaf, and before a skipped subtree or the last step's counted
    leaves, as the plain walk checks it at their first leaf (an interior
    state has a smooth step on G or C0), so the walk stops where the plain
    walk stops, with the queue empty.  A state refers only to its parent,
    so a walk leaves no reference cycle.
    """

    def __init__(self, max_reports: int | None):
        self.cap = math.inf if max_reports is None else max_reports
        self.found: dict[tuple, EnumeratedEntry] = {}
        self.seen: set[tuple] = set()
        self.pending: list[RealizationState] = []
        self.below: dict[tuple, int] = {}
        self.exact: dict[tuple, int] = {}
        self.visited = 0

    def _count(self, leaves: int) -> None:
        """Visit ``leaves`` more leaves, stopping first once the cap is met."""
        if len(self.found) >= self.cap:
            raise _CapReached
        self.visited += leaves

    def flush(self) -> None:
        """Classify the queued leaves in walk order, keeping an entry for
        each new (initial type, shape, case) key, and empty the queue."""
        found = self.found
        for leaf in self.pending:
            report, error = _outcome(leaf)
            initial, squares, partners = leaf.key[:3]
            shape = _shape_key(squares, partners)
            key = (initial, shape, report.case if report else f"error:{error}")
            if key not in found:
                schedule = BlowupSchedule(initial, leaf.steps)
                found[key] = EnumeratedEntry(schedule, shape, report, error)
        self.pending.clear()

    def visit(self, state: RealizationState) -> int:
        """Walk ``state``'s subtree, queueing the first leaf of each
        (initial type, necklace); returns the subtree's leaf count."""
        key = state.key
        depth = len(key[3])
        if depth == state.pairs:
            self._count(1)
            necklace_key = key[:3]
            if necklace_key not in self.seen:
                self.seen.add(necklace_key)
                self.pending.append(state)
                if len(self.found) + len(self.pending) >= self.cap:
                    self.flush()
            return 1
        open_hosts = 0
        if depth == state.pairs - 1:  # the last step: see the docstring
            initial, squares, partners, hosts, consumed = key
            open_hosts = sum([h is not None and j not in consumed
                              for j, h in enumerate(hosts, 1)])
            key = initial, squares, partners, (None,) * depth, consumed
        leaves = self.exact.get(key)
        if leaves is None:
            memo = _memo_key(key)
            leaves = self.below.get(memo)
            if leaves is None:
                moves, leaves = state.candidates(), 0
                for move in moves[:len(moves) - open_hosts]:
                    leaves += self.visit(state.extend(move))
                self.below[memo] = self.exact[key] = leaves
                if open_hosts:
                    self._count(open_hosts)
                return leaves + open_hosts
            self.exact[key] = leaves
        self._count(leaves + open_hosts)
        return leaves + open_hosts


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
    nodes first is the elementary transform of a type I schedule, and a
    schedule that never blows them ends on a type I or II necklace up to
    rotation and reflection, except the 15 that keep the 2-cycle (A, Abar)
    with squares (-2, -2), a nef configuration left out.  ``max_reports``
    caps the number of kept entries; the result records whether the walk
    exhausted the space.  Only the first leaf of each (initial type,
    necklace) is classified, from its ``Necklace``: the shape and the case
    come from the necklace alone.  Such leaves are queued and classified
    in walk order, as soon as the entries kept plus the leaves queued
    reach the cap, and after the walk.  A subtree whose root's memo key
    was met before is counted and skipped, and so are the last step's
    infinitely-near leaves, which repeat a smooth sibling's necklace (see
    ``_Walk``).  Only kept entries build their schedule and document.
    """
    if max_reports is not None and (type(max_reports) is not int or max_reports < 1):
        raise ScheduleError(f"max_reports must be a positive int, got {max_reports!r}")
    walk = _Walk(max_reports)
    exhausted = True
    try:
        for initial in ("I", "II"):
            walk.visit(RealizationState(initial, 4))
    except _CapReached:  # the queue is empty: see ``_Walk``
        exhausted = False
    walk.flush()
    entries = tuple(sorted(walk.found.values(), key=_entry_sort_key))
    return EnumerationResult(entries=entries, visited=walk.visited,
                             exhausted=exhausted)
