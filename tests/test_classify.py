"""Algebraic-dimension classification and the configuration enumerator."""

import ast
import dataclasses
import gc
import hashlib
import importlib
import math
import operator
from collections import Counter
from itertools import chain, combinations
from pathlib import Path

import pytest

from twistor4 import schema
from twistor4.acceptance import golden_case_a, golden_case_b, golden_case_c, golden_nef
from twistor4.classify import (
    CASE_NEF,
    CASE_PAIR_MINUS_2,
    CASE_PAIRS_MINUS_1,
    CASE_REAL_MINUS_2,
    anticanonical_degrees,
    check_report,
    classify,
    classify_leaf,
    enumerate_configurations,
    model_from_document,
    model_from_schedule,
    negative_curves,
    walk_schedules,
)
from twistor4.cycles import CycleLineBundle, TorsionSpec, cyclic_arcs
from twistor4.errors import (
    InvariantError,
    RealizabilityError,
    ScheduleError,
    TorsionRequiredError,
)
from twistor4.lattice import (
    INITIAL_TYPES,
    AnticanonicalCycle,
    BlowupSchedule,
    BlowupStep,
    DivisorClass,
    Necklace,
    RealizationState,
    SurfaceLattice,
    elementary_transform,
    realize_cycle,
    smooth_anticanonical_cycle,
)
from twistor4.linalg import bareiss_determinant

# the package exports the function ``classify`` under the module's name
classify_module = importlib.import_module("twistor4.classify")
S, N, INF = BlowupStep.smooth, BlowupStep.node, BlowupStep.infinitely_near
TAU_ONE = TorsionSpec.finite(1)


# -- the golden configurations ------------------------------------------------

def test_case_a_report():
    report = classify(model_from_schedule(golden_case_a()))
    assert report.case == CASE_REAL_MINUS_2
    assert report.case_letter == "a"
    assert report.negative_curves == (("C0", -2),)
    assert not report.nef
    assert report.h0_fundamental == 3
    assert report.dim_fundamental_system == 2
    assert report.base_locus == "C0"
    assert report.algebraic_dimension == 3
    assert report.degree_one_count == 0
    assert not report.lebrun
    assert report.tau is None
    assert report.dim_minus2KS is None and report.dim_antican_Z is None


def test_case_b_report():
    report = classify(model_from_schedule(golden_case_b()))
    assert report.case == CASE_PAIR_MINUS_2
    assert report.case_letter == "b"
    assert report.negative_curves == (("G", -2), ("Gbar", -2))
    assert report.h0_fundamental == 4
    assert report.dim_fundamental_system == 3
    assert report.base_locus == "A+Abar"
    assert report.algebraic_dimension == 3
    assert report.degree_one_count == math.inf
    assert report.lebrun
    assert report.as_dict()["degree_one_count"] == "infinite"


def test_case_c_report():
    report = classify(model_from_schedule(golden_case_c()))
    assert report.case == CASE_PAIRS_MINUS_1
    assert report.case_letter == "c"
    assert report.negative_curves == (("G", -1), ("Gbar", -1))
    assert report.cycle_length == 8
    assert report.h0_fundamental == 2
    assert report.dim_fundamental_system == 1
    assert report.base_locus == "C"
    assert report.algebraic_dimension == 3
    assert report.degree_one_count == 8
    assert report.dim_minus2KS == 2
    assert report.dim_antican_Z == 4
    assert not report.lebrun


@pytest.mark.parametrize(
    "torsion,h0,base,a,deg1",
    [
        (TorsionSpec.finite(1), 3, "free", 2, 0),
        (TorsionSpec.finite(2), 2, "C", 2, 4),
        (TorsionSpec.finite(5), 2, "C", 2, 4),
        (TorsionSpec.non_torsion(), 2, "C", 1, 4),
    ],
)
def test_nef_reports_by_torsion(torsion, h0, base, a, deg1):
    report = classify(model_from_schedule(golden_nef(), torsion=torsion))
    assert report.case == CASE_NEF
    assert report.case_letter is None
    assert report.nef and not report.nef_and_big
    assert report.negative_curves == ()
    assert report.h0_fundamental == h0
    assert report.base_locus == base
    assert report.algebraic_dimension == a
    assert report.degree_one_count == deg1
    assert report.tau == torsion.tau


def test_nef_without_torsion_is_refused():
    with pytest.raises(TorsionRequiredError):
        classify(model_from_schedule(golden_nef()))


def test_smooth_anticanonical_documents_classify_as_nef():
    doc = {
        "n": 4,
        "initial_type": "I",
        "steps": [],
        "smooth_anticanonical": True,
        "torsion": {"kind": "finite", "order": 2},
    }
    report = classify(model_from_document(doc))
    assert report.case == CASE_NEF
    assert report.smooth_anticanonical
    assert report.cycle_length == 1
    # the smooth member has no cycle components of positive degree to count
    assert report.degree_one_count == 0
    assert report.tau == 2


def test_classification_requires_four_pairs():
    cycle = model_from_schedule(BlowupSchedule("I", (S("G"),)))
    with pytest.raises(ScheduleError):
        classify(cycle)
    cycle = model_from_schedule(BlowupSchedule("I", (S("G"),) * 5))
    with pytest.raises(ScheduleError):
        classify(cycle)


# -- degree helpers ------------------------------------------------------------

def test_anticanonical_degrees_and_nef():
    nef_cycle = model_from_schedule(golden_nef())
    assert anticanonical_degrees(nef_cycle) == (0, 0, 0, 0)
    assert all(d >= 0 for d in anticanonical_degrees(nef_cycle))
    case_a = model_from_schedule(golden_case_a())
    assert anticanonical_degrees(case_a) == (2, -2)
    assert not all(d >= 0 for d in anticanonical_degrees(case_a))


def test_negative_curves_on_goldens():
    assert negative_curves(model_from_schedule(golden_nef())) == ()
    assert negative_curves(model_from_schedule(golden_case_a())) == (("C0", -2),)
    assert negative_curves(model_from_schedule(golden_case_b())) == (
        ("G", -2),
        ("Gbar", -2),
    )
    assert negative_curves(model_from_schedule(golden_case_c())) == (
        ("G", -1),
        ("Gbar", -1),
    )


# -- realizability rejections ---------------------------------------------------

def test_degree_below_minus_two_rejected():
    schedule = BlowupSchedule(
        "II", (S("C0"), N(("F", "C0")), N(("E3", "F")), N(("E5", "F"))),
    )
    assert min(realize_cycle(schedule).degrees()) == -4
    with pytest.raises(RealizabilityError) as info:
        classify(model_from_schedule(schedule))
    assert info.value.tag == "degree-below-minus-2"
    with pytest.raises(RealizabilityError):
        negative_curves(model_from_schedule(schedule))


def test_unrealizable_negative_pattern_rejected():
    schedule = BlowupSchedule(
        "II", (S("C0"), N(("F", "C0")), S("E3"), N(("E3", "F"))),
    )
    assert realize_cycle(schedule).degrees() == (-2, 1, -1, 2, -1, 1)
    with pytest.raises(RealizabilityError) as info:
        classify(model_from_schedule(schedule))
    assert info.value.tag == "negative-pattern"


def test_broken_case_c_structure_rejected():
    schedule = BlowupSchedule("II", (S("C0"), N(("F", "C0")), S("E3"), S("E3")))
    assert realize_cycle(schedule).degrees() == (0, -1, 2, -1)
    with pytest.raises(RealizabilityError) as info:
        classify(model_from_schedule(schedule))
    assert info.value.tag == "case-c-structure"


def test_meeting_minus_two_pair_rejected():
    # no blow-up schedule produces a meeting conjugate -2 pair, so build the
    # configuration synthetically: classify must still refuse it.  G and
    # Gbar meet, so they are adjacent in the cycle order, also across its end
    lattice = SurfaceLattice(4)
    f = lattice.fibre()
    g = lattice.divisor(1, 0, (-1, -1, -1, 0, 0, 0, -1, 0))
    gbar = lattice.divisor(1, 0, (-1, -1, 0, -1, 0, 0, 0, -1))
    assert g.dot(gbar) == -2
    classes = {"F": f, "G": g, "Fbar": f, "Gbar": gbar}
    conjugate = {"F": "Fbar", "Fbar": "F", "G": "Gbar", "Gbar": "G"}
    for order in (("F", "G", "Gbar", "Fbar"), ("G", "F", "Fbar", "Gbar")):
        cycle = AnticanonicalCycle(lattice, order, classes, conjugate)
        assert sum(cycle.degrees()) == 0
        with pytest.raises(RealizabilityError) as info:
            classify(cycle.necklace())
        assert info.value.tag == "pair-not-disjoint"
    # the old order, with the meeting pair not adjacent, is no cycle at all
    with pytest.raises(ScheduleError):
        AnticanonicalCycle(lattice, ("F", "G", "Fbar", "Gbar"), classes,
                           conjugate).validate()


def _walked_leaf_cycles():
    """Every n = 4 leaf the walk reaches from each initial cycle, and the
    nodes-first type III leaves through the elementary transform."""
    for initial in INITIAL_TYPES:
        for _, leaf in walk_schedules(RealizationState(initial, 4)):
            yield leaf.cycle()
    nodes_first = RealizationState("III", 4).extend(N(("A", "Abar")))
    for schedule, _ in walk_schedules(nodes_first):
        yield realize_cycle(elementary_transform(schedule))


def _reference_rejection(cycle):
    """The tag classify must raise, from products of the classes and the
    negatives on each arc between positive components, or None."""
    try:
        negatives = negative_curves(cycle.necklace())
    except RealizabilityError as exc:
        return exc.tag
    if [d for _, d in negatives] == [-2, -2]:  # the conjugate pair
        first, second = (cycle.classes[name] for name, _ in negatives)
        return "pair-not-disjoint" if first.dot(second) != 0 else None
    if negatives and all(d == -1 for _, d in negatives):
        degrees = cycle.degrees()
        classes = [cycle.classes[name] for name in cycle.order]
        positive = [i for i, d in enumerate(degrees) if d > 0]
        if any(classes[i].dot(classes[j]) for i, j in combinations(positive, 2)):
            return "case-c-structure"
        if any(sum(degrees[i] < 0 for i in arc) != 1
               for arc in cyclic_arcs(cycle.m, positive)):
            return "case-c-structure"
    return None


def test_necklace_rules_match_the_lattice_reference_on_every_leaf():
    outcomes = Counter()
    for cycle in _walked_leaf_cycles():
        try:
            outcome, tag = classify(cycle.necklace(TAU_ONE)).case, None
        except RealizabilityError as exc:
            outcome = tag = exc.tag
        assert tag == _reference_rejection(cycle), (cycle.order, cycle.degrees())
        outcomes[outcome] += 1
    assert sum(outcomes.values()) == 1846
    assert outcomes[CASE_PAIR_MINUS_2] == 465
    assert outcomes[CASE_PAIRS_MINUS_1] == 1061
    assert outcomes["case-c-structure"] == 37


def test_classify_reads_no_divisor_classes():
    # realizability comes from the weighted necklace; the intersection
    # theory stays behind the lattice module
    source = Path(schema.__file__).with_name("classify.py")
    tree = ast.parse(source.read_text(encoding="utf-8"))
    offenders = [
        f"classify.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("dot", "classes")
        or isinstance(node, ast.ImportFrom)
        and any(alias.name == "cyclic_arcs" for alias in node.names)
    ]
    assert offenders == []


# -- report consistency ---------------------------------------------------------

def test_check_report_rejects_inconsistent_reports():
    case_a = classify(model_from_schedule(golden_case_a()))
    nef = classify(model_from_schedule(golden_nef(), TorsionSpec.finite(2)))
    case_c = classify(model_from_schedule(golden_case_c()))
    for good in (case_a, nef, case_c):
        assert check_report(good) is good
    for good, change, fact in (
        (case_a, {"case": "BOGUS"}, "case"),
        (case_a, {"algebraic_dimension": 2}, "moishezon"),
        (case_a, {"nef": True}, "nef"),
        (case_a, {"h0_fundamental": 5}, "h0"),
        (case_a, {"nef_and_big": True}, "nef-and-big"),
        (case_a, {"algebraic_dimension": 1}, "dimension-bound"),
        (case_a, {"lebrun": True}, "lebrun"),
        (case_a, {"base_locus": "free"}, "free-pencil"),
        (case_a, {"tau": 2}, "tau"),
        (case_a, {"dim_minus2KS": 2}, "case-c-only"),
        (nef, {"algebraic_dimension": 1}, "nef-torsion"),
        (case_c, {"degree_one_count": 7}, "case-c"),
    ):
        with pytest.raises(InvariantError) as info:
            check_report(dataclasses.replace(good, **change))
        assert info.value.tag == f"invariant-report-{fact}", change


def test_report_as_dict_round_trips_fields():
    report = classify(model_from_schedule(golden_case_c()))
    data = report.as_dict()
    assert data["case"] == CASE_PAIRS_MINUS_1
    assert data["negative_curves"] == [["G", -1], ["Gbar", -1]]
    assert data["dim_minus2KS"] == 2
    assert set(data) == {f.name for f in dataclasses.fields(report)}


@pytest.mark.parametrize("call", [
    lambda: enumerate_configurations(max_reports=0),
    lambda: TorsionSpec.finite(0),
    lambda: TorsionSpec("cyclic"),
    lambda: CycleLineBundle((3,)),
    lambda: CycleLineBundle((1, 1), gluing=(1,)),
    lambda: CycleLineBundle((1, 1), gluing=(1, 0)),
    lambda: bareiss_determinant([[1, 2], [3, 4], [5, 6]]),
    # an integer argument is checked, never truncated, and a bool is no int
    lambda: enumerate_configurations(1.5),
    lambda: enumerate_configurations(True),
    lambda: TorsionSpec.finite(2.5),
    lambda: TorsionSpec.finite(True),
    lambda: TorsionSpec.finite(math.inf),
    lambda: CycleLineBundle((2.5, -1, 2, -1)),
    lambda: CycleLineBundle((True, -1, 2, -1)),
    lambda: SurfaceLattice(1).divisor(1.5, 0),
    lambda: SurfaceLattice(1).divisor(0, 1, (False, 0)),
    lambda: DivisorClass(SurfaceLattice(0), (1.9, 0)),
    lambda: SurfaceLattice(1.5),
    lambda: SurfaceLattice(True),
    lambda: RealizationState("I", 1.5),
    lambda: cyclic_arcs(3, {10}),
    lambda: cyclic_arcs(3, {-1}),
], ids=["max-reports", "torsion-order", "torsion-kind", "one-component",
        "gluing-count", "gluing-zero", "non-square",
        "max-reports-float", "max-reports-bool", "torsion-order-float",
        "torsion-order-bool", "torsion-order-inf", "degree-float", "degree-bool",
        "divisor-float", "divisor-bool", "class-float", "pairs-float",
        "pairs-bool", "state-pairs-float", "arc-index-above", "arc-index-negative"])
def test_bad_library_arguments_raise_schedule_error(call):
    # a ScheduleError is a TwistorError and still a ValueError
    with pytest.raises(ScheduleError):
        call()


# -- the nodes-first route through the elementary transform ---------------------

def test_nodes_first_schedule_routes_through_the_transform():
    schedule = BlowupSchedule("III", (N(("A", "Abar")), S("A"), S("A"), S("A")))
    cycle = model_from_schedule(schedule)
    # the realized cycle is the four-component form, not the direct one
    assert set(cycle.order) == {"F", "G", "Fbar", "Gbar"}
    report = classify(cycle)
    assert report.case == CASE_PAIRS_MINUS_1
    assert report.cycle_length == 4
    assert report.dim_minus2KS == 2


def test_type_iii_without_node_realizes_directly():
    schedule = BlowupSchedule("III", (S("A"),) * 4)
    cycle = model_from_schedule(schedule, torsion=TorsionSpec.finite(1))
    assert set(cycle.order) == {"A", "Abar"}
    report = classify(cycle)
    assert report.case == CASE_NEF
    assert report.h0_fundamental == 3


# -- the walk -------------------------------------------------------------------

@pytest.mark.parametrize(
    "initial, prefix, leaves",
    [("I", (), 1266), ("II", (), 214), ("III", (N(("A", "Abar")),), 152)],
)
def test_walk_leaf_states_match_realize_cycle(initial, prefix, leaves):
    root = RealizationState(initial, 4)
    for step in prefix:
        root = root.extend(step)
    before = root.cycle()
    count = 0
    for schedule, leaf in walk_schedules(root):
        assert schedule.steps[: len(prefix)] == prefix
        assert leaf.steps == schedule.steps
        direct = realize_cycle(schedule)
        cycle = leaf.cycle()
        assert cycle.order == direct.order
        assert cycle.classes == direct.classes
        assert cycle.conjugate_names == direct.conjugate_names
        count += 1
    assert count == leaves
    assert root.cycle() == before


@pytest.mark.parametrize(
    "initial, pairs, leaves",
    [("I", 4, 1266), ("II", 4, 214), ("III", 4, 214), ("I", 5, 12374),
     ("II", 5, 1667)],
)
def test_every_walked_leaf_is_valid_with_its_carried_squares(initial, pairs, leaves):
    # leaves skip validate(); the full oracle and a recomputation of every
    # self-intersection, conjugate position and degree from the classes
    # must agree with what the state carried in its key
    count = 0
    for _, leaf in walk_schedules(RealizationState(initial, pairs)):
        cycle = leaf.cycle()
        assert cycle.validate() is cycle
        minus_k = cycle.lattice.anticanonical()
        classes = [cycle.classes[name] for name in cycle.order]
        _, squares, partners, _, _ = leaf.key
        assert squares == leaf.squares == tuple(c.self_intersection for c in classes)
        assert partners == tuple(
            cycle.order.index(cycle.conjugate_names[name]) for name in cycle.order
        )
        assert leaf.necklace().degrees == tuple(c.dot(minus_k) for c in classes)
        count += 1
    assert count == leaves


@pytest.mark.parametrize("initial, pairs, leaves, digest", [
    ("I", 4, 1266, "899a1e607be2727545dff6c05665d869b9b645ff46a7e502698ec1162d29449e"),
    ("II", 4, 214, "c5264946617ed571115dd078867a1c6a613f617c09a42f0cf90deedd00568a4a"),
    ("I", 5, 12374, "70229fc787c6ec79bc47d92e4412b4338a3a09134e6f204a58831958ce7373ca"),
    ("II", 5, 1667, "c9e38eb99d87cd369b8c66c738c31619baf2e703d7f9414e68279fe353336764"),
])
def test_the_walk_on_positions_hands_out_the_same_schedules(initial, pairs,
                                                            leaves, digest):
    # oracle: the digest of the schedules in walk order, pinned on the
    # engine that carried every component class through every step; the
    # test above checks each leaf's replayed cycle with the full validate()
    h, count = hashlib.sha256(), 0
    for schedule, leaf in walk_schedules(RealizationState(initial, pairs)):
        assert leaf.steps == schedule.steps
        for s in schedule.steps:
            h.update(f"{s.kind},{s.component},{s.components},{s.over_pair},"
                     f"{s.on_strict_transform};".encode())
        h.update(b"\n")
        count += 1
    assert (count, h.hexdigest()) == (leaves, digest)


def test_walk_leaves_a_deep_parent_untouched():
    parent = RealizationState("I", 4).extend(N(("F", "G"))).extend(S("G"))
    parent = parent.extend(INF(2, "G"))
    before = parent.cycle()
    first = [(s, leaf.cycle()) for s, leaf in walk_schedules(parent)]
    assert len(first) == len(parent.candidates())
    assert parent.cycle() == before
    assert [(s, leaf.cycle()) for s, leaf in walk_schedules(parent)] == first


def test_walk_of_a_complete_state_yields_it():
    schedule = BlowupSchedule("II", (S("C0"),) * 4)
    state = RealizationState("II", 4)
    for step in schedule.steps:
        state = state.extend(step)
    assert list(walk_schedules(state)) == [(schedule, state)]


# -- enumeration -----------------------------------------------------------------

def _walked_leaves():
    """``(schedule, leaf)`` for every n = 4 leaf of types I and II, then
    the nodes-first type III leaves, realized directly."""
    roots = [RealizationState(initial, 4) for initial in ("I", "II")]
    roots.append(RealizationState("III", 4).extend(N(("A", "Abar"))))
    for root in roots:
        yield from walk_schedules(root)


def test_necklace_is_read_off_the_leaf_cycle():
    # the enumerator classifies the Necklace read off a leaf's key; the
    # cycle replayed and validated on the classes must give the same one,
    # so classify reaches the same report or the same rejection on both
    for schedule, leaf in _walked_leaves():
        squares, partners = leaf.key[1:3]
        cycle = leaf.cycle()
        assert cycle.validate() is cycle
        assert squares == cycle.self_intersections()
        assert tuple(cycle.order[p] for p in partners) == tuple(
            map(cycle.conjugate_names.__getitem__, cycle.order)
        ), schedule
        necklace = leaf.necklace(TAU_ONE)
        assert type(necklace) is Necklace, schedule
        assert necklace == cycle.necklace(TAU_ONE), schedule


def test_a_leafs_necklace_fixes_its_shape_and_case():
    # the enumerator classifies only the first leaf of each (initial type,
    # necklace), so every leaf with that key must land on the same
    # (shape, case) key as that first leaf
    outcomes, leaves = {}, 0
    for schedule, leaf in _walked_leaves():
        fresh = classify_leaf(leaf)
        key = schedule.initial_type, leaf.key[1:3]
        outcome = _found_key(fresh)
        assert outcomes.setdefault(key, outcome) == outcome, schedule
        leaves += 1
    assert leaves == 1480 + 152
    assert Counter(initial for initial, _ in outcomes) == {
        "I": 73, "II": 51, "III": 43}


def test_enumeration_keeps_what_classifying_every_leaf_keeps(enumeration):
    found = {}
    roots = [RealizationState(initial, 4) for initial in ("I", "II")]
    for schedule, leaf in chain.from_iterable(map(walk_schedules, roots)):
        entry = classify_leaf(leaf)
        found.setdefault(_found_key(entry), entry)
    assert len(found) == len(enumeration.entries)
    for entry in enumeration.entries:
        every = found[_found_key(entry)]
        assert entry.schedule == every.schedule
        assert (entry.report, entry.error) == (every.report, every.error)


def test_enumeration_classifies_each_necklace_once(monkeypatch):
    calls = Counter()
    classify_, cycle = classify_module.classify, RealizationState.cycle
    extend, post_init = RealizationState.extend, BlowupSchedule.__post_init__
    divisor_init, replay = DivisorClass.__post_init__, RealizationState._replay

    def counting_classify(*args):
        calls["classify"] += 1
        return classify_(*args)

    def counting_cycle(self):
        calls["cycle"] += 1
        return cycle(self)

    def counting_divisor(self):
        calls["divisor"] += 1
        divisor_init(self)

    def counting_extend(self, step):
        child = extend(self, step)
        calls["extend"] += 1
        calls["leaf"] += len(child.steps) == child.lattice.pairs
        return child

    def counting_post_init(self):
        calls["schedule"] += 1
        post_init(self)

    def counting_replay(self):
        # a state replays its step once, checking that its pair is fresh
        calls["replayed step"] += self._classes is None
        return replay(self)

    monkeypatch.setattr(classify_module, "classify", counting_classify)
    monkeypatch.setattr(RealizationState, "cycle", counting_cycle)
    monkeypatch.setattr(RealizationState, "extend", counting_extend)
    monkeypatch.setattr(RealizationState, "_replay", counting_replay)
    monkeypatch.setattr(BlowupSchedule, "__post_init__", counting_post_init)
    monkeypatch.setattr(DivisorClass, "__post_init__", counting_divisor)
    result = enumerate_configurations()
    assert result.visited == 1480
    # 1,480 leaves, 124 distinct necklaces in cycle order; the skipped
    # subtrees save 707 of the 1,701 extends and 641 of the 1,480 leaf
    # states a plain walk builds.  Each classified leaf's necklace replays
    # the 180 steps on the paths to the 124 classified leaves as lists, so
    # no cycle and no divisor class is built, and a schedule is built only
    # for each of the 58 kept entries
    assert calls == Counter({"classify": 124, "extend": 994, "leaf": 839,
                             "schedule": 58, "replayed step": 180})
    assert calls["cycle"] == calls["divisor"] == 0


def test_a_schedule_document_realizes_with_no_divisor_class(monkeypatch):
    # model_from_document folds the steps into a state and reads the
    # necklace off its key: no cycle and no class, as in the enumerator;
    # the smooth variant alone builds (and validates) its cycle
    calls = Counter()
    cycle, divisor_init = RealizationState.cycle, DivisorClass.__post_init__

    def counting_cycle(self):
        calls["cycle"] += 1
        return cycle(self)

    def counting_divisor(self):
        calls["divisor"] += 1
        divisor_init(self)

    monkeypatch.setattr(RealizationState, "cycle", counting_cycle)
    monkeypatch.setattr(DivisorClass, "__post_init__", counting_divisor)
    schedules = Path(__file__).resolve().parents[1] / "schedules"
    for path in sorted(schedules.glob("*.json")):
        model = model_from_document(schema.load_document(path))
        assert type(model) is Necklace
        classify(model)
    nodes_first = schema.document_for(
        BlowupSchedule("III", (N(("A", "Abar")), S("A"), S("A"), S("A"))))
    classify(model_from_document(nodes_first))
    assert calls == Counter()
    model_from_document({"n": 4, "initial_type": "I", "steps": [],
                         "smooth_anticanonical": True})
    assert calls["cycle"] == 0 and calls["divisor"] > 0


def test_classify_takes_a_necklace_only():
    # a cycle is the class-level oracle, not a model: it is refused as
    # extend refuses a step that is not a BlowupStep
    cycle = realize_cycle(golden_case_a())
    for call in (classify, anticanonical_degrees, negative_curves):
        with pytest.raises(ScheduleError, match="must be a Necklace, got "
                                                "AnticanonicalCycle"):
            call(cycle)
    with pytest.raises(ScheduleError, match="must be a Necklace, got tuple"):
        classify(tuple(cycle.necklace()))
    assert classify(cycle.necklace()) == classify(model_from_schedule(golden_case_a()))


def test_a_necklace_carries_degrees_not_squares():
    # a rational component has degree C^2 + 2; the smooth variant, an
    # elliptic curve of class -K, has degree (-K)^2 = 8 - 2n
    smooth = smooth_anticanonical_cycle(4).necklace(TAU_ONE)
    assert smooth == Necklace(("C",), (0,), (0,), True, 1, 4)
    assert smooth == model_from_document({
        "n": 4, "initial_type": "I", "steps": [], "smooth_anticanonical": True,
        "torsion": {"kind": "finite", "order": 1}})
    assert smooth_anticanonical_cycle(3).necklace().degrees == (2,)
    state = RealizationState("II", 1).extend(S("C0"))
    assert state.necklace() == Necklace(("F", "C0"), (2, 4), (0, 1), False,
                                        None, 1)


def test_a_tampered_replay_trips_the_enumeration(monkeypatch):
    # the enumerator builds no cycle, but each classified necklace still
    # replays its path: a node exceptional E1 that also carries E3 meets
    # pair 2 before step 2 places it
    exceptional = SurfaceLattice._exceptional_coeffs
    monkeypatch.setattr(SurfaceLattice, "_exceptional_coeffs", lambda self, i: (
        tuple(map(operator.add, exceptional(self, 1), exceptional(self, 3)))
        if i == 1 else exceptional(self, i)))
    with pytest.raises(InvariantError) as info:
        enumerate_configurations()
    assert info.value.tag == "invariant-realization-fresh-pair"
    assert "already meet E3 or E4 before step 2" in str(info.value)


def _found_key(entry):
    case = entry.report.case if entry.report else f"error:{entry.error}"
    return entry.schedule.initial_type, entry.shape, case


@pytest.fixture(scope="module")
def enumeration():
    return enumerate_configurations()


def test_enumeration_exhausts_the_depth_four_space(enumeration):
    assert enumeration.exhausted
    assert enumeration.visited == 1480
    assert len(enumeration.entries) == 58


def test_enumeration_builds_documents_only_for_kept_entries(monkeypatch):
    calls = {"document_for": 0, "validate": 0}
    document_for, validate = schema.document_for, AnticanonicalCycle.validate

    def counting_document_for(*args, **kwargs):
        calls["document_for"] += 1
        return document_for(*args, **kwargs)

    def counting_validate(self):
        calls["validate"] += 1
        return validate(self)

    monkeypatch.setattr(schema, "document_for", counting_document_for)
    monkeypatch.setattr(AnticanonicalCycle, "validate", counting_validate)
    result = enumerate_configurations()
    assert result.visited == 1480
    assert calls == {"document_for": len(result.entries), "validate": 0}
    assert len(result.entries) == 58


def test_enumeration_case_census(enumeration):
    by_case = {}
    for entry in enumeration.entries:
        key = entry.report.case if entry.report else f"error:{entry.error}"
        by_case[key] = by_case.get(key, 0) + 1
    assert by_case == {
        CASE_NEF: 6,
        CASE_REAL_MINUS_2: 6,
        CASE_PAIR_MINUS_2: 9,
        CASE_PAIRS_MINUS_1: 8,
        "error:case-c-structure": 9,
        "error:degree-below-minus-2": 7,
        "error:negative-pattern": 13,
    }


def test_enumeration_is_deterministic(enumeration):
    again = enumerate_configurations()
    assert [e.digest for e in again.entries] == [
        e.digest for e in enumeration.entries
    ]
    assert [e.document for e in again.entries] == [
        e.document for e in enumeration.entries
    ]


def test_enumeration_entries_are_sorted_and_digested(enumeration):
    ranks = []
    order = {CASE_NEF: 0, CASE_REAL_MINUS_2: 1, CASE_PAIR_MINUS_2: 2,
             CASE_PAIRS_MINUS_1: 3}
    for entry in enumeration.entries:
        ranks.append(order[entry.report.case] if entry.report else 6)
        assert entry.digest == schema.document_digest(entry.document)
    assert ranks == sorted(ranks)


def test_enumeration_documents_reclassify_identically(enumeration):
    for entry in enumeration.entries:
        if entry.report is None:
            with pytest.raises(RealizabilityError) as info:
                classify(model_from_document(entry.document))
            assert info.value.tag == entry.error
        else:
            assert classify(model_from_document(entry.document)) == entry.report


def test_enumeration_reports_pass_the_consistency_oracle(enumeration):
    checked = 0
    for entry in enumeration.entries:
        if entry.report is not None:
            check_report(entry.report)
            checked += 1
    assert checked == 29


def test_enumeration_cap(enumeration):
    capped = enumerate_configurations(max_reports=10)
    assert not capped.exhausted
    assert len(capped.entries) == 10
    assert capped.visited < enumeration.visited
    with pytest.raises(ValueError):
        enumerate_configurations(max_reports=0)


def _interior_states(state):
    """``state`` and every interior state below it, parents first."""
    if len(state.steps) < state.lattice.pairs:
        yield state
        for step in state.candidates():
            yield from _interior_states(state.extend(step))


def _key_census(subtrees, key):
    """The number of distinct keys, and the number of states whose subtree
    differs from that of the first state with their key."""
    first, mismatches = {}, 0
    for state, subtree in subtrees:
        mismatches += first.setdefault(key(state), subtree) != subtree
    return len(first), mismatches


def test_a_states_positional_key_fixes_its_subtree():
    # the enumerator skips a subtree whose root's key it has met, so every
    # state with that key must have the same leaf count and leaf necklaces
    subtrees = []
    for initial in ("I", "II"):
        for state in _interior_states(RealizationState(initial, 4)):
            necklaces = [leaf.key[1:3]
                         for _, leaf in walk_schedules(state)]
            subtrees.append((state, (len(necklaces), frozenset(necklaces))))
    assert len(subtrees) == 223
    assert _key_census(subtrees, lambda state: state.key) == (156, 0)
    # each field has teeth: a key without ``consumed``, or the (initial
    # type, necklace) alone, merges subtrees that differ
    assert _key_census(subtrees, lambda state: state.key[:4]) == (124, 39)
    assert _key_census(subtrees, lambda state: state.key[:3]) == (58, 39)


@pytest.fixture(scope="module")
def plain_walk():
    """The walk without subtree skips: for each leaf in depth-first order,
    the number of entries kept before it, and the kept entries in the order
    they were found.  The first leaf of each (initial type, necklace) is
    classified, as in the enumerator."""
    kept_before, found, seen = [], {}, set()
    roots = [RealizationState(initial, 4) for initial in ("I", "II")]
    for schedule, leaf in chain.from_iterable(map(walk_schedules, roots)):
        kept_before.append(len(found))
        necklace = schedule.initial_type, leaf.key[1:3]
        if necklace not in seen:
            seen.add(necklace)
            entry = classify_leaf(leaf)
            found.setdefault(_found_key(entry), entry)
    return kept_before, list(found.values())


@pytest.mark.parametrize("cap", [*range(1, 59), None])
def test_capped_walks_keep_the_full_runs_representatives(plain_walk, cap):
    kept_before, found = plain_walk
    # the plain walk stops at the first leaf met with ``cap`` entries kept
    stop = next((i for i, kept in enumerate(kept_before)
                 if cap is not None and kept >= cap), len(kept_before))
    result = enumerate_configurations(max_reports=cap)
    assert (result.visited, result.exhausted) == (stop, stop == len(kept_before))
    expected = sorted(found[:cap], key=classify_module._entry_sort_key)
    assert [(e.digest, e.report, e.error) for e in result.entries] == [
        (e.digest, e.report, e.error) for e in expected]


def test_a_skipped_subtree_counts_its_leaves_unless_the_cap_is_met():
    state = RealizationState("I", 4).extend(S("F"))
    walk = classify_module._Walk(max_reports=1)
    walk.below[state.key] = 7
    assert walk.visit(state) == 7
    assert walk.visited == 7
    # with the cap met, the plain walk stops at the subtree's first leaf
    walk.found["kept"] = None
    with pytest.raises(classify_module._CapReached):
        walk.visit(state)
    assert walk.visited == 7


def test_enumeration_leaves_no_cyclic_garbage():
    # a walk's dicts must be freed when it returns, not left for the
    # cyclic collector, or they pile up between collections
    gc.collect()
    gc.disable()
    try:
        enumerate_configurations()
        enumerate_configurations(max_reports=10)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_distinct_degree_one_counts(enumeration):
    counts = sorted(
        entry.report.degree_one_count
        for entry in enumeration.entries
        if entry.report and entry.report.case == CASE_PAIRS_MINUS_1
    )
    # every even cycle length from 4 to 12 occurs among the kept shapes
    assert set(counts) == {4, 6, 8, 10, 12}
