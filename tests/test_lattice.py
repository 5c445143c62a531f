"""Picard lattice, blow-up schedules, and anticanonical-cycle realization."""

import ast
import hashlib
import inspect
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from twistor4.lattice import (
    AnticanonicalCycle,
    BlowupSchedule,
    BlowupStep,
    DivisorClass,
    Necklace,
    RealizationState,
    SurfaceLattice,
    adjunction_genus,
    anticanonical_class,
    elementary_transform,
    real_involution,
    realize_cycle,
    smooth_anticanonical_cycle,
)
from twistor4 import schema
from twistor4.linalg import bareiss_determinant
from twistor4.classify import model_from_document
from twistor4.errors import (
    InvariantError,
    RealizabilityError,
    ScheduleError,
    TwistorError,
)


def _random_class(lattice, rng, bound=5):
    coeffs = [rng.randint(-bound, bound) for _ in range(lattice.rank)]
    return lattice.divisor(coeffs[0], coeffs[1], tuple(coeffs[2:]))


# -- lattice basics ----------------------------------------------------------

@pytest.mark.parametrize("pairs", range(0, 6))
def test_gram_matrix_is_unimodular_odd_lorentzian(pairs):
    lattice = SurfaceLattice(pairs)
    rank = lattice.rank
    # l.f = 1, l^2 = f^2 = 0, E_i^2 = -1, all other products 0
    gram = [[1 if {i, j} == {0, 1} else -1 if i == j > 1 else 0
             for j in range(rank)] for i in range(rank)]
    assert len(gram) == lattice.rank == 2 * pairs + 2
    # hyperbolic plane (det -1) plus 2*pairs copies of <-1>
    assert bareiss_determinant(gram) == -((-1) ** (2 * pairs))
    # gram agrees with the dot product on basis classes
    basis = [lattice.line(), lattice.fibre()] + [
        lattice.exceptional(i) for i in range(1, 2 * pairs + 1)
    ]
    for i, di in enumerate(basis):
        for j, dj in enumerate(basis):
            assert di.dot(dj) == gram[i][j]


def test_basis_intersection_numbers():
    lattice = SurfaceLattice(4)
    l, f = lattice.line(), lattice.fibre()
    assert l.dot(f) == 1
    assert l.self_intersection == 0
    assert f.self_intersection == 0
    for i in range(1, 9):
        ei = lattice.exceptional(i)
        assert ei.self_intersection == -1
        assert ei.dot(l) == 0 and ei.dot(f) == 0
        for j in range(i + 1, 9):
            assert ei.dot(lattice.exceptional(j)) == 0


def test_exceptional_index_bounds():
    lattice = SurfaceLattice(2)
    with pytest.raises(ValueError):
        lattice.exceptional(0)
    with pytest.raises(ValueError):
        lattice.exceptional(5)
    with pytest.raises(ValueError):
        SurfaceLattice(-1)


@pytest.mark.parametrize("pairs", range(0, 7))
def test_anticanonical_square(pairs):
    lattice = SurfaceLattice(pairs)
    minus_k = anticanonical_class(lattice)
    assert minus_k.coeffs == lattice.anticanonical().coeffs
    assert minus_k.self_intersection == 8 - 2 * pairs
    assert adjunction_genus(minus_k) == 1


def test_divisor_str_names_generators():
    lattice = SurfaceLattice(2)
    d = lattice.divisor(2, 1, (-1, 0, 3, 0))
    text = str(d)
    assert "l" in text and "f" in text and "E1" in text and "E3" in text
    assert "E2" not in text and "E4" not in text
    assert str(lattice.zero()) == "0"


def test_mixed_lattice_dot_rejected():
    d = SurfaceLattice(2).line()
    e = SurfaceLattice(3).line()
    with pytest.raises(ValueError):
        d.dot(e)


_TWO, _THREE = SurfaceLattice(2), SurfaceLattice(3)


@pytest.mark.parametrize("build, message", [
    (lambda: _TWO.exceptional(0), "E0 does not exist"),
    (lambda: _TWO.exceptional(5), "E5 does not exist"),
    (lambda: _TWO.divisor(1, 0, (0,) * 5), "more multiplicities"),
    (lambda: SurfaceLattice(-1), "pairs must be non-negative"),
    (lambda: DivisorClass(_TWO, (1, 0, 0)), "class needs 6 coefficients"),
    (lambda: _TWO.line().dot(_THREE.line()), "different lattices"),
])
def test_lattice_input_errors_are_schedule_errors(build, message):
    with pytest.raises(ScheduleError, match=message):
        build()


# -- involution and adjunction ----------------------------------------------

def test_involution_swaps_conjugate_exceptionals():
    lattice = SurfaceLattice(3)
    for i in range(1, 7):
        j = i + 1 if i % 2 == 1 else i - 1
        assert real_involution(lattice.exceptional(i)).coeffs == (
            lattice.exceptional(j).coeffs
        )
    assert real_involution(lattice.line()).coeffs == lattice.line().coeffs
    assert real_involution(lattice.fibre()).coeffs == lattice.fibre().coeffs


def test_involution_is_an_isometry():
    rng = random.Random(417)
    lattice = SurfaceLattice(4)
    for _ in range(200):
        d = _random_class(lattice, rng)
        e = _random_class(lattice, rng)
        assert real_involution(d).dot(real_involution(e)) == d.dot(e)
        assert real_involution(real_involution(d)).coeffs == d.coeffs


def test_involution_fixes_anticanonical():
    for pairs in range(0, 5):
        minus_k = anticanonical_class(SurfaceLattice(pairs))
        assert real_involution(minus_k).coeffs == minus_k.coeffs


def test_adjunction_values_and_parity():
    lattice = SurfaceLattice(4)
    assert adjunction_genus(lattice.line()) == 0
    assert adjunction_genus(lattice.fibre()) == 0
    assert adjunction_genus(lattice.exceptional(1)) == 0
    # a (2,2)-curve missing the eight points has genus 1; a (3,3)-curve 4
    assert adjunction_genus(lattice.divisor(2, 2)) == 1
    assert adjunction_genus(lattice.divisor(3, 3)) == 4
    # d.(d + K) is even for every integral class, so the genus is integral
    rng = random.Random(902)
    for _ in range(300):
        d = _random_class(lattice, rng)
        num = d.self_intersection - d.dot(lattice.anticanonical())
        assert num % 2 == 0
        adjunction_genus(d)  # must not raise


def test_adjunction_tripwire_is_a_tagged_invariant(monkeypatch):
    # unreachable on this lattice, so fake an odd square to trip it
    monkeypatch.setattr(DivisorClass, "self_intersection", property(lambda d: 1))
    with pytest.raises(InvariantError) as info:
        adjunction_genus(SurfaceLattice(1).zero())
    assert info.value.tag == "invariant-adjunction-integral"


# -- step and schedule validation --------------------------------------------

def test_step_constructors_validate():
    assert BlowupStep.smooth("C0").kind == "smooth"
    assert BlowupStep.node(("F", "G")).components == ("F", "G")
    assert BlowupStep.infinitely_near(2).over_pair == 2
    assert BlowupStep.infinitely_near(2, "F").on_strict_transform == "F"
    with pytest.raises(ScheduleError):
        BlowupStep.smooth(None)
    with pytest.raises(ScheduleError):
        BlowupStep.node(("F",))
    with pytest.raises(ScheduleError):
        BlowupStep.node(("F", "F"))
    with pytest.raises(ScheduleError):
        BlowupStep.infinitely_near(0)
    with pytest.raises(ScheduleError):
        BlowupStep.infinitely_near(True)
    with pytest.raises(ScheduleError, match="carries only component, not over_pair"):
        BlowupStep("smooth", component="F", over_pair=1)
    with pytest.raises(ScheduleError, match="carries only components, not component"):
        BlowupStep("node", components=("F", "G"), component="F")
    with pytest.raises(ScheduleError, match="not components"):
        BlowupStep("infinitely_near", over_pair=1, components=("F", "G"))
    with pytest.raises(ScheduleError):
        BlowupStep("teleport", component="F")
    with pytest.raises(ScheduleError, match="unknown step kind"):
        BlowupStep(["smooth"], component="F")


@pytest.mark.parametrize("components", ["FG", "F", "FGH", {"F", "G"}, None])
def test_node_step_needs_a_tuple_or_list_of_two_ids(components):
    # a string is not split into characters
    with pytest.raises(ScheduleError, match="two distinct component ids"):
        BlowupStep.node(components)
    with pytest.raises(ScheduleError, match="two distinct component ids"):
        BlowupStep("node", components=components)


def test_a_replaced_step_is_checked_like_a_new_one():
    step = BlowupStep.smooth("G")
    with pytest.raises(ScheduleError, match="unknown step kind 'bogus'"):
        step._replace(kind="bogus")
    with pytest.raises(ScheduleError, match="carries only component, not over_pair"):
        step._replace(over_pair=1)
    with pytest.raises(ScheduleError, match="node step needs two distinct"):
        step._replace(kind="node")
    with pytest.raises(ValueError, match="unexpected field names"):
        step._replace(colour="red")
    moved = step._replace(component="F")
    assert type(moved) is BlowupStep and moved == BlowupStep.smooth("F")
    node = BlowupStep.node(("F", "G"))._replace(components=["F", "Gbar"])
    assert node.components == ("F", "Gbar")  # a list is stored as a tuple
    root = RealizationState("I", 1)
    assert root.extend(node).key == root.extend(BlowupStep.node(("F", "Gbar"))).key


def test_a_step_made_from_an_iterable_is_checked_like_a_new_one():
    with pytest.raises(ScheduleError, match="unknown step kind 'bogus'"):
        BlowupStep._make(("bogus", "G", None, None, None))
    with pytest.raises(ScheduleError, match="carries only component, not over_pair"):
        BlowupStep._make(("smooth", "G", None, 1, None))
    made = BlowupStep._make(["node", None, ["F", "G"], None, None])
    assert type(made) is BlowupStep and made == BlowupStep.node(("F", "G"))


def test_node_step_accepts_a_list_and_stores_a_tuple():
    step = BlowupStep("node", components=["F", "G"])
    assert step.components == ("F", "G")
    assert step == ("node", None, ("F", "G"), None, None)  # a tuple of its fields
    assert step == BlowupStep.node(["F", "G"]) == BlowupStep.node(("F", "G"))


def test_schedule_validation():
    ok = BlowupSchedule(
        "I", (BlowupStep.smooth("F"), BlowupStep.infinitely_near(1)),
    )
    assert ok.pairs == 2
    with pytest.raises(ScheduleError):
        BlowupSchedule("IV", (BlowupStep.smooth("F"),))
    with pytest.raises(ScheduleError):
        # infinitely-near reference must point strictly earlier
        BlowupSchedule("I", (BlowupStep.infinitely_near(1),))
    with pytest.raises(ScheduleError):
        BlowupSchedule(
            "I", (BlowupStep.smooth("F"), BlowupStep.infinitely_near(2)),
        )
    with pytest.raises(ScheduleError):
        BlowupSchedule("I", (BlowupStep.smooth("F"), "smooth G"))


# -- realization: golden configurations --------------------------------------

def test_realize_case_a_golden():
    schedule = BlowupSchedule("II", (BlowupStep.smooth("C0"),) * 4)
    cycle = realize_cycle(schedule)
    assert cycle.order == ("F", "C0")
    assert cycle.classes["F"].coeffs == (0, 1) + (0,) * 8
    assert cycle.classes["C0"].coeffs == (2, 1) + (-1,) * 8
    assert cycle.self_intersections() == (0, -4)
    assert cycle.degrees() == (2, -2)
    assert cycle.conjugate_names["F"] == "F" and cycle.conjugate_names["C0"] == "C0"


def test_realize_case_b_golden():
    schedule = BlowupSchedule("I", (BlowupStep.smooth("G"),) * 4)
    cycle = realize_cycle(schedule)
    assert cycle.order == ("F", "G", "Fbar", "Gbar")
    g = cycle.classes["G"]
    gbar = cycle.classes["Gbar"]
    assert g.coeffs == (1, 0, -1, 0, -1, 0, -1, 0, -1, 0)
    assert gbar.coeffs == (1, 0, 0, -1, 0, -1, 0, -1, 0, -1)
    assert g.self_intersection == -4
    assert g.dot(gbar) == 0
    assert cycle.degrees() == (2, -2, 2, -2)
    assert cycle.conjugate_names["G"] == "Gbar"


def test_realize_case_c_golden():
    schedule = BlowupSchedule(
        "I",
        (
            BlowupStep.node(("F", "G")),
            BlowupStep.node(("F", "E1")),
            BlowupStep.smooth("G"),
            BlowupStep.smooth("G"),
        ),
    )
    cycle = realize_cycle(schedule)
    assert cycle.order == ("F", "E3", "E1", "G", "Fbar", "E4", "E2", "Gbar")
    assert cycle.self_intersections() == (-2, -1, -2, -3, -2, -1, -2, -3)
    assert cycle.degrees() == (0, 1, 0, -1, 0, 1, 0, -1)
    assert not any(cycle.conjugate_names[name] == name for name in cycle.order)


def test_realize_nef_golden_all_degrees_zero():
    schedule = BlowupSchedule(
        "I",
        (
            BlowupStep.smooth("F"),
            BlowupStep.smooth("F"),
            BlowupStep.smooth("G"),
            BlowupStep.smooth("G"),
        ),
    )
    cycle = realize_cycle(schedule)
    assert cycle.degrees() == (0, 0, 0, 0)
    assert cycle.self_intersections() == (-2, -2, -2, -2)


def test_realize_single_node_hexagon():
    # one conjugate node pair on the four-component cycle: a hexagon of
    # (-1)-curves, each of degree 1
    schedule = BlowupSchedule("I", (BlowupStep.node(("F", "G")),))
    cycle = realize_cycle(schedule)
    assert cycle.order == ("F", "E1", "G", "Fbar", "E2", "Gbar")
    assert cycle.self_intersections() == (-1,) * 6
    assert cycle.degrees() == (1,) * 6
    assert sum(cycle.degrees()) == 8 - 2 * 1


def test_realize_type_iii_direct():
    schedule = BlowupSchedule(
        "III",
        (
            BlowupStep.node(("A", "Abar")),
            BlowupStep.smooth("A"),
            BlowupStep.smooth("A"),
            BlowupStep.smooth("A"),
        ),
    )
    cycle = realize_cycle(schedule)
    assert cycle.order == ("A", "E1", "Abar", "E2")
    assert cycle.self_intersections() == (-3, -1, -3, -1)
    assert cycle.conjugate_names["E1"] == "E2"


def test_realize_type_ii_node_uses_both_exceptionals():
    # the two nodes F.C0 are a conjugate pair: one step blows both, so each
    # original component loses two exceptionals
    schedule = BlowupSchedule("II", (BlowupStep.node(("F", "C0")),))
    cycle = realize_cycle(schedule)
    assert cycle.order == ("F", "E1", "C0", "E2")
    assert cycle.classes["F"].coeffs == (0, 1, -1, -1)
    assert cycle.classes["C0"].coeffs == (2, 1, -1, -1)
    assert cycle.self_intersections() == (-2, -1, 2, -1)


def test_realized_cycles_satisfy_the_invariant_oracle():
    # realize_cycle already validates; re-validate and also check totals
    rng = random.Random(5309)
    schedules = [
        BlowupSchedule("II", (BlowupStep.smooth("C0"),) * 4),
        BlowupSchedule("I", (BlowupStep.smooth("G"),) * 4),
        BlowupSchedule(
            "I",
            (
                BlowupStep.node(("F", "G")),
                BlowupStep.node(("F", "E1")),
                BlowupStep.smooth("G"),
                BlowupStep.smooth("G"),
            ),
        ),
        BlowupSchedule(
            "III",
            (
                BlowupStep.node(("A", "Abar")),
                BlowupStep.infinitely_near(1),
                BlowupStep.smooth("A"),
                BlowupStep.smooth("A"),
            ),
        ),
    ]
    for schedule in schedules:
        cycle = realize_cycle(schedule)
        cycle.validate()
        minus_k = cycle.lattice.anticanonical()
        assert sum(cycle.degrees()) == minus_k.self_intersection
        # genus-0 components: degree = self-intersection + 2
        for name in cycle.order:
            c = cycle.classes[name]
            assert c.dot(minus_k) == c.self_intersection + 2
        _ = rng  # seeded loop reserved for future fuzzing of schedules


def test_validate_rejects_tampered_cycle():
    cycle = realize_cycle(BlowupSchedule("I", (BlowupStep.smooth("G"),) * 4))
    broken = AnticanonicalCycle(
        lattice=cycle.lattice,
        order=cycle.order,
        classes={**cycle.classes, "G": cycle.lattice.line()},
        conjugate_names=dict(cycle.conjugate_names),
    )
    with pytest.raises(ScheduleError):
        broken.validate()


# Tampered versions of the 4-cycle F, G, Fbar, Gbar after four smooth
# points on G (F = Fbar = f, G = l - E1 - E3 - E5 - E7, Gbar its
# conjugate); classes are given as coefficient tuples (l, f, E1..E8).
_L, _F = (1, 0) + (0,) * 8, (0, 1) + (0,) * 8


def _classes(**coeffs):
    return lambda cycle: {
        "classes": {
            **cycle.classes,
            **{name: DivisorClass(cycle.lattice, c) for name, c in coeffs.items()},
        }
    }


_TAMPERED = {
    "sum-is-not-minus-K": (_classes(G=_L), ScheduleError, "sum to"),
    "class-is-not-its-partners-conjugate": (
        # E1 moves from G to F: the sum is kept, conj(F) = f - E2 != Fbar
        _classes(F=(0, 1, -1) + (0,) * 7, G=(1, 0, 0, 0, -1, 0, -1, 0, -1, 0)),
        ScheduleError,
        "class of Fbar must be the conjugate of F",
    ),
    "conjugation-is-not-an-involution": (
        lambda cycle: {"conjugate_names": {"F": "Fbar", "Fbar": "G", "G": "Gbar",
                                           "Gbar": "F"}},
        ScheduleError,
        "involution",
    ),
    "arithmetic-genus-is-not-0": (
        # 2f has genus -1; G and Gbar give up an f each to keep the sum
        _classes(
            F=(0, 2) + (0,) * 8,
            Fbar=(0, 2) + (0,) * 8,
            G=(1, -1, -1, 0, -1, 0, -1, 0, -1, 0),
            Gbar=(1, -1, 0, -1, 0, -1, 0, -1, 0, -1),
        ),
        ScheduleError,
        "component F must have arithmetic genus 0",
    ),
    "adjacent-product-is-wrong": (
        lambda cycle: {"order": ("F", "Fbar", "G", "Gbar")},
        ScheduleError,
        r"F\.Fbar = 0, expected 1",
    ),
    "non-adjacent-product-is-nonzero": (
        lambda cycle: {"order": ("F", "G", "Gbar", "Fbar")},
        ScheduleError,
        r"F\.Gbar = 1, expected 0",
    ),
    "conjugation-leaves-the-components": (
        lambda cycle: {"conjugate_names": {**cycle.conjugate_names, "F": "X"}},
        ScheduleError,
        "conjugation must map components to components",
    ),
    # swapping F and G sends the edge G-Fbar to F-Fbar, which is not an
    # edge.  The conjugate-class check rejects it: once classes follow the
    # involution (an isometry) and the products match the adjacency, every
    # conjugation preserves it, so validate has no adjacency check of its own.
    "conjugation-breaks-adjacency": (
        lambda cycle: {"conjugate_names": {"F": "G", "G": "F", "Fbar": "Fbar",
                                           "Gbar": "Gbar"}},
        ScheduleError,
        "class of G must be the conjugate of F",
    ),
    "classes-from-another-lattice": (
        lambda cycle: {"classes": {**cycle.classes,
                                   "F": SurfaceLattice(3).fibre()}},
        ScheduleError,
        "different lattices",
    ),
}


@pytest.mark.parametrize("tamper, error, message", list(_TAMPERED.values()),
                         ids=list(_TAMPERED))
def test_validate_rejects_each_kind_of_tampering(tamper, error, message):
    cycle = realize_cycle(BlowupSchedule("I", (BlowupStep.smooth("G"),) * 4))
    assert cycle.classes["G"].coeffs == (1, 0, -1, 0, -1, 0, -1, 0, -1, 0)
    broken = cycle._replace(**tamper(cycle))
    with pytest.raises(error, match=message):
        broken.validate()


def test_anticanonical_class_lives_on_its_own_lattice():
    # an equal lattice asked first must not lend its class: the class of
    # each lattice takes dot's identity fast path and keeps no other alive
    first, second = SurfaceLattice(4), SurfaceLattice(4)
    assert first.anticanonical().lattice is first
    assert second.anticanonical().lattice is second


def test_anticanonical_square_is_checked(monkeypatch):
    monkeypatch.setattr(SurfaceLattice, "anticanonical",
                        lambda self: self.divisor(2, 2))
    with pytest.raises(InvariantError) as info:
        anticanonical_class(SurfaceLattice(1))
    assert info.value.tag == "invariant-anticanonical-square"


def test_cycle_validation_survives_python_O():
    # a tampered cycle and a replay whose next pair is not fresh are refused
    # with the same errors when asserts are stripped
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = (
        "from twistor4.errors import InvariantError, ScheduleError\n"
        "from twistor4.lattice import BlowupSchedule, BlowupStep, realize_cycle\n"
        "assert False, 'asserts are on'\n"
        "cycle = realize_cycle(BlowupSchedule('I', (BlowupStep.smooth('G'),) * 4))\n"
        "try:\n"
        "    cycle._replace(order=('F', 'Fbar', 'G', 'Gbar')).validate()\n"
        "except ScheduleError as exc:\n"
        "    print(exc)\n"
        "from operator import add\n"
        "from twistor4.lattice import SurfaceLattice\n"
        "exceptional = SurfaceLattice._exceptional_coeffs\n"
        "SurfaceLattice._exceptional_coeffs = lambda self, i: (\n"
        "    tuple(map(add, exceptional(self, 1), exceptional(self, 3)))\n"
        "    if i == 1 else exceptional(self, i))\n"
        "steps = (BlowupStep.node(('F', 'G')), BlowupStep.smooth('G'))\n"
        "try:\n"
        "    realize_cycle(BlowupSchedule('I', steps))\n"
        "except InvariantError as exc:\n"
        "    print(exc.tag)\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", script],
                            capture_output=True, env=env, check=True)
    assert result.stdout == (
        b"F.Fbar = 0, expected 1\ninvariant-realization-fresh-pair\n"
    )


def test_smooth_anticanonical_cycle():
    cycle = smooth_anticanonical_cycle(4)
    assert cycle.smooth_variant
    assert cycle.m == 1
    assert cycle.classes["C"].coeffs == (2, 2) + (-1,) * 8
    assert cycle.self_intersections() == (0,)
    assert adjunction_genus(cycle.classes["C"]) == 1


# -- realization: the incremental state ----------------------------------------

def _realized(state):
    """The cycle of a state's steps, on the pairs placed so far."""
    return realize_cycle(BlowupSchedule(state.initial_type, state.steps))


def test_realization_state_holds_no_class_route():
    # a state is positions only: the classes live in realize_cycle alone
    body = ast.parse(inspect.getsource(RealizationState))
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
    route = {"SurfaceLattice", "DivisorClass", "AnticanonicalCycle",
             "_exceptional_coeffs"}
    assert named & route == set()
    assert not {"_classes", "cycle", "_replay"} & set(dir(RealizationState))


def test_realization_state_extend_leaves_the_parent_untouched():
    parent = RealizationState("I", 2)
    key = parent.key
    child = parent.extend(BlowupStep.node(("F", "G")))
    assert parent.steps == () and child.steps == (BlowupStep.node(("F", "G")),)
    assert parent.order == ("F", "G", "Fbar", "Gbar") and parent.key == key
    assert child.order == ("F", "E1", "G", "Fbar", "E2", "Gbar")
    # classes exist only in a replayed cycle, on the pairs placed so far
    assert _realized(parent).classes["F"] == SurfaceLattice(0).fibre()
    grandchild = child.extend(BlowupStep.smooth("E1"))
    assert "E1" not in _realized(parent).classes
    assert _realized(child).classes["E1"] == SurfaceLattice(1).exceptional(1)
    assert _realized(grandchild).lattice == SurfaceLattice(2)


def test_realization_state_cycle_of_a_prefix():
    state = RealizationState("I", 4)
    steps = (BlowupStep.smooth("G"), BlowupStep.infinitely_near(1, "G"))
    for step in steps:
        state = state.extend(step)
    cycle = _realized(state)
    assert cycle.lattice == SurfaceLattice(2)
    assert cycle == realize_cycle(BlowupSchedule("I", steps))
    assert _realized(RealizationState("III", 0)).order == ("A", "Abar")


def test_realization_state_candidates_one_per_orbit():
    S, N = BlowupStep.smooth, BlowupStep.node

    def candidates(state):
        moves = state.candidates()
        # a candidate is a checked step already: rebuilding it changes nothing
        assert all(type(move) is BlowupStep for move in moves)
        assert [BlowupStep(*move) for move in moves] == moves
        return moves

    assert candidates(RealizationState("I", 1)) == [
        S("F"), S("G"), N(("F", "G")), N(("F", "Gbar")),
    ]
    # smooth points of the real fibre F are never offered
    assert candidates(RealizationState("II", 1)) == [S("C0"), N(("F", "C0"))]
    assert candidates(RealizationState("III", 1)) == [
        S("A"), N(("A", "Abar")),
    ]
    state = RealizationState("I", 3).extend(S("G"))
    assert candidates(state)[-1] == BlowupStep.infinitely_near(1, "G")
    consumed = state.extend(BlowupStep.infinitely_near(1, "G"))
    assert BlowupStep.infinitely_near(1, "G") not in candidates(consumed)
    assert BlowupStep.infinitely_near(2, "G") in candidates(consumed)


def test_realization_state_carries_self_intersections():
    state = RealizationState("II", 2)
    assert state.squares == _realized(state).self_intersections() == (0, 4)
    state = state.extend(BlowupStep.node(("F", "C0")))
    # each original component loses both new exceptionals: -2 apiece
    assert dict(zip(state.order, state.squares)) == {
        "F": -2, "C0": 2, "E1": -1, "E2": -1}
    state = state.extend(BlowupStep.smooth("C0"))
    cycle = _realized(state)
    assert state.squares == cycle.self_intersections() == (-2, -1, 0, -1)
    assert cycle.degrees() == (0, 1, 2, 1)
    assert cycle.validate() is cycle


def test_replay_refuses_a_pair_that_is_not_fresh(monkeypatch):
    # a lattice whose E1 also carries E3: the node exceptional E1 of pair 1
    # meets pair 2 before step 2 places it
    exceptional = SurfaceLattice._exceptional_coeffs
    monkeypatch.setattr(SurfaceLattice, "_exceptional_coeffs", lambda self, i: (
        tuple(map(operator.add, exceptional(self, 1), exceptional(self, 3)))
        if i == 1 else exceptional(self, i)))
    state = RealizationState("I", 2).extend(BlowupStep.node(("F", "G")))
    state = state.extend(BlowupStep.smooth("G"))  # positions only: no check
    stale = r"\['E1'\] already meet E3 or E4 before step 2"
    with pytest.raises(InvariantError, match=stale) as info:
        _realized(state)
    assert info.value.tag == "invariant-realization-fresh-pair"


def test_node_step_needs_the_conjugate_edge():
    state = RealizationState("I", 1)
    # F's conjugate is Fbar and G's is F: F-G's conjugate Fbar-F is no edge
    state.key = (*state.key[:2], (2, 0, 0, 1), *state.key[3:])
    with pytest.raises(InvariantError) as info:
        state.extend(BlowupStep.node(("F", "G")))
    assert info.value.tag == "invariant-realization-conjugate-edge"


def test_realization_state_rejections():
    with pytest.raises(ScheduleError, match="initial_type"):
        RealizationState("IV", 4)
    full = RealizationState("I", 1).extend(BlowupStep.smooth("G"))
    with pytest.raises(ScheduleError, match="step 2 exceeds the 1 pairs"):
        full.extend(BlowupStep.smooth("G"))
    with pytest.raises(ScheduleError, match="not strictly earlier"):
        RealizationState("I", 2).extend(BlowupStep.infinitely_near(1))
    with pytest.raises(RealizabilityError) as info:
        RealizationState("II", 1).extend(BlowupStep.smooth("F"))
    assert info.value.tag == "real-fibre-location"
    # extend takes a BlowupStep only: a plain tuple of its fields is refused
    for fields in (("node", None, "FG", None, None),
                   ("bogus", None, None, None, None)):
        with pytest.raises(ScheduleError, match="must be a BlowupStep"):
            RealizationState("I", 4).extend(fields)


# -- realization: rejection paths --------------------------------------------

_ROOT_NAMES = {"I": ("F", "G", "Fbar", "Gbar"), "II": ("F", "C0"),
               "III": ("A", "Abar")}


def _random_step_document(rng, k, names):
    roll = rng.random()
    if roll < 0.4:
        return {"kind": "smooth", "component": rng.choice(names)}
    if roll < 0.7:
        return {"kind": "node", "components": rng.sample(names, 2)}
    if roll < 0.98:
        over = rng.randint(1, k - 1) if k > 1 and rng.random() < 0.9 else k
        step = {"kind": "infinitely_near", "over_pair": over}
        if rng.random() < 0.85:
            step["on_strict_transform"] = rng.choice(names)
        return step
    return {"kind": "teleport", "component": names[0]}


def _random_schedule_document(rng):
    """A 1-4 step document naming components that exist, may exist or do
    not; about a quarter realize, the rest hit every rejection path."""
    initial = rng.choice(("I", "II", "III"))
    steps = []
    for k in range(1, rng.randint(1, 4) + 1):
        names = _ROOT_NAMES[initial] + tuple(f"E{i}" for i in range(1, 2 * k - 1))
        if rng.random() < 0.05:
            names += ("X",)
        steps.append(_random_step_document(rng, k, names))
    n = len(steps) if rng.random() < 0.97 else len(steps) + 1
    return {"n": n, "initial_type": initial, "steps": steps}


def _seeded_schedule_documents():
    rng = random.Random(20261018)
    return [_random_schedule_document(rng) for _ in range(2000)]


def _realized_cycle(doc):
    """The cycle of a document's schedule, which realizes through the
    elementary transform when it blows the type III nodes first."""
    schedule = schema.parse_document(doc).schedule
    steps = schedule.steps
    if schedule.initial_type == "III" and steps and steps[0].kind == "node":
        schedule = elementary_transform(schedule)
    return realize_cycle(schedule)


def _outcome(call, doc):
    """``call(doc)``, or the type, tag and message of the error it raises."""
    try:
        return call(doc)
    except TwistorError as exc:
        return type(exc).__name__, getattr(exc, "tag", None), str(exc)


def test_realization_outcomes_match_the_class_carrying_engine():
    # error parity: 2,000 seeded documents realize to the same cycles, or
    # fail with the same exception type, tag and message, as under the
    # engine that carried every class through every step (digest pinned
    # on that engine: 471 cycles, 181 realizability and 1,348 schedule
    # errors)
    outcomes = []
    for doc in _seeded_schedule_documents():
        cycle = _outcome(_realized_cycle, doc)
        if type(cycle) is tuple:
            outcomes.append(cycle)
            continue
        outcomes.append((cycle.order,
                         sorted((n, c.coeffs) for n, c in cycle.classes.items()),
                         sorted(cycle.conjugate_names.items()),
                         cycle.self_intersections()))
    assert sum(isinstance(o[0], tuple) for o in outcomes) == 471
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == (
        "48d8c2bfcc2d4f0162f1361e51663587ffcb1c3c8bb2844df9bf557e3df03226")


def test_a_documents_model_is_its_realized_cycles_necklace():
    # the same 2,000 documents: the necklace that model_from_document reads
    # off the walk state is the one of the cycle realized on the classes,
    # and both routes fail alike
    models = 0
    for doc in _seeded_schedule_documents():
        model = _outcome(model_from_document, doc)
        assert model == _outcome(lambda d: _realized_cycle(d).necklace(), doc)
        models += type(model) is Necklace
    assert models == 471

def test_smooth_point_on_real_fibre_is_unrealizable():
    schedule = BlowupSchedule("II", (BlowupStep.smooth("F"),))
    with pytest.raises(RealizabilityError) as info:
        realize_cycle(schedule)
    assert info.value.tag == "real-fibre-location"


def test_generic_point_of_smooth_step_exceptional_is_unrealizable():
    schedule = BlowupSchedule(
        "I", (BlowupStep.smooth("G"), BlowupStep.infinitely_near(1)),
    )
    with pytest.raises(RealizabilityError) as info:
        realize_cycle(schedule)
    assert info.value.tag == "point-off-anticanonical-cycle"


def test_unknown_component_rejected():
    with pytest.raises(ScheduleError):
        realize_cycle(BlowupSchedule("I", (BlowupStep.smooth("C0"),)))
    with pytest.raises(ScheduleError):
        realize_cycle(BlowupSchedule("I", (BlowupStep.node(("F", "C0")),)))


def test_non_adjacent_node_rejected():
    with pytest.raises(ScheduleError):
        realize_cycle(BlowupSchedule("I", (BlowupStep.node(("F", "Fbar")),)))


def test_two_component_cycle_node_must_match():
    with pytest.raises(ScheduleError):
        realize_cycle(BlowupSchedule("III", (BlowupStep.node(("A", "E1")),)))


def test_infinitely_near_target_must_touch_the_exceptional():
    schedule = BlowupSchedule(
        "I",
        (BlowupStep.smooth("G"), BlowupStep.infinitely_near(1, "F")),
    )
    with pytest.raises(ScheduleError):
        realize_cycle(schedule)


def test_infinitely_near_intersection_consumed_once():
    steps = (
        BlowupStep.smooth("G"),
        BlowupStep.infinitely_near(1, "G"),
        BlowupStep.infinitely_near(1, "G"),
    )
    with pytest.raises(ScheduleError) as info:
        realize_cycle(BlowupSchedule("I", steps))
    assert "already blown up" in str(info.value)


def test_infinitely_near_over_node_rejects_named_target():
    steps = (
        BlowupStep.node(("F", "G")),
        BlowupStep.infinitely_near(1, "F"),
    )
    with pytest.raises(ScheduleError) as info:
        realize_cycle(BlowupSchedule("I", steps))
    assert "node" in str(info.value)


def test_infinitely_near_over_node_generic_point_realizes():
    steps = (
        BlowupStep.node(("F", "G")),
        BlowupStep.infinitely_near(1),
    )
    cycle = realize_cycle(BlowupSchedule("I", steps))
    assert cycle.m == 6
    # the exceptional component E1 lost one point of its conjugate pair
    assert cycle.classes["E1"].coeffs[2 + 2] == -1  # E3 coefficient


def test_conjugate_target_of_infinitely_near_is_allowed():
    steps = (
        BlowupStep.smooth("G"),
        BlowupStep.infinitely_near(1, "Gbar"),
    )
    cycle = realize_cycle(BlowupSchedule("I", steps))
    # the conjugate exceptional meets Gbar, so pair 2's primary point sits
    # on Gbar and its partner back on G
    assert cycle.classes["Gbar"].coeffs == (1, 0, 0, -1, -1, 0)
    assert cycle.classes["G"].coeffs == (1, 0, -1, 0, 0, -1)


# -- elementary transform ----------------------------------------------------

def _weight_multiset(cycle):
    return sorted(
        zip(cycle.self_intersections(), cycle.degrees(),
            [cycle.conjugate_names[name] == name for name in cycle.order]),
    )


def test_elementary_transform_smooth_points():
    schedule = BlowupSchedule(
        "III",
        (
            BlowupStep.node(("A", "Abar")),
            BlowupStep.smooth("A"),
            BlowupStep.smooth("A"),
            BlowupStep.smooth("A"),
        ),
    )
    transformed = elementary_transform(schedule)
    assert transformed.initial_type == "I"
    assert transformed.steps == (
        BlowupStep.smooth("F"),
        BlowupStep.smooth("G"),
        BlowupStep.smooth("G"),
        BlowupStep.smooth("G"),
    )
    assert _weight_multiset(realize_cycle(schedule)) == _weight_multiset(
        realize_cycle(transformed)
    )


def test_elementary_transform_infinitely_near_over_node():
    schedule = BlowupSchedule(
        "III",
        (
            BlowupStep.node(("A", "Abar")),
            BlowupStep.infinitely_near(1),
            BlowupStep.smooth("A"),
            BlowupStep.smooth("A"),
        ),
    )
    transformed = elementary_transform(schedule)
    assert transformed.steps == (
        BlowupStep.smooth("F"),
        BlowupStep.smooth("F"),
        BlowupStep.smooth("G"),
        BlowupStep.smooth("G"),
    )
    direct = realize_cycle(schedule)
    routed = realize_cycle(transformed)
    assert direct.self_intersections() == (-2, -2, -2, -2)
    assert _weight_multiset(direct) == _weight_multiset(routed)


def test_elementary_transform_preserves_node_and_named_steps():
    schedule = BlowupSchedule(
        "III",
        (
            BlowupStep.node(("A", "Abar")),
            BlowupStep.node(("A", "E1")),
            BlowupStep.smooth("Abar"),
        ),
    )
    transformed = elementary_transform(schedule)
    assert transformed.steps == (
        BlowupStep.smooth("F"),
        BlowupStep.node(("G", "F")),
        BlowupStep.smooth("Gbar"),
    )
    assert _weight_multiset(realize_cycle(schedule)) == _weight_multiset(
        realize_cycle(transformed)
    )


def test_elementary_transform_rejections():
    with pytest.raises(ScheduleError):
        elementary_transform(
            BlowupSchedule("I", (BlowupStep.node(("F", "G")),)),
        )
    with pytest.raises(ScheduleError):
        elementary_transform(
            BlowupSchedule("III", (BlowupStep.smooth("A"),)),
        )
    with pytest.raises(ScheduleError):
        elementary_transform(
            BlowupSchedule("III", (BlowupStep.node(("A", "E1")),)),
        )
    with pytest.raises(ScheduleError):
        elementary_transform(
            BlowupSchedule(
                "III",
                (
                    BlowupStep.node(("A", "Abar")),
                    BlowupStep.infinitely_near(1, "A"),
                ),
            ),
        )


def test_elementary_transform_weight_equivalence_over_samples():
    # every nodes-first two-component schedule and its four-component image
    # realize isomorphic weighted cycles (component names aside)
    rng = random.Random(2024)
    smooth_choices = ("A", "Abar")
    for _ in range(40):
        steps = [BlowupStep.node(("A", "Abar"))]
        for _ in range(3):
            steps.append(BlowupStep.smooth(rng.choice(smooth_choices)))
        schedule = BlowupSchedule("III", tuple(steps))
        transformed = elementary_transform(schedule)
        assert _weight_multiset(realize_cycle(schedule)) == _weight_multiset(
            realize_cycle(transformed)
        )
