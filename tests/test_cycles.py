"""Line bundles on cycles of rational curves: formula vs kernel oracle."""

import math
import random
from fractions import Fraction

import pytest

from twistor4.cycles import (
    DEFAULT_ORACLE_SEED,
    CycleLineBundle,
    TorsionSpec,
    cyclic_arcs,
    euler_char_cycle,
    h0_formula,
    h0_oracle,
)
from twistor4.errors import HypothesisError


# -- worked examples ---------------------------------------------------------

@pytest.mark.parametrize(
    "degrees,expected",
    [
        ((1, -1, 1, -1), 0),
        ((2, -2, 2, -2), 2),
        ((0, -2, 0, 2, 0, -2, 0, 2), 2),
        ((2, -1, 2, -1), 2),
        ((3, -1, -1, 2), 4),  # adjacent negatives leave one wrap-around arc
    ],
)
def test_formula_worked_examples(degrees, expected):
    bundle = CycleLineBundle(degrees)
    assert h0_formula(bundle) == expected
    assert h0_oracle(bundle, seed=DEFAULT_ORACLE_SEED) == expected


def test_formula_hypothesis_errors_are_distinct():
    with pytest.raises(HypothesisError) as err:
        h0_formula(CycleLineBundle((3, -3)))
    assert err.value.tag == "too-few-components"
    with pytest.raises(HypothesisError) as err:
        h0_formula(CycleLineBundle((1, 1, -1)))
    assert err.value.tag == "too-few-negatives"
    with pytest.raises(HypothesisError) as err:
        h0_formula(CycleLineBundle((2, -1, 0, -1)))
    assert err.value.tag == "arc-without-positive"


# -- formula vs oracle, seeded ------------------------------------------------

def test_formula_matches_oracle_on_random_cycles():
    rng = random.Random(883)
    accepted = 0
    attempts = 0
    while accepted < 200 and attempts < 20000:
        attempts += 1
        m = rng.randint(3, 10)
        degrees = tuple(rng.randint(-4, 4) for _ in range(m))
        bundle = CycleLineBundle(degrees)
        try:
            value = h0_formula(bundle)
        except HypothesisError:
            continue
        assert value == h0_oracle(bundle, seed=rng.randrange(1 << 30)), degrees
        accepted += 1
    assert accepted == 200


def test_formula_invariant_under_rotation_and_reversal():
    rng = random.Random(12)
    accepted = 0
    while accepted < 60:
        m = rng.randint(3, 9)
        degrees = tuple(rng.randint(-3, 3) for _ in range(m))
        try:
            value = h0_formula(CycleLineBundle(degrees))
        except HypothesisError:
            continue
        accepted += 1
        for k in range(1, m):
            rotated = degrees[k:] + degrees[:k]
            assert h0_formula(CycleLineBundle(rotated)) == value
        assert h0_formula(CycleLineBundle(degrees[::-1])) == value


def test_oracle_bounded_below_by_euler_characteristic():
    rng = random.Random(5150)
    for _ in range(40):
        m = rng.randint(2, 7)
        degrees = tuple(rng.randint(-3, 3) for _ in range(m))
        bundle = CycleLineBundle(degrees)
        value = h0_oracle(bundle, seed=rng.randrange(1 << 30))
        assert value >= max(0, euler_char_cycle(bundle))


# -- oracle-only regimes -------------------------------------------------------

def test_all_positive_degrees_have_no_higher_cohomology():
    for degrees in ((1, 1, 1), (2, 3, 4), (1, 2, 1, 2)):
        bundle = CycleLineBundle(degrees)
        assert h0_oracle(bundle, seed=3) == sum(degrees)


def test_degree_zero_depends_on_monodromy():
    trivial = CycleLineBundle((0, 0, 0), gluing=(1, 1, 1))
    assert h0_oracle(trivial) == 1
    twisted = CycleLineBundle((0, 0, 0), gluing=(2, 1, 1))
    assert h0_oracle(twisted) == 0
    compensated = CycleLineBundle((0, 0, 0), gluing=(2, Fraction(1, 2), 1))
    assert h0_oracle(compensated) == 1


def test_two_component_cycle_oracle():
    assert h0_oracle(CycleLineBundle((0, 0), gluing=(1, 1))) == 1
    assert h0_oracle(CycleLineBundle((0, 0), gluing=(3, 1))) == 0
    assert h0_oracle(CycleLineBundle((-1, 1))) == 0
    assert h0_oracle(CycleLineBundle((2, 2)), seed=11) == 4
    assert h0_oracle(CycleLineBundle((-2, 1)), seed=11) == 0


def test_oracle_gauge_invariance_under_placements():
    # moving the node coordinates must not change the answer
    rng = random.Random(42)
    degrees = (2, -2, 2, -2)
    for _ in range(10):
        placements = []
        for _ in range(len(degrees)):
            t1, t2 = rng.sample(range(1, 30), 2)
            placements.append(((1, t1), (1, t2)))
        value = h0_oracle(
            CycleLineBundle(degrees),
            seed=rng.randrange(1 << 30),
            _placements=tuple(placements),
        )
        assert value == 2


def test_oracle_deterministic_for_fixed_seed():
    bundle = CycleLineBundle((1, -2, 3, -2))
    first = h0_oracle(bundle, seed=99)
    assert first == h0_oracle(bundle, seed=99)
    assert first == h0_formula(bundle)


# -- plumbing -----------------------------------------------------------------

def test_bundle_validation():
    with pytest.raises(ValueError):
        CycleLineBundle((3,))
    with pytest.raises(ValueError):
        CycleLineBundle((1, 1), gluing=(1,))
    with pytest.raises(ValueError):
        CycleLineBundle((1, 1), gluing=(1, 0))


def test_cyclic_arcs():
    assert cyclic_arcs(4, set()) == [[0, 1, 2, 3]]
    assert cyclic_arcs(3, {0, 1, 2}) == []
    # indices 4 and 0 are cyclically adjacent, so they form a single arc
    arcs = cyclic_arcs(5, {1, 3})
    assert sorted(map(tuple, arcs)) == [(2,), (4, 0)]
    arcs = cyclic_arcs(6, {0, 3})
    assert sorted(map(tuple, arcs)) == [(1, 2), (4, 5)]
    # wrap-around arc stays contiguous
    arcs = cyclic_arcs(6, {2})
    assert arcs == [[3, 4, 5, 0, 1]]


@pytest.mark.parametrize("m", range(1, 11))
def test_cyclic_arcs_on_every_removed_set(m):
    assert cyclic_arcs(m, ()) == [list(range(m))]
    for mask in range(1, 1 << m):
        removed = {i for i in range(m) if mask >> i & 1}
        arcs = cyclic_arcs(m, removed)
        # the arcs partition the kept indices
        flat = [i for arc in arcs for i in arc]
        assert sorted(flat) == [i for i in range(m) if i not in removed]
        for arc in arcs:
            # each runs consecutively mod m from one removed index to the next
            assert (arc[0] - 1) % m in removed and (arc[-1] + 1) % m in removed
            assert all((a + 1) % m == b for a, b in zip(arc, arc[1:]))
        # listed by start
        starts = [arc[0] for arc in arcs]
        assert starts == sorted(starts), (m, removed, arcs)


def test_torsion_spec():
    assert TorsionSpec.finite(1).tau == 1
    assert TorsionSpec.finite(5).tau == 5
    assert TorsionSpec.non_torsion().tau == math.inf
    assert TorsionSpec.finite(2).tau == 2
    with pytest.raises(ValueError):
        TorsionSpec.finite(0)


def test_euler_char_cycle_is_degree_sum():
    assert euler_char_cycle(CycleLineBundle((2, -1, 0))) == 1


# -- the oracle's row builder -----------------------------------------------------

_RATIONAL_PLACEMENTS = (
    ((Fraction(1, 3), Fraction(2, 5)), (Fraction(-3, 7), 1)),
    ((2, Fraction(1, 2)), (Fraction(5, 4), Fraction(-1, 9))),
    ((Fraction(7, 2), 3), (1, Fraction(3, 8))),
    ((Fraction(-2, 3), Fraction(1, 6)), (Fraction(4, 5), 2)),
)


@pytest.mark.parametrize(
    "degrees,gluing,expected",
    [
        ((0, 0, 0), (1, 1, 1), 1),
        ((0, 0, 0), (2, 1, 1), 0),
        ((0, 0, 0), (2, Fraction(1, 2), 1), 1),
        ((1, 2, 1), (Fraction(3, 7), Fraction(-5, 2), 4), 4),
        ((2, -2, 2, -2), (Fraction(2, 3), Fraction(9, 4), Fraction(-1, 5), 7), 2),
        ((1, -1, 1, -1), (Fraction(5, 3), 2, Fraction(1, 8), Fraction(-4, 9)), 0),
        ((0, 0), (3, 1), 0),
    ],
)
def test_oracle_with_rational_placements_and_gluings(degrees, gluing, expected):
    # non-integral placements keep the rows in Fractions
    bundle = CycleLineBundle(degrees, gluing=gluing)
    placements = _RATIONAL_PLACEMENTS[:len(degrees)]
    assert h0_oracle(bundle, _placements=placements) == expected
    assert h0_oracle(bundle) == expected


def test_formula_matches_oracle_on_large_band_cycles():
    # every cycle length 3..16 four times, degrees up to 24 in absolute value
    rng = random.Random(2417)
    for i in range(56):
        m = 3 + i % 14
        while True:
            degrees = tuple(rng.randint(-24, 24) for _ in range(m))
            bundle = CycleLineBundle(degrees)
            try:
                value = h0_formula(bundle)
            except HypothesisError:
                continue
            break
        assert value == h0_oracle(bundle, seed=rng.randrange(1 << 30)), degrees
