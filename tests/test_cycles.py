"""Line bundles on cycles of rational curves: formula vs kernel oracle."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from twistor4 import oracle
from twistor4.errors import ScheduleError
from twistor4.oracle import ORACLE_DRAWS
from twistor4.cycles import (
    DEFAULT_ORACLE_SEED,
    CycleLineBundle,
    TorsionSpec,
    cyclic_arcs,
    euler_char_cycle,
    h0_formula,
    h0_oracle,
)


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


def test_formula_is_total_outside_the_old_hypotheses():
    # m = 2, a single negative component, an arc with no positive component
    for degrees in ((3, -3), (1, 1, -1), (2, -1, 0, -1)):
        bundle = CycleLineBundle(degrees)
        assert h0_formula(bundle) == h0_oracle(bundle, seed=DEFAULT_ORACLE_SEED)


# -- formula vs oracle, seeded ------------------------------------------------

def test_formula_matches_oracle_on_random_cycles():
    rng = random.Random(883)
    for _ in range(200):
        m = rng.randint(2, 10)
        bundle = CycleLineBundle(tuple(rng.randint(-4, 4) for _ in range(m)))
        value = h0_formula(bundle)
        assert value == h0_oracle(bundle, seed=rng.randrange(1 << 30)), bundle


@pytest.mark.parametrize("m", range(2, 7))
def test_formula_is_the_arc_sum_it_counts(m):
    # the closed form counts sign changes; the reference walks the arcs of
    # ``cyclic_arcs`` between the negative components, as its docstring says
    for degrees in product(range(-2, 3), repeat=m):
        negatives = [i for i, d in enumerate(degrees) if d < 0]
        if negatives:
            expected = sum(max(sum(degrees[i] for i in arc) - 1, 0)
                           for arc in cyclic_arcs(m, negatives))
            assert h0_formula(CycleLineBundle(degrees)) == expected, degrees


def test_formula_invariant_under_rotation_and_reversal():
    rng = random.Random(12)
    for _ in range(60):
        m = rng.randint(2, 9)
        degrees = tuple(rng.randint(-3, 3) for _ in range(m))
        value = h0_formula(CycleLineBundle(degrees))
        for k in range(1, m):
            rotated = degrees[k:] + degrees[:k]
            assert h0_formula(CycleLineBundle(rotated)) == value
        assert h0_formula(CycleLineBundle(degrees[::-1])) == value


def test_formula_matches_oracle_on_random_explicit_gluings():
    # the trivial gluing and a random one, m = 2 included
    rng = random.Random(6106)
    for _ in range(120):
        m = rng.randint(2, 7)
        degrees = tuple(rng.randint(-3, 3) for _ in range(m))
        drawn = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m))
        for gluing in ((1,) * m, drawn):
            bundle = CycleLineBundle(degrees, gluing=gluing)
            assert h0_formula(bundle) == h0_oracle(bundle), (degrees, gluing)


def test_formula_reduces_to_the_paper_count_under_its_hypotheses():
    # m >= 3, two or more negatives, a positive component in every arc:
    # sum_{l_i > 0} l_i - gamma, gamma the number of arcs
    rng = random.Random(3125)
    checked = 0
    while checked < 200:
        m = rng.randint(3, 10)
        degrees = tuple(rng.randint(-4, 4) for _ in range(m))
        negatives = [i for i, d in enumerate(degrees) if d < 0]
        arcs = cyclic_arcs(m, negatives)
        if len(negatives) < 2 or not all(
                any(degrees[i] > 0 for i in arc) for arc in arcs):
            continue
        paper = sum(d for d in degrees if d > 0) - len(arcs)
        assert h0_formula(CycleLineBundle(degrees)) == paper, degrees
        checked += 1


def test_oracle_bounded_below_by_euler_characteristic():
    rng = random.Random(5150)
    for _ in range(40):
        m = rng.randint(2, 7)
        degrees = tuple(rng.randint(-3, 3) for _ in range(m))
        bundle = CycleLineBundle(degrees)
        value = h0_oracle(bundle, seed=rng.randrange(1 << 30))
        assert value >= max(0, euler_char_cycle(bundle))


# -- the gluing, m = 2, placements -----------------------------------------------

def test_all_positive_degrees_have_no_higher_cohomology():
    for degrees in ((1, 1, 1), (2, 3, 4), (1, 2, 1, 2)):
        bundle = CycleLineBundle(degrees)
        assert h0_oracle(bundle, seed=3) == sum(degrees)


def test_degree_zero_depends_on_monodromy():
    # trivial, twisted and compensated gluings of an all-zero cycle
    for gluing, expected in (((1, 1, 1), 1), ((2, 1, 1), 0),
                             ((2, Fraction(1, 2), 1), 1)):
        bundle = CycleLineBundle((0, 0, 0), gluing=gluing)
        assert h0_oracle(bundle) == h0_formula(bundle) == expected


def test_two_component_cycle_oracle():
    for bundle, expected in (
        (CycleLineBundle((0, 0), gluing=(1, 1)), 1),
        (CycleLineBundle((0, 0), gluing=(3, 1)), 0),
        (CycleLineBundle((-1, 1)), 0),
        (CycleLineBundle((2, 2)), 4),
        (CycleLineBundle((-2, 1)), 0),
        (CycleLineBundle((3, -3), gluing=(2, Fraction(5, 3))), 2),
    ):
        assert h0_oracle(bundle, seed=11) == h0_formula(bundle) == expected


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


@pytest.mark.parametrize("bad", [
    True, False, "1/2", 0.5, float("nan"), float("inf"), None, 1.0,
])
def test_gluing_takes_only_exact_non_bool_scalars(bad):
    for gluing in ((bad, 1), (2, bad)):
        with pytest.raises(ScheduleError, match="must be ints or Fractions"):
            CycleLineBundle((0, 0), gluing=gluing)
    with pytest.raises(ScheduleError, match="must be ints or Fractions"):
        CycleLineBundle((1, -1), gluing=("1/2", "2"))
    bundle = CycleLineBundle((1, -1), gluing=[2, Fraction(1, 3)])
    assert bundle.gluing == (Fraction(2), Fraction(1, 3))
    assert set(map(type, bundle.gluing)) == {Fraction}


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
    assert h0_formula(bundle) == expected


def _spy(monkeypatch, name):
    """Record the arguments and result of every call to ``oracle.<name>``."""
    calls, real = [], getattr(oracle, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]
    monkeypatch.setattr(oracle, name, spy)
    return calls


def _plain_evaluations(degrees, placements):
    """The evaluation rows by the plain formula: every basis monomial
    u^(l-j) v^j of each component at both node points, zeros dropped."""
    offsets = [sum(max(0, l + 1) for l in degrees[:k])
               for k in range(len(degrees) + 1)]

    def row(k, point):
        l, (alpha, beta) = degrees[k], point
        values = {offsets[k] + j: alpha ** (l - j) * beta ** j
                  for j in range(l + 1)}
        return {c: v for c, v in values.items() if v != 0}
    m = len(degrees)
    return offsets[-1], [(row(i, out_point), row((i + 1) % m, in_point))
                         for i, (out_point, in_point) in enumerate(placements)]


def _point(rng, kind):
    """A point of P^1 with a zero coordinate, Fraction coordinates, or one
    int and one Fraction coordinate."""
    def scalar(exact):
        value = rng.choice([-1, 1]) * rng.randint(1, 7)
        return Fraction(value, rng.randint(2, 5)) if exact else value
    if kind == "zero":
        other = scalar(rng.random() < 0.5)
        return rng.choice([(other, 0), (0, other)])
    if kind == "fraction":
        return scalar(True), scalar(True)
    return tuple(rng.sample([scalar(True), scalar(False)], 2))


@pytest.mark.parametrize("kind", ["zero", "fraction", "mixed"])
def test_evaluations_equal_the_plain_monomial_formula(kind, monkeypatch):
    # the rows h0_oracle builds through the _placements hook are the plain
    # evaluations of every monomial; only the ones that vanish are skipped
    built = _spy(monkeypatch, "_evaluations")
    rng = random.Random(f"evaluations-{kind}")
    for _ in range(40):
        degrees = tuple(rng.randint(-3, 5) for _ in range(rng.randint(2, 7)))
        points = []
        for _ in degrees:
            out_point, in_point = _point(rng, kind), _point(rng, kind)
            while out_point[0] * in_point[1] == out_point[1] * in_point[0]:
                in_point = _point(rng, kind)
            points.append((out_point, in_point))
        m = len(degrees)
        placements = [(points[i][0], points[(i + 1) % m][1]) for i in range(m)]
        bundle = CycleLineBundle(degrees)
        assert h0_oracle(bundle, seed=rng.randrange(1 << 30),
                         _placements=placements) == h0_formula(bundle)
        (args, result), = built
        assert args == (degrees, placements)
        assert result == _plain_evaluations(degrees, placements), degrees
        built.clear()


def test_default_evaluations_equal_the_plain_monomial_formula(monkeypatch):
    # without the _placements hook every node sits at (1:0) on C_i and (0:1)
    # on C_{i+1}, and the one-entry rows are built directly
    built = _spy(monkeypatch, "_evaluations")
    rng = random.Random("default-evaluations")
    lists = [(0, 0), (-1, 1), (3, -3), (-2, -1), (0, -2, 0, 4)]
    lists += [tuple(rng.randint(-3, 5) for _ in range(rng.randint(2, 9)))
              for _ in range(60)]
    for degrees in lists:
        bundle = CycleLineBundle(degrees)
        assert h0_oracle(bundle, seed=rng.randrange(1 << 30)) == h0_formula(bundle)
        (args, result), = built
        default = [((1, 0), (0, 1))] * len(degrees)
        assert args == (degrees, None)
        assert result == _plain_evaluations(degrees, default), degrees
        built.clear()


@pytest.fixture
def kernel_calls(monkeypatch):
    return _spy(monkeypatch, "_kernel_dim")


def _draws(calls, bundle, seeds):
    """The gluings h0_oracle draws for ``bundle``, one tuple per seed, read
    off the spied ``_kernel_dim`` calls."""
    drawn = []
    for seed in seeds:
        h0_oracle(bundle, seed=seed)
        assert all(tuple(dens) == (1,) * bundle.m
                   for (_, _, _, dens), _ in calls)
        drawn.append(tuple(tuple(nums) for (_, _, nums, _), _ in calls))
        calls.clear()
    return drawn


def test_oracle_draws_are_reproducible_per_seed(kernel_calls):
    # every int seed is accepted, as random.Random accepted them
    bundle = CycleLineBundle((2, -1, 0, 3, -2))
    seeds = [-5, 0, 1, 2, 99, DEFAULT_ORACLE_SEED, 2 ** 70, -2 ** 70]
    first = _draws(kernel_calls, bundle, seeds)
    assert _draws(kernel_calls, bundle, seeds) == first
    default = first[seeds.index(DEFAULT_ORACLE_SEED)]
    assert _draws(kernel_calls, bundle, [None]) == [default]
    assert len(set(first)) == len(seeds)
    for gluings in first:
        assert len(gluings) == ORACLE_DRAWS
        assert all(len(gluing) == bundle.m for gluing in gluings)


def test_oracle_draws_are_cut_from_the_digest_of_the_seed(kernel_calls):
    # 3 bytes of SHAKE-128 of the seed's decimal digits per draw, its top
    # 20 bits plus 1, node by node and then draw by draw
    bundle = CycleLineBundle((3, -1, 2, -2))
    for seed in (-5, 0, DEFAULT_ORACLE_SEED, 2 ** 70):
        digest = hashlib.shake_128(str(seed).encode()).digest(
            3 * ORACLE_DRAWS * bundle.m)
        values = [(int.from_bytes(digest[i:i + 3], "big") >> 4) + 1
                  for i in range(0, len(digest), 3)]
        expected = tuple(tuple(values[k:k + bundle.m])
                         for k in range(0, len(values), bundle.m))
        assert _draws(kernel_calls, bundle, [seed]) == [expected]


@pytest.mark.parametrize("seed", [1.9, "7", True], ids=["float", "str", "bool"])
def test_oracle_refuses_a_seed_that_is_not_an_int(kernel_calls, seed):
    # a float would draw what its truncation draws and a str would raise a
    # bare TypeError; both, and a bool, are refused before any draw, also
    # when the bundle fixes its gluings and no draw would be made
    for bundle in (CycleLineBundle((3, -1, 2, -2)),
                   CycleLineBundle((0, 0), gluing=(2, Fraction(1, 2)))):
        with pytest.raises(ScheduleError,
                           match=f"seed must be an int, got {type(seed).__name__}$"):
            h0_oracle(bundle, seed=seed)
    assert kernel_calls == []


def test_oracle_draws_span_one_to_two_to_the_twenty(kernel_calls):
    drawn = _draws(kernel_calls, CycleLineBundle((1, -1, 1, -1, 0)), range(300))
    values = [g for gluings in drawn for gluing in gluings for g in gluing]
    assert all(type(g) is int and 1 <= g <= 2 ** 20 for g in values)
    # 4,500 draws reach both ends of the range: all 20 bits are used
    assert min(values) < 2 ** 20 // 100 and max(values) > 2 ** 20 - 2 ** 20 // 100


def test_formula_matches_oracle_on_large_band_cycles():
    # every cycle length 2..16 four times, degrees up to 24 in absolute value
    rng = random.Random(2417)
    for i in range(60):
        m = 2 + i % 15
        bundle = CycleLineBundle(tuple(rng.randint(-24, 24) for _ in range(m)))
        value = h0_formula(bundle)
        assert value == h0_oracle(bundle, seed=rng.randrange(1 << 30)), bundle


# -- the domain beyond the old hypotheses ---------------------------------------

def _outside_old_hypotheses(rng, kind):
    """A degree list of one kind that the old hypotheses (m >= 3, two or
    more negatives, a positive component on every arc) leave out."""
    if kind == "two components":
        return [rng.randint(-4, 4) for _ in range(2)]
    m = rng.randint(3, 8)
    if kind == "one negative":
        degrees = [rng.randint(0, 4) for _ in range(m)]
        degrees[rng.randrange(m)] = rng.randint(-4, -1)
        return degrees
    if kind == "arc without a positive":
        # two negatives with only zeros (maybe none) between them
        degrees = [rng.randint(-3, 4) for _ in range(m)]
        i, gap = rng.randrange(m), rng.randint(0, m - 2)
        degrees[i] = degrees[(i + gap + 1) % m] = rng.randint(-3, -1)
        for k in range(1, gap + 1):
            degrees[(i + k) % m] = 0
        return degrees
    return [0] * m


def _rational_placements(rng, m):
    """Node placements with Fraction coordinates: the two node points on
    each component are distinct points of P^1."""
    def point():
        return (Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(1, 9), rng.randint(1, 5)))
    points = []
    for _ in range(m):
        out_point, in_point = point(), point()
        while out_point[0] * in_point[1] == out_point[1] * in_point[0]:
            in_point = point()
        points.append((out_point, in_point))
    # node i sits at points[i][0] on C_i and at points[i + 1][1] on C_{i+1}
    return [(points[i][0], points[(i + 1) % m][1]) for i in range(m)]


@pytest.mark.parametrize("kind", ["two components", "one negative",
                                  "arc without a positive", "all zero"])
def test_formula_matches_oracle_outside_the_old_hypotheses(kind):
    rng = random.Random(f"outside-{kind}")
    for _ in range(30):
        degrees = tuple(_outside_old_hypotheses(rng, kind))
        m = len(degrees)
        placements = _rational_placements(rng, m)
        drawn = tuple(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                               rng.randint(1, 9)) for _ in range(m))
        trivial = drawn[:-1] + (1 / math.prod(drawn[:-1]),)
        for gluing in (None, drawn, trivial):
            bundle = CycleLineBundle(degrees, gluing=gluing)
            seed = rng.randrange(1 << 30)
            value = h0_formula(bundle)
            assert value == h0_oracle(bundle, seed=seed), (degrees, gluing)
            assert value == h0_oracle(bundle, seed=seed,
                                      _placements=placements), (degrees, gluing)
            if kind == "all zero":
                assert value == (gluing is not None and math.prod(gluing) == 1)
