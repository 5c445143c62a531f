"""Intersection theory on real blow-ups of P^1 x P^1 and anticanonical cycles.

The surface S is P^1 x P^1 blown up in n conjugate pairs of (possibly
infinitely near) points.  Pic(S) gets the total-transform basis

    l  = class of O(1,0) ("lines")
    f  = class of O(0,1) ("fibres")
    E_1, ..., E_2n  = exceptional classes,  E_i^2 = -1, mutually orthogonal

so the Gram matrix is constant (unimodular, determinant -1) and all
infinitely-near structure lives in the blow-up schedule, not in the form.
The anti-holomorphic involution fixes l and f and swaps E_{2k-1} <-> E_{2k}
(the pair blown up at step k).

A ``BlowupSchedule`` records, per step, where ONE point of the conjugate
pair sits (the other location is implied by equivariance):

  * ``smooth``  — a smooth point of a named cycle component;
  * ``node``    — a node of the cycle, named by its two components (for a
    two-component cycle this blows both of the conjugate nodes at once);
  * ``infinitely_near`` — a point on the exceptional curve of an earlier
    step; ``on_strict_transform`` names the component whose strict transform
    passes through it (a tangency direction), or is None for a generic
    point of the exceptional curve.

A ``RealizationState`` is the cycle after the first k steps, held by
position only.  The one class route is ``realize_cycle``: it folds
``extend`` over a schedule's steps, then replays those states once on the
classes, and its cycle is valid by construction (see ``realize_cycle``).
An ``AnticanonicalCycle`` holds its components' classes and the
conjugation on their names, and nothing derived from them; ``validate``
stays the full oracle for cycles built elsewhere.  A ``Necklace`` is what
the classification reads of a cycle: names, degrees and conjugation by
position, with tau passed in; a cycle and a state each give theirs, and a
state reads it off its positional key, with no class replayed.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, compress
from operator import itemgetter, mul

from .cycles import TorsionSpec
from .errors import RealizabilityError, ScheduleError, check
from .linalg import format_combination

__all__ = [
    "SurfaceLattice",
    "DivisorClass",
    "anticanonical_class",
    "adjunction_genus",
    "real_involution",
    "BlowupStep",
    "BlowupSchedule",
    "AnticanonicalCycle",
    "Necklace",
    "smooth_anticanonical_cycle",
    "INITIAL_TYPES",
    "STEP_FIELDS",
    "RealizationState",
    "realize_cycle",
    "elementary_transform",
]


def _check_pairs(pairs):
    if type(pairs) is not int:
        raise ScheduleError(f"pairs must be an int, got {pairs!r}")
    if pairs < 0:
        raise ScheduleError("pairs must be non-negative")


class SurfaceLattice(namedtuple("SurfaceLattice", ("pairs",))):
    """Pic of a blow-up of P^1 x P^1 at ``pairs`` conjugate point pairs.

    ``pairs`` = 0 is the un-blown ruled surface itself (rank 2); the n = 4
    requirement belongs to the classifier, not to the lattice.  Like
    ``DivisorClass`` and ``BlowupSchedule`` it is checked on construction
    and by ``_make``, which call ``__post_init__`` through the class, so a
    counter patched onto it sees every record built.
    """

    __slots__ = ()

    def __new__(cls, pairs):
        self = tuple.__new__(cls, (pairs,))
        cls.__post_init__(self)
        return self

    def __post_init__(self):
        _check_pairs(self.pairs)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def rank(self):
        return 2 * self.pairs + 2

    def divisor(self, a, b, multiplicities=()):
        """The class a*l + b*f + sum(m_i E_i); multiplicities as stored."""
        ms = tuple(multiplicities)
        if len(ms) > 2 * self.pairs:
            raise ScheduleError("more multiplicities than exceptional classes")
        return DivisorClass(self, (a, b, *ms) + (0,) * (2 * self.pairs - len(ms)))

    def zero(self):
        return self.divisor(0, 0)

    def line(self):
        return self.divisor(1, 0)

    def fibre(self):
        return self.divisor(0, 1)

    def exceptional(self, i):
        """E_i, 1-based, i in 1..2*pairs."""
        return DivisorClass(self, self._exceptional_coeffs(i))

    def _exceptional_coeffs(self, i):
        if not 1 <= i <= 2 * self.pairs:
            raise ScheduleError(f"E{i} does not exist (pairs={self.pairs})")
        return (0,) * (1 + i) + (1,) + (0,) * (2 * self.pairs - i)

    def anticanonical(self):
        return self.divisor(2, 2, (-1,) * (2 * self.pairs))


class DivisorClass(namedtuple("DivisorClass", ("lattice", "coeffs"))):
    """Integer vector (a, b, m_1..m_2n) = a*l + b*f + sum(m_i E_i), its
    coefficients stored as a tuple."""

    __slots__ = ()

    def __new__(cls, lattice, coeffs):
        self = tuple.__new__(cls, (lattice, tuple(coeffs)))
        cls.__post_init__(self)
        return self

    def __post_init__(self):
        if len(self.coeffs) != self.lattice.rank:
            raise ScheduleError(
                f"class needs {self.lattice.rank} coefficients, "
                f"got {len(self.coeffs)}"
            )
        if not set(map(type, self.coeffs)) <= {int}:
            raise ScheduleError(f"class coefficients must be ints, got {self.coeffs}")

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def dot(self, other: "DivisorClass") -> int:
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise ScheduleError("classes live in different lattices")
        return _dot(self.coeffs, other.coeffs)

    @property
    def self_intersection(self):
        return self.dot(self)

    def __str__(self):
        pairs = self.lattice.pairs
        names = ("l", "f") + tuple(f"E{i}" for i in range(1, 2 * pairs + 1))
        return format_combination(self.coeffs, names)


def _dot(s, o):
    """The intersection pairing of two coefficient tuples (Gram form)."""
    return s[0] * o[1] + s[1] * o[0] - sum(map(mul, s[2:], o[2:]))


def _involute(c):
    """The real involution on a coefficient tuple (see ``real_involution``)."""
    out = list(c)
    out[2::2], out[3::2] = c[3::2], c[2::2]
    return tuple(out)


def anticanonical_class(lattice: SurfaceLattice) -> DivisorClass:
    """-K = 2l + 2f - sum(E_i); self-intersection 8 - 2n."""
    k = lattice.anticanonical()
    check(k.self_intersection == 8 - 2 * lattice.pairs,
          "(-K)^2 = {}, closed form {}", k.self_intersection,
          8 - 2 * lattice.pairs, invariant="anticanonical-square")
    return k


def adjunction_genus(d: DivisorClass) -> int:
    """Arithmetic genus (d^2 - d.(-K))/2 + 1 of a curve of class d."""
    minus_k = d.lattice.anticanonical()
    num = d.self_intersection - d.dot(minus_k)
    # cannot fail on this even-pairing lattice; kept as a tripwire
    check(num % 2 == 0, "adjunction is not integral for {}", d,
          invariant="adjunction-integral")
    return num // 2 + 1


def real_involution(d: DivisorClass) -> DivisorClass:
    """Swap each E_{2k-1} with E_{2k}; fixes l and f.  An isometry."""
    return DivisorClass(d.lattice, _involute(d.coeffs))


# -- blow-up schedules ------------------------------------------------------

INITIAL_TYPES = ("I", "II", "III")
#: Step kind -> its fields besides ``kind``; the first one is required.
STEP_FIELDS = {
    "smooth": ("component",),
    "node": ("components",),
    "infinitely_near": ("over_pair", "on_strict_transform"),
}


def _check_initial_type(initial_type):
    if initial_type not in INITIAL_TYPES:
        raise ScheduleError(
            f"initial_type must be one of {INITIAL_TYPES}, got {initial_type!r}"
        )


def _check_step_index(idx, kind, over_pair):
    if kind == "infinitely_near" and over_pair >= idx:
        raise ScheduleError(
            f"step {idx} is infinitely near over pair {over_pair}, "
            "which is not strictly earlier"
        )


class BlowupStep(namedtuple("BlowupStep", ("kind", "component", "components",
                                           "over_pair", "on_strict_transform"))):
    """Location of one point of a conjugate pair (the other is implied).

    A tuple of its five fields, checked on construction and by ``_make``,
    through which ``_replace`` builds too."""

    __slots__ = ()

    def __new__(cls, kind, component=None, components=None, over_pair=None,
                on_strict_transform=None):
        if kind == "smooth":
            if not isinstance(component, str):
                raise ScheduleError("smooth step needs a component id")
            foreign = components, over_pair, on_strict_transform
        elif kind == "node":
            if (
                not isinstance(components, (tuple, list))
                or len(components) != 2
                or not all(map(isinstance, components, (str, str)))
                or components[0] == components[1]
            ):
                raise ScheduleError("node step needs two distinct component ids")
            components = tuple(components)
            foreign = component, over_pair, on_strict_transform
        elif kind == "infinitely_near":
            if type(over_pair) is not int or over_pair < 1:
                raise ScheduleError(
                    "infinitely_near step needs a positive over_pair index"
                )
            if not isinstance(on_strict_transform, (str, type(None))):
                raise ScheduleError("on_strict_transform is a component id or None")
            foreign = component, components
        else:
            raise ScheduleError(f"unknown step kind {kind!r}")
        # the other kinds' fields, in field order, must all be None
        if not foreign[0] is foreign[1] is foreign[-1] is None:
            names = [n for n in cls._fields[1:] if n not in STEP_FIELDS[kind]]
            name = next(n for n, value in zip(names, foreign) if value is not None)
            raise ScheduleError(f"{kind} step carries only "
                                f"{' and '.join(STEP_FIELDS[kind])}, not {name}")
        return tuple.__new__(cls, (kind, component, components, over_pair,
                                   on_strict_transform))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def smooth(cls, component):
        return cls("smooth", component)

    @classmethod
    def node(cls, components):
        return cls("node", None, components)

    @classmethod
    def infinitely_near(cls, over_pair, on_strict_transform=None):
        return cls("infinitely_near", None, None, over_pair, on_strict_transform)


class BlowupSchedule(namedtuple("BlowupSchedule", ("initial_type", "steps"))):
    """Initial cycle type plus one location per conjugate pair, the steps
    stored as a tuple."""

    __slots__ = ()

    def __new__(cls, initial_type, steps):
        self = tuple.__new__(cls, (initial_type, tuple(steps)))
        cls.__post_init__(self)
        return self

    def __post_init__(self):
        _check_initial_type(self.initial_type)
        for idx, step in enumerate(self.steps, start=1):
            if not isinstance(step, BlowupStep):
                raise ScheduleError("steps must be BlowupStep values")
            _check_step_index(idx, step.kind, step.over_pair)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def pairs(self):
        return len(self.steps)


class Necklace(namedtuple("Necklace", ("order", "degrees", "partners",
                                       "smooth_variant", "tau", "pairs"))):
    """A cycle as the classification reads it, by position: the component
    names in cycle order, their degrees C_i.(-K), each one's conjugate
    position, the smooth-variant flag, the torsion order tau of the
    torsion record it was given (None without one) and the number of pairs.

    It holds degrees, not squares: C.(-K) = C^2 + 2 on a rational
    component, but the smooth variant has degree (-K)^2 = 8 - 2n.  The
    conjugation is an involution that keeps the degrees, as it keeps -K,
    and m <= 4 + 2n: an initial cycle has at most 12 - K^2 = 4 components,
    a node pair adds two and any other pair none.  It is checked on
    construction and by ``_make``, as ``BlowupStep`` is."""

    __slots__ = ()

    def __new__(cls, order, degrees, partners, smooth_variant, tau, pairs):
        m = len(degrees) if isinstance(degrees, tuple) else 0
        if not (isinstance(order, tuple) and isinstance(partners, tuple)
                and len(order) == len(partners) == m and type(smooth_variant) is bool
                and (m == 1 if smooth_variant else m >= 2)
                and set(map(type, degrees + partners + (pairs,))) == {int}
                and (partners == (0,) if m == 1
                     else 0 <= min(partners) <= max(partners) < m
                     and (get := itemgetter(*partners))(partners) == tuple(range(m))
                     and get(degrees) == degrees)):
            raise ScheduleError(
                "a necklace needs tuples order, degrees and partners of one length"
                " m >= 2 (1 for the smooth variant, a bool), int degrees and pairs,"
                " and partners an involution on range(m) that keeps the degrees;"
                f" got {order, degrees, partners, smooth_variant}")
        check(0 <= pairs and m <= 4 + 2 * pairs, "a necklace on {} pairs needs"
              " pairs >= 0 and at most 4 + 2 * pairs components, got {}", pairs, m)
        if tau is not None and not (type(tau) is int and tau >= 1):
            TorsionSpec(tau)  # refuses all but inf, with its own message
        return tuple.__new__(cls, (order, degrees, partners, smooth_variant, tau,
                                   pairs))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class AnticanonicalCycle(namedtuple("AnticanonicalCycle", (
        "lattice", "order", "classes", "conjugate_names", "smooth_variant"),
        defaults=(False,))):
    """The realized cycle C = sum C_i in |-K_S| (or its smooth variant).

    ``order`` is the cyclic component order; ``conjugate_names`` the real
    involution on component ids.  The constructor performs no validation
    so tests can build synthetic cycles; ``validate()`` is the invariant
    oracle for a cycle built outside the engine, whose cycles are valid by
    construction.
    """

    __slots__ = ()

    @property
    def m(self):
        return len(self.order)

    def self_intersections(self):
        return tuple(self.classes[name].self_intersection for name in self.order)

    def degrees(self):
        minus_k = self.lattice.anticanonical().coeffs
        return tuple(_dot(self.classes[name].coeffs, minus_k) for name in self.order)

    def necklace(self, torsion: TorsionSpec | None = None) -> Necklace:
        """The cycle by position, with the torsion order of ``torsion``."""
        order, conj, names = self.order, self.conjugate_names, set(self.order)
        check(names <= set(self.classes) and set(map(conj.get, order)) <= names,
              "a necklace needs each component's class and a conjugate in {}", order)
        return Necklace(
            order, self.degrees(), tuple(map(order.index, map(conj.get, order))),
            self.smooth_variant, None if torsion is None else torsion.tau,
            self.lattice.pairs,
        )

    def validate(self):
        """Check every cycle invariant on the classes; raise ScheduleError
        at the first that fails.  The products of the components come from
        one Gram matrix, accumulated over the nonzero coefficients only."""
        order, m = self.order, self.m
        check(len(set(order)) == m, "component names must be unique")
        check(set(self.classes) == set(order), "classes must match order")
        check(all(c.lattice == self.lattice for c in self.classes.values()),
              "classes live in different lattices")
        coeffs = {name: c.coeffs for name, c in self.classes.items()}
        rows = [coeffs[name] for name in order]
        columns = list(zip(*rows))
        minus_k = self.lattice.anticanonical().coeffs
        total = tuple(map(sum, columns))
        check(total == minus_k, "cycle classes sum to {}, expected {}",
              total, minus_k)
        conj = self.conjugate_names
        check(set(conj) == set(order), "conjugation must cover all components")
        check(set(conj.values()) <= set(order),
              "conjugation must map components to components")
        for name, other in conj.items():
            check(conj[other] == name, "conjugation must be an involution")
            check(_involute(coeffs[name]) == coeffs[other],
                  "class of {} must be the conjugate of {}", other, name)
        gram = _gram(columns, m)
        squares = tuple(gram[:: m + 1])
        if self.smooth_variant:
            check(m == 1, "smooth variant is a single component")
            check(coeffs[order[0]] == minus_k,
                  "smooth variant's class must be -K")
            check(adjunction_genus(self.classes[order[0]]) == 1,
                  "smooth variant must have arithmetic genus 1")
        else:
            check(m >= 2, "a cycle has at least two components")
            # components i != j meet once per cyclic edge between them: twice
            # on a two-component cycle, else once if adjacent and never if not
            expected = [0] * (m * m)
            for i in range(m):
                j = (i + 1) % m
                expected[i * m + j] += 1
                expected[j * m + i] += 1
            expected[:: m + 1] = squares
            # a row of ``expected`` sums to its square + 2, and a row of
            # ``gram`` to C.(-K), as the classes sum to -K: equal matrices
            # make every component of genus 0 as well
            if gram != expected:
                for name, row, c2 in zip(order, range(0, m * m, m), squares):
                    check(sum(gram[row:row + m]) == c2 + 2,
                          "component {} must have arithmetic genus 0", name)
                # the first pair i < j that a row-by-row scan meets
                x = next(x for x, (g, e) in enumerate(zip(gram, expected)) if g != e)
                check(False, "{}.{} = {}, expected {}", order[x // m],
                      order[x % m], gram[x], expected[x])
        return self


def _gram(columns, m):
    """The Gram matrix of m classes given by their coefficient ``columns``,
    as one flat list, row by row.  It is accumulated column by column over
    the nonzero coefficients only: l.f = 1 between the classes that carry l
    or f (the initial components), and E_k^2 = -1 between the few that
    carry each E_k."""
    gram = [0] * (m * m)
    lf = [(i, a, b) for i, (a, b) in enumerate(zip(*columns[:2])) if a or b]
    for i, a, b in lf:
        for j, a2, b2 in lf:
            gram[i * m + j] = a * b2 + b * a2
    positions = range(m)
    for column in columns[2:]:
        support = list(compress(positions, column))
        for i in support:
            row, v = i * m, column[i]
            for j in support:
                gram[row + j] -= v * column[j]
    return gram


def smooth_anticanonical_cycle(pairs):
    """The smooth-elliptic anticanonical member (nef by construction)."""
    lattice = SurfaceLattice(pairs)
    cycle = AnticanonicalCycle(
        lattice=lattice,
        order=("C",),
        classes={"C": lattice.anticanonical()},
        conjugate_names={"C": "C"},
        smooth_variant=True,
    )
    return cycle.validate()


#: Each initial cycle: its component names in cycle order, their (l, f)
#: coefficients and the position of each one's conjugate.
_INITIAL_CYCLES = {
    "I": (("F", "G", "Fbar", "Gbar"), ((0, 1), (1, 0), (0, 1), (1, 0)), (2, 3, 0, 1)),
    "II": (("F", "C0"), ((0, 1), (2, 1)), (0, 1)),
    "III": (("A", "Abar"), ((1, 1), (1, 1)), (1, 0)),
}
#: Each initial cycle's positional key (see ``RealizationState``)
_ROOT_KEYS = {t: (t, tuple(2 * a * b for a, b in lf), partners, (), frozenset())
              for t, (_, lf, partners) in _INITIAL_CYCLES.items()}


class RealizationState:
    """The cycle after the first k steps of a schedule on ``pairs`` pairs,
    held by position: ``order`` names the components in cycle order, ``key``
    is (initial type, squares in cycle order, conjugate positions, each
    placed pair's host position or None for a node pair, the pairs whose
    point on a strict transform is blown up).  ``extend`` validates a step
    and derives the child in O(m), recording the step as its ``move`` and in
    ``lose`` the positions it takes E_{2k-1} and E_{2k} from.  No state
    holds divisor classes or a lattice, and ``necklace`` reads the key
    alone; ``realize_cycle`` replays a schedule's states on the classes.
    """

    __slots__ = ("pairs", "order", "key", "parent", "move", "lose")

    def __init__(self, initial_type: str, pairs: int):
        _check_initial_type(initial_type)
        _check_pairs(pairs)
        self.pairs, self.order = pairs, _INITIAL_CYCLES[initial_type][0]
        self.key = _ROOT_KEYS[initial_type]
        self.parent = self.move = self.lose = None

    initial_type = property(lambda self: self.key[0])
    squares = property(lambda self: self.key[1])

    @property
    def steps(self) -> tuple[BlowupStep, ...]:
        steps, state = [], self
        while state.parent is not None:
            steps.append(state.move)
            state = state.parent
        return tuple(steps[::-1])

    def extend(self, step: BlowupStep) -> RealizationState:
        """The state with pair k + 1 placed at ``step``; a step that is not a
        ``BlowupStep`` or goes beyond ``pairs`` raises ScheduleError."""
        if not isinstance(step, BlowupStep):
            raise ScheduleError(f"a step must be a BlowupStep, got {step!r}")
        kind, component, components, over_pair, target = step
        initial, squares, partners, hosts, consumed = self.key
        k = len(hosts) + 1
        if k > self.pairs:
            raise ScheduleError(f"step {k} exceeds the {self.pairs} pairs "
                                "of this state")
        if kind == "node":
            order, squares, partners, hosts, lose = self._node(k, *components)
        else:
            if kind == "smooth":
                p = self._position(component)
                if self._on_real_fibre(component):
                    raise RealizabilityError(
                        "real-fibre-location",
                        "no blown-up point may lie on a smooth point of the "
                        "real fibre F; only its nodes with C0 can be blown",
                    )
            else:
                _check_step_index(k, kind, over_pair)
                p, consumed = self._infinitely_near(over_pair, target)
            order, squares, hosts = self.order, list(squares), hosts + (p,)
            lose = ((p,), (partners[p],))
        for p in lose[0] + lose[1]:
            squares[p] -= 1  # the pair is fresh: X.E = 0 and E^2 = -1
        child = object.__new__(RealizationState)
        child.pairs, child.order, child.parent = self.pairs, order, self
        child.move, child.lose = step, lose
        child.key = (initial, tuple(squares), partners, hosts, consumed)
        return child

    def necklace(self, torsion: TorsionSpec | None = None) -> Necklace:
        """The realized cycle's necklace with ``torsion``, read off the key."""
        _, squares, partners, hosts, _ = self.key
        return Necklace(self.order, tuple([c2 + 2 for c2 in squares]), partners,
                        False, None if torsion is None else torsion.tau, len(hosts))

    # -- the next step ------------------------------------------------------
    def _on_real_fibre(self, name):
        return self.key[0] == "II" and name == "F"

    def _position(self, name):
        try:
            return self.order.index(name)
        except ValueError:
            raise ScheduleError(f"component {name!r} does not exist; "
                                f"cycle is {self.order}") from None

    def candidates(self) -> list[BlowupStep]:
        """Every location for the next step, one per conjugation orbit;
        smooth points of the real fibre are left out, as ``extend`` rejects
        them."""
        order, (_, _, partners, hosts, consumed) = self.order, self.key
        conj = [order[p] for p in partners]
        out = [BlowupStep.smooth(name) for name, other in zip(order, conj)
               if name <= other and not self._on_real_fibre(name)]
        if len(order) == 2:  # its two nodes are one conjugate pair
            out.append(BlowupStep.node(order))
        else:
            for c, d, cc, cd in zip(order, order[1:] + order[:1],
                                    conj, conj[1:] + conj[:1]):
                edge = (c, d) if c < d else (d, c)
                if edge < ((cc, cd) if cc < cd else (cd, cc)):
                    out.append(BlowupStep.node(edge))
        # the exceptional of a node pair (host None) is itself a component
        out.extend(BlowupStep.infinitely_near(j, order[host])
                   for j, host in enumerate(hosts, 1)
                   if host is not None and j not in consumed)
        return out

    def _node(self, k, c, d):
        """Pair k at the node c-d and its conjugate node: the child's order,
        squares before the pair's removals, partners, hosts and ``lose``."""
        order, (_, squares, partners, hosts, _) = self.order, self.key
        pc, pd = self._position(c), self._position(d)
        m = len(order)
        if m == 2:  # the two nodes are a conjugate pair: one step blows both
            i, j, qc, qd = 0, 1, pc, pd
        else:  # the edge p-q of an m-cycle sits after p when q follows p
            i = pc if (pc + 1) % m == pd else pd if (pd + 1) % m == pc else None
            if i is None:
                raise ScheduleError(
                    f"components {c} and {d} are not adjacent; cycle is {order}"
                )
            qc, qd = partners[pc], partners[pd]
            if {qc, qd} == {pc, pd}:
                raise ScheduleError(
                    f"node ({c},{d}) is its own conjugate and cannot host "
                    "a conjugate pair of points"
                )
            j = qc if (qc + 1) % m == qd else qd if (qd + 1) % m == qc else None
            check(j is not None, "conjugate edge ({},{}) of ({},{}) is missing",
                  order[qc], order[qd], c, d,
                  invariant="realization-conjugate-edge")
        # E goes in after position i and E' after position j: a position x
        # of this state becomes moved[x]
        lo, hi = (i, j) if i < j else (j, i)
        moved = (*range(lo + 1), *range(lo + 2, hi + 2), *range(hi + 3, m + 2))
        names, new_squares = list(order), list(squares)
        new_partners = [*map(moved.__getitem__, partners)]
        new = ((i + 1, f"E{2 * k - 1}", moved[j] + 1),
               (j + 1, f"E{2 * k}", moved[i] + 1))
        for at, name, partner in (new[::-1] if i < j else new):  # later first
            names.insert(at, name)
            new_squares.insert(at, -1)
            new_partners.insert(at, partner)
        hosts = tuple([h if h is None else moved[h] for h in hosts]) + (None,)
        lose = ((moved[pc], moved[pd]), (moved[qc], moved[qd]))
        return tuple(names), new_squares, tuple(new_partners), hosts, lose

    def _infinitely_near(self, j, target):
        """Pair k's point on pair j's exceptional curve: its position, consumed."""
        order, (_, _, partners, hosts, consumed) = self.order, self.key
        h = hosts[j - 1]
        if h is None:  # pair j blew a node: its exceptional is a component
            if target is not None:
                raise ScheduleError(
                    f"the exceptional curve of pair {j} is a cycle component "
                    f"and meets {target!r} in a node; encode that point as a "
                    "node location"
                )
            return order.index(f"E{2 * j - 1}"), consumed  # a generic point
        host, conj_host = order[h], order[partners[h]]
        if target is None:
            raise RealizabilityError(
                "point-off-anticanonical-cycle",
                f"a generic point of the exceptional curve of pair {j} lies "
                "off the anticanonical cycle; blowing it up leaves no "
                "anticanonical cycle on the new surface",
            )
        if target not in (host, conj_host):
            raise ScheduleError(
                f"the exceptional curve of pair {j} meets only "
                f"{host!r}/{conj_host!r}, not {target!r}"
            )
        if j in consumed:
            raise ScheduleError(
                f"inconsistent infinitely-near references: the intersection "
                f"of pair {j}'s exceptional curve with {host!r} was already "
                "blown up"
            )
        return (h if target == host else partners[h]), consumed | {j}


def realize_cycle(schedule: BlowupSchedule) -> AnticanonicalCycle:
    """Apply every step of the schedule and return its cycle in the lattice
    of ``schedule.pairs`` pairs, valid by construction.

    ``RealizationState.extend`` is folded over the steps; then the states
    are replayed once on coefficient lists, from the root's literal ones.
    Step k removes E = E_{2k-1} and E' = E_{2k} from the components its
    ``lose`` names, whose squares ``extend`` lowered, once no list meets
    that pair yet (checked, O(m)), and adds E, E' as new components after a
    node step.  The fresh-pair check guards only these lists: pair k's
    columns, coefficients 2k and 2k + 1, are zero on the root and written
    only by step k, so it fails only if ``SurfaceLattice._exceptional_coeffs``
    is broken, and then only this replay is wrong, since
    ``RealizationState.necklace`` reads no list.  If every class has
    coefficient 0 at E and E', then X.E = X.E' = 0 for each component X,
    and:

      * (X - E)^2 = X^2 - 1 and (X - E).(-K) drops by 1 as well, since -K
        loses E and E'; so each removal lowers the carried square by 1, a
        real component losing both drops by 2, and genus 0
        (X.(-K) = X^2 + 2) carries over.  A new E has E^2 = -1, E.(-K) = 1.
      * (X - a).(Y - b) = X.Y + a.b, so X.Y falls by 1 for each new class
        that X and Y both lost and is unchanged otherwise.  A smooth or
        infinitely-near step removes E from the component its point lies on
        and E' from that component's conjugate (both from a real one): no
        product changes, only those squares.  A node step removes E
        from c and d, so c.d falls from 1 to 0 (from 2 to 0 on a
        two-component cycle, which loses E and E' on both), and E, inserted
        between them, meets each with product 1 and the rest with 0; E'
        does the same at the conjugate node.  The products again match the
        adjacency.
      * A step removes E + E' in total net of the new components, as -K
        does, so the classes still sum to -K; E' is placed wherever the
        involution sends E, so conjugate classes stay conjugate.

    The root is a literal: it alone is validated.  The component count
    grows by 2 per node step; smooth and infinitely-near steps keep it
    fixed.
    """
    root = RealizationState(schedule.initial_type, schedule.pairs)
    states = list(accumulate(schedule.steps, RealizationState.extend, initial=root))
    lattice, pad = SurfaceLattice(schedule.pairs), [0] * (2 * schedule.pairs)
    names, lf, _ = _INITIAL_CYCLES[schedule.initial_type]
    classes = {name: [*c, *pad] for name, c in zip(names, lf)}
    for k, state in enumerate(states[1:], 1):
        lo, values = 2 * k, classes.values()  # E_{2k-1} sits at coefficient 2k
        if any(map(itemgetter(lo), values)) or any(map(itemgetter(lo + 1), values)):
            stale = [name for name, c in classes.items() if c[lo] or c[lo + 1]]
            check(not stale, "components {} already meet E{} or E{} before step {}",
                  stale, 2 * k - 1, 2 * k, k, invariant="realization-fresh-pair")
        for column, lost in enumerate(state.lose, lo):
            for p in lost:
                classes[state.order[p]][column] -= 1
        if state.move.kind == "node":  # E and E' are components
            for e in (lo - 1, lo):
                classes[f"E{e}"] = list(lattice._exceptional_coeffs(e))
    order = states[-1].order
    cycle = AnticanonicalCycle(
        lattice, order, {name: DivisorClass(lattice, c) for name, c in classes.items()},
        {name: order[p] for name, p in zip(order, states[-1].key[2])},
    )
    return cycle if schedule.steps else cycle.validate()


_ELEMENTARY_MAP = {"A": "G", "Abar": "Gbar", "E1": "F", "E2": "Fbar"}


def elementary_transform(schedule: BlowupSchedule) -> BlowupSchedule:
    """Convert a nodes-blown-first cycle of two (1,1)-curves to the
    four-component form: blow up the conjugate node pair, contract the
    strict transforms of the fibres through it.

    On components this reads A -> G, Abar -> Gbar, and the two node
    exceptionals become the fibres F, Fbar; the new first step blows a
    smooth conjugate pair on F/Fbar (the images of the contracted fibres).
    Realizing input and output gives isomorphic weighted cycles.
    """
    if schedule.initial_type != "III":
        raise ScheduleError(
            "elementary transform applies to the two-conjugate-(1,1)-curves "
            "initial cycle only"
        )
    if not schedule.steps or schedule.steps[0].kind != "node":
        raise ScheduleError(
            "elementary transform needs the conjugate node pair blown first; "
            "schedules that never blow the nodes realize directly (and are "
            "nef when all points are smooth on the two components)"
        )
    first = schedule.steps[0]
    if set(first.components) != {"A", "Abar"}:
        raise ScheduleError(
            f"the first node step must blow the nodes A∩Abar, "
            f"got {first.components}"
        )
    mapped = (BlowupStep.smooth("F"), *map(_map_step, schedule.steps[1:]))
    return BlowupSchedule("I", mapped)


def _map_step(step: BlowupStep) -> BlowupStep:
    rename = _ELEMENTARY_MAP
    if step.kind == "smooth":
        return BlowupStep.smooth(rename.get(step.component, step.component))
    if step.kind == "node":
        c, d = step.components
        return BlowupStep.node((rename.get(c, c), rename.get(d, d)))
    if step.over_pair == 1:
        if step.on_strict_transform is not None:
            raise ScheduleError(
                "a point on the exceptional of the node pair that also lies "
                "on a strict transform is a node; encode it as a node location"
            )
        # generic point of the old node exceptional = smooth point of the
        # new fibre component
        return BlowupStep.smooth("F")
    target = step.on_strict_transform
    return BlowupStep.infinitely_near(
        step.over_pair, None if target is None else rename.get(target, target)
    )
