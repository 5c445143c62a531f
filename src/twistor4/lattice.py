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

A ``RealizationState`` is the cycle after the first k steps: component
classes as plain coefficient tuples, their self-intersections, cyclic order
and the conjugation.  ``extend`` places one more pair and returns a new
state, ``candidates`` lists the locations the next step may take, and
``cycle`` wraps each class once in a ``DivisorClass``, the boundary type.
``realize_cycle`` is the fold of ``extend`` over a schedule's steps; the
enumerator in ``classify`` walks the same states depth-first, extending each
parent once per child.

A realized cycle is valid by construction.  Step k subtracts only the fresh
classes E_{2k-1} and E_{2k}, so ``extend`` checks just that every component
has coefficient 0 at both (O(m)), and each invariant ``validate`` tests
carries over from the parent (see ``RealizationState``).  ``cycle`` therefore
validates only the root, a literal; ``AnticanonicalCycle.validate`` stays the
full oracle for cycles built elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, reduce
from operator import mul, sub

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
    "smooth_anticanonical_cycle",
    "INITIAL_TYPES",
    "STEP_FIELDS",
    "RealizationState",
    "realize_cycle",
    "elementary_transform",
]


@dataclass(frozen=True)
class SurfaceLattice:
    """Pic of a blow-up of P^1 x P^1 at ``pairs`` conjugate point pairs.

    ``pairs`` = 0 is the un-blown ruled surface itself (rank 2); the n = 4
    requirement belongs to the classifier, not to the lattice.
    """

    pairs: int

    def __post_init__(self):
        if self.pairs < 0:
            raise ScheduleError("pairs must be non-negative")

    @property
    def rank(self):
        return 2 * self.pairs + 2

    def divisor(self, a, b, multiplicities=()):
        """The class a*l + b*f + sum(m_i E_i); multiplicities as stored."""
        ms = tuple(int(m) for m in multiplicities)
        if len(ms) > 2 * self.pairs:
            raise ScheduleError("more multiplicities than exceptional classes")
        ms = ms + (0,) * (2 * self.pairs - len(ms))
        return DivisorClass(self, (int(a), int(b)) + ms)

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

    @cache
    def anticanonical(self):
        return self.divisor(2, 2, (-1,) * (2 * self.pairs))

    def conjugate_index(self, i):
        """The exceptional index paired with i under the real involution."""
        return i + 1 if i % 2 == 1 else i - 1


@dataclass(frozen=True)
class DivisorClass:
    """Integer vector (a, b, m_1..m_2n) = a*l + b*f + sum(m_i E_i)."""

    lattice: SurfaceLattice
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.lattice.rank:
            raise ScheduleError(
                f"class needs {self.lattice.rank} coefficients, "
                f"got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", tuple(map(int, self.coeffs)))

    def dot(self, other: "DivisorClass") -> int:
        if self.lattice != other.lattice:
            raise ScheduleError("classes live in different lattices")
        return _dot(self.coeffs, other.coeffs)

    @property
    def self_intersection(self):
        return self.dot(self)

    def __add__(self, other):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if self.lattice != other.lattice:
            raise ScheduleError("classes live in different lattices")
        return DivisorClass(
            self.lattice, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return DivisorClass(self.lattice, tuple(k * c for c in self.coeffs))

    def __mul__(self, k):
        return self.__rmul__(k)

    def __str__(self):
        pairs = self.lattice.pairs
        names = ("l", "f") + tuple(f"E{i}" for i in range(1, 2 * pairs + 1))
        return format_combination(self.coeffs, names)


def _dot(s, o):
    """The intersection pairing of two coefficient tuples (Gram form)."""
    return s[0] * o[1] + s[1] * o[0] - sum(map(mul, s[2:], o[2:]))


def _involute(c):
    """The real involution on a coefficient tuple (see ``real_involution``)."""
    return c[:2] + tuple(m for pair in zip(c[3::2], c[2::2]) for m in pair)


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
#: Step kind -> the other kinds' fields, which a step of that kind leaves None
_FOREIGN_FIELDS = {
    kind: tuple(name for names in STEP_FIELDS.values() for name in names
                if name not in own)
    for kind, own in STEP_FIELDS.items()
}


def _check_initial_type(initial_type):
    if initial_type not in INITIAL_TYPES:
        raise ScheduleError(
            f"initial_type must be one of {INITIAL_TYPES}, got {initial_type!r}"
        )


def _check_step_index(idx, step):
    if step.kind == "infinitely_near" and step.over_pair >= idx:
        raise ScheduleError(
            f"step {idx} is infinitely near over pair {step.over_pair}, "
            "which is not strictly earlier"
        )


@dataclass(frozen=True)
class BlowupStep:
    """Location of one point of a conjugate pair (the other is implied)."""

    kind: str
    component: str | None = None
    components: tuple[str, str] | None = None
    over_pair: int | None = None
    on_strict_transform: str | None = None

    def __post_init__(self):
        foreign = (
            _FOREIGN_FIELDS.get(self.kind) if isinstance(self.kind, str) else None
        )
        if foreign is None:
            raise ScheduleError(f"unknown step kind {self.kind!r}")
        if self.kind == "smooth":
            if not isinstance(self.component, str):
                raise ScheduleError("smooth step needs a component id")
        elif self.kind == "node":
            comps = self.components
            if (
                not isinstance(comps, (tuple, list))
                or len(comps) != 2
                or not all(isinstance(c, str) for c in comps)
                or comps[0] == comps[1]
            ):
                raise ScheduleError("node step needs two distinct component ids")
            object.__setattr__(self, "components", (comps[0], comps[1]))
        else:
            over = self.over_pair
            if not isinstance(over, int) or isinstance(over, bool) or over < 1:
                raise ScheduleError(
                    "infinitely_near step needs a positive over_pair index"
                )
            if not isinstance(self.on_strict_transform, (str, type(None))):
                raise ScheduleError("on_strict_transform is a component id or None")
        for name in foreign:
            if getattr(self, name) is not None:
                raise ScheduleError(
                    f"{self.kind} step carries only "
                    f"{' and '.join(STEP_FIELDS[self.kind])}, not {name}"
                )

    @classmethod
    def smooth(cls, component):
        return cls("smooth", component=component)

    @classmethod
    def node(cls, components):
        return cls("node", components=components)

    @classmethod
    def infinitely_near(cls, over_pair, on_strict_transform=None):
        return cls(
            "infinitely_near",
            over_pair=over_pair,
            on_strict_transform=on_strict_transform,
        )


@dataclass(frozen=True)
class BlowupSchedule:
    """Initial cycle type plus one location per conjugate pair."""

    initial_type: str
    steps: tuple[BlowupStep, ...]

    def __post_init__(self):
        _check_initial_type(self.initial_type)
        steps = tuple(self.steps)
        for idx, step in enumerate(steps, start=1):
            if not isinstance(step, BlowupStep):
                raise ScheduleError("steps must be BlowupStep values")
            _check_step_index(idx, step)
        object.__setattr__(self, "steps", steps)

    @property
    def pairs(self):
        return len(self.steps)


@dataclass
class AnticanonicalCycle:
    """The realized cycle C = sum C_i in |-K_S| (or its smooth variant).

    ``order`` is the cyclic component order; ``conjugate_names`` the real
    involution on component ids.  ``squares`` holds the self-intersections
    in cycle order when the realization engine carried them along, else
    None.  The constructor performs no validation so tests can build
    synthetic cycles; ``validate()`` is the invariant oracle for a cycle
    built outside the engine, whose cycles are valid by construction.
    """

    lattice: SurfaceLattice
    order: tuple[str, ...]
    classes: dict[str, DivisorClass]
    conjugate_names: dict[str, str]
    torsion: TorsionSpec | None = None
    smooth_variant: bool = False
    squares: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def m(self):
        return len(self.order)

    def is_real(self, name):
        return self.conjugate_names[name] == name

    def self_intersections(self):
        if self.squares is not None:
            return self.squares
        return tuple(self.classes[name].self_intersection for name in self.order)

    def degrees(self):
        if self.squares is not None:  # genus 0: C.(-K) = C^2 + 2
            return tuple(c2 + 2 for c2 in self.squares)
        minus_k = self.lattice.anticanonical().coeffs
        return tuple(_dot(self.classes[name].coeffs, minus_k) for name in self.order)

    def with_torsion(self, torsion):
        return replace(self, torsion=torsion)

    def validate(self):
        """Check every cycle invariant on the classes; raise ScheduleError
        at the first that fails.  O(m^2): it compares all component pairs."""
        order, m = self.order, self.m
        check(len(set(order)) == m, "component names must be unique")
        check(set(self.classes) == set(order), "classes must match order")
        check(all(c.lattice == self.lattice for c in self.classes.values()),
              "classes live in different lattices")
        coeffs = {name: c.coeffs for name, c in self.classes.items()}
        minus_k = self.lattice.anticanonical().coeffs
        total = tuple(map(sum, zip(*(coeffs[name] for name in order))))
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
        if self.smooth_variant:
            check(m == 1, "smooth variant is a single component")
            check(coeffs[order[0]] == minus_k,
                  "smooth variant's class must be -K")
            check(adjunction_genus(self.classes[order[0]]) == 1,
                  "smooth variant must have arithmetic genus 1")
        else:
            check(m >= 2, "a cycle has at least two components")
            for name in order:
                c = coeffs[name]
                check(_dot(c, minus_k) == _dot(c, c) + 2,
                      "component {} must have arithmetic genus 0", name)
            # components i < j meet once per cyclic edge between them: twice
            # on a two-component cycle, else once if adjacent and never if not
            for i, ni in enumerate(order):
                ci = coeffs[ni]
                for j in range(i + 1, m):
                    product = _dot(ci, coeffs[order[j]])
                    expected = (j - i == 1) + (j - i == m - 1)
                    check(product == expected, "{}.{} = {}, expected {}",
                          ni, order[j], product, expected)
        if self.squares is not None:
            squares = tuple(_dot(coeffs[name], coeffs[name]) for name in order)
            check(self.squares == squares,
                  "carried self-intersections {} disagree with the classes, "
                  "which give {}", self.squares, squares)
        return self


def smooth_anticanonical_cycle(pairs, torsion=None):
    """The smooth-elliptic anticanonical member (nef by construction)."""
    lattice = SurfaceLattice(pairs)
    cycle = AnticanonicalCycle(
        lattice=lattice,
        order=("C",),
        classes={"C": lattice.anticanonical()},
        conjugate_names={"C": "C"},
        torsion=torsion,
        smooth_variant=True,
    )
    return cycle.validate()


class RealizationState:
    """The cycle after the first k steps of a schedule on ``pairs`` pairs.

    ``extend`` returns a new state and leaves this one untouched, so a
    depth-first walk shares each prefix with its whole subtree.

    Every state's cycle passes ``AnticanonicalCycle.validate``; ``extend``
    checks only that the pair it places is fresh.  Step k removes
    E = E_{2k-1} and E' = E_{2k} from some components and adds E, E' as new
    components after a node step.  If every class has coefficient 0 at E and
    E' (checked, O(m)), then X.E = X.E' = 0 for each component X, and:

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

    The root is a literal: ``cycle`` validates it and no other state.
    """

    def __init__(self, initial_type: str, pairs: int):
        _check_initial_type(initial_type)
        self.initial_type = initial_type
        self.lattice = SurfaceLattice(pairs)
        self.steps: tuple[BlowupStep, ...] = ()
        pad = (0,) * (2 * pairs)
        l, f = (1, 0) + pad, (0, 1) + pad
        if initial_type == "I":
            self.order = ["F", "G", "Fbar", "Gbar"]
            self.classes = {"F": f, "G": l, "Fbar": f, "Gbar": l}
            self.conj = {"F": "Fbar", "Fbar": "F", "G": "Gbar", "Gbar": "G"}
        elif initial_type == "II":
            self.order = ["F", "C0"]
            self.classes = {"F": f, "C0": (2, 1) + pad}
            self.conj = {"F": "F", "C0": "C0"}
        else:  # III
            self.order = ["A", "Abar"]
            self.classes = {"A": (1, 1) + pad, "Abar": (1, 1) + pad}
            self.conj = {"A": "Abar", "Abar": "A"}
        self.squares = {name: _dot(c, c) for name, c in self.classes.items()}
        self.hosts: dict[int, str | None] = {}
        self.consumed: frozenset[int] = frozenset()

    def extend(self, step: BlowupStep) -> RealizationState:
        """The state with pair k + 1 placed at ``step``, once no component
        is found to meet that pair's classes yet (the one check a step
        needs); a step beyond ``pairs`` raises ScheduleError."""
        k = len(self.steps) + 1
        if k > self.lattice.pairs:
            raise ScheduleError(
                f"step {k} exceeds the {self.lattice.pairs} pairs of this state"
            )
        _check_step_index(k, step)
        lo = 2 * k  # E_{2k-1} and E_{2k} sit at coefficients 2k and 2k + 1
        stale = [name for name, c in self.classes.items() if any(c[lo:lo + 2])]
        check(not stale, "components {} already meet E{} or E{} before step {}",
              stale, 2 * k - 1, 2 * k, k, invariant="realization-fresh-pair")
        # copy the containers a step mutates in place; the frozenset
        # ``consumed`` is rebound, never mutated
        child = object.__new__(RealizationState)
        child.__dict__ = dict(
            self.__dict__,
            steps=self.steps + (step,),
            order=list(self.order),
            classes=dict(self.classes),
            squares=dict(self.squares),
            conj=dict(self.conj),
            hosts=dict(self.hosts),
        )
        getattr(child, f"_apply_{step.kind}")(k, step)
        return child

    def cycle(self) -> AnticanonicalCycle:
        """The cycle in the lattice of the pairs placed so far, carrying its
        self-intersections; valid by construction past the root."""
        lattice = SurfaceLattice(len(self.steps))
        rank = lattice.rank  # a prefix drops the pairs not yet placed
        classes = {n: DivisorClass(lattice, c[:rank]) for n, c in self.classes.items()}
        squares = tuple(map(self.squares.__getitem__, self.order))
        result = AnticanonicalCycle(
            lattice, tuple(self.order), classes, dict(self.conj), squares=squares
        )
        return result if self.steps else result.validate()

    # -- helpers ---------------------------------------------------------
    def _subtract(self, name, e_index):
        e = self.lattice._exceptional_coeffs(e_index)
        self.classes[name] = tuple(map(sub, self.classes[name], e))
        self.squares[name] -= 1  # the pair is fresh: name.E = 0, E^2 = -1

    def _place(self, k, name):
        """Pair k at a smooth point of ``name`` and its conjugate point."""
        self._subtract(name, 2 * k - 1)
        self._subtract(self.conj[name], 2 * k)
        self.hosts[k] = name

    def _require_component(self, name):
        if name not in self.classes:
            raise ScheduleError(
                f"component {name!r} does not exist; cycle is {tuple(self.order)}"
            )

    def _edge_index(self, c, d):
        m = len(self.order)
        for i in range(m):
            if {self.order[i], self.order[(i + 1) % m]} == {c, d}:
                return i
        return None

    # -- the next step ------------------------------------------------------
    def _on_real_fibre(self, name):
        return self.initial_type == "II" and name == "F"

    def candidates(self) -> list[BlowupStep]:
        """Every location for the next step, one per conjugation orbit;
        smooth points of the real fibre are left out, as ``_apply_smooth``
        rejects them."""
        order, conj = self.order, self.conj
        out = [
            BlowupStep.smooth(name)
            for name in order
            if not self._on_real_fibre(name) and name <= conj[name]
        ]
        if len(order) == 2:  # its two nodes are one conjugate pair
            out.append(BlowupStep.node(tuple(order)))
        else:
            for c, d in zip(order, order[1:] + order[:1]):
                edge = tuple(sorted((c, d)))
                if edge < tuple(sorted((conj[c], conj[d]))):
                    out.append(BlowupStep.node(edge))
        out.extend(
            BlowupStep.infinitely_near(j, host)
            for j, host in sorted(self.hosts.items())
            # the exceptional of a node step is itself a component
            if host is not None and j not in self.consumed
        )
        return out

    def _apply_smooth(self, k, step):
        self._require_component(step.component)
        if self._on_real_fibre(step.component):
            raise RealizabilityError(
                "real-fibre-location",
                "no blown-up point may lie on a smooth point of the real "
                "fibre F; only its nodes with C0 can be blown",
            )
        self._place(k, step.component)

    def _apply_node(self, k, step):
        c, d = step.components
        self._require_component(c)
        self._require_component(d)
        e_primary, e_conj = 2 * k - 1, 2 * k
        primary_name, conj_name = f"E{e_primary}", f"E{e_conj}"
        if len(self.order) == 2:
            # the two nodes are a conjugate pair: one step blows both
            for name in (c, d):
                self._subtract(name, e_primary)
                self._subtract(name, e_conj)
            first, second = self.order
            self.order = [first, primary_name, second, conj_name]
        else:
            i = self._edge_index(c, d)
            if i is None:
                raise ScheduleError(
                    f"components {c} and {d} are not adjacent; "
                    f"cycle is {tuple(self.order)}"
                )
            cc, cd = self.conj[c], self.conj[d]
            if {cc, cd} == {c, d}:
                raise ScheduleError(
                    f"node ({c},{d}) is its own conjugate and cannot host "
                    "a conjugate pair of points"
                )
            self._subtract(c, e_primary)
            self._subtract(d, e_primary)
            self.order.insert(i + 1, primary_name)
            j = self._edge_index(cc, cd)
            check(j is not None, "conjugate edge ({},{}) of ({},{}) is missing",
                  cc, cd, c, d, invariant="realization-conjugate-edge")
            self._subtract(cc, e_conj)
            self._subtract(cd, e_conj)
            self.order.insert(j + 1, conj_name)
        self.classes[primary_name] = self.lattice._exceptional_coeffs(e_primary)
        self.classes[conj_name] = self.lattice._exceptional_coeffs(e_conj)
        self.squares[primary_name] = self.squares[conj_name] = -1
        self.conj[primary_name] = conj_name
        self.conj[conj_name] = primary_name
        self.hosts[k] = None

    def _apply_infinitely_near(self, k, step):
        j = step.over_pair
        target = step.on_strict_transform
        host = self.hosts[j]
        if host is None:  # pair j blew a node: its exceptional is a component
            if target is not None:
                raise ScheduleError(
                    f"the exceptional curve of pair {j} is a cycle component "
                    f"and meets {target!r} in a node; encode that point as a "
                    "node location"
                )
            self._place(k, f"E{2 * j - 1}")  # a generic point of it
            return
        if target is None:
            raise RealizabilityError(
                "point-off-anticanonical-cycle",
                f"a generic point of the exceptional curve of pair {j} lies "
                "off the anticanonical cycle; blowing it up leaves no "
                "anticanonical cycle on the new surface",
            )
        if target not in (host, self.conj[host]):
            raise ScheduleError(
                f"the exceptional curve of pair {j} meets only "
                f"{host!r}/{self.conj[host]!r}, not {target!r}"
            )
        if j in self.consumed:
            raise ScheduleError(
                f"inconsistent infinitely-near references: the intersection "
                f"of pair {j}'s exceptional curve with {host!r} was already "
                "blown up"
            )
        self.consumed = self.consumed | {j}
        self._place(k, target)


def realize_cycle(schedule: BlowupSchedule) -> AnticanonicalCycle:
    """Apply every step of the schedule and return its cycle, valid by
    construction: a fold of ``RealizationState.extend`` over the steps.

    The component count grows by 2 per node step; smooth and
    infinitely-near steps keep it fixed.
    """
    start = RealizationState(schedule.initial_type, schedule.pairs)
    return reduce(RealizationState.extend, schedule.steps, start).cycle()


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
    mapped = [BlowupStep.smooth("F")]
    for step in schedule.steps[1:]:
        mapped.append(_map_step(step))
    return BlowupSchedule("I", tuple(mapped))


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
