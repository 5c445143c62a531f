"""Real blow-ups of P^1 x P^1 and their anticanonical cycles, by position.

The surface S is P^1 x P^1 blown up in n conjugate pairs of (possibly
infinitely near) points; its anticanonical cycle starts as one of three
initial cycles of curves of bidegree (1,0), (0,1), (2,1) or (1,1).

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
position only.  A ``Necklace`` is what the classification reads of a
cycle: names, degrees and conjugation by position, with tau passed in; a
state reads it off its positional key, with no divisor class.

The class route (``SurfaceLattice``, ``DivisorClass``,
``AnticanonicalCycle``, ``realize_cycle`` and the rest of ``__all__`` not
defined here) lives in ``oracle``, an independent check that the positional
engine never runs.  This module's ``__getattr__`` still gives those names,
each bound here on first use, so ``from twistor4.lattice import *`` is
unchanged and ``import twistor4.lattice`` alone loads no class route.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .cycles import TorsionSpec
from .errors import InvariantError, RealizabilityError, ScheduleError

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


def __getattr__(name):
    # the class route's names of ``__all__`` live in ``oracle``; only the
    # public surface and perfbench's tracer look one up here, and get it
    # bound here on first use, then as a dict hit
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


def check_pairs(pairs):
    """Refuse a pair count that is not an int >= 0 (ScheduleError)."""
    if type(pairs) is not int:
        raise ScheduleError(f"pairs must be an int, got {pairs!r}")
    if pairs < 0:
        raise ScheduleError("pairs must be non-negative")


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


def _check_step_index(idx, over_pair):  # of an infinitely-near step
    if over_pair >= idx:
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
            if step.kind == "infinitely_near":  # only it names another step
                _check_step_index(idx, step.over_pair)

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
                and (m == 1 if smooth_variant else m >= 2) and type(pairs) is int
                and set(map(type, degrees + partners)) <= {int}
                and (partners == (0,) if m == 1
                     else 0 <= min(partners) <= max(partners) < m
                     and (get := itemgetter(*partners))(partners) == tuple(range(m))
                     and get(degrees) == degrees)):
            raise ScheduleError(
                "a necklace needs tuples order, degrees and partners of one length"
                " m >= 2 (1 for the smooth variant, a bool), int degrees and pairs,"
                " and partners an involution on range(m) that keeps the degrees;"
                f" got {order, degrees, partners, smooth_variant}")
        if pairs < 0 or m > 4 + 2 * pairs:
            raise ScheduleError(f"a necklace on {pairs} pairs needs pairs >= 0 and"
                                f" at most 4 + 2 * pairs components, got {m}")
        if tau is not None and not (type(tau) is int and tau >= 1):
            TorsionSpec(tau)  # refuses all but inf, with its own message
        return tuple.__new__(cls, (order, degrees, partners, smooth_variant, tau,
                                   pairs))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


#: Each initial cycle: its component names in cycle order, their (l, f)
#: coefficients and the position of each one's conjugate.
INITIAL_CYCLES = {
    "I": (("F", "G", "Fbar", "Gbar"), ((0, 1), (1, 0), (0, 1), (1, 0)), (2, 3, 0, 1)),
    "II": (("F", "C0"), ((0, 1), (2, 1)), (0, 1)),
    "III": (("A", "Abar"), ((1, 1), (1, 1)), (1, 0)),
}
#: Each initial cycle's positional key (see ``RealizationState``)
_ROOT_KEYS = {t: (t, tuple(2 * a * b for a, b in lf), partners, (), frozenset())
              for t, (_, lf, partners) in INITIAL_CYCLES.items()}


class RealizationState:
    """The cycle after the first k steps of a schedule on ``pairs`` pairs,
    held by position: ``order`` names the components in cycle order, ``key``
    is (initial type, squares in cycle order, conjugate positions, each
    placed pair's host position or None for a node pair, the pairs whose
    point on a strict transform is blown up).  ``extend`` validates a step
    and derives the child in O(m), recording the step as its ``move`` and in
    ``lose`` the positions it takes E_{2k-1} and E_{2k} from.  No state
    holds divisor classes or a lattice, and ``necklace`` reads the key
    alone; ``oracle.realize_cycle`` replays a schedule's states on the
    classes.
    """

    __slots__ = ("pairs", "order", "key", "parent", "move", "lose")

    def __init__(self, initial_type: str, pairs: int):
        _check_initial_type(initial_type)
        check_pairs(pairs)
        self.pairs, self.order = pairs, INITIAL_CYCLES[initial_type][0]
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
                if initial == "II" and component == "F":
                    raise RealizabilityError(
                        "real-fibre-location",
                        "no blown-up point may lie on a smooth point of the "
                        "real fibre F; only its nodes with C0 can be blown",
                    )
            else:
                _check_step_index(k, over_pair)
                p, consumed = self._infinitely_near(over_pair, target)
            order, squares, hosts = self.order, list(squares), hosts + (p,)
            q = partners[p]
            squares[p] -= 1  # the pair is fresh: X.E = 0 and E^2 = -1
            squares[q] -= 1  # and X.E' = 0 and E'^2 = -1 (a real p loses both)
            lose = ((p,), (q,))
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
        order, (initial, _, partners, hosts, consumed) = self.order, self.key
        conj = [order[p] for p in partners]
        out = [BlowupStep.smooth(name) for name, other in zip(order, conj)
               if name <= other and not (initial == "II" and name == "F")]
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
        squares, partners, hosts and ``lose``."""
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
            if qc == pc and qd == pd or qc == pd and qd == pc:
                raise ScheduleError(
                    f"node ({c},{d}) is its own conjugate and cannot host "
                    "a conjugate pair of points"
                )
            j = qc if (qc + 1) % m == qd else qd if (qd + 1) % m == qc else None
            if j is None:
                raise InvariantError("realization-conjugate-edge", f"conjugate edge"
                                     f" ({order[qc]},{order[qd]}) of ({c},{d}) is missing")
        # E goes in after position i and E' after position j, so a position
        # x of this state becomes moved[x]: x + (x > lo) + (x > hi)
        lo, hi = (i, j) if i < j else (j, i)
        moved = list(range(m + 2))
        del moved[hi + 2], moved[lo + 1]
        names, new_squares = list(order), list(squares)
        new_partners = [moved[p] for p in partners]
        lo_name, hi_name = f"E{2 * k - 1}", f"E{2 * k}"  # E after i, E' after j
        if i > j:
            lo_name, hi_name = hi_name, lo_name
        for seq, at_lo, at_hi in ((names, lo_name, hi_name), (new_squares, -1, -1),
                                  (new_partners, hi + 2, lo + 1)):
            seq.insert(hi + 1, at_hi)  # the later position first
            seq.insert(lo + 1, at_lo)
        hosts = tuple([h if h is None else moved[h] for h in hosts]) + (None,)
        lose = ((moved[pc], moved[pd]), (moved[qc], moved[qd]))
        for p in lose[0] + lose[1]:
            new_squares[p] -= 1  # the pair is fresh: X.E = 0 and E^2 = -1
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
