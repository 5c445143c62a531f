"""The independent oracles: divisor classes on S, and h^0 by brute force.

The classification reads positions only (``lattice``) and h^0 by its closed
form (``cycles.h0_formula``).  The routes here compute the same facts
another way, for ``selftest``, ``cycle-h0 --oracle`` and the tests; nothing
on the ``classify`` or ``enumerate`` path imports this module.  ``lattice``
and ``cycles`` still answer for the names of their ``__all__`` (bound on
first use), but no module of the package looks one up there.

**The class route.**  The surface S is P^1 x P^1 blown up in n conjugate
pairs of (possibly infinitely near) points.  Pic(S) gets the
total-transform basis

    l  = class of O(1,0) ("lines")
    f  = class of O(0,1) ("fibres")
    E_1, ..., E_2n  = exceptional classes,  E_i^2 = -1, mutually orthogonal

so the Gram matrix is constant (unimodular, determinant -1) and all
infinitely-near structure lives in the blow-up schedule, not in the form.
The anti-holomorphic involution fixes l and f and swaps E_{2k-1} <-> E_{2k}
(the pair blown up at step k).  The one class route is ``realize_cycle``:
it folds ``RealizationState.extend`` over a schedule's steps, then replays
those states once on the classes, and its cycle is valid by construction
(see ``realize_cycle``).  An ``AnticanonicalCycle`` holds its components'
classes and the conjugation on their names, and nothing derived from them;
``validate`` stays the full oracle for cycles built elsewhere.

**The h^0 oracle.**  ``h0_oracle`` computes h^0(C, L) of a
``cycles.CycleLineBundle`` by brute force.  Sections on each component are
homogeneous polynomials of degree l_i in two variables; the sections glue
at the m nodes up to nonzero scalars g_i (the moduli of the bundle).  h^0
is the exact rational kernel dimension of the resulting linear system.  It
depends on the g_i only when every degree is 0; without explicit g_i the
oracle draws several and returns the generic value.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, compress
from operator import itemgetter, mul

from . import linalg
from .cycles import DEFAULT_ORACLE_SEED, CycleLineBundle, TorsionSpec
from .errors import ScheduleError, check
from .lattice import (
    INITIAL_CYCLES,
    BlowupSchedule,
    Necklace,
    RealizationState,
    check_pairs,
)

#: Independent gluings the oracle draws when the bundle fixes none.
ORACLE_DRAWS = 3


# -- the class route ---------------------------------------------------------

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
        check_pairs(self.pairs)

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
        return linalg.format_combination(self.coeffs, names)


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
    """The smooth-elliptic anticanonical member (nef by construction): the
    reference for the necklace ``model_from_document`` writes literally."""
    lattice = SurfaceLattice(pairs)
    cycle = AnticanonicalCycle(
        lattice=lattice,
        order=("C",),
        classes={"C": lattice.anticanonical()},
        conjugate_names={"C": "C"},
        smooth_variant=True,
    )
    return cycle.validate()


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
    names, lf, _ = INITIAL_CYCLES[schedule.initial_type]
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


# -- the h^0 oracle --------------------------------------------------------

def _evaluations(degrees, placements=None):
    """(total, evaluations): the number of section coefficients and, for
    each node i, its two evaluation functionals as sparse rows {column:
    value}: at its point on C_i (ev_out) and on C_{i+1} (ev_in).

    H^0(P^1, O(l)) has the basis u^l, u^(l-1) v, ..., v^l, which (alpha:beta)
    evaluates in exact ints for an integral point, Fractions otherwise; a
    negative component has no sections and so no columns.  Only u^l is
    nonzero at (alpha:0) and only v^l at (0:beta), so no other is computed.
    Without ``placements``, node i sits at (1:0) on C_i and at (0:1) on
    C_{i+1}, so each row is one entry 1 (none on a negative component).
    """
    offsets = [0]
    for l in degrees:
        offsets.append(offsets[-1] + max(0, l + 1))
    if placements is None:
        out = [{o: 1} if l >= 0 else {} for o, l in zip(offsets, degrees)]
        inn = [{o + l: 1} if l >= 0 else {} for o, l in zip(offsets, degrees)]
        return offsets[-1], list(zip(out, inn[1:] + inn[:1]))

    def ev(k, point):
        l, (alpha, beta) = degrees[k], point
        powers = (range(l + 1) if l < 0 or alpha and beta
                  else range(l, l + 1) if beta else range(1))
        return {offsets[k] + j: v for j in powers
                if (v := alpha ** (l - j) * beta ** j)}

    m = len(degrees)
    return offsets[-1], [(ev(i, out_point), ev((i + 1) % m, in_point))
                         for i, (out_point, in_point) in enumerate(placements)]


def _kernel_dim(total, evaluations, nums, dens):
    """dim ker(rho) for the gluing g_i = nums[i] / dens[i].

    rho sends (s_1..s_m) to the mismatches s_i(P_i on C_i) - g_i *
    s_{i+1}(P_i on C_{i+1}); row i is scaled by den, so it reads
    den * ev_out - num * ev_in, whose two parts sit on different components.
    """
    rows = []
    for (out, inn), num, den in zip(evaluations, nums, dens):
        row = out.copy() if den == 1 else {c: den * v for c, v in out.items()}
        for c, v in inn.items():
            row[c] = -num * v
        rows.append(row)
    return total - linalg.rank(rows, total)


def h0_oracle(bundle: CycleLineBundle, seed: int | None = None, *,
              _placements=None) -> int:
    """Brute-force h^0 via exact kernel computation.

    The evaluation rows are built once per call.  With explicit
    ``bundle.gluing`` the computation is done once.  Otherwise
    ``ORACLE_DRAWS`` gluings are drawn, an integer g_i in [1, 2^20] per
    node cut from 3 bytes of one SHAKE-128 digest of the seed's decimal
    digits, and the minimum (= generic) value is returned; a seed that is
    not an int (a bool included) raises ScheduleError.  Schwartz-Zippel
    asks only that the draws not depend on the bundle: a draw overshoots
    only where a minor that is not identically zero vanishes, a polynomial
    of degree at most m in the g_i, so with probability at most m / 2^20.
    By the closed form the draws agree except on all-zero degrees, where
    the generic value is 0 and only scalars multiplying to 1 give 1; a
    disagreement is surfaced as a warning.

    The two node preimages on each component sit at (1:0) and (0:1); any
    other placement gives the same dimension (Moebius invariance), which the
    test-suite exercises through the private ``_placements`` hook.
    """
    if seed is not None and type(seed) is not int:
        raise ScheduleError(f"seed must be an int, got {type(seed).__name__}")
    degrees = bundle.degrees
    m = len(degrees)
    total, evaluations = _evaluations(degrees, _placements)
    if bundle.gluing is not None:
        gluings = [zip(*map(Fraction.as_integer_ratio, bundle.gluing))]
    else:
        seed = DEFAULT_ORACLE_SEED if seed is None else seed
        b = iter(hashlib.shake_128(b"%d" % seed).digest(3 * ORACLE_DRAWS * m))
        draws = [(x << 12 | y << 4 | z >> 4) + 1 for x, y, z in zip(b, b, b)]
        gluings = [(draws[k:k + m], (1,) * m) for k in range(0, len(draws), m)]
    dims = [_kernel_dim(total, evaluations, *gluing) for gluing in gluings]
    if len(set(dims)) > 1:
        warnings.warn(
            f"h0_oracle draws disagree for degrees {degrees}: {dims}; "
            "returning the generic minimum",
            stacklevel=2,
        )
    return min(dims)
