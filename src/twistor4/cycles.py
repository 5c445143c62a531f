"""Line bundles on cycles of rational curves.

A cycle C = C_1 + ... + C_m of smooth rational curves (components meeting
consecutively, cyclically; m = 2 means two components meeting twice) carries
line bundles determined up to moduli by their component degrees
l_i = L.C_i.  There are two routes to h^0(C, L):

* ``h0_formula`` — the closed form, total on every bundle: sections vanish
  on the negative-degree components, and each arc between them of total
  degree d gives max(d - 1, 0); its docstring has the other cases.

* ``h0_oracle`` — brute force: the exact kernel dimension of the sections'
  gluing conditions at the nodes.  It lives in ``oracle``, whose docstring
  has the method, with the other independent routes; this module's
  ``__getattr__`` gives it, bound here on first use, so importing this
  module loads no kernel code.

The normal bundle datum tau (the order of the restricted anticanonical
bundle in Pic(C)) is genuinely extra moduli: it is carried as input
(``TorsionSpec``), never derived.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import gt

from .errors import ScheduleError

__all__ = [
    "CycleLineBundle",
    "TorsionSpec",
    "DEFAULT_ORACLE_SEED",
    "cyclic_arcs",
    "euler_char_cycle",
    "h0_formula",
    "h0_oracle",
]

#: Default seed for the oracle's gluing draws, and of the CLI's --seed.
DEFAULT_ORACLE_SEED = 20260816


def __getattr__(name):
    # ``h0_oracle`` lives in ``oracle``; a caller that looks it up here
    # (perfbench, once per item) gets it bound here on first use, then as
    # a dict hit
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    value = globals()[name] = getattr(oracle, name)
    return value


class CycleLineBundle(namedtuple("CycleLineBundle", ("degrees", "gluing"))):
    """Degrees (l_1..l_m) around the cycle, plus optional explicit gluings
    (nonzero ints or Fractions, one per node, stored as Fractions).  It is
    checked on construction and by ``_make``, as ``TorsionSpec`` is."""

    __slots__ = ()

    def __new__(cls, degrees, gluing=None):
        degrees = tuple(degrees)
        if not set(map(type, degrees)) <= {int}:
            raise ScheduleError(f"degrees must be ints, got {degrees}")
        if len(degrees) < 2:
            raise ScheduleError("a cycle has at least two components")
        if gluing is not None:
            from fractions import Fraction  # only explicit gluings need it

            gl = tuple(gluing)
            if not set(map(type, gl)) <= {int, Fraction}:
                raise ScheduleError(
                    f"gluing scalars must be ints or Fractions, got {gl}")
            gluing = tuple(map(Fraction, gl))
            if len(gluing) != len(degrees):
                raise ScheduleError("need one gluing scalar per node")
            if any(g == 0 for g in gluing):
                raise ScheduleError("gluing scalars must be nonzero")
        return tuple.__new__(cls, (degrees, gluing))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def m(self):
        return len(self.degrees)


class TorsionSpec(namedtuple("TorsionSpec", ("tau",))):
    """Order tau of the restricted anticanonical bundle in Pic(C): an int
    k >= 1, or ``math.inf`` when the bundle is not torsion."""

    __slots__ = ()

    def __new__(cls, tau):
        if tau != math.inf and (type(tau) is not int or tau < 1):
            raise ScheduleError(f"tau must be an int >= 1 or inf, got {tau!r}")
        return tuple.__new__(cls, (tau,))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def finite(cls, k):
        if k == math.inf:
            raise ScheduleError("a finite order cannot be inf")
        return cls(k)

    @classmethod
    def non_torsion(cls):
        return cls(math.inf)


def euler_char_cycle(bundle: CycleLineBundle) -> int:
    """chi(C, L) = sum(l_i): the m section-spaces (l_i + 1 each) lose one
    condition per node, and chi(O_C) = 0."""
    return sum(bundle.degrees)


def cyclic_arcs(m, removed):
    """Maximal runs of indices 0..m-1 (cyclic) avoiding ``removed``.

    Returns a list of lists ordered by their first index; empty if
    everything is removed, a single full-circle arc if nothing is.  A
    non-int m or index, m < 1, or an index outside 0..m-1 raises ScheduleError.

    No code in the package calls it: it is kept as the reference that the
    tests check ``h0_formula`` against, arc by arc, and as the helper of a
    second route to h^0(F) and the base curve that walks these arcs.
    """
    given = tuple(removed)  # before a set merges True into 1
    if type(m) is not int or m < 1 or not all(
            type(i) is int and 0 <= i < m for i in given):
        raise ScheduleError(f"need ints in range(m), m >= 1; got m={m!r}, {given}")
    removed = set(given)
    # one pass from the removed index before the lowest arc start; each
    # removed index closes an arc, and only an empty ``removed`` leaves one open
    first = m - 1 if m - 1 in removed or not removed else min(removed)
    arcs, arc = [], []
    for i in range(first + 1, first + 1 + m):
        i %= m
        if i not in removed:
            arc.append(i)
        elif arc:
            arcs.append(arc)
            arc = []
    return arcs + [arc] if arc else arcs


def h0_formula(bundle: CycleLineBundle) -> int:
    """h^0(C, L) in closed form, for every degree list and gluing.

    Sections vanish on a negative component, so each arc of
    ``cyclic_arcs(m, negatives)`` is a chain with both end nodes forced to
    vanish: an arc of total degree d gives max(d - 1, 0), d - 1 on an arc
    with a positive component and 0 on any other.  So h^0 is sum_{l_i > 0} l_i
    - gamma, gamma the number of positive components that follow a negative
    one going round the cycle, zeros skipped.  With no negative component,
    h^0 = chi = d when d > 0; with every degree 0, h^0 is 1 when
    ``bundle.gluing`` is given and multiplies to 1 (L trivial), else 0, the
    generic value.
    """
    degrees = bundle.degrees
    if min(degrees) < 0:
        signs = [d > 0 for d in degrees if d]
        gamma = sum(map(gt, signs, signs[-1:] + signs[:-1]))
        return sum([d for d in degrees if d > 0]) - gamma
    if any(degrees):
        return sum(degrees)
    return int(bundle.gluing is not None and math.prod(bundle.gluing) == 1)

