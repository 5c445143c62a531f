"""Line bundles on cycles of rational curves.

A cycle C = C_1 + ... + C_m of smooth rational curves (components meeting
consecutively, cyclically; m = 2 means two components meeting twice) carries
line bundles determined up to moduli by their component degrees
l_i = L.C_i.  Two routes to h^0(C, L) live here:

* ``h0_formula`` — the closed form, total on every bundle: sections vanish
  on the negative-degree components, and each arc between them of total
  degree d gives max(d - 1, 0); its docstring has the other cases.

* ``h0_oracle`` — brute force.  Sections on each component are homogeneous
  polynomials of degree l_i in two variables; the sections glue at the m
  nodes up to nonzero scalars g_i (the moduli of the bundle).  h^0 is the
  exact rational kernel dimension of the resulting linear system.  It
  depends on the g_i only when every degree is 0; without explicit g_i the
  oracle draws several and returns the generic value.

The normal bundle datum tau (the order of the restricted anticanonical
bundle in Pic(C)) is genuinely extra moduli: it is carried as input
(``TorsionSpec``), never derived.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from collections import namedtuple
from fractions import Fraction
from operator import gt

from . import linalg
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

#: Independent gluings the oracle draws when the bundle fixes none.
ORACLE_DRAWS = 3


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


# -- the oracle ------------------------------------------------------------

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
    return total - linalg.rank(rows)


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
