"""Line bundles on cycles of rational curves.

A cycle C = C_1 + ... + C_m of smooth rational curves (components meeting
consecutively, cyclically; m = 2 means two components meeting twice) carries
line bundles determined up to moduli by their component degrees
l_i = L.C_i.  Two routes to h^0(C, L) live here:

* ``h0_formula`` — the combinatorial count sum_{l_i > 0} l_i - gamma, where
  gamma is the number of connected components of the complement of the
  negative-degree part.  Valid under explicit hypotheses (m >= 3, at least
  two negative components, every arc between them contains a positive one).

* ``h0_oracle`` — brute force.  Sections on each component are homogeneous
  polynomials of degree l_i in two variables; the sections glue at the m
  nodes up to nonzero scalars g_i (the moduli of the bundle).  h^0 is the
  exact rational kernel dimension of the resulting linear system.  Under the
  formula's hypotheses the answer is independent of the g_i, which the
  oracle checks empirically by drawing several gluings.

The normal bundle datum tau (the order of the restricted anticanonical
bundle in Pic(C)) is genuinely extra moduli: it is carried as input
(``TorsionSpec``), never derived.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import HypothesisError, ScheduleError

__all__ = [
    "CycleLineBundle",
    "TorsionSpec",
    "DEFAULT_ORACLE_SEED",
    "cyclic_arcs",
    "euler_char_cycle",
    "h0_formula",
    "h0_oracle",
]

#: Default seed for the oracle's gluing draws.  The library itself never
#: consults the environment; the CLI layers --seed / TWISTOR_SEED on top.
DEFAULT_ORACLE_SEED = 20260816

#: Independent gluings the oracle draws when the bundle fixes none.
ORACLE_DRAWS = 3


@dataclass(frozen=True)
class CycleLineBundle:
    """Degrees (l_1..l_m) around the cycle, plus optional explicit gluings."""

    degrees: tuple[int, ...]
    gluing: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        degrees = tuple(self.degrees)
        if not set(map(type, degrees)) <= {int}:
            raise ScheduleError(f"degrees must be ints, got {degrees}")
        if len(degrees) < 2:
            raise ScheduleError("a cycle has at least two components")
        object.__setattr__(self, "degrees", degrees)
        if self.gluing is not None:
            gl = tuple(Fraction(g) for g in self.gluing)
            if len(gl) != len(degrees):
                raise ScheduleError("need one gluing scalar per node")
            if any(g == 0 for g in gl):
                raise ScheduleError("gluing scalars must be nonzero")
            object.__setattr__(self, "gluing", gl)

    @property
    def m(self):
        return len(self.degrees)


@dataclass(frozen=True)
class TorsionSpec:
    """Order tau of the restricted anticanonical bundle in Pic(C): an int
    k >= 1, or ``math.inf`` when the bundle is not torsion."""

    tau: int | float

    def __post_init__(self):
        if self.tau != math.inf and (type(self.tau) is not int or self.tau < 1):
            raise ScheduleError(f"tau must be an int >= 1 or inf, got {self.tau!r}")

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
    everything is removed, a single full-circle arc if nothing is.  An
    index outside 0..m-1 raises ScheduleError.
    """
    removed = set(removed)
    if not removed <= set(range(m)):
        raise ScheduleError(f"removed indices must lie in range({m}), got {removed}")
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
    """Section count sum_{i in I+} l_i - gamma under the arc hypotheses.

    gamma is the number of connected components of C minus its
    negative-degree components.  Raises HypothesisError (with a distinct tag)
    when m < 3, when fewer than two components are negative, or when some
    arc of the complement has no positive component.
    """
    degrees = bundle.degrees
    m = len(degrees)
    if m < 3:
        raise HypothesisError(
            "too-few-components",
            f"the closed formula needs m >= 3 components, got m={m}; "
            "use the oracle for m=2",
        )
    negative = [i for i, d in enumerate(degrees) if d < 0]
    if len(negative) < 2:
        raise HypothesisError(
            "too-few-negatives",
            f"the closed formula needs at least two negative components, "
            f"got {len(negative)}",
        )
    arcs = cyclic_arcs(m, negative)
    for arc in arcs:
        if not any(degrees[i] > 0 for i in arc):
            raise HypothesisError(
                "arc-without-positive",
                f"components {arc} form an arc of C \\ C_- without a "
                "positive-degree member",
            )
    gamma = len(arcs)
    return sum(d for d in degrees if d > 0) - gamma


# -- the oracle ------------------------------------------------------------

def _default_placements(m):
    """Node i sits at (1:0) on component i and at (0:1) on component i+1."""
    return [((1, 0), (0, 1)) for _ in range(m)]


def _evaluate_section_row(l, point):
    """Row of the evaluation functional at (alpha:beta) on H^0(P^1, O(l)).

    Basis: u^l, u^(l-1) v, ..., v^l.  Exact ints for an integral point,
    Fractions otherwise.
    """
    alpha, beta = (c if type(c) is int else Fraction(c) for c in point)
    return [alpha ** (l - j) * beta ** j for j in range(l + 1)]


def _kernel_dim(degrees, gluing, placements):
    """Exact dim ker(rho) for given degrees, gluings and node placements.

    rho sends (s_1..s_m) to the m-tuple of mismatches
    s_i(P_i on C_i) - g_i * s_{i+1}(P_i on C_{i+1}); the scalar g_i weights
    the side of node i belonging to component i+1, and is given as the
    pair (num, den).  Row i is scaled by den, so it reads
    den * ev_out - num * ev_in and is integral whenever the placements are.
    """
    m = len(degrees)
    offsets = []
    total = 0
    for l in degrees:
        offsets.append(total)
        total += max(0, l + 1)
    rows = []
    for i, (num, den) in enumerate(gluing):
        nxt = (i + 1) % m
        row = [0] * total
        out_point, in_point = placements[i]
        if degrees[i] >= 0:
            ev = _evaluate_section_row(degrees[i], out_point)
            for j, v in enumerate(ev, offsets[i]):
                row[j] += den * v
        if degrees[nxt] >= 0:
            ev = _evaluate_section_row(degrees[nxt], in_point)
            for j, v in enumerate(ev, offsets[nxt]):
                row[j] -= num * v
        rows.append(row)
    return total - linalg.rank(rows)


def _draw_gluing(rng, m):
    """m random gluing scalars, each as a (numerator, denominator) pair."""
    return [(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(m)]


def h0_oracle(bundle: CycleLineBundle, seed: int | None = None, *,
              _placements=None) -> int:
    """Brute-force h^0 via exact kernel computation.

    With explicit ``bundle.gluing`` the computation is done once.  Otherwise
    ``ORACLE_DRAWS`` independent gluings come from a seeded generator and the
    minimum (= generic) value is returned; disagreement between draws is
    surfaced as a warning since under the formula's hypotheses it must not
    happen.

    The two node preimages on each component sit at (1:0) and (0:1); any
    other placement gives the same dimension (Moebius invariance), which the
    test-suite exercises through the private ``_placements`` hook.
    """
    degrees = bundle.degrees
    m = len(degrees)
    placements = _placements if _placements is not None else _default_placements(m)
    if bundle.gluing is not None:
        gluing = [(g.numerator, g.denominator) for g in bundle.gluing]
        return _kernel_dim(degrees, gluing, placements)
    rng = random.Random(DEFAULT_ORACLE_SEED if seed is None else seed)
    dims = [_kernel_dim(degrees, _draw_gluing(rng, m), placements)
            for _ in range(ORACLE_DRAWS)]
    if len(set(dims)) > 1:
        warnings.warn(
            f"h0_oracle draws disagree for degrees {degrees}: {dims}; "
            "returning the generic minimum",
            stacklevel=2,
        )
    return min(dims)
