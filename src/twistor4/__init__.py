"""Exact invariants of twistor spaces over connected sums of n copies
of the complex projective plane.

The package computes, in exact integer/rational arithmetic:

* the integral cohomology ring of the twistor space Z (cup products,
  Chern numbers, the H^2 x H^2 -> H^4 pairing and its kernel);
* Riemann-Roch Euler characteristics of powers of the fundamental
  line bundle F;
* intersection theory on the Picard lattice of a fundamental divisor
  S (a blow-up of P^1 x P^1 at conjugate point pairs), including
  realization of anticanonical cycles from blow-up schedules;
* h^0 of line bundles on cycles of rational curves, by a closed
  formula and by an independent randomized kernel oracle;
* for n = 4, the full algebraic-dimension classification of the
  configuration, plus an enumerator that walks every schedule up to
  conjugation symmetry.
"""

# The package re-exports five modules' ``__all__``; ``classify`` is read
# through an alias first, as the wildcard import rebinds it to the function.
from . import classify as _classify, cohomology, cycles, errors, lattice
from .classify import *
from .cohomology import *
from .cycles import *
from .errors import *
from .lattice import *

__version__ = "0.1.0"

__all__ = ["__version__", *cohomology.__all__, *cycles.__all__, *errors.__all__,
           *lattice.__all__, *_classify.__all__]
