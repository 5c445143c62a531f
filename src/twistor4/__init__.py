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

import sys

# ``twistor4.classify`` is the function: bound here, it stays so whichever
# import loads the submodule of that name first
from .classify import classify

__version__ = "0.1.0"

#: The modules whose ``__all__`` the package re-exports, in this order.
_REEXPORTED = ("cohomology", "cycles", "errors", "lattice", "classify")


def _submodule(name):
    # ``importlib.import_module``, without the cost of importing importlib
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    """A submodule or a name of a re-exported ``__all__`` (PEP 562), loaded
    on first use and bound here, so a process imports only what it uses.
    A submodule is tried first: ``from . import schema`` asks for its name
    here before importing it, and must not load every re-exported module."""
    if name == "__all__":
        value = ["__version__"]
        for module in map(_submodule, _REEXPORTED):
            value += module.__all__
    elif name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        try:
            value = _submodule(name)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            module = next((module for module in map(_submodule, _REEXPORTED)
                           if name in module.__all__), None)
            if module is None:
                raise AttributeError(
                    f"module {__name__!r} has no attribute {name!r}") from None
            value = getattr(module, name)
    globals()[name] = value
    return value
