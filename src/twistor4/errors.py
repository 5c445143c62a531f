"""Error taxonomy.

Two families matter to callers:

* malformed input — bad schedules, bad references, bad documents, bad
  arguments to a library call, an input above its cap.  These are
  ``ScheduleError`` and ``DegreeError`` (both ``ValueError``s); they carry
  no ``tag``.
* mathematically meaningful rejections — the configuration violates a
  constraint that actual twistor spaces obey, or a formula's hypotheses fail.
  These are ``RealizabilityError`` / ``HypothesisError`` / the nef branch's
  ``TorsionRequiredError``, and each carries a short machine ``tag`` plus a
  readable message.

``InvariantError`` means a computed value contradicts its closed form; its
tag is ``invariant-<name>``.  The CLI's exit code follows the tag alone: an
error with a ``tag`` prints ``violation: <tag>: …`` and exits 2, any other
prints ``error: …`` and exits 1.

``check`` is the one helper for invariants and for checks of the cycles
and states a caller built: an explicit raise, so ``python -O`` keeps every check.
"""

__all__ = [
    "TwistorError",
    "ScheduleError",
    "DegreeError",
    "TaggedError",
    "RealizabilityError",
    "HypothesisError",
    "TorsionRequiredError",
    "InvariantError",
]


class TwistorError(Exception):
    """Base class for everything raised deliberately by this package."""


class ScheduleError(TwistorError, ValueError):
    """Malformed schedule, document, reference or argument (CLI exit code 1)."""


class DegreeError(TwistorError, ValueError):
    """A cohomology class of the wrong degree (or mismatched n) was supplied."""


class TaggedError(TwistorError):
    """An error with a stable machine-readable ``tag`` slug (CLI exit code 2)."""

    def __init__(self, tag, message):
        super().__init__(message)
        self.tag = tag


class RealizabilityError(TaggedError):
    """The combinatorial configuration cannot come from a twistor space.

    ``tag`` is a stable machine-readable slug; known values:
    ``real-fibre-location``, ``point-off-anticanonical-cycle``,
    ``degree-below-minus-2``, ``negative-pattern``, ``pair-not-disjoint``,
    ``case-c-structure``.
    """


class HypothesisError(TaggedError):
    """Hypotheses of the cycle section-count formula fail.

    ``tag`` is one of ``too-few-components`` (m < 3), ``too-few-negatives``
    (|I-| < 2), ``arc-without-positive``.
    """


class TorsionRequiredError(TwistorError):
    """The nef branch needs torsion data that the input did not provide."""

    tag = "torsion-required"


class InvariantError(TaggedError):
    """A consistency check failed; raised explicitly, so ``-O`` keeps it.

    ``tag`` is ``invariant-<name>``: ``fundamental-class``,
    ``chern-c1-cubed``, ``chern-c1-c2``, ``pairing-determinant``,
    ``anticanonical-square``, ``adjunction-integral``,
    ``realization-fresh-pair``, ``realization-conjugate-edge``,
    ``anticanonical-degree-sum``, ``case-c-minus-2k`` or ``report-<fact>``,
    where a classification report breaks a fact ``classify.check_report``
    lists: ``case``, ``h0``, ``dimension-bound``, ``nef``, ``moishezon``,
    ``lebrun``, ``free-pencil``, ``nef-and-big``, ``tau``, ``nef-torsion``,
    ``case-c`` or ``case-c-only``.
    """

    def __init__(self, name, message):
        super().__init__(f"invariant-{name}", message)


def check(ok, message, *args, invariant=None):
    """Raise unless ``ok``: ``InvariantError(invariant)`` when the program
    broke one of its own invariants, else ``ScheduleError`` (a cycle, state
    or schedule a caller built).  ``message`` is formatted with ``args`` only on
    failure, so a passing check costs one comparison."""
    if not ok:
        text = message.format(*args)
        raise InvariantError(invariant, text) if invariant else ScheduleError(text)
