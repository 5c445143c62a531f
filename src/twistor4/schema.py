"""JSON documents describing blow-up schedules.

A schedule document is a plain JSON object:

    {
      "n": 4,
      "initial_type": "I",
      "steps": [
        {"kind": "smooth", "component": "G"},
        {"kind": "node", "components": ["F", "G"]},
        {"kind": "infinitely_near", "over_pair": 1, "on_strict_transform": "G"},
        {"kind": "infinitely_near", "over_pair": 1, "on_strict_transform": null}
      ],
      "torsion": {"kind": "finite", "order": 2}
    }

``n`` must equal the number of steps and is at most ``MAX_N`` (150):
realizing a document costs time that grows with ``n`` (quadratically for
a schedule), so a larger one is refused before any step is read.
``torsion`` is optional on input (it is required downstream only when the
realized cycle is nef) and is
``{"kind": "finite", "order": k}`` or ``{"kind": "infinite"}`` (alias
``"non_torsion"``).  ``"smooth_anticanonical": true`` selects the
smooth-elliptic anticanonical member instead of a cycle; such a document
carries an empty step list and ``n`` only sizes the lattice.

Parsing is strict: unknown fields anywhere are rejected, as are
missing required fields and wrongly typed values.  ``canonical_json``
fixes a byte-stable serialization and ``document_digest`` a short stable
identifier used by the enumeration tooling.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .cycles import TorsionSpec
from .errors import ScheduleError
from .lattice import INITIAL_TYPES, STEP_FIELDS, BlowupSchedule, BlowupStep

__all__ = [
    "MAX_N",
    "ParsedDocument",
    "parse_document",
    "parse_torsion",
    "document_for",
    "torsion_document",
    "encode_infinite",
    "canonical_json",
    "document_digest",
    "loads_document",
    "load_document",
]

# the largest n a document (and the CLI's ``--n``) accepts
MAX_N = 150
_DOCUMENT_REQUIRED = frozenset({"n", "initial_type", "steps"})
_DOCUMENT_KEYS = _DOCUMENT_REQUIRED | {"torsion", "smooth_anticanonical"}
#: Step kind -> the keys its object may carry and the keys it must carry
_STEP_KEYS = {kind: (frozenset(("kind",) + names), frozenset(("kind", names[0])))
              for kind, names in STEP_FIELDS.items()}
_FINITE_KEYS, _KIND_KEY = frozenset({"kind", "order"}), frozenset({"kind"})
# one encoder serves every call: it keeps no state between calls
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class ParsedDocument(namedtuple("ParsedDocument", ("n", "schedule", "torsion"))):
    """Validated document: a schedule, or None for the smooth variant."""

    __slots__ = ()


def _require_object(value, what):
    if not isinstance(value, dict):
        raise ScheduleError(f"{what} must be a JSON object, got {_kind(value)}")


def _kind(value):
    return type(value).__name__ if value is not None else "null"


def _check_fields(obj, allowed, required, what):
    """``allowed`` and ``required`` are frozensets of keys."""
    keys = obj.keys()
    if keys <= allowed and keys >= required:
        return
    unknown = sorted(keys - allowed)
    if unknown:
        raise ScheduleError(f"unknown field(s) {unknown} in {what}")
    raise ScheduleError(f"missing field(s) {sorted(required - keys)} in {what}")


def _plain_int(value, what, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScheduleError(f"{what} must be an integer, got {_kind(value)}")
    if minimum is not None and value < minimum:
        raise ScheduleError(f"{what} must be >= {minimum}, got {value}")
    return value


def parse_torsion(obj) -> TorsionSpec:
    """Parse a torsion record; accepts "infinite" or the alias "non_torsion"."""
    _require_object(obj, "torsion")
    kind = obj.get("kind")
    if kind == "finite":
        _check_fields(obj, _FINITE_KEYS, _FINITE_KEYS, "torsion")
        order = _plain_int(obj["order"], "torsion order", minimum=1)
        return TorsionSpec.finite(order)
    if kind in ("infinite", "non_torsion"):
        _check_fields(obj, _KIND_KEY, _KIND_KEY, "torsion")
        return TorsionSpec.non_torsion()
    raise ScheduleError(
        f"torsion kind must be 'finite' or 'infinite', got {kind!r}"
    )


def _parse_step(obj, position) -> BlowupStep:
    """JSON shape only; ``BlowupStep`` checks the field values.  The name
    ``step <position>`` is formatted for a message only."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    keys = _STEP_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None or not keys[1] <= obj.keys() <= keys[0]:
        what = f"step {position}"
        _require_object(obj, what)
        if keys is None:
            raise ScheduleError(
                f"{what} kind must be 'smooth', 'node' or 'infinitely_near', "
                f"got {kind!r}"
            )
        _check_fields(obj, *keys, what)  # raises: the keys are not the kind's
    if kind == "node" and not isinstance(obj["components"], list):
        raise ScheduleError(f"step {position}: components must be a list of two ids")
    try:  # the keys are the kind's own, so the other fields read None
        return BlowupStep(*map(obj.get, BlowupStep._fields))
    except ScheduleError as exc:
        raise ScheduleError(f"step {position}: {exc}") from None


def parse_document(obj) -> ParsedDocument:
    _require_object(obj, "document")
    _check_fields(obj, _DOCUMENT_KEYS, _DOCUMENT_REQUIRED, "document")
    n = _plain_int(obj["n"], "n", minimum=0)
    if n > MAX_N:
        raise ScheduleError(f"n is capped at {MAX_N}, got {n}")
    initial_type = obj["initial_type"]
    if initial_type not in INITIAL_TYPES:
        raise ScheduleError(
            f"initial_type must be one of {INITIAL_TYPES}, got {initial_type!r}"
        )
    steps_raw = obj["steps"]
    if not isinstance(steps_raw, list):
        raise ScheduleError("steps must be a list")
    smooth = obj.get("smooth_anticanonical", False)
    if not isinstance(smooth, bool):
        raise ScheduleError("smooth_anticanonical must be a boolean")
    torsion = parse_torsion(obj["torsion"]) if "torsion" in obj else None
    if smooth:
        if steps_raw:
            raise ScheduleError(
                "a smooth_anticanonical document carries no steps; "
                "n alone sizes the lattice"
            )
        return ParsedDocument(n, None, torsion)
    if len(steps_raw) != n:
        raise ScheduleError(
            f"n={n} but the document lists {len(steps_raw)} steps; "
            "they must agree"
        )
    steps = tuple(map(_parse_step, steps_raw, range(1, n + 1)))
    return ParsedDocument(n, BlowupSchedule(initial_type, steps), torsion)


def _step_document(step: BlowupStep) -> dict:
    doc = {"kind": step.kind}
    for name in STEP_FIELDS[step.kind]:
        value = getattr(step, name)
        doc[name] = list(value) if isinstance(value, tuple) else value
    return doc


def torsion_document(spec: TorsionSpec) -> dict:
    if spec.tau == math.inf:
        return {"kind": "infinite"}
    return {"kind": "finite", "order": spec.tau}


def encode_infinite(value):
    """Output form of a count or order: ``math.inf`` reads "infinite"."""
    return "infinite" if value == math.inf else value


def document_for(
    schedule: BlowupSchedule, torsion: TorsionSpec | None = None
) -> dict:
    """The document dict for a schedule, with an optional torsion record."""
    doc = {
        "n": schedule.pairs,
        "initial_type": schedule.initial_type,
        "steps": [_step_document(s) for s in schedule.steps],
    }
    if torsion is not None:
        doc["torsion"] = torsion_document(torsion)
    return doc


def canonical_json(obj) -> str:
    """Byte-stable serialization: sorted keys, no whitespace."""
    return _CANONICAL.encode(obj)


def document_digest(doc: dict) -> str:
    """Short stable identifier: sha256 of the canonical JSON, 12 hex chars."""
    import hashlib  # loaded by the first digest, not by every document

    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:12]


def loads_document(text: str) -> dict:
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise ScheduleError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ScheduleError("invalid JSON: nested too deeply to parse") from None


def load_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ScheduleError(f"invalid JSON: not UTF-8 text: {exc}") from None
    return loads_document(text)
