"""Seeded inputs for the benchmark workloads.

Nothing here imports twistor4: the program only ever sees the JSON text
and degree tuples made here.  Every generated document also carries what
the benchmark expects of it, worked out from the benchmark's own model of
the blow-up grammar (component names, cyclic order, self-intersections), so
the outputs can be checked independently of the code under test.
"""

from __future__ import annotations

import json
import random

# Documents per stream pass, by kind.  The shares are fixed so that every
# seed gives the same mix, and with it the same cost per pass.
STREAM_QUOTAS = {
    "golden": 60,            # the four shipped goldens, nef at tau 1, 2, inf
    "walk_I": 600,           # random valid schedules, four-component cycle
    "walk_II": 300,          # real fibre plus bisection
    "walk_III": 300,         # two conjugate (1,1)-curves; half nodes first
    "nef": 200,              # nef by construction, tau = 1, > 1 or inf
    "smooth": 60,            # smooth_anticanonical documents with torsion
    "missing_torsion": 100,  # nef without torsion: TorsionRequiredError
    "unrealizable": 100,     # realizability tags by construction
    "malformed": 280,        # ScheduleError: bad JSON, fields, references
}

# Exact-kernel items per pass.  The two h0 bands are stratified over the
# cycle length m so that the cost of a pass barely depends on the seed.
H0_BANDS = {
    "small": {"count": 480, "m": (3, 10), "deg": 4},    # acceptance criterion 4
    "large": {"count": 56, "m": (3, 16), "deg": 24},
}
# (kind, n) for the pairing sweep; the pairing has no input but n.  The
# ladder of determinants from n = 100 to 150 puts eleven fixed items well
# above every h0 item, so the tail latency (ten items beyond it) is always
# the same pairing size.
PAIRING_SWEEP = (
    ("kernel", 4), ("kernel", 40), ("kernel", 80), ("det", 20), ("det", 60),
) + tuple(("det", n) for n in range(100, 151, 5))

_INITIAL = {
    "I": (("F", "G", "Fbar", "Gbar"),
          {"F": "Fbar", "Fbar": "F", "G": "Gbar", "Gbar": "G"},
          {"F": 0, "G": 0, "Fbar": 0, "Gbar": 0}),
    "II": (("F", "C0"), {"F": "F", "C0": "C0"}, {"F": 0, "C0": 4}),
    "III": (("A", "Abar"), {"A": "Abar", "Abar": "A"}, {"A": 2, "Abar": 2}),
}

GOLDEN_STEPS = {
    "case_a": ("II", [{"kind": "smooth", "component": "C0"}] * 4),
    "case_b": ("I", [{"kind": "smooth", "component": "G"}] * 4),
    "case_c": ("I", [
        {"kind": "node", "components": ["F", "G"]},
        {"kind": "node", "components": ["F", "E1"]},
        {"kind": "smooth", "component": "G"},
        {"kind": "smooth", "component": "G"},
    ]),
    "nef": ("I", [
        {"kind": "smooth", "component": "F"},
        {"kind": "smooth", "component": "F"},
        {"kind": "smooth", "component": "G"},
        {"kind": "smooth", "component": "G"},
    ]),
}
GOLDEN_TORSION = {"case_a": None, "case_b": None, "case_c": None,
                  "nef": {"kind": "finite", "order": 1},
                  "nef_tau2": {"kind": "finite", "order": 2},
                  "nef_tau_inf": {"kind": "infinite"}}
# Report fields of the goldens, from the README table and acceptance
# criteria 5-8.
GOLDEN_FACTS = {
    "case_a": {"case": "REAL_MINUS_2", "algebraic_dimension": 3,
               "h0_fundamental": 3, "base_locus": "C0", "degree_one_count": 0},
    "case_b": {"case": "PAIR_MINUS_2", "algebraic_dimension": 3,
               "h0_fundamental": 4, "base_locus": "A+Abar", "lebrun": True,
               "degree_one_count": "infinite"},
    "case_c": {"case": "PAIRS_MINUS_1", "algebraic_dimension": 3,
               "h0_fundamental": 2, "cycle_length": 8, "degree_one_count": 8,
               "dim_minus2KS": 2, "dim_antican_Z": 4},
    "nef": {"case": "NEF", "algebraic_dimension": 2, "h0_fundamental": 3,
            "base_locus": "free", "tau": 1},
    "nef_tau2": {"case": "NEF", "algebraic_dimension": 2, "h0_fundamental": 2,
                 "base_locus": "C", "tau": 2},
    "nef_tau_inf": {"case": "NEF", "algebraic_dimension": 1,
                    "h0_fundamental": 2, "base_locus": "C", "tau": "infinite"},
}


class CycleModel:
    """The cycle a schedule builds, tracked by names and self-intersections.

    It mirrors the placement rules of the schedule format (README,
    "Schedule documents"): each point lowers the self-intersection of the
    component it lies on by one, a node step inserts two exceptional
    components of self-intersection -1.  Every component is rational, so
    its degree is its self-intersection plus two.
    """

    def __init__(self, initial):
        order, conj, square = _INITIAL[initial]
        self.initial = initial
        self.order = list(order)
        self.conj = dict(conj)
        self.square = dict(square)
        self.hosts = {}
        self.consumed = set()
        self.node_steps = set()
        self.pairs = 0

    def options(self):
        """Every valid next step, as document dicts."""
        out = [{"kind": "smooth", "component": name} for name in self.order
               if not (self.initial == "II" and name == "F")]
        m = len(self.order)
        if m == 2:
            out.append({"kind": "node", "components": list(self.order)})
            out.append({"kind": "node", "components": self.order[::-1]})
        else:
            for i in range(m):
                c, d = self.order[i], self.order[(i + 1) % m]
                if {self.conj[c], self.conj[d]} != {c, d}:
                    out.append({"kind": "node", "components": [c, d]})
        for j in sorted(self.hosts):
            host = self.hosts[j]
            if host is None:
                out.append({"kind": "infinitely_near", "over_pair": j,
                            "on_strict_transform": None})
            elif j not in self.consumed:
                out.append({"kind": "infinitely_near", "over_pair": j,
                            "on_strict_transform": host})
        return out

    def _point(self, name):
        self.square[name] -= 1
        self.square[self.conj[name]] -= 1

    def _edge(self, c, d):
        m = len(self.order)
        return next(i for i in range(m)
                    if {self.order[i], self.order[(i + 1) % m]} == {c, d})

    def apply(self, step):
        self.pairs += 1
        k = self.pairs
        kind = step["kind"]
        if kind == "smooth":
            self._point(step["component"])
            self.hosts[k] = step["component"]
        elif kind == "node":
            c, d = step["components"]
            new, new_conj = f"E{2 * k - 1}", f"E{2 * k}"
            if len(self.order) == 2:
                self.square[c] -= 2
                self.square[d] -= 2
                first, second = self.order
                self.order = [first, new, second, new_conj]
            else:
                cc, cd = self.conj[c], self.conj[d]
                self.square[c] -= 1
                self.square[d] -= 1
                self.order.insert(self._edge(c, d) + 1, new)
                self.square[cc] -= 1
                self.square[cd] -= 1
                self.order.insert(self._edge(cc, cd) + 1, new_conj)
            self.square[new] = self.square[new_conj] = -1
            self.conj[new], self.conj[new_conj] = new_conj, new
            self.hosts[k] = None
            self.node_steps.add(k)
        else:
            j = step["over_pair"]
            if j in self.node_steps:
                name = f"E{2 * j - 1}"
            else:
                name = step["on_strict_transform"]
                self.consumed.add(j)
            self._point(name)
            self.hosts[k] = name

    def degrees(self):
        return [self.square[name] + 2 for name in self.order]


def walk(rng, initial, nodes_first=False):
    """A uniformly random valid 4-step schedule and its final model."""
    model = CycleModel(initial)
    steps = []
    for position in range(4):
        options = model.options()
        if nodes_first and position == 0:
            options = [o for o in options if o["kind"] == "node"]
        step = rng.choice(options)
        model.apply(step)
        steps.append(step)
    return steps, model


def _document(initial, steps, torsion=None):
    doc = {"n": len(steps), "initial_type": initial, "steps": steps}
    if torsion is not None:
        doc["torsion"] = torsion
    return doc


def _torsion(rng, index):
    """Cycle through tau = 1, a finite tau > 1, and tau = infinity."""
    which = index % 3
    if which == 0:
        return {"kind": "finite", "order": 1}
    if which == 1:
        return {"kind": "finite", "order": rng.randint(2, 12)}
    return {"kind": rng.choice(("infinite", "non_torsion"))}


def _tau(torsion):
    return torsion["order"] if torsion["kind"] == "finite" else "infinite"


def _nef_walk(rng):
    while True:
        initial = rng.choice(("I", "II", "III"))
        steps, model = walk(rng, initial)
        if min(model.degrees()) >= 0:
            return initial, steps, model


def _expect_walk(model, torsion):
    """What a valid schedule must classify to, as far as the model knows."""
    degrees = model.degrees()
    if min(degrees) >= 0:
        if torsion is None:
            return {"reject": "TorsionRequiredError"}
        return {"nef": True, "tau": _tau(torsion), "m": len(degrees)}
    if min(degrees) <= -3:
        return {"reject": "RealizabilityError", "tag": "degree-below-minus-2"}
    return {"nef": False, "m": len(degrees),
            "negatives": sorted(d for d in degrees if d < 0)}


_MALFORMED = ("bad_json", "unknown_field", "n_mismatch", "missing_component",
              "later_over_pair", "torsion_order", "n_three", "not_adjacent")


def _malformed(rng, index):
    """A document the program must refuse as malformed (ScheduleError)."""
    flavour = _MALFORMED[index % len(_MALFORMED)]
    initial = rng.choice(("I", "II", "III"))
    steps, _ = walk(rng, initial)
    doc = _document(initial, steps)
    if flavour == "bad_json":
        text = json.dumps(doc)
        return text[: rng.randint(1, len(text) - 1)]
    if flavour == "unknown_field":
        doc["comment"] = "unknown"
    elif flavour == "n_mismatch":
        doc["n"] = rng.choice((3, 5))
    elif flavour == "missing_component":
        steps[rng.randrange(4)] = {"kind": "smooth", "component": "Z9"}
    elif flavour == "later_over_pair":
        k = rng.randint(1, 4)
        steps[k - 1] = {"kind": "infinitely_near", "over_pair": k,
                        "on_strict_transform": None}
    elif flavour == "torsion_order":
        doc["torsion"] = {"kind": "finite", "order": rng.choice((0, -1))}
    elif flavour == "n_three":
        doc = _document(initial, steps[:3])
    else:  # not_adjacent: type I components F and Fbar never meet
        doc = _document("I", [{"kind": "node", "components": ["F", "Fbar"]}]
                        + walk(rng, "I")[0][1:])
    return json.dumps(doc)


def _unrealizable(rng, index):
    """A document with a realizability violation at a known step."""
    if index % 2 == 0:
        # a smooth point on the real fibre F of the type II cycle
        k = rng.randint(1, 4)
        model = CycleModel("II")
        steps = []
        for position in range(1, 5):
            step = ({"kind": "smooth", "component": "F"} if position == k
                    else rng.choice(model.options()))
            if position != k:
                model.apply(step)
            else:  # the program stops here; keep later E-names in step
                model.pairs += 1
            steps.append(step)
        return _document("II", steps), "real-fibre-location"
    # a generic point of the exceptional curve of a smooth step
    while True:
        initial = rng.choice(("I", "II", "III"))
        steps, model = walk(rng, initial)
        smooth = [j for j in range(1, 4) if j not in model.node_steps]
        if smooth:
            break
    j = rng.choice(smooth)
    k = rng.randint(j + 1, 4)
    steps[k - 1] = {"kind": "infinitely_near", "over_pair": j,
                    "on_strict_transform": None}
    return _document(initial, steps), "point-off-anticanonical-cycle"


def stream(seed):
    """The classify_stream pass: a shuffled list of (kind, text, expect)."""
    rng = random.Random(seed)
    items = []
    goldens = list(GOLDEN_TORSION)
    for i in range(STREAM_QUOTAS["golden"]):
        name = goldens[i % len(goldens)]
        initial, steps = GOLDEN_STEPS[name.split("_tau")[0]]
        doc = _document(initial, steps, GOLDEN_TORSION[name])
        items.append(("golden", json.dumps(doc), {"golden": name}))
    for initial in ("I", "II", "III"):
        for i in range(STREAM_QUOTAS["walk_" + initial]):
            steps, model = walk(rng, initial, nodes_first=(
                initial == "III" and i % 2 == 0))
            torsion = _torsion(rng, i) if min(model.degrees()) >= 0 else None
            doc = _document(initial, steps, torsion)
            items.append(("walk_" + initial, json.dumps(doc),
                          _expect_walk(model, torsion)))
    for i in range(STREAM_QUOTAS["nef"]):
        initial, steps, model = _nef_walk(rng)
        torsion = _torsion(rng, i)
        items.append(("nef", json.dumps(_document(initial, steps, torsion)),
                      _expect_walk(model, torsion)))
    for i in range(STREAM_QUOTAS["smooth"]):
        torsion = _torsion(rng, i)
        doc = {"n": 4, "initial_type": rng.choice(("I", "II", "III")),
               "steps": [], "smooth_anticanonical": True, "torsion": torsion}
        items.append(("smooth", json.dumps(doc),
                      {"nef": True, "tau": _tau(torsion), "m": 1}))
    for i in range(STREAM_QUOTAS["missing_torsion"]):
        if i % 4 == 0:
            doc = {"n": 4, "initial_type": "I", "steps": [],
                   "smooth_anticanonical": True}
        else:
            initial, steps, _ = _nef_walk(rng)
            doc = _document(initial, steps)
        items.append(("missing_torsion", json.dumps(doc),
                      {"reject": "TorsionRequiredError"}))
    for i in range(STREAM_QUOTAS["unrealizable"]):
        doc, tag = _unrealizable(rng, i)
        items.append(("unrealizable", json.dumps(doc),
                      {"reject": "RealizabilityError", "tag": tag}))
    for i in range(STREAM_QUOTAS["malformed"]):
        items.append(("malformed", _malformed(rng, i),
                      {"reject": "ScheduleError"}))
    rng.shuffle(items)
    return items


def formula_applies(degrees):
    """The closed h0 formula's hypotheses: m >= 3, at least two negative
    components, and a positive component on every arc between them."""
    m = len(degrees)
    negative = [i for i, d in enumerate(degrees) if d < 0]
    if m < 3 or len(negative) < 2:
        return False
    for a, b in zip(negative, negative[1:] + [negative[0] + m]):
        if b - a > 1 and not any(degrees[i % m] > 0 for i in range(a + 1, b)):
            return False
    return True


def kernels(seed):
    """The exact_kernels pass: a shuffled list of (kind, args) items.

    kind is "h0" with (degrees, oracle seed), or "det"/"kernel" with n.
    """
    rng = random.Random(seed)
    items = []
    for band, spec in H0_BANDS.items():
        lo, hi = spec["m"]
        for i in range(spec["count"]):
            m = lo + i % (hi - lo + 1)
            while True:
                degrees = [rng.randint(-spec["deg"], spec["deg"])
                           for _ in range(m)]
                if formula_applies(degrees):
                    break
            items.append(("h0_" + band, (degrees, rng.randrange(1 << 30))))
    items.extend(PAIRING_SWEEP)
    rng.shuffle(items)
    return items
