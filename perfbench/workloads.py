"""The three workloads: what one item is, how the program runs it, and how
its output is checked.

``run`` is the only part that is timed; it calls the program through module
attributes, so that the tracer's wrappers see every call.  ``check`` runs
on the verification pass, before timing, with the benchmark's own
expectations; later passes must then reproduce the verified outputs
exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json

import inputs

# The classifier's own rejections of a schedule that realizes cleanly.
_CLASSIFY_TAGS = ("negative-pattern", "pair-not-disjoint", "case-c-structure")


def fingerprint(output):
    return hashlib.sha256(repr(output).encode("utf-8")).hexdigest()


class Workload:
    name = ""
    unit = "items"  # what throughput_per_s counts

    def __init__(self, expected):
        self.expected = expected

    def generate(self, seed):
        """One pass of items, made from the seed alone."""
        raise NotImplementedError

    def probe_item(self, items):
        """The cold first item that setup_s times."""
        raise NotImplementedError

    def bind(self):
        """Import the program; kept out of ``__init__`` so that input
        generation never touches it."""
        mod = importlib.import_module
        self.cli = mod("twistor4.cli")
        self.classify = mod("twistor4.classify")
        self.schema = mod("twistor4.schema")
        self.cohomology = mod("twistor4.cohomology")
        self.cycles = mod("twistor4.cycles")
        self.errors = mod("twistor4.errors")

    def run(self, item):
        raise NotImplementedError

    def key(self, output):
        """The part of an output that later passes must reproduce."""
        return output

    def units(self, output):
        """How many throughput units one item's output stands for."""
        return 1

    def check(self, item, output):
        """Problems with one verified output, as a list of strings."""
        raise NotImplementedError

    def check_pass(self, outputs, seed):
        """Problems with the verification pass as a whole, plus notes."""
        return [], []

    def pass_counters(self, outputs):
        """Per-layer counters read off the verified outputs."""
        return {}


class EnumerateJson(Workload):
    """``twistor4 enumerate --json`` in-process, stdout captured."""

    name = "enumerate_json"
    unit = "schedules visited"

    def generate(self, seed):
        # the walk is exhaustive: the input does not depend on the seed
        return [["enumerate", "--json"]]

    def probe_item(self, items):
        # the same command, stopped at its first kept entry: setup_s is the
        # import and first-call cost, the walk itself is latency_p50_ms
        return ["enumerate", "--json", "--limit", "1"]

    def run(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.main(list(argv))
        return code, buffer.getvalue()

    def units(self, output):
        return json.loads(output[1])["visited"]

    def check(self, argv, output):
        code, text = output
        pin = self.expected["enumerate_json"]
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != pin["sha256"]:
            problems.append(f"output sha256 {digest} != pinned {pin['sha256']}")
        result = json.loads(text)
        if result["visited"] != pin["visited"]:
            problems.append(f"visited {result['visited']} != {pin['visited']}")
        if len(result["entries"]) != pin["entries"]:
            problems.append(f"{len(result['entries'])} entries != {pin['entries']}")
        if result["exhausted"] is not True:
            problems.append("walk not exhausted")
        return problems

    def pass_counters(self, outputs):
        result = json.loads(outputs[0][1])
        return {"classify.visited": result["visited"],
                "classify.kept_ratio":
                    len(result["entries"]) / result["visited"]}


class ClassifyStream(Workload):
    """Schedule documents as JSON text, classified one at a time."""

    name = "classify_stream"
    unit = "documents"

    def generate(self, seed):
        return inputs.stream(seed)

    def probe_item(self, items):
        return next(item for item in items if item[0] == "walk_I")

    def run(self, item):
        try:
            doc = self.schema.loads_document(item[1])
            report = self.classify.classify(
                self.classify.model_from_document(doc))
            return self.schema.canonical_json(report.as_dict()), report
        except self.errors.TwistorError as exc:
            return f"reject:{type(exc).__name__}:{getattr(exc, 'tag', '')}", None

    def key(self, output):
        return output[0]

    def check(self, item, output):
        kind, _, expect = item
        text, report = output
        if text.startswith("reject:"):
            _, cls, tag = text.split(":", 2)
            if expect.get("reject") == cls and expect.get("tag", tag) == tag:
                return []
            if (expect.get("nef") is False and cls == "RealizabilityError"
                    and tag in _CLASSIFY_TAGS):
                return []
            return [f"{kind}: unexpected {text}; expected {expect}"]
        if "reject" in expect:
            return [f"{kind}: accepted, expected {expect['reject']}"]
        try:
            self.classify.check_report(report)
        except AssertionError as exc:
            return [f"{kind}: check_report failed: {exc}"]
        got = json.loads(text)
        if "golden" in expect:
            want = inputs.GOLDEN_FACTS[expect["golden"]]
        elif expect["nef"]:
            tau = expect["tau"]
            want = {"case": "NEF", "nef": True, "tau": tau,
                    "cycle_length": expect["m"],
                    "h0_fundamental": 3 if tau == 1 else 2,
                    "algebraic_dimension": 1 if tau == "infinite" else 2,
                    "smooth_anticanonical": expect["m"] == 1}
        else:
            want = {"nef": False, "cycle_length": expect["m"],
                    "negative_degrees": expect["negatives"]}
            got["negative_degrees"] = sorted(d for _, d in got["negative_curves"])
        wrong = {k: (got[k], v) for k, v in want.items() if got[k] != v}
        return [f"{kind}: (got, expected) {wrong}"] if wrong else []

    def outcome_digest(self, outputs):
        return hashlib.sha256(
            "\n".join(self.key(o) for o in outputs).encode("utf-8")).hexdigest()

    def check_pass(self, outputs, seed):
        digest = self.outcome_digest(outputs)
        pinned = self.expected["classify_stream_digests"].get(str(seed))
        notes = [f"outcome digest {digest} "
                 + ("(pinned)" if pinned else "(no pin for this seed)")]
        if pinned and pinned != digest:
            return [f"outcome digest {digest} != pinned {pinned}"], notes
        return [], notes

    def pass_counters(self, outputs):
        accepted = sum(o[1] is not None for o in outputs)
        return {"classify_stream.accepted_ratio": accepted / len(outputs)}


class ExactKernels(Workload):
    """h0 formula against the kernel oracle, and the pairing sweep."""

    name = "exact_kernels"
    unit = "kernel calls"

    def generate(self, seed):
        return inputs.kernels(seed)

    def probe_item(self, items):
        return next(item for item in items if item[0] == "h0_small")

    def run(self, item):
        kind, args = item
        if kind == "det":
            return self.cohomology.pairing_matrix(args).det
        if kind == "kernel":
            return self.cohomology.pairing_kernel(args)
        degrees, seed = args
        bundle = self.cycles.CycleLineBundle(tuple(degrees))
        return (self.cycles.h0_formula(bundle),
                self.cycles.h0_oracle(bundle, seed=seed))

    def check(self, item, output):
        kind, args = item
        if kind == "det":
            want = 2 ** (args - 1) * abs(args - 4)
            ok = abs(output) == want
        elif kind == "kernel":
            want = ((1, 1, 1, 1, 2),) if args == 4 else ()
            ok = output == want
        else:
            want = "formula == oracle"
            ok = output[0] == output[1]
        return [] if ok else [f"{kind} {args}: got {output}, expected {want}"]


WORKLOADS = {w.name: w for w in (EnumerateJson, ClassifyStream, ExactKernels)}

