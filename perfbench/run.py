"""twistor4 benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload enumerate_json --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A run generates its inputs from --seed, imports twistor4 from ./src and
runs one verification pass whose every output is checked.  It then repeats
whole passes until their time adds up to --seconds, with fresh-process cold
starts (setup_s) between them.  With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics, writing every span to
.perfbench/trace-<workload>.json.  The last line of stdout is the JSON
result.  One process, no threads; ``--workload all`` runs each workload in
its own fresh process.  NOTES.md says why the workloads and metrics are
what they are.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from spans import ITEM_SPAN, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

SETUP_PROBES = 9
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
# calibrate() at its best on the reference machine, a 2-vCPU Intel Xeon VM;
# end-to-end times are scaled by CAL_REFERENCE_S / (best calibrate() in
# the run), so they read as seconds on that machine at full speed
CAL_REFERENCE_S = 0.0028
CAL_EVERY_S = 0.2


def calibrate():
    """Fixed pure-Python work that no change to the program alters: walks
    of the benchmark's own schedule model (dicts, lists, strings) and an
    exact harmonic sum (Fraction and big-integer arithmetic)."""
    rng = random.Random(0)
    for _ in range(80):
        inputs.walk(rng, "I")
    total = Fraction(0)
    for i in range(1, 250):
        total += Fraction(1, i)
    return total


def _config():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        config = json.load(handle)
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    return config, expected


class Run:
    """State of one workload run: items, verified outputs, failures."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.keys = []
        self.outputs = []
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.probe_want = None
        self.calibration = None  # calibrate() times, when calibrating
        self.last_calibration = -math.inf

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def verify(self, seed):
        """Run every item once and check each output."""
        workload = self.workload
        for item in self.items:
            self.attempted += 1
            try:
                output = workload.run(item)
            except Exception:  # an untagged exception is a failed item
                self.fail(f"{item!r:.80}: {traceback.format_exc(limit=3)}")
                output = None
            else:
                for problem in workload.check(item, output):
                    self.fail(problem)
            self.outputs.append(output)
            self.keys.append(None if output is None else workload.key(output))
        if None in self.outputs:
            return []
        problems, notes = workload.check_pass(self.outputs, seed)
        for problem in problems:
            self.fail(problem)
        return notes

    def one_pass(self, run, best=None, tracer=None):
        """Run the whole pass once; returns its wall time in seconds.

        ``best`` holds each item's fastest latency so far and is updated.
        """
        clock = time.perf_counter
        key, keys = self.workload.key, self.keys
        start = clock()
        for index, item in enumerate(self.items):
            if tracer is not None:
                tracer.item = index
            if (self.calibration is not None
                    and clock() - self.last_calibration >= CAL_EVERY_S):
                began = clock()
                calibrate()
                self.last_calibration = clock()
                self.calibration.append(self.last_calibration - began)
            began = clock()
            try:
                output = run(item)
            except Exception:
                output = None
                self.fail(traceback.format_exc(limit=3))
            elapsed = clock() - began
            if best is not None and elapsed < best[index]:
                best[index] = elapsed
            self.attempted += 1
            if output is not None and key(output) != keys[index]:
                self.fail(f"item {index}: output differs from the verified pass")
        return clock() - start

    def setup_time(self):
        """One cold start in a fresh interpreter.  Its output must equal
        that of the same item run warm in this process."""
        workload = self.workload
        item = workload.probe_item(self.items)
        if self.probe_want is None:
            self.probe_want = fingerprint(workload.key(workload.run(item)))
        command = [sys.executable, str(HERE / "probe.py"), workload.name,
                   json.dumps(item)]
        self.attempted += 1
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
        if proc.returncode != 0:
            self.fail(f"setup probe exited {proc.returncode}: "
                       f"{proc.stderr[-500:]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["fingerprint"] != self.probe_want:
            self.fail("setup probe output differs from the warm run")
        return result["setup_s"]


def _tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(run, seconds, notes):
    """Timings are per item, each the fastest of its repetitions in the run,
    scaled by the machine's speed as calibrate() measures it.

    On a shared VM the machine's speed can swing by up to 1.8x, for seconds
    or for minutes at a time, with CPU time equal to wall time.  An item's
    best repetition removes the short swings; the calibration, interleaved
    with the items every CAL_EVERY_S, takes out part of the long ones.  Cold starts
    are spread between passes so that they, too, sample the whole run;
    --seconds counts pass time only.
    """
    workload = run.workload
    units = sum(workload.units(o) for o in run.outputs if o is not None)
    best = [math.inf] * len(run.items)
    run.calibration = []
    setup, passes, timed = [], 0, 0.0
    while passes == 0 or timed < seconds:
        timed += run.one_pass(workload.run, best)
        passes += 1
        if len(setup) < SETUP_PROBES:
            setup.append(run.setup_time())
    while len(setup) < SETUP_PROBES:
        setup.append(run.setup_time())
    setup = [t for t in setup if t is not None]
    tail, percentile = _tail(best)
    raw = {"throughput_per_s": units / sum(best),
           "latency_p50_ms": statistics.median(best) * 1e3,
           "latency_tail_ms": tail * 1e3,
           "setup_s": statistics.median(setup) if setup else math.nan}
    scale = CAL_REFERENCE_S / min(run.calibration or [CAL_REFERENCE_S])
    notes.append(f"{passes} passes in {timed:.2f} s; "
                 f"latencies are over {len(best)} items, each the fastest of "
                 f"{passes} repetitions; latency_tail_ms is p{percentile:.2f}; "
                 f"setup_s is the median of {len(setup)} cold starts")
    notes.append(f"times scaled by {scale:.4f} (best calibrate() of "
                 f"{len(run.calibration)}: {CAL_REFERENCE_S / scale * 1e3:.3f} "
                 "ms); unscaled: " + ", ".join(
                     f"{name} = {value:.6g}" for name, value in raw.items()))
    return {
        "throughput_per_s": raw["throughput_per_s"] / scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "latency_tail_ms": raw["latency_tail_ms"] * scale,
        "ok_ratio": 1.0 - run.failed / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": raw["setup_s"] * scale,
    }


def _pass_metrics(summary, wall):
    """Per-layer numbers of one traced pass."""
    self_ns, incl_ns, calls = (summary["self_ns"], summary["incl_ns"],
                               summary["calls"])

    def self_s(*names):
        return sum(self_ns.get(name, 0) for name in names) / 1e9

    def incl_s(name):
        return incl_ns.get(name, 0) / 1e9

    times = {f"{layer}.self_s": sum(v for k, v in self_ns.items()
                                    if k.startswith(layer + ".")) / 1e9
             for layer in LAYERS}
    times.update({
        "bench.self_s": self_s(ITEM_SPAN),
        "trace.pass_s": wall,
        "trace.accounted_ratio": sum(self_ns.values()) / 1e9 / wall,
        "lattice.realize_self_s": self_s("lattice.realize_cycle"),
        "lattice.validate_s": incl_s("lattice.validate"),
        "classify.walk_self_s": self_s("classify.enumerate_configurations"),
        "classify.classify_self_s": self_s("classify.classify"),
        "cohomology.chern_s": incl_s("cohomology.chern_numbers"),
        "schema.parse_s": self_s("schema.loads_document",
                                 "schema.parse_document"),
        "schema.emit_s": self_s("schema.document_for", "schema.document_digest",
                                "schema.canonical_json"),
        "cycles.h0_oracle_self_s": self_s("cycles.h0_oracle"),
        "linalg.rank_s": incl_s("linalg.rank"),
        "linalg.bareiss_s": incl_s("linalg.bareiss_determinant"),
        "linalg.nullspace_s": incl_s("linalg.nullspace"),
        "cohomology.pairing_self_s": self_s("cohomology.pairing_matrix",
                                            "cohomology.pairing_kernel"),
    })
    counts = {
        "lattice.realize_calls": calls.get("lattice.realize_cycle", 0),
        "lattice.validate_calls": calls.get("lattice.validate", 0),
        "lattice.divisor_objects": summary["divisor_objects"],
        "lattice.elementary_transform_calls":
            calls.get("lattice.elementary_transform", 0),
        "classify.classify_calls": calls.get("classify.classify", 0),
        "cohomology.chern_calls": calls.get("cohomology.chern_numbers", 0),
        "cycles.h0_oracle_calls": calls.get("cycles.h0_oracle", 0),
        "linalg.rank_calls": calls.get("linalg.rank", 0),
        "linalg.bareiss_calls": calls.get("linalg.bareiss_determinant", 0),
    }
    counts.update(summary["rejected"])
    return times, counts


def per_layer(run, seconds, declared, notes):
    workload = run.workload
    tracer = Tracer()
    traced_run = tracer.wrap(ITEM_SPAN, workload.run)
    plain, traced, times, counts = [], [], [], []
    best_plain = [math.inf] * len(run.items)
    best_traced = [math.inf] * len(run.items)
    while not traced or sum(plain) + sum(traced) < seconds:
        plain.append(run.one_pass(workload.run, best_plain))
        tracer.install()
        try:
            first = tracer.mark()
            wall = run.one_pass(traced_run, best_traced, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        pass_times, pass_counts = _pass_metrics(tracer.summary(first), wall)
        times.append(pass_times)
        counts.append(pass_counts)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload.name}.json")
    if any(c != counts[0] for c in counts):
        run.fail("exact counters differ between traced passes")
    undeclared = sorted(set(counts[0]) - set(declared))
    if undeclared:
        run.fail(f"counters not declared in BENCHMARK.json: {undeclared}")
    # times come from the fastest traced pass, and the overhead from the
    # items' best times, for the reason given in end_to_end
    fastest = traced.index(min(traced))
    # counters a workload never touches read 0
    metrics = {name: 0 for name in declared if ".rejected." in name}
    metrics.update({"classify.kept_ratio": 0, "classify.visited": 0,
                    "classify_stream.accepted_ratio": 0})
    metrics.update(counts[0])
    metrics.update(times[fastest])
    metrics["trace.overhead_ratio"] = sum(best_traced) / sum(best_plain)
    if None not in run.outputs:
        metrics.update(workload.pass_counters(run.outputs))
    notes.append(f"{len(traced)} traced and {len(plain)} untraced passes; "
                 f"{len(tracer.spans)} spans written to "
                 f".perfbench/trace-{workload.name}.json")
    return metrics


def run_one(args, config, expected):
    workload = WORKLOADS[args.workload](expected)
    items = workload.generate(args.seed)
    sys.path.insert(0, str(SRC))
    workload.bind()
    import twistor4

    if Path(twistor4.__file__).resolve().parent != SRC / "twistor4":
        raise SystemExit(f"twistor4 imported from {twistor4.__file__}, "
                         f"not from {SRC}")
    run = Run(workload, items)
    notes = run.verify(args.seed)
    if args.trace:
        declared = [m["name"] for m in config["per_layer"]]
        values = per_layer(run, args.seconds, declared, notes)
        metrics = config["per_layer"]
    else:
        values = end_to_end(run, args.seconds, notes)
        metrics = config["end_to_end"]
    print(f"{workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(items)} items per pass ({workload.unit} for throughput)")
    for note in notes + run.problems:
        print("  " + note.rstrip())
    result = {}
    for metric in metrics:
        value = values[metric["name"]]
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']} = {value:.6g} {metric['unit']}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": result}


def run_all(args):
    """Each workload in a fresh process; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "twistor4" / "__init__.py").is_file():
        print(f"error: no twistor4 sources under {SRC}", file=sys.stderr)
        return 2
    config, expected = _config()
    result = run_all(args) if args.workload == "all" else run_one(
        args, config, expected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
