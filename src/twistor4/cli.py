"""Command-line front end.

Each subcommand builds its result once: a JSON payload and the text lines
read from the same values.  ``main`` prints one of them (``--json``, which
every subcommand but ``selftest`` takes, selects the payload) and owns the
exit codes: 0 success; 1 malformed input (bad flags, JSON, schema,
references to missing components, n != 4 for classify, an input above its
cap) or a failed selftest; 2 an error with a ``tag`` — a hypothesis or
realizability violation (the input parsed but describes a configuration
the theory refuses) or a failed internal invariant (``invariant-<name>``) —
with a one-line ``violation: <tag>: …`` diagnosis on stderr.
Results go to stdout, diagnoses to stderr, so output can be piped.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import NamedTuple

from . import schema
from .classify import classify, enumerate_configurations, model_from_document
from .cohomology import (
    chern_numbers,
    cup,
    euler_char_fundamental,
    evaluate,
    pairing_kernel,
    pairing_matrix,
    scalar,
    w,
    x,
)
from .cycles import (
    DEFAULT_ORACLE_SEED,
    CycleLineBundle,
    euler_char_cycle,
    h0_formula,
    h0_oracle,
)
from .errors import (
    DegreeError,
    HypothesisError,
    ScheduleError,
    TaggedError,
    TwistorError,
)

__all__ = ["main"]

# caps on the inputs whose cost grows without bound: ``--n`` of chern,
# pairing and ring at ``schema.MAX_N`` (coefficient tuples of length n, and
# the pairing determinant), and the kernel oracle, whose linear system
# grows with the total degree and has a row per component
_ORACLE_MAX_DEGREE = 1000
_ORACLE_MAX_COMPONENTS = 1000


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-1 path."""

    def error(self, message):
        raise ScheduleError(message)


class _Result(NamedTuple):
    """A subcommand's result: ``payload`` for ``--json``, else ``lines``.
    ``failure`` is raised once the result is printed; otherwise ``main``
    exits with ``code``."""

    payload: dict | None
    lines: list
    failure: TwistorError | None = None
    code: int = 0


def _emit(args, result):
    if getattr(args, "json", False):
        print(schema.canonical_json(result.payload))
    else:
        print("\n".join(result.lines))


def _resolve_seed(explicit):
    if explicit is not None:
        return explicit
    env = os.environ.get("TWISTOR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ScheduleError(
                f"TWISTOR_SEED must be an integer, got {env!r}"
            ) from None
    return DEFAULT_ORACLE_SEED


# -- subcommands -------------------------------------------------------------


def _check_n(n):
    if n > schema.MAX_N:
        raise DegreeError(f"--n is capped at {schema.MAX_N}, got {n}")


def _cmd_chern(args):
    _check_n(args.n)
    data = chern_numbers(args.n)
    payload = {"n": args.n, "c1_cubed": data.c1_cubed, "c1_c2": data.c1_c2,
               "c3": data.c3}
    return _Result(payload, [f"c1^3  = {data.c1_cubed}",
                             f"c1.c2 = {data.c1_c2}", f"c3    = {data.c3}"])


def _cmd_pairing(args):
    _check_n(args.n)
    data = pairing_matrix(args.n)
    matrix = [list(row) for row in data.matrix]
    kernel = pairing_kernel(args.n)
    payload = {"n": args.n, "det": data.det, "matrix": matrix,
               "kernel": [list(v) for v in kernel]}
    lines = [f"det = {data.det}"]
    if args.matrix:
        width = max(len(str(e)) for row in matrix for e in row)
        lines += ["  " + " ".join(f"{e:>{width}}" for e in row) for row in matrix]
    lines += [f"kernel: ({', '.join(map(str, v))})" for v in kernel]
    return _Result(payload, lines if kernel else lines + ["kernel: trivial"])


def _cmd_euler(args):
    if args.m < 0:
        raise ScheduleError("--m must be non-negative")
    value = euler_char_fundamental(args.n, args.m)
    return _Result({"n": args.n, "m": args.m, "chi": value}, [str(value)])


_TOKEN_SPLIT = re.compile(r"[\s*]+")


def _parse_ring_expr(n, expr):
    tokens = [t for t in _TOKEN_SPLIT.split(expr.strip()) if t]
    if not tokens:
        raise ScheduleError("empty ring expression")
    result = scalar(n, 1)
    for token in tokens:
        if token == "w":
            factor = w(n)
        elif re.fullmatch(r"x[0-9]+", token):
            factor = x(n, int(token[1:]))
        else:
            raise ScheduleError(
                f"unknown generator {token!r}: use w and x1..x{n}, "
                "separated by '*' or spaces"
            )
        result = cup(result, factor)
    return result


def _cmd_ring(args):
    _check_n(args.n)
    product = _parse_ring_expr(args.n, args.expr)
    value = evaluate(product) if product.degree == 6 else None
    payload = {"n": args.n, "expr": args.expr, "degree": product.degree,
               "coefficients": list(product.coeffs), "pretty": str(product),
               "evaluation": value}
    lines = [f"class: {product}", f"degree: {product.degree}"]
    if value is not None:
        lines.append(f"evaluation: {value}")
    return _Result(payload, lines)


def _parse_degrees(text):
    parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        degrees = tuple(int(p) for p in parts)
    except ValueError:
        raise ScheduleError(
            f"--degrees must be a comma-separated integer list, got {text!r}"
        ) from None
    if len(degrees) < 2:
        raise ScheduleError("--degrees needs at least two components")
    return degrees


def _cmd_cycle_h0(args):
    bundle = CycleLineBundle(_parse_degrees(args.degrees))
    total, m = sum(map(abs, bundle.degrees)), len(bundle.degrees)
    if args.oracle and total > _ORACLE_MAX_DEGREE:
        cap = _ORACLE_MAX_DEGREE
        raise DegreeError(f"--oracle is capped at sum(|deg|) = {cap}, got {total}")
    if args.oracle and m > _ORACLE_MAX_COMPONENTS:
        cap = _ORACLE_MAX_COMPONENTS
        raise DegreeError(f"--oracle is capped at {cap} components, got {m}")
    formula = violation = oracle = seed = None
    try:
        formula = h0_formula(bundle)
    except HypothesisError as exc:
        violation = exc
    if args.oracle:
        seed = _resolve_seed(args.seed)
        oracle = h0_oracle(bundle, seed=seed)
    if violation is not None and oracle is None:
        raise violation
    agree = None if formula is None or oracle is None else formula == oracle
    payload = {"degrees": list(bundle.degrees), "chi": euler_char_cycle(bundle),
               "formula": formula, "oracle": oracle, "seed": seed, "agree": agree,
               "hypothesis_violation": violation.tag if violation else None}
    lines = [f"formula: {formula}" if violation is None
             else f"formula: hypothesis violated ({violation.tag})"]
    if oracle is not None:
        lines.append(f"oracle (seed={seed}): {oracle}")
    if agree is not None:
        lines.append(f"agree: {'yes' if agree else 'NO'}")
    if agree is not False:
        return _Result(payload, lines)
    return _Result(payload, lines, TaggedError(
        "formula-oracle-disagreement", "the closed formula and the kernel "
        f"oracle differ ({formula} vs {oracle})"))


def _report_lines(report, letter):
    """Text form of a ``ClassificationReport.as_dict()`` and its case letter."""
    negatives = ", ".join(f"{name} ({d})" for name, d in report["negative_curves"])
    lines = [
        f"case: {report['case']}" + (f" (case {letter})" if letter else ""),
        f"algebraic dimension: {report['algebraic_dimension']}",
        f"h0(F): {report['h0_fundamental']}",
        f"dim |F|: {report['dim_fundamental_system']}",
        f"base locus: {report['base_locus']}",
        f"negative components: {negatives or 'none'}",
        f"degree-one count: {report['degree_one_count']}",
        f"lebrun: {'yes' if report['lebrun'] else 'no'}",
    ]
    if report["tau"] is not None:
        lines.append(f"tau: {report['tau']}")
    if report["dim_minus2KS"] is not None:
        lines.append(f"dim |-2K_S|: {report['dim_minus2KS']}")
        lines.append(f"dim |-K_Z|: {report['dim_antican_Z']}")
    return lines


def _cmd_classify(args):
    report = classify(model_from_document(schema.load_document(args.file)))
    payload = report.as_dict()
    return _Result(payload, _report_lines(payload, report.case_letter))


def _table_row(entry):
    r = entry["report"]
    if r is None:
        return (f"{entry['digest']:<12}  {'error:' + entry['error']:<24}  "
                f"{'-':>2}  {'-':>3}  {'-':>1}  -")
    return (f"{entry['digest']:<12}  {r['case']:<24}  {r['h0_fundamental']:>2}  "
            f"{r['dim_fundamental_system']:>3}  {r['algebraic_dimension']:>1}  "
            f"{r['degree_one_count']}")


def _cmd_enumerate(args):
    if args.limit is not None and args.limit < 1:
        raise ScheduleError("--limit must be positive")
    result = enumerate_configurations(max_reports=args.limit)
    entries = [
        {
            "digest": entry.digest,
            "initial_type": entry.schedule.initial_type,
            "shape": [list(pair) for pair in entry.shape],
            "document": entry.document,
            "report": entry.report.as_dict() if entry.report else None,
            "error": entry.error,
        }
        for entry in result.entries
    ]
    payload = {"entries": entries, "visited": result.visited,
               "exhausted": result.exhausted}
    header = f"{'digest':<12}  {'case':<24}  {'h0':>2}  {'dim':>3}  {'a':>1}  deg1"
    lines = [header, "-" * len(header), *map(_table_row, entries),
             f"visited {result.visited} schedules; {len(entries)} entries; "
             f"exhausted: {'yes' if result.exhausted else 'no'}"]
    return _Result(payload, lines)


def _cmd_selftest(args):
    from .acceptance import run_all

    results = run_all()
    lines = [f"criterion {r.number} ({r.name}): "
             f"{'PASS' if r.passed else 'FAIL'} - {r.detail}" for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} criteria passed")
    return _Result(None, lines, code=0 if passed == len(results) else 1)


# -- parser ------------------------------------------------------------------


def _build_parser():
    parser = _Parser(
        prog="twistor4",
        description=(
            "Exact invariants of twistor spaces over connected sums of "
            "complex projective planes: cohomology ring, intersection "
            "pairing, cycle cohomology and the n=4 algebraic-dimension "
            "classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("chern", _cmd_chern, "Chern numbers c1^3, c1.c2, c3")
    p.add_argument("--n", type=int, required=True, help="number of CP^2 summands")
    p = command("pairing", _cmd_pairing, "H2 x H2 -> H4 pairing determinant")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--matrix", action="store_true", help="print the matrix")
    p = command("euler", _cmd_euler, "chi(F^m) on the twistor space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p = command("ring", _cmd_ring, "reduce a product of ring generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--expr", required=True,
                   help="product of tokens w, x1..xn, e.g. 'w*w*w' or 'x1 x1 w'")
    p = command("cycle-h0", _cmd_cycle_h0,
                "h0 of a line bundle on a cycle of rational curves")
    p.add_argument("--degrees", required=True,
                   help="comma-separated component degrees")
    p.add_argument("--oracle", action="store_true",
                   help="also run the randomized kernel oracle")
    p.add_argument("--seed", type=int, default=None, help="oracle seed")
    p = command("classify", _cmd_classify, "classify a schedule document")
    p.add_argument("file", help="path to a schedule JSON document")
    p = command("enumerate", _cmd_enumerate,
                "classify all schedules up to conjugation symmetry")
    p.add_argument("--limit", type=int, default=None, help="cap kept entries")
    command("selftest", _cmd_selftest, "run the acceptance suite")

    for name, p in sub.choices.items():
        if name != "selftest":
            p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        result = args.func(args)
        _emit(args, result)
        if result.failure is not None:
            raise result.failure
        return result.code
    except (TwistorError, OSError, ValueError) as exc:
        tag = getattr(exc, "tag", None)
        if tag:
            print(f"violation: {tag}: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
