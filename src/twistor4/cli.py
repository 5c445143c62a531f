"""Command-line front end.

Exit codes: 0 success; 1 malformed input (bad flags, JSON, schema,
references to missing components, n != 4 for classify, an input above its
cap); 2 a hypothesis or realizability violation — the input parsed but
describes a configuration the theory refuses — or a failed internal
invariant (``invariant-<name>``), each with a one-line structured
diagnosis on stderr.
Results go to stdout, diagnoses to stderr, so output can be piped.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

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
    InvariantError,
    RealizabilityError,
    ScheduleError,
    TorsionRequiredError,
)

__all__ = ["main"]

# caps on the inputs whose cost grows without bound: ``--n`` of chern,
# pairing and ring (coefficient tuples of length n, and the pairing
# determinant) and the kernel oracle at the total degree it is given
_MAX_N = 150
_ORACLE_MAX_DEGREE = 1000


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-1 path."""

    def error(self, message):
        raise ScheduleError(message)


def _print_json(obj):
    print(schema.canonical_json(obj))


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
    if n > _MAX_N:
        raise DegreeError(f"--n is capped at {_MAX_N}, got {n}")


def _cmd_chern(args):
    _check_n(args.n)
    data = chern_numbers(args.n)
    if args.json:
        _print_json(
            {
                "n": args.n,
                "c1_cubed": data.c1_cubed,
                "c1_c2": data.c1_c2,
                "c3": data.c3,
            }
        )
    else:
        print(f"c1^3  = {data.c1_cubed}")
        print(f"c1.c2 = {data.c1_c2}")
        print(f"c3    = {data.c3}")
    return 0


def _cmd_pairing(args):
    _check_n(args.n)
    data = pairing_matrix(args.n)
    kernel = pairing_kernel(args.n)
    if args.json:
        _print_json(
            {
                "n": args.n,
                "det": data.det,
                "matrix": [list(row) for row in data.matrix],
                "kernel": [list(v) for v in kernel],
            }
        )
        return 0
    print(f"det = {data.det}")
    if args.matrix:
        width = max(len(str(e)) for row in data.matrix for e in row)
        for row in data.matrix:
            print("  " + " ".join(f"{e:>{width}}" for e in row))
    if kernel:
        for v in kernel:
            print(f"kernel: ({', '.join(str(c) for c in v)})")
    else:
        print("kernel: trivial")
    return 0


def _cmd_euler(args):
    if args.m < 0:
        raise ScheduleError("--m must be non-negative")
    value = euler_char_fundamental(args.n, args.m)
    if args.json:
        _print_json({"n": args.n, "m": args.m, "chi": value})
    else:
        print(value)
    return 0


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
    if args.json:
        _print_json(
            {
                "n": args.n,
                "expr": args.expr,
                "degree": product.degree,
                "coefficients": list(product.coeffs),
                "pretty": str(product),
                "evaluation": value,
            }
        )
        return 0
    print(f"class: {product}")
    print(f"degree: {product.degree}")
    if value is not None:
        print(f"evaluation: {value}")
    return 0


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
    total = sum(map(abs, bundle.degrees))
    if args.oracle and total > _ORACLE_MAX_DEGREE:
        cap = _ORACLE_MAX_DEGREE
        raise DegreeError(f"--oracle is capped at sum(|deg|) = {cap}, got {total}")
    formula_value = None
    violation = None
    try:
        formula_value = h0_formula(bundle)
    except HypothesisError as exc:
        violation = exc
    oracle_value = None
    seed = None
    if args.oracle:
        seed = _resolve_seed(args.seed)
        oracle_value = h0_oracle(bundle, seed=seed)
    if violation is not None and oracle_value is None:
        raise violation
    agree = (
        formula_value == oracle_value
        if formula_value is not None and oracle_value is not None
        else None
    )
    if args.json:
        _print_json(
            {
                "degrees": list(bundle.degrees),
                "chi": euler_char_cycle(bundle),
                "formula": formula_value,
                "hypothesis_violation": violation.tag if violation else None,
                "oracle": oracle_value,
                "seed": seed,
                "agree": agree,
            }
        )
    else:
        if formula_value is not None:
            print(f"formula: {formula_value}")
        else:
            print(f"formula: hypothesis violated ({violation.tag})")
        if oracle_value is not None:
            print(f"oracle (seed={seed}): {oracle_value}")
        if agree is not None:
            print(f"agree: {'yes' if agree else 'NO'}")
    if agree is False:
        print(
            "violation: formula-oracle-disagreement: the closed formula and "
            f"the kernel oracle differ ({formula_value} vs {oracle_value})",
            file=sys.stderr,
        )
        return 2
    return 0


def _report_lines(report):
    letter = report.case_letter
    case = report.case + (f" (case {letter})" if letter else "")
    lines = [
        f"case: {case}",
        f"algebraic dimension: {report.algebraic_dimension}",
        f"h0(F): {report.h0_fundamental}",
        f"dim |F|: {report.dim_fundamental_system}",
        f"base locus: {report.base_locus}",
    ]
    if report.negative_curves:
        negs = ", ".join(f"{name} ({d})" for name, d in report.negative_curves)
        lines.append(f"negative components: {negs}")
    else:
        lines.append("negative components: none")
    deg1 = schema.encode_infinite(report.degree_one_count)
    lines.append(f"degree-one count: {deg1}")
    lines.append(f"lebrun: {'yes' if report.lebrun else 'no'}")
    if report.tau is not None:
        lines.append(f"tau: {schema.encode_infinite(report.tau)}")
    if report.dim_minus2KS is not None:
        lines.append(f"dim |-2K_S|: {report.dim_minus2KS}")
        lines.append(f"dim |-K_Z|: {report.dim_antican_Z}")
    return lines


def _cmd_classify(args):
    doc = schema.load_document(args.file)
    report = classify(model_from_document(doc))
    if args.json:
        _print_json(report.as_dict())
    else:
        for line in _report_lines(report):
            print(line)
    return 0


def _cmd_enumerate(args):
    if args.limit is not None and args.limit < 1:
        raise ScheduleError("--limit must be positive")
    result = enumerate_configurations(max_reports=args.limit)
    if args.json:
        entries = []
        for entry in result.entries:
            entries.append(
                {
                    "digest": entry.digest,
                    "initial_type": entry.schedule.initial_type,
                    "shape": [list(pair) for pair in entry.shape],
                    "document": entry.document,
                    "report": entry.report.as_dict() if entry.report else None,
                    "error": entry.error,
                }
            )
        _print_json(
            {
                "entries": entries,
                "visited": result.visited,
                "exhausted": result.exhausted,
            }
        )
        return 0
    header = f"{'digest':<12}  {'case':<24}  {'h0':>2}  {'dim':>3}  {'a':>1}  deg1"
    print(header)
    print("-" * len(header))
    for entry in result.entries:
        if entry.report is not None:
            r = entry.report
            print(
                f"{entry.digest:<12}  {r.case:<24}  {r.h0_fundamental:>2}  "
                f"{r.dim_fundamental_system:>3}  {r.algebraic_dimension:>1}  "
                f"{schema.encode_infinite(r.degree_one_count)}"
            )
        else:
            print(
                f"{entry.digest:<12}  {'error:' + entry.error:<24}  "
                f"{'-':>2}  {'-':>3}  {'-':>1}  -"
            )
    print(
        f"visited {result.visited} schedules; {len(result.entries)} entries; "
        f"exhausted: {'yes' if result.exhausted else 'no'}"
    )
    return 0


def _cmd_selftest(args):
    from .acceptance import run_all

    results = run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.number} ({r.name}): {status} - {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


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

    p = sub.add_parser("chern", help="Chern numbers c1^3, c1.c2, c3")
    p.add_argument("--n", type=int, required=True, help="number of CP^2 summands")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chern)

    p = sub.add_parser("pairing", help="H2 x H2 -> H4 pairing determinant")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--matrix", action="store_true", help="print the matrix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pairing)

    p = sub.add_parser("euler", help="chi(F^m) on the twistor space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("ring", help="reduce a product of ring generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--expr",
        required=True,
        help="product of tokens w, x1..xn, e.g. 'w*w*w' or 'x1 x1 w'",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser(
        "cycle-h0", help="h0 of a line bundle on a cycle of rational curves"
    )
    p.add_argument(
        "--degrees", required=True, help="comma-separated component degrees"
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="also run the randomized kernel oracle",
    )
    p.add_argument("--seed", type=int, default=None, help="oracle seed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cycle_h0)

    p = sub.add_parser("classify", help="classify a schedule document")
    p.add_argument("file", help="path to a schedule JSON document")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "enumerate", help="classify all schedules up to conjugation symmetry"
    )
    p.add_argument("--limit", type=int, default=None, help="cap kept entries")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (RealizabilityError, HypothesisError, TorsionRequiredError,
            InvariantError) as exc:
        print(f"violation: {exc.tag}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # ScheduleError and DegreeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
