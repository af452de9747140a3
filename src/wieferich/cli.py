"""Command line front end.

Subcommands: field, classify, decompose, census, verify, exceptions, quality.
All output is deterministic for a fixed invocation: fixed orderings, no
timestamps, machine-readable JSON lines or CSV.  Exit codes: 0 success,
1 usage or input error, 2 a verification invariant failed, 3 the factoring
budget ran out where completeness was required.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .cyclo import CycloFactorCache, decompose
from .ideals import BudgetExhausted, primes_above
from .intfactor import FactorBudget
from .places import (
    InvariantViolation,
    census,
    place_report,
    scan_wieferich_places,
    STRATEGY_ALL_LEVELS,
    STRATEGY_PRIME_LEVELS,
)
from .qfield import FieldSpec, classify_base
from .verify import abc_quality, exception_set_union, run_full_verification

ENV_TRIAL_LIMIT = "WIEFERICH_TRIAL_LIMIT"
ENV_RHO_ITERATIONS = "WIEFERICH_RHO_ITERATIONS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wieferich",
        description="Wieferich and non-Wieferich places of imaginary quadratic rings",
    )
    field, base, budget, output = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    field.add_argument("-d", type=int, required=True, metavar="D",
                       help="field parameter: squarefree d >= 1 for Q(sqrt(-d)), 0 for plain integers")
    base.add_argument("-a", required=True, metavar="X[,Y]",
                      help="base element coordinates in the integral basis")
    budget.add_argument("--trial-limit", type=int, default=None,
                        help="trial division bound, 2 to 10^7 (default 10^6, env " + ENV_TRIAL_LIMIT + ")")
    budget.add_argument("--rho-iterations", type=int, default=None,
                        help="splitting effort per composite cofactor, in rho iterations: rho is given"
                             " 10^5 of it and the rest buys ECM curves (B1 = 2000, B2 = 2*10^5,"
                             " sigma = 6, 7, ...) at 2^15 each (default 10^6, env " + ENV_RHO_ITERATIONS + ")")
    output.add_argument("--format", choices=("json", "csv"), default="json")
    output.add_argument("--output", default=None, help="write output to this path instead of stdout")
    commands = parser.add_subparsers(dest="command")

    commands.add_parser("field", parents=[field, output], help="describe the ring of integers")
    p_classify = commands.add_parser("classify", parents=[field, base, budget, output],
                                     help="classify the base, one place, or all places up to a bound")
    p_classify.add_argument("--prime", type=int, default=None,
                            help="classify every place above this rational prime")
    p_classify.add_argument("--p-max", type=int, default=None,
                            help="scan all places of residue characteristic up to this bound")

    p_decompose = commands.add_parser("decompose", parents=[field, base, budget, output],
                                      help="squarefree/powerful split of (a^n - 1) and its level slice")
    p_decompose.add_argument("-n", type=int, required=True, help="level n >= 1")

    p_census = commands.add_parser("census", parents=[field, base, budget, output],
                                   help="count non-Wieferich places with norm 1 mod k across levels")
    p_census.add_argument("-k", type=int, default=1, help="progression modulus (default 1)")
    p_census.add_argument("--n-max", type=int, required=True, help="largest level multiplier")
    p_census.add_argument("--x-max", type=int, default=None,
                          help="also report the record count up to this norm bound")
    p_census.add_argument("--strategy", choices=(STRATEGY_ALL_LEVELS, STRATEGY_PRIME_LEVELS),
                          default=STRATEGY_ALL_LEVELS)

    p_verify = commands.add_parser("verify", parents=[field, base, budget, output],
                                   help="run every exact inequality and identity check at one base")
    p_verify.add_argument("--n-max", type=int, required=True)

    p_exc = commands.add_parser("exceptions", parents=[output],
                                help="enumerate all elements of norm <= 3 across fields")
    p_exc.add_argument("--d-max", type=int, required=True)

    p_quality = commands.add_parser("quality", parents=[field, budget, output],
                                    help="quality statistic of a pair summing to a root of unity")
    p_quality.add_argument("--alpha", required=True, metavar="X[,Y]")
    p_quality.add_argument("--beta", required=True, metavar="X[,Y]")

    return parser


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def _budget_from(args) -> FactorBudget:
    trial, rho = args.trial_limit, args.rho_iterations
    if trial is None:
        trial = _env_int(ENV_TRIAL_LIMIT, FactorBudget.trial_limit)
    if rho is None:
        rho = _env_int(ENV_RHO_ITERATIONS, FactorBudget.rho_iterations)
    return FactorBudget(trial_limit=trial, rho_iterations=rho)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _render(fmt: str, rows: list[dict], columns: list[str], summary: dict | None = None) -> str:
    """CSV of the given columns (None cells empty), or one JSON line per row plus the summary."""
    if fmt == "csv":
        return _csv_text(columns, [[row.get(c) for c in columns] for row in rows])
    lines = rows if summary is None else rows + [{"summary": summary}]
    return "".join(json.dumps(obj) + "\n" for obj in lines)


_PLACE_COLUMNS = ["p", "kind", "t", "norm", "order", "wieferich"]


def _cmd_field(args) -> tuple[str, int]:
    spec = FieldSpec.from_d(args.d)
    info = spec.describe()
    if args.format == "csv":
        keys = sorted(info)
        return _csv_text(keys, [[json.dumps(info[k]) if isinstance(info[k], list) else info[k] for k in keys]]), EXIT_OK
    return json.dumps(info) + "\n", EXIT_OK


def _cmd_classify(args) -> tuple[str, int]:
    spec = FieldSpec.from_d(args.d)
    base = spec.parse_element(args.a)
    budget = _budget_from(args)
    if args.prime is not None and args.p_max is not None:
        raise ValueError("choose either --prime or --p-max, not both")
    if args.prime is not None:
        rows = []
        for P in primes_above(spec, args.prime):
            try:
                rows.append(place_report(P, base, budget).as_dict())
            except ValueError:
                # the base lies in this place, so the Fermat quotient is degenerate
                rows.append({"place": P.label(), "p": P.p, "kind": P.kind, "t": P.t,
                             "norm": P.norm, "order": None, "wieferich": None,
                             "note": "base lies in this place"})
        return _render(args.format, rows, _PLACE_COLUMNS), EXIT_OK
    if args.p_max is not None:
        hits, tested = scan_wieferich_places(base, args.p_max, budget)
        summary = {"tested": tested, "wieferich_count": len(hits)}
        return _render(args.format, [r.as_dict() for r in hits], _PLACE_COLUMNS, summary), EXIT_OK
    info = {
        "base": base.coords(),
        "field": str(spec),
        "classification": classify_base(base).value,
        "norm": base.norm(),
    }
    return _render(args.format, [info], list(info)), EXIT_OK


def _cmd_decompose(args) -> tuple[str, int]:
    spec = FieldSpec.from_d(args.d)
    base = spec.parse_element(args.a)
    dec = decompose(CycloFactorCache(base, _budget_from(args)), args.n)
    parts = {
        name: [{"p": P.p, "kind": P.kind, "t": P.t, "norm": P.norm, "exponent": e}
               for P, e in factorization.items_sorted()]
        for name, factorization in (
            ("squarefree", dec.squarefree),
            ("powerful", dec.powerful),
            ("level_squarefree", dec.level_squarefree),
            ("level_powerful", dec.level_powerful),
        )
    }
    if args.format == "csv":
        rows = [{"part": name, **entry} for name, entries in parts.items() for entry in entries]
        return _render("csv", rows, ["part", "p", "kind", "t", "norm", "exponent"]), EXIT_OK
    payload = dec.norm_summary()
    payload["base"] = base.coords()
    payload["field"] = str(spec)
    payload.update(parts)
    return json.dumps(payload) + "\n", EXIT_OK


def _cmd_census(args) -> tuple[str, int]:
    spec = FieldSpec.from_d(args.d)
    base = spec.parse_element(args.a)
    result = census(base, args.k, args.n_max, _budget_from(args), strategy=args.strategy)
    summary = result.summary()
    if args.x_max is not None:
        summary["x_max"] = args.x_max
        summary["count_at_x_max"] = result.count_upto(args.x_max)
    rows = [r.as_dict() for r in result.records]
    columns = ["p", "kind", "t", "norm", "level", "residue_class"]
    return _render(args.format, rows, columns, summary), EXIT_OK


def _cmd_verify(args) -> tuple[str, int]:
    spec = FieldSpec.from_d(args.d)
    base = spec.parse_element(args.a)
    outcome = run_full_verification(base, args.n_max, _budget_from(args))
    payload = outcome.as_dict()
    if args.format == "csv":
        rows = [
            [r["tag"], r["checked"], len(r["skipped"]), len(r["violations"]), r["passed"]]
            for r in payload["reports"]
        ]
        text = _csv_text(["tag", "checked", "skipped", "violations", "passed"], rows)
    else:
        text = json.dumps(payload) + "\n"
    return text, EXIT_OK if outcome.passed else EXIT_VIOLATION


def _cmd_exceptions(args) -> tuple[str, int]:
    union = exception_set_union(args.d_max)
    rows = [
        {"d": d, "x": e.x, "y": e.y, "norm": e.norm(), "element": str(e)}
        for d, e in union
    ]
    summary = {"count": len(rows), "d_max": args.d_max}
    return _render(args.format, rows, ["d", "x", "y", "norm", "element"], summary), EXIT_OK


def _cmd_quality(args) -> tuple[str, int]:
    spec = FieldSpec.from_d(args.d)
    alpha = spec.parse_element(args.alpha)
    beta = spec.parse_element(args.beta)
    payload = abc_quality(alpha, beta, _budget_from(args)).as_dict()
    return _render(args.format, [payload], list(payload)), EXIT_OK


_HANDLERS = {
    "field": _cmd_field,
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "census": _cmd_census,
    "verify": _cmd_verify,
    "exceptions": _cmd_exceptions,
    "quality": _cmd_quality,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        text, code = _HANDLERS[args.command](args)
    except BudgetExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
