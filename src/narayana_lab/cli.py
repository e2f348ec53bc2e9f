"""Command-line front end.

Subcommands: eval (DSL queries), table (sequence tables), verify (the identity
suite), cf (continued-fraction coefficients), hl (principal Hall-Littlewood
values).  Exit codes: 0 success, 1 verification failures, 2 usage or parse
errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .dsl import DslError, PrincipalHL, eval_text, evaluate
from .poly import Coeff, PolyQQ

TABLE_MAX_N_CAP = 200
CF_DEPTH_CAP = 20
ECHO_CAP = 60  # characters of a query quoted back in an eval error message
# Digits of a numeric input (either part of --at-q).  At 20-digit parts every
# table's rows print within Python's 4300-digit int-to-str limit.
DIGITS_CAP = 20
SEED_ENV_VAR = "NARAYANA_LAB_SEED"
# identities.DEFAULT_SEED, copied so that the --seed help text does not load
# the identity registry; a test keeps the two equal.
DEFAULT_SEED = 1

# A command imports what only it runs when it runs: sequences for table and
# cf, identities for verify (it writes its own report), json for --format
# json.
_INT_TABLES = ("catalan", "schroeder-large", "schroeder-small")
_POLY_TABLES = ("large-narayana", "narayana", "power-sum", "type-b")
TABLE_NAMES = sorted(_INT_TABLES + _POLY_TABLES)


def _decimal(text: str) -> int:
    """An optional '-' and 1..DIGITS_CAP ASCII digits: every numeric input."""
    digits = text[1:] if text.startswith("-") else text
    if not (0 < len(digits) <= DIGITS_CAP and digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(
            f"not a decimal integer of 1 to {DIGITS_CAP} ASCII digits: {_echo(text)}"
        )
    return int(text)


def _rational(text: str) -> Fraction:
    """Decimal integer or a/b rational, each part read by _decimal; floats are rejected."""
    num, slash, den = text.partition("/")
    try:
        return Fraction(_decimal(num), _decimal(den) if slash else 1)
    except (argparse.ArgumentTypeError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not an exact rational a or a/b of at most {DIGITS_CAP} digits each: {_echo(text)}"
        ) from None


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return _decimal(raw)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"{SEED_ENV_VAR}: {exc}") from None


def _coeff_json(c: Coeff):
    return c if isinstance(c, int) else str(c)


def _usage_error(message: str) -> int:
    print(f"narayana-lab: error: {message}", file=sys.stderr)
    return 2


def _dump_json(doc) -> str:
    import json

    return json.dumps(doc, indent=2, sort_keys=True)


def _echo(expr: str) -> str:
    """The query as error messages quote it: at most ECHO_CAP characters of it."""
    if len(expr) <= ECHO_CAP:
        return repr(expr)
    return f"{expr[:ECHO_CAP]!r}... ({len(expr)} characters)"


def _cmd_eval(args) -> int:
    try:
        result = eval_text(args.expr)
    except DslError as exc:
        return _usage_error(f"cannot parse {_echo(args.expr)}: {exc}")
    except (ValueError, ArithmeticError) as exc:
        return _usage_error(f"cannot evaluate {_echo(args.expr)}: {exc}")
    if args.format == "text":
        print(result)
    elif args.format == "json":
        print(_dump_json({"expr": args.expr, "result": str(result)}))
    else:
        try:
            coeffs = result.q_coefficients()
        except ValueError as exc:
            return _usage_error(f"csv output needs a plain polynomial in q: {exc}")
        print(", ".join(str(c) for c in coeffs))
    return 0


def _table_rows(name: str, max_n: int, at_q: Fraction | None):
    from .sequences import (
        catalan,
        large_narayana,
        narayana,
        narayana_power_sum,
        schroeder,
        type_b_w,
    )

    if name in _INT_TABLES:
        if at_q is not None:
            raise ValueError(f"--at-q does not apply to the integer table {name!r}")
        fn = {
            "catalan": catalan,
            "schroeder-large": lambda n: schroeder("large", n),
            "schroeder-small": lambda n: schroeder("small", n),
        }[name]
        return [(n, fn(n)) for n in range(max_n + 1)]
    lo, fn = {
        "large-narayana": (0, large_narayana),
        "narayana": (0, narayana),
        "power-sum": (1, narayana_power_sum),
        "type-b": (0, type_b_w),
    }[name]
    rows = []
    for n in range(lo, max_n + 1):
        value = fn(n)
        rows.append((n, value.eval(at_q=at_q) if at_q is not None else value))
    return rows


def _cmd_table(args) -> int:
    if args.max_n > TABLE_MAX_N_CAP:
        return _usage_error(f"--max-n capped at {TABLE_MAX_N_CAP}")
    if args.max_n < 0:
        return _usage_error("--max-n must be nonnegative")
    try:
        rows = _table_rows(args.name, args.max_n, args.at_q)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.format == "text":
        for n, value in rows:
            print(f"{n}: {value}")
    elif args.format == "json":
        doc = {
            "name": args.name,
            "max_n": args.max_n,
            "at_q": str(args.at_q) if args.at_q is not None else None,
            "rows": [
                {"n": n}
                | (
                    {"coefficients": [_coeff_json(c) for c in value.q_coefficients()]}
                    if isinstance(value, PolyQQ)
                    else {"value": _coeff_json(value)}
                )
                for n, value in rows
            ],
        }
        print(_dump_json(doc))
    else:
        for n, value in rows:
            cells = (
                value.q_coefficients() if isinstance(value, PolyQQ) else [value]
            )
            print(", ".join([str(n)] + [str(c) for c in cells]))
    return 0


def _cmd_verify(args) -> int:
    from .identities import run_suite

    if args.seed is None:
        try:
            args.seed = _default_seed()
        except argparse.ArgumentTypeError as exc:
            return _usage_error(str(exc))
    try:
        report = run_suite(ids=args.id or None, max_n=args.max_n, seed=args.seed)
    except ValueError as exc:
        return _usage_error(str(exc))
    payload = report.to_json()
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            print(f"narayana-lab: cannot write report: {exc}", file=sys.stderr)
            return 3
        counts = report.counts
        print(f"verify: {counts['pass']} pass, {counts['fail']} fail -> {args.report}")
    else:
        print(payload)
    return 0 if report.ok else 1


def _cmd_cf(args) -> int:
    if not 1 <= args.depth <= CF_DEPTH_CAP:
        return _usage_error(f"--depth must be within 1..{CF_DEPTH_CAP}")
    from .lambdaring import sfraction
    from .sequences import narayana_hsequence

    coeffs = sfraction(narayana_hsequence(), args.depth)
    if args.format == "text":
        print(", ".join(str(c) for c in coeffs))
    elif args.format == "json":
        print(_dump_json({"depth": args.depth, "coefficients": [str(c) for c in coeffs]}))
    else:
        for i, c in enumerate(coeffs, start=1):
            print(f"{i}, {c}")
    return 0


def _cmd_hl(args) -> int:
    try:
        value = evaluate(PrincipalHL(args.r, args.n))
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.format == "text":
        print(value)
    elif args.format == "json":
        print(_dump_json({"r": args.r, "n": args.n, "result": str(value)}))
    else:
        print(", ".join(str(c) for c in value.q_coefficients()))
    return 0


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narayana-lab",
        description="Exact Narayana/Catalan/Schroeder combinatorics and an "
        "identity verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a specialization query")
    p_eval.add_argument("expr", help="query, e.g. 'h2[3 - 3*q]' or 'P{3,4}'")
    _add_format(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_table = sub.add_parser("table", help="print a sequence table")
    p_table.add_argument("name", choices=TABLE_NAMES)
    p_table.add_argument("--max-n", type=_decimal, required=True, dest="max_n")
    p_table.add_argument(
        "--at-q", type=_rational, default=None, dest="at_q",
        help="evaluate polynomial rows at an exact rational",
    )
    _add_format(p_table)
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument(
        "--id", action="append", default=[], metavar="ID",
        help="restrict to one identity (repeatable); default all",
    )
    p_verify.add_argument("--max-n", type=_decimal, default=12, dest="max_n")
    p_verify.add_argument(
        "--seed", type=_decimal, default=None,
        help=f"schedule seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})",
    )
    p_verify.add_argument("--report", default=None, help="write the JSON report here")
    p_verify.set_defaults(handler=_cmd_verify)

    p_cf = sub.add_parser("cf", help="continued-fraction coefficients")
    p_cf.add_argument("--depth", type=_decimal, required=True)
    _add_format(p_cf)
    p_cf.set_defaults(handler=_cmd_cf)

    p_hl = sub.add_parser("hl", help="principal Hall-Littlewood value")
    p_hl.add_argument("--r", type=_decimal, required=True)
    p_hl.add_argument("--n", type=_decimal, required=True)
    _add_format(p_hl)
    p_hl.set_defaults(handler=_cmd_hl)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes "-1/2" for an option, so "--at-q -1/2" (or a prefix) goes in as "--at-q=-1/2".
    for i in reversed(range(len(argv) - 1)):
        if argv[0] == "table" and len(argv[i]) > 2 and "--at-q".startswith(argv[i]):
            argv[i:i + 2] = [f"--at-q={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
