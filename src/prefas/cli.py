"""Command-line front end: solve, transform, check.

Exit codes follow solver conventions: 0 when something was found (an
answer set for ``--semantics as``, a preferred answer set otherwise, zero
violations for ``check``), 1 when nothing was, 2 on errors.  ``--json``
emits a machine-readable document carrying the same information as the
text output plus witnesses.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

from .base import BOUND_VARIABLES, AnswerSet, Bounds
from .fragments import FragmentFamily
from .syntax import BoundExceededError, PrefasError, parse_program
from .transform import format_transformed, transform
from .verify import PROPERTIES, SEMANTICS, GenParams, check_program, fuzz, solve, violation_lines

PROPERTY_CHOICES = tuple(name.replace("_", "-") for name in PROPERTIES) + ("all",)


def _by_literals(solved: list) -> list:
    return sorted(solved, key=lambda pair: str(pair[0]))


def _read(path: str) -> str:
    """The text of ``path``, without the byte-order mark some editors write."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise PrefasError(f"{path}: not UTF-8 text (byte {err.start})") from None


def _witness(a: AnswerSet, e: FragmentFamily | None) -> dict:
    w = {"literals": sorted(map(str, a.literals)), "generating": sorted(a.generating)}
    if e is not None:
        w["fragments"] = sorted(sorted(f) for f in e)
    return w


def _solve_document(path: str, semantics: str, bounds: Bounds) -> dict:
    program = parse_program(_read(path), allow_reserved=True)
    asets = _by_literals(solve(program, "as", bounds))
    preferred = [] if semantics == "as" else _by_literals(solve(program, semantics, bounds))
    return {
        "program_path": path,
        "semantics": semantics,
        "answer_sets": [sorted(map(str, a.literals)) for a, _ in asets],
        "preferred": [sorted(map(str, a.literals)) for a, _ in preferred],
        "witnesses": [_witness(a, e) for a, e in preferred],
    }


def _print_solve_text(doc: dict, witness: bool) -> None:
    print("answer sets:")
    for s in doc["answer_sets"]:
        print("{" + ", ".join(s) + "}")
    if doc["semantics"] == "as":
        return
    print(f"preferred answer sets ({doc['semantics']}):")
    for s, w in zip(doc["preferred"], doc["witnesses"]):
        print("{" + ", ".join(s) + "}")
        if witness:
            print("  generating: {" + ", ".join(w["generating"]) + "}")
            if "fragments" in w:
                groups = ", ".join("{" + ", ".join(f) + "}" for f in w["fragments"])
                print("  fragments: " + groups)


def _cmd_solve(args: argparse.Namespace) -> int:
    doc = _solve_document(args.file, args.semantics, Bounds.from_env())
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        _print_solve_text(doc, args.witness)
    found = doc["answer_sets"] if args.semantics == "as" else doc["preferred"]
    return 0 if found else 1


def _cmd_transform(args: argparse.Namespace) -> int:
    program = parse_program(_read(args.file))
    text = format_transformed(transform(program))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _selected_properties(name: str) -> tuple[str, ...]:
    if name == "all":
        return PROPERTIES
    return (name.replace("-", "_"),)


def _cmd_check(args: argparse.Namespace) -> int:
    properties = _selected_properties(args.property)
    bounds = Bounds.from_env()
    if args.random and args.file:
        raise PrefasError("give a program file or --random, not both")
    if args.count < 0:
        raise PrefasError(f"--count must be a non-negative integer, not {args.count}")
    if args.random:
        report = fuzz(GenParams(seed=args.seed), args.count, properties, bounds)
        doc = report.to_dict()
        text = str(report)
        ok = report.ok
    else:
        if not args.file:
            raise PrefasError("check needs a program file or --random")
        program = parse_program(_read(args.file))
        violations = check_program(program, properties, bounds)
        doc = {
            "program_path": args.file,
            "properties": list(properties),
            "violations": [v.to_dict() for v in violations],
        }
        head = f"check {args.file}: {', '.join(properties)}"
        text = "\n".join([head, *violation_lines(violations)])
        ok = not violations
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(text)
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, like every other error of the
    command, are one ``prefas: ...`` line on stderr with exit code 2.  The
    subcommand parsers are of this class too."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"prefas: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prefas",
        description="Answer sets and preferred answer sets of logic programs "
        "with preferences on rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="print answer sets and preferred answer sets")
    solve.add_argument("file", help="program file (.lpp)")
    solve.add_argument(
        "--semantics",
        choices=("as", *SEMANTICS),
        default="as",
        help="plain answer sets, or one of the preference semantics",
    )
    solve.add_argument("--json", action="store_true", help="machine-readable output")
    solve.add_argument(
        "--witness", action="store_true", help="print generating sets / fragment sets"
    )
    solve.set_defaults(run=_cmd_solve)

    trans = sub.add_parser(
        "transform", help="rewrite to a plain program with the same gno-preferred sets"
    )
    trans.add_argument("file", help="program file (.lpp)")
    trans.add_argument("--out", help="write the result here instead of stdout")
    trans.set_defaults(run=_cmd_transform)

    check = sub.add_parser("check", help="run property checks on a file or random programs")
    check.add_argument("file", nargs="?", help="program file (.lpp)")
    check.add_argument("--random", action="store_true", help="check generated programs")
    check.add_argument("--property", choices=PROPERTY_CHOICES, default="all")
    check.add_argument("--seed", type=int, default=0, help="base seed for --random")
    check.add_argument("--count", type=int, default=100, help="programs to generate")
    check.add_argument("--json", action="store_true", help="machine-readable output")
    check.set_defaults(run=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (PrefasError, OSError) as err:
        text = str(err)
        if isinstance(err, BoundExceededError) and err.field in BOUND_VARIABLES:
            text = f"{err.reason} ({BOUND_VARIABLES[err.field]})"
        print(f"prefas: {text}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
