"""Command-line front end: ``python -m repro.analysis``.

Subcommands:

* ``lint [paths...]`` -- run the custom AST rules over the given files or
  directories (default: ``src``, ``benchmarks``, ``tests`` and
  ``examples`` under the current directory).  Exits 1 when findings
  exist, so CI can gate on it.  ``--select PREFIX`` keeps only the
  matching rule IDs; ``--format json`` prints machine-readable findings.
* ``rules`` -- list the rule IDs and what each one enforces.
* ``invariants`` -- list the registered runtime invariants.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.linter import lint_paths
from repro.analysis.rules import describe_rules, rule_catalog

DEFAULT_LINT_TARGETS = ("src", "benchmarks", "tests", "examples")


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.paths:
        targets = [Path(path) for path in args.paths]
        missing = [str(path) for path in targets if not path.exists()]
        if missing:
            print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
            return 2
    else:
        targets = [
            Path(name) for name in DEFAULT_LINT_TARGETS if Path(name).exists()
        ]
        if not targets:
            print(
                "none of the default lint targets "
                f"({', '.join(DEFAULT_LINT_TARGETS)}) exist here; "
                "run from the repository root or pass paths explicitly",
                file=sys.stderr,
            )
            return 2
    findings = lint_paths(targets)
    if args.select:
        prefixes = tuple(args.select)
        known = [
            rule_id
            for rule_id, _name, _description in rule_catalog()
            if rule_id.startswith(prefixes)
        ]
        if not known:
            print(
                f"--select {' '.join(args.select)} matches no known rule IDs",
                file=sys.stderr,
            )
            return 2
        findings = [f for f in findings if f.rule_id.startswith(prefixes)]
    if args.format == "json":
        print(json.dumps([finding.as_dict() for finding in findings], indent=2))
    else:
        lines = [finding.format() for finding in findings]
        scanned = ", ".join(str(target) for target in targets)
        if findings:
            lines.append(f"{len(findings)} finding(s) in {scanned}")
        else:
            lines.append(f"clean: no findings in {scanned}")
        print("\n".join(lines))
    return 1 if findings else 0


def _cmd_rules(_args: argparse.Namespace) -> int:
    print(describe_rules())
    return 0


def _cmd_invariants(_args: argparse.Namespace) -> int:
    from repro.analysis.invariants import ENV_FLAG, invariant_names

    for name in invariant_names():
        print(name)
    print(
        f"(enable at runtime with --check-invariants or {ENV_FLAG}=1)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="simulator correctness toolkit: lint rules + invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the custom AST lint rules")
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: src benchmarks "
                           "tests examples)")
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument(
        "--select",
        metavar="PREFIX",
        action="append",
        help="only report rule IDs starting with PREFIX "
             "(repeatable; e.g. --select REP2 for the unit rules)",
    )
    lint.set_defaults(func=_cmd_lint)

    rules = sub.add_parser("rules", help="list lint rule IDs")
    rules.set_defaults(func=_cmd_rules)

    invariants = sub.add_parser("invariants", help="list runtime invariants")
    invariants.set_defaults(func=_cmd_invariants)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer closed early (e.g. `... rules | head`);
        # point stdout at devnull so the interpreter-exit flush does not
        # raise a second BrokenPipeError.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
