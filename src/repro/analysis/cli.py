"""The archlint command line: ``python -m repro.analysis`` / ``repro.tools lint``.

Exit codes: 0 clean (suppressed findings do not fail the run), 1 any
finding, 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.engine import run
from repro.analysis.registry import select_rules
from repro.analysis.report import render_json, render_rules, render_text


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags to ``parser`` (shared with ``repro.tools lint``)."""
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/repro if present)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="output_format", help="report format (default: text)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )


def run_lint(args) -> int:
    """Execute a lint run from parsed arguments; returns the exit code."""
    if args.list_rules:
        print(render_rules())
        return 0
    paths = list(args.paths or [])
    if not paths:
        if os.path.isdir(os.path.join("src", "repro")):
            paths = [os.path.join("src", "repro")]
        else:
            print("repro.analysis: no paths given and no src/repro here",
                  file=sys.stderr)
            return 2
    for path in paths:
        if not os.path.exists(path):
            print("repro.analysis: no such path: %s" % path, file=sys.stderr)
            return 2
    rules = None
    if args.rules:
        try:
            rules = select_rules(
                part.strip().upper()
                for part in args.rules.split(",") if part.strip()
            )
        except KeyError as exc:
            print("repro.analysis: %s" % exc.args[0], file=sys.stderr)
            return 2
    result = run(paths, rules=rules)
    if args.output_format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="archlint: AST-based checks for the repo's "
                    "architecture invariants",
    )
    add_arguments(parser)
    return run_lint(parser.parse_args(argv))
