"""Project static analysis: ``python -m repro.lint [paths...]``.

Two layers share one driver (see CONTRIBUTING.md):

* rules R1-R4 — per-file AST determinism rules
  (:mod:`repro.lint.rules`);
* rules R5-R7 — flow-sensitive analyses over the CFG/dataflow engine
  (:mod:`repro.lint.flowrules`), with a project-wide call graph
  (:mod:`repro.lint.callgraph`) behind R7.

Findings print as ``path:line:col: CODE message`` (``--format text``,
optionally with ``--show-source`` snippets) or as a JSON array
(``--format json``).  ``--select``/``--ignore`` narrow the rule set
(both intersect with per-path scoping; an unknown code is a usage
error).  Exit codes: 0 clean, 1 findings, 2 usage error.  A finding is silenced for one line with a trailing
``# repro-lint: disable=RX`` comment (comma-separate codes).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.lint.callgraph import CallGraph, build_callgraph
from repro.lint.flowrules import check_flow_source
from repro.lint.rules import (
    ALL_RULES,
    Violation,
    check_source,
    rules_for_path,
    suppressions_by_line,
)

__all__ = [
    "ALL_RULES",
    "Violation",
    "check_source",
    "check_flow_source",
    "lint_file",
    "lint_paths",
    "main",
    "rules_for_path",
    "suppressions_by_line",
]


def lint_file(
    path: Union[str, Path],
    source: Optional[str] = None,
    rules: Optional[set[str]] = None,
    graph: Optional[CallGraph] = None,
) -> list[Violation]:
    """Lint one file (reading it unless ``source`` is given)."""
    if source is None:
        source = Path(path).read_text(encoding="utf-8")
    found = check_source(source, path, rules=rules)
    found.extend(check_flow_source(source, path, rules=rules, graph=graph))
    found.sort(key=lambda v: (v.line, v.col, v.rule))
    return found


def _collect_files(paths: Iterable[Union[str, Path]]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def _effective_rules(
    path: Union[str, Path],
    select: Optional[set[str]],
    ignore: Optional[set[str]],
) -> set[str]:
    rules = rules_for_path(str(path))
    if select is not None:
        rules &= select
    if ignore is not None:
        rules -= ignore
    return rules


def lint_paths(
    paths: Iterable[Union[str, Path]],
    select: Optional[set[str]] = None,
    ignore: Optional[set[str]] = None,
) -> list[Violation]:
    """Lint files and directory trees; returns all findings, sorted.

    ``select``/``ignore`` intersect with per-path rule scoping.  When
    any linted file needs R7, a call graph spanning every collected
    file is built once and shared.
    """
    files = _collect_files(paths)
    sources: dict[str, str] = {}
    per_file_rules: dict[str, set[str]] = {}
    for file_path in files:
        key = str(file_path)
        sources[key] = Path(file_path).read_text(encoding="utf-8")
        per_file_rules[key] = _effective_rules(file_path, select, ignore)

    graph: Optional[CallGraph] = None
    if any("R7" in rules for rules in per_file_rules.values()):
        graph = build_callgraph(sources)

    violations: list[Violation] = []
    for file_path in files:
        key = str(file_path)
        violations.extend(
            lint_file(
                file_path,
                source=sources[key],
                rules=per_file_rules[key],
                graph=graph,
            )
        )
    return violations


# ---------------------------------------------------------------------------
# reporters
# ---------------------------------------------------------------------------
def _render_text(violations: Sequence[Violation], show_source: bool) -> str:
    lines: list[str] = []
    file_cache: dict[str, list[str]] = {}
    for violation in violations:
        lines.append(violation.format())
        if not show_source:
            continue
        if violation.path not in file_cache:
            try:
                file_cache[violation.path] = Path(violation.path).read_text(
                    encoding="utf-8"
                ).splitlines()
            except OSError:
                file_cache[violation.path] = []
        source_lines = file_cache[violation.path]
        if 1 <= violation.line <= len(source_lines):
            snippet = source_lines[violation.line - 1]
            lines.append(f"    {snippet}")
            lines.append(f"    {' ' * violation.col}^")
    return "\n".join(lines)


def _render_json(violations: Sequence[Violation]) -> str:
    return json.dumps(
        [
            {
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "rule": violation.rule,
                "message": violation.message,
            }
            for violation in violations
        ],
        indent=2,
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _parse_rule_codes(raw: str, flag: str) -> set[str]:
    codes = {part.strip().upper() for part in raw.split(",") if part.strip()}
    unknown = codes - set(ALL_RULES)
    if unknown:
        raise _UsageError(
            f"{flag}: unknown rule code(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(ALL_RULES))})"
        )
    return codes


class _UsageError(Exception):
    pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (0/1/2)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Static analysis for the repro package (rules R1-R7).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule codes and exit",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (intersects path scoping)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="finding output format (default: text)",
    )
    parser.add_argument(
        "--show-source",
        action="store_true",
        help="print the offending source line under each text finding",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for code in sorted(ALL_RULES):
            print(f"{code}  {ALL_RULES[code]}")
        return 0
    try:
        select = (
            _parse_rule_codes(args.select, "--select") if args.select else None
        )
        ignore = (
            _parse_rule_codes(args.ignore, "--ignore") if args.ignore else None
        )
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
        return 2

    violations = lint_paths(args.paths, select=select, ignore=ignore)

    if args.output_format == "json":
        print(_render_json(violations))
    elif violations:
        print(_render_text(violations, args.show_source))

    if violations:
        print(
            f"repro-lint: {len(violations)} violation"
            f"{'s' if len(violations) != 1 else ''} found",
            file=sys.stderr,
        )
        return 1
    return 0
