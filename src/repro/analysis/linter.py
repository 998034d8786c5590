"""Shared AST visitor framework for the repo-specific lint rules.

A rule is a small class naming the AST node types it wants to see; the
:class:`Linter` parses each file once, walks the tree once, and fans
every node out to the rules registered for its type.  Rules see one
file at a time: no rule keeps state across files.  Findings carry
``file:line:col`` locations and stable rule IDs, and can be suppressed
per line with the escape hatch::

    something_suspicious()  # repro: noqa(REP102) -- justification

Suppressions must name the rule ID; there is deliberately no blanket
``noqa`` that silences everything.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple, Type

from repro.analysis.findings import Finding

SYNTAX_ERROR_RULE = "REP100"

_NOQA_PATTERN = re.compile(r"#\s*repro:\s*noqa\(\s*([A-Z0-9,\s]+?)\s*\)")

# Directories whose determinism matters: everything importable as part of
# the simulator proper.  Lint paths are matched on their posix form.
_SIM_SOURCE_MARKERS = ("src/repro/",)


class LintContext:
    """Per-file state handed to every rule check."""

    def __init__(self, path: str, source: str) -> None:
        self.path = Path(path).as_posix()
        self.source = source
        self.findings: List[Finding] = []
        self.noqa: Dict[int, Set[str]] = _parse_noqa(source)

    @property
    def is_sim_source(self) -> bool:
        """Whether this file is part of the simulator package itself."""
        return any(marker in self.path for marker in _SIM_SOURCE_MARKERS)

    def in_subpackages(self, names: Iterable[str]) -> bool:
        """Whether this file lives under ``src/repro/<one of names>/``."""
        return any(f"src/repro/{name}/" in self.path for name in names)

    def report(self, rule: "LintRule", node: ast.AST, message: str) -> None:
        """Record a finding of ``rule`` at ``node`` unless its line
        suppresses that rule's ID."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0) + 1
        if rule.rule_id in self.noqa.get(line, set()):
            return
        self.findings.append(
            Finding(
                rule_id=rule.rule_id,
                path=self.path,
                line=line,
                column=column,
                message=message,
            )
        )


class LintRule:
    """Base class for one lint rule.

    Subclasses set ``rule_id`` (stable, gate-able), ``name`` (kebab-case
    slug), ``description`` (one line for ``--rules`` listings) and
    ``node_types`` (the AST classes routed to :meth:`check`).
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""
    node_types: Tuple[Type[ast.AST], ...] = ()

    def applies_to(self, ctx: LintContext) -> bool:
        """Whether this rule runs on the given file at all."""
        return True

    def check(self, node: ast.AST, ctx: LintContext) -> None:
        """Inspect one node; call ``ctx.report`` on violations."""
        raise NotImplementedError


def _parse_noqa(source: str) -> Dict[int, Set[str]]:
    """Map line numbers to the set of rule IDs suppressed on that line."""
    suppressions: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_PATTERN.search(text)
        if match:
            rule_ids = {part.strip() for part in match.group(1).split(",")}
            suppressions[lineno] = {rule for rule in rule_ids if rule}
    return suppressions


class Linter:
    """Runs a set of rules over files, one parse and one walk per file."""

    def __init__(self, rules: Sequence[LintRule]) -> None:
        self.rules = list(rules)
        self._dispatch: Dict[Type[ast.AST], List[LintRule]] = {}
        for rule in self.rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

    def lint_source(self, source: str, path: str) -> List[Finding]:
        """Lint one already-read source text against all rules."""
        ctx = LintContext(path, source)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            return [
                Finding(
                    rule_id=SYNTAX_ERROR_RULE,
                    path=ctx.path,
                    line=error.lineno or 1,
                    column=(error.offset or 0) + 1,
                    message=f"syntax error: {error.msg}",
                )
            ]
        active = [rule for rule in self.rules if rule.applies_to(ctx)]
        if not active:
            return []
        active_set = set(map(id, active))
        for node in ast.walk(tree):
            for rule in self._dispatch.get(type(node), ()):
                if id(rule) in active_set:
                    rule.check(node, ctx)
        ctx.findings.sort(key=lambda f: (f.line, f.column, f.rule_id))
        return ctx.findings

    def lint_paths(self, paths: Iterable[Path]) -> List[Finding]:
        """Lint every ``*.py`` file under the given files/directories."""
        findings: List[Finding] = []
        for path in expand_paths(paths):
            source = path.read_text(encoding="utf-8")
            findings.extend(self.lint_source(source, str(path)))
        return findings


def expand_paths(paths: Iterable[Path]) -> List[Path]:
    """Every ``*.py`` file under the given files or directories."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
                and not any(part.endswith(".egg-info") for part in candidate.parts)
            )
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one source text with the default rule set."""
    from repro.analysis.rules import DEFAULT_RULES

    return Linter(DEFAULT_RULES).lint_source(source, path)


def lint_paths(paths: Iterable[Path]) -> List[Finding]:
    """Lint files/directories with the default rule set."""
    from repro.analysis.rules import DEFAULT_RULES

    return Linter(DEFAULT_RULES).lint_paths(paths)
