"""Lint finding records shared by the rule classes and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    column: int
    message: str

    def format(self) -> str:
        """``file:line:col: RULE message`` — the classic compiler shape."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule_id} {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }
