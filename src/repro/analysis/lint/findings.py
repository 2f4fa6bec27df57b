"""The records one ``repro lint`` run reports: findings and file errors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    #: Path as reported (relative to the lint invocation's root).
    path: str
    #: 1-based source line of the offending node.
    line: int
    #: 0-based column of the offending node.
    col: int
    #: Rule id, e.g. ``"FLOW001"``.
    rule: str
    #: Human-readable description of the violation.
    message: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        """The classic ``path:line:col: RULE message`` compiler form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True, order=True)
class LintError:
    """A file the analyzer could not check (I/O, syntax or pragma error)."""

    path: str
    message: str

    def render(self) -> str:
        return f"{self.path}: error: {self.message}"


__all__ = ["Finding", "LintError"]
