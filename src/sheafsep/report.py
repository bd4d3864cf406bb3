"""Structured validation reports.

Every exhaustive law/axiom checker returns a Report instead of raising:
violations are data, so tests can count them and the CLI can print them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


@dataclass
class Report:
    title: str
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def flag(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(kind, detail))

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def ok(self) -> bool:
        return not self.violations
