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
    keep: int | None = None  # violations listed, all when None; the rest are counted
    unlisted: int = 0

    def flag(self, kind: str, detail: str) -> None:
        if self.keep is None or len(self.violations) < self.keep:
            self.violations.append(Violation(kind, detail))
        else:
            self.unlisted += 1

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unlisted
