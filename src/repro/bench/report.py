"""Result tables (aligned text, markdown, JSON) and bench-leg results."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import ReproError


@dataclass
class Table:
    """A titled grid of experiment results."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ReproError(
                f"row has {len(values)} values but table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise ReproError(f"no column {name!r} in {self.columns}") from None
        return [row[idx] for row in self.rows]

    def row_by(self, key_column: str, key: Any) -> list[Any]:
        idx = self.columns.index(key_column)
        for row in self.rows:
            if row[idx] == key:
                return row
        raise ReproError(f"no row with {key_column}={key!r}")

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        if isinstance(value, dict) and "counts" in value and "buckets" in value:
            # histogram snapshot: render compactly (non-empty buckets only)
            # so CLI output and JSON dumps stay short and diff-friendly
            parts = [
                f"<={ub:g}:{n}"
                for ub, n in zip(value["buckets"], value["counts"])
                if n
            ]
            if value["counts"][-1]:
                parts.append(f">last:{value['counts'][-1]}")
            body = " ".join(parts) or "-"
            return f"n={value['count']} sum={value['sum']:.4g} [{body}]"
        return str(value)

    def format(self) -> str:
        """Aligned plain-text rendering."""
        cells = [[self._fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(self.columns)
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(self._fmt(v) for v in row) + " |")
        for note in self.notes:
            lines.append(f"\n*{note}*")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """The JSON payload: title, columns, raw (unformatted) rows, notes."""
        return {
            "title": self.title,
            "columns": self.columns,
            "rows": self.rows,
            "notes": self.notes,
        }

    def save_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2, default=str))
        return path


@dataclass
class LegResult:
    """What one bench leg hands :mod:`repro.bench.gate`."""

    #: metric snapshot (``counters``, optionally ``gauges``/``histograms``),
    #: gated against the committed baseline; counters still unclamped
    metrics: dict[str, Any] = field(default_factory=dict)
    #: ungated top-level manifest keys: raw measurements, report inputs
    raw: dict[str, Any] = field(default_factory=dict)
    #: differential/determinism failures (exit 1, nothing written)
    conformance: list[str] = field(default_factory=list)
    #: hard acceptance floors missed (exit 2, manifest still written)
    floor_misses: list[str] = field(default_factory=list)
