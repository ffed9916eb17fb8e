"""One format for every JSONL record stream.

The service session (``repro-service-session/1``), the SLO stream
(``repro-slo/1``) and the telemetry session (``repro-telemetry/1``) are
a header record naming the schema, then one JSON object per line with
sorted keys and a string ``kind``.  Virtual times go through
:func:`round_time`, so the same run gives the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..errors import RecordFormatError


def round_time(t: float) -> float:
    """12 decimals of a virtual second: far below any modeled duration
    (API calls cost ~1e-7 s), enough to absorb float formatting noise."""
    return round(float(t), 12)


class RecordLog:
    """An append-only record stream, in memory or written to ``path``.

    ``header``, when given, is the first record.  In memory the lines
    back :meth:`to_bytes`, :meth:`write`, :meth:`events` and ``len``.
    With a ``path`` no line is kept: the file is opened (truncated) at
    the first record and flushed after each, so ``obs.watch --follow``
    can tail it; a record after :meth:`close` reopens it to append.
    """

    def __init__(self, header: dict[str, Any] | None = None, *,
                 path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lines: list[str] = []
        self._file = None
        if header is not None:
            self.append(header)

    def append(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True)
        if self.path is None:
            self._lines.append(line)
            return
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w")
        elif self._file.closed:
            self._file = self.path.open("a")
        self._file.write(line + "\n")
        self._file.flush()

    def emit(self, kind: str, t: float, **fields: Any) -> None:
        """Append ``{"kind": kind, "t": t, **fields}``, with ``t`` and
        every float field through :func:`round_time`."""
        record: dict[str, Any] = {"kind": kind, "t": round_time(t)}
        for key, value in fields.items():
            record[key] = round_time(value) if isinstance(value, float) else value
        self.append(record)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()

    def __len__(self) -> int:
        return len(self._lines)

    def events(self) -> Iterator[dict[str, Any]]:
        return (json.loads(line) for line in self._lines)

    def to_bytes(self) -> bytes:
        """The canonical byte form (what determinism tests compare)."""
        return "".join(line + "\n" for line in self._lines).encode("utf-8")

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(self.to_bytes())
        return path


def parse_records(lines: Iterable[str]) -> tuple[list[dict[str, Any]],
                                                 list[tuple[int, str]]]:
    """``(records, invalid)`` from JSONL lines, blank lines skipped.

    A line that is not a JSON object with a string ``kind`` goes to
    ``invalid`` as ``(1-based line number, text)`` and parsing goes on:
    a file still being written may end mid-line.
    """
    records, invalid = [], []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            record = None
        if isinstance(record, dict) and isinstance(record.get("kind"), str):
            records.append(record)
        else:
            invalid.append((number, line))
    return records, invalid


def read_records(path: str | Path) -> list[dict[str, Any]]:
    """Every record of a stream file; its first bad line raises
    :class:`~repro.errors.RecordFormatError`."""
    records, invalid = parse_records(Path(path).read_text().splitlines())
    if invalid:
        number, line = invalid[0]
        raise RecordFormatError(
            f"{path}:{number}: not a JSON object with a string 'kind': "
            f"{line[:80]!r}", path=str(path), line=number)
    return records
