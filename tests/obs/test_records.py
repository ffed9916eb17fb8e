"""The one JSONL record format (repro.obs.records): writing in memory
and to a file, rounding, the tolerant parser and the strict reader."""

from __future__ import annotations

import json

import pytest

from repro.errors import RecordFormatError, ReproError
from repro.obs.records import RecordLog, parse_records, read_records, round_time


class TestRecordLog:
    def test_header_then_sorted_key_lines(self):
        log = RecordLog({"kind": "header", "schema": "x/1"})
        log.append({"z": 1, "kind": "a"})
        assert log.to_bytes() == (b'{"kind": "header", "schema": "x/1"}\n'
                                  b'{"kind": "a", "z": 1}\n')
        assert len(log) == 2
        assert [r["kind"] for r in log.events()] == ["header", "a"]

    def test_emit_rounds_time_and_float_fields_only(self):
        log = RecordLog()
        log.emit("k", 1, x=0.1 + 0.2, n=3, flag=True, name="j")
        rec = next(log.events())
        assert rec == {"kind": "k", "t": 1.0, "x": 0.3, "n": 3,
                       "flag": True, "name": "j"}
        assert json.dumps(rec["t"]) == "1.0"
        assert round_time(0.1 + 0.2) == 0.3

    def test_an_empty_log_has_no_bytes(self):
        assert RecordLog().to_bytes() == b""

    def test_write_makes_parent_dirs(self, tmp_path):
        log = RecordLog({"kind": "header"})
        path = log.write(tmp_path / "a" / "b.jsonl")
        assert path.read_bytes() == log.to_bytes()

    def test_file_log_opens_at_first_record_and_flushes_each(self, tmp_path):
        path = tmp_path / "sub" / "s.jsonl"
        log = RecordLog(path=path)
        assert not path.exists()
        log.emit("session", 0.0)
        # readable before close: what --follow tails
        assert read_records(path) == [{"kind": "session", "t": 0.0}]
        log.emit("sample", 1e-3, v=2.5)
        log.close()
        assert [r["kind"] for r in read_records(path)] == ["session", "sample"]
        assert len(log) == 0          # a file log keeps no lines
        log.close()                   # idempotent
        log.emit("incident", 2e-3)    # a late record appends, never truncates
        log.close()
        assert [r["kind"] for r in read_records(path)] == [
            "session", "sample", "incident"]


class TestParsing:
    def test_invalid_lines_are_numbered_and_parsing_goes_on(self):
        records, invalid = parse_records([
            '{"kind": "a"}', "", "  ", '{"kind": "b"', "[1, 2]",
            '{"kind": 3}', '{"no": "kind"}', '{"kind": "c"}',
        ])
        assert [r["kind"] for r in records] == ["a", "c"]
        assert [n for n, _line in invalid] == [4, 5, 6, 7]
        assert invalid[0][1] == '{"kind": "b"'

    def test_read_records_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"kind": "a"}\n\n{"kind": "a"\n')
        with pytest.raises(RecordFormatError) as info:
            read_records(path)
        assert isinstance(info.value, ReproError)
        assert info.value.line == 3 and info.value.path == str(path)
        assert f"{path}:3" in str(info.value)
