"""Atomic checksummed writes: round-trips and corruption detection."""

from __future__ import annotations

import pytest

from repro.durable.atomic import (
    CorruptFileError,
    atomic_write_bytes,
    checksummed_read,
    checksummed_write,
    read_header,
)

MAGIC = "repro.test/1"


class TestAtomicWrite:
    def test_writes_exact_bytes(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"\x00\x01payload")
        assert target.read_bytes() == b"\x00\x01payload"

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_bytes(tmp_path / "out.bin", b"x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.bin"
        atomic_write_bytes(target, b"x")
        assert target.read_bytes() == b"x"


class TestChecksummedRoundTrip:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "entry"
        checksummed_write(target, b"the payload", magic=MAGIC, meta={"k": 1})
        header, payload = checksummed_read(target, magic=MAGIC)
        assert payload == b"the payload"
        assert header["magic"] == MAGIC
        assert header["meta"] == {"k": 1}

    def test_header_only_read(self, tmp_path):
        target = tmp_path / "entry"
        checksummed_write(target, b"xyz", magic=MAGIC, meta={"n": 7})
        assert read_header(target, magic=MAGIC)["meta"] == {"n": 7}

    def test_empty_payload(self, tmp_path):
        target = tmp_path / "entry"
        checksummed_write(target, b"", magic=MAGIC)
        _header, payload = checksummed_read(target, magic=MAGIC)
        assert payload == b""

    def test_missing_file_raises_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            checksummed_read(tmp_path / "absent", magic=MAGIC)


class TestCorruptionDetection:
    def _write(self, tmp_path, payload=b"payload bytes"):
        target = tmp_path / "entry"
        checksummed_write(target, payload, magic=MAGIC)
        return target

    def test_flipped_payload_byte(self, tmp_path):
        target = self._write(tmp_path)
        data = bytearray(target.read_bytes())
        data[-1] ^= 0xFF
        target.write_bytes(bytes(data))
        with pytest.raises(CorruptFileError, match="SHA-256 mismatch"):
            checksummed_read(target, magic=MAGIC)

    def test_truncated_payload(self, tmp_path):
        target = self._write(tmp_path)
        data = target.read_bytes()
        target.write_bytes(data[:-4])
        with pytest.raises(CorruptFileError):
            checksummed_read(target, magic=MAGIC)

    def test_truncated_mid_header(self, tmp_path):
        target = self._write(tmp_path)
        target.write_bytes(target.read_bytes()[:10])
        with pytest.raises(CorruptFileError):
            checksummed_read(target, magic=MAGIC)

    def test_wrong_magic(self, tmp_path):
        target = self._write(tmp_path)
        with pytest.raises(CorruptFileError, match="magic"):
            checksummed_read(target, magic="repro.other/1")

    def test_garbage_file(self, tmp_path):
        target = tmp_path / "entry"
        target.write_bytes(b"not a container at all")
        with pytest.raises(CorruptFileError):
            checksummed_read(target, magic=MAGIC)

    def test_header_not_json(self, tmp_path):
        target = tmp_path / "entry"
        target.write_bytes(b"{broken json\npayload")
        with pytest.raises(CorruptFileError):
            checksummed_read(target, magic=MAGIC)
