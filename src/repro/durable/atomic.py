"""Crash-safe filesystem primitives (docs/resilience.md).

Every artifact the repo persists — run-cache entries and checkpoints —
funnels through this module so torn-write handling lives in exactly one
place:

- :func:`atomic_write_bytes` — write-tmp + fsync + rename (+ directory
  fsync), so readers see either the old file or the complete new one,
  never a prefix;
- :func:`checksummed_write` / :func:`checksummed_read` — a one-file
  container: a JSON header line carrying a magic tag, SHA-256 and
  payload size, followed by the raw payload.  Any corruption — torn
  header, short payload, flipped bit — is a :class:`CorruptFileError`
  on read, never a misparse.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

PathLike = Union[str, Path]


class CorruptFileError(ValueError):
    """A checksummed file failed validation (torn write or bit rot)."""


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def fsync_dir(path: PathLike) -> None:
    """Best-effort fsync of a directory (persists the rename itself).

    Silently skipped where directories cannot be opened for reading
    (some filesystems/platforms); the rename is still atomic, only its
    durability across power loss is then filesystem-dependent.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes, *, fsync: bool = True) -> None:
    """Atomically replace ``path`` with ``data``.

    The bytes land in a temp file in the same directory, are fsync'd,
    then renamed over the target (``os.replace``), so a concurrent
    reader — or a reader after a mid-write crash — sees either the
    previous content or all of ``data``, never a torn prefix.  Last
    writer wins under concurrency.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if fsync:
        fsync_dir(path.parent)


def checksummed_write(
    path: PathLike,
    payload: bytes,
    *,
    magic: str,
    meta: Optional[Dict[str, Any]] = None,
    fsync: bool = True,
) -> None:
    """Atomically write a checksummed container file.

    Layout: one JSON header line ``{"magic": ..., "sha256": ...,
    "size": ..., "meta": {...}}`` terminated by ``\\n``, then the raw
    payload bytes.  ``meta`` must be JSON-serializable.
    """
    header = {
        "magic": magic,
        "sha256": sha256_hex(payload),
        "size": len(payload),
        "meta": dict(meta or {}),
    }
    head = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    atomic_write_bytes(path, head + b"\n" + payload, fsync=fsync)


def read_header(path: PathLike, *, magic: str) -> Dict[str, Any]:
    """Parse and validate only the header of a checksummed container.

    Cheap (reads one line); does **not** verify the payload digest —
    use :func:`checksummed_read` for full validation.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.readline()
    return _parse_header(head, path, magic)


def _parse_header(head: bytes, path: Path, magic: str) -> Dict[str, Any]:
    if not head.endswith(b"\n"):
        raise CorruptFileError(f"{path}: truncated header line (torn write?)")
    try:
        header = json.loads(head)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFileError(f"{path}: malformed header: {exc}") from None
    if not isinstance(header, dict) or header.get("magic") != magic:
        raise CorruptFileError(
            f"{path}: not a {magic!r} file "
            f"(magic is {header.get('magic')!r})"
            if isinstance(header, dict)
            else f"{path}: header is not an object"
        )
    if not isinstance(header.get("sha256"), str) or not isinstance(
        header.get("size"), int
    ):
        raise CorruptFileError(f"{path}: header missing sha256/size fields")
    return header


def checksummed_read(path: PathLike, *, magic: str) -> Tuple[Dict[str, Any], bytes]:
    """Read and fully validate a checksummed container file.

    Returns ``(header, payload)``.  Raises :class:`CorruptFileError`
    on a wrong magic, torn header, short/long payload, or digest
    mismatch; :class:`FileNotFoundError`/``OSError`` pass through for
    the caller to map to its own miss/skip semantics.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.readline()
        payload = fh.read()
    header = _parse_header(head, path, magic)
    if len(payload) != header["size"]:
        raise CorruptFileError(
            f"{path}: payload is {len(payload)} bytes, header says "
            f"{header['size']} (torn write?)"
        )
    digest = sha256_hex(payload)
    if digest != header["sha256"]:
        raise CorruptFileError(
            f"{path}: payload SHA-256 mismatch "
            f"(header {header['sha256'][:12]}…, actual {digest[:12]}…)"
        )
    return header, payload


__all__ = [
    "CorruptFileError",
    "atomic_write_bytes",
    "checksummed_read",
    "checksummed_write",
    "fsync_dir",
    "read_header",
    "sha256_hex",
]
