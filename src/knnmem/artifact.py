"""The one binary container shared by the index file and the checkpoint.

Layout::

    magic     8 bytes naming the artifact and its version
    length    u64, little-endian: the byte length of the manifest
    manifest  canonical JSON (sorted keys, compact separators), UTF-8
    body      raw bytes whose exact length the manifest determines

``read_artifact`` makes every framing check (bad magic, short header,
short manifest, short body, trailing bytes) and the caller's own, and raises
the caller's error type for each, so every artifact fails the same typed way.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


def write_artifact(path: str | Path, magic: bytes, manifest: dict,
                   body_parts: Iterable) -> None:
    """Write the container; ``body_parts`` are bytes-like objects (such as
    C-contiguous numpy arrays) written one after the other, to a temporary
    name that replaces ``path`` once all are written; on any error the
    temporary file is removed and ``path`` is left as it was."""
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(chain([magic, struct.pack("<Q", len(blob)), blob], body_parts))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes, by which a config echo names an input file."""
    with Path(path).open("rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def read_artifact(path: str | Path, magic: bytes, error: type[Exception],
                  parse: Callable[[object], tuple[Callable[[bytes], T], int]], *,
                  kind: str, body_name: str) -> T:
    """Read a ``write_artifact`` file and return the value it holds.

    ``parse`` takes the decoded manifest and returns the function that builds
    the value from the body, and the body's byte length. A ``KeyError``,
    ``TypeError`` or ``ValueError`` (which covers ``UnicodeDecodeError`` and
    ``json.JSONDecodeError``) raised while decoding or parsing the manifest
    becomes ``error``, as do a builder's ``ValueError`` and every framing
    fault; messages name the file.
    """
    with Path(path).open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        got = fh.read(len(magic))
        if got != magic:
            raise error(f"{path}: bad {kind} magic {got!r}")
        raw = fh.read(8)
        if len(raw) != 8:
            raise error(f"{path}: truncated {kind} header")
        (length,) = struct.unpack("<Q", raw)
        if length > size - fh.tell():
            raise error(f"{path}: truncated {kind} manifest")
        try:
            build, want = parse(json.loads(fh.read(length).decode("utf-8")))
        except (KeyError, TypeError, ValueError) as exc:
            raise error(f"{path}: malformed {kind} manifest: {exc}") from None
        have = size - fh.tell()
        if have < want:
            raise error(f"{path}: truncated {body_name} ({have} of {want} bytes)")
        if have > want:
            raise error(f"{path}: {have - want} trailing bytes after the {body_name}")
        body = fh.read(want)
    try:
        return build(body)
    except ValueError as exc:
        raise error(f"{path}: {exc}") from None
