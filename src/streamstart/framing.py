"""The framing a checkpoint and a stream file share: a 4-byte magic, a little-endian u32 version,
a u32 header length, the UTF-8 JSON header, then the payload. Each format keeps its own magic,
version and header checks; the layouts are in docs/formats.md.
"""

from __future__ import annotations

import json
from collections.abc import Iterable


def frame(magic: bytes, version: int, header: dict, payload: Iterable[bytes]) -> bytes:
    """The file's bytes: ``header`` as JSON with sorted keys, then ``payload`` end to end."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"".join([magic, version.to_bytes(4, "little"), len(blob).to_bytes(4, "little"), blob, *payload])


def unframe(path, raw: bytes, magic: bytes, error: type[Exception], not_magic: str) -> tuple[int, bytes, int]:
    """Version, header bytes and payload offset of ``raw``, the bytes of ``path``. Another magic
    raises ``error(not_magic)``; a file cut before its header ends raises ``error`` too."""
    if raw[:4] != magic:
        raise error(not_magic)
    end = 12 + int.from_bytes(raw[8:12], "little")  # a file cut in the framing or header ends before it
    if len(raw) < end:
        raise error(f"{path} is truncated: {len(raw)} bytes, needs at least {end}")
    return int.from_bytes(raw[4:8], "little"), raw[12:end], end
