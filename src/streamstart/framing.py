"""The container of every binary file (checkpoint, stream file, score store): a 4-byte magic, a u32
version, a u32 header length, the UTF-8 JSON header, then the payload (docs/formats.md).
"""

from __future__ import annotations

import json

import numpy as np


def write(path, magic: bytes, version: int, header: dict, payload: list[np.ndarray], align: int = 1) -> None:
    """Write the frame, ``header`` as sorted-key JSON padded with spaces so that the payload starts
    at a multiple of ``align`` bytes, then each contiguous array of ``payload``."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    blob += b" " * (-(12 + len(blob)) % align)
    with open(path, "wb", buffering=1 << 20) as file:  # a store's thousands of series in few writes
        file.write(magic + version.to_bytes(4, "little") + len(blob).to_bytes(4, "little") + blob)
        for array in payload:
            file.write(array)


def unframe(path, raw: bytes, magic: bytes, version: int, what: str, error: type[Exception],
            not_magic: str) -> tuple[dict, int]:
    """Header and payload offset of ``raw``, the bytes of ``path``, a ``what`` file. Another magic raises
    ``error(not_magic)``; a cut head, another version or a header that is no JSON object raises ``error``."""
    if raw[:4] != magic:
        raise error(not_magic)
    end = 12 + int.from_bytes(raw[8:12], "little")  # a file cut in the framing or header ends before it
    if len(raw) < end:
        raise error(f"{path} is truncated: {len(raw)} bytes, needs at least {end}")
    if (found := int.from_bytes(raw[4:8], "little")) != version:
        raise error(f"{path} is {what} version {found}; this build reads version {version}")
    try:
        header = json.loads(raw[12:end].decode("utf-8"))
    except (ValueError, RecursionError) as err:  # not UTF-8, not JSON, or nested past the recursion limit
        raise error(f"{path}: its header is not UTF-8 JSON ({type(err).__name__}: {err})") from None
    if not isinstance(header, dict):
        raise error(f"{path}: its header is a JSON {type(header).__name__}, not an object")
    return header, end
