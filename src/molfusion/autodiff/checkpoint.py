"""Checkpoint container format.

Byte layout (all integers little-endian):

    [0:8]    magic b"MOLFUSE1"
    [8:12]   uint32 header length H
    [12:12+H] UTF-8 JSON header with sorted keys:
             {"format_version": 2,
              "config_digest": "<sha256 hex of the canonical config JSON>",
              "config": {...},
              "payload_sha256": "<sha256 hex of the payload bytes>",
              "tensors": [{"name", "shape", "offset", "nbytes"}, ...]}
    [12+H:]  payload: raw little-endian float64 arrays, row-major, packed in
             tensor-name order; offsets are relative to the payload start.

The digest covers ``json.dumps(config, sort_keys=True, separators=(",", ":"))``;
loading rejects a header whose digest does not match its own config unless
forced. It always checks that each entry's ``nbytes`` is 8 bytes per element
of its shape and lies inside the payload, and that the payload hashes to
``payload_sha256``; a version 1 file (the same layout without
``payload_sha256``) gets every check but the hash. Any file that fails a
check or does not follow this layout raises ``CheckpointError``. Writing is
deterministic: identical config + arrays give identical bytes. Loaded arrays
are read-only views of the file's bytes, which are read once and not copied.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MOLFUSE1"
FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)


class CheckpointError(ValueError):
    """The file is not a readable checkpoint of this format."""


class DigestMismatchError(CheckpointError):
    pass


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_checkpoint(path: str | Path, config: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": arr.nbytes,
            }
        )
        payload.extend(arr.tobytes())
    header = {
        "format_version": FORMAT_VERSION,
        "config_digest": config_digest(config),
        "config": config,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "tensors": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)
    tmp.replace(path)


def load_checkpoint(path: str | Path, force: bool = False) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a molfusion checkpoint (bad magic)")
    try:
        (header_len,) = struct.unpack("<I", raw[8:12])
        if 12 + header_len > len(raw):
            raise CheckpointError(f"{path}: header runs past the end of the file")
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
        version = header.get("format_version")
        if version not in READABLE_VERSIONS:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        config = header["config"]
        if not force and header["config_digest"] != config_digest(config):
            raise DigestMismatchError(
                f"{path}: config digest mismatch (checkpoint corrupted or edited); "
                "pass force=True to load anyway"
            )
        payload = memoryview(raw)[12 + header_len :]
        if version >= 2 and hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
            raise CheckpointError(f"{path}: payload checksum mismatch (checkpoint corrupted)")
        arrays = {}
        for entry in header["tensors"]:
            start, nbytes, shape = entry["offset"], entry["nbytes"], entry["shape"]
            if nbytes != 8 * math.prod(shape) or not 0 <= start <= len(payload) - nbytes:
                raise CheckpointError(
                    f"{path}: tensor {entry['name']!r} of shape {shape} does not fit "
                    f"{nbytes} bytes at payload offset {start}"
                )
            arr = np.frombuffer(payload, dtype="<f8", count=nbytes // 8, offset=start)
            arrays[entry["name"]] = arr.reshape(shape)
    except CheckpointError:
        raise
    except (struct.error, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint ({type(exc).__name__}: {exc})") from exc
    return config, arrays
