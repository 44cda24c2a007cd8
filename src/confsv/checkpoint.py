"""Binary checkpoint container.

Layout (all integers little-endian):

    8 bytes   magic  b"CFSVCKPT"
    u32       format version (1)
    u32       metadata length, then UTF-8 JSON metadata
    u32       array count
    per array:
        u16   name length, then UTF-8 name
        u8    ndim, then ndim * u32 dims
        raw   float64 little-endian values, row-major

Round-trips are bit-exact: values are stored as the same 8-byte IEEE words
they occupy in memory.  `content_hash` digests the array section only, so two
checkpoints with identical weights hash identically regardless of metadata.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import typing
from pathlib import Path
from typing import Union

import numpy as np

from .errors import CheckpointError, ConfigError
from .util import ByteReader, write_atomic

MAGIC = b"CFSVCKPT"
VERSION = 1


def _array_section(arrays: dict[str, np.ndarray]) -> bytes:
    chunks = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype="<f8")  # tobytes() writes C order for any layout
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    return b"".join(chunks)


def save_checkpoint(path: Union[str, Path], meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write a checkpoint through `write_atomic`: a failed save keeps the old file."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    write_atomic(path, b"".join([MAGIC, struct.pack("<II", VERSION, len(meta_bytes)),
                                 meta_bytes, _array_section(arrays)]))


def load_checkpoint(path: Union[str, Path]) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint; a truncated or malformed file, or an array holding
    a NaN or an infinity, raises CheckpointError."""
    data = Path(path).read_bytes()
    if data[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    read = ByteReader(data, path, CheckpointError, "checkpoint")
    read.take(len(MAGIC), "magic")
    (version,) = read.unpack("<I", "version")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    (meta_len,) = read.unpack("<I", "metadata length")
    try:
        meta = json.loads(read.text(meta_len, "metadata"))
    except ValueError as e:  # JSONDecodeError, or a number past the int digit limit
        raise CheckpointError(f"{path}: metadata is not valid JSON: {e}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is not a JSON object")
    (count,) = read.unpack("<I", "array count")
    arrays: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = read.unpack("<H", f"array {i} name length")
        name = read.text(name_len, f"array {i} name")
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate array {name!r}")
        (ndim,) = read.unpack("<B", f"array {name!r} rank")
        shape = read.unpack(f"<{ndim}I", f"array {name!r} shape")
        n = math.prod(shape)
        values = read.take(8 * n, f"array {name!r} values")
        try:
            arr = np.frombuffer(data, dtype="<f8", count=n, offset=values).reshape(shape)
        except ValueError:  # an empty shape whose other sizes overflow numpy's limit
            raise CheckpointError(
                f"{path}: array {name!r} has impossible shape {shape}"
            ) from None
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: array {name!r} holds non-finite values")
        arrays[name] = arr.astype(np.float64)
    if read.off != len(data):
        raise CheckpointError(f"{path}: trailing bytes after array table")
    return meta, arrays


def content_hash(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 of the canonical array section (names sorted)."""
    ordered = {k: arrays[k] for k in sorted(arrays)}
    return hashlib.sha256(_array_section(ordered)).hexdigest()


def meta_value(meta: dict, key: str, kind: type, path) -> typing.Any:
    """`meta[key]`, which must be a `kind` (never a bool); else CheckpointError."""
    value = meta.get(key)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise CheckpointError(f"{path}: metadata {key!r} is missing or not a {kind.__name__}")
    return value


def config_from_meta(cls: type, meta: dict, key: str, path) -> typing.Any:
    """Dataclass `cls` built from the metadata object `meta[key]`.

    A missing object, an unknown or missing field, a field of the wrong type
    or a value the config rejects raises CheckpointError.
    """
    fields = meta_value(meta, key, dict, path)
    hints = typing.get_type_hints(cls)
    for name, value in fields.items():
        want = hints.get(name)
        if want is None:
            raise CheckpointError(f"{path}: metadata {key!r} has unknown field {name!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
            raise CheckpointError(f"{path}: metadata {key}.{name} is not a {want.__name__}")
    try:
        return cls(**fields)
    except (TypeError, ConfigError) as e:  # a missing field, or a value out of range
        raise CheckpointError(f"{path}: metadata {key!r} is not a valid config: {e}") from None
