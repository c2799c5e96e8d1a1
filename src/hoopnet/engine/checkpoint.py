"""Binary model checkpoints.

Layout: 8-byte magic, u32 version, u64 manifest length, UTF-8 manifest,
then all tensors as little-endian float64 in manifest order, whatever
the arrays' dtype (widening float32 is exact).  The manifest
records the architecture config hash, free-form metadata, and one
``tensor <name> <dims>`` line per array; loading verifies the hash,
every shape and the file's length before touching the model.  Saving
goes through ``util.atomic_open``, so a crash mid-write leaves the
previous checkpoint intact.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from ..errors import CheckpointError
from ..util import atomic_open
from .tensor import _refuse_in_no_grad

MAGIC = b"HPNCKPT\x00"
VERSION = 1


def save_checkpoint(
    path: str | Path,
    named_state: list[tuple[str, np.ndarray]],
    config_hash: str,
    meta: dict[str, str] | None = None,
) -> None:
    lines = [f"config_hash {config_hash}"]
    for key, value in sorted((meta or {}).items()):
        if any(c in key or c in str(value) for c in "\n"):
            raise CheckpointError("metadata must be single-line")
        lines.append(f"meta {key} {value}")
    for name, arr in named_state:
        dims = "x".join(str(d) for d in arr.shape) or "scalar"
        lines.append(f"tensor {name} {dims}")
    manifest = ("\n".join(lines) + "\n").encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQ", VERSION, len(manifest)))
        fh.write(manifest)
        for _, arr in named_state:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_manifest(path: str | Path) -> tuple[list[tuple[str, tuple[int, ...]]], str, dict[str, str], int]:
    try:
        return _read_manifest(path)
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header ({exc})") from exc


def _read_manifest(path: str | Path) -> tuple[list[tuple[str, tuple[int, ...]]], str, dict[str, str], int]:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version, mlen = struct.unpack("<IQ", fh.read(12))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        if mlen > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CheckpointError(f"{path}: truncated manifest")
        manifest = fh.read(mlen).decode("utf-8")
        offset = fh.tell()
    tensors: list[tuple[str, tuple[int, ...]]] = []
    config_hash = ""
    meta: dict[str, str] = {}
    for line in manifest.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "config_hash":
            config_hash = rest
        elif kind == "meta":
            key, _, value = rest.partition(" ")
            meta[key] = value
        elif kind == "tensor":
            name, _, dims = rest.rpartition(" ")
            shape = () if dims == "scalar" else tuple(int(d) for d in dims.split("x"))
            tensors.append((name, shape))
        else:
            raise CheckpointError(f"{path}: bad manifest line {line!r}")
    return tensors, config_hash, meta, offset


def load_checkpoint(
    path: str | Path,
    named_state: list[tuple[str, np.ndarray]],
    expect_hash: str,
) -> dict[str, str]:
    """Copy stored tensors into the given arrays, rounded to each array's
    dtype; returns the metadata.  Raises inside ``no_grad()``, where
    parameters and buffers hold still."""
    _refuse_in_no_grad("load_checkpoint")
    tensors, config_hash, meta, offset = read_manifest(path)
    if config_hash != expect_hash:
        raise CheckpointError(
            f"{path}: checkpoint was written for a different configuration "
            f"({config_hash[:12]}... vs {expect_hash[:12]}...)"
        )
    expected = [(name, arr.shape) for name, arr in named_state]
    stored = [(name, shape) for name, shape in tensors]
    if expected != stored:
        raise CheckpointError(
            f"{path}: tensor manifest does not match the current architecture"
        )
    size, end = os.stat(path).st_size, offset
    for name, arr in named_state:
        end += 8 * arr.size
        if end > size:
            raise CheckpointError(f"{path}: truncated data for tensor {name}")
    if size > end:
        raise CheckpointError(f"{path}: trailing bytes after tensor data")
    with open(path, "rb") as fh:
        fh.seek(offset)
        for _, arr in named_state:
            arr[...] = np.frombuffer(fh.read(8 * arr.size), dtype="<f8").reshape(arr.shape)
    return meta
