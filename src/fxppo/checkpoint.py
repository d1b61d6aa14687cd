"""Versioned binary container for model parameters and optimizer state.

Byte layout (all integers little-endian):

    offset  size  field
    0       8     magic ``b"FXPPOBIN"``
    8       4     format version, uint32 (currently 1)
    12      4     meta_len, uint32
    16      m     meta: UTF-8 JSON object (free-form run metadata)
    ..      4     block_count, uint32
    per block:
            2     name_len, uint16
            n     name, UTF-8
            1     ndim, uint8
            4*d   dims, uint32 each
            8*k   values, float64 little-endian, row-major (k = prod dims)

The same container stores policy networks, autoencoders (``kind`` in the
meta says which) and fitted K-Means models. A network's blocks are named
``<tag>.<param>`` from its layer table; optimizer moments ride along
after them, interleaved per block as ``adam.m.<block>``, ``adam.v.<block>``.
"""

import hashlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"FXPPOBIN"
VERSION = 1


class CheckpointError(IOError):
    pass


def save_container(path, meta, blocks):
    """Write named float64 arrays plus a JSON meta dict to ``path``. The
    file's header, then each block's header and values, are written in
    order; a block's values are written from its own buffer, not copied."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [MAGIC + struct.pack("<II", VERSION, len(meta_bytes)) + meta_bytes
             + struct.pack("<I", len(blocks))]
    for name, arr in blocks.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        name_bytes = name.encode("utf-8")
        parts += [struct.pack("<H", len(name_bytes)) + name_bytes
                  + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
                  arr.reshape(-1).view(np.uint8)]
    write_artifact(path, parts)


def load_container(path):
    """Read a container; returns (meta, blocks) with insertion order kept.

    Every length field is checked against the bytes that remain, and bytes
    after the last block are rejected, so a truncated or padded file raises
    CheckpointError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(n, what):
        nonlocal pos
        if n > len(data) - pos:
            raise CheckpointError(f"{path}: truncated {what}")
        pos += n
        return data[pos - n : pos]

    def uint(fmt, what):
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))[0]

    if take(8, "header") != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a fxppo container")
    version = uint("<I", "header")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported container version {version}")
    meta_len = uint("<I", "header")
    try:
        meta = json.loads(take(meta_len, "metadata").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt metadata") from exc
    count = uint("<I", "block count")
    blocks = {}
    for _ in range(count):
        name_bytes = take(uint("<H", "block header"), "block header")
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: corrupt block name") from exc
        ndim = uint("<B", "block header")
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "block header"))
        values = take(8 * math.prod(dims), f"block {name!r}")
        try:
            blocks[name] = np.frombuffer(values, dtype="<f8").astype(np.float64).reshape(dims)
        except ValueError as exc:  # more dims than numpy allows, or too large a shape
            raise CheckpointError(f"{path}: block {name!r} has unusable dims") from exc
    if pos != len(data):
        raise CheckpointError(f"{path}: {len(data) - pos} trailing bytes after the last block")
    return meta, blocks


def is_count(n, least=1):
    """True for an int (not a bool) of at least ``least``."""
    return type(n) is int and n >= least


def is_number(x):
    """True for an int or float that is not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_checked(path, kind, block_shapes):
    """(meta, blocks) of a container whose meta is a dict of this ``kind``
    and whose blocks include every one ``block_shapes(meta)`` names, at its
    shape. block_shapes raises KeyError, TypeError or ValueError on a meta
    it cannot use. All of it is checked before the caller allocates
    anything, so a malformed container raises CheckpointError."""
    meta, blocks = load_container(path)
    if not isinstance(meta, dict) or meta.get("kind") != kind:
        raise CheckpointError(f"{path}: not a {kind} checkpoint")
    try:
        shapes = block_shapes(meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: unusable {kind} metadata: {exc!r}") from exc
    for name, shape in shapes.items():
        if name not in blocks or blocks[name].shape != shape:
            raise CheckpointError(f"{path}: block {name!r} missing or not of shape {shape}")
    return meta, blocks


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_artifact(path, data):
    """Writes ``data`` (str as UTF-8, bytes, a list of bytes-like parts
    written in order, or a numpy array in ``np.save`` format) to a
    temporary file next to ``path`` and renames it into place, creating
    the directory, so ``path`` is whole or absent; returns its sha256."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            if isinstance(data, np.ndarray):
                np.save(fh, data)
            elif isinstance(data, list):
                for part in data:
                    fh.write(part)
            else:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return file_sha256(path)
