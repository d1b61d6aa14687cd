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
        # not np.ascontiguousarray, which makes a 0-d array 1-d
        arr = np.asarray(arr, dtype="<f8", order="C")
        name_bytes = name.encode("utf-8")
        parts += [struct.pack("<H", len(name_bytes)) + name_bytes
                  + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
                  arr.reshape(-1).view(np.uint8)]
    write_artifact(path, parts)


def load_container(path, select=None):
    """Read a container; returns (meta, blocks) with insertion order kept.

    The file is read block by block. ``select(meta)``, when given, names
    the blocks to build (or raises CheckpointError); every other block's
    values are passed over with a seek, never read. Without it every block
    is built. Every length field is checked against the bytes that remain,
    a skipped block's included, and bytes after the last block are
    rejected, so a truncated or padded file raises CheckpointError
    whatever is selected.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def check(n, what):
            if n > size - fh.tell():
                raise CheckpointError(f"{path}: truncated {what}")

        def take(n, what):
            check(n, what)
            data = fh.read(n)
            if len(data) != n:
                raise CheckpointError(f"{path}: truncated {what}")
            return data

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
        wanted = None if select is None else select(meta)
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
            n = math.prod(dims)
            check(8 * n, f"block {name!r}")
            if wanted is not None and name not in wanted:
                fh.seek(8 * n, os.SEEK_CUR)
                continue
            values = np.empty(n, dtype="<f8")
            if fh.readinto(values) != 8 * n:
                raise CheckpointError(f"{path}: truncated block {name!r}")
            try:
                blocks[name] = values.astype(np.float64, copy=False).reshape(dims)
            except ValueError as exc:  # more dims than numpy allows
                raise CheckpointError(f"{path}: block {name!r} has unusable dims") from exc
        if fh.tell() != size:
            raise CheckpointError(f"{path}: {size - fh.tell()} trailing bytes after the last block")
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
    shape. Only those blocks are built (`load_container`'s ``select``):
    a policy's Adam moments, for one, are skipped. block_shapes raises
    KeyError, TypeError or ValueError on a meta it cannot use. The meta is
    checked before any block is read and the shapes before the caller
    allocates anything, so a malformed container raises CheckpointError."""
    shapes = {}

    def select(meta):
        if not isinstance(meta, dict) or meta.get("kind") != kind:
            raise CheckpointError(f"{path}: not a {kind} checkpoint")
        try:
            shapes.update(block_shapes(meta))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: unusable {kind} metadata: {exc!r}") from exc
        return shapes

    meta, blocks = load_container(path, select)
    for name, shape in shapes.items():
        if name not in blocks or blocks[name].shape != shape:
            raise CheckpointError(f"{path}: block {name!r} missing or not of shape {shape}")
    return meta, blocks


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _npy_values(arr):
    """The values `np.save` writes after its header, as one C-contiguous
    array: its memory for a Fortran-ordered array, else C order."""
    if arr.flags.f_contiguous and not arr.flags.c_contiguous:
        return arr.T
    return np.ascontiguousarray(arr)


def write_artifact(path, data):
    """Writes ``data`` (str as UTF-8, bytes, a list of bytes-like parts
    written in order, or a numeric numpy array in ``np.save`` format) to a
    temporary file next to ``path`` and renames it into place, creating
    the directory, so ``path`` is whole or absent. Returns the sha256 of
    the bytes written, hashed from memory as they are written; only an
    array's ``np.save`` header is read back."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    h = hashlib.sha256()
    try:
        # np.save writes an array's values straight into a "wb" file; into
        # a file object of any other type it would write copies of them
        with open(tmp, "wb") as fh:
            if isinstance(data, np.ndarray):
                np.save(fh, data)
                fh.flush()
                with open(tmp, "rb") as head:
                    h.update(head.read(fh.tell() - data.nbytes))
                h.update(_npy_values(data))
            else:
                if not isinstance(data, list):
                    data = [data.encode("utf-8") if isinstance(data, str) else data]
                for part in data:
                    h.update(part)
                    fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return h.hexdigest()
