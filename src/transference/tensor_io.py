"""Named-tensor container files.

Layout: the magic string ``TFRX1``, then one record per tensor in
insertion order: name length (u64 LE), UTF-8 name bytes, rank (u64 LE),
the dims (u64 LE each), and the payload as little-endian IEEE-754 32-bit
floats in row-major order.  Writes are atomic (``corpus.replacing``); a
file that cannot be read or written raises CheckpointError naming it.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .corpus import replacing
from .errors import CheckpointError

MAGIC = b"TFRX1"


def save_tensors(path: str, tensors: dict[str, np.ndarray]) -> None:
    with replacing(path, "wb", CheckpointError) as fh:
        fh.write(MAGIC)
        for name, arr in tensors.items():
            name_bytes = name.encode("utf-8")
            arr = np.ascontiguousarray(arr, dtype="<f4")
            fh.write(struct.pack("<Q", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<Q", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes(order="C"))


def load_tensors(path: str) -> dict[str, np.ndarray]:
    """Every tensor of a TFRX1 file.  Each length in the file is checked
    against the bytes left before it is read, so a truncated or forged
    file raises CheckpointError and allocates nothing past its own size."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        left = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            nonlocal left
            if n > left:
                raise CheckpointError(f"{path}: truncated {what} "
                                      f"({n} bytes wanted, {left} left)")
            left -= n
            return fh.read(n)

        magic = read(len(MAGIC), "magic")
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        tensors: dict[str, np.ndarray] = {}
        while left:
            (name_len,) = struct.unpack("<Q", read(8, "record header"))
            try:
                name = read(name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: tensor name is not UTF-8: {exc}") from None
            (rank,) = struct.unpack("<Q", read(8, f"rank of '{name}'"))
            shape = struct.unpack(f"<{rank}Q", read(8 * rank, f"shape of '{name}'"))
            count = 1
            for dim in shape:
                count *= dim
            payload = read(4 * count, f"payload for '{name}'")
            try:
                arr = np.frombuffer(payload, dtype="<f4").reshape(shape)
            except ValueError as exc:  # a zero dim beside one numpy cannot hold
                raise CheckpointError(f"{path}: shape {shape} of '{name}': {exc}") from None
            tensors[name] = arr.astype(np.float32)
    return tensors
