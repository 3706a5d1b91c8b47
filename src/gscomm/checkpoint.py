"""Parameter checkpoint I/O.

Layout: one ASCII manifest line (`name:d0,d1 name:d0,...\n`) followed by the
tensors' values as little-endian float32, concatenated in manifest order.
"""

from __future__ import annotations

import numpy as np

from .errors import DatasetFormatError


def save_params(path, params):
    """params: dict name -> Parameter."""
    names = list(params)
    manifest = " ".join(
        f"{name}:{','.join(str(d) for d in params[name].data.shape)}" for name in names
    )
    with open(path, "wb") as fh:
        fh.write(manifest.encode("ascii") + b"\n")
        for name in names:
            fh.write(params[name].data.astype("<f4").tobytes())


def load_params(path, params):
    """Load values into an existing dict name -> Parameter. The checkpoint must hold
    exactly the dict's tensors, with the same shapes, and nothing after them; a
    malformed or mismatched file raises DatasetFormatError and changes no value."""
    with open(path, "rb") as fh:
        manifest = fh.readline()
        blob = fh.read()
    if not manifest.isascii():
        raise DatasetFormatError("checkpoint manifest is not ASCII")
    values, offset = {}, 0
    for item in manifest.decode("ascii").split():
        name, _, dims = item.partition(":")
        extents = dims.split(",") if dims else []
        if not all(d.isdigit() for d in extents):
            raise DatasetFormatError(f"bad shape {dims!r} for tensor {name!r} in checkpoint")
        shape = tuple(int(d) for d in extents)
        count = int(np.prod(shape)) if shape else 1
        chunk = blob[offset * 4 : (offset + count) * 4]
        if len(chunk) != count * 4:
            raise DatasetFormatError(f"checkpoint truncated at tensor {name!r}", offset * 4)
        if name not in params:
            raise DatasetFormatError(f"unknown tensor {name!r} in checkpoint")
        if params[name].data.shape != shape:
            raise DatasetFormatError(f"shape mismatch for tensor {name!r}")
        values[name] = np.frombuffer(chunk, dtype="<f4").astype(np.float64).reshape(shape)
        offset += count
    missing = [name for name in params if name not in values]
    if missing:
        raise DatasetFormatError(f"checkpoint lacks tensor {missing[0]!r}")
    if len(blob) != offset * 4:
        raise DatasetFormatError("trailing bytes after the last tensor", offset * 4)
    for name, value in values.items():
        params[name].data = value
