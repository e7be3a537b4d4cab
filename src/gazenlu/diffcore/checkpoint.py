"""Checkpoint files: ``GAZENLU-CKPT v1``.

Layout, all text lines UTF-8 and newline-terminated:

    GAZENLU-CKPT v1
    tensors <count>
    <name> <dim0,dim1,...> <byte-offset>      (one line per tensor)
    end
    <raw payload>

The payload is the tensors' little-endian float32 bytes concatenated in
declaration order; each offset is relative to the payload start. A 0-d
tensor writes ``-`` for its shape. Round-trips are bit-exact.
"""

from __future__ import annotations

import contextlib
import hashlib
import os

import numpy as np

HEADER = "GAZENLU-CKPT v1"


def _format_shape(shape: tuple) -> str:
    return ",".join(str(s) for s in shape) if shape else "-"


def _parse_shape(text: str) -> tuple:
    if text == "-":
        return ()
    return tuple(int(s) for s in text.split(","))


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside ``path``; a clean exit moves it onto
    ``path`` with ``os.replace``, an error removes it and leaves ``path``
    as it was. A text file is UTF-8 and holds its line endings as written."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    text = "b" not in mode
    try:
        with open(tmp, mode, encoding="utf-8" if text else None,
                  newline="" if text else None) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named arrays; values are stored as little-endian float32."""
    metas = []
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        if any(c.isspace() for c in name) or not name:
            raise ValueError(f"tensor name {name!r} must be non-empty without whitespace")
        a = np.asarray(arr, dtype="<f4")
        metas.append(f"{name} {_format_shape(a.shape)} {offset}")
        blobs.append(a.tobytes())
        offset += a.nbytes
    text = "\n".join([HEADER, f"tensors {len(metas)}", *metas, "end"]) + "\n"
    with atomic_write(path, "wb") as f:
        f.write(text.encode("utf-8"))
        for b in blobs:
            f.write(b)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into {name: float32 array}, file order."""
    with open(path, "rb") as f:
        raw = f.read()
    head, sep, _ = raw.partition(b"\nend\n")
    if not sep:
        raise ValueError(f"{path}: missing 'end' marker")
    payload = raw[len(head) + len(sep):]
    lines = head.decode("utf-8").split("\n")
    if not lines or lines[0] != HEADER:
        raise ValueError(f"{path}: not a {HEADER} file")
    if len(lines) < 2 or not lines[1].startswith("tensors "):
        raise ValueError(f"{path}: missing tensor count")
    count = int(lines[1].split(" ", 1)[1])
    metas = lines[2:]
    if len(metas) != count:
        raise ValueError(f"{path}: declared {count} tensors, found {len(metas)} metadata lines")
    out: dict[str, np.ndarray] = {}
    for line in metas:
        parts = line.rsplit(" ", 2)
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed metadata line {line!r}")
        name, shape_s, off_s = parts
        shape = _parse_shape(shape_s)
        offset = int(off_s)
        n = int(np.prod(shape)) if shape else 1
        end = offset + 4 * n
        if end > len(payload):
            raise ValueError(f"{path}: payload truncated for tensor {name!r}")
        arr = np.frombuffer(payload[offset:end], dtype="<f4").reshape(shape)
        out[name] = arr.astype(np.float32, copy=True)
    return out


def checkpoint_hash(path) -> str:
    """sha256 of the whole file; the format holds no timestamps."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
