"""Binary checkpoint container: magic "AXG1", JSON header, raw float32 blobs."""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import integer

MAGIC = b"AXG1"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    kind: str  # "codec" or "classifier"
    config: dict
    params: dict  # name -> np.float32 ndarray
    metadata: dict = field(default_factory=dict)
    sha256: str = ""  # of the file bytes parsed; empty when built in memory


def write_checkpoint(ckpt: Checkpoint, path) -> None:
    names = list(ckpt.params.keys())
    table = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(ckpt.params[name], dtype="<f4")
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    header = {
        "version": FORMAT_VERSION,
        "kind": ckpt.kind,
        "config": ckpt.config,
        "tensors": table,
        "metadata": ckpt.metadata,
    }
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(hjson)))
        f.write(hjson)
        for name in names:
            f.write(np.ascontiguousarray(ckpt.params[name], dtype="<f4").tobytes())


def read_checkpoint(path) -> Checkpoint:
    return parse_checkpoint(*read_checkpoint_file(path))


def read_checkpoint_file(path) -> tuple[bytes, str]:
    """A checkpoint file's bytes and their SHA-256, from one read of the file."""
    with open(path, "rb") as f:
        raw = f.read()
    return raw, hashlib.sha256(raw).hexdigest()


def parse_checkpoint(raw: bytes, sha256: str) -> Checkpoint:
    """The checkpoint that a file's bytes ``raw``, of SHA-256 ``sha256``, hold."""
    if raw[:4] != MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise CheckpointError(f"truncated checkpoint: {len(raw)} bytes, no header length")
    (hlen,) = struct.unpack_from("<I", raw, 4)
    base = 8 + hlen
    if base > len(raw):
        raise CheckpointError(f"truncated checkpoint: header of {hlen} bytes, file {len(raw)}")
    try:
        header = json.loads(raw[8:base].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not an object")
    if type(header.get("version")) is not int or header["version"] != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')!r}")
    try:
        table = [(t["name"], tuple(t["shape"]), t["offset"]) for t in header["tensors"]]
        kind, config = header["kind"], header["config"]
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"malformed header: {e!r}") from e
    params = {}
    end = base  # blobs are written back to back, in table order
    for name, shape, offset in table:
        for v in shape + (offset,):  # JSON integers only: int() would truncate 8.9, take true
            integer(0).check(f"tensor {name!r} shape and offset", v, CheckpointError)
        count = math.prod(shape)  # Python integers: np.prod wraps around on forged shapes
        if base + offset != end:
            raise CheckpointError(f"tensor {name!r} does not start where the last one ended")
        if end + 4 * count > len(raw):
            raise CheckpointError(f"truncated checkpoint: tensor {name!r} ends past the file")
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=end)
        if bad := count - np.count_nonzero(np.isfinite(arr)):
            raise CheckpointError(f"tensor {name!r} has {bad} non-finite values of {count}")
        params[name] = arr.reshape(shape).copy()
        end += 4 * count
    if end != len(raw):
        raise CheckpointError(f"checkpoint has {len(raw) - end} bytes after its last tensor")
    return Checkpoint(kind, config, params, header.get("metadata", {}), sha256)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def params_sha256(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f4").tobytes())
    return h.hexdigest()
