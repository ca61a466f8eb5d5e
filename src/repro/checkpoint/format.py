"""On-disk checkpoint container: header, CRC, atomic write-rename.

A checkpoint file (container version 2; layout in ``docs/CHECKPOINT.md``)
is::

    MAGIC (8 bytes) | version (u32 LE) | header length (u64 LE)
    | binary length (u64 LE) | CRC32 of header + binary (u32 LE)
    | header (canonical JSON, space-padded to 8 bytes) | binary section

The header is the snapshot document of :mod:`repro.checkpoint.schema`
as canonical JSON (``sort_keys=True``, compact separators), with every
numpy array replaced by a reference ``{"dtype", "offset", "shape"}``
into the binary section: an explicit little-endian dtype and an
8-byte-aligned offset.  Arrays are laid out in the order canonical JSON
visits them, so encoding is byte-deterministic — the golden-format
tests rely on that.  Version-1 files (one canonical-JSON payload) are
still read, never written; they decode to plain lists, which restore
accepts wherever it accepts arrays.

Writes are crash-safe: the bytes go to a same-directory temporary file,
are fsynced, then moved into place with :func:`os.replace`, so a reader
sees the previous or the new complete checkpoint, never a torn file.
Loads validate magic, version, lengths and CRC before parsing, and
every array reference (known dtype, in bounds, no overlap) before
reading it; every failure raises :class:`~repro.errors.CheckpointError`
— a silently accepted bit-rotted snapshot would fork the replay.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_MAGIC",
    "CONTAINER_VERSION",
    "dumps_payload",
    "encode_checkpoint",
    "write_checkpoint",
    "read_checkpoint",
]

#: File magic; the trailing byte leaves room for a container redesign.
CHECKPOINT_MAGIC = b"RBTCKPT\x01"

#: Container-format version written by this build (independent of the
#: snapshot schema version inside the header; see
#: ``repro.checkpoint.schema.SCHEMA_VERSION``).  Version 1 is read too.
CONTAINER_VERSION = 2

_PREFIX = struct.Struct("<8sI")
#: Version-1 header: magic, version, payload length, CRC.
_HEADER = struct.Struct("<8sIQI")
#: Version-2 header: magic, version, header length, binary length, CRC.
_HEADER_V2 = struct.Struct("<8sIQQI")

_ALIGN = 8
#: The array element types the binary section may hold.
_DTYPES = frozenset({"|b1", "<i8", "<u8", "<f8"})
_ARRAY_KEYS = frozenset({"dtype", "offset", "shape"})


def dumps_payload(document: dict) -> bytes:
    """Canonical JSON bytes for an array-free document (or header)."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def encode_checkpoint(document: dict) -> Tuple[bytes, list]:
    """``document`` as container bytes: prefix + header, then chunks.

    The binary section comes back as a list of buffers (array bytes and
    alignment padding) that the writer streams without joining them;
    ``head + b"".join(chunks)`` is the whole file.
    """
    chunks: list = []
    end = 0

    def walk(node):
        nonlocal end
        if isinstance(node, np.ndarray):
            array = np.ascontiguousarray(
                node, dtype=node.dtype.newbyteorder("<")
            )
            if array.dtype.str not in _DTYPES:
                raise CheckpointError(
                    f"cannot store a {array.dtype} array in a checkpoint"
                )
            ref = {"dtype": array.dtype.str, "offset": end,
                   "shape": list(array.shape)}
            if array.nbytes:
                pad = -array.nbytes % _ALIGN
                chunks.extend((array.reshape(-1).view(np.uint8), b"\0" * pad))
                end += array.nbytes + pad
            return ref
        if isinstance(node, dict):
            if node.keys() == _ARRAY_KEYS:
                raise CheckpointError(
                    "a document dict with exactly the keys dtype, offset "
                    "and shape would read back as an array reference"
                )
            return {key: walk(node[key]) for key in sorted(node)}
        if isinstance(node, (list, tuple)):
            return [walk(item) for item in node]
        return node

    try:
        header = dumps_payload(walk(document))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"document is not checkpointable: {exc}")
    header += b" " * (-len(header) % _ALIGN)
    crc = zlib.crc32(header)
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    prefix = _HEADER_V2.pack(
        CHECKPOINT_MAGIC, CONTAINER_VERSION, len(header), end,
        crc & 0xFFFFFFFF,
    )
    return prefix + header, chunks


def write_checkpoint(document: dict, path: Union[str, Path]) -> int:
    """Atomically write ``document`` to ``path``; returns bytes written.

    The temporary file lives in the target directory (same filesystem,
    so the final :func:`os.replace` is atomic) and is suffixed with the
    writer's PID so concurrent writers of *different* checkpoints never
    collide.
    """
    path = Path(path)
    head, chunks = encode_checkpoint(document)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(head)
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    finally:
        if tmp_path.exists():  # a failed write leaves no debris behind
            tmp_path.unlink()
    return len(head) + sum(len(chunk) for chunk in chunks)


def read_checkpoint(path: Union[str, Path]) -> dict:
    """Load and validate a checkpoint file (container version 1 or 2).

    Raises:
        CheckpointError: missing file, bad magic, unsupported container
            version, truncation, trailing garbage, CRC mismatch,
            unparseable header, or a bad array reference.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file {path} does not exist")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")

    magic, version = _PREFIX.unpack_from(
        raw[:_PREFIX.size].ljust(_PREFIX.size, b"\0")
    )
    layout = _HEADER if version == 1 else _HEADER_V2
    if len(raw) < layout.size:
        raise CheckpointError(
            f"checkpoint {path} is truncated: {len(raw)} bytes is smaller "
            f"than the {layout.size}-byte header"
        )
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"checkpoint {path} has bad magic {magic!r} (not a repro-bt "
            f"checkpoint?)"
        )
    if version not in (1, CONTAINER_VERSION):
        raise CheckpointError(
            f"checkpoint {path} uses container version {version}; this "
            f"build reads versions 1 and {CONTAINER_VERSION}"
        )
    # v1: (payload length, CRC); v2: (header length, binary length, CRC)
    fields = layout.unpack_from(raw)[2:]
    header_len, crc = fields[0], fields[-1]
    binary_len = fields[1] if version > 1 else 0
    body = memoryview(raw)[layout.size:]
    if len(body) != header_len + binary_len:
        raise CheckpointError(
            f"checkpoint {path} is corrupt: header promises "
            f"{header_len + binary_len} payload bytes, file carries "
            f"{len(body)}"
        )
    actual_crc = zlib.crc32(body) & 0xFFFFFFFF
    if actual_crc != crc:
        raise CheckpointError(
            f"checkpoint {path} failed its CRC check "
            f"(stored {crc:#010x}, computed {actual_crc:#010x})"
        )
    try:
        document = json.loads(bytes(body[:header_len]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path} payload is not valid JSON despite a "
            f"passing CRC: {exc}"
        )
    if not isinstance(document, dict):
        raise CheckpointError(
            f"checkpoint {path} payload must be a JSON object, "
            f"got {type(document).__name__}"
        )
    return _join_arrays(document, body[header_len:], path)


def _join_arrays(header: dict, binary: memoryview, path: Path) -> dict:
    """Replace every array reference in ``header`` by its (owned) array."""
    spans: List[Tuple[int, int]] = []

    def array(ref: dict) -> np.ndarray:
        dtype, offset, shape = ref["dtype"], ref["offset"], ref["shape"]
        if dtype not in _DTYPES:
            raise CheckpointError(
                f"checkpoint {path} holds an array of unknown dtype {dtype!r}"
            )
        if not isinstance(shape, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0
            for n in [offset, *shape]
        ):
            raise CheckpointError(
                f"checkpoint {path} holds a malformed array reference {ref}"
            )
        count = int(np.prod(shape, dtype=object))
        end = offset + count * np.dtype(dtype).itemsize
        if end > len(binary):
            raise CheckpointError(
                f"checkpoint {path} array [{offset}, {end}) runs past the "
                f"{len(binary)}-byte binary section"
            )
        native = np.dtype(dtype).newbyteorder("=")
        if end == offset:
            return np.zeros(shape, dtype=native)
        spans.append((offset, end))
        values = np.frombuffer(binary, dtype=dtype, count=count, offset=offset)
        return values.astype(native).reshape(shape)

    def walk(node):
        if isinstance(node, dict):
            if node.keys() == _ARRAY_KEYS:
                return array(node)
            return {key: walk(value) for key, value in node.items()}
        if isinstance(node, list):
            return [walk(item) for item in node]
        return node

    document = walk(header)
    spans.sort()
    for (_, end), (start, _) in zip(spans, spans[1:]):
        if start < end:
            raise CheckpointError(
                f"checkpoint {path} has overlapping arrays at byte {start}"
            )
    return document
