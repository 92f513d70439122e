"""Binary checkpoint serialization.

Layout, all integers little-endian unsigned 32-bit:

    8 bytes   magic "EFPCKPT1"
    u32       header length in bytes
    bytes     UTF-8 JSON header: {"format_version": 1,
              "model_config": {...}, "vocab": {"words": [...]}}
    repeated  per tensor, in params.tensor_order: u32 byte length,
              then the tensor as little-endian float32, C order
    u32       CRC32 (zlib) of every preceding byte

Parameters are stored as float32; models kept in float32 round-trip
bit-exactly. The trailing checksum makes truncation and corruption
indistinguishable from each other and loudly detectable.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .._util import write_atomic
from ..errors import CheckpointError, ChecksumMismatch, FormatVersionMismatch
from .bundle import Model
from .config import ModelConfig
from .params import ModelParams, tensor_order, tensor_shapes, validate_params
from .vocab import vocab_from_word_list

MAGIC = b"EFPCKPT1"
FORMAT_VERSION = 1
_U32 = struct.Struct("<I")


def save_checkpoint(model: Model, path) -> None:
    """Write the model's config, vocabulary, and parameters to path.

    The file is replaced in one rename, so a failed save leaves the
    previous checkpoint intact."""
    validate_params(model.params, model.config)
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(model.config),
        "vocab": {"words": model.vocab.words},
    }
    blob = bytearray()
    blob += MAGIC
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    blob += _U32.pack(len(header_bytes))
    blob += header_bytes
    for name in tensor_order(model.config):
        data = np.ascontiguousarray(model.params[name], dtype="<f4").tobytes()
        blob += _U32.pack(len(data))
        blob += data
    blob += _U32.pack(zlib.crc32(bytes(blob)))
    write_atomic(path, blob)


def load_checkpoint(path) -> Model:
    """Read a checkpoint back; parameters come out float32."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + _U32.size or not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    if zlib.crc32(blob[: -_U32.size]) != _U32.unpack(blob[-_U32.size :])[0]:
        raise ChecksumMismatch(f"{path}: checksum mismatch (file truncated or corrupt)")

    pos = len(MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob) - _U32.size:
            raise ChecksumMismatch(f"{path}: unexpected end of data")
        piece = blob[pos : pos + n]
        pos += n
        return piece

    (header_len,) = _U32.unpack(take(_U32.size))
    try:
        header = json.loads(take(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"{path}: format version {version!r} is not supported; "
            f"this build reads version {FORMAT_VERSION}"
        )
    try:
        config = ModelConfig(**header["model_config"])
        words = header["vocab"]["words"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from exc
    vocab = vocab_from_word_list(words)

    shapes = tensor_shapes(config)
    tensors: dict[str, np.ndarray] = {}
    for name in tensor_order(config):
        (byte_len,) = _U32.unpack(take(_U32.size))
        raw = take(byte_len)
        try:
            arr = np.frombuffer(raw, dtype="<f4")
        except ValueError as exc:
            raise CheckpointError(f"{path}: tensor {name} has a bad byte length") from exc
        expected = shapes[name]
        if arr.size != int(np.prod(expected)):
            raise CheckpointError(
                f"{path}: tensor {name} holds {arr.size} values, "
                f"expected {int(np.prod(expected))}"
            )
        tensors[name] = arr.reshape(expected).astype(np.float32)
    if pos != len(blob) - _U32.size:
        raise CheckpointError(f"{path}: trailing bytes after tensor data")

    params = ModelParams(tensors)
    validate_params(params, config)
    return Model(config=config, vocab=vocab, params=params)
