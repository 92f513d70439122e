"""Binary checkpoint serialization.

Layout, all integers little-endian unsigned 32-bit:

    8 bytes   magic "EFPCKPT1"
    u32       header length in bytes
    bytes     UTF-8 JSON header: {"format_version": 1,
              "model_config": {...}, "vocab": {"words": [...]}}
    repeated  per tensor, in params.tensor_shapes order: u32 byte length,
              then the tensor as little-endian float32, C order
    u32       CRC32 (zlib) of every preceding byte

Parameters are stored as float32; models kept in float32 round-trip
bit-exactly. The trailing checksum makes truncation and corruption
indistinguishable from each other and loudly detectable.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .._util import write_atomic
from ..errors import CheckpointError, ChecksumMismatch, FormatVersionMismatch, ShapeMismatch
from .bundle import Model
from .config import ModelConfig
from .params import ModelParams, tensor_count, tensor_shapes, validate_params
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
    for name in tensor_shapes(model.config):
        data = np.ascontiguousarray(model.params[name], dtype="<f4").tobytes()
        blob += _U32.pack(len(data))
        blob += data
    blob += _U32.pack(zlib.crc32(blob))
    write_atomic(path, blob)


def load_checkpoint(path) -> Model:
    """Read a checkpoint back; parameters come out float32.

    Anything that is not a checkpoint this build wrote, whatever its bytes,
    raises CheckpointError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + _U32.size or not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    # the checksum and the pieces read views of the file's bytes: the tensors
    # are copied once, into the model's flat table
    view = memoryview(blob)
    if zlib.crc32(view[: -_U32.size]) != _U32.unpack(blob[-_U32.size :])[0]:
        raise ChecksumMismatch(f"{path}: checksum mismatch (file truncated or corrupt)")

    pos = len(MAGIC)

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(blob) - _U32.size:
            raise ChecksumMismatch(f"{path}: unexpected end of data")
        piece = view[pos : pos + n]
        pos += n
        return piece

    (header_len,) = _U32.unpack(take(_U32.size))
    try:
        header = json.loads(str(take(header_len), "utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too long a number
        raise CheckpointError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: malformed header (not a JSON object)")
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
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise CheckpointError(f"{path}: malformed header (vocab words must be a list of strings)")
    try:
        vocab = vocab_from_word_list(words)
    except ValueError as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from exc
    if vocab.size != config.vocab_size:
        raise CheckpointError(
            f"{path}: malformed header (a vocabulary of {vocab.size} ids "
            f"for vocab_size {config.vocab_size})"
        )

    # every tensor record holds at least its u32 length, so a header that
    # asks for more records than the bytes left can hold is refused before
    # any of them is named
    records, left = tensor_count(config), len(blob) - _U32.size - pos
    if records * _U32.size > left:
        raise CheckpointError(
            f"{path}: malformed header (num_layers {config.num_layers} needs "
            f"{records} tensor records, more than {left} bytes can hold)"
        )
    tensors: dict[str, np.ndarray] = {}
    for name, expected in tensor_shapes(config).items():
        (byte_len,) = _U32.unpack(take(_U32.size))
        raw = take(byte_len)
        try:
            arr = np.frombuffer(raw, dtype="<f4")
        except ValueError as exc:
            raise CheckpointError(f"{path}: tensor {name} has a bad byte length") from exc
        if arr.size != math.prod(expected):
            raise CheckpointError(
                f"{path}: tensor {name} holds {arr.size} values, "
                f"expected {math.prod(expected)}"
            )
        tensors[name] = arr.reshape(expected)
    if pos != len(blob) - _U32.size:
        raise CheckpointError(f"{path}: trailing bytes after tensor data")

    params = ModelParams(tensors)
    try:
        validate_params(params, config)
    except ShapeMismatch as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return Model(config=config, vocab=vocab, params=params)
