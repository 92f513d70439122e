import hashlib
import json
import math
import struct
import zlib
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from efpc.align import LabeledExample
from efpc.errors import CheckpointError, ChecksumMismatch, FormatVersionMismatch
from efpc.model import (
    MAGIC,
    Model,
    ModelConfig,
    ModelParams,
    load_checkpoint,
    save_checkpoint,
    train,
    vocab_from_words,
)
from efpc.model.params import tensor_count, tensor_shapes
from efpc.text_core import normalize_word

from helpers import fast_train_config, small_model, toy_rule_examples


@pytest.fixture(scope="module")
def trained_model():
    data = toy_rule_examples(20, 3)
    model = small_model(data, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32)
    trained, _ = train(model, data, fast_train_config(epochs=1, loss_variant="agnostic"))
    return trained


def test_round_trip_is_bit_exact(trained_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == trained_model.config
    assert loaded.vocab == trained_model.vocab
    for name, tensor in trained_model.params.tensors.items():
        assert loaded.params[name].dtype == np.float32, name
        assert np.array_equal(loaded.params[name], tensor), name


def test_save_is_deterministic(trained_model, tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(trained_model, a)
    save_checkpoint(trained_model, b)
    assert a.read_bytes() == b.read_bytes()


def _arange_model() -> Model:
    """A tiny model whose tensors are filled from ``np.arange``, no RNG."""
    vocab = vocab_from_words(("ant", "bee", "cow"))
    config = ModelConfig(vocab_size=vocab.size, embed_dim=4, num_layers=2, num_heads=2,
                         ffn_dim=8, max_seq_len=8, seed=0)
    tensors = {name: np.arange(math.prod(shape), dtype=np.float32).reshape(shape) / 8 - i
               for i, (name, shape) in enumerate(tensor_shapes(config).items())}
    return Model(config=config, vocab=vocab, params=ModelParams(tensors))


# the sha256 of _arange_model's checkpoint as the format was first pinned:
# a change to these bytes is a change to the file format
ARANGE_CHECKPOINT_SHA256 = "345ef10bca0096027c451e050638953207ce59d62f5ebf0943acb352280db65d"


def test_checkpoint_bytes_are_pinned_across_releases(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_arange_model(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ARANGE_CHECKPOINT_SHA256


def test_a_loaded_checkpoint_saves_to_the_same_bytes(trained_model, tmp_path):
    for i, model in enumerate((trained_model, _arange_model())):
        first, second = tmp_path / f"first{i}.ckpt", tmp_path / f"second{i}.ckpt"
        save_checkpoint(model, first)
        save_checkpoint(load_checkpoint(first), second)
        assert second.read_bytes() == first.read_bytes()


def test_file_starts_with_magic(trained_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_model, path)
    assert path.read_bytes()[:8] == MAGIC


def test_truncated_file_fails_checksum(trained_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_model, path)
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ChecksumMismatch):
        load_checkpoint(clipped)


def test_single_flipped_byte_fails_checksum(trained_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        load_checkpoint(path)


def test_wrong_magic_is_not_a_checkpoint(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_bytes(b"")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _with_header(header: dict) -> bytes:
    """A structurally valid file (correct CRC) holding the given header."""
    body = json.dumps(header).encode()
    blob = MAGIC + struct.pack("<I", len(body)) + body
    return blob + struct.pack("<I", zlib.crc32(blob))


def test_future_format_version_is_refused(tmp_path):
    path = tmp_path / "future.ckpt"
    path.write_bytes(_with_header({"format_version": 2}))
    with pytest.raises(FormatVersionMismatch) as err:
        load_checkpoint(path)
    assert "version 2" in str(err.value)
    assert "version 1" in str(err.value)


def test_missing_version_is_refused(tmp_path):
    path = tmp_path / "versionless.ckpt"
    path.write_bytes(_with_header({"model_config": {}}))
    with pytest.raises(FormatVersionMismatch):
        load_checkpoint(path)


def test_garbage_header_is_reported(tmp_path):
    blob = MAGIC + struct.pack("<I", 4) + b"!!!!"
    blob += struct.pack("<I", zlib.crc32(blob))
    path = tmp_path / "garbled.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_trailing_bytes_are_rejected(trained_model, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_model, path)
    blob = path.read_bytes()[:-4]  # strip CRC
    blob += b"\x00\x00\x00\x00"  # four stray bytes
    blob += struct.pack("<I", zlib.crc32(blob))
    path.write_bytes(blob)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_storage_order_is_fixed():
    assert list(tensor_shapes(ModelConfig(vocab_size=3, num_layers=1))) == [
        "token_emb", "pos_emb",
        "layer0.ln1_gamma", "layer0.ln1_beta", "layer0.wq", "layer0.wk", "layer0.wv",
        "layer0.wo", "layer0.ln2_gamma", "layer0.ln2_beta", "layer0.w1", "layer0.w2",
        "cls_w", "cls_b",
    ]


@pytest.mark.parametrize("num_layers", [0, 1, 3])
def test_tensor_count_is_the_length_of_the_storage_order(num_layers):
    config = ModelConfig(vocab_size=3, num_layers=num_layers)
    assert tensor_count(config) == len(tensor_shapes(config)) == 4 + 10 * num_layers


def test_layer_count_beyond_the_file_size_is_refused(tmp_path):
    path = tmp_path / "deep.ckpt"
    path.write_bytes(_with_header({"format_version": 1,
                                   "model_config": {"vocab_size": 3, "num_layers": 100000},
                                   "vocab": {"words": []}}))
    with pytest.raises(CheckpointError,
                       match=r"num_layers 100000 needs 1000004 tensor records, more than 0 bytes"):
        load_checkpoint(path)


def test_header_that_is_not_an_object_is_refused(tmp_path):
    path = tmp_path / "list.ckpt"
    path.write_bytes(_with_header([]))
    with pytest.raises(CheckpointError, match="not a JSON object"):
        load_checkpoint(path)


@pytest.mark.parametrize("words", [5, "abc", None, ["a", 5], [["a"]], {"a": 1}])
def test_vocab_words_that_are_not_a_list_of_strings_are_refused(trained_model, tmp_path,
                                                               words):
    path = tmp_path / "words.ckpt"
    path.write_bytes(_with_header({"format_version": 1,
                                   "model_config": asdict(trained_model.config),
                                   "vocab": {"words": words}}))
    with pytest.raises(CheckpointError, match="list of strings"):
        load_checkpoint(path)


@pytest.mark.parametrize("word", ["", "Foo", "foo,", "(foo"])
def test_vocab_word_that_is_not_its_own_normal_form_is_refused(trained_model, tmp_path, word):
    # encode_words probes the table with raw words, so a key "Foo" would be
    # reached by the raw word "Foo", which encode_word maps elsewhere
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_model, path)
    header, tensors = _split(path.read_bytes())
    header["vocab"]["words"][2] = word
    body = json.dumps(header).encode()
    path.write_bytes(_seal(MAGIC + struct.pack("<I", len(body)) + body + tensors))
    with pytest.raises(CheckpointError, match=r"vocab word 2 \("):
        load_checkpoint(path)


def test_vocab_word_that_repeats_an_earlier_word_is_refused(tmp_path):
    # ["a", "a"] would give one key, so vocab_size 4 would still fit, and the
    # id of "a" would be 4: one past the embedding table's last row
    model = small_model([LabeledExample(words=("a",), labels=(1,), boundary_m=0)],
                        embed_dim=4, num_layers=0, num_heads=1, ffn_dim=4)
    assert model.config.vocab_size == 4
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    header, tensors = _split(path.read_bytes())
    header["vocab"]["words"] = ["a", "a"]
    body = json.dumps(header).encode()
    path.write_bytes(_seal(MAGIC + struct.pack("<I", len(body)) + body + tensors))
    with pytest.raises(CheckpointError,
                       match=r"malformed header \(vocab word 1 \('a'\) repeats vocab word 0\)"):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [
    "[" * 100_000 + "]" * 100_000,  # nested past the parser's recursion limit
    '{"format_version": ' + "1" * 5000 + "}",  # past Python's integer digit limit
], ids=["deep", "long-number"])
def test_header_json_the_parser_refuses_is_a_checkpoint_error(tmp_path, header):
    body = header.encode()
    blob = MAGIC + struct.pack("<I", len(body)) + body
    path = tmp_path / "deep.ckpt"
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _split(blob: bytes) -> tuple[dict, bytes]:
    """Header object and the tensor section of a saved checkpoint."""
    (n,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12 : 12 + n]), blob[12 + n : -4]


def _seal(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@st.composite
def _mutations(draw, size):
    kind = draw(st.sampled_from(["flip", "truncate", "extend"]))
    if kind == "flip":
        return kind, draw(st.integers(0, size - 1)), draw(st.integers(1, 255))
    if kind == "truncate":
        return kind, draw(st.integers(0, size - 1)), None
    return kind, None, draw(st.binary(min_size=1, max_size=64))


def _mutate(blob: bytes, mutation) -> bytes:
    kind, at, arg = mutation
    if kind == "flip":
        out = bytearray(blob)
        out[at] ^= arg
        return bytes(out)
    if kind == "truncate":
        return blob[:at]
    return blob + arg


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), reseal=st.booleans())
def test_any_mutated_checkpoint_raises_only_checkpoint_errors(trained_model, tmp_path, data,
                                                              reseal):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_model, path)
    blob = path.read_bytes()
    if not reseal:
        # the stored checksum no longer matches, so every load must fail
        path.write_bytes(_mutate(blob, data.draw(_mutations(len(blob)))))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        return
    # mutate the body and recompute the checksum: the parser itself must
    # refuse what it cannot read; a flipped tensor byte may still load
    body = _mutate(blob[:-4], data.draw(_mutations(len(blob) - 4)))
    path.write_bytes(_seal(body))
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 300) | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12,
)
_FIELD_VALUES = st.integers(-3, 40) | st.sampled_from([None, 2.5, "8", True, [4]])


@st.composite
def _crafted_headers(draw, header):
    header = json.loads(json.dumps(header))
    config, words = header["model_config"], header["vocab"]["words"]
    edit = draw(st.sampled_from(["config value", "config key", "words", "word", "repeat",
                                 "vocab", "version", "section", "any"]))
    if edit == "config value":
        config[draw(st.sampled_from(sorted(config)))] = draw(_FIELD_VALUES)
    elif edit == "config key":
        key = draw(st.sampled_from(sorted(config) + ["extra"]))
        if key in config:
            del config[key]
        else:
            config[key] = 1
    elif edit == "words":
        header["vocab"]["words"] = draw(_JSON)
    elif edit == "word":
        words[draw(st.integers(0, len(words) - 1))] = draw(_JSON)
    elif edit == "repeat":
        words.append(draw(st.sampled_from(words)))
    elif edit == "vocab":
        header["vocab"] = draw(_JSON)
    elif edit == "version":
        header["format_version"] = draw(_JSON)
    elif edit == "section":
        del header[draw(st.sampled_from(sorted(header)))]
    else:
        header = draw(_JSON)
    return header


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_crafted_header_raises_only_checkpoint_errors(trained_model, tmp_path, data):
    path = tmp_path / "model.ckpt"
    save_checkpoint(trained_model, path)
    header, tensors = _split(path.read_bytes())
    crafted = json.dumps(data.draw(_crafted_headers(header))).encode()
    path.write_bytes(_seal(MAGIC + struct.pack("<I", len(crafted)) + crafted + tensors))
    try:
        loaded = load_checkpoint(path)
    except CheckpointError:
        return
    # what loads is a model whose vocabulary and tensors fit its config
    assert loaded.vocab.size == loaded.config.vocab_size
    assert sorted(loaded.vocab.word_to_id.values()) == list(range(3, loaded.config.vocab_size))
    assert all(w and normalize_word(w) == w for w in loaded.vocab.words)
    assert loaded.params["token_emb"].shape[0] == loaded.config.vocab_size
