import errno
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from efpc import _util
from efpc._util import read_jsonl, write_jsonl
from efpc.cli import _write_json
from efpc.errors import RecordError
from efpc.model import save_checkpoint

from helpers import small_model, toy_rule_examples


# --------------------------------------------------------------- read_jsonl


def test_read_jsonl_reports_bad_utf8(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
    with pytest.raises(RecordError) as err:
        read_jsonl(path, dict)
    assert str(err.value).startswith(f"{path}:2: ")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(
    good=st.lists(st.fixed_dictionaries({"text": _JSON}), max_size=3),
    bad=st.dictionaries(st.text(max_size=6), _JSON, max_size=4).filter(
        lambda rec: "text" not in rec
    ),
)
def test_read_jsonl_missing_key_raises_only_record_error(tmp_path_factory, good, bad):
    path = tmp_path_factory.mktemp("prop") / "data.jsonl"
    lines = [json.dumps(rec) for rec in good] + [json.dumps(bad)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(RecordError) as err:
        read_jsonl(path, lambda rec: rec["text"], required=("text",))
    assert str(err.value) == f"{path}:{len(lines)}: missing field 'text'"


# ------------------------------------------------------------ atomic writes


class _DiskFull:
    """File stand-in that stores half of what it is given, then fails."""

    def __init__(self, path, mode):
        self._fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _checkpoint_writer():
    data = toy_rule_examples(4, 1)
    models = [small_model(data, embed_dim=8, num_layers=1, num_heads=2, ffn_dim=8, seed=s)
              for s in (0, 1)]
    return lambda path, version: save_checkpoint(models[version], path)


WRITERS = {
    "checkpoint": _checkpoint_writer,
    "json": lambda: lambda path, version: _write_json(path, {"version": version}),
    "jsonl": lambda: lambda path, version: write_jsonl(path, [{"version": version}] * 3),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    write = WRITERS[writer]()
    path = tmp_path / "artifact"
    write(path, 0)
    before = path.read_bytes()
    monkeypatch.setattr(_util, "open", _DiskFull, raising=False)
    with pytest.raises(OSError):
        write(path, 1)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_replaces_previous_file(tmp_path, writer):
    write = WRITERS[writer]()
    path = tmp_path / "artifact"
    write(path, 0)
    before = path.read_bytes()
    write(path, 1)
    assert path.read_bytes() != before
    assert os.listdir(tmp_path) == ["artifact"]
