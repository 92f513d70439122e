"""Small shared helpers."""

import hashlib
import json
import math
import os
from pathlib import Path

from .errors import EfpcError, RecordError


def round_half_up(x: float) -> int:
    """Round to the nearest integer, with .5 always rounding up."""
    return int(math.floor(x + 0.5))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def digest_obj(obj) -> str:
    """Stable hex digest of a JSON-serializable object."""
    payload = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON value kinds a record field can be declared as
_KINDS = {
    "string": lambda v: isinstance(v, str),
    "integer": _is_int,
    "finite number": lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
    "list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "list of integers": lambda v: isinstance(v, list) and all(_is_int(x) for x in v),
}


def read_jsonl(path, build, required=(), types=None) -> list:
    """``build(record)`` for each JSON object line of a UTF-8 JSONL file.

    Blank lines are skipped. A line that is not UTF-8 JSON, is not an
    object, lacks a field named in ``required``, has a field whose value
    is not of the kind ``types`` names for it (a key of ``_KINDS``), or
    makes ``build`` raise a ``TypeError``, ``ValueError`` or package
    error, raises :class:`RecordError` with the message
    ``path:line: reason``.
    """
    types = types or {}
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
                if not isinstance(rec, dict):
                    raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
                missing = [key for key in required if key not in rec]
                if missing:
                    raise ValueError(f"missing field {missing[0]!r}")
                for key, kind in types.items():
                    if key in rec and not _KINDS[kind](rec[key]):
                        raise ValueError(
                            f"field {key!r} must be a {kind}, got {json.dumps(rec[key])[:40]}"
                        )
                records.append(build(rec))
            except (EfpcError, TypeError, ValueError) as exc:
                raise RecordError(f"{path}:{lineno}: {exc}") from exc
    return records


def write_jsonl(path, records) -> None:
    """One compact JSON object per line, UTF-8 with LF line endings."""
    text = "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in records)
    write_atomic(path, text.encode("utf-8"))


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` all at once.

    The bytes go to a temporary file next to ``path`` that is then renamed
    over it, so a write that fails part way leaves the previous file whole.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
