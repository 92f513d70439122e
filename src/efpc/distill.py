"""Drive chunk-level compression through an LLM provider.

Two providers ship with the package: an HTTP chat-completion client for
OpenAI-compatible endpoints, and a deterministic rule-based mock
(:class:`MockProvider`) so the whole pipeline runs offline.

The directive wording in :data:`COMPRESSION_DIRECTIVE` is this project's
own choice and can be adjusted; the mock provider parses the same
template, so keep the ``Task:`` / ``Text:`` markers intact if you change
it.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import ClassVar, Protocol, Sequence
from urllib.parse import urlsplit

from ._util import read_jsonl, write_jsonl
from .errors import (
    DistillationFailed,
    EmptyCompression,
    EmptyDataset,
    TransportError,
)
from .text_core import chunk_document, normalize_word, sentence_ranges, split_words

logger = logging.getLogger(__name__)

API_KEY_ENV = "EFPC_API_KEY"
REQUEST_TIMEOUT = 60.0  # seconds per attempt
MAX_HISTOGRAM_BINS = 10_000  # `stats` prints one line per bin
FAILURE_THRESHOLD = 0.1  # a run fails when more than this share of its chunks fail

COMPRESSION_DIRECTIVE = (
    "Compress the text below into as few words as possible while keeping "
    "every word needed to complete the task. Use only words that appear in "
    "the text, keep them in their original order, and reply with the "
    "compressed text only."
)

DEFAULT_STOPWORDS = frozenset(
    """
    a an and are as at be but by for from had has have he her his i if in
    into is it its of on or she so that the their them then there these
    they this to was we were will with you
    """.split()
)


class LlmProvider(Protocol):
    """Minimal chat-completion contract used by the distillation driver."""

    provider_id: str

    def complete(self, messages: list[dict[str, str]]) -> str: ...


@dataclass(frozen=True)
class DistilledPair:
    """One (chunk, compressed) pair with its word-count compression ratio."""

    chunk_text: str
    compressed_text: str
    instruction: str
    ratio: float
    doc_id: int = 0
    chunk_idx: int = 0

    def __post_init__(self):
        if not self.compressed_text.strip():
            raise EmptyCompression("pair constructed with empty compression")


@dataclass(frozen=True)
class ChunkFailure:
    doc_id: int
    chunk_idx: int
    error: str


@dataclass
class DistilledDataset:
    pairs: list[DistilledPair]
    failures: list[ChunkFailure]


@dataclass(frozen=True)
class RatioHistogram:
    """Fixed-width histogram of compression ratios, binned from 1.0."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    mean: float
    n: int


def build_compression_request(instruction: str, chunk: str) -> list[dict[str, str]]:
    """Single user message holding the directive, optional task, and text."""
    parts = [COMPRESSION_DIRECTIVE]
    if instruction:
        parts.append("Task:\n" + instruction)
    parts.append("Text:\n" + chunk)
    return [{"role": "user", "content": "\n\n".join(parts)}]


def _parse_request(content: str) -> tuple[str, str]:
    """Recover (instruction, text) from a message built by this module."""
    head, _, text = content.partition("\nText:\n")
    return head.partition("\nTask:\n")[2].rstrip("\n"), text


class MockProvider:
    """Deterministic offline provider.

    Task-free requests keep every non-stopword. Requests with a task keep
    only sentences sharing at least one content word with the task (falling
    back to all sentences when none match), then drop stopwords from those.
    Pure: identical messages always yield identical text, and output words
    are always an in-order subset of the input words.
    """

    provider_id: ClassVar[str] = "mock"

    def complete(self, messages: list[dict[str, str]]) -> str:
        instruction, text = _parse_request(messages[-1]["content"])
        words = split_words(text)
        ranges = sentence_ranges(words)
        if instruction.strip():
            terms = {normalize_word(w) for w in instruction.split()}
            terms -= DEFAULT_STOPWORDS
            terms.discard("")
            relevant = [
                (s, e)
                for s, e in ranges
                if any(normalize_word(w) in terms for w in words[s:e])
            ]
            if relevant:
                ranges = relevant
        kept = [
            w
            for s, e in ranges
            for w in words[s:e]
            if normalize_word(w) not in DEFAULT_STOPWORDS
        ]
        return " ".join(kept)


_RETRIED_4XX = frozenset({408, 429})  # request timeout, rate limit: a retry can succeed


@dataclass
class HttpProvider:
    """OpenAI-compatible chat-completion client on the standard library.

    Posts to ``base_url``, an ``http`` or ``https`` URL with the full endpoint
    path, with the bearer key read from :data:`API_KEY_ENV` at request time.
    Connection errors, timeouts, HTTP 408, 429 and 5xx, and malformed replies
    are retried, the delay doubling from ``retry_delay``; other 3xx and 4xx fail at once.
    """

    base_url: str
    model_name: str
    max_retries: int = 3
    retry_delay: float = 1.0
    provider_id: ClassVar[str] = "http"

    def __post_init__(self):
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http or https URL, got {self.base_url!r}")

    def complete(self, messages: list[dict[str, str]]) -> str:
        import http.client
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json", "User-Agent": "efpc"}
        key = os.environ.get(API_KEY_ENV, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        body = {"model": self.model_name, "messages": messages, "temperature": 0}
        request = urllib.request.Request(self.base_url, json.dumps(body).encode(), headers)
        # urllib would resend the key to any redirect's Location: another host, http, ftp
        class RefuseRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args):  # no new request: the 3xx raises HTTPError
                return None
        opener = urllib.request.build_opener(RefuseRedirect)
        delay = self.retry_delay
        last: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                with opener.open(request, timeout=REQUEST_TIMEOUT) as resp:
                    payload = json.loads(resp.read())
                content = payload["choices"][0]["message"]["content"]
                if isinstance(content, str):
                    return content
                last = TypeError(f"reply content is {type(content).__name__}")
            except urllib.error.HTTPError as exc:
                exc.close()
                if exc.code < 500 and exc.code not in _RETRIED_4XX:
                    raise TransportError(
                        f"request rejected with HTTP {exc.code} {exc.reason}; not retried"
                    ) from None
                last = exc
            # HTTPException: a reply http.client cannot parse, e.g. a bad status line
            except (OSError, http.client.HTTPException, LookupError, TypeError, ValueError) as exc:
                last = exc
            if attempt + 1 < self.max_retries:
                time.sleep(delay)
                delay *= 2
        raise TransportError(f"request failed after {self.max_retries} attempts: {last!r}")


def compression_ratio(original: str, compressed: str) -> float:
    """Word count of the original divided by word count of the compression."""
    n_compressed = len(split_words(compressed))
    if n_compressed == 0:
        raise EmptyCompression("compressed text has no words")
    return len(split_words(original)) / n_compressed


def compress_chunk_via_llm(
    provider: LlmProvider, instruction: str, chunk: str
) -> DistilledPair:
    """Request a compression of one chunk and package it with its ratio."""
    messages = build_compression_request(instruction, chunk)
    text = provider.complete(messages).strip()
    return DistilledPair(
        chunk_text=chunk,
        compressed_text=text,
        instruction=instruction,
        ratio=compression_ratio(chunk, text),
    )


def distill_corpus(
    provider: LlmProvider,
    docs: Sequence[str],
    instructions: Sequence[str] | None = None,
    *,
    max_units: int = 512,
    max_concurrency: int = 4,
) -> DistilledDataset:
    """Compress every chunk of every document through the provider.

    Per-chunk errors are logged and collected; the run fails only when the
    failed fraction exceeds ``FAILURE_THRESHOLD``. Results are assembled in
    (doc, chunk) order regardless of completion order, so runs against a
    deterministic provider are byte-reproducible.
    """
    if max_concurrency < 1:
        raise ValueError(f"max_concurrency must be at least 1, got {max_concurrency}")
    if not docs:
        raise EmptyDataset("no documents to distill")
    if instructions is None:
        instructions = [""] * len(docs)
    if len(instructions) != len(docs):
        raise ValueError("instructions must align one-to-one with docs")

    jobs: list[tuple[int, int, str, str]] = []
    for doc_id, (doc, instruction) in enumerate(zip(docs, instructions)):
        for chunk_idx, chunk in enumerate(chunk_document(doc, max_units)):
            jobs.append((doc_id, chunk_idx, instruction, chunk))
    if not jobs:
        raise EmptyDataset("documents contain no words")

    def run_job(job: tuple[int, int, str, str]):
        doc_id, chunk_idx, instruction, chunk = job
        pair = compress_chunk_via_llm(provider, instruction, chunk)
        return replace(pair, doc_id=doc_id, chunk_idx=chunk_idx)

    outcomes: list[DistilledPair | ChunkFailure] = []
    workers = min(max_concurrency, len(jobs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        handles = [pool.submit(run_job, job) for job in jobs]
        for job, handle in zip(jobs, handles):
            try:
                outcomes.append(handle.result())
            except (TransportError, EmptyCompression) as exc:
                outcomes.append(ChunkFailure(job[0], job[1], str(exc)))

    pairs = [o for o in outcomes if isinstance(o, DistilledPair)]
    failures = [o for o in outcomes if isinstance(o, ChunkFailure)]
    for f in failures:
        logger.warning("chunk %d of doc %d failed: %s", f.chunk_idx, f.doc_id, f.error)
    if len(failures) > FAILURE_THRESHOLD * len(jobs):
        raise DistillationFailed(
            f"{len(failures)} of {len(jobs)} chunks failed "
            f"(threshold {FAILURE_THRESHOLD:.0%})"
        )
    return DistilledDataset(pairs=pairs, failures=failures)


def ratio_histogram(dataset: DistilledDataset, bin_width: float = 1.0) -> RatioHistogram:
    """Histogram the pair ratios into fixed-width bins starting at 1.0.

    Ratios below 1.0 (possible only with providers that add words) are
    counted in the first bin so that counts always sum to the pair count.
    """
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be a finite positive number, got {bin_width}")
    ratios = [p.ratio for p in dataset.pairs]
    if not ratios:
        raise EmptyDataset("dataset has no pairs")
    n_bins = max(0.0, (max(ratios) - 1.0) // bin_width) + 1  # a float: may be huge or inf
    if n_bins > MAX_HISTOGRAM_BINS:
        raise ValueError(f"bin_width {bin_width} makes {n_bins:g} bins, over {MAX_HISTOGRAM_BINS}")
    counts = [0] * int(n_bins)
    for r in ratios:
        counts[max(0, int((r - 1.0) // bin_width))] += 1
    edges = tuple(1.0 + k * bin_width for k in range(len(counts) + 1))
    return RatioHistogram(
        bin_edges=edges,
        counts=tuple(counts),
        mean=sum(ratios) / len(ratios),
        n=len(ratios),
    )


def write_pairs_jsonl(dataset: DistilledDataset, path) -> None:
    """One JSON object per pair, UTF-8 with LF line endings."""
    records = [
        {
            "doc_id": p.doc_id,
            "chunk_idx": p.chunk_idx,
            "instruction": p.instruction,
            "original": p.chunk_text,
            "compressed": p.compressed_text,
            "ratio": p.ratio,
        }
        for p in dataset.pairs
    ]
    write_jsonl(path, records)


def read_pairs_jsonl(path) -> DistilledDataset:
    def build(rec):
        return DistilledPair(
            chunk_text=rec["original"],
            compressed_text=rec["compressed"],
            instruction=rec.get("instruction", ""),
            ratio=rec["ratio"],
            doc_id=rec.get("doc_id", 0),
            chunk_idx=rec.get("chunk_idx", 0),
        )

    pairs = read_jsonl(
        path,
        build,
        required=("original", "compressed", "ratio"),
        types={"original": "string", "compressed": "string", "instruction": "string",
               "ratio": "finite number", "doc_id": "integer", "chunk_idx": "integer"},
    )
    return DistilledDataset(pairs=pairs, failures=[])
