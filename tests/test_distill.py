import http.server
import json
import os
import re
import socket
import threading

import pytest

from efpc.distill import (
    COMPRESSION_DIRECTIVE,
    MAX_HISTOGRAM_BINS,
    DistilledDataset,
    DistilledPair,
    HttpProvider,
    MockProvider,
    build_compression_request,
    compress_chunk_via_llm,
    compression_ratio,
    distill_corpus,
    ratio_histogram,
    read_pairs_jsonl,
    write_pairs_jsonl,
)
from efpc.errors import (
    DistillationFailed,
    EmptyCompression,
    EmptyDataset,
    TransportError,
)
from efpc.text_core import chunk_document, split_words

from helpers import RATIO_DOCS


def _chunk(text):
    return chunk_document(text, max_units=512)[0]


def test_request_is_single_user_message_with_task():
    msgs = build_compression_request("Find the date.", _chunk("Some text here."))
    assert len(msgs) == 1
    assert msgs[0]["role"] == "user"
    assert msgs[0]["content"].startswith(COMPRESSION_DIRECTIVE)
    assert "Task:\nFind the date." in msgs[0]["content"]
    assert msgs[0]["content"].endswith("Text:\nSome text here.")


def test_request_omits_task_block_when_instruction_empty():
    msgs = build_compression_request("", _chunk("Some text here."))
    assert "Task:" not in msgs[0]["content"]
    assert "Text:\nSome text here." in msgs[0]["content"]


def test_mock_provider_is_deterministic():
    mock = MockProvider()
    msgs = build_compression_request("What is kept?", _chunk("The cat sat on the mat."))
    assert mock.complete(msgs) == mock.complete(msgs)


def test_mock_provider_output_is_word_subsequence():
    mock = MockProvider()
    text, question = RATIO_DOCS[0]
    msgs = build_compression_request(question, _chunk(text))
    out = split_words(mock.complete(msgs))
    source = list(split_words(text))
    it = iter(source)
    assert all(any(w == s for s in it) for w in out), "not an in-order subsequence"


def test_mock_provider_drops_stopwords():
    mock = MockProvider()
    msgs = build_compression_request("", _chunk("The cat sat on the mat."))
    assert mock.complete(msgs) == "cat sat mat."


def test_mock_provider_instruction_filters_sentences():
    mock = MockProvider()
    text = "The cat sat on the mat. The dog dug near the fence."
    with_task = build_compression_request("Where is the dog?", _chunk(text))
    assert mock.complete(with_task) == "dog dug near fence."
    without = build_compression_request("", _chunk(text))
    assert mock.complete(without) == "cat sat mat. dog dug near fence."


def test_mock_provider_falls_back_when_no_sentence_matches():
    mock = MockProvider()
    msgs = build_compression_request("zebra quantum?", _chunk("The cat sat. The dog dug."))
    assert mock.complete(msgs) == "cat sat. dog dug."


def test_compression_ratio():
    assert compression_ratio("a b c d e f", "a b") == 3.0
    with pytest.raises(EmptyCompression):
        compression_ratio("a b", "  ")


def test_compress_chunk_rejects_empty_reply():
    class Silent:
        provider_id = "silent"

        def complete(self, messages):
            return "   "

    with pytest.raises(EmptyCompression):
        compress_chunk_via_llm(Silent(), "", _chunk("some words here"))


def test_distill_corpus_orders_results_and_sets_ids():
    docs = [text for text, _ in RATIO_DOCS]
    questions = [q for _, q in RATIO_DOCS]
    ds = distill_corpus(MockProvider(), docs, questions, max_units=16, max_concurrency=4)
    keys = [(p.doc_id, p.chunk_idx) for p in ds.pairs]
    assert keys == sorted(keys)
    assert {p.doc_id for p in ds.pairs} == set(range(len(docs)))
    # deterministic across runs despite the thread pool
    again = distill_corpus(MockProvider(), docs, questions, max_units=16, max_concurrency=4)
    assert [(p.chunk_text, p.compressed_text) for p in ds.pairs] == [
        (p.chunk_text, p.compressed_text) for p in again.pairs
    ]


def test_distill_corpus_requires_documents():
    with pytest.raises(EmptyDataset):
        distill_corpus(MockProvider(), [])
    with pytest.raises(EmptyDataset):
        distill_corpus(MockProvider(), ["   ", ""])


def test_distill_corpus_instruction_count_must_match():
    with pytest.raises(ValueError):
        distill_corpus(MockProvider(), ["a b c"], ["q1", "q2"])


class _FlakyProvider:
    """Fails on chunks whose text contains the marker word."""

    provider_id = "flaky"

    def __init__(self, marker):
        self.marker = marker

    def complete(self, messages):
        if self.marker in messages[0]["content"]:
            raise TransportError("boom")
        return MockProvider().complete(messages)


def test_distill_corpus_records_failures_below_threshold():
    # 1 failed chunk in 10 is not more than the 10% threshold
    docs = ["The cat sat on the mat."] * 9 + ["zzfail word here."]
    ds = distill_corpus(_FlakyProvider("zzfail"), docs)
    assert len(ds.failures) == 1
    assert len(ds.pairs) == 9
    assert ds.failures[0].doc_id == 9


def test_distill_corpus_fails_above_threshold():
    docs = ["zzfail one.", "zzfail two.", "The cat sat."]
    with pytest.raises(DistillationFailed):
        distill_corpus(_FlakyProvider("zzfail"), docs)


def test_pairs_jsonl_round_trip(tmp_path):
    docs = [text for text, _ in RATIO_DOCS[:2]]
    ds = distill_corpus(MockProvider(), docs, ["q one?", ""], max_units=32)
    path = tmp_path / "pairs.jsonl"
    write_pairs_jsonl(ds, path)
    back = read_pairs_jsonl(path)
    assert [
        (p.doc_id, p.chunk_idx, p.instruction, p.chunk_text, p.compressed_text, p.ratio)
        for p in ds.pairs
    ] == [
        (p.doc_id, p.chunk_idx, p.instruction, p.chunk_text, p.compressed_text, p.ratio)
        for p in back.pairs
    ]


def test_pair_rejects_empty_compression():
    with pytest.raises(EmptyCompression):
        DistilledPair(chunk_text="a b", compressed_text=" ", instruction="", ratio=2.0)


def _pairs(ratios):
    return DistilledDataset(
        pairs=[
            DistilledPair(chunk_text="x", compressed_text="y", instruction="", ratio=r)
            for r in ratios
        ],
        failures=[],
    )


def test_ratio_histogram_bins_and_mean():
    hist = ratio_histogram(_pairs([1.2, 2.5, 10.9]))
    assert hist.n == 3
    assert hist.mean == pytest.approx((1.2 + 2.5 + 10.9) / 3, abs=1e-12)
    assert hist.counts[0] == 1 and hist.counts[1] == 1 and hist.counts[9] == 1
    assert sum(hist.counts) == 3
    assert hist.bin_edges[0] == 1.0
    assert len(hist.bin_edges) == len(hist.counts) + 1


def test_ratio_histogram_clamps_sub_one_ratios():
    hist = ratio_histogram(_pairs([0.5, 1.5]))
    assert hist.counts[0] == 2


def test_ratio_histogram_validates():
    with pytest.raises(EmptyDataset):
        ratio_histogram(_pairs([]))
    with pytest.raises(ValueError):
        ratio_histogram(_pairs([2.0]), bin_width=0.0)
    for width in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bin_width must be a finite positive number"):
            ratio_histogram(_pairs([2.0]), bin_width=width)


@pytest.mark.parametrize("width, bins", [(1e-300, "2e+300"), (1e-9, "2e+09")])
def test_ratio_histogram_refuses_too_many_bins(width, bins):
    with pytest.raises(ValueError,
                       match=rf"^bin_width {width} makes {re.escape(bins)} bins, over 10000$"):
        ratio_histogram(_pairs([1.5, 3.0]), bin_width=width)


def test_ratio_histogram_allows_the_bin_limit():
    top = 1.0 + MAX_HISTOGRAM_BINS
    assert len(ratio_histogram(_pairs([top - 0.5])).counts) == MAX_HISTOGRAM_BINS
    with pytest.raises(ValueError, match=f"makes {MAX_HISTOGRAM_BINS + 1} bins"):
        ratio_histogram(_pairs([top + 0.5]))


# --------------------------------------------------------- HTTP provider


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    fail_first = 0
    # what each of the first fail_first requests gets: an HTTP status, a
    # (status, Location) redirect, a 200 whose body is this string, or these
    # raw bytes in place of a reply
    failure = 500
    requests_seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append(
            {"body": body, "auth": self.headers.get("Authorization"),
             "agent": self.headers.get("User-Agent")}
        )
        reply = json.dumps({"choices": [{"message": {"content": "compressed words"}}]})
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            if isinstance(type(self).failure, bytes):
                self.wfile.write(type(self).failure)
                return
            if isinstance(type(self).failure, int):
                self.send_response(type(self).failure)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            if isinstance(type(self).failure, tuple):
                status, location = type(self).failure
                self.send_response(status)
                self.send_header("Location", location)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            reply = type(self).failure
        data = reply.encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    _ChatHandler.fail_first = 0
    _ChatHandler.failure = 500
    _ChatHandler.requests_seen = []
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    # a short poll interval keeps shutdown() from waiting half a second
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()


def test_http_provider_posts_expected_body(chat_server, monkeypatch):
    monkeypatch.setenv("EFPC_API_KEY", "sk-test-123")
    provider = HttpProvider(base_url=chat_server, model_name="strong-llm")
    out = provider.complete([{"role": "user", "content": "hello"}])
    assert out == "compressed words"
    seen = _ChatHandler.requests_seen[-1]
    assert seen["body"] == {
        "model": "strong-llm",
        "messages": [{"role": "user", "content": "hello"}],
        "temperature": 0,
    }
    assert seen["auth"] == "Bearer sk-test-123"


def test_http_provider_omits_auth_without_key(chat_server, monkeypatch):
    monkeypatch.delenv("EFPC_API_KEY", raising=False)
    provider = HttpProvider(base_url=chat_server, model_name="m")
    provider.complete([{"role": "user", "content": "x"}])
    assert _ChatHandler.requests_seen[-1]["auth"] is None


def test_http_provider_retries_then_succeeds(chat_server):
    _ChatHandler.fail_first = 2
    provider = HttpProvider(
        base_url=chat_server, model_name="m", retry_delay=0.01, max_retries=3
    )
    assert provider.complete([{"role": "user", "content": "x"}]) == "compressed words"
    assert len(_ChatHandler.requests_seen) == 3


def test_http_provider_raises_after_exhausting_retries(chat_server):
    _ChatHandler.fail_first = 99
    provider = HttpProvider(
        base_url=chat_server, model_name="m", retry_delay=0.01, max_retries=2
    )
    with pytest.raises(TransportError):
        provider.complete([{"role": "user", "content": "x"}])
    assert len(_ChatHandler.requests_seen) == 2


@pytest.mark.parametrize("status", [400, 401, 403, 404])
def test_http_provider_does_not_retry_client_errors(chat_server, status):
    _ChatHandler.fail_first = 99
    _ChatHandler.failure = status
    provider = HttpProvider(
        base_url=chat_server, model_name="m", retry_delay=0.01, max_retries=3
    )
    with pytest.raises(TransportError, match=f"HTTP {status} "):
        provider.complete([{"role": "user", "content": "x"}])
    assert len(_ChatHandler.requests_seen) == 1


@pytest.mark.parametrize("failure", [408, 429, 500, 503, "not json", '{"choices": []}'])
def test_http_provider_retries_transient_failures(chat_server, failure):
    _ChatHandler.fail_first = 2
    _ChatHandler.failure = failure
    provider = HttpProvider(
        base_url=chat_server, model_name="m", retry_delay=0.01, max_retries=3
    )
    assert provider.complete([{"role": "user", "content": "x"}]) == "compressed words"
    assert len(_ChatHandler.requests_seen) == 3


def test_http_provider_unreachable_host():
    provider = HttpProvider(
        base_url="http://127.0.0.1:9/nothing",
        model_name="m",
        retry_delay=0.01,
        max_retries=2,
    )
    with pytest.raises(TransportError):
        provider.complete([{"role": "user", "content": "x"}])


def test_api_key_never_read_for_mock(monkeypatch):
    # the mock path must not touch the environment at all
    monkeypatch.setattr(os, "environ", {})
    mock = MockProvider()
    msgs = build_compression_request("", _chunk("The cat sat."))
    assert mock.complete(msgs) == "cat sat."


def test_http_provider_sends_a_fixed_user_agent(chat_server):
    HttpProvider(base_url=chat_server, model_name="m").complete([{"role": "user", "content": "x"}])
    assert _ChatHandler.requests_seen[-1]["agent"] == "efpc"


# urllib would open a file: URL and return the file's content as the completion
@pytest.mark.parametrize(
    "url", ["notaurl", "ftp://127.0.0.1/chat", "file:///reply.json", "http://", "/v1/chat"]
)
def test_http_provider_refuses_non_http_urls(url):
    with pytest.raises(ValueError, match=f"^base_url must be an http or https URL, got {url!r}$"):
        HttpProvider(base_url=url, model_name="m")


@pytest.fixture
def bystander():
    """A second host: yields its port and the list of connections it accepted."""
    listener = socket.create_server(("127.0.0.1", 0))
    accepted = []

    def serve():
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            accepted.append(conn)
            conn.close()  # fail fast instead of hanging a client that got here

    threading.Thread(target=serve, daemon=True).start()
    yield listener.getsockname()[1], accepted
    listener.shutdown(socket.SHUT_RDWR)
    listener.close()


@pytest.mark.parametrize("scheme", ["http", "ftp"])
def test_http_provider_follows_no_redirect(chat_server, bystander, monkeypatch, scheme):
    # following one would send the bearer key, or the request, to another host
    monkeypatch.setenv("EFPC_API_KEY", "sk-secret-4711")
    port, accepted = bystander
    _ChatHandler.fail_first = 99
    _ChatHandler.failure = (302, f"{scheme}://127.0.0.1:{port}/v1/chat/completions")
    provider = HttpProvider(
        base_url=chat_server, model_name="m", retry_delay=0.01, max_retries=3
    )
    with pytest.raises(TransportError, match="^request rejected with HTTP 302 Found; not retried$"):
        provider.complete([{"role": "user", "content": "x"}])
    assert len(_ChatHandler.requests_seen) == 1
    assert accepted == []


def test_http_provider_retries_a_malformed_status_line(chat_server):
    _ChatHandler.fail_first = 99
    _ChatHandler.failure = b"garbage\r\n\r\n"
    provider = HttpProvider(
        base_url=chat_server, model_name="m", retry_delay=0.01, max_retries=2
    )
    with pytest.raises(TransportError, match="^request failed after 2 attempts: BadStatusLine"):
        provider.complete([{"role": "user", "content": "x"}])
    assert len(_ChatHandler.requests_seen) == 2


def test_http_provider_retries_a_reply_whose_content_is_not_text(chat_server):
    _ChatHandler.fail_first = 1
    _ChatHandler.failure = '{"choices": [{"message": {"content": null}}]}'
    provider = HttpProvider(
        base_url=chat_server, model_name="m", retry_delay=0.01, max_retries=2
    )
    assert provider.complete([{"role": "user", "content": "x"}]) == "compressed words"
    assert len(_ChatHandler.requests_seen) == 2


@pytest.mark.parametrize("failure", [500, 401, b"garbage\r\n\r\n", None])
def test_transport_errors_never_carry_the_api_key(chat_server, monkeypatch, failure):
    monkeypatch.setenv("EFPC_API_KEY", "sk-secret-4711")
    _ChatHandler.fail_first = 99
    _ChatHandler.failure = failure
    url = "http://127.0.0.1:9/nothing" if failure is None else chat_server
    provider = HttpProvider(base_url=url, model_name="m", retry_delay=0.01, max_retries=2)
    with pytest.raises(TransportError) as info:
        provider.complete([{"role": "user", "content": "x"}])
    assert "sk-secret-4711" not in str(info.value)
