"""Seeded synthetic inputs for the benchmark workloads.

Text is drawn from a Zipf-distributed lexicon of made-up words, with the
mock provider's stopwords as the most frequent types, so the vocabulary
size, the stopword share (which drives the mock's labels) and the UNK rate
of unseen requests all look like natural text. Every generator is a pure
function of the seed and a stream number, so the same seed always gives
the same inputs whatever the program under test does with them.

Request sizes follow a golden-ratio sequence with a seeded offset rather
than independent draws: every run then sees the same spread of sizes, and
a median over a few dozen operations does not move with the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from efpc import CompressionRequest, QARecord
from efpc.distill import DEFAULT_STOPWORDS

LEXICON_SIZE = 20_000
ZIPF_EXPONENT = 1.05
TAUS = (0.25, 0.33, 0.5)
_SYLLABLES = (
    "ka lo mi ten ra su vo ne pa di gor el an tri zu ber sa qui lom fe "
    "dra ho vi pun sel ma to ri gan es"
).split()
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# stream numbers keep the generators independent of one another
SETUP_CORPUS, SETUP_TRAIN, HELDOUT, HELDOUT_QA, QA, DOCS, SHARDS = range(7)
LEXICON = 99


def stratified(rng: np.random.Generator, lo: int, hi: int):
    """Endless sizes in [lo, hi], evenly spread over any window of draws."""
    u = rng.random()
    while True:
        u = (u + _GOLDEN) % 1.0
        yield lo + int(u * (hi - lo + 1))


class Language:
    """A seeded lexicon plus sampling of sentences, documents and questions."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, LEXICON])
        lengths = rng.integers(2, 5, size=2 * LEXICON_SIZE)
        syllables = rng.integers(0, len(_SYLLABLES), size=(2 * LEXICON_SIZE, 4))
        candidates = (
            "".join(_SYLLABLES[j] for j in row[:k]) for row, k in zip(syllables.tolist(), lengths)
        )
        # dict keeps first-seen order, so ranks stay a function of the seed
        words = dict.fromkeys(sorted(DEFAULT_STOPWORDS))
        for w in candidates:
            words.setdefault(w)
            if len(words) == LEXICON_SIZE:
                break
        self.words = list(words)
        p = np.arange(1, LEXICON_SIZE + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self.cdf = np.cumsum(p / p.sum())
        self.seed = seed

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def sample(self, rng: np.random.Generator, n: int) -> list[str]:
        ids = np.searchsorted(self.cdf, rng.random(n), side="right")
        ids = np.minimum(ids, LEXICON_SIZE - 1)
        return [self.words[i] for i in ids]

    def text(self, rng: np.random.Generator, n_words: int) -> str:
        """n_words words in sentences of 6-24 words, capitalized, with
        occasional commas and a period at each sentence end."""
        words = self.sample(rng, n_words)
        commas = rng.random(n_words) < 0.05
        out: list[str] = []
        start = 0
        while start < n_words:
            end = min(n_words, start + int(rng.integers(6, 25)))
            for i in range(start, end):
                w = words[i]
                if i == start:
                    w = w.capitalize()
                if i == end - 1:
                    w += "."
                elif commas[i]:
                    w += ","
                out.append(w)
            start = end
        return " ".join(out)

    def question(self, rng: np.random.Generator, n_words: int, anchors: list[str]) -> str:
        """A question of n_words words: Zipf filler plus the anchor words."""
        words = self.sample(rng, max(1, n_words - len(anchors))) + anchors
        order = rng.permutation(len(words))
        words = [words[i] for i in order]
        words[0] = words[0].capitalize()
        return " ".join(words) + "?"

    def is_content(self, word: str) -> bool:
        return word.strip(".,").lower() not in DEFAULT_STOPWORDS


def corpus(lang: Language, stream: tuple[int, ...], n_docs: int, lo: int, hi: int,
           task_words: tuple[int, int] = (5, 12)) -> tuple[list[str], list[str]]:
    """Documents with task instructions that mention some of their words,
    as the distillation step sees them."""
    rng = lang.rng(*stream)
    sizes = stratified(rng, lo, hi)
    docs, instructions = [], []
    for _ in range(n_docs):
        doc = lang.text(rng, next(sizes))
        content = [w.strip(".,").lower() for w in doc.split() if lang.is_content(w)]
        anchors = [content[int(i)] for i in rng.integers(0, len(content), 2)]
        docs.append(doc)
        instructions.append(
            lang.question(rng, int(rng.integers(*task_words, endpoint=True)), anchors)
        )
    return docs, instructions


@dataclass(frozen=True)
class QAItem:
    request: CompressionRequest
    record: QARecord
    context_id: int


def qa_stream(lang: Language, stream: int = QA):
    """Endless QA requests: contexts of 60-250 words, each asked 1-4
    questions of 5-12 words, interleaved in blocks of 64 so a context
    comes back within and across batches. The gold answer is the three
    words after an anchor word the question shares with its context.
    Every fifth request carries a word budget instead of a keep ratio."""
    rng = lang.rng(stream)
    sizes = stratified(rng, 60, 250)
    context_id = 0
    n = 0
    while True:
        block: list[tuple[int, str, str, str]] = []
        while len(block) < 64:
            context = lang.text(rng, next(sizes))
            words = context.split()
            spots = [i for i, w in enumerate(words[:-3]) if lang.is_content(w)]
            for _ in range(int(rng.integers(1, 5))):
                j = spots[int(rng.integers(len(spots)))]
                q = lang.question(
                    rng, int(rng.integers(5, 13)), [words[j].strip(".,").lower()]
                )
                block.append((context_id, context, q, " ".join(words[j + 1 : j + 4])))
            context_id += 1
        for k in rng.permutation(len(block)):
            cid, context, q, gold = block[k]
            if n % 5 == 4:
                req = CompressionRequest(context, q, unit_budget=int(rng.integers(20, 81)))
            else:
                req = CompressionRequest(context, q, keep_ratio=TAUS[n % 3])
            n += 1
            yield QAItem(req, QARecord(q, (gold,)), cid)


def doc_stream(lang: Language, stream: int = DOCS):
    """Endless long documents of 3k-8k words with 20-40 word instructions."""
    rng = lang.rng(stream)
    sizes = stratified(rng, 3000, 8000)
    n = 0
    while True:
        doc = lang.text(rng, next(sizes))
        words = doc.split()
        anchors = [words[int(i)].strip(".,").lower() for i in rng.integers(0, len(words), 3)]
        instruction = lang.question(rng, int(rng.integers(20, 41)), anchors)
        yield CompressionRequest(doc, instruction, keep_ratio=TAUS[n % 3])
        n += 1
