"""Acceptance suite: one test per shipping criterion.

Each test prints ``[acceptance] <name>: PASS`` or ``FAIL`` so the whole
gate reads as a checklist under ``pytest tests/test_acceptance.py -v -s``.
These tests intentionally repeat some unit-level ground at larger sample
sizes and with stricter invariants; they are the contract of the package.
"""

import json
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from efpc.align import label_pair
from efpc.cli import run_cli
from efpc.compressor import CompressionRequest, compress
from efpc.distill import MockProvider, distill_corpus, ratio_histogram
from efpc.evaluation import bleu, rouge_l, rouge_n, token_f1
from efpc.model import (
    ModelConfig,
    init_params,
    token_accuracy,
    tokenize_words,
    train,
    vocab_from_words,
)
from efpc.evaluation import data_efficiency_sweep

from helpers import (
    RATIO_DOCS,
    fast_train_config,
    loss_agnostic,
    loss_drop,
    loss_mask,
    max_grad_rel_err,
    parity_examples,
    rigged_model,
    small_model,
    toy_rule_examples,
)
from metric_fixtures import (
    BLEU_CASES,
    ROUGE_1_CASES,
    ROUGE_2_CASES,
    ROUGE_L_CASES,
    TOKEN_F1_CASES,
)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def test_gradient_oracle():
    with criterion("gradient_oracle"):
        started = time.monotonic()
        config = ModelConfig(
            vocab_size=12, embed_dim=8, num_layers=2, num_heads=2, ffn_dim=16,
            max_seq_len=12, seed=19,
        )
        vocab = vocab_from_words(list("abcdefghi"))
        # 12 tokens: two instruction words + separator + nine originals
        prefixed = tokenize_words(
            vocab, ["a", "b"],
            ["c", "d", "e", "f", "g", "h", "i", "c", "d"],
            [1, 0, 0, 1, 1, 0, 1, 0, 1],
        )
        flat = tokenize_words(
            vocab, [],
            ["a", "b", "c", "d", "e", "f", "g", "h", "i", "a", "b", "c"],
            [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0],
        )
        assert len(prefixed.token_ids) == 12
        assert len(flat.token_ids) == 12
        for variant, example in (
            ("mask", prefixed),
            ("drop", prefixed),
            ("agnostic", flat),
        ):
            params = init_params(config, dtype=np.float64)
            worst = max_grad_rel_err(params, config, example, variant, eps=1e-4)
            assert worst < 1e-3, f"{variant}: max relative error {worst:.2e}"
        assert time.monotonic() - started < 30.0


def test_loss_identities():
    with criterion("loss_identities"):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            p = rng.uniform(1e-3, 1.0 - 1e-3, n)
            probs = np.stack([p, 1.0 - p], axis=1)
            labels = rng.integers(0, 2, n)
            base = loss_agnostic(probs, labels)
            assert loss_drop(probs, labels, 0) == base       # exact equality
            assert loss_mask(probs, labels, 0) == base       # exact equality
        # prefix predictions must not move the masked loss at all
        for _ in range(100):
            boundary = int(rng.integers(1, 8))
            n = int(rng.integers(1, 20))
            p = rng.uniform(1e-3, 1.0 - 1e-3, boundary + n)
            probs = np.stack([p, 1.0 - p], axis=1)
            labels = rng.integers(0, 2, n)
            perturbed = probs.copy()
            perturbed[:boundary] = rng.uniform(1e-3, 1.0 - 1e-3, (boundary, 2))
            delta = loss_mask(perturbed, labels, boundary) - loss_mask(
                probs, labels, boundary
            )
            assert delta == 0.0


def test_task_awareness():
    with criterion("task_awareness"):
        started = time.monotonic()
        train_set = parity_examples(240, 11)
        test_set = parity_examples(60, 99)

        aware = small_model(train_set)
        aware, _ = train(aware, train_set, fast_train_config())
        acc_aware, _ = token_accuracy(aware, test_set, "mask")

        blind = small_model(train_set)
        blind, _ = train(
            blind, train_set, fast_train_config(loss_variant="agnostic")
        )
        acc_blind, _ = token_accuracy(blind, test_set, "agnostic")

        assert acc_aware >= 0.90, f"instruction-aware accuracy {acc_aware:.4f}"
        assert acc_blind <= 0.70, f"instruction-blind accuracy {acc_blind:.4f}"
        assert time.monotonic() - started < 300.0


def test_toy_learning():
    with criterion("toy_learning"):
        train_set = toy_rule_examples(120, 5)
        test_set = toy_rule_examples(40, 6)
        model = small_model(train_set, embed_dim=16, num_layers=1, num_heads=2,
                            ffn_dim=32, seed=1)
        config = fast_train_config(learning_rate=5e-3, epochs=10,
                                   loss_variant="agnostic", seed=2)
        assert config.epochs <= 50
        trained, _ = train(model, train_set, config)
        acc, _ = token_accuracy(trained, test_set, "agnostic")
        assert acc >= 0.95, f"held-out accuracy {acc:.4f}"


def _round_half_up(x: float) -> int:
    import math

    return math.floor(x + 0.5)


def test_compressor_contracts():
    with criterion("compressor_contracts"):
        rng = random.Random(37)
        pool = [f"word{i}" for i in range(30)]
        model = rigged_model(
            {w: rng.uniform(-3.0, 3.0) for w in pool}, max_seq_len=16
        )
        for _ in range(1000):
            n = rng.randint(1, 60)
            words = [rng.choice(pool) for _ in range(n)]
            text = " ".join(words)
            instruction = "word0 word1" if rng.random() < 0.3 else ""
            if rng.random() < 0.5:
                tau = rng.uniform(0.01, 1.0)
                request = CompressionRequest(
                    original=text, instruction=instruction, keep_ratio=tau
                )
            else:
                budget = rng.randint(1, 70)
                tau = min(1.0, budget / n)
                request = CompressionRequest(
                    original=text, instruction=instruction, unit_budget=budget
                )
            result = compress(model, request)
            expected_kept = min(max(_round_half_up(tau * n), 1), n)
            assert result.n_kept == expected_kept
            assert result.n_original == n
            # kept indices are strictly increasing and name real positions
            assert list(result.kept_indices) == sorted(set(result.kept_indices))
            assert all(0 <= i < n for i in result.kept_indices)
            assert result.kept_words == tuple(
                words[i] for i in result.kept_indices
            )
            assert result.achieved_inverse_ratio == pytest.approx(
                n / expected_kept
            )
            assert len(result.probabilities) == n

        # keep-sets nest as the ratio grows
        for trial in range(20):
            n = rng.randint(10, 50)
            text = " ".join(rng.choice(pool) for _ in range(n))
            previous: set[int] = set()
            for tau in [round(0.1 * k, 1) for k in range(1, 11)]:
                kept = set(
                    compress(
                        model, CompressionRequest(original=text, keep_ratio=tau)
                    ).kept_indices
                )
                assert previous <= kept, f"nesting broke at tau={tau}"
                previous = kept

        # full ratio reproduces the input exactly
        for trial in range(50):
            n = rng.randint(1, 60)
            words = [rng.choice(pool) for _ in range(n)]
            result = compress(
                model,
                CompressionRequest(original=" ".join(words), keep_ratio=1.0),
            )
            assert result.kept_words == tuple(words)
            assert result.kept_indices == tuple(range(n))


def test_alignment_oracle():
    with criterion("alignment_oracle"):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 60)
            words = [f"tok{i}q" for i in range(n)]  # distinct after normalizing
            rng.shuffle(words)
            keep = sorted(rng.sample(range(n), rng.randint(1, n)))
            compressed = [words[i] for i in keep]
            result = label_pair(words, compressed)
            assert result.match_rate == 1.0
            assert [i for i, kept in enumerate(result.labels) if kept] == keep

        # duplicate words follow the greedy forward cursor
        traces = [
            (list("aabbacad"), list("bbcd"), (0, 0, 1, 1, 0, 1, 0, 1)),
            (["a", "b", "a", "c"], ["a", "c"], (1, 0, 0, 1)),
            (["a", "a"], ["a"], (1, 0)),
            (["the", "cat", "the", "mat"], ["the", "mat"], (1, 0, 0, 1)),
            (["x", "x", "x"], ["x", "x"], (1, 1, 0)),
        ]
        for original, compressed, expected in traces:
            result = label_pair(original, compressed)
            assert result.labels == expected
            assert result.match_rate == 1.0


def test_metric_oracles():
    with criterion("metric_oracles"):
        tables = (
            TOKEN_F1_CASES, ROUGE_1_CASES, ROUGE_2_CASES, ROUGE_L_CASES,
            BLEU_CASES,
        )
        assert all(len(t) >= 10 for t in tables)
        for predicted, gold, expected in TOKEN_F1_CASES:
            assert abs(token_f1(predicted, gold) - expected) < 1e-9
        for cand, ref, expected in ROUGE_1_CASES:
            assert abs(rouge_n(cand, ref, 1).f1 - expected) < 1e-9
        for cand, ref, expected in ROUGE_2_CASES:
            assert abs(rouge_n(cand, ref, 2).f1 - expected) < 1e-9
        for cand, ref, expected in ROUGE_L_CASES:
            assert abs(rouge_l(cand, ref).f1 - expected) < 1e-9
        for cand, refs, max_n, expected in BLEU_CASES:
            assert abs(bleu(cand, refs, max_n) - expected) < 1e-9
        # identity and empty cases are exact, not merely close
        assert token_f1("", "") == 1.0
        assert token_f1("same words here", "same words here") == 1.0
        assert rouge_l("", "").f1 == 1.0
        assert rouge_l("a b c", "a b c").f1 == 1.0
        assert bleu("a b c", ["a b c"]) == 1.0
        assert bleu("", ["a"]) == 0.0


def test_ratio_statistics():
    with criterion("ratio_statistics"):
        provider = MockProvider()
        docs = [text for text, _ in RATIO_DOCS]
        questions = [q for _, q in RATIO_DOCS]

        aware = distill_corpus(provider, docs, questions, max_units=512)
        agnostic = distill_corpus(provider, docs, [""] * len(docs), max_units=512)

        for dataset in (aware, agnostic):
            hist = ratio_histogram(dataset)
            brute = sum(p.ratio for p in dataset.pairs) / len(dataset.pairs)
            assert abs(hist.mean - brute) < 1e-9
            assert hist.n == len(dataset.pairs)

        mean_aware = ratio_histogram(aware).mean
        mean_agnostic = ratio_histogram(agnostic).mean
        assert mean_aware > mean_agnostic, (
            f"aware {mean_aware:.3f} vs agnostic {mean_agnostic:.3f}"
        )


def _run_pipeline(root) -> list:
    root.mkdir()
    corpus = root / "corpus.jsonl"
    with open(corpus, "w") as fh:
        for text, question in RATIO_DOCS:
            fh.write(json.dumps({"text": text, "instruction": question}) + "\n")
    qa = root / "qa.jsonl"
    with open(qa, "w") as fh:
        for text, question in RATIO_DOCS:
            fh.write(json.dumps({
                "context": text, "question": question,
                "answers": [text.split(". ")[0]],
            }) + "\n")

    pairs = root / "pairs.jsonl"
    labeled = root / "labeled.jsonl"
    ckpt = root / "model.ckpt"
    report = root / "report.json"
    assert run_cli(["distill", "--corpus", str(corpus), "--out", str(pairs),
                    "--mock"]) == 0
    assert run_cli(["label", "--pairs", str(pairs), "--out", str(labeled)]) == 0
    assert run_cli(["train", "--data", str(labeled), "--out", str(ckpt),
                    "--embed-dim", "16", "--layers", "1", "--heads", "2",
                    "--ffn-dim", "32", "--max-seq-len", "64",
                    "--epochs", "2", "--lr", "1e-3", "--seed", "4"]) == 0
    assert run_cli(["eval", "--checkpoint", str(ckpt), "--data", str(qa),
                    "--ratio", "0.6", "--out", str(report)]) == 0
    artifacts = [pairs, labeled, ckpt, report]
    artifacts += [p.parent / (p.name + ".manifest.json") for p in artifacts]
    return artifacts


def test_pipeline_determinism(tmp_path):
    with criterion("pipeline_determinism"):
        started = time.monotonic()
        first = _run_pipeline(tmp_path / "run1")
        second = _run_pipeline(tmp_path / "run2")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), (
                f"{a.name} differs between identical runs"
            )
        assert time.monotonic() - started < 600.0


def test_sweep_machinery():
    with criterion("sweep_machinery"):
        seed_data = parity_examples(20, 21)
        base = small_model(seed_data)
        base, _ = train(base, seed_data, fast_train_config(epochs=2, seed=3))
        extra = parity_examples(200, 22)
        eval_set = parity_examples(60, 23)

        sweep = data_efficiency_sweep(
            base, extra, (0.0, 0.1, 0.5, 1.0), eval_set,
            fast_train_config(epochs=5, seed=17),
        )
        accs = [cell.report.metrics["token_accuracy"] for cell in sweep.cells]
        for earlier, later in zip(accs, accs[1:]):
            assert later >= earlier, f"accuracy dropped: {accs}"

        base_acc, _ = token_accuracy(base, eval_set, "mask")
        assert accs[0] == base_acc  # the f=0 cell is exactly the base model
        assert sweep.cells[-1].report.metrics["n_extra"] == 200.0
