"""Instruction-aware extractive prompt compression.

The pipeline: chunk documents and have a strong LLM (or the offline mock)
compress them, align each compression back onto the original words as
keep/drop labels, train a small encoder to predict per-word preserve
probabilities — optionally conditioned on the task instruction — and at
inference keep the top fraction of words in their original order.
"""

from .align import (
    AlignmentResult,
    LabeledExample,
    build_example,
    label_distilled_pairs,
    label_pair,
    mix_datasets,
    read_labeled_jsonl,
    write_labeled_jsonl,
)
from .compressor import (
    CompressionFailure,
    CompressionRequest,
    CompressionResult,
    compress,
    compress_batch,
    score_words,
    target_keep_count,
)
from .distill import (
    DistilledDataset,
    DistilledPair,
    HttpProvider,
    LlmProvider,
    MockProvider,
    RatioHistogram,
    compress_chunk_via_llm,
    compression_ratio,
    distill_corpus,
    ratio_histogram,
    read_pairs_jsonl,
    write_pairs_jsonl,
)
from .errors import (
    CheckpointError,
    ChecksumMismatch,
    ConfigParseError,
    ConfigValidationError,
    DistillationFailed,
    EfpcError,
    EmptyCompression,
    EmptyDataset,
    FormatVersionMismatch,
    InstructionTooLong,
    InsufficientData,
    LengthMismatch,
    NumericalDivergence,
    RecordError,
    SequenceTooLong,
    ShapeMismatch,
    TransportError,
)
from .evaluation import (
    ContextAnswerTarget,
    MetricsReport,
    QARecord,
    SweepCell,
    SweepReport,
    bleu,
    data_efficiency_sweep,
    evaluate_downstream,
    rouge_l,
    rouge_n,
    token_f1,
    token_f1_max,
)
from .model import (
    Model,
    ModelConfig,
    TrainConfig,
    TrainReport,
    load_checkpoint,
    new_model,
    save_checkpoint,
    token_accuracy,
    train,
)
from .text_core import (
    Chunk,
    WordSeq,
    chunk_document,
    count_units,
    normalize_word,
    sentence_ranges,
    split_words,
)

__version__ = "0.1.0"
