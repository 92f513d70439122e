"""Instruction-aware extractive prompt compression.

The pipeline: chunk documents and have a strong LLM (or the offline mock)
compress them, align each compression back onto the original words as
keep/drop labels, train a small encoder to predict per-word preserve
probabilities — optionally conditioned on the task instruction — and at
inference keep the top fraction of words in their original order.
"""

from .compressor import CompressionRequest
from .distill import MockProvider
from .errors import EfpcError
from .evaluation import ContextAnswerTarget, QARecord

__version__ = "0.1.0"
