"""Instruction-aware extractive prompt compression.

The pipeline: chunk documents and have a strong LLM (or the offline mock)
compress them, align each compression back onto the original words as
keep/drop labels, train a small encoder to predict per-word preserve
probabilities — optionally conditioned on the task instruction — and at
inference keep the top fraction of words in their original order.
"""

import os

# One BLAS thread per process, unless the variable is already set. The
# encoder's products are small: a second BLAS thread gains nothing in
# compress or train, and its spinning competes with the helper process that
# scores windows on the second core (see compressor). Only takes effect when
# numpy has not been loaded yet.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .compressor import CompressionRequest
from .distill import MockProvider
from .errors import EfpcError
from .evaluation import ContextAnswerTarget, QARecord

__version__ = "0.1.0"
