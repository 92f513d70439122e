"""Instruction-aware extractive prompt compression.

The pipeline: chunk documents and have a strong LLM (or the offline mock)
compress them, align each compression back onto the original words as
keep/drop labels, train a small encoder to predict per-word preserve
probabilities — optionally conditioned on the task instruction — and at
inference keep the top fraction of words in their original order.
"""

import os
import sys

# One BLAS thread per process, unless the variable is already set. The
# encoder's products are small: a second BLAS thread gains nothing in
# compress or train, and its spinning competes with the helper process that
# scores windows and computes training gradients on the second core (see
# efpc.model.twocore), making two cores slower than one. The pin only takes
# effect while numpy is not loaded yet, so the helper is used only where
# BLAS runs on one thread: numpy not loaded and each variable unset or "1",
# or both variables already "1".
_blas_pinned = all(
    os.environ.get(name) == "1" or (name not in os.environ and "numpy" not in sys.modules)
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .compressor import CompressionRequest
from .distill import MockProvider
from .errors import EfpcError
from .evaluation import ContextAnswerTarget, QARecord

__version__ = "0.1.0"
