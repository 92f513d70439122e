"""Test-suite root. pytest's default import mode puts this directory on
sys.path, which is how test modules import ``helpers``.

BLAS is pinned to one thread here, before any test module loads numpy:
several modules import numpy before efpc, too late for efpc's own pin,
and efpc uses its helper process only where BLAS runs on one thread."""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
