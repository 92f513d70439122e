"""Test-suite root. pytest's default import mode puts this directory on
sys.path, which is how test modules import ``helpers``."""
