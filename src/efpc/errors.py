"""Exception types shared across the package."""


class EfpcError(Exception):
    """Base class for all package-specific errors."""


class TransportError(EfpcError):
    """Provider request failed after exhausting retries."""


class EmptyCompression(EfpcError):
    """A compression produced no usable words."""


class EmptyDataset(EfpcError):
    """An operation that needs data received none."""


class DistillationFailed(EfpcError):
    """Too many chunks failed during corpus distillation."""


class LengthMismatch(EfpcError):
    """Label sequence length does not match the word sequence."""


class InsufficientData(EfpcError):
    """A dataset is too small for the requested sample counts."""


class SequenceTooLong(EfpcError):
    """Input sequence exceeds the model's maximum length."""


class InstructionTooLong(EfpcError):
    """Instruction prefix leaves no room for original words."""


class NumericalDivergence(EfpcError):
    """Training produced a non-finite loss or gradient."""


class ShapeMismatch(EfpcError):
    """Tensor shapes disagree between parameters and gradients."""


class CheckpointError(EfpcError):
    """A checkpoint file is structurally unusable."""


class FormatVersionMismatch(CheckpointError):
    """Checkpoint magic or format version is not supported."""


class ChecksumMismatch(CheckpointError):
    """Checkpoint bytes fail CRC verification."""


class ConfigValidationError(EfpcError):
    """A run's settings violate an invariant."""


class RecordError(EfpcError):
    """A line of a JSONL data file cannot be read as a record."""
