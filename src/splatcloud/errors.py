"""Exception types shared across the pipeline."""


class SplatCloudError(Exception):
    """Base class for every error this package raises on purpose."""


class FileFormatError(SplatCloudError, ValueError):
    """An input file violates its format contract."""


class TruncatedFileError(SplatCloudError, OSError):
    """A binary payload ended before the declared record count."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (file ends at byte offset {byte_offset})")
        self.byte_offset = byte_offset


class DomainError(SplatCloudError, ValueError):
    """Pipeline state violates an operation precondition."""


class UsageError(SplatCloudError, ValueError):
    """Bad command-line or configuration input (maps to exit code 2)."""


class PipelineError(SplatCloudError, RuntimeError):
    """Wraps a failure with the pipeline stage it happened in."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
