"""Exception types shared across the package."""


class ShapeMismatchError(ValueError):
    """Factor shapes or tensor dimensions are inconsistent."""


class CapacityError(RuntimeError):
    """A dense object would exceed the configured entry budget."""


class InfeasibleKError(ValueError):
    """More entries were requested than the tensor holds."""


class DegenerateInputError(ValueError):
    """The input tensor is identically zero where a nonzero one is required."""


class CptFormatError(ValueError):
    """A CPT file is malformed or internally inconsistent."""
