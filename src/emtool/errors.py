"""Exception types shared across the package."""


class EmtoolError(Exception):
    """Base class for all package-specific errors."""


class MachineFormatError(EmtoolError):
    """Raised when a machine or graph file cannot be parsed."""


class NotIrreducibleError(EmtoolError):
    """Raised when an operation requires a strongly connected machine."""


class NotUnifilarError(EmtoolError):
    """Raised when an operation requires a unifilar machine."""


class ImpossibleSymbolError(EmtoolError):
    """Raised when a belief update conditions on a zero-probability symbol."""


class InconsistentBlockError(EmtoolError):
    """Raised when states grouped as equivalent disagree on an edge probability."""


class ClassExplosionError(EmtoolError):
    """Raised when belief-class closure exceeds its configured cap."""

    def __init__(self, message, n_classes=None):
        super().__init__(message)
        self.n_classes = n_classes


class ReconstructionError(EmtoolError):
    """Raised when reconstruction cannot identify a unique recurrent part."""


class InsufficientDataError(EmtoolError):
    """Raised when a sample is too short to support the requested inference."""


class NotIrreducibleShiftError(EmtoolError):
    """Raised when a sofic presentation has more than one recurrent component."""


class NumericalError(EmtoolError):
    """Raised when a numerical routine cannot meet its tolerance."""
