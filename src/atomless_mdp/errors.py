"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: CertifiedFailure / NotCertifiedError -> 3,
every other AtomlessMDPError (bad input) -> 2, OSError -> 4, and any other
exception -> 5, an internal error reported with its type.  The CLI's file
loaders therefore turn constructor ValueErrors on user input into
ModelFormatError with the file path.
"""


class AtomlessMDPError(Exception):
    """Base class for all package errors."""


class ModelFormatError(AtomlessMDPError):
    """A model/policy document is malformed.  ``field`` holds the offending path."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class DegenerateMeasureError(AtomlessMDPError):
    """Operation requires a measure with positive total mass."""


class PartitionMismatchError(AtomlessMDPError):
    """A policy or measure does not refine the partition it must refine."""


class NotCertifiedError(AtomlessMDPError):
    """Uniform absorption could not be certified for the model."""


class ToleranceError(AtomlessMDPError):
    """A requested tolerance is below the attainable numerical resolution."""


class CertifiedFailure(AtomlessMDPError):
    """An iterative construction missed its tolerance; carries the best residual.

    Never raised silently: ``residual`` is the achieved error and ``trace``
    whatever partial construction record was available.
    """

    def __init__(self, message, residual, trace=None):
        self.residual = residual
        self.trace = trace
        super().__init__(f"{message} (best residual {residual:.3e})")
