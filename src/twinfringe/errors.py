"""Exception types shared across the package."""


class TwinfringeError(ValueError):
    """Base class for all package errors."""


class ConfigurationError(TwinfringeError):
    """A configuration violates a structural constraint."""


class UndefinedVisibilityError(TwinfringeError):
    """Visibility is requested for a curve with no counts at all."""


class NotTwoQubitStateError(TwinfringeError):
    """Pair polarizations are not orthogonal, so no polarization qubit exists."""


class IllPosedError(TwinfringeError):
    """A fit was requested on data that cannot constrain its parameters."""
