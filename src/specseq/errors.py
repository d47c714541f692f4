"""Exception types raised across the package."""


class SpecseqError(Exception):
    """Base class for all errors raised by this package."""


class OverlapError(SpecseqError):
    """Message and interferer bands share a frequency bin."""


class EmptyMessageError(SpecseqError):
    """The message band is empty."""


class EmptyInterfererError(SpecseqError):
    """The interferer band is empty where a nonempty one is required."""


class LengthMismatchError(SpecseqError):
    """A sequence does not have the length the problem expects."""


class InfeasibleRelaxationError(SpecseqError):
    """The relaxed program has no solution under the halved interferer bound."""


class DivergenceError(SpecseqError):
    """Neuron dynamics left the stable region (step size too large)."""


class SizeLimitError(SpecseqError):
    """The sequence length exceeds the exhaustive-search limit."""


class NoFeasibleError(SpecseqError):
    """No binary sequence satisfies the interferer power bound."""
