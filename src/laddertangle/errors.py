"""Exception types shared across the package."""


class LadderError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(LadderError, ValueError):
    """A physical parameter is out of its allowed range."""


class ConfigError(LadderError, ValueError):
    """A configuration document is malformed or inconsistent."""


class NoSteadyStateError(LadderError):
    """The atomic drift generator is not dissipative; no unique steady state."""


class ResonanceError(LadderError):
    """The atomic resolvent is singular at the requested Fourier frequency."""


class DivergenceError(LadderError):
    """Field propagation produced non-finite output (runaway gain)."""


class UnsupportedOrderError(LadderError, ValueError):
    """A quadrature order outside the supported range was requested."""


class ContractError(LadderError, ValueError):
    """Caller violated an interface contract (shape/length mismatch)."""
