"""Exception types shared across the package."""


class NetreconError(Exception):
    """Base class for package-specific failures."""


class FormatError(NetreconError):
    """A binary container (IDX file, model file, query-set file) is malformed."""


class ConsistencyError(NetreconError):
    """Two files that must describe the same data disagree with each other."""


class DegenerateDataError(NetreconError):
    """The data cannot support the requested operation (e.g. zero variance)."""


class DivergenceError(NetreconError):
    """Training produced a non-finite loss."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite training loss at step {step}")


class ConfigError(NetreconError):
    """An experiment config file is missing, malformed, or inconsistent."""


class EmptyReconstructionError(NetreconError, ValueError):
    """No neuron cluster spans enough students to be accepted (m = 0)."""
