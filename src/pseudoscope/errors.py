"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Dimension or structural mismatch in an input."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge.

    Diagnostics (last iterate, residual, per-root flags) are attached as
    keyword attributes so callers can inspect the failure.
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        for key, value in diagnostics.items():
            setattr(self, key, value)
        self.diagnostics = diagnostics


class ExperimentError(RuntimeError):
    """A Monte Carlo run violated its own validity requirements."""


class ConfigError(ValueError):
    """Malformed run configuration; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
