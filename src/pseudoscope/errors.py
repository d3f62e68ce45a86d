"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Dimension or structural mismatch in an input."""


class ExperimentError(RuntimeError):
    """A Monte Carlo run violated its own validity requirements."""


class ConfigError(ValueError):
    """Malformed run configuration; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
