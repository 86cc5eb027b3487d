"""Exception hierarchy.

Validation errors signal bad inputs or configuration (CLI exit code 2),
numerics errors signal a computation that cannot proceed accurately
(CLI exit code 3).
"""


class TweezersimError(Exception):
    """Base class for all package errors."""


class ValidationError(TweezersimError):
    """Invalid input, configuration value, or precondition violation (``field``: the input at fault)."""

    def __init__(self, *args, field: str = None):
        super().__init__(*args)
        self.field = field


class GridMismatchError(ValidationError):
    """Frequency grids do not overlap or are incompatible."""


class NumericsError(TweezersimError):
    """A numerical guard tripped; results would not be trustworthy."""


class TruncationError(NumericsError):
    """Motional population would leak past the Fock-space truncation."""


class StepSizeError(NumericsError):
    """Time step too coarse for the requested evolution."""


class FitError(TweezersimError):
    """Base class for fitting failures."""


class FitConvergenceError(FitError):
    """Optimizer did not converge within the iteration budget."""


class DegenerateWidthError(FitError):
    """Fitted peak collapsed below the grid resolution (no resolvable peak)."""
