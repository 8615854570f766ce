"""Exception types shared across the package."""


class TheoremViolationError(RuntimeError):
    """An outcome that exact arithmetic proves impossible was observed.

    Raised only from branches that a theorem rules out (a singular Fourier
    minor, a failed support bound, ...).  Reaching it always indicates an
    implementation bug, never bad input; it exists so impossible branches
    fail loudly instead of being silently absorbed.
    """


class BudgetExceededError(RuntimeError):
    """A configured work budget (a size bound) was exhausted."""
