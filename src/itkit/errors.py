"""Exception types shared across the package."""


class ItkitError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ItkitError, ValueError):
    """Input outside the mathematical domain of an operation (e.g. T <= 0)."""


class RepresentationError(ItkitError, ValueError):
    """Field supplied in the wrong representation (position vs momentum)."""


class DegenerateInputError(ItkitError, ValueError):
    """Degenerate input such as a zero-norm field."""


class CoverageError(ItkitError, ValueError):
    """Grid does not cover the state or the requested region."""


class AliasingError(CoverageError):
    """Significant probability density at the grid boundary."""


class CausticError(ItkitError, ValueError):
    """Singular trajectory Jacobian (conjugate point / coalescing branches)."""


class SingularityError(ItkitError, ValueError):
    """Evaluation exactly at a singular point (e.g. coincident endpoints)."""


class SupportError(CoverageError):
    """A requested point lies outside the sampled support of a field."""


class StabilityError(ItkitError, ValueError):
    """Time step violates the stability bound of a propagation scheme."""


class ShapeError(ItkitError, ValueError):
    """Inconsistent array dimensions between related inputs."""


class InfeasibleError(ItkitError, ValueError):
    """No physically admissible solution exists for the given data."""


class FitError(ItkitError, RuntimeError):
    """Least-squares fit failed to converge."""
