"""Exception types shared across the package, and the one rule for numeric inputs.

:func:`positive`, :func:`nonnegative` and :func:`finite` check every element of
each keyword value (None is absent) and raise ``DomainError("<name> must be
<rule>, got <value>")`` at the first that fails; NaN fails all three.
"""

from math import inf

import numpy as np


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


# Real scalars and flat lists of them are checked in plain Python: numpy's
# per-call overhead would dominate a check of a few numbers.
_SCALARS = (int, float, np.integer, np.floating)


def _check(values: dict, rule: str, ok, ok_array) -> None:
    for name, v in values.items():
        if isinstance(v, _SCALARS):
            if ok(v):
                continue
            v = [v]
        if type(v) is list and (not v or isinstance(v[0], _SCALARS)):
            bad = [x for x in v if not ok(x)]
        elif v is None:
            continue
        else:
            a = np.asarray(v)
            good = ok_array(a)
            bad = () if good.all() else a[~good]
        if len(bad):
            raise DomainError(f"{name} must be {rule}, got {bad[0]}")


def positive(**values) -> None:
    """Raise DomainError unless every element of every value lies in (0, inf)."""
    _check(values, "positive and finite", lambda x: 0 < x < inf, lambda a: (a > 0) & (a < inf))


def nonnegative(**values) -> None:
    """Raise DomainError unless every element of every value lies in [0, inf)."""
    _check(values, "nonnegative and finite", lambda x: 0 <= x < inf,
           lambda a: (a >= 0) & (a < inf))


def finite(**values) -> None:
    """Raise DomainError unless every element of every value, real or complex, is finite."""
    _check(values, "finite", lambda x: -inf < x < inf, np.isfinite)
