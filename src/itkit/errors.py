"""Exception types shared across the package, and the one rule for numeric inputs.

:func:`positive`, :func:`nonnegative` and :func:`finite` check every element of
each keyword value (None is absent) and raise ``DomainError("<name> must be
<rule>, got <value>")`` at the first that fails; NaN fails all three.
"""

import math
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


# Real scalars and flat lists of them are checked in plain Python, one chained
# comparison lo < x < inf per number: numpy's per-call overhead would dominate a
# check of a few numbers.  Other numpy floats (float32 among them) go through
# numpy: compared with one, a Python bound would be rounded to its precision.
_SCALARS = (float, int, np.integer)
# 0 <= x is this < x on Python floats and ints: no float lies strictly between it and 0
_BELOW_ZERO = -math.ulp(0.0)


def _check(values: dict, rule: str, lo: float, ok_array) -> None:
    for name, v in values.items():
        if isinstance(v, _SCALARS) and lo < v < inf or v is None:
            continue
        # stop at the first element that fails, or that only numpy can judge
        for x in v if type(v) is list else (v,):
            if not (isinstance(x, _SCALARS) and lo < x < inf):
                break
        else:
            continue
        if isinstance(x, _SCALARS):
            bad = (x,)
        else:
            a = np.asarray(v)
            good = ok_array(a)
            bad = () if good.all() else a[~good]
        if len(bad):
            raise DomainError(f"{name} must be {rule}, got {bad[0]}")


def _positive_array(a):
    return (a > 0) & (a < inf)


def _nonnegative_array(a):
    return (a >= 0) & (a < inf)


def positive(**values) -> None:
    """Raise DomainError unless every element of every value lies in (0, inf)."""
    _check(values, "positive and finite", 0.0, _positive_array)


def nonnegative(**values) -> None:
    """Raise DomainError unless every element of every value lies in [0, inf)."""
    _check(values, "nonnegative and finite", _BELOW_ZERO, _nonnegative_array)


def finite(**values) -> None:
    """Raise DomainError unless every element of every value, real or complex, is finite."""
    _check(values, "finite", -inf, np.isfinite)
