"""Binary-exponent forms across the float range.

Each closed form below keeps binary exponents apart, through
``classical._sqrt_frexp`` and ``classical._ldexp`` or the on-shell momentum
and free flight time built on them.  Its inputs are drawn at 10^U(-300, 300).
Where every intermediate of the plain formula is a normal float, the form
gives the plain formula's bits.  Elsewhere it lies within its rounding bound
of the mpmath value, or raises DomainError exactly where that value is no
float: beyond the largest one or, for a form that must be positive, below
half the least subnormal.  Within a few roundings of either edge both
outcomes are allowed.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itkit import classical, coincidence, scatter
from itkit.errors import DomainError

mp.mp.prec = 120
U = 2.0 ** -53  # unit roundoff
TINY = 2.0 ** -1074
BIG = sys.float_info.max
MAGNITUDE = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


def _normal(*xs) -> bool:
    return all(sys.float_info.min <= abs(x) <= BIG for x in xs)


def _plain(formula):
    """The plain formula on Python floats with its intermediates, or None where one raises."""
    try:
        return formula()
    except (OverflowError, ZeroDivisionError):
        return None


# Each form maps four drawn magnitudes to (call, plain, exact, bound).  ``call`` gives a
# tuple of floats, ``exact`` their mpmath values, and ``plain`` the plain formula's
# values where all its intermediates are normal floats (else None).  ``bound`` is the
# number of unit roundoffs the form may carry: one per rounded product or quotient, and
# half of those under a square root plus its own.

def _characteristic_time(m, r, E, _):
    steps = _plain(lambda: (m * r, m * r * r, m * r * r / E))
    plain = (math.sqrt(steps[-1]),) if steps and _normal(*steps) else None
    exact = mp.sqrt(mp.mpf(m) * mp.mpf(r) ** 2 / mp.mpf(E))
    return lambda: (coincidence.characteristic_time(m, r, E),), plain, (exact,), 2.5


def _pair_root(path):
    # at tau = 0 both momenta are sqrt(mE) itself: every other factor is exactly 1
    def form(m, E, *_):
        tau = 0.0 if path == "floats" else np.zeros(1)
        plain = (math.sqrt(m * E),) * 2 if _normal(m * E) else None

        def call():
            return tuple(float(np.asarray(p).ravel()[0])
                         for p in coincidence.invert_delays_pair(tau, m, E))

        return call, plain, (mp.sqrt(mp.mpf(m) * mp.mpf(E)),) * 2, 1.5
    return form


def _flight(m, R, E, _):
    # T = m R / sqrt(2 m E) and dT/dE = -T / 2E: a DomainError where either is no float
    steps = _plain(lambda: (m * R, 2.0 * m, 2.0 * m * E, 2.0 * E))
    T = steps[0] / math.sqrt(steps[2]) if steps and _normal(*steps) else None
    plain = (T, -T / steps[3]) if T is not None and _normal(T, T / steps[3]) else None
    exact = mp.mpf(m) * R / mp.sqrt(2 * mp.mpf(m) * E)
    return (lambda: classical.time_of_flight_free([R], [0.0], E, m), plain,
            (exact, -exact / (2 * mp.mpf(E))), 4.5)


def _action(m, R, E, _):
    steps = _plain(lambda: (2.0 * m, 2.0 * m * E, math.sqrt(2.0 * m * E) * R))
    plain = steps[-1:] if steps and _normal(*steps) else None
    exact = mp.sqrt(2 * mp.mpf(m) * E) * R
    return lambda: (classical.characteristic_action_W_free([R], [0.0], E, m),), plain, (exact,), 2.5


def _density(m, mu, E, R):
    # D = T / (2E) C(T) for two particles of masses m and mu.  C is a product of frexp
    # mantissa powers, which moves by an ulp against the plain product (van_vleck_time),
    # so D is held to mpmath alone.  D goes as T^-5, so T's 3.5 roundoffs count five
    # times; each cube of m / T adds 3 for the quotient and 1 for pow (0.52 ulp); the
    # product of the mantissas, T / 2E and their product add 3
    config = scatter.hyper_config([m, mu], mu, E)
    T = mp.mpf(mu) * R / mp.sqrt(2 * mp.mpf(mu) * E)
    exact = T / (2 * mp.mpf(E)) * (mp.mpf(m) / T) ** 3 * (mp.mpf(mu) / T) ** 3
    return lambda: (scatter.density_D_N(config, R),), None, (exact,), 28.5


FORMS = {
    "characteristic_time": _characteristic_time,
    "pair_sqrt_mE_floats": _pair_root("floats"),
    "pair_sqrt_mE_arrays": _pair_root("arrays"),
    "flight_time": _flight,
    "action_W": _action,
    "density_D_N": _density,
}


def _outcome(call):
    try:
        return call()
    except DomainError:
        return None


def _check(got, exact, bound: float) -> None:
    """``got`` (None for a DomainError) against the mpmath values ``exact``."""
    sizes = [abs(v) for v in exact]
    if any(abs(s - BIG) <= 2 * bound * U * BIG or TINY / 4 < s < 2 * TINY for s in sizes):
        return  # rounding decides between a float and a DomainError
    if any(s > BIG or s < TINY / 2 for s in sizes):
        assert got is None, f"{got!r} where a value of {exact} is no float"
        return
    assert got is not None, f"DomainError where the values are {exact}"
    for g, v, s in zip(got, exact, sizes):
        error = abs(mp.mpf(g) - v)
        assert error <= bound * U * s + 2 * TINY, \
            f"{g!r} is {mp.nstr(error / s / U, 3)} roundoffs from {mp.nstr(v, 17)}"


@pytest.mark.parametrize("name", FORMS)
@given(args=st.tuples(MAGNITUDE, MAGNITUDE, MAGNITUDE, MAGNITUDE))
@example(args=(1e200, 1e-100, 1e200, 1.0))
@example(args=(1e-200, 1e100, 1e-200, 1.0))
@example(args=(1e300, 1e-300, 1e300, 1.0))
@example(args=(1.0, 1.0, 1.0, 1.0))
@settings(deadline=None)
def test_binary_exponent_form(name, args):
    call, plain, exact, bound = FORMS[name](*args)
    got = _outcome(call)
    if plain is not None:
        assert got is not None and [g.hex() for g in got] == [p.hex() for p in plain], (got, plain)
    _check(got, exact, bound)


@given(MAGNITUDE, MAGNITUDE)
@example(1e154, 1e-155)  # one width past 2^511, the other below 2^-511
@example(3.5e-155, 7e-155)  # both terms past the float range, their difference not
@example(1e-160, 1e-160)
@settings(deadline=None)
def test_binary_exponent_form_kappa(sigma, Sigma):
    # kappa keeps the plain formula's bits wherever it gives a finite float, normal
    # intermediates or not (test_kappa_is_a_float_or_a_domain_error holds it to that).
    # Elsewhere it is a difference of two terms, each within 3 roundoffs: the square
    # (pow, within 0.52 ulp), its inverse and the difference
    plain = _plain(lambda: 1.0 / Sigma ** 2 - 1.0 / (4.0 * sigma ** 2))
    got = _outcome(lambda: coincidence._kappa(coincidence.PairModelParams(sigma, Sigma)))
    if plain is not None and math.isfinite(plain):
        assert got is not None and got.hex() == plain.hex()
        return
    t1, t2 = 1 / mp.mpf(Sigma) ** 2, 1 / (4 * mp.mpf(sigma) ** 2)
    exact, slack = t1 - t2, 3 * U * (t1 + t2) + 2 * TINY
    if abs(exact) > BIG + slack:
        assert got is None
    elif abs(exact) < BIG - slack:
        assert got is not None and abs(mp.mpf(got) - exact) <= slack


@pytest.mark.parametrize("m, R, E, T", [
    (1e200, 1e-100, 1e200, 1e-100 / math.sqrt(2.0)),
    (1e-200, 1e100, 1e-200, 1e100 / math.sqrt(2.0)),
])
def test_flight_time_where_the_plain_formula_fails(m, R, E, T):
    # the plain m R / sqrt(2 m E) gave (0.0, -0.0) and a bare ZeroDivisionError here
    t, slope = classical.time_of_flight_free([R], [0.0], E, m)
    assert t == pytest.approx(T, rel=4 * U, abs=0.0)
    assert slope == pytest.approx(-T / (2.0 * E), rel=6 * U, abs=0.0)


def test_flight_slope_past_the_float_range_is_typed():
    # dT/dE = -T / 2E at E = 1e-320 is about -3.5e479: the plain formula gave -inf
    with pytest.raises(DomainError, match="dT/dE"):
        classical.time_of_flight_free([1.0], [0.0], 1e-320, 1.0)


@pytest.mark.parametrize("m, E, R, W", [(1e200, 1e200, 1e-100, 1e100 * math.sqrt(2.0)),
                                        (1e-200, 1e-200, 1e100, 1e-100 * math.sqrt(2.0))])
def test_action_where_the_plain_formula_fails(m, E, R, W):
    # sqrt(2 m E) overflowed to inf and underflowed to 0: W was inf and 0.0
    W_free = classical.characteristic_action_W_free([R], [0.0], E, m)
    assert W_free == pytest.approx(W, rel=4 * U, abs=0.0)
