import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from itkit import bessel
from itkit.bessel import hankel_h1
from itkit.errors import DomainError, StabilityError

ORDERS = [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4]
ALL_ORDERS = [k / 2 for k in range(26)]  # 0 to 12.5


class TestAgainstReference:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("z", [0.3, 1.0, 5.0, 14.0, 20.0, 100.0, 1000.0])
    def test_j_and_y(self, order, z):
        h = hankel_h1(order, z)
        assert h.real == pytest.approx(sp.jv(order, z), rel=1e-9, abs=1e-12)
        assert h.imag == pytest.approx(sp.yv(order, z), rel=1e-9, abs=1e-12)

    def test_integer_order_example(self):
        h = hankel_h1(2, 1.0)
        assert h.real == pytest.approx(0.1149035, abs=5e-8)
        assert h.imag == pytest.approx(-1.6506826, abs=5e-8)

    @given(order=st.sampled_from(ALL_ORDERS), z=st.floats(0.05, 2000.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_amos(self, order, z):
        ref = sp.hankel1(order, z)
        assert abs(hankel_h1(order, z) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("z", np.geomspace(0.05, 200.0, 12).tolist() + [500.0, 2000.0])
    def test_each_component_against_scipy(self, z):
        # J and Y each to their own relative accuracy where the order passes z, at
        # orders 0 to 120 and just past z; hankel1 is no J oracle where |Y| >> |J|.
        # Below the order J and Y oscillate through zeros, so each is held to |H|
        # there: scipy's own jv(89, 2000) is off by 1.3e-12 |H| (mpmath)
        orders = np.arange(0.0, 120.5, 0.5).tolist() + [math.floor(z) + d for d in (0.5, 1, 2, 10)]
        for order in orders:
            j, y = sp.jv(order, z), sp.yv(order, z)
            try:
                h = hankel_h1(order, z)
            except DomainError:  # |Y| beyond the float range
                assert not math.isfinite(y)
                continue
            tol = 0.0 if order > z else 1e-11 * abs(complex(j, y))
            if abs(j) > 1e-290:  # below that scipy's J loses digits to underflow
                assert h.real == pytest.approx(j, rel=1e-10, abs=tol), (order, z)
            if math.isfinite(y):
                assert h.imag == pytest.approx(y, rel=1e-9, abs=tol), (order, z)

    @pytest.mark.parametrize("order", ALL_ORDERS)
    def test_j_keeps_relative_accuracy_below_the_asymptotic_range(self, order):
        # J falls far below |H| once the order passes z; upward recurrence
        # alone would leave only |H|-relative accuracy there
        for z in np.geomspace(0.05, bessel.ASYMPTOTIC_FROM, 200, endpoint=False):
            assert hankel_h1(order, z).real == pytest.approx(sp.jv(order, z), rel=1e-10)


class TestHyperOrders:
    """Orders alpha = (3N - 2)/2 of the N-particle Green function across z = 15."""

    @pytest.mark.parametrize("n_particles", [4, 6, 8])
    @pytest.mark.parametrize("z", [15.1, 20.0, 40.0])
    def test_recurrence_and_amos(self, n_particles, z):
        a = (3 * n_particles - 2) / 2
        below, h, above = (hankel_h1(a + d, z) for d in (-1, 0, 1))
        assert abs(below + above - 2 * a / z * h) <= 1e-12 * max(abs(below), abs(above))
        assert abs(h - sp.hankel1(a, z)) <= 1e-12 * abs(sp.hankel1(a, z))

    @pytest.mark.parametrize("order", [9.5, 11.5])
    def test_high_half_order_at_small_z(self, order):
        # a Wronskian check at the requested order rejected these correct values
        assert hankel_h1(order, 0.2) == pytest.approx(sp.hankel1(order, 0.2), rel=1e-12)


class TestHankel:
    def test_half_order_closed_form(self):
        # H1_{1/2}(z) = -i sqrt(2/(pi z)) e^{iz}; at z = pi this is i sqrt(2)/pi
        val = hankel_h1(0.5, math.pi)
        assert val == pytest.approx(1j * math.sqrt(2.0) / math.pi, abs=1e-12)

    def test_is_j_plus_iy(self):
        for order in ORDERS:
            for z in (0.5, 2.0, 30.0):
                h = hankel_h1(order, z)
                assert h.real == pytest.approx(sp.jv(order, z), rel=1e-12, abs=1e-15)
                assert h.imag == pytest.approx(sp.yv(order, z), rel=1e-12, abs=1e-15)

    def test_large_argument_modulus(self):
        # |H1_a(z)| sqrt(pi z / 2) -> 1
        for order in (0.5, 2):
            scaled = abs(hankel_h1(order, 1e3)) * math.sqrt(math.pi * 1e3 / 2)
            assert scaled == pytest.approx(1.0, abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hankel_h1(0.5, 0.0)
        with pytest.raises(DomainError):
            hankel_h1(0.5, -1.0)
        with pytest.raises(DomainError):
            hankel_h1(0.3, 1.0)
        with pytest.raises(DomainError):
            hankel_h1(-1.0, 1.0)

    @pytest.mark.parametrize("order, z", [
        (math.nan, 1.0), (math.inf, 1.0), (2, math.inf), (2, math.nan), (0.5, math.inf)])
    def test_non_finite_rejected(self, order, z):
        with pytest.raises(DomainError):
            hankel_h1(order, z)

    @pytest.mark.parametrize("order, z", [(449, 30.0), (12.5, 1e-30), (2.5, 1e-300)])
    def test_overflow_is_typed(self, order, z):
        # |H| is beyond floating-point range at each of these
        with pytest.raises(DomainError, match="overflows"):
            hankel_h1(order, z)

    @pytest.mark.parametrize("order, z", [
        (0, 1e-300), (0.5, 1e-300), (1, 1e-300), (1.5, 1e-200), (2, 1e-150), (3, 1e-100)])
    def test_tiny_argument(self, order, z):
        # H is finite here although J_0 / J_30 far exceeds 1e308
        h = hankel_h1(order, z)
        assert h.real == pytest.approx(sp.jv(order, z), rel=1e-12)
        assert h.imag == pytest.approx(sp.yv(order, z), rel=1e-12)

    def test_tiny_argument_half_order_closed_form(self):
        z = 1e-300
        closed = -1j * math.sqrt(2.0 / (math.pi * z)) * complex(math.cos(z), math.sin(z))
        assert hankel_h1(0.5, z) == pytest.approx(closed, rel=1e-14)
        assert hankel_h1(0, z) == pytest.approx(
            1.0 + 2j / math.pi * (math.log(z / 2.0) + 0.5772156649015329), rel=1e-14)

    def test_subnormal_argument_rejected(self):
        with pytest.raises(DomainError, match="normal"):
            hankel_h1(0, 1e-310)

    @pytest.mark.parametrize("order", [1e6 + 0.5, 1e6])
    def test_far_order_rejected_before_any_table(self, order):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="overflows"):
                hankel_h1(order, 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000


class TestWronskian:
    @staticmethod
    def residual(order, z):
        """|J_{a+1} Y_a - J_a Y_{a+1} - 2/(pi z)| at order a."""
        w = (hankel_h1(order, z) * hankel_h1(order + 1.0, z).conjugate()).imag
        return abs(w - 2.0 / (math.pi * z))

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("z", [0.5, 1.0, 5.0, 50.0])
    def test_identity(self, order, z):
        assert self.residual(order, z) < 1e-10

    @given(z=st.floats(0.2, 200.0, allow_nan=False),
           order=st.sampled_from(ORDERS))
    @settings(max_examples=80, deadline=None)
    def test_identity_random(self, order, z):
        assert self.residual(order, z) * (math.pi * z / 2) < 1e-9

    def test_self_check_fires_on_a_bad_seed(self, monkeypatch):
        # each seed source in turn is put off by 1e-6: Miller/Neumann, asymptotic, closed form
        off = 1.0 + 1e-6
        seeds, asymptotic = bessel._integer_seeds, bessel._hankel_asymptotic
        for name, stub, order, z in [
            ("_integer_seeds", lambda j, x: tuple(off * h for h in seeds(j, x)), 5, 10.0),
            ("_hankel_asymptotic", lambda a, x: off * asymptotic(a, x), 5, 30.0),
            ("math", SimpleNamespace(**{**vars(math), "sqrt": lambda x: off * math.sqrt(x)}), 5.5, 10.0),
        ]:
            with monkeypatch.context() as patched:
                patched.setattr(bessel, name, stub)
                with pytest.raises(StabilityError):
                    hankel_h1(order, z)
