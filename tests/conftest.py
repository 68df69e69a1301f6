import pytest
from hypothesis import settings

# --hypothesis-profile=ci: 2,000 examples for the CI steps that run the %.17g
# kernel's bit-pattern property, the spline's oracle property, the exact free
# step's composition property, the pair fit's oracle property, the pair
# inversion's scalar/array property, the binary-exponent forms' plain-formula
# and mpmath property and the xsec magnitude fuzz alone
settings.register_profile("ci", max_examples=2000)


@pytest.fixture
def axis_solves(monkeypatch):
    """Count core._not_a_knot_axis calls: one per axis of each field spline built."""
    from itkit import core

    calls, solve = [], core._not_a_knot_axis

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(core, "_not_a_knot_axis", counting)
    return calls
