import pytest
from hypothesis import settings

# --hypothesis-profile=ci: 2,000 examples for the CI step that runs the %.17g
# kernel's bit-pattern property alone
settings.register_profile("ci", max_examples=2000)


@pytest.fixture
def axis_solves(monkeypatch):
    """Count make_interp_spline calls: one per axis of each field spline built."""
    import scipy.interpolate

    calls, solve = [], scipy.interpolate.make_interp_spline

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scipy.interpolate, "make_interp_spline", counting)
    return calls
