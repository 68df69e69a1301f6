"""One input rule across the public surface.

Every public callable of the library modules has one valid call in ``CALLS``,
and so do the public methods that take numbers ("module.Class.method", called
with an instance first).
The walk replaces each numeric argument in turn (for a vector, its first
element) with NaN, +inf, -inf, 0 and -1.  The call must then raise an
ItkitError or return a finite result, with numerical warnings as errors.  A
new public callable without an entry here fails
``test_table_names_every_public_callable``.

The AST test keeps the rule in one place: outside ``itkit.errors`` no module
compares a number against 0 or inf in an ``if`` that raises DomainError.
"""

import ast
import dataclasses
import inspect
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from itkit import bessel, classical, coincidence, core, imaging, propagate, scatter
from itkit.errors import DomainError, ItkitError, finite, nonnegative, positive

MODULES = (core, classical, propagate, imaging, coincidence, scatter, bessel)
BAD = (math.nan, math.inf, -math.inf, 0.0, -1.0)
SRC = Path(core.__file__).resolve().parent

# valid inputs: a packet on a 64-point grid, its momentum field, a field at a
# macroscopic detector, and small pair and hyperspherical configurations
GRID = core.centered_grid_1d(40.0, 64)
PSI = core.sample_gaussian(core.GaussianPacketSpec([1.0], [0.5]), GRID)
PHI = core.to_momentum(PSI)
FAR = core.ComplexField(core.centered_grid_1d(40.0, 64, 2000.0), core.POSITION,
                        np.exp(-(core.centered_grid_1d(40.0, 64, 2000.0).axis(0) - 2000.0) ** 2))
R_GRID = core.centered_grid_1d(40.0, 64, 5.0)
SPEC = propagate.EvolutionSpec(1.0, 0.0, 1.0, 10, potential=0.01 * np.exp(-GRID.axis(0) ** 2))
GEOM = coincidence.PairGeometry(1.0, 1.0)
PARAMS = coincidence.PairModelParams(1.0, 10.0)
DATASET = coincidence.synthesize_dataset(GEOM, PARAMS, 8.0, 1000.0, 0)
OBS = coincidence.DelayObservation([1.0, 1.5], [1.0, 1.2], 1.0, [0.3])
HYPER = scatter.hyper_config([1.0, 2.0], 1.0, 0.5)
HYPER300 = scatter.hyper_config([1.0] * 300, 1.0, 0.5)
CSV = object()  # replaced by a dataset file written for the call


def _mixed_action(p, r, T):
    return classical.action_S_tilde_uniform(r, p, T, 1.0)


def _bump(x, y, z):
    return np.exp(-(x * x + y * y + z * z))


# "module.name": (positional arguments, keyword arguments) of one valid call
CALLS = {
    "core.UniformField": (([0.01],), {}),
    "core.Grid": (((64,), (0.5,), (-16.0,)), {}),
    "core.centered_grid_1d": ((40.0, 64, 1.0), {}),
    "core.ComplexField": ((GRID, core.POSITION, PSI.values, 0.5), {}),
    "core.check_boundary": ((PSI, "walk"), {}),
    "core.normalize": ((PSI,), {}),
    "core.to_momentum": ((PSI,), {}),
    "core.to_position": ((PHI, GRID), {}),
    "core.GaussianPacketSpec": (([1.0], [0.5], [0.5]), {}),
    "core.sample_gaussian": ((core.GaussianPacketSpec([1.0], [0.5]), GRID), {}),
    "classical.Trajectory": (([0.0], [1.0], 1.0, [2.0], [1.0], 3.0, 1.0), {}),
    "classical.action_S_uniform": (([1.0], [0.5], 2.0, 1.0, [0.01]), {}),
    "classical.action_S_tilde_uniform": (([1.0], [0.5], 2.0, 1.0, [0.01]), {}),
    "classical.stationary_momentum": (([1.0], [0.5], 2.0, 1.0, [0.01]), {}),
    "classical.van_vleck_time": (([1.0, 2.0], [2.0, 3.0], 3), {}),
    "classical.characteristic_action_W_free": (([1.0, 0.5, 0.5], [0.5, 0.5, 0.5], 0.5, 2.0), {}),
    "classical.time_of_flight_free": (([1.0, 0.5, 0.5], [0.5, 0.5, 0.5], 0.5, 2.0), {}),
    "classical.density_D_free": (([1.0, 0.5, 0.5], [0.5, 0.5, 0.5], 0.5, 2.0), {}),
    "classical.enumerate_trajectories_uniform_1d": ((0.5, 1.0, 0.5, 2.0, 0.1), {}),
    "propagate.EvolutionSpec": ((2.0, 0.5, 1.0, 10, core.UniformField([0.01]), np.ones(64)), {}),
    "propagate.evolve_free_exact": ((PSI, 2.0, 1.0), {}),
    "propagate.evolve_split_operator": ((PSI, SPEC), {}),
    "propagate.kernel_mixed_semiclassical": (([1.0], [0.5], 2.0, 0.5, 2.0, [0.01]), {}),
    "propagate.kernel_position_semiclassical": (([1.0], [0.5], 2.0, 0.5, 2.0, [0.01]), {}),
    "propagate.interpolate_field": ((PHI, np.array([[0.5], [9.0]])), {"fill": 0.5}),
    "propagate.spa_integrate": ((PHI, _mixed_action, [5.0], 10.0, 0.5), {}),
    "propagate.it_field_uniform": ((PHI, R_GRID, 10.0, 0.5, 2.0, [0.01]), {}),
    "imaging.DetectorPatch": (([2000.0], 1e-4, 0.5), {}),
    "imaging.ITResult": ((0.5, [0.5], 0.1, 0.3), {}),
    "imaging.apply_it_free": ((PHI, 2.0, 10.0, R_GRID), {}),
    "imaging.it_density": (([0.5, 1.0], [0.1, 0.2]), {}),
    "imaging.it_point": ((PHI, 2.0, 10.0, [5.0]), {}),
    "imaging.detection_probability": ((FAR, imaging.DetectorPatch([2000.0], 1e-4, 0.5)), {}),
    "imaging.momentum_density_from_hits": (([0.5, 1.0], [2000.0, 2100.0], 100.0, 2.0, 1), {}),
    "imaging.many_particle_it": ((PHI, [2.0], [10.0], [[5.0]]), {}),
    "imaging.incident_amplitude": ((PHI, 2.0, 10.0, [-5.0]), {}),
    "imaging.incident_density": ((PHI, 2.0, 10.0, [-5.0]), {}),
    "imaging.chained_density": (([0.5, 1.0], 2.0), {}),
    "coincidence.DelayObservation": (([1.0, 1.5], [1.0, 1.2], 1.0, [0.3]), {}),
    "coincidence.PairModelParams": ((1.0, 10.0), {}),
    "coincidence.PairGeometry": ((1.0, 2.0), {}),
    "coincidence.CoincidenceDataset": (
        ([0.5, 1.0, 1.5], [1.0, 2.0, 1.0], GEOM, 8.0), {}),
    "coincidence.characteristic_time": ((2.0, 1.0, 8.0), {}),
    "coincidence.invert_delays_pair": ((0.3, 2.0, 1.0), {}),
    "coincidence.invert_delays_numeric": ((OBS,), {}),
    "coincidence.pair_model_momentum_density": (([0.5, 0.5, 1.0], [0.5, 0.5, -1.0], PARAMS), {}),
    "coincidence.coincidence_curve": ((GEOM, PARAMS, 8.0, [0.5, 1.0, 1.5]), {}),
    "coincidence.synthesize_dataset": ((GEOM, PARAMS, 8.0, 1000.0, 2, [0.5, 1.0, 1.5]), {}),
    "coincidence.fit_pair_model": ((DATASET, PARAMS), {}),
    "coincidence.dataset_from_csv": ((CSV, GEOM, 8.0), {}),
    "scatter.green_free": (([1.0, 0.5, 0.5], [0.5, 0.5, 0.5], 0.5, 2.0), {}),
    "scatter.green_semiclassical": ((1.0, 2.0), {}),
    "scatter.ti_it_density": ((0.5, 1.0, 10.0), {}),
    "scatter.amplitude_from_momentum_wfn": ((0.5, 2.0, 0.5), {}),
    "scatter.born_amplitude": ((_bump, [0.5, 0.5, 1.0], [1.0, 0.5, 0.5], 2.0, 14.0), {}),
    "scatter.cross_section": ((0.5 + 0.1j,), {}),
    "scatter.detection_probability_ti": ((0.5 + 0.1j, 1.0, 1.0, 2.0, 0.1, 0.01), {}),
    "scatter.HyperConfig": ((np.array([1.0, 2.0]), 1.0, 0.5), {}),
    "scatter.hyper_config": (([1.0, 2.0], 2.0, 0.5), {}),
    "scatter.HyperConfig.hyper_radius": ((HYPER, [[1.0, 0.5, 0.5], [0.5, 0.5, 1.0]]), {}),
    "scatter.HyperConfig.hyper_separation": (
        (HYPER, [[1.0, 0.5, 0.5], [0.5, 0.5, 1.0]], [[0.5, 0.5, 0.5], [0.5, 1.0, 0.5]]), {}),
    "scatter.characteristic_time_N": (([1.0, 2.0], [1.0, 2.0], 0.5), {}),
    "scatter.hyper_action": ((HYPER, 2.0), {}),
    "scatter.vv_hyper": ((HYPER, 2.0), {}),
    "scatter.density_D_N": ((HYPER, 2.0), {}),
    "scatter.green_hyper_asymptotic": ((HYPER, 2.0), {}),
    "scatter.green_hyper_hankel": ((HYPER, 2.0), {}),
    "scatter.n_particle_amplitude": ((0.5 + 0.1j, HYPER), {}),
    "bessel.hankel_h1": ((2, 3.0), {}),
}

# writers serialise whatever they are given, NaN included, as text
EXEMPT = {
    "core.field_to_csv", "classical.trajectories_to_csv", "imaging.density_to_csv",
    "coincidence.dataset_to_csv", "coincidence.curve_to_csv", "coincidence.fit_report_to_json",
    "scatter.green_scan_to_csv",
}

# a field may hold any values; the operations that evolve it check them (check_boundary)
NOT_WALKED = {("core.ComplexField", 2)}


def public_callables() -> set[str]:
    return {f"{mod.__name__.split('.')[-1]}.{name}"
            for mod in MODULES for name, obj in vars(mod).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == mod.__name__}


def all_finite(x) -> bool:
    """Every number in ``x``, through containers, arrays and dataclasses, is finite."""
    if x is None or isinstance(x, (str, bool)):
        return True
    if isinstance(x, (int, float, complex, np.number)):
        return bool(np.isfinite(x))
    if isinstance(x, np.ndarray):
        return all(map(all_finite, x.flat)) if x.dtype == object else bool(np.all(np.isfinite(x)))
    if isinstance(x, (list, tuple)):
        return all(map(all_finite, x))
    if isinstance(x, dict):
        return all(map(all_finite, x.values()))
    if dataclasses.is_dataclass(x):
        return all(all_finite(getattr(x, f.name)) for f in dataclasses.fields(x))
    raise TypeError(f"no finiteness rule for {type(x).__name__}")


def bad_versions(value):
    """``value`` with its number, or its first element, replaced by each bad value.

    An integer keeps its type for 0 and -1.
    """
    if isinstance(value, bool):
        return
    if isinstance(value, (int, np.integer)):
        yield from (math.nan, math.inf, -math.inf, 0, -1)
    elif isinstance(value, (float, complex, np.number)):
        yield from BAD
    elif isinstance(value, (list, tuple, np.ndarray)):
        a = np.asarray(value)
        if a.size and a.dtype.kind in "iufc":
            for bad in BAD:
                b = a.astype(complex if a.dtype.kind == "c" else float)
                b.flat[0] = bad
                yield b


def call(fn, args, kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)  # apply_it_free's far-field note
        return fn(*args, **kwargs)


def _first(bad):
    return np.ravel(bad)[0] if isinstance(bad, np.ndarray) else bad


def resolve(name: str):
    module, *attrs = name.split(".")
    obj = next(m for m in MODULES if m.__name__.endswith(f".{module}"))
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("rule", [positive, nonnegative, finite])
@pytest.mark.parametrize("x", [1.0, 5e-324, 0.0, -0.0, -5e-324, -1.0, 1.7e308,
                               math.inf, -math.inf, math.nan])
def test_plain_floats_match_the_array_path(rule, x):
    # Python floats and lists of them are compared in plain Python; arrays, and
    # lists holding one, go through numpy.  Both pass and fail alike, and name
    # the same first bad element.
    def outcome(**values):
        try:
            rule(**values)
        except DomainError as exc:
            return str(exc)
        return None

    for plain, array in [(x, np.array(x)), ([1.0, x, -1.0], np.array([1.0, x, -1.0])),
                         ([x, 2.0], [np.array(x), 2.0])]:
        assert outcome(a=1.0, v=plain, w=None) == outcome(a=1.0, v=array, w=None)


RULES = {positive: lambda x: 0 < x < math.inf, nonnegative: lambda x: 0 <= x < math.inf,
         finite: lambda x: -math.inf < x < math.inf}


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("v", [0, 1, -1, True, 10 ** 400, np.int64(-1), np.uint8(0), np.float64(0.0),
                               np.float32(0.0), np.float32(-0.0), np.float32(-1.0), np.float16(1.0),
                               np.float32(np.nan), np.longdouble(0.0), [0, 1], [1, -1],
                               [np.float32(0.0), 2], [2, np.float32(-1.0)]])
def test_ints_and_numpy_scalars_follow_each_rule(rule, v):
    # ints, np.integer and np.float64 are compared in plain Python; narrower and
    # wider floats go through numpy, which keeps a float32 zero nonnegative
    try:
        rule(v=v)
    except DomainError:
        passed = False
    else:
        passed = True
    assert passed == all(RULES[rule](x) for x in (v if isinstance(v, list) else [v]))


def test_table_names_every_public_callable():
    assert {name for name in CALLS if name.count(".") == 1} | EXEMPT == public_callables()
    assert not set(CALLS) & EXEMPT


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_numbers_raise_or_give_finite_results(name, tmp_path):
    fn = resolve(name)
    args, kwargs = CALLS[name]
    if any(a is CSV for a in args):
        coincidence.dataset_to_csv(DATASET, tmp_path / "data.csv")
        args = tuple(tmp_path / "data.csv" if a is CSV else a for a in args)
    assert all_finite(call(fn, args, kwargs)), f"{name}: the valid call is not finite"
    slots = list(enumerate(args)) + list(kwargs.items())
    leaks = []
    for slot, value in slots:
        if (name, slot) in NOT_WALKED:
            continue
        for bad in bad_versions(value):
            new_args = tuple(bad if i == slot else a for i, a in enumerate(args))
            new_kwargs = {k: bad if k == slot else v for k, v in kwargs.items()}
            try:
                result = call(fn, new_args, new_kwargs)
            except ItkitError:
                continue
            except Exception as exc:  # an untyped failure is a leak too
                leaks.append(f"argument {slot} = {_first(bad)}: {type(exc).__name__}: {exc}")
                continue
            if not all_finite(result):
                leaks.append(f"argument {slot} = {_first(bad)}: non-finite result")
    assert not leaks, f"{name}:\n" + "\n".join(leaks)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fn, args, expected", [
    # the result is beyond the float range: a DomainError naming it
    pytest.param(coincidence.characteristic_time, (1e300, 1e300, 1e-300), "characteristic_time",
                 id="characteristic_time-overflows"),
    pytest.param(classical.van_vleck_time, (1e200, 1e-200), "van_vleck_factor",
                 id="van_vleck_time-overflows"),
    pytest.param(scatter.green_free, ([1e308, 0.0, 0.0], [-1e308, 0.0, 0.0], 0.5), "distance",
                 id="green_free-distance-overflows"),
    pytest.param(classical.van_vleck_time, (1e-200, 1e200), "van_vleck_factor",
                 id="van_vleck_time-underflows"),
    pytest.param(scatter.green_free, ([1e-300, 0.0, 0.0], [0.0, 0.0, 0.0], 0.5, 1e300), "|G|",
                 id="green_free-modulus-overflows"),
    pytest.param(scatter.green_free, ([1e300, 0.0, 0.0], [0.0, 0.0, 0.0], 1e300, 1e300), "phase",
                 id="green_free-phase-overflows"),
    # C = (1 / dR)^900 and D = (1 / dR)^899 for 300 unit masses: a Python float's
    # power raises OverflowError, a numpy float's warns, and an underflow gives 0
    pytest.param(scatter.vv_hyper, (HYPER300, 0.2), "van_vleck_factor", id="vv_hyper-overflows"),
    pytest.param(scatter.vv_hyper, (HYPER300, np.float64(0.2)), "van_vleck_factor",
                 id="vv_hyper-numpy-overflows"),
    pytest.param(scatter.vv_hyper, (HYPER300, 30.0), "van_vleck_factor", id="vv_hyper-underflows"),
    pytest.param(scatter.density_D_N, (HYPER300, 0.2), "density_D", id="density_D_N-overflows"),
    pytest.param(scatter.density_D_N, (HYPER300, np.float64(0.2)), "density_D",
                 id="density_D_N-numpy-overflows"),
    pytest.param(scatter.density_D_N, (HYPER300, 30.0), "density_D", id="density_D_N-underflows"),
    # T = mu dR / P = 10^310 leaves the float range and D = T^-5 / (2E) with it
    pytest.param(scatter.density_D_N, (scatter.hyper_config([1.0, 1.0], 1e20, 0.5), 1e300),
                 "density_D", id="density_D_N-huge-separation-and-mu"),
    # only an intermediate leaves it: the value, here its modulus, comes back
    pytest.param(coincidence.characteristic_time, (1e300, 1e-300, 1e300), 1e-300,
                 id="characteristic_time-quotient-underflows"),
    pytest.param(coincidence.characteristic_time, (1e-300, 1e300, 1e-300), 1e300,
                 id="characteristic_time-quotient-overflows"),
    pytest.param(coincidence.characteristic_time, (1e-300, 1e-10, 1e-300), 1e-10,
                 id="characteristic_time-product-subnormal"),
    pytest.param(classical.van_vleck_time, ([1e150, 1e-150], [1.0, 1.0]), 1.0,
                 id="van_vleck_time-factors-leave-range"),
    pytest.param(classical.van_vleck_time, ([1e-200, 1e100], [1.0, 1.0]), 1e-300,
                 id="van_vleck_time-factor-underflows"),
    pytest.param(scatter.green_free, ([1e300, 0.0, 0.0], [-1e300, 0.0, 0.0], 0.5),
                 1.0 / (2.0 * math.pi * 2e300), id="green_free-squares-overflow"),
    # eta = 10^900 and (P / dR)^900 = 10^-900 for 300 masses of 10, where C = (m / T)^900 = 1
    pytest.param(scatter.vv_hyper, (scatter.hyper_config([10.0] * 300, 1.0, 0.5), 10.0), 1.0,
                 id="vv_hyper-factors-leave-range"),
    # T = 10^400 leaves it, D = m^3 / (mu dR^2) does not
    pytest.param(scatter.density_D_N, (scatter.hyper_config([1e200], 1e200, 0.5), 1e300), 1e-200,
                 id="density_D_N-flight-time-overflows"),
    # P = sqrt(2 mu E) underflows to 0, D = m^3 / (mu dR^2) does not
    pytest.param(scatter.density_D_N, (scatter.hyper_config([1.0], 1e-200, 1e-200), 3.0), 1e200 / 9,
                 id="density_D_N-momentum-underflows"),
])
def test_results_beyond_the_float_range(fn, args, expected):
    if isinstance(expected, str):
        with pytest.raises(DomainError, match=re.escape(expected)):
            fn(*args)
    else:
        assert abs(fn(*args)) == pytest.approx(expected, rel=1e-15, abs=0.0)


def _range_guards(tree: ast.AST):
    """Lines of ``if`` statements that compare against 0 or inf and raise DomainError."""

    def bound(node):
        if isinstance(node, ast.Constant):
            return type(node.value) in (int, float) and node.value == 0
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return bound(node.operand)
        return (isinstance(node, ast.Attribute) and node.attr == "inf"
                or isinstance(node, ast.Name) and node.id == "inf")

    def compares(test):
        return any(isinstance(n, ast.Compare)
                   and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in n.ops)
                   and any(bound(x) for x in [n.left, *n.comparators])
                   for n in ast.walk(test))

    def raises_domain(body):
        return any(isinstance(n, ast.Raise) and n.exc is not None
                   and "DomainError" in ast.unparse(n.exc).split("(")[0]
                   for stmt in body for n in ast.walk(stmt))

    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.If) and compares(n.test) and raises_domain(n.body)]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "errors.py"))
def test_no_hand_written_range_guard(path):
    lines = _range_guards(ast.parse((SRC / path).read_text()))
    assert not lines, f"{path}: range guards at lines {lines}; call the itkit.errors helpers"


def test_range_guard_scan_sees_each_form():
    source = (
        "if x <= 0:\n    raise DomainError('x')\n"
        "if not 0 < y < math.inf:\n    raise DomainError('y')\n"
        "if z > -np.inf:\n    raise errors.DomainError('z')\n"
        "if r == 0.0:\n    raise DomainError('singular')\n"
        "if w < 0:\n    raise CausticError('w')\n"
        "if v >= inf:\n    raise DomainError('v')\n"
    )
    assert _range_guards(ast.parse(source)) == [1, 3, 5, 11]
