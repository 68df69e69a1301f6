"""The four benchmark workloads.

Each workload is built from a seed (constructor: imports the itkit modules
it uses and makes its inputs), runs one job (``job``: itkit calls only,
this is what is timed) and checks the job's outputs (``check``: returns the
number of operations attempted and failed, raises ``checks.CheckFailed`` on
a wrong result).  Every job repeats the same operations, so the share of
failed operations is the same in every run.

Modules are called through their attributes (``self.propagate.x(...)``)
so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import checks


class JobFailed(RuntimeError):
    """A CLI command inside a job returned a nonzero exit code."""


def _run_cli(cli, argv: list[str]) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    if code != 0:
        raise JobFailed(f"itkit {' '.join(argv)} exited {code}: {sink.getvalue().strip()}")


def _write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def _read_csv(path: Path) -> np.ndarray:
    """Numeric columns of an itkit CSV (one comment line, one header line)."""
    return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)


class FreeImaging:
    """``itkit it-check`` on the README configuration, p0 and sigma_p jittered."""

    name = "free_imaging"
    TIMES = (250.0, 500.0, 1000.0, 2000.0)
    MASS = 1.0

    def __init__(self, seed: int, work: Path):
        from itkit import cli

        self.cli = cli
        rng = np.random.default_rng(seed)
        self.p0 = 1.0 + 0.05 * rng.uniform(-1.0, 1.0)
        self.sigma_p = 0.25 * (1.0 + 0.04 * rng.uniform(-1.0, 1.0))
        self.out = work / "out"
        cfg = _write_config(work / "it-check.cfg", {
            "mass": repr(self.MASS), "p0": repr(self.p0), "sigma_p": repr(self.sigma_p),
            "times": ", ".join(f"{t:g}" for t in self.TIMES),
        })
        self.argv = ["it-check", "--config", str(cfg), "--out", str(self.out)]

    def job(self):
        _run_cli(self.cli, self.argv)

    def load(self) -> list:
        """Arguments of ``checks.check_free_imaging`` read from the job's CSVs."""
        grids, exact, imaged = [], [], []
        for t in self.TIMES:
            e = _read_csv(self.out / f"exact_density_t{t:g}.csv")
            i = _read_csv(self.out / f"it_density_t{t:g}.csv")
            if not np.array_equal(e[:, 0], i[:, 0]):
                raise checks.CheckFailed(f"t={t:g}: exact and imaged CSVs use different grids")
            grids.append(e[:, 0])
            exact.append(e[:, 1])
            imaged.append(i[:, 1])
        reported = _read_csv(self.out / "error_vs_time.csv")
        if not np.array_equal(reported[:, 0], self.TIMES):
            raise checks.CheckFailed("error_vs_time.csv lists other times")
        return [self.MASS, self.p0, self.sigma_p, list(self.TIMES), grids, exact, imaged, list(reported[:, 1])]

    def check(self, _result) -> tuple[int, int]:
        checks.check_free_imaging(*self.load())
        return len(self.TIMES), 0


class FieldExtraction:
    """The paper's extraction case: a uniform field, alone and with a barrier.

    Field alone: split-operator evolution on 16,384 points x 2,000 steps and
    the uniform-field imaging map on the same 16,384-point grid, both against
    the Stark propagator.  Field plus a sampled Gaussian barrier: a forward
    and a time-reversed evolution on 8,192 points x 800 steps.
    """

    name = "field_extraction"
    MASS = 1.0
    T = 40.0
    SIGMA_P = 3.0
    N_FIELD, STEPS_FIELD, EXTENT_FIELD = 16384, 2000, 2000.0
    N_POT, STEPS_POT, EXTENT_POT, T_POT = 8192, 800, 240.0, 20.0

    def __init__(self, seed: int, work: Path):
        from itkit import core, propagate

        self.propagate = propagate
        rng = np.random.default_rng(seed)
        m = self.MASS
        self.force = 4e-3 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
        field = core.UniformField([self.force])

        drift = self.force * self.T ** 2 / (2.0 * m)
        self.grid = core.centered_grid_1d(self.EXTENT_FIELD, self.N_FIELD, drift)
        x = self.grid.axis(0)
        sigma_x = 1.0 / (2.0 * self.SIGMA_P)
        self.psi0 = (2.0 * math.pi * sigma_x ** 2) ** -0.25 * np.exp(-x ** 2 / (4.0 * sigma_x ** 2))
        self.field0 = core.ComplexField(self.grid, core.POSITION, self.psi0)
        self.spec_field = propagate.EvolutionSpec(m, 0.0, self.T, self.STEPS_FIELD, field=field)
        pgrid = core.centered_grid_1d(32.0 * self.SIGMA_P, 8192, 0.0)
        p = pgrid.axis(0)
        phi0 = (2.0 * math.pi * self.SIGMA_P ** 2) ** -0.25 * np.exp(-p ** 2 / (4.0 * self.SIGMA_P ** 2))
        self.phi0 = core.ComplexField(pgrid, core.MOMENTUM, phi0)

        self.grid_pot = core.centered_grid_1d(self.EXTENT_POT, self.N_POT, 0.0)
        y = self.grid_pot.axis(0)
        p_in, sigma_x_in, start = 2.0, 1.0, -20.0
        self.pot_psi0 = (2.0 * math.pi * sigma_x_in ** 2) ** -0.25 * np.exp(
            -(y - start) ** 2 / (4.0 * sigma_x_in ** 2) + 1j * p_in * y)
        self.barrier = rng.uniform(1.2, 1.8) * np.exp(-(y - rng.uniform(3.0, 7.0)) ** 2)
        self.pot_field0 = core.ComplexField(self.grid_pot, core.POSITION, self.pot_psi0)
        self.spec_pot = propagate.EvolutionSpec(m, 0.0, self.T_POT, self.STEPS_POT,
                                                field=field, potential=self.barrier)
        self._stark = None

    def job(self):
        prop = self.propagate
        alone = prop.evolve_split_operator(self.field0, self.spec_field)
        mapped = prop.it_field_uniform(self.phi0, self.grid, self.T, 0.0, self.MASS, [self.force])
        forward = prop.evolve_split_operator(self.pot_field0, self.spec_pot)
        back = prop.evolve_split_operator(forward.with_values(np.conj(forward.values)), self.spec_pot)
        return alone.values, mapped.density(), forward.values, np.conj(back.values)

    def check(self, result) -> tuple[int, int]:
        alone, mapped, forward, back = result
        if self._stark is None:
            self._stark = checks.stark_propagate(self.psi0, self.grid.axis(0), self.MASS, self.force, self.T)
        checks.check_field_alone(alone, self._stark)
        checks.check_it_field(mapped, self._stark)
        y = self.grid_pot.axis(0)
        checks.check_with_potential(self.pot_psi0, forward, back, self.grid_pot.spacing[0], self.MASS,
                                    self.barrier - self.force * y)
        return 3, 0


class Coincidence:
    """Delay inversion (closed form and Brent), 3-fragment events, and
    ``itkit coincidence`` simulate and fit on seeded Poisson datasets."""

    name = "coincidence"
    N_PAIRS = 1001
    N_TRIPLES = 200
    N_DATASETS = 12
    # pair model at desk-scale kinematics; this event count puts 200
    # expected counts in the peak bin of the default 121-bin grid
    SIGMA, BIG_SIGMA, ENERGY, N_EVENTS = 1.0, 10.0, 8.0, 7371.527
    SIGMA_INIT, BIG_SIGMA_INIT = 0.8, 12.0
    MASSES3 = np.array([1.0, 1.5, 2.0])
    DISTANCES3 = np.array([1.0, 1.2, 0.8])

    def __init__(self, seed: int, work: Path):
        from itkit import cli, coincidence

        self.cli, self.coin = cli, coincidence
        rng = np.random.default_rng(seed)
        self.taus = np.sort(rng.uniform(-5.0, 5.0, self.N_PAIRS))
        # 3-fragment events: momenta on the energy shell (E = 1), away from 0
        u = np.abs(rng.normal(size=(4 * self.N_TRIPLES, 3)))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u = u[np.all(u > 0.2, axis=1)][: self.N_TRIPLES]
        self.p3 = np.sqrt(2.0 * self.MASSES3) * u
        t = self.MASSES3 * self.DISTANCES3 / self.p3
        self.delays3 = t[:, 1:] - t[:, :1]
        # sigma the fit must find: the model's kappa with Sigma pinned at its initial value
        kappa = 1.0 / self.BIG_SIGMA ** 2 - 1.0 / (4.0 * self.SIGMA ** 2)
        self.sigma_expected = 0.5 / math.sqrt(1.0 / self.BIG_SIGMA_INIT ** 2 - kappa)
        common = {"mass": "1.0", "distance": "1.0", "energy": repr(self.ENERGY)}
        sim = _write_config(work / "simulate.cfg", {
            "mode": "simulate", **common, "sigma": repr(self.SIGMA),
            "Sigma": repr(self.BIG_SIGMA), "n_events": repr(self.N_EVENTS)})
        self.runs = []
        for k in range(self.N_DATASETS):
            out = work / f"dataset{k}"
            fit = _write_config(work / f"fit{k}.cfg", {
                "mode": "fit", **common, "data": str(out / "dataset.csv"),
                "sigma_init": repr(self.SIGMA_INIT), "Sigma_init": repr(self.BIG_SIGMA_INIT)})
            self.runs.append((out,
                              ["coincidence", "--config", str(sim), "--out", str(out),
                               "--seed", str(seed * 100 + k)],
                              ["coincidence", "--config", str(fit), "--out", str(out)]))

    def job(self):
        coin = self.coin
        closed = [coin.invert_delays_pair(float(tau), 1.0, 1.0) for tau in self.taus]
        numeric = [coin.invert_delays_numeric(coin.DelayObservation([1.0, 1.0], [1.0, 1.0], 1.0, [float(tau)]))
                   for tau in self.taus]
        multi = [coin.invert_delays_numeric(coin.DelayObservation(self.MASSES3, self.DISTANCES3, 1.0, d))
                 for d in self.delays3]
        for _, simulate, fit in self.runs:
            _run_cli(self.cli, simulate)
            _run_cli(self.cli, fit)
        return closed, numeric, multi

    def check(self, result) -> tuple[int, int]:
        closed, numeric, multi = result
        checks.check_pair_inversion(self.taus, closed, numeric, 1.0, 1.0)
        checks.check_multi_inversion(self.p3, multi, self.MASSES3, self.DISTANCES3, 1.0, self.delays3)
        for out, _, _ in self.runs:
            curve = _read_csv(out / "curve.csv")
            checks.check_curve(curve[:, 0], curve[:, 3])
            checks.check_dataset(_read_csv(out / "dataset.csv")[:, 1], self.N_EVENTS)
            report = json.loads((out / "fit.json").read_text())
            checks.check_fit(report["sigma"], self.sigma_expected)
        return self.N_PAIRS + len(self.p3) + 2 * self.N_DATASETS, 0


class Scattering:
    """``itkit xsec`` over 37 angles and a hyperspherical Green-function scan.

    The scan crosses z = 15, where ``itkit.bessel`` switches integer orders
    from series to asymptotics.  Points with N in {4, 6, 8} and 15 < z <= 40
    are known to fail there (StabilityError or a wrong value); they are
    counted as failed operations.  A failure anywhere else is an error.
    """

    name = "scattering"
    N_ANGLES = 37
    N_PARTICLES = (1, 2, 3, 4, 5, 6, 8)
    Z_VALUES = (2.0, 5.0, 10.0, 14.9, 15.1, 20.0, 40.0, 80.0)
    MASS = 1.0
    # the scan does not depend on the seed, so its failures repeat exactly
    GREEN_ENERGY = 0.5

    def __init__(self, seed: int, work: Path):
        from itkit import cli, scatter

        self.cli, self.scatter = cli, scatter
        rng = np.random.default_rng(seed)
        self.v0 = 0.01 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0))
        self.a = 1.0 + 0.1 * rng.uniform(-1.0, 1.0)
        self.energy = 0.5 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))
        self.out = work / "out"
        cfg = _write_config(work / "xsec.cfg", {
            "v0": repr(self.v0), "a": repr(self.a), "mass": repr(self.MASS),
            "energy": repr(self.energy), "n_angles": str(self.N_ANGLES)})
        self.argv = ["xsec", "--config", str(cfg), "--out", str(self.out)]
        self.points = []
        for n in self.N_PARTICLES:
            config = scatter.hyper_config([1.0] * n, 1.0, self.GREEN_ENERGY)
            for z in self.Z_VALUES:
                self.points.append((n, z, config, z / config.hyper_momentum))
        self.out.mkdir(parents=True, exist_ok=True)
        self._refs = None

    def job(self):
        from itkit.errors import StabilityError

        _run_cli(self.cli, self.argv)
        values, rows = [], []
        for n, _, config, sep in self.points:
            try:
                g = self.scatter.green_hyper_hankel(config, sep)
            except StabilityError:
                g = None
            else:
                rows.append((sep, self.GREEN_ENERGY, g, f"hyper-hankel-N{n}"))
            values.append(g)
        self.scatter.green_scan_to_csv(rows, self.out / "greens.csv")
        return values

    @staticmethod
    def known_defect(n: int, z: float) -> bool:
        return n in (4, 6, 8) and 15.0 < z <= 40.0

    def check(self, values) -> tuple[int, int]:
        table = _read_csv(self.out / "xsec.csv")
        p = math.sqrt(2.0 * self.MASS * self.energy)
        q = 2.0 * p * np.sin(np.radians(table[:, 0]) / 2.0)
        checks.check_born(table[:, 1] + 1j * table[:, 2], checks.born_gaussian(self.v0, self.a, self.MASS, q))
        if len(table) != self.N_ANGLES:
            raise checks.CheckFailed(f"xsec.csv has {len(table)} angles")
        if self._refs is None:
            self._refs = [checks.hankel_reference(n, 1.0, self.GREEN_ENERGY, sep)
                          for n, _, _, sep in self.points]
        failed = 0
        for (n, z, _, _), value, ref in zip(self.points, values, self._refs):
            if checks.hankel_point_ok(value, ref):
                continue
            if not self.known_defect(n, z):
                raise checks.CheckFailed(f"Hankel Green function wrong at N={n}, z={z:g}: {value} vs {ref}")
            failed += 1
        return self.N_ANGLES + len(self.points), failed


WORKLOADS = {w.name: w for w in (FreeImaging, FieldExtraction, Coincidence, Scattering)}
