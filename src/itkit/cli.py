"""Command-line front end.

Usage: itkit <command> --config <path> [--seed N] [--out DIR] [--ev] [--cm]

Commands: it-check, delays, coincidence, xsec, greens.  Configs are plain
``key = value`` lines with ``#`` comments; vectors are comma-separated.
All physics is in Hartree atomic units at the interface; --ev converts the
``energy`` key from eV and --cm converts distance keys from cm, on input
only.  Exit codes: 0 success, 2 config error, 3 infeasible physics,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

from . import coincidence as coin
from . import classical, imaging, propagate, scatter
from .core import (
    CM_TO_BOHR,
    EV_TO_HARTREE,
    GaussianPacketSpec,
    _write_csv,
    centered_grid_1d,
    sample_gaussian,
)
from .errors import DomainError, InfeasibleError, ItkitError, positive

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# Size bounds, refused before anything is allocated.  it-check grid points:
# 32x the default.  The other three keep a command's peak memory under ~1 GB,
# from tracemalloc peaks of in-process runs at 10^3 to 10^6 items.
MAX_IT_POINTS = 1 << 20
# xsec: ~37 kB per angle (the Born sum's 64 x 64 float block per angle),
# so 2^14 angles peak near 0.6 GB
MAX_ANGLES = 1 << 14
# coincidence: ~185 B per bin (curve, dataset and CSV block), so 2^22 bins
# peak near 0.8 GB
MAX_BINS = 1 << 22
# greens: ~1.2 kB per radius (three Python result rows), so 2^19 radii peak
# near 0.6 GB
MAX_RADII = 1 << 19
# greens: the Hankel recurrence and its Miller table take ~1.5 n_particles
# steps per radius; at 2^16 particles a radius takes up to 0.04 s (2-core host)
MAX_PARTICLES = 1 << 16
# every integer key is a count, read as lying in [1, bound]
COUNT_BOUNDS = {"n_points": MAX_IT_POINTS, "n_angles": MAX_ANGLES, "n_bins": MAX_BINS,
                "n_r": MAX_RADII, "n_particles": MAX_PARTICLES}


class ConfigError(Exception):
    pass


@contextmanager
def _config_values(error: type[Exception] = ConfigError):
    """Report a DomainError on config values as ``error``, a config error or infeasible physics."""
    try:
        yield
    except DomainError as exc:
        raise error(str(exc)) from exc


def parse_config(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        out[key] = value
    return out


class Config:
    """Typed accessors over the raw key-value map; tracks consumed keys."""

    def __init__(self, raw: dict[str, str], ev: bool = False, cm: bool = False):
        self.raw = raw
        self.used: set[str] = set()
        self.ev = ev
        self.cm = cm

    def _lookup(self, key: str, default, parse, expected: str):
        """Mark ``key`` used; give its default when absent, else ``parse`` its value.

        A default of None makes the key required.  A ``ValueError`` from
        ``parse`` is reported as the value not being ``expected``.
        """
        self.used.add(key)
        raw = self.raw.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required key '{key}'")
            return default
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {expected}: {raw!r}") from exc

    def _convert(self, key: str, value: float) -> float:
        if not math.isfinite(value):
            raise ConfigError(f"key '{key}': not a finite number: {value!r}")
        if self.ev and key == "energy":
            return value * EV_TO_HARTREE
        if self.cm and ("distance" in key or key == "r_min" or key == "r_max"):
            return value * CM_TO_BOHR
        return value

    def real(self, key: str, default: float | None = None) -> float:
        return self._lookup(key, default, lambda raw: self._convert(key, float(raw)),
                            "not a real number")

    def integer(self, key: str, default: int | None = None) -> int:
        value = self._lookup(key, default, int, "not an integer")
        if not 1 <= value <= COUNT_BOUNDS[key]:
            raise ConfigError(f"{key} must lie in [1, {COUNT_BOUNDS[key]}], got {value}")
        return value

    def vector(self, key: str, default=None) -> np.ndarray:
        values = self._lookup(key, default,
                              lambda raw: [self._convert(key, float(s)) for s in raw.split(",")],
                              "not a comma-separated vector")
        return np.asarray(values, dtype=float)

    def text(self, key: str, default: str | None = None) -> str:
        return self._lookup(key, default, str, "not text")

    def reject_unknown(self) -> None:
        unknown = set(self.raw) - self.used
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    def comment(self) -> str:
        return "config: " + " ".join(f"{k}={v}" for k, v in sorted(self.raw.items()))


def _percentile_region(density: np.ndarray) -> np.ndarray:
    """Boolean mask of the smallest point set holding 99% of the density."""
    order = np.argsort(density.ravel())[::-1]
    csum = np.cumsum(density.ravel()[order])
    k = int(np.searchsorted(csum, 0.99 * csum[-1])) + 1
    mask = np.zeros(density.size, dtype=bool)
    mask[order[:k]] = True
    return mask.reshape(density.shape)


def cmd_it_check(cfg: Config, out_dir: Path, seed: int | None) -> int:
    mass = cfg.real("mass", 1.0)
    p0 = cfg.real("p0", 1.0)
    sigma_p = cfg.real("sigma_p", 0.25)
    times = cfg.vector("times", [250.0, 500.0, 1000.0, 2000.0])
    n = cfg.integer("n_points", 32768)
    cfg.reject_unknown()
    # each time names its two density files with %g: a repeated time, or two
    # that print alike, would overwrite them
    seen: dict[str, float] = {}
    for t in times.tolist():
        label = f"{t:g}"
        if label in seen:
            raise ConfigError(f"times {seen[label]!r} and {t!r} both write "
                              f"exact_density_t{label}.csv; give each time once")
        seen[label] = t
    with _config_values():
        positive(mass=mass, times=times)
        packet = GaussianPacketSpec(p0=[p0], sigma_p=[sigma_p], r0=[0.0])
        pgrid = centered_grid_1d(40.0 * sigma_p, n, p0)
    xgrids = []
    for t in times.tolist():
        # on Python floats, so a centre or spread past the float range is inf, not a
        # numpy overflow warning, and the grid's guards name it
        center = p0 * t / mass
        spread = math.hypot(float(packet.sigma_x[0]), sigma_p * t / mass)
        xgrid = centered_grid_1d(30.0 * spread + 2.0 * abs(center), n, center)
        # the reference packet's momenta (6 sigma) must fit in the band |p| <= pi/dx
        # of its position grid, else it aliases and the error column is noise
        if (abs(p0) + 6.0 * sigma_p) * xgrid.spacing[0] > math.pi:
            raise ConfigError(f"n_points = {n} cannot resolve the packet at t = {t:g}: "
                              f"spacing {xgrid.spacing[0]:.3g} bohr")
        xgrids.append(xgrid)
    # Phi is the same at every t, so its spline is built once
    phi = sample_gaussian(packet, pgrid, "momentum")
    errors = []
    for t, xgrid in zip(times, xgrids):
        psi0 = sample_gaussian(packet, xgrid, "position")
        exact_psi = propagate.evolve_free_exact(psi0, mass, float(t))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            it_psi = imaging.apply_it_free(phi, mass, float(t), xgrid)
        for w in caught:
            print(f"warning: t={t:g}: {w.message}", file=sys.stderr)
        de, di = exact_psi.density(), it_psi.density()
        region = _percentile_region(de)
        err = float(np.max(np.abs(di[region] - de[region]) / de[region]))
        errors.append((float(t), err))
        imaging.density_to_csv(xgrid, de, out_dir / f"exact_density_t{t:g}.csv", cfg.comment())
        imaging.density_to_csv(xgrid, di, out_dir / f"it_density_t{t:g}.csv", cfg.comment())
    _write_csv(out_dir / "error_vs_time.csv", "time_au,max_relative_error",
               np.array(errors).reshape(-1, 2).T, cfg.comment())
    return EXIT_OK


def cmd_delays(cfg: Config, out_dir: Path, seed: int | None) -> int:
    masses = cfg.vector("masses")
    distances = cfg.vector("distances")
    energy = cfg.real("energy")
    delays = cfg.vector("delays")
    cfg.reject_unknown()
    with _config_values(InfeasibleError):
        obs = coin.DelayObservation(masses, distances, energy, delays)
    momenta = coin.invert_delays_numeric(obs)
    payload = {
        "momenta_au": [float(p) for p in momenta],
        "energy_au": energy,
        # the energy shares p^2 / 2m stay in range where p^2 may not
        "energy_residual": float(np.sum((momenta / np.sqrt(2 * masses)) ** 2) - energy),
    }
    coin.fit_report_to_json(payload, out_dir / "momenta.json")
    print(json.dumps(payload))
    return EXIT_OK


def cmd_coincidence(cfg: Config, out_dir: Path, seed: int | None) -> int:
    mode = cfg.text("mode", "simulate")
    mass = cfg.real("mass", 1.0)
    distance = cfg.real("distance")
    energy = cfg.real("energy")
    with _config_values():
        geometry = coin.PairGeometry(mass, distance)
    with _config_values(InfeasibleError):
        positive(energy=energy)
    if mode == "simulate":
        sigma = cfg.real("sigma")
        big_sigma = cfg.real("Sigma")
        tau_max = cfg.real("tau_max", 6.0)
        n_bins = cfg.integer("n_bins", 121)
        n_events = cfg.real("n_events", 0.0)
        cfg.reject_unknown()
        with _config_values():
            positive(tau_max=tau_max)
        if n_events > coin.MAX_EVENTS:
            raise ConfigError(f"n_events must be at most {coin.MAX_EVENTS:g}, got {n_events:g}")
        with _config_values():
            params = coin.PairModelParams(sigma, big_sigma)
        t0 = coin.characteristic_time(mass, distance, energy)
        grid = np.linspace(-tau_max * t0, tau_max * t0, n_bins)
        dt, p1, p2, prob = coin.coincidence_curve(geometry, params, energy, grid)
        coin.curve_to_csv(dt, p1, p2, prob, out_dir / "curve.csv", cfg.comment())
        if n_events > 0:
            ds = coin.synthesize_dataset(geometry, params, energy, n_events,
                                         seed if seed is not None else 0, grid)
            coin.dataset_to_csv(ds, out_dir / "dataset.csv", cfg.comment())
        return EXIT_OK
    if mode == "fit":
        data_path = Path(cfg.text("data"))
        sigma0 = cfg.real("sigma_init", 1.0)
        big0 = cfg.real("Sigma_init", 10.0)
        cfg.reject_unknown()
        if not data_path.is_file():
            raise ConfigError(f"data file not found: {data_path}")
        with _config_values():
            initial = coin.PairModelParams(sigma0, big0)
            ds = coin.dataset_from_csv(data_path, geometry, energy)
        params, scale, report = coin.fit_pair_model(ds, initial)
        coin.fit_report_to_json(report, out_dir / "fit.json")
        print(json.dumps({"sigma": params.sigma, "Sigma": params.Sigma, "scale": scale}))
        return EXIT_OK
    raise ConfigError(f"mode must be 'simulate' or 'fit', got {mode!r}")


def cmd_xsec(cfg: Config, out_dir: Path, seed: int | None) -> int:
    v0 = cfg.real("v0", 0.0)
    a = cfg.real("a", 1.0)
    mass = cfg.real("mass", 1.0)
    energy = cfg.real("energy")
    n_angles = cfg.integer("n_angles", 19)
    cfg.reject_unknown()
    with _config_values():
        positive(mass=mass, a=a)
    with _config_values(InfeasibleError):
        positive(energy=energy)
    p = classical._positive_float("momentum", *classical._momentum_frexp(mass, energy))

    def potential(x, y, z):
        # in units of a: a square past the float range is inf, and exp(-inf) = 0
        with np.errstate(over="ignore"):
            return v0 * np.exp(-((x / a) ** 2 + (y / a) ** 2 + (z / a) ** 2))

    angles = np.linspace(0.0, 180.0, n_angles)
    rad = np.radians(angles)
    p_out = p * np.stack([np.sin(rad), np.zeros(n_angles), np.cos(rad)], axis=-1)
    amps = np.zeros(n_angles, dtype=complex)
    if v0 != 0.0:
        amps = scatter.born_amplitude(potential, [0.0, 0.0, p], p_out, mass,
                                      extent=max(14.0 * a, 14.0))
    _write_csv(out_dir / "xsec.csv", "angle_deg,f_re,f_im,dsigma_domega_au",
               [angles, amps.real, amps.imag, scatter.cross_section(amps)], cfg.comment())
    return EXIT_OK


def cmd_greens(cfg: Config, out_dir: Path, seed: int | None) -> int:
    n_particles = cfg.integer("n_particles", 1)
    energy = cfg.real("energy")
    r_min = cfg.real("r_min")
    r_max = cfg.real("r_max")
    n_r = cfg.integer("n_r", 50)
    mu = cfg.real("mu", 1.0)
    mass = cfg.real("mass", 1.0)
    cfg.reject_unknown()
    with _config_values():
        positive(mass=mass, mu=mu)
    with _config_values(InfeasibleError):
        positive(energy=energy)
    config = scatter.hyper_config([mass] * n_particles, mass if n_particles == 1 else mu, energy)
    rows = []
    for R in np.linspace(r_min, r_max, n_r):
        if R <= 0:
            print(f"note: skipping nonpositive radius {R:g}", file=sys.stderr)
            continue
        if n_particles == 1:
            r, origin = [R, 0.0, 0.0], [0.0, 0.0, 0.0]
            w = classical.characteristic_action_W_free(r, origin, energy, mass)
            d = classical.density_D_free(r, origin, energy, mass)
            rows.append((R, energy, scatter.green_free(r, origin, energy, mass), "exact-free"))
            rows.append((R, energy, scatter.green_semiclassical(w, d), "semiclassical"))
        else:
            rows.append((R, energy, scatter.green_hyper_asymptotic(config, R), "hyper-asymptotic"))
        rows.append((R, energy, scatter.green_hyper_hankel(config, R), "hyper-hankel"))
    scatter.green_scan_to_csv(rows, out_dir / "greens.csv", cfg.comment())
    return EXIT_OK


COMMANDS = {
    "it-check": cmd_it_check,
    "delays": cmd_delays,
    "coincidence": cmd_coincidence,
    "xsec": cmd_xsec,
    "greens": cmd_greens,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="itkit", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=Path("."))
    parser.add_argument("--ev", action="store_true",
                        help="interpret the 'energy' key in eV and convert")
    parser.add_argument("--cm", action="store_true",
                        help="interpret distance keys in cm and convert")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        raw = parse_config(args.config)
        cfg = Config(raw, ev=args.ev, cm=args.cm)
        args.out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ItkitError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
