import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv, yv

from itkit import imaging
from itkit.classical import characteristic_action_W_free, density_D_free
from itkit.cli import COUNT_BOUNDS, MAX_ANGLES, MAX_BINS, MAX_PARTICLES, MAX_RADII, main, parse_config
from itkit.core import GaussianPacketSpec, sample_gaussian
from itkit.propagate import evolve_free_exact
from itkit.scatter import green_semiclassical


def write_config(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def run(tmp_path, command, config_text, extra=None):
    cfg = write_config(tmp_path, config_text)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if extra:
        argv += extra
    return main(argv), out


def written_numbers(out):
    """Every number in the CSV and JSON files a command wrote to ``out``."""
    numbers = []

    def walk(value):
        if isinstance(value, (list, dict)):
            for v in value.values() if isinstance(value, dict) else value:
                walk(v)
        elif isinstance(value, (int, float)):
            numbers.append(float(value))

    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
            numbers += [float(v) for line in rows[1:] for v in line.split(",")]
        elif path.suffix == ".json":
            walk(json.loads(path.read_text()))
    return numbers


class TestConfigParsing:
    def test_unknown_key(self, tmp_path):
        code, _ = run(tmp_path, "delays",
                      "masses = 1,1\ndistances = 1,1\nenergy = 1\n"
                      "delays = 0.5\nbogus = 3\n")
        assert code == 2

    def test_malformed_line(self, tmp_path):
        code, _ = run(tmp_path, "delays", "masses 1,1\n")
        assert code == 2

    def test_duplicate_key(self, tmp_path):
        code, _ = run(tmp_path, "delays",
                      "masses = 1,1\nmasses = 1,1\ndistances = 1,1\n"
                      "energy = 1\ndelays = 0\n")
        assert code == 2

    def test_missing_config_file(self, tmp_path):
        code = main(["delays", "--config", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_missing_required_key(self, tmp_path):
        code, _ = run(tmp_path, "delays", "masses = 1,1\n")
        assert code == 2

    def test_comments_and_blank_lines(self, tmp_path):
        code, out = run(tmp_path, "delays",
                        "# a comment\n\nmasses = 1,1  # inline\n"
                        "distances = 1,1\nenergy = 1\ndelays = 0\n")
        assert code == 0
        assert (out / "momenta.json").is_file()


class TestDelaysCommand:
    def test_pair_reference_values(self, tmp_path, capsys):
        # tau = 1 in natural units: DeltaT = tau * sqrt(m r^2 / E) = 1
        code, out = run(tmp_path, "delays",
                        "masses = 1,1\ndistances = 1,1\nenergy = 1\ndelays = 1\n")
        assert code == 0
        payload = json.loads((out / "momenta.json").read_text())
        p = payload["momenta_au"]
        assert p[0] == pytest.approx(1.2966300, abs=1e-6)
        assert p[1] == pytest.approx(0.5645795, abs=1e-6)
        assert abs(payload["energy_residual"]) < 1e-12
        assert json.loads(capsys.readouterr().out)["momenta_au"] == p

    def test_symmetric_three_fragments(self, tmp_path):
        code, out = run(tmp_path, "delays",
                        "masses = 1,1,1\ndistances = 1,1,1\nenergy = 1.5\n"
                        "delays = 0,0\n")
        assert code == 0
        p = json.loads((out / "momenta.json").read_text())["momenta_au"]
        assert np.allclose(p, 1.0, atol=1e-9)

    def test_infeasible_physics(self, tmp_path):
        # nonpositive energy parses but cannot describe a fragmentation
        code, _ = run(tmp_path, "delays",
                      "masses = 1,1\ndistances = 1,1\nenergy = -1\ndelays = 0\n")
        assert code == 3

    def test_wrong_delay_count_infeasible(self, tmp_path):
        code, _ = run(tmp_path, "delays",
                      "masses = 1,1\ndistances = 1,1\nenergy = 1\ndelays = 0,0\n")
        assert code == 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("config, code, momenta", [
        # solvable, but the Brent bracket search reported "did not converge"
        ("masses = 1.0, 0.1\ndistances = 1.0, 0.1\nenergy = 1.0\ndelays = -1000\n", 0,
         [9.999776398146242e-4, 0.4472134837015449]),
        # p1 = 1.4e-400 has no float: exit 3, where the Brent solver crashed
        # with ZeroDivisionError (a traceback and exit 1)
        ("masses = 1e-200, 1.0\ndistances = 1e-200, 1.0\nenergy = 1.0\ndelays = 0.0\n", 3, None),
    ], ids=["early_light_fragment", "underflowing_momentum"])
    def test_extreme_geometry(self, tmp_path, capsys, config, code, momenta):
        assert run(tmp_path, "delays", config)[0] == code
        if momenta is None:
            assert capsys.readouterr().err.startswith("infeasible:")
        else:
            p = json.loads(capsys.readouterr().out)["momenta_au"]
            np.testing.assert_allclose(p, momenta, rtol=4e-16, atol=0)


class TestItCheckCommand:
    def test_default_scenario(self, tmp_path):
        code, out = run(tmp_path, "it-check",
                        "times = 500,1000\nn_points = 16384\n")
        assert code == 0
        lines = (out / "error_vs_time.csv").read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "time_au,max_relative_error"
        errs = [float(l.split(",")[1]) for l in lines[2:]]
        assert errs[1] < errs[0]
        assert (out / "exact_density_t500.csv").is_file()
        assert (out / "it_density_t1000.csv").is_file()

    @pytest.mark.parametrize("times, named", [
        ("250, 250", "250.0 and 250.0"),
        ("500, 250, 2.5e2", "250.0 and 250.0"),
        # distinct times that name the same files
        ("1000000, 1000001", "1000000.0 and 1000001.0"),
    ])
    def test_repeated_time_is_config_error(self, tmp_path, capsys, times, named):
        # a repeat used to run twice, overwrite its files and repeat its error row
        code, out = run(tmp_path, "it-check", f"times = {times}\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert named in err
        assert not any(out.glob("*.csv"))

    def test_exact_density_is_the_library_propagator(self, tmp_path, monkeypatch):
        # the reference column is evolve_free_exact's density, bit for bit
        grids, write = {}, imaging.density_to_csv

        def recording(grid, density, path, comment=None):
            grids[path.name] = grid
            write(grid, density, path, comment)

        monkeypatch.setattr(imaging, "density_to_csv", recording)
        code, out = run(tmp_path, "it-check", "times = 500, 1000\nn_points = 16384\n")
        assert code == 0
        packet = GaussianPacketSpec(p0=[1.0], sigma_p=[0.25], r0=[0.0])
        for t in (500, 1000):
            grid = grids[f"exact_density_t{t}.csv"]
            psi0 = sample_gaussian(packet, grid, "position")
            written = np.loadtxt(out / f"exact_density_t{t}.csv", delimiter=",", skiprows=2)[:, 1]
            assert np.array_equal(written, evolve_free_exact(psi0, 1.0, float(t)).density())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("config", ["sigma_p = 1e200", "sigma_p = 1e-200",
                                        "times = 1e300", "mass = 1e-300"])
    def test_extreme_magnitudes_are_typed(self, tmp_path, config):
        # the grid's centre and spread once overflowed in numpy scalar powers,
        # a RuntimeWarning traceback under this filter
        code, _ = run(tmp_path, "it-check", f"{config}\nn_points = 8192\n")
        assert code == 2

    def test_near_field_warning(self, tmp_path, capsys):
        # the library's warning, reported once as one line
        code, _ = run(tmp_path, "it-check", "times = 5\nn_points = 8192\n")
        assert code == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: t=5:")
        assert err.count("far-field") == 1


class TestCoincidenceCommand:
    def test_simulate_then_fit_round_trip(self, tmp_path):
        code, out = run(tmp_path, "coincidence",
                        "mode = simulate\ndistance = 1\nenergy = 8\n"
                        "sigma = 1\nSigma = 10\nn_events = 30000\n",
                        extra=["--seed", "42"])
        assert code == 0
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[1] == "delta_t_au,p1_au,p2_au,probability"
        probs = [float(l.split(",")[3]) for l in curve[2:]]
        assert max(probs) == pytest.approx(1.0)
        assert int(np.argmax(probs)) == 60

        fit_cfg = (f"mode = fit\ndistance = 1\nenergy = 8\n"
                   f"data = {out / 'dataset.csv'}\nsigma_init = 0.8\n")
        code2 = main(["coincidence", "--config",
                      str(write_config(tmp_path, fit_cfg, "fit.txt")),
                      "--out", str(out)])
        assert code2 == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["sigma"] == pytest.approx(1.0, rel=0.10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("energy, n_events, fit_code", [(3.67, 1000, 0), (10.0, 5000, 4)])
    def test_proton_pair(self, tmp_path, capsys, energy, n_events, fit_code):
        # e^(-mE (1/4 sigma^2 + 1/Sigma^2)) underflows for protons: the curve
        # once came out as zeros, and synthesis failed on a NaN mean
        code, out = run(tmp_path, "coincidence",
                        f"mode = simulate\nmass = 1836\ndistance = 1\nenergy = {energy}\n"
                        f"sigma = 1\nSigma = 10\nn_events = {n_events}\n", extra=["--seed", "3"])
        assert code == 0
        probs = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=2)[:, 3]
        assert probs.max() == 1.0
        np.testing.assert_allclose(probs, probs[::-1], rtol=1e-12, atol=0)
        counts = np.loadtxt(out / "dataset.csv", delimiter=",", skiprows=2)[:, 1]
        assert abs(counts.sum() - n_events) < 5.0 * math.sqrt(n_events)
        fit_cfg = (f"mode = fit\nmass = 1836\ndistance = 1\nenergy = {energy}\n"
                   f"data = {out / 'dataset.csv'}\n")
        code = main(["coincidence", "--config", str(write_config(tmp_path, fit_cfg, "fit.txt")),
                     "--out", str(out)])
        assert code == fit_code
        if fit_code == 0:
            assert json.loads((out / "fit.json").read_text())["sigma"] == pytest.approx(1.0, rel=0.1)
        else:
            # the widths fit, but e^1443, the scale, is no float
            assert "log(scale)" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("distance", [1e-300, 1e-100, 1e52, 1e60, 1e300])
    def test_extreme_distance(self, tmp_path, capsys, distance):
        # (p1 p2 / r^2)^3 once under- or overflowed here, and the zero curve
        # became NaN Poisson means; the scaled curve does not depend on r
        code, out = run(tmp_path, "coincidence",
                        f"mode = simulate\ndistance = {distance:g}\nenergy = 8\n"
                        "sigma = 1\nSigma = 10\nn_events = 1000\n", extra=["--seed", "3"])
        assert code == 0
        probs = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=2)[:, 3]
        assert np.all(np.isfinite(probs)) and probs.max() == 1.0
        # the fitted scale, about counts r^6 / (p1 p2)^3, is no float
        fit_cfg = (f"mode = fit\ndistance = {distance:g}\nenergy = 8\n"
                   f"data = {out / 'dataset.csv'}\n")
        code = main(["coincidence", "--config", str(write_config(tmp_path, fit_cfg, "fit.txt")),
                     "--out", str(out)])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fit_does_not_depend_on_distance(self, tmp_path):
        sigmas = []
        for distance in ("1", "1e50"):
            code, out = run(tmp_path, "coincidence",
                            f"mode = simulate\ndistance = {distance}\nenergy = 8\n"
                            "sigma = 1\nSigma = 10\nn_events = 1000\n", extra=["--seed", "3"])
            assert code == 0
            fit_cfg = (f"mode = fit\ndistance = {distance}\nenergy = 8\n"
                       f"data = {out / 'dataset.csv'}\n")
            code = main(["coincidence", "--config", str(write_config(tmp_path, fit_cfg, "fit.txt")),
                         "--out", str(out)])
            assert code == 0
            sigmas.append(json.loads((out / "fit.json").read_text())["sigma"])
        assert sigmas[1] == pytest.approx(sigmas[0], rel=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("width", ["1e-200", "1e200"])
    @pytest.mark.parametrize("mode, key", [("simulate", "sigma"), ("simulate", "Sigma"),
                                           ("fit", "sigma_init"), ("fit", "Sigma_init")])
    def test_extreme_widths(self, tmp_path, fuzz_dir, mode, key, width):
        # kappa once raised a bare ZeroDivisionError or OverflowError from a
        # Python float's ** here, and the fit's covariance did at Sigma_init = 1e200
        keys = {"mode": mode, **(SIMULATE_KEYS if mode == "simulate" else FIT_KEYS), key: width}
        if mode == "fit":
            keys["data"] = str(fuzz_dir / "dataset.csv")
        code, out = run(tmp_path, "coincidence", "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert code in (0, 2, 3, 4)
        if code == 0:
            numbers = written_numbers(out)
            assert numbers and all(math.isfinite(x) for x in numbers)

    def test_missing_data_file(self, tmp_path):
        code, _ = run(tmp_path, "coincidence",
                      "mode = fit\ndistance = 1\nenergy = 8\ndata = /no/such.csv\n")
        assert code == 2

    def test_bad_mode(self, tmp_path):
        code, _ = run(tmp_path, "coincidence",
                      "mode = frobnicate\ndistance = 1\nenergy = 8\n")
        assert code == 2

    def test_simulate_deterministic(self, tmp_path):
        text = ("mode = simulate\ndistance = 1\nenergy = 8\n"
                "sigma = 1\nSigma = 10\nn_events = 5000\n")
        _, out1 = run(tmp_path, "coincidence", text, extra=["--seed", "7"])
        cfg = write_config(tmp_path, text, "again.txt")
        out2 = tmp_path / "out2"
        main(["coincidence", "--config", str(cfg), "--out", str(out2),
              "--seed", "7"])
        a = (out1 / "dataset.csv").read_text().splitlines()[1:]
        b = (out2 / "dataset.csv").read_text().splitlines()[1:]
        assert a == b

    def test_unit_conversion_flags(self, tmp_path):
        # 0.37 eV and 2 cm should land on the same curve as the same values
        # pre-converted to atomic units
        ev = 1.0 / 27.211386245988
        cm = 1.0 / 5.29177210903e-9
        _, out1 = run(tmp_path, "coincidence",
                      "mode = simulate\ndistance = 2\nenergy = 0.37\n"
                      "sigma = 1\nSigma = 10\nn_bins = 21\n",
                      extra=["--ev", "--cm"])
        cfg = write_config(
            tmp_path,
            f"mode = simulate\ndistance = {2 * cm:.17g}\n"
            f"energy = {0.37 * ev:.17g}\nsigma = 1\nSigma = 10\nn_bins = 21\n",
            "au.txt")
        out2 = tmp_path / "out2"
        main(["coincidence", "--config", str(cfg), "--out", str(out2)])
        a = (out1 / "curve.csv").read_text().splitlines()[2:]
        b = (out2 / "curve.csv").read_text().splitlines()[2:]
        for ra, rb in zip(a, b):
            va = [float(s) for s in ra.split(",")]
            vb = [float(s) for s in rb.split(",")]
            assert va == pytest.approx(vb, rel=1e-12)


class TestXsecCommand:
    def test_forward_value_and_row_count(self, tmp_path):
        code, out = run(tmp_path, "xsec",
                        "v0 = 0.01\na = 1\nenergy = 0.5\nn_angles = 181\n")
        assert code == 0
        lines = (out / "xsec.csv").read_text().splitlines()
        assert len(lines) == 183
        first = lines[2].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(7.8540e-5, rel=1e-4)

    def test_one_born_call_per_scan(self, tmp_path, monkeypatch):
        from itkit import scatter
        calls = []
        born = scatter.born_amplitude

        def counting(potential, p_in, p_out, *args, **kwargs):
            calls.append(np.shape(p_out))
            return born(potential, p_in, p_out, *args, **kwargs)

        monkeypatch.setattr(scatter, "born_amplitude", counting)
        code, out = run(tmp_path, "xsec", "v0 = 0.01\nenergy = 0.5\nn_angles = 7\n")
        assert code == 0
        assert calls == [(7, 3)]
        assert len((out / "xsec.csv").read_text().splitlines()) == 9

    def test_zero_potential(self, tmp_path):
        code, out = run(tmp_path, "xsec", "energy = 0.5\nn_angles = 19\n")
        assert code == 0
        lines = (out / "xsec.csv").read_text().splitlines()[2:]
        assert len(lines) == 19
        assert all(float(l.split(",")[3]) == 0.0 for l in lines)


class TestGreensCommand:
    def test_single_particle_scan(self, tmp_path):
        code, out = run(tmp_path, "greens",
                        "energy = 0.5\nr_min = 50\nr_max = 500\nn_r = 10\n")
        assert code == 0
        lines = (out / "greens.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines[2:]]
        by_form = {}
        for r in rows:
            by_form.setdefault(r[4], []).append(complex(float(r[2]), float(r[3])))
        assert len(by_form["exact-free"]) == 10
        for ge, gs in zip(by_form["exact-free"], by_form["semiclassical"]):
            assert abs(ge - gs) < 1e-12 * abs(ge)
        # the semiclassical column is classical's W and D, bit for bit
        for r in rows:
            if r[4] == "semiclassical":
                x = [float(r[0]), 0.0, 0.0]
                g = green_semiclassical(characteristic_action_W_free(x, [0.0] * 3, 0.5),
                                        density_D_free(x, [0.0] * 3, 0.5))
                assert complex(float(r[2]), float(r[3])) == g

    def test_nonpositive_radius_skipped(self, tmp_path, capsys):
        code, out = run(tmp_path, "greens",
                        "energy = 0.5\nr_min = 0\nr_max = 90\nn_r = 10\n")
        assert code == 0
        assert "skipping" in capsys.readouterr().err
        lines = (out / "greens.csv").read_text().splitlines()[2:]
        assert len(lines) == 9 * 3

    def test_two_particle_scan_converges(self, tmp_path):
        code, out = run(tmp_path, "greens",
                        "n_particles = 2\nmu = 0.5\nenergy = 1\n"
                        "r_min = 100\nr_max = 10000\nn_r = 12\n")
        assert code == 0
        rows = [l.split(",") for l in (out / "greens.csv").read_text().splitlines()[2:]]
        asym = [complex(float(r[2]), float(r[3])) for r in rows if r[4] == "hyper-asymptotic"]
        hank = [complex(float(r[2]), float(r[3])) for r in rows if r[4] == "hyper-hankel"]
        errs = [abs(a - h) / abs(h) for a, h in zip(asym, hank)]
        assert errs[-1] < errs[0]

    @pytest.mark.parametrize("n_particles", [4, 6, 7, 40])
    def test_many_particle_scan_matches_amos(self, tmp_path, n_particles):
        # integer (N = 4, 6, 40) and half-integer (N = 7) Hankel orders at z = 0.2
        # to 100; at N = 40 the order 59 passes z up to r = 59, where J << |Y|
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run(tmp_path, "greens",
                            f"n_particles = {n_particles}\nenergy = 0.5\n"
                            "r_min = 0.2\nr_max = 100\nn_r = 50\n")
        assert code == 0
        rows = [l.split(",") for l in (out / "greens.csv").read_text().splitlines()[2:]]
        hank = [[float(v) for v in r[:4]] for r in rows if r[4] == "hyper-hankel"]
        assert len(hank) == 50
        # unit masses, mu = 1 and E = 1/2 give P = 1 and eta = 1, so
        # G = -i c (J + iY) = c Y - i c J with c = 1 / (2 (2 pi R)^a)
        a = (3 * n_particles - 2) / 2
        for R, _, re, im in hank:
            c = 0.5 / (2 * math.pi) ** a / R ** a
            ref = complex(c * yv(a, R), -c * jv(a, R))
            assert abs(complex(re, im) - ref) <= 1e-10 * abs(ref)
            if a > R:  # J << |Y| here, so J is checked to its own relative accuracy
                assert abs(im - ref.imag) <= 1e-10 * abs(ref.imag)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_particles", [150, 300])
    def test_density_beyond_the_float_range_exits_4(self, tmp_path, capsys, n_particles):
        # D ~ (1 / r)^{3(N-1)} leaves the float range at r = 0.2: once a bare
        # OverflowError or RuntimeWarning (exit 1), now a DomainError naming it
        code, _ = run(tmp_path, "greens", f"n_particles = {n_particles}\nenergy = 0.5\n"
                                          "r_min = 0.2\nr_max = 100\nn_r = 50\n")
        assert code == 4
        assert "density_D" in capsys.readouterr().err


class TestInvalidInputExitCodes:
    @pytest.mark.parametrize("command, config", [
        ("it-check", "sigma_p = -1\n"),
        ("it-check", "sigma_p = 0\n"),
        ("it-check", "n_points = 4\n"),
        ("greens", "energy = 0.5\nr_min = 1\nr_max = 10\nn_r = 0\n"),
        ("greens", "energy = 0.5\nr_min = 1\nr_max = 10\nn_r = -3\n"),
        ("xsec", "energy = 0.5\nn_angles = 0\n"),
        ("xsec", "energy = 0.5\nn_angles = -1\n"),
        ("xsec", "energy = 0.5\nmass = 0\n"),
        ("xsec", "energy = 0.5\na = 0\n"),
        ("xsec", "energy = nan\n"),
        ("xsec", "energy = 0.5\nv0 = inf\n"),
        ("it-check", "times = 0\n"),
        ("it-check", "times = 500, -5\n"),
        ("it-check", "mass = 0\n"),
        ("coincidence", "distance = 1\nenergy = 8\nsigma = 1\nSigma = 10\nn_bins = 0\n"),
        ("coincidence", "distance = 1\nenergy = 8\nsigma = 1\nSigma = 10\n"
                        "tau_max = 0\nn_events = 1000\n"),
        ("coincidence", "distance = 0\nenergy = 8\nsigma = 1\nSigma = 10\n"),
        ("coincidence", "distance = 1\nenergy = 8\nsigma = -1\nSigma = 10\n"),
        ("delays", "masses = 1,1\ndistances = 1,1\nenergy = 1\ndelays = inf\n"),
        # beyond numpy's Poisson sampler, and a 745 GiB grid: both must be
        # refused before any work
        ("coincidence", "distance = 1\nenergy = 8\nsigma = 1\nSigma = 10\nn_events = 1e30\n"),
        ("it-check", "n_points = 100000000000\n"),
        # one past each size bound, refused before the work is allocated
        ("xsec", f"energy = 0.5\nn_angles = {MAX_ANGLES + 1}\n"),
        ("coincidence", "distance = 1\nenergy = 8\nsigma = 1\nSigma = 10\n"
                        f"n_bins = {MAX_BINS + 1}\n"),
        ("greens", f"energy = 0.5\nr_min = 1\nr_max = 10\nn_r = {MAX_RADII + 1}\n"),
        ("greens", f"n_particles = {MAX_PARTICLES + 1}\nenergy = 0.5\nr_min = 1\nr_max = 10\n"),
        # found by the fuzz: config mistakes, not tracebacks (exit 1) or
        # numerical failures (exit 4)
        ("it-check", "n_points = 0\n"),
        # position grids too coarse for the packet: the reference aliased and
        # the run reported errors near 10 (1024 points) or could not
        # normalize the sampled packet (15 points, exit 4)
        ("it-check", "n_points = 1024\n"),
        ("it-check", "n_points = 15\n"),
        ("it-check", "times = 500, 1000\nn_points = 4096\n"),
        ("greens", "n_particles = 0\nenergy = 0.5\nr_min = 1\nr_max = 10\n"),
        ("greens", "mass = 0\nenergy = 0.5\nr_min = 1\nr_max = 10\n"),
        ("greens", "n_particles = 2\nmu = -1\nenergy = 0.5\nr_min = 1\nr_max = 10\n"),
    ])
    def test_config_error(self, tmp_path, capsys, command, config):
        code, out = run(tmp_path, command, config)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert not any(out.glob("*.csv"))
        # a count out of its range names the range
        for key, value in parse_config(tmp_path / "config.txt").items():
            if key in COUNT_BOUNDS and not 1 <= int(value) <= COUNT_BOUNDS[key]:
                assert f"{key} must lie in [1, {COUNT_BOUNDS[key]}], got {value}" in err

    @pytest.mark.parametrize("row", ["0.0,1,2", "0.0,abc"])
    def test_malformed_fit_data(self, tmp_path, capsys, row):
        data = tmp_path / "data.csv"
        data.write_text(f"delta_t_au,count\n-1.0,3\n{row}\n1.0,3\n")
        code, out = run(tmp_path, "coincidence",
                        f"mode = fit\ndistance = 1\nenergy = 8\ndata = {data}\n")
        assert code == 2
        assert f"{data}:3:" in capsys.readouterr().err
        assert not (out / "fit.json").exists()

    @pytest.mark.parametrize("command, config", [
        ("xsec", "energy = -1\n"),
        ("xsec", "energy = 0\n"),
        ("coincidence", "distance = 1\nenergy = -1\nsigma = 1\nSigma = 10\n"),
        ("greens", "energy = -1\nr_min = 1\nr_max = 10\n"),
    ])
    def test_infeasible(self, tmp_path, capsys, command, config):
        code, out = run(tmp_path, command, config)
        assert code == 3
        assert capsys.readouterr().err.startswith("infeasible:")
        assert not any(out.glob("*.csv"))


# README values, with n_angles and n_bins kept small so the fuzz stays fast
SIMULATE_KEYS = {"mass": "1.0", "distance": "1.0", "energy": "8.0", "sigma": "1.0",
                 "Sigma": "10.0", "n_events": "30000", "tau_max": "6.0", "n_bins": "121"}
FIT_KEYS = {"mass": "1.0", "distance": "1.0", "energy": "8.0", "sigma_init": "0.8",
            "Sigma_init": "10.0"}
XSEC_KEYS = {"v0": "0.01", "a": "1.0", "mass": "1.0", "energy": "0.5", "n_angles": "3"}
DELAYS_KEYS = {"masses": "1.0, 1.0", "distances": "1.0, 1.0", "energy": "1.0", "delays": "1.0"}
GREENS_KEYS = {"n_particles": "1", "energy": "0.5", "r_min": "1.0", "r_max": "100.0",
               "n_r": "5", "mu": "1.0", "mass": "1.0"}
# the README times need 15,120 points to resolve the packet; 50 and 100 a.u.
# need about 760
IT_CHECK_KEYS = {"mass": "1.0", "p0": "1.0", "sigma_p": "0.25",
                 "times": "50, 100", "n_points": "1024"}


@st.composite
def _fuzzed(draw, keys, **ranges):
    """A drawn number of keys (none to all) each keep their value or take 0,
    -1, nan or inf; a key in ``ranges`` may also take any integer in its
    (low, high) range.  Drawing the count first lets configs with one or two
    unusual but valid values reach the physics."""
    n_perturbed = draw(st.integers(0, len(keys)))
    perturbed = draw(st.permutations(list(keys)))[:n_perturbed]
    out = dict(keys)
    for key in perturbed:
        values = st.sampled_from([keys[key], "0", "-1", "nan", "inf"])
        if key in ranges:
            values = values | st.integers(*ranges[key]).map(str)
        out[key] = draw(values)
    return out


@st.composite
def _magnitudes(draw, keys, names, signed=()):
    """One or two of ``names`` redrawn at 10^U(-300, 300), of either sign for a key in
    ``signed``: finite values where the plain formulas' products and squares leave the
    float range, which ``_fuzzed`` never draws."""
    out = dict(keys)
    for key in draw(st.permutations(list(names)))[:draw(st.integers(1, 2))]:
        value = 10.0 ** draw(st.floats(-300.0, 300.0))
        out[key] = repr(-value if key in signed and draw(st.booleans()) else value)
    return out


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    config = work / "simulate.txt"
    config.write_text("".join(f"{k} = {v}\n" for k, v in SIMULATE_KEYS.items()))
    assert main(["coincidence", "--config", str(config), "--out", str(work),
                 "--seed", "1"]) == 0
    return work


class TestCliFuzz:
    @given(st.one_of(
        _fuzzed(SIMULATE_KEYS).map(lambda c: ("coincidence", {"mode": "simulate", **c})),
        _fuzzed(FIT_KEYS).map(lambda c: ("coincidence", {"mode": "fit", **c})),
        _fuzzed(XSEC_KEYS).map(lambda c: ("xsec", c)),
        _fuzzed(DELAYS_KEYS).map(lambda c: ("delays", c)),
        _fuzzed(GREENS_KEYS, n_particles=(-1, 4)).map(lambda c: ("greens", c)),
        # grid sizes up to 4096 points keep each it-check run short
        _fuzzed(IT_CHECK_KEYS, n_points=(-1, 4096)).map(lambda c: ("it-check", c))))
    @example(("coincidence", {"mode": "simulate", **SIMULATE_KEYS}))
    @example(("coincidence", {"mode": "fit", **FIT_KEYS}))
    @example(("xsec", XSEC_KEYS))
    @example(("delays", DELAYS_KEYS))
    @example(("greens", GREENS_KEYS))
    @example(("it-check", IT_CHECK_KEYS))
    @settings(max_examples=200, deadline=None)
    def test_exit_code_is_typed(self, fuzz_dir, command_config):
        # every outcome is a documented exit code; nothing escapes main
        command, keys = command_config
        if keys.get("mode") == "fit":
            keys = {**keys, "data": str(fuzz_dir / "dataset.csv")}
        config = fuzz_dir / "fuzz.txt"
        config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        code = main([command, "--config", str(config), "--out", str(fuzz_dir / "out")])
        assert code in (0, 2, 3, 4)


class TestMagnitudeFuzz:
    @given(_magnitudes(XSEC_KEYS, ["v0", "a", "mass", "energy"], signed={"v0"}))
    @example({**XSEC_KEYS, "v0": "1e300"})
    @example({**XSEC_KEYS, "a": "1e-300"})
    @example({**XSEC_KEYS, "mass": "1e300", "energy": "1e300"})
    @settings(deadline=None)
    def test_xsec_magnitudes_are_typed(self, fuzz_dir, keys):
        # the plain potential, Born sum, |f|^2 and sqrt(2 m E) once escaped main with
        # a numpy overflow warning (exit 1 under -W error), or wrote inf
        config = fuzz_dir / "magnitudes.txt"
        config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        out = fuzz_dir / "magnitudes"
        (out / "xsec.csv").unlink(missing_ok=True)
        code = main(["xsec", "--config", str(config), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert all(math.isfinite(v) for v in written_numbers(out))


class TestCsvComments:
    def test_outputs_record_config(self, tmp_path):
        _, out = run(tmp_path, "xsec", "v0 = 0.01\nenergy = 0.5\n")
        first = (out / "xsec.csv").read_text().splitlines()[0]
        assert first.startswith("# config:")
        assert "v0=0.01" in first
